"""Graph zeta functions and their identity verifiers.

Covers the Grover-walk zeta 1/det(I - uU), the non-backtracking cycle zeta
by its two determinant routes (arc adjacency matrix and the vertex-level
Bass form), the arc/vertex determinant identity linking Grover spectra to
random-walk spectra, the reduced-cycle series definition, and the
reciprocal-argument automorphy certificate.

Everything marked "exact" below is checked in rational arithmetic with no
tolerance; spectra are floating, clustered and matched within the one
constant SPECTRUM_CLUSTER_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, InvalidParameterError, SpectralMismatchError
from .graphs import Graph, arc_table
from .matrices import (
    ExactMatrix,
    adjacency_and_degree,
    det_exact,
    edge_matrix,
    grover_matrix,
    positive_support,
    transition_matrix,
)
from .polynomials import (
    ExactPolynomial,
    ExactRationalFunction,
    poly_matrix_det,
    reversed_charpoly,
)

SPECTRUM_CLUSTER_TOL = 1e-8
UNIT_CIRCLE_TOL = 1e-10


def grover_zeta(g: Graph) -> ExactRationalFunction:
    """1 / det(I - u U) for the Grover walk operator U of g.

    With the monic-denominator convention the numerator is det(U), i.e.
    +1 or -1.
    """
    p = reversed_charpoly(grover_matrix(g))
    return ExactRationalFunction.from_parts(ExactPolynomial.one(), p)


def _times_circle_power(det: ExactPolynomial, k: int) -> ExactRationalFunction:
    """det * (1-u^2)^k as a reduced rational function; k < 0 for trees.

    (1-u^2)^|k| has the coefficient (-1)^j C(|k|, j) at u^(2j), so for
    k >= 0 the product is a convolution over det's nonzero coefficients,
    taken on det's integer numerators over their common denominator.
    """
    circle = [(2 * j, (-1) ** j * math.comb(abs(k), j)) for j in range(abs(k) + 1)]
    if k < 0:
        power = [0] * (1 - 2 * k)
        for i, c in circle:
            power[i] = c
        return ExactRationalFunction.from_parts(det, ExactPolynomial.from_coeffs(power))
    scale, ints = det.integer_form
    out = [0] * (len(ints) + 2 * k)
    for i, a in enumerate(ints):
        if a:
            for j, c in circle:
                out[i + j] += a * c
    return ExactRationalFunction.from_parts(ExactPolynomial.from_integer_form(scale, out),
                                            ExactPolynomial.one())


def _bass_inverse_zeta(g: Graph) -> ExactRationalFunction:
    """(1-u^2)^(betti-1) * det(I - uA + u^2 (D - I)) as a rational function."""
    adj, deg = adjacency_and_degree(g)
    det = poly_matrix_det(adj.scale(-1), deg - ExactMatrix.identity(g.n))
    return _times_circle_power(det, g.betti - 1)


def ihara_zeta(g: Graph, route: str = "bass") -> ExactRationalFunction:
    """Reduced-cycle zeta of g via the requested determinant route.

    route="edge" inverts det(I - uB) for the non-backtracking arc matrix B;
    route="bass" uses the vertex-level formula with the (1-u^2) Betti
    prefactor. Both return the identical reduced rational function.
    """
    if route == "edge":
        p = reversed_charpoly(edge_matrix(g))
        return ExactRationalFunction.from_parts(ExactPolynomial.one(), p)
    if route == "bass":
        inv = _bass_inverse_zeta(g)
        return ExactRationalFunction.one() / inv
    raise InvalidParameterError(f"route must be 'edge' or 'bass', got {route!r}")


@dataclass(frozen=True)
class KonnoSatoReport:
    """Exact comparison of det(I - uU) against the vertex-side product."""

    ok: bool
    lhs: ExactPolynomial
    rhs: ExactRationalFunction
    mismatches: tuple[tuple[int, Fraction, Fraction], ...]

    def to_dict(self) -> dict:
        return {
            "status": "ok" if self.ok else "failed",
            "lhs": [str(c) for c in self.lhs.coeffs],
            "rhs": {
                "num": [str(c) for c in self.rhs.num.coeffs],
                "den": [str(c) for c in self.rhs.den.coeffs],
            },
            "mismatches": [[k, str(a), str(b)] for k, a, b in self.mismatches],
        }


def _konno_sato_vertex_side(g: Graph) -> ExactPolynomial:
    """det((1+u^2) I - 2u P) from the n x n charpoly of P.

    With det(I - tP) = sum c_k t^k and t = 2u/(1+u^2), the determinant is
    (1+u^2)^n det(I - tP) = sum c_k (2u)^k (1+u^2)^(n-k), built by the
    homogeneous Horner rule acc <- acc (1+u^2) + c_k (2u)^k in O(n^2),
    run on the integer numerators of the c_k over their common denominator.
    """
    scale, c = reversed_charpoly(transition_matrix(g)).integer_form
    c += [0] * (g.n + 1 - len(c))
    acc = [0]
    for k in range(g.n + 1):
        nxt = acc + [0, 0]
        for i, x in enumerate(acc):
            if x:
                nxt[i + 2] += x
        nxt[k] += c[k] * 2 ** k
        acc = nxt
    return ExactPolynomial.from_integer_form(scale, acc)


def verify_konno_sato(g: Graph) -> KonnoSatoReport:
    """Check det(I - uU) = (1-u^2)^(m-n) det((1+u^2) I - 2u P) exactly.

    The left side is the 2m x 2m charpoly of the Grover operator, the
    right side comes from the n x n charpoly of the transition matrix.
    It is assembled as a rational function because the (1-u^2)^(m-n)
    factor sits in the denominator for trees (m < n).
    """
    lhs = reversed_charpoly(grover_matrix(g))
    rhs = _times_circle_power(_konno_sato_vertex_side(g), g.m - g.n)

    mismatches: list[tuple[int, Fraction, Fraction]] = []
    if rhs.is_polynomial:
        rhs_poly = rhs.num  # the monic constant denominator is 1
        top = max(lhs.degree, rhs_poly.degree)
        for i in range(top + 1):
            a, b = lhs.coeff(i), rhs_poly.coeff(i)
            if a != b:
                mismatches.append((i, a, b))
    else:
        mismatches.append((-1, Fraction(0), Fraction(1)))  # rhs failed to reduce
    return KonnoSatoReport(ok=not mismatches, lhs=lhs, rhs=rhs,
                           mismatches=tuple(mismatches))


@dataclass(frozen=True)
class IharaRouteReport:
    """Exact agreement of the two zeta routes plus the support identity."""

    ok: bool
    min_degree: int
    routes_equal: bool
    support_equals_edge_matrix: bool
    zeta: ExactRationalFunction

    def to_dict(self) -> dict:
        return {
            "status": "ok" if self.ok else "failed",
            "min_degree": self.min_degree,
            "routes_equal": self.routes_equal,
            "support_equals_edge_matrix": self.support_equals_edge_matrix,
            "zeta_num": [str(c) for c in self.zeta.num.coeffs],
            "zeta_den": [str(c) for c in self.zeta.den.coeffs],
        }


def verify_ihara_routes(g: Graph) -> IharaRouteReport:
    """Compare edge-matrix and Bass routes, and the positive-support bridge.

    The support of the transposed Grover matrix reproduces the arc matrix
    only for min degree >= 2 (the backtracking entry 2/d - 1 is positive
    at d = 1), so that comparison is reported but only counted as a
    failure on graphs where it must hold.
    """
    z_edge = ihara_zeta(g, route="edge")
    z_bass = ihara_zeta(g, route="bass")
    routes_equal = z_edge == z_bass
    support_eq = positive_support(grover_matrix(g).transpose()) == edge_matrix(g)
    mind = g.min_degree()
    ok = routes_equal and (support_eq or mind < 2)
    return IharaRouteReport(ok=ok, min_degree=mind, routes_equal=routes_equal,
                            support_equals_edge_matrix=support_eq, zeta=z_bass)


def count_reduced_cycles(g: Graph, r_max: int) -> tuple[int, ...]:
    """Brute-force N_r for r = 1..r_max by enumerating arc sequences.

    A counted sequence (e_1, ..., e_r) is closed, never backtracks, and
    its wrap-around step is also backtrack-free (equivalently: traversing
    it twice is still backtrack-free). Sequences with different starting
    arcs are distinct, as are the two orientations.
    """
    arcs = arc_table(g)
    size = len(arcs)
    succ = [[f for f in range(size)
             if arcs.origin(f) == arcs.terminus(e) and f != arcs.inverse(e)]
            for e in range(size)]
    counts = [0] * (r_max + 1)

    def extend(first: int, current: int, length: int) -> None:
        for nxt in succ[current]:
            if length + 1 <= r_max:
                if arcs.terminus(nxt) == arcs.origin(first) and nxt != arcs.inverse(first):
                    counts[length + 1] += 1
                extend(first, nxt, length + 1)

    for e in range(size):
        extend(e, e, 1)
    return tuple(counts[1:])


def _series_log(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Formal log of a power series with constant term 1, to u^order."""
    assert coeffs[0] == 1
    f = [coeffs[k] if k < len(coeffs) else Fraction(0) for k in range(order + 1)]
    log = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = f[n]
        for k in range(1, n):
            acc -= Fraction(k, n) * log[k] * f[n - k]
        log[n] = acc
    return log


def log_zeta_series(z: ExactRationalFunction, order: int) -> list[Fraction]:
    """Coefficients of log z as a formal power series over the rationals.

    Requires z(0) = 1, which holds for every graph zeta here.
    """
    num0, den0 = z.num.coeff(0), z.den.coeff(0)
    if num0 == 0 or den0 == 0 or num0 != den0:
        raise InvalidParameterError("series log needs z(0) = 1")
    num = [c / num0 for c in z.num.coeffs]
    den = [c / den0 for c in z.den.coeffs]
    log_num = _series_log(num, order)
    log_den = _series_log(den, order)
    return [a - b for a, b in zip(log_num, log_den)]


@dataclass(frozen=True)
class CycleSeriesReport:
    """Reduced-cycle counts against r * [u^r] log Z, both exact."""

    ok: bool
    r_max: int
    counts: tuple[int, ...]
    from_series: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {
            "status": "ok" if self.ok else "failed",
            "r_max": self.r_max,
            "counts": list(self.counts),
            "from_series": [str(c) for c in self.from_series],
        }


def verify_ihara_series(g: Graph, r_max: int = 6) -> CycleSeriesReport:
    """Check the exponential-sum definition of the cycle zeta exactly.

    Enumerated counts N_r must equal r * [u^r] log Z(G, u) as rationals,
    with log taken as a formal power series (no floating logs).
    """
    if not 1 <= r_max <= 8:
        # below 1 nothing is checked; above 8 enumeration is unbounded
        raise InvalidParameterError(f"r_max must be in 1..8, got {r_max}")
    counts = count_reduced_cycles(g, r_max)
    log_z = log_zeta_series(ihara_zeta(g, route="bass"), r_max)
    from_series = tuple(r * log_z[r] for r in range(1, r_max + 1))
    ok = all(Fraction(c) == s for c, s in zip(counts, from_series))
    return CycleSeriesReport(ok=ok, r_max=r_max, counts=counts, from_series=from_series)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue clusters with multiplicities, provenance and the
    clustering tolerance (always SPECTRUM_CLUSTER_TOL)."""

    entries: tuple[tuple[complex, int], ...]
    source: str  # "direct" | "konno_sato_mapped"
    tolerance: float

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "tolerance": self.tolerance,
            "eigenvalues": [
                {"value": [value.real, value.imag], "multiplicity": mult}
                for value, mult in self.entries
            ],
        }


def _sorted_report(entries, source: str) -> SpectrumReport:
    return SpectrumReport(entries=tuple(sorted(entries, key=lambda e: (e[0].real, e[0].imag))),
                          source=source, tolerance=SPECTRUM_CLUSTER_TOL)


def _cluster(values: list[complex], source: str) -> SpectrumReport:
    # Greedy clustering against running means; each cluster is [sum, count]
    # with the sum started from 0j, as sum() starts. Sorted order alone is
    # not reliable when real parts differ only by solver noise.
    clusters: list[list] = []
    for z in sorted(values, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(z - c[0] / c[1]) <= SPECTRUM_CLUSTER_TOL:
                c[0] += z
                c[1] += 1
                break
        else:
            clusters.append([0j + z, 1])
    return _sorted_report([(total / count, count) for total, count in clusters], source)


def spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the Grover operator, clustered from a dense solve."""
    import numpy as np

    rows = grover_matrix(g).to_float_rows()
    if not rows:  # the one-vertex graph: numpy reads [] as a 1-D array
        return _cluster([], "direct")
    vals = np.linalg.eigvals(np.array(rows, dtype=float))
    return _cluster([complex(v) for v in vals], "direct")


def _transition_eigenvalues(g: Graph) -> list[float]:
    """Eigenvalues of P from its symmetric conjugate D^(-1/2) A D^(-1/2),
    which has the same spectrum and keeps the solve real-symmetric."""
    import numpy as np

    if min(g.degrees()) == 0:
        # only the single-vertex graph; P has a row of zeros there
        raise InvalidParameterError("random walk needs every vertex to have a neighbour")
    adj, _ = adjacency_and_degree(g)
    a = np.array(adj.to_float_rows(), dtype=float)
    d = np.array([float(x) for x in g.degrees()])
    scal = 1.0 / np.sqrt(d)
    sym = a * scal[:, None] * scal[None, :]
    return [float(v) for v in np.linalg.eigvalsh(sym)]


def transition_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the random-walk transition matrix."""
    return _cluster([complex(v) for v in _transition_eigenvalues(g)], "direct")


def spectrum_via_konno_sato(g: Graph) -> SpectrumReport:
    """Grover spectrum obtained by mapping the clustered random-walk spectrum.

    Each transition cluster (mu, k) maps to the roots of
    lambda^2 - 2 mu lambda + 1, (mu +/- i sqrt(1 - mu^2), k); a mu within
    SPECTRUM_CLUSTER_TOL of +1 or -1 adds 2k to that unit's count instead.
    The (lambda^2 - 1)^(m-n) factor adds m - n to both counts; one left
    negative (a tree lacking mu = +-1) raises SpectralMismatchError.
    """
    units = {1.0: g.m - g.n, -1.0: g.m - g.n}
    entries: list[tuple[complex, int]] = []
    for mu, k in transition_spectrum(g).entries:
        unit = next((u for u in units if abs(mu - u) <= SPECTRUM_CLUSTER_TOL), None)
        if unit is not None:
            units[unit] += 2 * k
            continue
        root = math.sqrt(max(0.0, 1.0 - mu.real * mu.real))
        entries += [(complex(mu.real, root), k), (complex(mu.real, -root), k)]
    for unit, count in units.items():
        if count < 0:
            raise SpectralMismatchError(
                f"eigenvalue {unit} has multiplicity {count} after the m - n shift")
        if count:
            entries.append((complex(unit), count))
    return _sorted_report(entries, "konno_sato_mapped")


def matched_spectra(g: Graph) -> tuple[SpectrumReport, SpectrumReport]:
    """Direct and mapped Grover spectra, verified equal cluster by cluster.

    Each direct cluster is paired with the nearest unused mapped cluster
    of the same multiplicity within SPECTRUM_CLUSTER_TOL, and must lie on
    the unit circle within UNIT_CIRCLE_TOL; equal dimensions then leave
    no mapped cluster unpaired.
    """
    direct = spectrum(g)
    mapped = spectrum_via_konno_sato(g)
    if direct.dimension != mapped.dimension:
        raise SpectralMismatchError(f"dimension {direct.dimension} vs {mapped.dimension}")
    unused = list(mapped.entries)
    for value, mult in direct.entries:
        near = [e for e in unused
                if e[1] == mult and abs(e[0] - value) <= SPECTRUM_CLUSTER_TOL]
        if not near:
            raise SpectralMismatchError(
                f"no mapped eigenvalue of multiplicity {mult} within "
                f"{SPECTRUM_CLUSTER_TOL:.1e} of {value}")
        unused.remove(min(near, key=lambda e: abs(e[0] - value)))
        if abs(abs(value) - 1.0) > UNIT_CIRCLE_TOL:
            raise SpectralMismatchError(f"eigenvalue {value} off the unit circle")
    return direct, mapped


@dataclass(frozen=True)
class AutomorphyCertificate:
    """Witness of zeta(1/u) = sign * u^(-weight) * zeta(u)."""

    sign: int           # det of the Grover operator, +1 or -1
    weight: int         # always -2m
    max_residual: float  # 0.0: the identity is checked exactly

    def to_dict(self) -> dict:
        return {"C": self.sign, "D": self.weight, "max_residual": self.max_residual}


def automorphic_weight(g: Graph) -> AutomorphyCertificate:
    """Certify the reciprocal-argument automorphy of the Grover zeta.

    With zeta = c / den, c constant, the identity holds exactly when den
    has degree 2m and its coefficient reversal is sign * den; that is
    checked exactly on the zeta's own parts, with the sign taken from a
    computation independent of the charpoly: det U by modular elimination
    (`det_exact`), not the Hessenberg recurrence. A failure would mean an
    implementation bug, so it raises CertificateError. The identity is
    exact, so max_residual is always 0.0.
    """
    u = grover_matrix(g)
    det_u = det_exact(u)
    if det_u not in (1, -1):
        raise CertificateError(f"det of Grover operator is {det_u}, expected +1 or -1")
    sign = int(det_u)
    weight = -2 * g.m

    zeta = grover_zeta(g)
    den = zeta.den
    rev = den.reversed()
    if zeta.num.degree != 0 or den.degree != 2 * g.m or rev != den.scale(sign):
        raise CertificateError("exact automorphy identity failed")
    return AutomorphyCertificate(sign=sign, weight=weight, max_residual=0.0)
