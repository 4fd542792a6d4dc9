"""Graph zeta functions and their identity verifiers.

Covers the Grover-walk zeta 1/det(I - uU), the non-backtracking cycle zeta
by its two determinant routes (arc adjacency matrix and the vertex-level
Bass form), the arc/vertex determinant identity linking Grover spectra to
random-walk spectra, the reduced-cycle series definition, and the
reciprocal-argument automorphy certificate.

The vertex sides of Konno-Sato and, on regular graphs, of Bass are both
substitutions into the n x n walk charpoly det(I - tP); Bass on an
irregular graph takes the 2n x 2n block companion instead. The left sides
they are checked against, det(I - uU) and det(I - uB), are 2m x 2m arc
charpolys, so each identity still compares two independent computations.

Everything marked "exact" below is checked on integer forms, with no
tolerance. Spectra come from the exact charpolys: multiplicities are
exact, each eigenvalue is a double with a certified `err`, and the Grover
spectrum is the walk's, mapped and certified by the Konno-Sato identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import CertificateError, InvalidParameterError, SpectralMismatchError
from .graphs import Graph, arc_table
from .matrices import (
    ExactMatrix,
    adjacency_and_degree,
    edge_matrix,
    grover_matrix,
    positive_support,
    transition_matrix,
)
from .polynomials import (
    ExactPolynomial,
    ExactRationalFunction,
    _dyadic,
    _float_above,
    _real_roots,
    _squarefree_factors,
    poly_matrix_det,
    reversed_charpoly,
)

def grover_zeta(g: Graph) -> ExactRationalFunction:
    """1 / det(I - u U) for the Grover walk operator U of g.

    With the monic-denominator convention the numerator is det(U), i.e.
    +1 or -1.
    """
    p = reversed_charpoly(grover_matrix(g))
    return ExactRationalFunction.from_parts(ExactPolynomial.one(), p)


def _times_circle_power(det: ExactPolynomial, k: int) -> ExactRationalFunction:
    """det * (1-u^2)^k as a reduced rational function; k < 0 for trees.

    (1-u^2)^|k| has the coefficient (-1)^j C(|k|, j) at u^(2j).
    """
    circle = [0] * (2 * abs(k) + 1)
    circle[::2] = [(-1) ** j * math.comb(abs(k), j) for j in range(abs(k) + 1)]
    circle = ExactPolynomial._from_ints(1, circle)
    if k < 0:
        return ExactRationalFunction.from_parts(det, circle)
    return ExactRationalFunction.from_polynomial(det * circle)


def _bass_inverse_zeta(g: Graph) -> ExactRationalFunction:
    """(1-u^2)^(betti-1) * det(I - uA + u^2 (D - I)) as a rational function.

    On a d-regular graph with d >= 1, A = dP and D = dI, so the
    determinant is det((1 + (d-1)u^2) I - du P), read off the n x n walk
    charpoly by `_walk_vertex_side`. Any other graph, K1 included (d = 0
    has no walk), takes det(I + u(-A) + u^2 (D - I)) from the 2n x 2n
    block companion of `poly_matrix_det`.
    """
    deg = g.degrees()
    d = deg[0]
    if d and deg.count(d) == g.n:
        det = _walk_vertex_side(g, d, d - 1)
    else:
        adj, dia = adjacency_and_degree(g)
        det = poly_matrix_det(adj.scale(-1), dia - ExactMatrix.identity(g.n))
    return _times_circle_power(det, g.betti - 1)


def ihara_zeta(g: Graph, route: str = "bass") -> ExactRationalFunction:
    """Reduced-cycle zeta of g via the requested determinant route.

    route="edge" inverts det(I - uB) for the 2m x 2m non-backtracking arc
    matrix B; route="bass" uses the vertex-level formula with the (1-u^2)
    Betti prefactor, from the walk charpoly on regular graphs and the
    block companion on the others (`_bass_inverse_zeta`). Both return the
    identical reduced rational function.
    """
    if route == "edge":
        p = reversed_charpoly(edge_matrix(g))
        return ExactRationalFunction.from_parts(ExactPolynomial.one(), p)
    if route == "bass":
        inv = _bass_inverse_zeta(g)
        return ExactRationalFunction.one() / inv
    raise InvalidParameterError(f"route must be 'edge' or 'bass', got {route!r}")


class KonnoSatoReport(Record):
    """Exact comparison of det(I - uU) against the vertex-side product."""

    __slots__ = ("ok", "lhs", "rhs", "mismatches")

    def __init__(self, ok: bool, lhs: ExactPolynomial, rhs: ExactRationalFunction,
                 mismatches: tuple[tuple[int, Fraction, Fraction], ...]):
        self._set(ok, lhs, rhs, mismatches)

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


def _walk_vertex_side(g: Graph, a: int, b: int) -> ExactPolynomial:
    """det((1 + b u^2) I - a u P) from the n x n charpoly of P.

    With det(I - tP) = sum c_k t^k and t = a u/(1 + b u^2), the
    determinant is (1 + b u^2)^n det(I - tP) = sum c_k (a u)^k
    (1 + b u^2)^(n-k), built by the homogeneous Horner rule
    acc <- acc (1 + b u^2) + c_k (a u)^k in O(n^2), run on the ints of
    the charpoly's integer form. Konno-Sato's side is (a, b) = (2, 1);
    Bass's on a d-regular graph is (d, d - 1).
    """
    scale, c = reversed_charpoly(transition_matrix(g)).integer_form
    c += (0,) * (g.n + 1 - len(c))
    acc = [0]
    for k in range(g.n + 1):
        nxt = acc + [0, 0]
        for i, x in enumerate(acc):
            if x:
                nxt[i + 2] += b * x
        nxt[k] += c[k] * a ** k
        acc = nxt
    return ExactPolynomial._from_ints(scale, acc)


def verify_konno_sato(g: Graph) -> KonnoSatoReport:
    """Check det(I - uU) = (1-u^2)^(m-n) det((1+u^2) I - 2u P) exactly.

    The left side is the 2m x 2m charpoly of the Grover operator, the
    right side comes from the n x n charpoly of the transition matrix.
    It is assembled as a rational function because the (1-u^2)^(m-n)
    factor sits in the denominator for trees (m < n). The two sides agree
    when their integer forms do; the Fraction mismatches are listed only
    when they do not.
    """
    lhs = reversed_charpoly(grover_matrix(g))
    rhs = _times_circle_power(_walk_vertex_side(g, 2, 1), g.m - g.n)
    # a polynomial rhs has the monic constant denominator 1
    ok = rhs.is_polynomial and rhs.num == lhs
    if ok:
        mismatches = ()
    elif rhs.is_polynomial:
        mismatches = tuple((i, lhs.coeff(i), rhs.num.coeff(i))
                           for i in range(max(lhs.degree, rhs.num.degree) + 1)
                           if lhs.coeff(i) != rhs.num.coeff(i))
    else:
        mismatches = ((-1, Fraction(0), Fraction(1)),)  # rhs failed to reduce
    return KonnoSatoReport(ok=ok, lhs=lhs, rhs=rhs, mismatches=mismatches)


class IharaRouteReport(Record):
    """Exact agreement of the two zeta routes plus the support identity."""

    __slots__ = ("ok", "min_degree", "routes_equal", "support_equals_edge_matrix", "zeta")

    def __init__(self, ok: bool, min_degree: int, routes_equal: bool,
                 support_equals_edge_matrix: bool, zeta: ExactRationalFunction):
        self._set(ok, min_degree, routes_equal, support_equals_edge_matrix, zeta)

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
    if not isinstance(r_max, int) or isinstance(r_max, bool):
        raise InvalidParameterError(f"r_max must be an integer, got {r_max!r}")
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
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise InvalidParameterError(f"series order must be an integer >= 0, got {order!r}")
    num0, den0 = z.num.coeff(0), z.den.coeff(0)
    if num0 == 0 or den0 == 0 or num0 != den0:
        raise InvalidParameterError("series log needs z(0) = 1")
    num = [c / num0 for c in z.num.coeffs]
    den = [c / den0 for c in z.den.coeffs]
    log_num = _series_log(num, order)
    log_den = _series_log(den, order)
    return [a - b for a, b in zip(log_num, log_den)]


class CycleSeriesReport(Record):
    """Reduced-cycle counts against r * [u^r] log Z, both exact."""

    __slots__ = ("ok", "r_max", "counts", "from_series")

    def __init__(self, ok: bool, r_max: int, counts: tuple[int, ...],
                 from_series: tuple[Fraction, ...]):
        self._set(ok, r_max, counts, from_series)

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
    if not isinstance(r_max, int) or isinstance(r_max, bool) or not 1 <= r_max <= 8:
        # below 1 nothing is checked; above 8 enumeration is unbounded
        raise InvalidParameterError(f"r_max must be in 1..8, got {r_max}")
    counts = count_reduced_cycles(g, r_max)
    log_z = log_zeta_series(ihara_zeta(g, route="bass"), r_max)
    from_series = tuple(r * log_z[r] for r in range(1, r_max + 1))
    ok = all(Fraction(c) == s for c, s in zip(counts, from_series))
    return CycleSeriesReport(ok=ok, r_max=r_max, counts=counts, from_series=from_series)


class SpectrumReport(Record):
    """Eigenvalues with multiplicities and provenance. err[i] bounds the
    distance from entries[i]'s value to the eigenvalue it stands for,
    rounding included, so it is 0 only where the double is exact."""

    __slots__ = ("entries", "err", "source")

    def __init__(self, entries: tuple[tuple[complex, int], ...], err: tuple[float, ...],
                 source: str):  # source: "direct" | "konno_sato_mapped"
        self._set(entries, err, source)

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.entries)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "eigenvalues": [
                {"value": [value.real, value.imag], "multiplicity": mult, "err": err}
                for (value, mult), err in zip(self.entries, self.err)
            ],
        }


def _sorted_report(entries: list, err: list, source: str) -> SpectrumReport:
    order = sorted(range(len(entries)), key=lambda i: (entries[i][0].real, entries[i][0].imag))
    return SpectrumReport(entries=tuple([entries[i] for i in order]),
                          err=tuple([err[i] for i in order]), source=source)


def _walk_charpoly(g: Graph) -> tuple[int, list[int]]:
    """(L, det(yI - L P)): L the lcm of the degrees, the charpoly monic with
    integer coefficients, in ascending powers of y.

    det(I - uP) has e_k / L^k at u^k, and det(yI - L P) has e_k at y^(n-k).
    """
    walk = transition_matrix(g)
    scale = walk.integer_form[0]
    s, ints = reversed_charpoly(walk).integer_form  # e_k / L^k = ints[k] / s
    e = [x * scale ** k // s for k, x in enumerate(ints)]
    return scale, [0] * (g.n + 1 - len(e)) + e[::-1]


def transition_spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the random-walk transition matrix P, certified.

    They are y / L over the roots y of det(yI - L P), which are real, as P
    is similar to the symmetric D^(-1/2) A D^(-1/2), and lie in [-L, L].
    Yun's squarefree factors of that integer charpoly give the exact
    multiplicities, and `_real_roots` brackets each factor's roots: mu = +1
    and -1, like every rational eigenvalue, come out exact.
    """
    scale, charpoly = _walk_charpoly(g)
    entries, err = [], []
    for mult, factor in _squarefree_factors(charpoly):
        for value, bound in _real_roots(factor, scale):
            entries.append((complex(value), mult))
            err.append(bound)
    return _sorted_report(entries, err, "direct")


def _on_circle(v: float, err: float) -> tuple[float, float]:
    """(s, bound): s = sqrt(1 - v^2), and a bound on |v + is - lambda| for
    every lambda = mu + i sqrt(1 - mu^2) with mu in [-1, 1] within err of v.

    |s - sqrt(1 - mu^2)| <= |s^2 - (1 - mu^2)| / s and |v^2 - mu^2| <=
    err (2|v| + err); the bound err + that is summed exactly on the
    doubles' dyadic values and rounded up, so it is 0 when v + is is exact.
    """
    if not -1.0 < v < 1.0:
        raise SpectralMismatchError(f"walk eigenvalue {v} +- {err} is not inside (-1, 1)")
    s = math.sqrt(1.0 - v * v)
    (nv, sv), (ne, se), (ns, ss) = map(_dyadic, (v, err, s))
    shift = max(sv, se, ss)
    nv, ne, ns = nv << shift - sv, ne << shift - se, ns << shift - ss
    one = 1 << shift
    gap = abs(ns * ns - one * one + nv * nv) + ne * (2 * abs(nv) + ne)
    return s, _float_above(ne * ns + gap, ns * one)


def spectrum_via_konno_sato(g: Graph) -> SpectrumReport:
    """Grover spectrum mapped from the certified random-walk spectrum.

    Each walk eigenvalue (mu, k) other than +-1 maps to the roots of
    lambda^2 - 2 mu lambda + 1, (mu +/- i sqrt(1 - mu^2), k), with the err
    of `_on_circle`. mu = +1 or -1 is decided exactly: an entry with err 0
    is its double, and it adds 2k to that unit's count. The
    (lambda^2 - 1)^(m-n) factor adds m - n to both counts; one left
    negative (a tree lacking mu = +-1) raises SpectralMismatchError.
    """
    units = {1.0: g.m - g.n, -1.0: g.m - g.n}
    entries, err = [], []
    walk = transition_spectrum(g)
    for (mu, k), bound in zip(walk.entries, walk.err):
        if not bound and mu.real in units:
            units[mu.real] += 2 * k
            continue
        s, bound = _on_circle(mu.real, bound)
        entries += [(complex(mu.real, s), k), (complex(mu.real, -s), k)]
        err += [bound, bound]
    for unit, count in units.items():
        if count < 0:
            raise SpectralMismatchError(
                f"eigenvalue {unit} has multiplicity {count} after the m - n shift")
        if count:
            entries.append((complex(unit), count))
            err.append(0.0)
    return _sorted_report(entries, err, "konno_sato_mapped")


def _direct_spectrum(g: Graph, mapped: SpectrumReport | None) -> SpectrumReport:
    """`spectrum(g)`, its values other than +-1 taken from `mapped`: the
    Konno-Sato spectrum, or None for a graph without edges."""
    ints = reversed_charpoly(grover_matrix(g)).integer_form[1]
    chi = [0] * (2 * g.m + 1 - len(ints)) + list(ints[::-1])  # det(lambda I - U), scaled
    units = {1: 0, -1: 0}
    for unit in units:
        while True:  # synthetic division by lambda - unit; rest[-1] is chi(unit)
            rest, acc = [], 0
            for c in reversed(chi):
                acc = acc * unit + c
                rest.append(acc)
            if rest[-1]:
                break
            chi = rest[-2::-1]
            units[unit] += 1
    entries = [(complex(unit), k) for unit, k in units.items() if k]
    err = [0.0] * len(entries)
    if len(chi) > 1:
        if not verify_konno_sato(g).ok:
            raise SpectralMismatchError("det(I - uU) fails the Konno-Sato identity")
        for (value, k), bound in zip(mapped.entries, mapped.err):
            if value.imag:
                entries.append((value, k))
                err.append(bound)
    if sum(k for _, k in entries) != 2 * g.m:
        raise SpectralMismatchError(f"the multiplicities do not add up to 2m = {2 * g.m}")
    return _sorted_report(entries, err, "direct")


def spectrum(g: Graph) -> SpectrumReport:
    """Eigenvalues of the Grover operator U, certified by Konno-Sato.

    The factors lambda -+ 1 of det(lambda I - U) give the multiplicities
    of +-1 exactly. Once `verify_konno_sato` holds, the other eigenvalues
    are those of `spectrum_via_konno_sato`, values, err and multiplicities
    alike. Multiplicities that do not add up to 2m raise
    SpectralMismatchError.
    """
    return _direct_spectrum(g, spectrum_via_konno_sato(g) if g.m else None)


def matched_spectra(g: Graph) -> tuple[SpectrumReport, SpectrumReport]:
    """Direct and mapped Grover spectra, verified equal entry by entry.

    `spectrum`'s certificate runs on the one mapped spectrum, so both list
    the same values and err; the multiplicities of +-1, from U's charpoly
    and from the walk's with the m - n shift, must agree.
    """
    mapped = spectrum_via_konno_sato(g)
    direct = _direct_spectrum(g, mapped)
    if direct.entries != mapped.entries:
        raise SpectralMismatchError("the direct and mapped spectra differ at +1 or -1")
    return direct, mapped


class AutomorphyCertificate(Record):
    """Witness of zeta(1/u) = sign * u^(-weight) * zeta(u): sign is
    det U = (-1)^(m-n) for the Grover operator U (1 on K1), weight is
    always -2m, and max_residual is 0.0, as the identity is checked
    exactly."""

    __slots__ = ("sign", "weight", "max_residual")

    def __init__(self, sign: int, weight: int, max_residual: float):
        self._set(sign, weight, max_residual)

    def to_dict(self) -> dict:
        return {"C": self.sign, "D": self.weight, "max_residual": self.max_residual}


def automorphic_weight(g: Graph) -> AutomorphyCertificate:
    """Certify the reciprocal-argument automorphy of the Grover zeta.

    The sign is the closed form det U = (-1)^(m-n), from the graph's
    counts alone: U is the arc flip (m transpositions) times one coin
    2J/d - I of det (-1)^(d-1) per vertex. K1's empty U has det 1. With
    zeta = c / den, c constant, the identity holds exactly when den has
    degree 2m and its coefficient reversal is sign * den. det(I - uU)
    has constant term 1, so this forces its top coefficient, det U, to
    equal the sign: the check compares the counts with the 2m x 2m
    charpoly. A failure would mean an implementation bug, so it raises
    CertificateError; max_residual is always 0.0.
    """
    sign = (-1) ** ((g.m - g.n) % 2) if g.m else 1  # an int on trees too, where m - n = -1
    zeta = grover_zeta(g)
    den = zeta.den
    if zeta.num.degree != 0 or den.degree != 2 * g.m or den.reversed() != den.scale(sign):
        raise CertificateError("exact automorphy identity failed")
    return AutomorphyCertificate(sign=sign, weight=-2 * g.m, max_residual=0.0)
