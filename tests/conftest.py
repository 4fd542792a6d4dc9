import time
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import strategies as st

from azw import ExactMatrix, build_graph, builtin_corpus
from azw.polynomials import _prime

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(config, items):
    # acceptance criteria run last so their wall-clock check covers the
    # rest of the session (sort is stable, other order is preserved)
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


@pytest.fixture(scope="session")
def corpus():
    return dict(builtin_corpus())


@st.composite
def connected_graphs(draw, max_n: int = 7):
    """Random simple connected graph: spanning tree plus a few extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=6))
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


@st.composite
def circulant_graphs(draw, max_n: int = 12):
    """Connected circulant graph on Z_n: i ~ i + s for each drawn offset s,
    every offset coprime to n, so each alone already connects Z_n."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    units = [s for s in range(1, n // 2 + 1) if gcd(s, n) == 1]
    offsets = draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
    return build_graph(n, sorted({(min(i, (i + s) % n), max(i, (i + s) % n))
                                  for s in offsets for i in range(n)}))


def two_period_zeta(mp, x, p: int, q: int, w, derivative: int = 0):
    """sum over j, k >= 0 of (x + p j + q k)^(-w) for coprime p, q, or its
    w-derivative: n = p j + q k has r(pq t + rho) = t + r(rho)
    representations, so the lattice splits into pq one-index sums of
    (t + r(rho)) (x + rho + pq t)^(-w), each two mpmath Hurwitz zetas."""
    L = p * q
    total = 0
    for rho in range(L):
        r_rho = sum(1 for k in range(rho // q + 1) if (rho - q * k) % p == 0)
        y = (x + rho) / L
        value = mp.zeta(w - 1, y) + (r_rho - y) * mp.zeta(w, y)
        if derivative:
            value = (mp.zeta(w - 1, y, 1) + (r_rho - y) * mp.zeta(w, y, 1)
                     - mp.log(L) * value)
        total += L ** (-w) * value
    return total


def word_prime_count(modulus: int) -> int:
    """k when modulus is _prime(0) * _prime(1) * ... * _prime(k - 1), the
    kind of modulus the exact kernels run on; 0 for any other modulus."""
    product, k = 1, 0
    while product < modulus:
        product *= _prime(k)
        k += 1
    return k if product == modulus else 0


def recording(kernel, moduli: list):
    """`kernel` with every modulus it is called on appended to `moduli`."""

    def wrapper(a, q):
        moduli.append(q)
        return kernel(a, q)

    return wrapper


def bareiss_det(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The tests' determinant oracle: it shares no code with azw's modular
    charpoly kernel (no primes, no Chinese remaindering), so checking
    `det_exact` or a charpoly against it compares two independent
    computations. Rows are scaled to integers first; the scaling is
    divided back out of the integer determinant at the end.
    """
    n = matrix.rows
    assert matrix.cols == n
    if n == 0:
        return Fraction(1)

    scale = 1
    rows: list[list[int]] = []
    for row in matrix.entries:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        rows.append([int(x * mult) for x in row])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return Fraction(sign * rows[n - 1][n - 1], scale)


# The tests' polynomial oracle: tuples of Fractions in ascending powers,
# trimmed, with Euclid's gcd over the rationals. It shares no code with
# azw's integer forms or its modular gcd, so checking `ExactPolynomial`,
# `poly_gcd` or `ExactRationalFunction.from_parts` against it compares
# two independent computations.

def frac_trim(coeffs) -> tuple[Fraction, ...]:
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def frac_add(a, b, sign: int = 1) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return frac_trim((a[k] if k < len(a) else 0) + sign * (b[k] if k < len(b) else 0)
                     for k in range(n))


def frac_mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_trim(out)


def frac_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(q, r) with a = q b + r and deg r < deg b, b nonzero."""
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return (), tuple(a)
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        q = quot[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= q * y
    return frac_trim(quot), frac_trim(rem)


def frac_gcd(a, b) -> tuple[Fraction, ...]:
    """The monic gcd over the rationals (Euclid); () for two zeros."""
    while b:
        a, b = b, frac_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()


def frac_reduce(num, den) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """num/den in lowest terms with a monic denominator, den nonzero."""
    if not num:
        return (), (Fraction(1),)
    g = frac_gcd(num, den)
    num, den = frac_divmod(num, g)[0], frac_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def bernoulli_numbers(upto: int) -> list[Fraction]:
    """B_0..B_upto from sum_{j=0}^{m} C(m+1, j) B_j = 0 in Fractions: the
    oracle of azw's written-out Bernoulli table."""
    out = [Fraction(1)]
    for m in range(1, upto + 1):
        acc = sum(Fraction(comb(m + 1, j)) * out[j] for j in range(m))
        out.append(-acc / (m + 1))
    return out
