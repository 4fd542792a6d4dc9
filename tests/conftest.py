import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import strategies as st

from azw import ExactMatrix, build_graph, builtin_corpus
from azw.matrices import _prime

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
    kernels (no primes, no Chinese remaindering), so checking `det_exact`
    or a charpoly against it compares two independent computations. Rows
    are scaled to integers first; the scaling is divided back out of the
    integer determinant at the end.
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
