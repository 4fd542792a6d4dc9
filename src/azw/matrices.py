"""Exact rational matrices and the walk operators built from a graph.

Every matrix here is exact, so that the determinant identities
downstream hold exactly, never up to a tolerance. A matrix M is held as
its one integer form (L, L*M), L the lcm of the entry denominators:
the walk builders emit those ints directly, and arithmetic, hashing,
equality and every exact kernel work on them. Fraction entries are
derived only when read. An exact determinant is taken by one
elimination modulo q, a product of word-size primes just large enough for
a Hadamard bound, and lifted symmetrically. Over Z/q a pivot must be a
unit; a nonzero zero-divisor pivot splits q into two coprime factors,
each solved on its own and joined by one Chinese remainder step. The
primes, the pivot rule and the lift live here and are shared with the
charpoly kernel.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import InvalidParameterError, NonSquareError
from .graphs import Graph, arc_table

# Miller-Rabin with these bases is exact below 3.3e24, far above 2^62.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The modular primes, largest first below 2^62, found on first use.
_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th largest prime below 2^62."""
    while len(_PRIMES) <= i:
        p = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[i]


class _Split(Exception):
    """A column modulo a composite q with nonzero entries but no unit:
    `factor` = gcd(entry, q) is a proper factor of q."""

    def __init__(self, factor: int):
        super().__init__(factor)
        self.factor = factor


def _unit_pivot(h: list[list[int]], col: int, start: int, q: int) -> int | None:
    """The first row i >= start with h[i][col] a unit modulo q, or None
    when the column is zero there. Raises _Split when the column has a
    nonzero entry but no unit, which a prime q never does."""
    factor = 0
    for i in range(start, len(h)):
        x = h[i][col]
        if x:
            g = gcd(x, q)
            if g == 1:
                return i
            factor = factor or g
    if factor:
        raise _Split(factor)
    return None


def _solve_mod(q: int, residues) -> list[int]:
    """residues(q), in [0, q). When a zero-divisor pivot splits q, the
    coprime factors g and q/g are solved on their own and joined by one
    Chinese remainder step; a prime never splits, so this ends."""
    try:
        return list(residues(q))
    except _Split as split:
        g = split.factor
        h = q // g
        inv = pow(g, -1, h)
        return [x + g * ((y - x) * inv % h)
                for x, y in zip(_solve_mod(g, residues), _solve_mod(h, residues))]


def _crt_lift(bound: int, residues) -> list[int]:
    """The integers of absolute value at most `bound` whose residues
    modulo q are the values of residues(q).

    q = _prime(0) * _prime(1) * ... stops growing once it exceeds
    2 * bound, and residues runs once modulo q (or once per factor, if a
    zero-divisor pivot splits q); the symmetric lift into (-q/2, q/2) is
    then the integers themselves.
    """
    modulus, i = 1, 0
    while modulus <= 2 * bound:
        modulus *= _prime(i)
        i += 1
    lifted = _solve_mod(modulus, residues)
    half = modulus // 2
    return [e - modulus if e > half else e for e in lifted]


class ExactMatrix:
    """Immutable rectangular matrix over the rationals, held as its
    integer form.

    A rows x cols matrix M is stored as `integer_form` = (L, A): L > 0 the
    lcm of the entry denominators and A = L*M, its entries in one
    row-major tuple of ints. L is fixed by the values, so the form is
    canonical: two matrices of one shape are equal exactly when their
    forms are, and the hash is the form's. A is one flat tuple, not one
    tuple per row: CPython keeps freed tuples shorter than 20 on free
    lists, where the rows of many small matrices would pile up and hold
    memory. The Fraction `entries` are derived only when read.
    """

    __slots__ = ("rows", "cols", "integer_form")

    def __init__(self, entries=()):
        """entries: rows of numbers, each taken as Fraction(x)."""
        rows = [tuple(map(Fraction, row)) for row in entries]
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        flat = list(chain.from_iterable(rows))
        scale = lcm(*(x.denominator for x in flat))
        ints = tuple(x.numerator * (scale // x.denominator) for x in flat)
        self._set(len(rows), width, scale, ints)

    def _set(self, rows: int, cols: int, scale: int, ints: tuple[int, ...]) -> None:
        # as with rows of entries, a matrix without rows has no columns
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols if rows else 0)
        object.__setattr__(self, "integer_form", (scale, ints))

    @classmethod
    def _from_ints(cls, rows: int, cols: int, scale: int, ints) -> "ExactMatrix":
        """The rows x cols matrix ints / scale, ints row-major and scale > 0.

        Dividing scale and ints by their gcd leaves L the lcm of the
        reduced entry denominators, so the form is canonical.
        """
        ints = tuple(ints)
        if scale != 1:
            g = gcd(scale, *ints)
            if g != 1:
                scale //= g
                ints = tuple(x // g for x in ints)
        m = cls.__new__(cls)
        m._set(rows, cols, scale, ints)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return ExactMatrix._from_ints, (self.rows, self.cols, *self.integer_form)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of Fractions, derived from the integer form."""
        scale = self.integer_form[0]
        value = {x: Fraction(x, scale) for x in set(self.integer_form[1])}
        return tuple(tuple(map(value.__getitem__, row)) for row in self.integer_rows())

    def integer_rows(self) -> list[tuple[int, ...]]:
        """The rows of A = L*M, sliced from the integer form."""
        a, width = self.integer_form[1], self.cols
        if not width:
            return [()] * self.rows
        return [a[i:i + width] for i in range(0, len(a), width)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.integer_form == other.integer_form)

    def __hash__(self) -> int:
        return hash(self.integer_form)

    def __repr__(self) -> str:
        return f"ExactMatrix(entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        ints = [0] * (n * n)
        ints[::n + 1] = [1] * n
        return cls._from_ints(n, n, 1, ints)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._from_ints(rows, cols, 1, (0,) * (rows * cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = range(self.rows)[ij[0]], range(self.cols)[ij[1]]
        scale, a = self.integer_form
        return Fraction(a[i * self.cols + j], scale)

    def transpose(self) -> "ExactMatrix":
        scale, a = self.integer_form
        cols = self.cols
        return ExactMatrix._from_ints(
            cols, self.rows, scale, chain.from_iterable(a[j::cols] for j in range(cols)))

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other over the lcm of the two scales."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        (s1, a), (s2, b) = self.integer_form, other.integer_form
        scale = lcm(s1, s2)
        x, y = scale // s1, sign * (scale // s2)
        return ExactMatrix._from_ints(self.rows, self.cols, scale,
                                      (p * x + q * y for p, q in zip(a, b)))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def scale(self, c) -> "ExactMatrix":
        c = Fraction(c)
        scale, a = self.integer_form
        num = c.numerator
        return ExactMatrix._from_ints(self.rows, self.cols, scale * c.denominator,
                                      (num * x for x in a))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        cols = other.cols
        # zero entries are skipped on both sides: walk matrices are sparse
        support = [[(j, y) for j, y in enumerate(row) if y] for row in other.integer_rows()]
        out = []
        for row in self.integer_rows():
            acc = [0] * cols
            for x, srow in zip(row, support):
                if x:
                    for j, y in srow:
                        acc[j] += x * y
            out += acc
        return ExactMatrix._from_ints(self.rows, cols,
                                      self.integer_form[0] * other.integer_form[0], out)

    def to_json(self) -> str:
        """Row-major dump, entries as "p/q" strings in lowest terms."""
        return json.dumps({
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.entries],
        })

    @classmethod
    def from_json(cls, text: str) -> "ExactMatrix":
        raw = json.loads(text)
        m = cls.from_rows(raw["entries"])
        if (m.rows, m.cols) != (raw["rows"], raw["cols"]):
            raise ValueError("declared shape disagrees with entries")
        return m


def _det_mod(a, q: int) -> int:
    """det(A) mod q for an integer matrix A, by Gaussian elimination over
    Z/q with row swaps; q is a product of word primes.

    Pivots are units (`_unit_pivot`): a column that is zero modulo q
    gives det 0, and a nonzero zero-divisor pivot raises _Split, which
    splits q. Zero entries are skipped, which keeps sparse walk matrices
    cheap.
    """
    n = len(a)
    h = [[x % q for x in row] for row in a]
    det = 1
    for k in range(n):
        pivot = _unit_pivot(h, k, k, q)
        if pivot is None:
            return 0
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            det = -det
        hk = h[k]
        det = det * hk[k] % q
        inv = pow(hk[k], -1, q)
        support = [(j, hk[j]) for j in range(k + 1, n) if hk[j]]
        # column k below the pivot is never read again, so it is left stale
        for i in range(k + 1, n):
            hi = h[i]
            c = hi[k]
            if c:
                c = c * inv % q
                for j, y in support:
                    hi[j] = (hi[j] - c * y) % q
    return det


def det_exact(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by one elimination modulo a product of word primes.

    With (L, A) the integer form, det M = det A / L^n. By Hadamard,
    |det A| is at most the product of A's row norms, so below
    B = prod(isqrt(sum_j A_ij^2) + 1). det A is taken modulo q, a product
    of word primes of `_prime` above 2B (`_det_mod`); pivots are units,
    and a zero-divisor pivot splits q (`_crt_lift`). The symmetric lift
    of the residue is det A. No prime is unlucky: the determinant commutes
    with reduction mod q, and a singular residue is just the residue 0.
    """
    if not matrix.is_square:
        raise NonSquareError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    scale, a = matrix.integer_form[0], matrix.integer_rows()
    bound = 1
    for row in a:
        bound *= isqrt(sum(x * x for x in row if x)) + 1
    (lifted,) = _crt_lift(bound, lambda q: (_det_mod(a, q),))
    return Fraction(lifted, scale ** len(a))


@lru_cache(maxsize=None)
def grover_matrix(g: Graph) -> ExactMatrix:
    """Time evolution operator of the Grover walk, indexed by canonical arcs.

    Entry (e, f) is 2/deg(t(f)) when arc f flows into the origin of arc e,
    with 1 subtracted on the backtracking transition f = inverse(e), and 0
    otherwise. The result is exactly orthogonal. It is built over the lcm
    L of the degrees, as the ints 2L/d and 2L/d - L.
    """
    arcs = arc_table(g)
    deg = g.degrees()
    size = len(arcs)
    scale = lcm(*(d for d in set(deg) if d))
    forward = {d: 2 * scale // d for d in set(deg) if d}
    into = [[] for _ in range(g.n)]
    for f in range(size):
        into[arcs.terminus(f)].append(f)
    a = [0] * (size * size)
    for e in range(size):
        oe = arcs.origin(e)
        x, row = forward[deg[oe]], e * size
        for f in into[oe]:
            a[row + f] = x
        a[row + arcs.inverse(e)] = x - scale  # the inverse of e flows into o(e)
    return ExactMatrix._from_ints(size, size, scale, a)


@lru_cache(maxsize=None)
def transition_matrix(g: Graph) -> ExactMatrix:
    """Row-stochastic transition matrix of the simple symmetric random walk,
    built over the lcm L of the degrees as the ints L/deg(u)."""
    deg = g.degrees()
    if g.n > 0 and min(deg) == 0:
        # only the single-vertex graph; rows of zeros are not stochastic
        raise InvalidParameterError("random walk needs every vertex to have a neighbour")
    n = g.n
    scale = lcm(*set(deg))
    a = [0] * (n * n)
    for u, v in g.edges:
        a[u * n + v] = scale // deg[u]
        a[v * n + u] = scale // deg[v]
    return ExactMatrix._from_ints(n, n, scale, a)


@lru_cache(maxsize=None)
def adjacency_and_degree(g: Graph) -> tuple[ExactMatrix, ExactMatrix]:
    """0/1 adjacency matrix and the diagonal degree matrix."""
    n = g.n
    adj = [0] * (n * n)
    for u, v in g.edges:
        adj[u * n + v] = adj[v * n + u] = 1
    dia = [0] * (n * n)
    dia[::n + 1] = g.degrees()
    return ExactMatrix._from_ints(n, n, 1, adj), ExactMatrix._from_ints(n, n, 1, dia)


def positive_support(matrix: ExactMatrix) -> ExactMatrix:
    """Elementwise indicator of strictly positive entries."""
    if not matrix.is_square:
        raise NonSquareError("positive support is defined for square matrices here")
    return ExactMatrix._from_ints(matrix.rows, matrix.cols, 1,
                                  (1 if x > 0 else 0 for x in matrix.integer_form[1]))


@lru_cache(maxsize=None)
def edge_matrix(g: Graph) -> ExactMatrix:
    """Non-backtracking arc adjacency: entry (e, f) is 1 iff arc f can
    follow arc e, i.e. o(f) = t(e) and f is not the inverse of e.

    Equals positive_support(transpose(grover_matrix(g))) on every graph of
    minimum degree >= 2; on degree-1 graphs the two differ because the
    backtracking Grover entry 2/d - 1 turns positive at d = 1.
    """
    arcs = arc_table(g)
    size = len(arcs)
    out_of = [[] for _ in range(g.n)]
    for f in range(size):
        out_of[arcs.origin(f)].append(f)
    a = [0] * (size * size)
    for e in range(size):
        row = e * size
        for f in out_of[arcs.terminus(e)]:
            a[row + f] = 1
        a[row + arcs.inverse(e)] = 0  # the inverse of e leaves t(e)
    return ExactMatrix._from_ints(size, size, 1, a)
