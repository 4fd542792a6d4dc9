"""Exact rational matrices and the walk operators built from a graph.

Every matrix here carries Fraction entries so that the determinant
identities downstream hold exactly, never up to a tolerance. Each matrix
also has one integer form (L, L*M), L the lcm of the entry denominators,
computed once and cached on it: hashing, equality and every exact kernel
work on those ints, not on the Fractions. Exact determinants are taken
modulo word-size primes and lifted by Chinese remaindering under a
Hadamard bound; the primes and the lift live here and are shared with
the charpoly kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import isqrt, lcm

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


def _crt_lift(size: int, bound: int, residues) -> list[int]:
    """The `size` integers of absolute value at most `bound` whose residues
    modulo each prime p are the values of residues(p).

    Residues modulo _prime(0), _prime(1), ... are combined by Chinese
    remaindering until the modulus exceeds 2 * bound; the symmetric lift
    into (-modulus/2, modulus/2) is then the integers themselves.
    """
    lifted, modulus, i = [0] * size, 1, 0
    while modulus <= 2 * bound:
        p = _prime(i)
        inv = pow(modulus, -1, p)
        lifted = [r + modulus * ((y - r) * inv % p) for r, y in zip(lifted, residues(p))]
        modulus *= p
        i += 1
    half = modulus // 2
    return [e - modulus if e > half else e for e in lifted]


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rectangular matrix over arbitrary-precision rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged rows")

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(L, A): L the lcm of the entry denominators and A = L*M, its
        entries in one row-major tuple of ints.

        L is fixed by the entries, so the form is canonical: two matrices
        of one shape are equal exactly when their forms are. A is one
        flat tuple, not one tuple per row: CPython keeps freed tuples
        shorter than 20 on free lists, where the rows of many small
        matrices would pile up and hold memory.
        """
        # the builders share a few Fraction objects across all entries, so
        # each distinct object is converted once and entries map by identity
        distinct = {id(x): x for row in self.entries for x in row}
        scale = lcm(*{x.denominator for x in distinct.values()})
        ints = {key: x.numerator * (scale // x.denominator) for key, x in distinct.items()}
        return scale, tuple(map(ints.__getitem__, map(id, chain.from_iterable(self.entries))))

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

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        zero = Fraction(0)
        return cls(tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c) -> "ExactMatrix":
        c = Fraction(c)
        return ExactMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        cols = other.cols
        out = []
        for row in self.entries:
            acc = [Fraction(0)] * cols
            for k, x in enumerate(row):
                if x:
                    orow = other.entries[k]
                    for j in range(cols):
                        if orow[j]:
                            acc[j] += x * orow[j]
            out.append(tuple(acc))
        return ExactMatrix(tuple(out))

    def to_float_rows(self) -> list[list[float]]:
        scale = self.integer_form[0]
        return [[x / scale for x in row] for row in self.integer_rows()]

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


def _det_mod(a, p: int) -> int:
    """det(A) mod p for an integer matrix A, by Gaussian elimination over
    F_p with row swaps. Zero entries are skipped, which keeps sparse walk
    matrices cheap."""
    n = len(a)
    h = [[x % p for x in row] for row in a]
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if h[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            det = -det
        hk = h[k]
        det = det * hk[k] % p
        inv = pow(hk[k], -1, p)
        support = [(j, hk[j]) for j in range(k + 1, n) if hk[j]]
        # column k below the pivot is never read again, so it is left stale
        for i in range(k + 1, n):
            hi = h[i]
            c = hi[k]
            if c:
                c = c * inv % p
                for j, y in support:
                    hi[j] = (hi[j] - c * y) % p
    return det


def det_exact(matrix: ExactMatrix) -> Fraction:
    """Exact determinant by elimination modulo word-size primes.

    With (L, A) the integer form, det M = det A / L^n. By Hadamard,
    |det A| is at most the product of A's row norms, so below
    B = prod(isqrt(sum_j A_ij^2) + 1). det A is taken over F_p for the
    primes of `_prime` (`_det_mod`) and lifted by Chinese remaindering
    once the modulus exceeds 2B. No prime is unlucky: the determinant
    commutes with reduction mod p, and a singular residue is just the
    residue 0.
    """
    if not matrix.is_square:
        raise NonSquareError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    scale, a = matrix.integer_form[0], matrix.integer_rows()
    bound = 1
    for row in a:
        bound *= isqrt(sum(x * x for x in row if x)) + 1
    (lifted,) = _crt_lift(1, bound, lambda p: (_det_mod(a, p),))
    return Fraction(lifted, scale ** len(a))


@lru_cache(maxsize=None)
def grover_matrix(g: Graph) -> ExactMatrix:
    """Time evolution operator of the Grover walk, indexed by canonical arcs.

    Entry (e, f) is 2/deg(t(f)) when arc f flows into the origin of arc e,
    with 1 subtracted on the backtracking transition f = inverse(e), and 0
    otherwise. The result is exactly orthogonal.
    """
    arcs = arc_table(g)
    deg = g.degrees()
    size = len(arcs)
    zero = Fraction(0)
    # one 2/d and one 2/d - 1 per degree, shared by every entry
    forward = {d: Fraction(2, d) for d in set(deg) if d}
    back = {d: x - 1 for d, x in forward.items()}
    into = [[] for _ in range(g.n)]
    for f in range(size):
        into[arcs.terminus(f)].append(f)
    rows = []
    for e in range(size):
        oe = arcs.origin(e)
        row = [zero] * size
        for f in into[oe]:
            row[f] = forward[deg[oe]]
        row[arcs.inverse(e)] = back[deg[oe]]  # the inverse of e flows into o(e)
        rows.append(tuple(row))
    return ExactMatrix(tuple(rows))


@lru_cache(maxsize=None)
def transition_matrix(g: Graph) -> ExactMatrix:
    """Row-stochastic transition matrix of the simple symmetric random walk."""
    deg = g.degrees()
    if g.n > 0 and min(deg) == 0:
        # only the single-vertex graph; rows of zeros are not stochastic
        raise InvalidParameterError("random walk needs every vertex to have a neighbour")
    zero = Fraction(0)
    inverse = {d: Fraction(1, d) for d in set(deg)}
    rows = [[zero] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = inverse[deg[u]]
        rows[v][u] = inverse[deg[v]]
    return ExactMatrix(tuple(tuple(r) for r in rows))


@lru_cache(maxsize=None)
def adjacency_and_degree(g: Graph) -> tuple[ExactMatrix, ExactMatrix]:
    """0/1 adjacency matrix and the diagonal degree matrix."""
    one, zero = Fraction(1), Fraction(0)
    adj = [[zero] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        adj[u][v] = one
        adj[v][u] = one
    deg = g.degrees()
    dia = [[Fraction(deg[i]) if i == j else zero for j in range(g.n)]
           for i in range(g.n)]
    return (ExactMatrix(tuple(tuple(r) for r in adj)),
            ExactMatrix(tuple(tuple(r) for r in dia)))


def positive_support(matrix: ExactMatrix) -> ExactMatrix:
    """Elementwise indicator of strictly positive entries."""
    if not matrix.is_square:
        raise NonSquareError("positive support is defined for square matrices here")
    one, zero = Fraction(1), Fraction(0)
    return ExactMatrix(tuple(
        tuple(one if x > 0 else zero for x in row) for row in matrix.integer_rows()))


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
    one, zero = Fraction(1), Fraction(0)
    out_of = [[] for _ in range(g.n)]
    for f in range(size):
        out_of[arcs.origin(f)].append(f)
    rows = []
    for e in range(size):
        row = [zero] * size
        for f in out_of[arcs.terminus(e)]:
            row[f] = one
        row[arcs.inverse(e)] = zero  # the inverse of e leaves t(e)
        rows.append(tuple(row))
    return ExactMatrix(tuple(rows))
