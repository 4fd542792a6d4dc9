"""Exact rational matrices and the walk operators built from a graph.

Every matrix here is exact, so that the determinant identities
downstream hold exactly, never up to a tolerance. A matrix M is held as
its one integer form (L, L*M), L the lcm of the entry denominators:
the walk builders emit those ints directly, and arithmetic, hashing,
equality and every exact kernel work on them. Fraction entries are
derived only when read. `det_exact` reads the one determinant kernel,
the Hessenberg charpoly in `polynomials`, which owns all of the modular
arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

from ._record import Record
from .errors import InvalidParameterError, NonSquareError
from .graphs import Graph, arc_table

class ExactMatrix(Record):
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
        self._set_form(len(rows), width, scale, ints)

    def _set_form(self, rows: int, cols: int, scale: int, ints: tuple[int, ...]) -> None:
        # as with rows of entries, a matrix without rows has no columns
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols if rows else 0)
        object.__setattr__(self, "integer_form", (scale, ints))

    @classmethod
    def _from_ints(cls, rows: int, cols: int, scale: int, ints) -> "ExactMatrix":
        """The rows x cols matrix ints / scale, ints a row-major list or
        tuple and scale > 0.

        Dividing scale and ints by their gcd leaves L the lcm of the
        reduced entry denominators, so the form is canonical. A tuple
        built from a generator grows by resizing, and when freed it gives
        CPython's tuple free lists memory they never gave out, which they
        hold; built from a list, it is taken from them.
        """
        ints = tuple(ints)
        if scale != 1:
            g = gcd(scale, *ints)
            if g != 1:
                scale //= g
                ints = tuple([x // g for x in ints])
        m = cls.__new__(cls)
        m._set_form(rows, cols, scale, ints)
        return m

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
            cols, self.rows, scale, list(chain.from_iterable(a[j::cols] for j in range(cols))))

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other over the lcm of the two scales."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        (s1, a), (s2, b) = self.integer_form, other.integer_form
        scale = lcm(s1, s2)
        x, y = scale // s1, sign * (scale // s2)
        return ExactMatrix._from_ints(self.rows, self.cols, scale,
                                      [p * x + q * y for p, q in zip(a, b)])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def scale(self, c) -> "ExactMatrix":
        c = Fraction(c)
        scale, a = self.integer_form
        num = c.numerator
        return ExactMatrix._from_ints(self.rows, self.cols, scale * c.denominator,
                                      [num * x for x in a])

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


def det_exact(matrix: ExactMatrix) -> Fraction:
    """Exact determinant, read off the charpoly kernel: det M is
    (-1)^n times the coefficient of u^n in det(I - u*M)
    (`polynomials.reversed_charpoly`), so it shares that kernel and its
    cache.
    """
    if not matrix.is_square:
        raise NonSquareError(f"determinant needs a square matrix, got {matrix.rows}x{matrix.cols}")
    from .polynomials import reversed_charpoly  # polynomials imports this module

    top = reversed_charpoly(matrix).coeff(matrix.rows)
    return -top if matrix.rows % 2 else top


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
                                  [1 if x > 0 else 0 for x in matrix.integer_form[1]])


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
