"""Exact univariate polynomials, rational functions, and determinants.

Coefficients are Fractions indexed by ascending power of u. The zero
polynomial is the empty coefficient tuple (degree -1). Rational functions
are kept in lowest terms with a monic denominator; any sign lives in the
numerator, which makes the printable form unique.

Every determinant polynomial goes through one kernel, `reversed_charpoly`:
det(I - uM) is taken by one Hessenberg reduction modulo q on the matrix's
integer form L*M (L the lcm of the denominators), q a product of
word-size primes above twice a Hadamard bound on the coefficients, and
the residues are lifted symmetrically. Pivots are units modulo q; a
zero-divisor pivot splits q into coprime factors that are solved apart
and joined by Chinese remaindering. `poly_matrix_det` is the same kernel
on a block companion, which it builds on the ints of the two blocks'
integer forms, so no Fraction matrix arithmetic happens on the way. The
primes, the pivot rule and the lift come from `matrices`, where
`det_exact` uses them for elimination.
`ExactRationalFunction.from_parts` looks for a common factor only when
both sides have positive degree, and rescales only a denominator that is
not yet monic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .errors import NonSquareError, PoleError
# _PRIMES and _prime are re-exported: the charpoly runs on these primes
from .matrices import _PRIMES, ExactMatrix, _crt_lift, _prime, _unit_pivot  # noqa: F401


def _trim(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class ExactPolynomial:
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "ExactPolynomial":
        return cls(_trim(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPolynomial":
        return cls((Fraction(1),))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "ExactPolynomial":
        c = Fraction(coeff)
        if c == 0:
            return cls(())
        return cls(tuple([Fraction(0)] * power) + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPolynomial(_trim(
            self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPolynomial(_trim(
            self.coeff(k) - other.coeff(k) for k in range(n)))

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if self.is_zero or other.is_zero:
            return ExactPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return ExactPolynomial(_trim(out))

    def scale(self, c) -> "ExactPolynomial":
        c = Fraction(c)
        if c == 0:
            return ExactPolynomial(())
        if c == 1:
            return self
        if c == -1:
            return -self  # a sign flip needs no gcd per coefficient
        return ExactPolynomial(tuple(c * x for x in self.coeffs))

    def __pow__(self, k: int) -> "ExactPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = ExactPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "ExactPolynomial") -> tuple["ExactPolynomial", "ExactPolynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ExactPolynomial(()), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top:
                q = top / lead
                quot[k] = q
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        return ExactPolynomial(_trim(quot)), ExactPolynomial(_trim(rem))

    def monic(self) -> "ExactPolynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading())

    @property
    def integer_form(self) -> tuple[int, list[int]]:
        """(D, D*p): D the lcm of the coefficient denominators, and the
        coefficients of D*p as ints."""
        scale = lcm(*(c.denominator for c in self.coeffs))
        return scale, [c.numerator * (scale // c.denominator) for c in self.coeffs]

    @classmethod
    def from_integer_form(cls, scale: int, ints) -> "ExactPolynomial":
        """The polynomial with coefficients ints / scale."""
        return cls(_trim(Fraction(x, scale) for x in ints))

    def reversed(self) -> "ExactPolynomial":
        """Coefficient reversal u^deg * p(1/u)."""
        return ExactPolynomial(_trim(reversed(self.coeffs)))

    def __call__(self, x):
        """Horner evaluation; exact for Fraction x, floating otherwise."""
        acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, (int, Fraction)) else complex(c))
        return acc

    def to_json(self) -> str:
        return json.dumps({"coeffs": [str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "ExactPolynomial":
        return cls.from_coeffs(json.loads(text)["coeffs"])


def poly_gcd(a: ExactPolynomial, b: ExactPolynomial) -> ExactPolynomial:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero else a


@dataclass(frozen=True)
class ExactRationalFunction:
    """num/den in lowest terms, den monic and nonzero."""

    num: ExactPolynomial
    den: ExactPolynomial

    @classmethod
    def from_parts(cls, num: ExactPolynomial, den: ExactPolynomial) -> "ExactRationalFunction":
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return cls(ExactPolynomial(()), ExactPolynomial.one())
        # a constant side leaves no common factor to find
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
        lead = den.leading()
        if lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        return cls(num, den)

    @classmethod
    def from_polynomial(cls, p: ExactPolynomial) -> "ExactRationalFunction":
        return cls.from_parts(p, ExactPolynomial.one())

    @classmethod
    def one(cls) -> "ExactRationalFunction":
        return cls.from_polynomial(ExactPolynomial.one())

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __mul__(self, other: "ExactRationalFunction") -> "ExactRationalFunction":
        return ExactRationalFunction.from_parts(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "ExactRationalFunction") -> "ExactRationalFunction":
        return ExactRationalFunction.from_parts(self.num * other.den, self.den * other.num)

    def scale_monomial(self, power: int) -> "ExactRationalFunction":
        """Multiply by u^power (negative powers shift the denominator)."""
        if power >= 0:
            return ExactRationalFunction.from_parts(
                self.num * ExactPolynomial.monomial(power), self.den)
        return ExactRationalFunction.from_parts(
            self.num, self.den * ExactPolynomial.monomial(-power))

    def scale(self, c) -> "ExactRationalFunction":
        return ExactRationalFunction.from_parts(self.num.scale(c), self.den)

    def reciprocal_argument(self) -> "ExactRationalFunction":
        """The function u -> f(1/u), as a reduced rational function."""
        shift = self.den.degree - self.num.degree
        num, den = self.num.reversed(), self.den.reversed()
        if shift >= 0:
            num = num * ExactPolynomial.monomial(shift)
        else:
            den = den * ExactPolynomial.monomial(-shift)
        return ExactRationalFunction.from_parts(num, den)

    def eval_exact(self, x) -> Fraction:
        x = Fraction(x)
        d = self.den(x)
        if d == 0:
            raise PoleError(x)
        return self.num(x) / d

    def to_json(self) -> str:
        return json.dumps({
            "numerator": {"coeffs": [str(c) for c in self.num.coeffs]},
            "denominator": {"coeffs": [str(c) for c in self.den.coeffs]},
        })

    @classmethod
    def from_json(cls, text: str) -> "ExactRationalFunction":
        raw = json.loads(text)
        return cls.from_parts(
            ExactPolynomial.from_coeffs(raw["numerator"]["coeffs"]),
            ExactPolynomial.from_coeffs(raw["denominator"]["coeffs"]))


def rational_function_eval(f: ExactRationalFunction, x) -> complex:
    """Floating evaluation of f at a complex point, rejecting near-poles."""
    x = complex(x)
    den = f.den(x)
    tol = 1e-12 * max(1.0, abs(x)) ** max(f.den.degree, 0)
    if abs(den) <= tol:
        raise PoleError(x)
    return complex(f.num(x)) / den


def _charpoly_mod(a: list[list[int]], q: int) -> list[int]:
    """det(lambda I - A) mod q for an integer matrix A, ascending powers;
    q is a product of word primes.

    Reduces A mod q to upper Hessenberg form H by similarity transforms,
    then runs the subdiagonal recurrence for det(lambda I - H) on the
    leading principal blocks (Cohen, A Course in Computational Algebraic
    Number Theory, GTM 138, Alg. 2.2.9), which holds over Z/q as long as
    every pivot is a unit (`_unit_pivot`). A column that is zero modulo q
    is skipped; a nonzero zero-divisor pivot raises _Split, which splits
    q. Zero entries are skipped, which keeps sparse walk matrices cheap.
    """
    n = len(a)
    h = [[x % q for x in row] for row in a]
    for m in range(1, n - 1):
        pivot = _unit_pivot(h, m - 1, m, q)
        if pivot is None:
            continue  # column already reduced below the subdiagonal
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        hm = h[m]
        inv = pow(hm[m - 1], -1, q)
        support = [(j, hm[j]) for j in range(m - 1, n) if hm[j]]
        cols = []
        for i in range(m + 1, n):
            hi = h[i]
            c = hi[m - 1]
            if c:
                c = c * inv % q
                for j, y in support:
                    hi[j] = (hi[j] - c * y) % q
                cols.append((i, c))
        # the row operations only subtract multiples of row m, so they
        # commute, and their inverse (column m += c * column i for each)
        # can follow them all at once: H stays similar to A
        if cols:
            for row in h:
                s = row[m]
                for i, c in cols:
                    if row[i]:
                        s += c * row[i]
                row[m] = s % q
    # chars[k][j] = coefficient of lambda^j in det(lambda I - H[:k, :k])
    chars = [[1]]
    for m in range(n):
        nxt = [0] + chars[m]
        d = h[m][m]
        if d:
            for j, c in enumerate(chars[m]):
                nxt[j] -= d * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % q
            if not sub:
                break
            c = h[i][m] * sub % q
            if c:
                for j, x in enumerate(chars[i]):
                    nxt[j] -= c * x
        chars.append([x % q for x in nxt])
    return chars[n]


@lru_cache(maxsize=None)
def reversed_charpoly(matrix: ExactMatrix) -> ExactPolynomial:
    """det(I - u*M) as an exact polynomial.

    With (L, A) the matrix's integer form (A = L*M, L the lcm of the
    entry denominators), the coefficient of u^k is e_k / L^k, where e_k
    is the coefficient of v^k in det(I - v*A): a signed sum of the
    principal k-minors of A. By Hadamard each minor is at most the
    product of its rows' norms r_i, so |e_k| <= e_k(r) <= B =
    prod(1 + r_i). The charpoly of A is taken once modulo q, a product of
    word primes above 2B (`_charpoly_mod`); pivots are units, and a
    zero-divisor pivot splits q (`_crt_lift`, shared with `det_exact`).
    The symmetric lift of the residues is then exact. No prime is
    unlucky: the charpoly commutes with reduction mod q. The constant
    term of the result is always 1.
    """
    if not matrix.is_square:
        raise NonSquareError("characteristic polynomial needs a square matrix")
    scale, a = matrix.integer_form[0], matrix.integer_rows()
    bound = 1
    for row in a:
        bound *= isqrt(sum(x * x for x in row if x)) + 2
    # e_k is the coefficient of v^k, since det(I - vA) = v^n char(1/v)
    coeffs = []
    power = 1  # L^k
    for e in _crt_lift(bound, lambda q: reversed(_charpoly_mod(a, q))):
        coeffs.append(Fraction(e, power))
        power *= scale
    return ExactPolynomial(_trim(coeffs))


def poly_matrix_det(a1: ExactMatrix, a2: ExactMatrix) -> ExactPolynomial:
    """det(I + u*A1 + u^2*A2) for square A1, A2 of the same size.

    Equals det(I - u*C) for the 2n x 2n block companion
    C = [[-A1, -A2], [I, 0]] (take the Schur complement of the lower
    right block of I - u*C), so it is a reversed characteristic
    polynomial. C is built in integer form over L = lcm(L1, L2) from the
    blocks' integer forms (L1, L1*A1) and (L2, L2*A2), so no Fraction is
    made before the charpoly kernel.
    """
    n = a1.rows
    if not (a1.is_square and a2.is_square and a2.rows == n):
        raise NonSquareError("polynomial determinant needs two square blocks of one size")
    (s1, _), (s2, _) = a1.integer_form, a2.integer_form
    scale = lcm(s1, s2)
    x, y = -(scale // s1), -(scale // s2)
    c = []
    for r1, r2 in zip(a1.integer_rows(), a2.integer_rows()):
        c += [x * v for v in r1]
        c += [y * v for v in r2]
    bottom = [0] * (2 * n * n)
    bottom[::2 * n + 1] = [scale] * n
    return reversed_charpoly(ExactMatrix._from_ints(2 * n, 2 * n, scale, c + bottom))
