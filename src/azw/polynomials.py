"""Exact univariate polynomials, rational functions, and determinants.

A polynomial p is held as one integer form (L, L*p), as a matrix is in
`matrices`: L the lcm of the coefficient denominators, the ints in
ascending powers of u. Arithmetic, equality and hashing run on the ints;
Fraction coefficients are derived only when read. Rational functions are
kept in lowest terms with a monic denominator; any sign lives in the
numerator, which makes the printable form unique.

Every determinant goes through one kernel, `reversed_charpoly`:
det(I - uM) is taken by one Hessenberg reduction modulo q on the matrix's
integer form L*M (L the lcm of the denominators), q a product of
word-size primes above twice a Hadamard bound on the coefficients, and
the residues are lifted symmetrically. The pivot is the first nonzero
entry modulo q, as over a prime field; when it is a zero divisor, q is
skipped and the kernel reruns on the next primes. `poly_matrix_det` is
the same kernel on a block companion, which it builds on the ints of
the two blocks' integer forms, so no Fraction matrix arithmetic happens
on the way. `matrices.det_exact` reads det M off the top coefficient of
det(I - uM). The word primes, the pivot rule and the lift live here.

Every gcd is one modular gcd, `_int_gcd`: its cofactors reduce rational
functions, and it serves `poly_gcd` and Yun's squarefree factors. The
spectra in `zeta` run on integer polynomials (lists of ints): those
factors, and certified real-root brackets, each accepted on an exact
sign change.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt, lcm

from ._record import Record
from .errors import InvalidParameterError, NonSquareError, PoleError, PrecisionError
from .matrices import ExactMatrix


# Integer polynomials (integer forms, the gcd, the spectra): lists of ints in
# ascending powers with a nonzero top coefficient, the empty list for 0.
def _trim_ints(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


class ExactPolynomial(Record):
    """p held as `integer_form` = (L, A): L > 0 the lcm of the reduced
    coefficient denominators, A = L*p as a tuple of ints with a nonzero
    last entry, so gcd(L, *A) = 1 and equal polynomials have equal forms.
    Zero is (1, ()). Build one with `from_coeffs` or `_from_ints`."""

    __slots__ = ("integer_form",)

    def __init__(self, integer_form: tuple[int, tuple[int, ...]]):
        object.__setattr__(self, "integer_form", integer_form)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.integer_form == other.integer_form

    def __hash__(self) -> int:
        return hash((self.integer_form,))

    @classmethod
    def _from_ints(cls, scale: int, ints) -> "ExactPolynomial":
        """ints / scale, scale nonzero, trimmed and divided by their gcd
        signed like scale, which leaves the canonical form."""
        ints = _trim_ints(list(ints))
        if scale != 1:
            g = gcd(scale, *ints) if scale > 0 else -gcd(scale, *ints)
            if g != 1:
                scale //= g
                ints = [x // g for x in ints]
        return cls((scale, tuple(ints)))

    @classmethod
    def from_coeffs(cls, coeffs) -> "ExactPolynomial":
        """coeffs: ints, Fractions or anything Fraction(x) takes, in
        ascending powers."""
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        scale = lcm(*(c.denominator for c in coeffs))
        return cls._from_ints(scale, [c.numerator * (scale // c.denominator) for c in coeffs])

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls((1, ()))

    @classmethod
    def one(cls) -> "ExactPolynomial":
        return cls((1, (1,)))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "ExactPolynomial":
        if power < 0:
            raise InvalidParameterError(f"a monomial needs a power >= 0, got {power}")
        c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
        return cls._from_ints(c.denominator, [0] * power + [c.numerator])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, derived from the integer form."""
        scale, ints = self.integer_form
        return tuple([Fraction(x, scale) for x in ints])  # from a list: see ExactMatrix._from_ints

    @property
    def degree(self) -> int:
        return len(self.integer_form[1]) - 1

    @property
    def is_zero(self) -> bool:
        return not self.integer_form[1]

    def coeff(self, k: int) -> Fraction:
        scale, ints = self.integer_form
        return Fraction(ints[k] if 0 <= k < len(ints) else 0, scale)

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        (s1, a), (s2, b) = self.integer_form, other.integer_form
        scale = lcm(s1, s2)
        x, y = scale // s1, scale // s2
        return ExactPolynomial._from_ints(
            scale, (p * x + q * y for p, q in zip_longest(a, b, fillvalue=0)))

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + -other

    def __neg__(self) -> "ExactPolynomial":
        return self.scale(-1)

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        (s1, a), (s2, b) = self.integer_form, other.integer_form
        if not a or not b:
            return ExactPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return ExactPolynomial._from_ints(s1 * s2, out)

    def scale(self, c) -> "ExactPolynomial":
        """c * self; an int or Fraction c is read as it is."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        scale, ints = self.integer_form
        return ExactPolynomial._from_ints(scale * c.denominator, [c.numerator * x for x in ints])

    def __pow__(self, k: int) -> "ExactPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = ExactPolynomial.one()
        for _ in range(k):  # no slower than squaring, in schoolbook products
            result = result * self
        return result

    def divmod(self, other: "ExactPolynomial") -> tuple["ExactPolynomial", "ExactPolynomial"]:
        """(q, r) with self = q * other + r and deg r < deg other."""
        (s1, a), (s2, b) = self.integer_form, other.integer_form
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        power, quot, rem = _pseudo_divmod(a, b)
        # self = A / s1, other = B / s2 and power * A = quot * B + rem
        return (ExactPolynomial._from_ints(power * s1, [x * s2 for x in quot]),
                ExactPolynomial._from_ints(power * s1, rem))

    def reversed(self) -> "ExactPolynomial":
        """Coefficient reversal u^deg * p(1/u)."""
        scale, ints = self.integer_form
        return ExactPolynomial._from_ints(scale, ints[::-1])

    def __call__(self, x):
        """Horner evaluation; exact for int or Fraction x, floating
        otherwise on the correctly rounded coefficients int / L."""
        scale, ints = self.integer_form
        exact = isinstance(x, (int, Fraction))
        acc = 0 if exact else 0.0 * x
        try:
            for c in reversed(ints):
                acc = acc * x + (c if exact else complex(c / scale))
        except OverflowError:  # only int / L can raise, on a coefficient past the float range
            raise PrecisionError(f"a coefficient is past the float range at x = {x}") from None
        return Fraction(acc, scale) if exact else acc

    def to_json(self) -> str:
        return json.dumps({"coeffs": [str(c) for c in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "ExactPolynomial":
        return cls.from_coeffs(json.loads(text)["coeffs"])


def poly_gcd(a: ExactPolynomial, b: ExactPolynomial) -> ExactPolynomial:
    """Monic gcd over the rationals, from the integer gcd of the forms."""
    if a.is_zero:
        a, b = b, a
    if a.is_zero:
        return a
    g = _int_gcd(a.integer_form[1], b.integer_form[1])[0]
    return ExactPolynomial._from_ints(g[-1], g)


class ExactRationalFunction(Record):
    """num/den in lowest terms, den monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: ExactPolynomial, den: ExactPolynomial):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @classmethod
    def from_parts(cls, num: ExactPolynomial, den: ExactPolynomial) -> "ExactRationalFunction":
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return cls(num, ExactPolynomial.one())
        (sn, a), (sd, b) = num.integer_form, den.integer_form
        # a constant side leaves no common factor to find
        if len(a) > 1 and len(b) > 1:
            _, a, b = _int_gcd(a, b)
        # num / den = (a / sn) / (b / sd); dividing both by b[-1] / sd
        # makes the denominator monic
        return cls(ExactPolynomial._from_ints(sn * b[-1], [x * sd for x in a]),
                   ExactPolynomial._from_ints(b[-1], b))

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
        """The function u -> f(1/u), as a reduced rational function: the
        reversed parts, times u^(deg den - deg num)."""
        reversed_parts = ExactRationalFunction(self.num.reversed(), self.den.reversed())
        return reversed_parts.scale_monomial(self.den.degree - self.num.degree)

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
    """Floating evaluation of f at a complex point, rejecting near-poles
    and values past the float range."""
    x = complex(x)
    num, den = f.num(x), f.den(x)
    if not (cmath.isfinite(num) and cmath.isfinite(den)):
        raise PrecisionError(f"f({x}) is past the float range")
    tol = 1e-12
    for _ in range(f.den.degree):
        tol *= max(1.0, abs(x))  # a product saturates at inf, where a float power raises
    if abs(den) <= tol:
        raise PoleError(x)
    return complex(num) / den


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


def _symmetric(residues, q: int) -> list[int]:
    """The residues modulo q lifted into (-q/2, q/2]."""
    half = q // 2
    return [x - q if x > half else x for x in residues]


def _crt_lift(bound: int, residues) -> list[int]:
    """The integers of absolute value at most `bound` whose residues
    modulo q are the values of residues(q).

    q = _prime(0) * _prime(1) * ... stops growing once it exceeds
    2 * bound, and the symmetric lift of residues(q) is then the integers
    themselves. When a pivot is a zero divisor modulo q, residues raises
    ValueError and runs again modulo the next primes, coprime to q. This
    ends: the exact reduction has finitely many pivot values, so only
    finitely many primes can divide one of them.
    """
    i = 0
    while True:
        modulus = 1
        while modulus <= 2 * bound:
            modulus *= _prime(i)
            i += 1
        try:
            lifted = list(residues(modulus))
        except ValueError:
            continue
        return _symmetric(lifted, modulus)


def _charpoly_mod(a: list[list[int]], q: int) -> list[int]:
    """det(lambda I - A) mod q for an integer matrix A, ascending powers;
    q is a product of word primes.

    Reduces A mod q to upper Hessenberg form H by similarity transforms,
    then runs the subdiagonal recurrence for det(lambda I - H) on the
    leading principal blocks (Cohen, A Course in Computational Algebraic
    Number Theory, GTM 138, Alg. 2.2.9), which holds over Z/q as long as
    every pivot is a unit. The pivot is the first entry nonzero mod q, as
    over a field; a zero-divisor pivot raises ValueError from its inverse.
    Zero entries are skipped, which keeps sparse walk matrices cheap.
    """
    n = len(a)
    h = [[x % q for x in row] for row in a]
    for m in range(1, n - 1):
        for pivot in range(m, n):
            if h[pivot][m - 1]:
                break
        else:
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
    word primes above 2B (`_charpoly_mod`), or on the next primes if a
    pivot is a zero divisor (`_crt_lift`); the symmetric lift of the
    residues is exact, as the charpoly commutes with reduction mod q. The
    constant term of the result is always 1, and its coefficient of u^n
    is (-1)^n det M, which `det_exact` reads.
    """
    if not matrix.is_square:
        raise NonSquareError("characteristic polynomial needs a square matrix")
    scale, a = matrix.integer_form[0], matrix.integer_rows()
    bound = 1
    for row in a:
        bound *= isqrt(sum(x * x for x in row if x)) + 2
    # e_k is the coefficient of v^k, since det(I - vA) = v^n char(1/v)
    e = _crt_lift(bound, lambda q: reversed(_charpoly_mod(a, q)))
    ints, power = [], 1  # e_k / L^k = e_k L^(deg - k) / L^deg
    for x in reversed(e):
        ints.append(x * power)
        power *= scale
    return ExactPolynomial._from_ints(power // scale, ints[::-1])


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


def _derivative(a: list[int]) -> list[int]:
    return [i * a[i] for i in range(1, len(a))]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(c^k, q, r) with c^k a = q b + r over the integers and deg r < deg b,
    for c the top coefficient of b and k = max(deg a - deg b + 1, 0): the
    top coefficient of each remainder is then divisible by c."""
    k, lead, db = max(len(a) - len(b) + 1, 0), b[-1], len(b) - 1
    power = lead ** k
    rem = [x * power for x in a]
    quot = [0] * k
    for i in range(k - 1, -1, -1):
        c = quot[i] = rem[i + db] // lead
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return power, quot, rem[:db]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b modulo the prime p, a nonzero mod p."""
    a = _trim_ints([x % p for x in a])
    b = _trim_ints([x % p for x in b])
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            c = a.pop() * inv % p
            if c:
                off = len(a) - db
                for j in range(db):
                    a[off + j] = (a[off + j] - c * b[j]) % p
            _trim_ints(a)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _primitive(a: list[int]) -> list[int]:
    """a over its content, signed so the top coefficient is positive."""
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _int_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g) for g the gcd over Z of a nonzero a and any b,
    primitive with a positive top coefficient.

    Brown's modular gcd (J. ACM 18, 1971): modulo a word prime p
    (`_prime`) that divides neither top coefficient, the monic gcd times
    gamma = gcd(top a, top b) is the image of gamma / (top g) * g, or has
    a higher degree. Residues of the lowest degree seen are joined by
    Chinese remaindering, and the primitive part of their symmetric lift
    is accepted once it divides a and b over Q: it then divides g and has
    no lower degree, so it is g. Being primitive, it divides them over Z
    too (Gauss), so the pseudo-quotients divide exactly.
    """
    if not b:
        g = _primitive(a)
        return g, [a[-1] // g[-1]], []
    gamma = gcd(a[-1], b[-1])
    modulus, i = 1, 0
    while True:
        p = _prime(i)
        i += 1
        if not (a[-1] % p and b[-1] % p):
            continue
        g = [x * gamma % p for x in _gcd_mod(a, b, p)]
        if modulus == 1 or len(g) < len(res):
            modulus, res = p, g
        elif len(g) > len(res):
            continue
        else:
            inv = pow(modulus, -1, p)
            res = [x + modulus * ((y - x) * inv % p) for x, y in zip(res, g)]
            modulus *= p
        lift = _primitive(_symmetric(res, modulus))
        pa, qa, ra = _pseudo_divmod(a, lift)
        if not any(ra):
            pb, qb, rb = _pseudo_divmod(b, lift)
            if not any(rb):
                return lift, [x // pa for x in qa], [x // pb for x in qb]


def _squarefree_factors(f: list[int]) -> list[tuple[int, list[int]]]:
    """[(k, f_k)] with f = prod f_k^k for a monic integer f, each f_k monic,
    squarefree, of positive degree and prime to the others (Yun's
    algorithm, every gcd from `_int_gcd`)."""
    out = []
    _, b, c = _int_gcd(f, _derivative(f))
    k = 1
    while len(b) > 1:
        d = _trim_ints([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        g, b, c = _int_gcd(b, d)
        if len(g) > 1:
            out.append((k, g))
        k += 1
    return out


def _value_at(a: list[int], num: int, shift: int) -> int:
    """2^(shift*deg a) * a(num / 2^shift), an int."""
    acc = a[-1]
    for k, c in enumerate(reversed(a[:-1]), 1):
        acc = acc * num + (c << shift * k)
    return acc


def _dyadic(x: float) -> tuple[int, int]:
    """(num, shift) with x = num / 2^shift."""
    num, den = x.as_integer_ratio()
    return num, den.bit_length() - 1


def _float_above(num: int, den: int) -> float:
    """The least float at or above num/den, den > 0."""
    x = num / den
    a, b = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if a * den < num * b else x


def _rational_root(num: int, den: int) -> tuple[float, float]:
    """(v, err) for the root num/den: the nearest float and its exact
    distance, rounded up; err is 0 when v is the root."""
    v = num / den
    a, b = v.as_integer_ratio()
    return v, _float_above(abs(a * den - num * b), b * den)


def _changes_sign(a: list[int], v: float, err: float, scale: int) -> bool:
    """a has a root y with |y/scale - v| <= err: its exact values at the
    two ends have opposite signs, or one is 0."""
    nv, sv = _dyadic(v)
    ne, se = _dyadic(err)
    shift = max(sv, se)
    nv <<= shift - sv
    ne <<= shift - se
    x, y = (_value_at(a, scale * n, shift) for n in (nv - ne, nv + ne))
    return not x or not y or (x < 0) != (y < 0)


def _disjoint(brackets: list[tuple[float, float]]) -> bool:
    """No two of the intervals v +- err, sorted by v, meet. The float test
    keeps a factor 2 over rounding."""
    return all(b[0] - a[0] > 2 * (a[1] + b[1]) for a, b in zip(brackets, brackets[1:]))


# The root search stops after a Newton step this small.
_SEARCH_STEP = 2.0 ** -40
# each failed bracket grows by this factor, at most _BRACKET_TRIES times
_BRACKET_GROWTH = 16.0
_BRACKET_TRIES = 6


def _real_roots(h: list[int], bound: int) -> list[tuple[float, float]]:
    """(v, err) for each root y of h: |y/bound - v| <= err, certified.

    h is monic, squarefree, with integer coefficients and only real
    roots, all in [-bound, bound]. An integer root (the only rational
    kind a monic integer h has) is exact, with err 0 when y/bound is a
    float. Degree 2 is closed: the square root comes from `isqrt`. Above
    that, a Newton search deflated by Maehly's correction finds the roots
    of p(t) = h(bound t) / bound^d from t = 1 down. A step is taken on
    floats where Horner's rounding bound leaves it sure, and on exact
    values of p and p' otherwise: near a root always, and everywhere on
    the high-degree factors whose monomial coefficients dwarf their
    values on [-1, 1], so the search ends within a few ulps. The bracket
    [v - err, v + err], from 2 ulps up, is accepted when h changes sign
    across it, exactly. Brackets are disjoint, so each holds one root. A
    root that cannot be bracketed raises PrecisionError.
    """
    d = len(h) - 1
    if d == 1:
        return [_rational_root(-h[0], bound)]
    if d == 2:
        c, b = h[0], h[1]
        disc = b * b - 4 * c
        root = isqrt(disc)
        if root * root == disc:
            return [_rational_root(-b + root, 2 * bound), _rational_root(-b - root, 2 * bound)]
        # sqrt(disc) lies strictly between r/2^64 and (r+1)/2^64
        r, den = isqrt(disc << 128), bound << 65
        out = []
        for lo in (-(b << 64) + r, -(b << 64) - r - 1):
            v = (2 * lo + 1) / (2 * den)
            a, q = v.as_integer_ratio()
            out.append((v, _float_above(max(abs(a * den - lo * q), abs(a * den - (lo + 1) * q)),
                                        q * den)))
        return out
    coeffs = [h[i] / bound ** (d - i) for i in range(d + 1)]
    dh = _derivative(h)
    # Horner's rounding is below 4 d eps times the sum of the moduli of
    # the terms. A float Newton step is taken when that leaves it sure to
    # 2^-10 relative, enough to keep the double steps below the next root.
    noise = 4 * d * 2.0 ** -53 * 2.0 ** 10

    def newton_step(x: float, found: list[float]) -> float:
        """p / (p' - p sum 1/(x - r)), the Newton step on p deflated by the
        roots found, from exact values of p and p' where floats are not
        sure enough."""
        p = dp = size = dsize = 0.0
        ax = abs(x)
        for c in reversed(coeffs):
            dp = dp * x + p
            dsize = dsize * ax + size
            p = p * x + c
            size = size * ax + abs(c)
        pole = 0.0
        for r in found:
            if x != r:
                pole += 1.0 / (x - r)
        den = dp - p * pole
        if abs(p) <= noise * size or abs(den) <= noise * (dsize + size * abs(pole)):
            num, shift = _dyadic(x)
            y = bound * num
            p = _value_at(h, y, shift) / (bound ** d << shift * d)
            den = _value_at(dh, y, shift) / (bound ** (d - 1) << shift * (d - 1)) - p * pole
        return p / den if den else 0.0

    found: list[float] = []
    x = 1.0
    for _ in range(d):
        # double steps until one overshoots the root, which leaves x above
        # the next root (Stoer-Bulirsch 5.5), then plain Newton steps; a
        # last step below _SEARCH_STEP leaves an error near its square
        last, stride = math.inf, 2.0
        while True:
            step = newton_step(x, found)
            if step < 0 and stride > 1:
                last, stride = math.inf, 1.0
            if not abs(step) < last:
                break
            x -= stride * step
            last = abs(step)
            if last <= _SEARCH_STEP:
                break
        found.append(x)
        x += 2.0 ** -20  # above the root just found, so above the next
    out = []
    for v in found:
        y = round(v * bound)
        if abs(v * bound - y) <= 2.0 ** -20 * bound and not _value_at(h, y, 0):
            out.append(_rational_root(y, bound))
            continue
        err = 2 * math.ulp(v)
        for _ in range(_BRACKET_TRIES):
            if _changes_sign(h, v, err, bound):
                break
            err *= _BRACKET_GROWTH
        else:
            raise PrecisionError(f"no sign change of the charpoly around {v}")
        out.append((v, err))
    out.sort()
    if not _disjoint(out):
        raise PrecisionError("two roots of a squarefree charpoly factor share a bracket")
    return out
