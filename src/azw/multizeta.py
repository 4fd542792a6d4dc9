"""Hurwitz zeta kernels and multiple zeta / gamma / sine functions.

One precision-controlled kernel carries everything: an Euler-Maclaurin
Hurwitz zeta with an analytic s-derivative (no finite differences in any
shipped path), whose finite part at the s = 1 pole is minus digamma.
Its one tail routine (`_em_tail`) also closes the direct lattice series.
Every multiple Hurwitz zeta takes one route: integer periods refold onto
one period N = lcm (`_refolded_lattice`; equal periods need no refold),
and an equal-period lattice reduces to linear combinations of that kernel
at shifted arguments, summed by one routine over weighted shifts. Values,
s-derivatives and finite parts are such sums; multiple gammas and sines
(Kurokawa-Koyama, unequal periods included) are one exponential of a sum
of s-derivatives at 0. Other periods are refused, except by the direct
series in its convergent domain.

Shift arguments may be negative (non-lattice): powers of negative reals
use the principal branch throughout, which keeps every identity in the
package self-consistent.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct

from .errors import (
    DomainError,
    InvalidParameterError,
    NonPositiveShiftError,
    PoleError,
    PrecisionError,
    UnsupportedContinuationError,
)

_TWO_PI = 2.0 * math.pi

# The least Euler-Maclaurin shift count N for Re(s) >= 0 (N = max(12,
# |s| + 8), enough for the target at Bernoulli order 12), the Bernoulli
# orders that close the kernel's one partial sum, the most lattice points
# any one sum may take, and the lattice steps of the collapsed series'
# first block, past which `direct_series` gives a refold to the rectangle.
_EM_SHIFT = 12
_BERNOULLI_ORDERS = (12, 30)
_SERIES_BUDGET = 2_000_000
_SERIES_BLOCK = 256
# highest degree of a refolded numerator, here and in `abszeta`: each
# monomial costs a lattice sum one multiple zeta or gamma, about 0.1 ms
_REFOLD_BUDGET = 100_000


@dataclass(frozen=True)
class PrecisionPolicy:
    """Relative error the numerical kernels aim for.

    target is a finite number in [1e-13, 1): below 1e-13 double precision
    cannot certify anything, and at 1 or above no digit is certified. The
    AZW_PRECISION environment variable sets it for the command line.
    """

    target: float = 1e-13

    def __post_init__(self):
        if not 1e-13 <= self.target < 1.0:
            raise InvalidParameterError(
                f"target must be a relative error in [1e-13, 1), got {self.target}")


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class MultiZetaParams:
    """Order, shift and period vector of a multiple Hurwitz zeta."""

    order: int
    shift: complex
    periods: tuple[float, ...]

    def __post_init__(self):
        if self.order not in (1, 2, 3):
            raise InvalidParameterError(f"order must be 1, 2 or 3, got {self.order}")
        try:  # a tuple, so equal parameters compare and hash equal
            object.__setattr__(self, "periods", tuple(self.periods))
        except TypeError:
            raise InvalidParameterError(f"periods must be iterable, got {self.periods!r}") from None
        if len(self.periods) != self.order:
            raise InvalidParameterError("period count must equal the order")
        if not all(isinstance(w, numbers.Real) and 0 < w < math.inf for w in self.periods):
            raise InvalidParameterError(f"periods must be finite positive reals, got {self.periods}")
        if not (isinstance(self.shift, numbers.Number) and cmath.isfinite(self.shift)):
            raise InvalidParameterError(f"shift must be a finite number, got {self.shift!r}")

    @property
    def equal_periods(self) -> bool:
        return len(set(self.periods)) == 1


def _bernoulli_numbers(upto: int) -> list[Fraction]:
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    out = [Fraction(1)]
    for m in range(1, upto + 1):
        acc = sum(Fraction(math.comb(m + 1, j)) * out[j] for j in range(m))
        out.append(-acc / (m + 1))
    return out


_BERNOULLI = _bernoulli_numbers(30)
# B_2j/(2j)! for j = 1..15 at index j - 1
_HURWITZ_TAIL = tuple(float(_BERNOULLI[2 * j]) / math.factorial(2 * j) for j in range(1, 16))


# zeta(-k, a) for k up to this is a Bernoulli polynomial of _BERNOULLI
_EXACT_DEGREE = 28


@lru_cache(maxsize=_EXACT_DEGREE + 1)
def _bernoulli_ints(k: int) -> tuple[int, tuple[int, ...]]:
    """(D, D c_i) for B_(k+1)(x) = sum_i c_i x^i, c_i = C(k+1, i) B_(k+1-i),
    D the lcm of the c_i's denominators."""
    coeffs = [math.comb(k + 1, i) * _BERNOULLI[k + 1 - i] for i in range(k + 2)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


def _bernoulli_value(k: int, a: float) -> float:
    """zeta(-k, a) = -B_(k+1)(a) / (k+1) (DLMF 25.11.14), exact on the
    binary rational a = n / 2^e and rounded once: Horner's rule gives the
    integer D 2^(e(k+1)) B_(k+1)(a) from `_bernoulli_ints`."""
    den, ints = _bernoulli_ints(k)
    n, e = a.as_integer_ratio()
    e = e.bit_length() - 1
    acc = 0
    for i in range(k + 1, -1, -1):
        acc = acc * n + (ints[i] << e * (k + 1 - i))
    return -acc / ((den * (k + 1)) << e * (k + 1))


def _em_tail(acc: complex, s: complex, b: complex, order: int, deriv: bool = False,
             weight: complex | None = None) -> tuple[complex, complex, float]:
    """acc plus weight times the Euler-Maclaurin tail of sum_{k>=0}
    (b+k)^(-s), or of its s-derivative: integral b^(1-s)/(s-1) (its finite
    part -log(b) at s = 1, where the derivative is not taken), half term
    and Bernoulli corrections up to the order. One exp gives b^(1-s); the
    half term divides it by b, and each Bernoulli power b^(-s-2j+1) steps
    it down by b^(-2). Also returns the last weighted correction and the
    rounding size of the integral, the largest piece: |integral|
    (2 + |exponent|), as exp(x) is off by about eps (1 + |x|) relative,
    and each addition by eps times the addend.
    """
    lg_b = cmath.log(b)
    exponent = (1 - s) * lg_b
    power = cmath.exp(exponent)
    inv_b = 1 / b
    if deriv:
        integral = power * (-lg_b / (s - 1) - 1 / (s - 1) ** 2)
        half = -lg_b * power * inv_b / 2
    else:
        integral = -lg_b if s == 1 else power / (s - 1)
        half = power * inv_b / 2
    if weight is not None:
        integral *= weight
        half *= weight
    acc += integral
    acc += half
    size = abs(integral) * (2.0 + abs(exponent))

    # B_2j/(2j)! s(s+1)...(s+2j-2) b^(-s-2j+1): the derivative of the
    # product is tracked with it, when asked for, so a zero factor
    # (s = -i) never needs a division.
    coeffs = _HURWITZ_TAIL if weight is None else [c * weight for c in _HURWITZ_TAIL[:order // 2]]
    step = inv_b * inv_b
    prod = s
    term = 0j
    if deriv:
        dprod = 1 + 0j
        for j in range(order // 2):
            power *= step
            term = coeffs[j] * power * (dprod - lg_b * prod)
            acc += term
            for i in (2 * j + 1, 2 * j + 2):
                dprod = dprod * (s + i) + prod
                prod *= s + i
    else:
        for j in range(order // 2):
            power *= step
            term = coeffs[j] * prod * power
            acc += term
            prod *= (s + 2 * j + 1) * (s + 2 * j + 2)
    return acc, term, size


def _remainder_bound(sigma: float, b: float, deriv: bool) -> float:
    """Integral-test bound on sum_{k>=0} (b+k)^(-sigma), or with deriv on
    sum_{k>=0} log(b+k) (b+k)^(-sigma): the first term plus the integral
    from b. Valid for sigma > 1 and b >= e, where both summands fall."""
    lg = math.log(b)
    first = math.exp(-sigma * lg)
    rest = math.exp((1 - sigma) * lg) / (sigma - 1)
    if deriv:
        return lg * first + rest * (lg + 1 / (sigma - 1))
    return first + rest


def _closed(partial: complex, prefix: complex, s: complex, a: complex, big: complex,
            deriv: bool, policy: PrecisionPolicy, early: bool) -> complex:
    """The kernel's value from its partial sum up to big and the pulled
    prefix: closed by `_em_tail` at each Bernoulli order in turn until the
    last term clears the target, else refused; taken as it stands when the
    summation stopped early. A value below the smallest normal double
    because big^(-s) underflowed is refused."""
    if early:
        result = partial + prefix
    else:
        for order in _BERNOULLI_ORDERS:
            acc, term, _ = _em_tail(partial, s, big, order, deriv)
            result = acc + prefix
            if abs(term) <= policy.target * max(abs(result), 1.0):
                break
        else:
            raise PrecisionError(
                f"Euler-Maclaurin tail stalled at {abs(term):.3e} for s={s}, a={a}")
    if (abs(result) < sys.float_info.min
            and abs(cmath.exp(-s * cmath.log(big))) < sys.float_info.min):
        raise PrecisionError(
            f"Euler-Maclaurin value {abs(result):.3e} underflows double "
            f"precision at s={s}, a={a}")
    return result


def _hurwitz_core(s: complex, a, deriv: bool, policy: PrecisionPolicy,
                  pair: bool = False) -> complex | tuple[complex, complex]:
    """Euler-Maclaurin evaluation of the Hurwitz zeta or its s-derivative;
    with pair, both at once as (value, derivative), and deriv is ignored.

    The shift is moved into Re(a) >= 1 first, summing the terms it passes
    over with principal-branch powers. Then N terms, N fixed by s, are
    summed once, and `_em_tail` closes the tail at each Bernoulli order in
    turn until its last term clears the target, else refuses. A pair
    shares the log and the power of every term between its two sums, and
    each sum gets its own tail, stop test and refusal. For Re(s) > 1 and
    a real shift, a sum of more than 2 `_EM_SHIFT` terms stops at the
    first power-of-two count whose integral-test bound on all the rest
    (`_remainder_bound` at Re(s): on positive reals x, |x^(-s)| is
    x^(-Re(s))) is below eps times the partial sum, with no tail: at huge
    s every term past the first few is below rounding. At s = 1
    the tail keeps only the finite part of its integral, so the value is
    the finite Laurent coefficient of the pole, -psi(a). A sum over the
    series budget is refused before any work; a term that overflows double
    precision raises DomainError, and a value below the smallest normal
    double because big^(-s) underflowed raises PrecisionError. The value
    at s = -k, 0 <= k <= _EXACT_DEGREE, and a real shift, alone or in a
    pair, is instead the Bernoulli polynomial of `_bernoulli_value`.
    """
    a = complex(a)
    if a.imag == 0.0 and a.real <= 0 and float(a.real).is_integer():
        raise NonPositiveShiftError(f"shift {a.real} lies on the nonpositive integer lattice")
    if not (cmath.isfinite(s) and cmath.isfinite(a)):
        raise InvalidParameterError(
            f"Euler-Maclaurin sums need a finite s and shift, got s={s}, a={a}")
    # negative Re(s) makes the shifted terms grow, so fewer of them keeps
    # summation cancellation small, and more would only grow it: N is
    # |s| + 4 clamped to [8, 24]
    if s.real < 0:
        shift_count = min(24, max(8, int(abs(s)) + 4))
    else:
        shift_count = max(_EM_SHIFT, int(abs(s)) + 8)
    terms = max(0, math.ceil(1.0 - a.real)) + shift_count
    if terms > _SERIES_BUDGET:
        raise PrecisionError(
            f"Euler-Maclaurin sum for s={s}, a={a} needs {float(terms):.3g} terms, "
            f"over the budget of {_SERIES_BUDGET}")
    stops = [shift_count]
    if a.imag == 0.0 and s.real > 1 and shift_count > 2 * _EM_SHIFT:
        stops = [1 << i for i in range(1, (shift_count - 1).bit_length())] + stops
    values = pair or not deriv
    slopes = pair or deriv
    try:
        bernoulli = None
        if (values and s.imag == 0.0 and a.imag == 0.0 and s.real.is_integer()
                and -_EXACT_DEGREE <= s.real <= 0):
            bernoulli = complex(_bernoulli_value(int(-s.real), a.real))
            if not slopes:
                return bernoulli
        prefix = dprefix = 0j
        pulled = a
        while pulled.real < 1.0:
            lg = cmath.log(pulled)
            term = cmath.exp(-s * lg)
            prefix += term
            if slopes:
                dprefix += -lg * term
            pulled += 1
        partial = dpartial = 0j
        count = 0
        early = False
        for stop in stops:
            if slopes:
                for k in range(count, stop):
                    lg = cmath.log(pulled + k)
                    term = cmath.exp(-s * lg)
                    partial += term
                    dpartial += -lg * term
            else:
                for k in range(count, stop):
                    partial += cmath.exp(-s * cmath.log(pulled + k))
            count = stop
            if count < shift_count:
                b = pulled.real + count
                eps = sys.float_info.epsilon
                early = ((not values or _remainder_bound(s.real, b, False) <= eps * abs(partial))
                         and (not slopes or _remainder_bound(s.real, b, True) <= eps * abs(dpartial)))
                if early:
                    break
        big = pulled + count
        if pair:
            value = (bernoulli if bernoulli is not None
                     else _closed(partial, prefix, s, a, big, False, policy, early))
            return value, _closed(dpartial, dprefix, s, a, big, True, policy, early)
        if deriv:
            return _closed(dpartial, dprefix, s, a, big, True, policy, early)
        return _closed(partial, prefix, s, a, big, False, policy, early)
    except OverflowError as exc:
        raise DomainError(
            f"Euler-Maclaurin terms overflow double precision at s={s}, shift {a}") from exc


def hurwitz_zeta(s, a, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Hurwitz zeta at complex s != 1, shift a off the nonpositive integers."""
    s = complex(s)
    if s == 1:
        raise PoleError(1, "Hurwitz zeta has its pole at s = 1")
    return _hurwitz_core(s, a, deriv=False, policy=policy)


def hurwitz_zeta_ds(s, a, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Analytic partial derivative of the Hurwitz zeta with respect to s."""
    s = complex(s)
    if s == 1:
        raise PoleError(1, "Hurwitz zeta has its pole at s = 1")
    return _hurwitz_core(s, a, deriv=True, policy=policy)


def log_gamma(x, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """log Gamma via the Lerch limit: zeta_s'(0, x) + log(2 pi)/2, Re(x) > 0."""
    x = complex(x)
    if x.real <= 0:
        raise NonPositiveShiftError("log_gamma here needs Re(x) > 0")
    return hurwitz_zeta_ds(0.0, x, policy) + 0.5 * math.log(_TWO_PI)


def _real_on_real_axis(value: complex, shift) -> complex:
    """value, exactly real when the shift is real. The callers' functions
    are real there; the kernel's principal-branch powers of negative
    shifts leave a rounding-size imaginary part, which is dropped."""
    return complex(value.real, 0.0) if complex(shift).imag == 0.0 else value


def digamma(a, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """psi(a): the negative of the finite Laurent coefficient of the Hurwitz
    zeta at its s = 1 pole, which the kernel evaluates; real for real a."""
    return _real_on_real_axis(-_hurwitz_core(1 + 0j, a, deriv=False, policy=policy), a)


def _multiplicity_coeffs(order: int, y) -> list:
    """Coefficients of the lattice multiplicity binom(k+order-1, order-1)
    in ascending powers of t = k + y: the product of the linear factors
    (t - y + i)/(order-1)! for i = 1..order-1."""
    coeffs = [1.0]
    for i in range(1, order):
        nxt = [0.0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c * (i - y)
            nxt[j + 1] += c
        coeffs = nxt
    fact = math.factorial(order - 1)
    return [c / fact for c in coeffs]


def _check_poles(order: int, s: complex) -> None:
    if s.imag == 0.0 and float(s.real).is_integer() and 1 <= s.real <= order:
        raise PoleError(s.real, f"multiple Hurwitz zeta of order {order} has a pole at s = {int(s.real)}")


def _equal_period_sum(order: int, period: float, terms: list[tuple[int, complex]],
                      s: complex, deriv: bool, policy: PrecisionPolicy) -> tuple[complex, float]:
    """Sum over (c, x) terms of c times zeta_r(s, x; N, ..., N), or its
    s-derivative, by the reduction N^(-s) sum_j c_j(x/N) zeta(s - j, x/N),
    and the size sum |c| |term|: the analytic twin of `_collapsed_series`.
    The derivative needs each zeta(s - j, y) and its s-derivative, which
    one kernel call returns as a pair. Poles s = 1..r are not checked;
    there the kernel returns zeta(1, y)'s finite part -psi(y), so a sum
    whose residues cancel gives its own."""
    if order not in (1, 2, 3):
        raise InvalidParameterError(f"order must be 1, 2 or 3, got {order}")
    ln_n = math.log(period)
    try:
        scale = cmath.exp(-s * ln_n)
    except OverflowError as exc:
        raise DomainError(
            f"period scale {period}^(-s) overflows double precision at s={s}") from exc
    total = 0j
    size = 0.0
    for c, x in terms:
        y = complex(x) / period
        coeffs = _multiplicity_coeffs(order, y)
        inner = 0j
        dinner = 0j
        for j in reversed(range(order)):
            if deriv:
                value, slope = _hurwitz_core(s - j, y, True, policy, pair=True)
                inner += coeffs[j] * value
                dinner += coeffs[j] * slope
            else:
                inner += coeffs[j] * _hurwitz_core(s - j, y, deriv=False, policy=policy)
        term = scale * (dinner - ln_n * inner) if deriv else scale * inner
        total += c * term
        size += abs(c) * abs(term)
    return total, size


def _refolded(params: MultiZetaParams, shifts=None) -> tuple[float, list[tuple[int, complex]]]:
    """`_refolded_lattice(params, shifts)`, the one route of every multiple
    zeta function; UnsupportedContinuationError when there is none."""
    refolded = _refolded_lattice(params, shifts)
    if refolded is None:
        raise UnsupportedContinuationError(
            f"periods {params.periods} do not refold onto one period: they are not "
            f"integers, or the refolded degree passes the budget of {_REFOLD_BUDGET}")
    return refolded


def multiple_hurwitz_zeta(params: MultiZetaParams, s,
                          policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Lattice sum over r nonnegative indices of (n . omega + x)^(-s).

    Equal and integer periods evaluate through the refold onto one period
    and the analytically continued reduction to Hurwitz zetas at shifted
    arguments (s anywhere off the poles 1..r). Other periods are summed
    directly, which needs Re(s) > r.
    """
    s = complex(s)
    _check_poles(params.order, s)
    refolded = _refolded_lattice(params)
    if refolded is None and s.real > params.order:
        return direct_series(params, s, policy)
    return _equal_period_sum(params.order, *(refolded or _refolded(params)), s, False, policy)[0]


def multiple_hurwitz_zeta_ds(params: MultiZetaParams, s,
                             policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Analytic s-derivative of the multiple Hurwitz zeta of equal or
    integer periods."""
    s = complex(s)
    _check_poles(params.order, s)
    return _equal_period_sum(params.order, *_refolded(params), s, True, policy)[0]


def multiple_hurwitz_zeta_finite_part(params: MultiZetaParams, pole: int,
                                      policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Finite Laurent coefficient of the multiple zeta of equal or integer
    periods at a pole.

    At s = pole the singular reduction term of each refolded shift y is
    c_{pole-1}(y) zeta(1+eps, y), and the kernel evaluates zeta(1, y) as
    its finite part -psi(y), so the reduction at s = pole is already the
    finite part of the sum. Expanding the N^(-s) prefactor against the
    1/eps pole adds -N^(-pole) log N times the weighted c_{pole-1}(y).

    In a sum of terms whose residues cancel, these corrections cancel too,
    so `_equal_period_sum` at the pole needs none.
    """
    if not (1 <= pole <= params.order):
        raise InvalidParameterError(f"s = {pole} is not a pole of order {params.order}")
    period, terms = _refolded(params)
    residue = sum(c * _multiplicity_coeffs(params.order, x / period)[pole - 1]
                  for c, x in terms)
    value, _ = _equal_period_sum(params.order, period, terms, complex(pole), False, policy)
    return value - period ** float(-pole) * residue * math.log(period)


def _checked_exp(log_value: complex, what: str) -> complex:
    """exp of a log value; DomainError naming `what` when it overflows
    double precision, PrecisionError when it underflows."""
    try:
        value = cmath.exp(log_value)
    except OverflowError as exc:
        raise DomainError(f"{what} overflows double precision "
                          f"(log value {log_value.real:.6g})") from exc
    if abs(value) < sys.float_info.min:
        raise PrecisionError(f"{what} underflows double precision "
                             f"(log value {log_value.real:.6g})")
    return value


def multiple_gamma(params: MultiZetaParams,
                   policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """exp of the s-derivative at 0 of the multiple Hurwitz zeta; real for
    a real shift (the periods are positive reals).

    Raises DomainError when the value overflows double precision and
    PrecisionError when it underflows.
    """
    value = _checked_exp(multiple_hurwitz_zeta_ds(params, 0.0, policy),
                         f"Gamma_{params.order} at shift {params.shift}")
    return _real_on_real_axis(value, params.shift)


def multiple_sine(params: MultiZetaParams,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Reflection product Gamma_r(x)^(-1) * Gamma_r(|omega| - x)^((-1)^r) of
    equal or integer periods, as one exp of the log-gamma sum over one
    refold shifted to x and to |omega| - x, so gammas that overflow double
    precision still give a finite sine; real for a real shift."""
    x = complex(params.shift)
    period, terms = _refolded(params, ((-1, x), ((-1) ** params.order, sum(params.periods) - x)))
    log_value, _ = _equal_period_sum(params.order, period, terms, 0j, True, policy)
    value = _checked_exp(log_value, f"S_{params.order} at shift {params.shift}")
    return _real_on_real_axis(value, params.shift)


# ---------------------------------------------------------------------------
# Direct lattice series (convergent domain only). Equal and integer
# periods refold onto one period, whose lattice collapses to one index
# with a polynomial multiplicity and gets the kernel's tail. Other
# periods truncate a rectangle and certify the remainder with nested
# integral comparisons.

def _collapsed_series(order: int, period: float, terms: list[tuple[int, complex]],
                      s: complex, policy: PrecisionPolicy) -> tuple[complex, float]:
    """Sum over (c, x) terms, with integer multiplicities c, of c times the
    equal-period lattice series sum_k binom(k+order-1, order-1)
    (x + k period)^(-s); returns (value, err).

    Every Re(x) must be positive. With y = x/period the multiplicity is
    sum_e c_e(y) (k + y)^e, so past step k the tail is `_em_tail` at
    Bernoulli order 2 (integral + g/2 - g'/12) for each shift and power e:
    weight c c_e(y) period^(-s), s - e, b = y + k. At s = e + 1 the
    log(period) terms it drops cancel across shifts wherever the series
    converges. The summation stops once |g'(k)|/12 clears the target; err
    is that term plus the target times the partial sum plus eps times the
    rounding size of the powers and tail integrals, which near the edge of
    convergence far exceeds their sum. Raises PrecisionError when the
    series budget runs out first or when every power in the first lattice
    term underflows double precision, and DomainError when a term
    overflows double precision.
    """
    def term(k: int) -> tuple[complex, float]:
        # the summand and its rounding size, counted as `_em_tail` does
        inner = 0j
        size = 0.0
        for c, shift in terms:
            x = -s * cmath.log(shift + k * period)
            p = c * cmath.exp(x)
            inner += p
            size += abs(p) * (2.0 + abs(x))
        mult = math.comb(k + order - 1, order - 1)
        return mult * inner, mult * size

    total = 0j
    size = 0.0
    k = 0
    block = _SERIES_BLOCK
    try:
        # for Re(s) > 0 the k = 0 powers are the largest; once all of them
        # underflow, so has every term, and neither the sum nor its tail
        # is certified
        if max(abs(cmath.exp(-s * cmath.log(shift))) for _, shift in terms) < sys.float_info.min:
            raise PrecisionError(
                f"first lattice term underflows double precision at s={s}, "
                f"shifts {', '.join(str(x) for _, x in terms)}")
        scale_n = cmath.exp(-s * math.log(period))
        weighted = []
        for c, x in terms:
            y = x / period
            weighted.append((y, [c * c_e * scale_n for c_e in _multiplicity_coeffs(order, y)]))
        while True:
            for _ in range(block):
                value, value_size = term(k)
                total += value
                size += value_size
                k += 1
            tail = 0j
            last = 0j
            tail_size = 0.0
            for y, weights in weighted:
                for e, weight in enumerate(weights):
                    tail, correction, piece_size = _em_tail(tail, s - e, y + k, 2, weight=weight)
                    last += correction
                    tail_size += piece_size
            scale = max(abs(total), 1e-30)
            if abs(last) <= policy.target * scale:
                break
            if k >= _SERIES_BUDGET:
                raise PrecisionError(f"series budget exhausted at k = {k}")
            block = min(block * 2, 8192, _SERIES_BUDGET - k)
        total += tail
        rounding = sys.float_info.epsilon * (size + tail_size)
        return total, abs(last) + policy.target * scale + rounding
    except OverflowError as exc:
        shifts = ", ".join(str(x) for _, x in terms)
        raise DomainError(
            f"lattice series terms overflow double precision at s={s}, "
            f"shifts {shifts}") from exc


def _power_bound_rep(sigma: float, periods: tuple[float, ...]) -> list[tuple[float, int]]:
    # Represents an upper bound sum_i c_i * y^(e_i - sigma) for the lattice
    # sum over the given periods, built by repeated term+integral wrapping.
    rep = [(1.0, 0)]
    for w in periods:
        rep = rep + [(c / (w * (sigma - e - 1)), e + 1) for c, e in rep]
    return rep


def _eval_bound_rep(rep: list[tuple[float, int]], y: float, sigma: float) -> float:
    return sum(c * y ** (e - sigma) for c, e in rep)


def _rectangle_tail_bound(params: MultiZetaParams, sigma: float, cuts: list[int]) -> float:
    # The sum over j of the nested integral bound on the slab where index j
    # passes cuts[j]; it needs no term of the sum itself.
    periods = params.periods
    bound = 0.0
    for j in range(params.order):
        others = periods[:j] + periods[j + 1:] + (periods[j],)
        rep = _power_bound_rep(sigma, others)
        y_j = complex(params.shift).real + (cuts[j] + 1) * periods[j]
        bound += _eval_bound_rep(rep, y_j, sigma)
    return bound


def _rectangular_series(params: MultiZetaParams, s: complex,
                        policy: PrecisionPolicy) -> tuple[complex, float]:
    """Truncated rectangle plus a certified tail bound (any periods).

    Needs Re(shift) > 0 and Re(s) > order. The tail over each slab where
    one index exceeds its cut is bounded by nested integral comparison;
    the sum of slab bounds must drop below the target relative to the
    partial sum, or the budget is declared exhausted. A term that
    overflows double precision raises DomainError.
    """
    sigma = s.real
    x = complex(params.shift)
    if x.real <= 0:
        raise UnsupportedContinuationError("direct rectangular series needs Re(shift) > 0")
    periods = params.periods
    cuts = [16] * params.order
    try:
        while True:
            points = 1
            for c in cuts:
                points *= c + 1
            if points > _SERIES_BUDGET:
                raise PrecisionError(f"lattice budget exceeded with cuts {cuts}")
            total = 0j
            for idx in _iproduct(*(range(c + 1) for c in cuts)):
                base = x + sum(k * w for k, w in zip(idx, periods))
                total += cmath.exp(-s * cmath.log(base))
            bound = _rectangle_tail_bound(params, sigma, cuts)
            if bound <= policy.target * abs(total):
                return total, max(bound, 1e-18)
            cuts = [2 * c for c in cuts]
    except OverflowError as exc:
        raise DomainError(
            f"lattice series terms overflow double precision at s={s}, shift {x}") from exc


def _fold_counts(num_exponents, den_exponents) -> tuple[int, list[int]] | None:
    """N = lcm(n) and the ascending integer c_k with prod(x^m - 1) /
    prod(x^n - 1) = sum_k c_k x^k / (x^N - 1)^b over the exponents m and n,
    or None when that degree passes the refold budget: the one refold of
    integer periods (an index of period n is q N/n + t, t < N/n) and of
    cyclotomic forms. Each 1 + x^n + ... + x^(N - n) is (1 - x^N)/(1 - x^n):
    one pass multiplies by 1 - x^N and divides by 1 - x^n as a running sum."""
    period = math.lcm(*den_exponents)
    if sum(num_exponents) + sum(period - n for n in den_exponents) > _REFOLD_BUDGET:
        return None
    coeffs = [1]
    for m in num_exponents:
        out = [0] * m + coeffs  # x^m times coeffs, less coeffs
        for i, c in enumerate(coeffs):
            out[i] -= c
        coeffs = out
    for n in den_exponents:
        out = coeffs + [0] * (period - n)
        for j in range(len(out)):
            if j >= period:
                out[j] -= coeffs[j - period]
            if j >= n:
                out[j] += out[j - n]
        coeffs = out
    return period, coeffs


def _refolded_lattice(params: MultiZetaParams, shifts=None) -> tuple[float, list] | None:
    """The period N and the (c, y) terms with the lattice sum over the
    periods at each (weight, x) of shifts, default (1, shift), times its
    weight equal to sum c zeta_r(s, y; N, ..., N); None when the periods
    are not integers or the refolded degree passes the refold budget.
    Integer periods refold to N = lcm, as `abszeta` refolds a form: a
    period w contributes the shifts x + t w for t < N/w, and c counts the
    tuples that reach x + k.
    """
    shifts = shifts or ((1, complex(params.shift)),)
    if params.equal_periods:
        return params.periods[0], list(shifts)
    if not all(float(w).is_integer() for w in params.periods):
        return None
    refold = _fold_counts((), [int(w) for w in params.periods])
    if refold is None:
        return None
    period, counts = refold
    return float(period), [(weight * c, x + k) for weight, x in shifts
                           for k, c in enumerate(counts) if c]


def direct_series(params: MultiZetaParams, s,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Direct lattice summation, convergent domain Re(s) > order only.

    Serves as the independent cross-check of the analytic reduction. With
    Re(shift) > 0, equal and integer periods are summed as a one-period
    series (`_collapsed_series`) over their refold (`_refolded_lattice`),
    unless its first _SERIES_BLOCK steps over every refolded shift would
    pass the series budget. Other periods, and such refolds, truncate a
    rectangle.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise InvalidParameterError(f"direct series needs a finite s, got {s}")
    if s.real <= params.order:
        raise UnsupportedContinuationError("direct series needs Re(s) > order")
    refolded = _refolded_lattice(params) if complex(params.shift).real > 0 else None
    if refolded is None or _SERIES_BLOCK * len(refolded[1]) > _SERIES_BUDGET:
        return _rectangular_series(params, s, policy)[0]
    return _collapsed_series(params.order, *refolded, s, policy)[0]
