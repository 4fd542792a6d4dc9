"""Hurwitz zeta kernels and multiple zeta / gamma / sine functions.

One precision-controlled kernel carries everything: an Euler-Maclaurin
Hurwitz zeta with an analytic s-derivative (no finite differences in any
shipped path). Multiple Hurwitz zetas with equal periods reduce to linear
combinations of that kernel at shifted arguments; multiple gammas are the
exponential of the s-derivative at 0, and multiple sines the usual
reflection product of gammas.

Shift arguments may be negative (non-lattice): powers of negative reals
use the principal branch throughout, which keeps every identity in the
package self-consistent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class PrecisionPolicy:
    """Accuracy knobs for the numerical kernels.

    target         relative error aimed for (floored at 1e-13: beyond that
                    double precision cannot certify anything)
    em_shift       Euler-Maclaurin shift count M before the tail expansion
    bernoulli_order  highest Bernoulli index used in the tail (even, <= 30)
    series_budget  maximum number of lattice points a direct series may sum
    quad_limit     subdivision limit for adaptive quadrature
    """

    target: float = 1e-13
    em_shift: int = 24
    bernoulli_order: int = 12
    series_budget: int = 2_000_000
    quad_limit: int = 300

    def __post_init__(self):
        if self.target < 1e-13:
            raise InvalidParameterError("target below 1e-13 is not certifiable in doubles")
        if self.bernoulli_order % 2 != 0 or not (2 <= self.bernoulli_order <= 30):
            raise InvalidParameterError("bernoulli_order must be even and in [2, 30]")
        if self.em_shift < 1 or self.series_budget < 1 or self.quad_limit < 1:
            raise InvalidParameterError("em_shift, series_budget and quad_limit must be positive")


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
        if len(self.periods) != self.order:
            raise InvalidParameterError("period count must equal the order")
        if any(not (w > 0) for w in self.periods):
            raise InvalidParameterError("periods must be positive")

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


def _validate_shift(a) -> complex:
    a = complex(a)
    if a.imag == 0.0:
        ar = a.real
        if ar <= 0 and float(ar).is_integer():
            raise NonPositiveShiftError(f"shift {ar} lies on the nonpositive integer lattice")
    return a


def _hurwitz_core(s: complex, a: complex, deriv: bool, policy: PrecisionPolicy) -> complex:
    """Euler-Maclaurin evaluation of the Hurwitz zeta or its s-derivative.

    Valid for any s != 1. Shift a is moved into Re(a) >= 1 first; pulled
    terms with negative base use principal-branch powers.
    """
    if s == 1:
        raise PoleError(1, "Hurwitz zeta has its pole at s = 1")
    a = _validate_shift(a)

    prefix = 0j
    while a.real < 1.0:
        lg = cmath.log(a)
        term = cmath.exp(-s * lg)
        prefix += (-lg * term) if deriv else term
        a += 1

    # negative Re(s) makes the shifted terms grow, so fewer of them keeps
    # summation cancellation small; the Bernoulli tail still converges and
    # the escalation below guards the remainder either way
    if s.real < 0:
        shift0 = min(policy.em_shift, max(8, int(abs(s)) + 4))
    else:
        shift0 = max(policy.em_shift, int(abs(s)) + 8)
    order0 = policy.bernoulli_order
    attempts = ((shift0, order0),
                (2 * shift0, min(order0 + 4, 30)),
                (4 * shift0, 30),
                (8 * shift0, 30))
    last_exc_scale = None
    for shift_count, bern_order in attempts:
        val = 0j
        dval = 0j
        for k in range(shift_count):
            base = a + k
            lg = cmath.log(base)
            term = cmath.exp(-s * lg)
            val += term
            if deriv:
                dval += -lg * term
        big = a + shift_count
        lg_big = cmath.log(big)

        tail = cmath.exp((1 - s) * lg_big) / (s - 1)
        val += tail
        if deriv:
            dval += cmath.exp((1 - s) * lg_big) * (-lg_big / (s - 1) - 1 / (s - 1) ** 2)
        half = cmath.exp(-s * lg_big)
        val += half / 2
        if deriv:
            dval += -lg_big * half / 2

        # Bernoulli tail: B_{2j}/(2j)! * prod_{i=0..2j-2}(s+i) * big^(-s-2j+1).
        # The product and its derivative are tracked together so a zero
        # factor (s = -i) never needs a division.
        prod = 1 + 0j
        dprod = 0j
        last_sizes = (math.inf, math.inf)
        for j in range(1, bern_order // 2 + 1):
            lo = 0 if j == 1 else 2 * j - 3
            for i in range(lo, 2 * j - 1):
                dprod = dprod * (s + i) + prod
                prod = prod * (s + i)
            coeff = float(_BERNOULLI[2 * j]) / math.factorial(2 * j)
            power = cmath.exp((-s - 2 * j + 1) * lg_big)
            term = coeff * prod * power
            val += term
            if deriv:
                dterm = coeff * power * (dprod - lg_big * prod)
                dval += dterm
                last_sizes = (abs(term), abs(dterm))
            else:
                last_sizes = (abs(term), 0.0)

        result = (dval if deriv else val) + prefix
        tol = policy.target * max(abs(result), 1.0)
        last = last_sizes[1] if deriv else last_sizes[0]
        if last <= tol:
            return result
        last_exc_scale = last
    raise PrecisionError(
        f"Euler-Maclaurin tail stalled at {last_exc_scale:.3e} for s={s}, a={a}")


def hurwitz_zeta(s, a, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Hurwitz zeta at complex s != 1, shift a off the nonpositive integers."""
    return _hurwitz_core(complex(s), a, deriv=False, policy=policy)


def hurwitz_zeta_ds(s, a, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Analytic partial derivative of the Hurwitz zeta with respect to s."""
    return _hurwitz_core(complex(s), a, deriv=True, policy=policy)


def log_gamma(x, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """log Gamma via the Lerch limit: zeta_s'(0, x) + log(2 pi)/2, Re(x) > 0."""
    x = complex(x)
    if x.real <= 0:
        raise NonPositiveShiftError("log_gamma here needs Re(x) > 0")
    return hurwitz_zeta_ds(0.0, x, policy) + 0.5 * math.log(_TWO_PI)


def digamma(a, policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """psi(a) by Euler-Maclaurin; also the negative of the finite Laurent
    coefficient of the Hurwitz zeta at its s = 1 pole."""
    a = _validate_shift(a)
    prefix = 0j
    while a.real < 1.0:
        prefix -= 1.0 / a
        a += 1
    shift0 = policy.em_shift
    attempts = ((shift0, policy.bernoulli_order),
                (2 * shift0, min(policy.bernoulli_order + 4, 30)),
                (4 * shift0, 30),
                (8 * shift0, 30))
    for shift_count, bern_order in attempts:
        acc = 0j
        for k in range(shift_count):
            acc -= 1.0 / (a + k)
        big = a + shift_count
        acc += cmath.log(big) - 1.0 / (2.0 * big)
        last = math.inf
        for j in range(1, bern_order // 2 + 1):
            term = float(_BERNOULLI[2 * j]) / (2 * j) * big ** (-2 * j)
            acc -= term
            last = abs(term)
        result = acc + prefix
        if last <= policy.target * max(abs(result), 1.0):
            return result
    raise PrecisionError(f"digamma tail stalled for a = {a}")


def _equal_reduction_terms(order: int, y: complex) -> tuple[tuple[int, complex], ...]:
    # Lattice multiplicity binom(k+r-1, r-1), rewritten once in the basis
    # (y+k)^0, (y+k)^1, (y+k)^2. Returned as (shift j, coefficient) pairs
    # meaning coefficient * zeta(s - j, y).
    if order == 1:
        return ((0, 1.0 + 0j),)
    if order == 2:
        return ((1, 1.0 + 0j), (0, 1.0 - y))
    return ((2, 0.5 + 0j),
            (1, (3.0 - 2.0 * y) / 2.0),
            (0, (y - 1.0) * (y - 2.0) / 2.0))


def _check_poles(order: int, s: complex) -> None:
    if s.imag == 0.0 and float(s.real).is_integer() and 1 <= s.real <= order:
        raise PoleError(s.real, f"multiple Hurwitz zeta of order {order} has a pole at s = {int(s.real)}")


def _equal_period_value(params: MultiZetaParams, s: complex, deriv: bool,
                        policy: PrecisionPolicy) -> complex:
    period = params.periods[0]
    y = complex(params.shift) / period
    ln_n = math.log(period)
    scale = cmath.exp(-s * ln_n)
    total = 0j
    dtotal = 0j
    for j, coeff in _equal_reduction_terms(params.order, y):
        total += coeff * _hurwitz_core(s - j, y, deriv=False, policy=policy)
        if deriv:
            dtotal += coeff * _hurwitz_core(s - j, y, deriv=True, policy=policy)
    if deriv:
        return scale * (dtotal - ln_n * total)
    return scale * total


def multiple_hurwitz_zeta(params: MultiZetaParams, s,
                          policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Lattice sum over r nonnegative indices of (n . omega + x)^(-s).

    Equal periods evaluate through the analytically continued reduction to
    Hurwitz zetas at shifted arguments (s anywhere off the poles 1..r);
    unequal periods fall back to the direct series and therefore require
    Re(s) > r.
    """
    s = complex(s)
    _check_poles(params.order, s)
    if params.equal_periods:
        return _equal_period_value(params, s, deriv=False, policy=policy)
    if s.real <= params.order:
        raise UnsupportedContinuationError(
            "unequal periods are only summable directly, which needs Re(s) > order")
    return direct_series(params, s, policy)


def multiple_hurwitz_zeta_ds(params: MultiZetaParams, s,
                             policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Analytic s-derivative of the equal-period multiple Hurwitz zeta."""
    s = complex(s)
    _check_poles(params.order, s)
    if not params.equal_periods:
        raise UnsupportedContinuationError("s-derivative is only shipped for equal periods")
    return _equal_period_value(params, s, deriv=True, policy=policy)


def multiple_hurwitz_zeta_finite_part(params: MultiZetaParams, pole: int,
                                      policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Finite Laurent coefficient of the equal-period multiple zeta at a pole.

    At s = pole the singular reduction term is c_{pole-1}(y) zeta(1+eps, y);
    with zeta(1+eps, y) = 1/eps - psi(y) + O(eps) and the N^(-s) prefactor
    expanded, the constant coefficient is
    N^(-pole) [ sum_{j != pole-1} c_j(y) zeta(pole-j, y)
                + c_{pole-1}(y) (-psi(y) - log N) ].

    Alternating sums of these finite parts evaluate expressions whose
    individual terms are singular but whose residues cancel.
    """
    if not params.equal_periods:
        raise UnsupportedContinuationError("finite parts are only shipped for equal periods")
    if not (1 <= pole <= params.order):
        raise InvalidParameterError(f"s = {pole} is not a pole of order {params.order}")
    period = params.periods[0]
    y = complex(params.shift) / period
    ln_n = math.log(period)
    total = 0j
    for j, coeff in _equal_reduction_terms(params.order, y):
        if j == pole - 1:
            total += coeff * (-digamma(y, policy) - ln_n)
        else:
            total += coeff * _hurwitz_core(complex(pole - j), y, deriv=False, policy=policy)
    return period ** float(-pole) * total


def multiple_gamma(params: MultiZetaParams,
                   policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """exp of the s-derivative at 0 of the multiple Hurwitz zeta.

    Raises DomainError when the value overflows double precision.
    """
    log_value = multiple_hurwitz_zeta_ds(params, 0.0, policy)
    try:
        return cmath.exp(log_value)
    except OverflowError as exc:
        raise DomainError(
            f"Gamma_{params.order} overflows double precision at shift {params.shift} "
            f"(log value {log_value.real:.6g})") from exc


def multiple_sine(params: MultiZetaParams,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Reflection product Gamma_r(x)^(-1) * Gamma_r(|omega| - x)^((-1)^r)."""
    reflected = MultiZetaParams(order=params.order,
                                shift=sum(params.periods) - complex(params.shift),
                                periods=params.periods)
    g_x = multiple_gamma(params, policy)
    g_ref = multiple_gamma(reflected, policy)
    if params.order % 2 == 0:
        return g_ref / g_x
    return 1.0 / (g_x * g_ref)


# ---------------------------------------------------------------------------
# Direct lattice series (convergent domain only). The equal-period case
# collapses to one index with a polynomial multiplicity and gets a
# closed-form integral-corrected tail; the unequal case truncates a
# rectangle and certifies the remainder with nested integral comparisons.

def _collapsed_tail_integral(order: int, x: complex, period: float,
                             start: float, s: complex) -> complex:
    """Closed form of the tail integral of binom(t+r-1, r-1) (x+tN)^(-s)."""
    v = x + start * period
    n = period

    def vpow(e: complex) -> complex:
        return cmath.exp(e * cmath.log(v))

    if order == 1:
        return vpow(1 - s) / (n * (s - 1))
    if order == 2:
        return (vpow(2 - s) / (s - 2) + (n - x) * vpow(1 - s) / (s - 1)) / (n * n)
    c0 = (n - x) * (2 * n - x)
    return (vpow(3 - s) / (s - 3) + (3 * n - 2 * x) * vpow(2 - s) / (s - 2)
            + c0 * vpow(1 - s) / (s - 1)) / (2 * n ** 3)


def _multiplicity(order: int, k: int) -> int:
    if order == 1:
        return 1
    if order == 2:
        return k + 1
    return (k + 1) * (k + 2) // 2


def _collapsed_series(params: MultiZetaParams, s: complex,
                      policy: PrecisionPolicy) -> tuple[complex, float]:
    """Equal-period direct series with an integral-bracketed tail.

    Returns (value, error bound); the bound is half the first omitted term,
    rigorous for real s and real positive shift.
    """
    period = params.periods[0]
    x = complex(params.shift)
    sigma = s.real
    total = 0j
    k = 0
    block = 64
    while True:
        for _ in range(block):
            base = x + k * period
            total += _multiplicity(params.order, k) * cmath.exp(-s * cmath.log(base))
            k += 1
        g_next = _multiplicity(params.order, k) * abs(x + k * period) ** (-sigma)
        bound = g_next / 2.0
        if bound <= policy.target * max(abs(total), 1.0):
            break
        if k >= policy.series_budget:
            raise PrecisionError(
                f"collapsed series budget exhausted at k={k}, bound {bound:.3e}")
        block = min(2 * block, 8192, policy.series_budget - k)
    tail = _collapsed_tail_integral(params.order, x, period, float(k), s)
    gk = _multiplicity(params.order, k) * cmath.exp(-s * cmath.log(x + k * period))
    return total + tail + gk / 2.0, max(abs(gk) / 2.0, 1e-18)


def _power_bound_rep(sigma: float, periods: tuple[float, ...]) -> list[tuple[float, int]]:
    # Represents an upper bound sum_i c_i * y^(e_i - sigma) for the lattice
    # sum over the given periods, built by repeated term+integral wrapping.
    rep = [(1.0, 0)]
    for w in periods:
        rep = rep + [(c / (w * (sigma - e - 1)), e + 1) for c, e in rep]
    return rep


def _eval_bound_rep(rep: list[tuple[float, int]], y: float, sigma: float) -> float:
    return sum(c * y ** (e - sigma) for c, e in rep)


def _rectangular_series(params: MultiZetaParams, s: complex,
                        policy: PrecisionPolicy) -> tuple[complex, float]:
    """Truncated rectangle plus a certified tail bound (any periods).

    Needs Re(shift) > 0 and Re(s) > order. The tail over each slab where
    one index exceeds its cut is bounded by nested integral comparison;
    the sum of slab bounds must drop below the target or the budget is
    declared exhausted.
    """
    sigma = s.real
    x = complex(params.shift)
    if x.real <= 0:
        raise UnsupportedContinuationError("direct rectangular series needs Re(shift) > 0")
    periods = params.periods
    r = params.order
    cuts = [16] * r
    while True:
        points = 1
        for c in cuts:
            points *= c + 1
        if points > policy.series_budget:
            raise PrecisionError(f"lattice budget exceeded with cuts {cuts}")
        total = 0j
        for idx in _iproduct(*(range(c + 1) for c in cuts)):
            base = x + sum(k * w for k, w in zip(idx, periods))
            total += cmath.exp(-s * cmath.log(base))
        bound = 0.0
        for j in range(r):
            others = periods[:j] + periods[j + 1:] + (periods[j],)
            rep = _power_bound_rep(sigma, others)
            y_j = x.real + (cuts[j] + 1) * periods[j]
            bound += _eval_bound_rep(rep, y_j, sigma)
        if bound <= policy.target * max(abs(total), 1.0):
            return total, max(bound, 1e-18)
        cuts = [2 * c for c in cuts]


def direct_series(params: MultiZetaParams, s,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> complex:
    """Direct lattice summation, convergent domain Re(s) > order only.

    Serves as the independent cross-check of the equal-period reduction
    and as the shipped path for unequal periods.
    """
    s = complex(s)
    if s.real <= params.order:
        raise UnsupportedContinuationError("direct series needs Re(s) > order")
    if params.equal_periods and complex(params.shift).real > 0:
        value, _ = _collapsed_series(params, s, policy)
    else:
        value, _ = _rectangular_series(params, s, policy)
    return value
