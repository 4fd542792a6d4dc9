import cmath
import math
import random
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from azw import (
    MultiZetaParams,
    PrecisionPolicy,
    direct_series,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma,
    multiple_gamma,
    multiple_hurwitz_zeta,
    multiple_hurwitz_zeta_ds,
    multiple_sine,
)
from azw.errors import (
    DomainError,
    InvalidParameterError,
    NonPositiveShiftError,
    PoleError,
    PrecisionError,
    UnsupportedContinuationError,
)
from azw.multizeta import (
    _BERNOULLI,
    _EXACT_DEGREE,
    _HURWITZ_TAIL,
    DEFAULT_POLICY,
    _bernoulli_ints,
    _collapsed_series,
    _multiplicity_coeffs,
    digamma,
    multiple_hurwitz_zeta_finite_part,
)
from conftest import bernoulli_numbers, two_period_zeta

EULER_GAMMA = 0.5772156649015329
# coprime pairs, so `references.two_period_zeta` covers them
UNEQUAL_INTEGER_PERIODS = ((1, 2), (2, 3), (3, 4))


def test_policy_validation():
    # below 1e-13 doubles certify nothing; at 1 or above no digit is
    # certified, and nan or inf is no target at all
    for target in (1e-16, math.nan, math.inf, 1.0):
        with pytest.raises(InvalidParameterError):
            PrecisionPolicy(target=target)
    PrecisionPolicy(target=1e-9)  # fine


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        MultiZetaParams(order=4, shift=1.0, periods=(1, 1, 1, 1))
    with pytest.raises(InvalidParameterError):
        MultiZetaParams(order=2, shift=1.0, periods=(1.0,))
    with pytest.raises(InvalidParameterError):
        MultiZetaParams(order=1, shift=1.0, periods=(-1.0,))


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1j, "2"])
def test_params_refuse_a_period_that_is_not_a_finite_positive_real(bad):
    # an infinite period used to spend seconds in the rectangle before a
    # budget refusal, and (inf,) was reported as a zero shift
    for periods in ((1.0, bad), (bad, 1.0)):
        with pytest.raises(InvalidParameterError, match="finite positive reals"):
            MultiZetaParams(2, 1.0, periods)
    with pytest.raises(InvalidParameterError, match="finite positive reals"):
        MultiZetaParams(1, 1.0, (bad,))


def test_params_store_periods_as_a_tuple():
    # a list of periods is the same parameters as the tuple, and hashable
    listed = MultiZetaParams(2, 1.0, [1.0, 2.0])
    assert listed.periods == (1.0, 2.0)
    assert listed == MultiZetaParams(2, 1.0, (1.0, 2.0))
    assert hash(listed) == hash(MultiZetaParams(2, 1.0, (1.0, 2.0)))
    with pytest.raises(InvalidParameterError, match="iterable"):
        MultiZetaParams(1, 1.0, 2.0)


def test_bernoulli_table():
    # (numerator, denominator) pairs, so that importing multizeta runs no
    # Fraction arithmetic; the whole table is the recurrence's
    assert _BERNOULLI[2] == (1, 6)
    assert _BERNOULLI[4] == (-1, 30)
    assert _BERNOULLI[12] == (-691, 2730)
    assert [Fraction(*b) for b in _BERNOULLI] == bernoulli_numbers(30)
    assert all(den > 0 and math.gcd(num, den) == 1 for num, den in _BERNOULLI)


def test_hurwitz_tail_is_bit_identical_to_the_fraction_table():
    oracle = bernoulli_numbers(30)
    want = [float(oracle[2 * j]) / math.factorial(2 * j) for j in range(1, 16)]
    assert [c.hex() for c in _HURWITZ_TAIL] == [c.hex() for c in want]


def test_bernoulli_polynomial_ints_match_fractions():
    # (D, D c_i) for B_(k+1)(x), c_i = C(k+1, i) B_(k+1-i) in Fractions
    oracle = bernoulli_numbers(30)
    for k in range(_EXACT_DEGREE + 1):
        coeffs = [math.comb(k + 1, i) * oracle[k + 1 - i] for i in range(k + 2)]
        den = math.lcm(*(c.denominator for c in coeffs))
        assert _bernoulli_ints(k) == (den, tuple(int(c * den) for c in coeffs)), k


def test_basel():
    assert abs(hurwitz_zeta(2, 1) - math.pi ** 2 / 6) < 1e-12


@pytest.mark.parametrize("s,a", [(math.inf, 1.0), (complex(2.0, math.nan), 1.0),
                                 (2.0, -math.inf), (2.0, math.nan)])
def test_ladder_refuses_non_finite_arguments(s, a):
    with pytest.raises(InvalidParameterError):
        hurwitz_zeta(s, a)


def test_ladder_refuses_work_over_the_series_budget():
    # s = 1e7 would sum 1e7 terms and a shift of -3e6 pulls 3e6 terms in;
    # both are refused before summing, while s = 1e5 is still in budget
    from azw.errors import PrecisionError
    with pytest.raises(PrecisionError):
        hurwitz_zeta(1e7, 0.5)
    with pytest.raises(PrecisionError):
        hurwitz_zeta_ds(2.0, -3e6 + 0.5)
    with pytest.raises(PrecisionError):
        digamma(-3e6 + 0.5)
    assert abs(hurwitz_zeta(1e5, 1.0) - 1.0) <= 1e-13


@pytest.mark.parametrize("s", [-11.5, -7.7, -5.5, -2.2, -0.5, 0.5, 3, 12, 2 + 5j])
@pytest.mark.parametrize("a", [0.3, 1.0, 4.2])
@pytest.mark.parametrize("deriv", [False, True])
def test_kernel_never_grows_its_shift_count(monkeypatch, s, a, deriv):
    # only the Bernoulli order may rise: every tail closes the one partial
    # sum at the same b, since for Re(s) < 0 each doubling of N grew the
    # cancellation (zeta(-10.5, 0.3) came back as -35625, true -0.014)
    from azw import multizeta
    seen = []
    tail = multizeta._em_tail
    monkeypatch.setattr(multizeta, "_em_tail",
                        lambda acc, s, b, *rest, **kw: seen.append(b) or tail(acc, s, b, *rest, **kw))
    try:
        (hurwitz_zeta_ds if deriv else hurwitz_zeta)(s, a)
    except PrecisionError:
        pass
    assert len(seen) in (1, 2) and len(set(seen)) == 1, seen


@pytest.mark.parametrize("s, a, want, tol", [
    (-6.5, 1.5, -0.013764963610633, 1e-6),
    (-7.7, 4.2, -8193.53663049604, 1e-8),
])
def test_kernel_at_negative_s_against_mpmath(s, a, want, tol):
    # mpmath.zeta(s, a) at 30 digits; doubling N took these to 4.7e-5 and
    # 1.4e-7 relative. Both still miss the 1e-13 target
    assert abs(hurwitz_zeta(s, a) - want) <= tol * abs(want)


def _exact_zeta_at_negative_integer(k: int, a: float) -> float:
    """-B_(k+1)(a)/(k+1) on the binary rational a, rounded once; sympy's
    Bernoulli polynomial, not the kernel's table."""
    sympy = pytest.importorskip("sympy")
    value = -sympy.bernoulli(k + 1, sympy.Rational(*a.as_integer_ratio())) / (k + 1)
    return float(Fraction(int(value.p), int(value.q)))


def test_kernel_at_nonpositive_integer_s_is_the_rounded_bernoulli_value():
    # over these 240 points the Euler-Maclaurin sum missed by more than
    # 1e-12 relative at 163, by up to 8.6e-4
    rng = random.Random(0)
    points = [(k, rng.uniform(0.01, 4.0)) for k in range(1, 9) for _ in range(30)]
    points += [(0, 0.3), (0, 2.5), (28, 0.7), (28, 3.9), (5, -2.75), (12, -0.5)]
    for k, a in points:
        assert hurwitz_zeta(-k, a) == complex(_exact_zeta_at_negative_integer(k, a)), (k, a)


@pytest.mark.parametrize("s", [0, 0.5, 1, 2.5, 8, 12, 2 + 5j, 0.1 + 7j])
@pytest.mark.parametrize("a", [0.05, 0.3, 1.0, 4.2])
def test_kernel_at_nonnegative_s_against_mpmath(s, a):
    # N = max(12, |s| + 8) terms meet the target at Bernoulli order 12;
    # at s = 1 the kernel's finite part is -psi(a)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        if s == 1:
            pairs = [(digamma(a), complex(mp.digamma(a)))]
        else:
            pairs = [(hurwitz_zeta(s, a), complex(mp.zeta(s, a))),
                     (hurwitz_zeta_ds(s, a), complex(mp.zeta(s, a, 1)))]
    for got, want in pairs:
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), (got, want)


def test_gamma_takes_value_and_derivative_from_one_kernel_call(monkeypatch):
    # Gamma_2 needs zeta(-j, y) and its s-derivative for j = 0, 1: one
    # paired call each, not one call for the value and one for the slope
    from azw import multizeta
    calls = []
    kernel = multizeta._hurwitz_core
    monkeypatch.setattr(multizeta, "_hurwitz_core",
                        lambda *args, **kw: calls.append(args) or kernel(*args, **kw))
    gamma = multiple_gamma(MultiZetaParams(2, 0.7, (1.0, 1.0)))
    assert len(calls) == 2
    assert gamma.imag == 0.0 and gamma.real > 0
    monkeypatch.undo()
    # the pair is the two single-output calls, to rounding where the
    # pair's sum stops later than one of them (Re(s) > 1)
    from azw.multizeta import _hurwitz_core
    for s, a in ((-1.0, 0.7), (0.0, 0.7), (2.5 + 1j, 3.1), (-4.5, 0.3), (40.0, 1.5)):
        pair = _hurwitz_core(complex(s), a, True, DEFAULT_POLICY, pair=True)
        for deriv, got in zip((False, True), pair):
            want = _hurwitz_core(complex(s), a, deriv, DEFAULT_POLICY)
            assert abs(got - want) <= 4 * sys.float_info.epsilon * abs(want), (s, a, deriv)


@pytest.mark.parametrize("kernel", [
    hurwitz_zeta, hurwitz_zeta_ds,
    lambda s, a: multiple_hurwitz_zeta_ds(MultiZetaParams(1, a, (1.0,)), s),
])
def test_tail_power_overflow_is_a_domain_error(kernel):
    # at s = -218.2, a = 0.5 every summed term and b^(-s) are finite
    # (b = 25.5), but the tail integral's b^(1-s) is about e^709.9: the
    # Bernoulli powers step down from it, and its overflow is refused,
    # never passed on as inf or nan
    with pytest.raises(DomainError, match="overflow double precision"):
        kernel(-218.2, 0.5)


def test_kernel_stops_summing_terms_below_rounding(monkeypatch):
    # at Re(s) = 1.9e6 every term past (1 + k)^(-s) at k = 0 underflows:
    # the integral-test bound on the rest stops the sum after a few terms,
    # where N = |s| + 8 would sum 1.9 million of them
    from types import SimpleNamespace

    from azw import multizeta
    logs = []
    counting = SimpleNamespace(**{name: getattr(cmath, name) for name in dir(cmath)
                                  if not name.startswith("_")})
    counting.log = lambda z: logs.append(z) or cmath.log(z)
    monkeypatch.setattr(multizeta, "cmath", counting)
    assert hurwitz_zeta(1.9e6, 1.0) == 1.0
    assert hurwitz_zeta(1.9e6 + 0.5j, 1.0) == 1.0
    assert len(logs) < 40, len(logs)
    # the early value is the full sum to rounding; a derivative whose
    # terms all underflow is still refused
    monkeypatch.undo()
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s, a in ((17.5, 0.3), (40.3, 2.5), (300.0, 1.0), (25.0, -3.7), (30 + 4j, 1.5)):
            for got, want in ((hurwitz_zeta(s, a), mp.zeta(s, a)),
                              (hurwitz_zeta_ds(s, a), mp.zeta(s, a, 1))):
                assert abs(got - complex(want)) <= 1e-14 * abs(complex(want)), (s, a, got)
    with pytest.raises(PrecisionError, match="underflows double precision"):
        hurwitz_zeta_ds(1.9e6, 1.0)


@pytest.mark.parametrize("s", [-1.5, 0.5, 2.5])
@pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 4.7])
def test_hurwitz_recurrence(s, a):
    lhs = hurwitz_zeta(s, a) - hurwitz_zeta(s, a + 1)
    assert abs(lhs - a ** (-s)) < 1e-11


def test_hurwitz_pole_and_shift_rejection():
    # the kernel evaluates s = 1 as a finite part, so both entry points
    # must refuse the pole themselves
    with pytest.raises(PoleError):
        hurwitz_zeta(1, 0.5)
    with pytest.raises(PoleError):
        hurwitz_zeta_ds(1, 0.5)
    for bad in (0, -3, -1.0):
        with pytest.raises(NonPositiveShiftError):
            hurwitz_zeta(2.0, bad)


def test_hurwitz_negative_shift_principal_branch():
    # the recurrence continues through negative non-integer shifts with
    # principal-branch powers
    s = 2.5
    lhs = hurwitz_zeta(s, -0.5) - hurwitz_zeta(s, 0.5)
    assert abs(lhs - complex(-0.5) ** (-s)) < 1e-11
    assert abs(hurwitz_zeta(2, -0.5) - (hurwitz_zeta(2, 0.5) + 4.0)) < 1e-11


def test_hurwitz_complex_s():
    s = 2.2 + 1.3j
    lhs = hurwitz_zeta(s, 0.8) - hurwitz_zeta(s, 1.8)
    assert abs(lhs - 0.8 ** (-s)) < 1e-11


def test_ds_at_zero_half():
    # zeta_s'(0, 1/2) = -log(2)/2 by the Lerch formula
    assert abs(hurwitz_zeta_ds(0, 0.5) + 0.5 * math.log(2)) < 1e-12


@pytest.mark.parametrize("s", [-1.0, 0.3, 2.5])
@pytest.mark.parametrize("a", [0.6, 1.0, 3.2])
def test_ds_matches_central_differences(s, a):
    h = 1e-5
    numeric = (hurwitz_zeta(s + h, a) - hurwitz_zeta(s - h, a)) / (2 * h)
    assert abs(hurwitz_zeta_ds(s, a) - numeric) < 1e-7


def test_log_gamma_against_stdlib():
    for x in (0.3, 1.0, 2.5, 7.2):
        assert abs(log_gamma(x).real - math.lgamma(x)) < 1e-11


def test_digamma_anchors():
    assert abs(digamma(1.0).real + EULER_GAMMA) < 1e-12
    assert abs(digamma(0.5).real - (-EULER_GAMMA - 2 * math.log(2))) < 1e-12
    for a in (0.7, 2.3, -0.4):
        assert abs(digamma(a + 1) - (digamma(a) + 1.0 / a)) < 1e-11


def test_digamma_of_a_huge_shift():
    # big^(-2j) used to square 1e300 into inf; psi(a) = log a - 1/(2a) - ...
    want = math.log(1e300) - 1 / (2 * 1e300)
    assert abs(digamma(1e300) - want) <= 1e-12 * want


def test_digamma_is_real_for_negative_real_shifts():
    # the kernel pulls negative shifts up with principal-branch powers;
    # the value must come back real, and satisfy the reflection formula
    # psi(1 - a) - psi(a) = pi cot(pi a)
    for a in (-0.5, -5.715861189835449, -2.3, -7.9, -0.01, -11.25):
        got = digamma(a)
        assert got.imag == 0.0, (a, got)
        want = math.pi / math.tan(math.pi * a)
        diff = (digamma(1 - a) - got).real
        assert abs(diff - want) <= 1e-12 * max(abs(want), 1.0), (a, diff, want)


def test_digamma_against_mpmath():
    # digamma is minus the kernel's finite part at s = 1; real shifts stay
    # 0.05 off the poles at the nonpositive integers
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    points = []
    while len(points) < 150:
        x = rng.uniform(-6.0, 10.0)
        if abs(x - round(x)) >= 0.05:
            points.append(complex(x))
    points += [complex(rng.uniform(-6.0, 10.0), rng.uniform(-8.0, 8.0)) for _ in range(100)]
    for a in points:
        want = complex(mpmath.digamma(mpmath.mpc(a)))
        got = digamma(a)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), (a, got, want)


def test_index_collapse_order2():
    # sum (k+1)(1+k)^(-4) = zeta(3)
    got = multiple_hurwitz_zeta(MultiZetaParams(2, 1.0, (1.0, 1.0)), 4)
    assert abs(got - hurwitz_zeta(3, 1)) < 1e-13


def test_cycle_lattice_pattern():
    # the order-2 lattice sum at shift s + 2N against an explicit double
    # sum over both indices (truncation tail ~ 2e-10 at this cut)
    n_period, w, s = 2.0, 5.0, 1.0
    explicit = sum((s + 2 * n_period + (k1 + k2) * n_period) ** (-w)
                   for k1 in range(400) for k2 in range(400))
    got = multiple_hurwitz_zeta(MultiZetaParams(2, s + 2 * n_period,
                                                (n_period, n_period)), w)
    assert abs(got - explicit) < 1e-8


def test_ladder_relation_order3_to_order2():
    s, x, n = 2.2, 1.3, 2.0
    lhs = (multiple_hurwitz_zeta(MultiZetaParams(3, x, (n, n, n)), s)
           - multiple_hurwitz_zeta(MultiZetaParams(3, x + n, (n, n, n)), s))
    rhs = multiple_hurwitz_zeta(MultiZetaParams(2, x, (n, n)), s)
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("point", [(1, 0.5, 2.5), (2, 1.1, 3.5), (3, 2.3, 4.5),
                                   (2, 0.4, -0.5), (3, 1.0, 0.5)])
def test_scaling_law(point):
    r, x, s = point
    c, n_period = 2.0, 1.5
    base = multiple_hurwitz_zeta(MultiZetaParams(r, x, (n_period,) * r), s)
    scaled = multiple_hurwitz_zeta(MultiZetaParams(r, c * x, (c * n_period,) * r), s)
    assert abs(scaled - c ** (-s) * base) < 1e-10 * max(1.0, abs(base))


def test_multiple_zeta_poles():
    for r in (1, 2, 3):
        params = MultiZetaParams(r, 1.0, (1.0,) * r)
        for p in range(1, r + 1):
            with pytest.raises(PoleError):
                multiple_hurwitz_zeta(params, p)


def test_unequal_periods_need_large_s():
    # periods that do not refold onto one period are only summed directly,
    # which needs Re(s) > r; integer periods refold and continue past it
    params = MultiZetaParams(2, 1.0, (1.0, 2.5))
    with pytest.raises(UnsupportedContinuationError):
        multiple_hurwitz_zeta(params, 1.5)
    with pytest.raises(UnsupportedContinuationError):
        multiple_hurwitz_zeta_ds(params, 0.0)
    assert cmath.isfinite(multiple_hurwitz_zeta(params, 10.0))
    for periods in ((1.0, 2.0), (2.0, 3.0), (3.0, 4.0)):
        params = MultiZetaParams(2, 1.0, periods)
        assert cmath.isfinite(multiple_hurwitz_zeta(params, 1.5))
        assert cmath.isfinite(multiple_hurwitz_zeta_ds(params, 0.0))


def test_unequal_periods_direct_value():
    # permutation symmetry plus the one-axis peel recurrence
    pol = PrecisionPolicy(target=1e-10)
    a = multiple_hurwitz_zeta(MultiZetaParams(2, 1.0, (1.0, 2.0)), 6.0, pol)
    b = multiple_hurwitz_zeta(MultiZetaParams(2, 1.0, (2.0, 1.0)), 6.0, pol)
    assert abs(a - b) < 1e-10
    peel = (multiple_hurwitz_zeta(MultiZetaParams(1, 1.0, (1.0,)), 6.0, pol)
            + multiple_hurwitz_zeta(MultiZetaParams(2, 3.0, (1.0, 2.0)), 6.0, pol))
    assert abs(a - peel) < 1e-9


def test_reduction_matches_direct_series():
    # ten seeded draws in the overlap region Re(s) >= r + 1
    rng = random.Random(42)
    pol = PrecisionPolicy(target=1e-11)
    for _ in range(10):
        r = rng.choice((1, 2, 3))
        n_period = rng.uniform(0.5, 3.0)
        x = rng.uniform(0.2, 4.0)
        s = r + 1 + rng.uniform(0.0, 2.0)
        params = MultiZetaParams(r, x, (n_period,) * r)
        reduced = multiple_hurwitz_zeta(params, s, pol)
        series = direct_series(params, s, pol)
        assert abs(reduced - series) <= 1e-10 * max(1.0, abs(reduced))
        value, err = _collapsed_series(r, n_period, [(1, complex(x))], complex(s), pol)
        assert abs(value - reduced) <= err


def test_direct_series_domain():
    with pytest.raises(UnsupportedContinuationError):
        direct_series(MultiZetaParams(2, 1.0, (1.0, 1.0)), 1.5)


@pytest.mark.parametrize("shift, s", [
    (1.0, math.nan), (1.0, math.inf), (1.0, complex(3.0, math.nan)),
    (math.nan, 3.0), (complex(1.0, math.inf), 3.0),
], ids=["s-nan", "s-inf", "s-imag-nan", "shift-nan", "shift-imag-inf"])
def test_direct_series_refuses_non_finite_input(shift, s):
    # refused before any summation, which would run for seconds and end
    # in an exhausted budget
    with pytest.raises(InvalidParameterError, match="finite"):
        direct_series(MultiZetaParams(2, shift, (1.0, 1.0)), s)


def test_rectangular_path_matches_collapsed():
    from azw.multizeta import _rectangular_series
    pol = PrecisionPolicy(target=1e-10)
    params = MultiZetaParams(2, 1.3, (2.0, 2.0))
    a, _ = _collapsed_series(2, 2.0, [(1, 1.3 + 0j)], complex(5.5), pol)
    b, _ = _rectangular_series(params, complex(5.5), pol)
    assert abs(a - b) < 1e-9


def test_integer_periods_refold_onto_their_lcm():
    # the rectangle took 2.7 s over about 1e6 points here; refolded onto
    # the period 2 it is two one-period series (mpmath, 25 digits)
    pol = PrecisionPolicy(target=1e-10)
    params = MultiZetaParams(2, 3.0, (1.0, 2.0))
    start = time.perf_counter()
    got = multiple_hurwitz_zeta(params, 6.0, pol)
    assert time.perf_counter() - start < 0.5
    want = 0.00184435390770688
    assert abs(got - want) <= 1e-10 * want
    # and it agrees with the rectangle, which non-integer periods keep
    from azw.multizeta import _rectangular_series
    rect, bound = _rectangular_series(MultiZetaParams(2, 1.0, (1.0, 2.0)), complex(6.0), pol)
    assert abs(direct_series(MultiZetaParams(2, 1.0, (1.0, 2.0)), 6.0, pol) - rect) <= 2 * bound


def test_multiple_zeta_refolds_once(monkeypatch):
    # in the convergent domain the route test and the sum share one refold
    from azw import multizeta
    calls = []
    fold = multizeta._fold_counts
    monkeypatch.setattr(multizeta, "_fold_counts", lambda *a: calls.append(a) or fold(*a))
    got = multiple_hurwitz_zeta(MultiZetaParams(2, 3.0, (1.0, 2.0)), 6.0)
    assert len(calls) == 1
    assert abs(got - 0.00184435390770688) <= 1e-12 * 0.00184435390770688


def test_multiple_sine_refolds_once(monkeypatch):
    # the refold at x and at |omega| - x share one fold of the periods
    from azw import multizeta
    calls = []
    fold = multizeta._fold_counts
    monkeypatch.setattr(multizeta, "_fold_counts", lambda *a: calls.append(a) or fold(*a))
    got = multiple_sine(MultiZetaParams(2, 0.7, (1.0, 2.0)))
    assert len(calls) == 1
    # S_2(x; 1, 2) = Gamma_2(3 - x)/Gamma_2(x), each from its own refold
    want = (multiple_gamma(MultiZetaParams(2, 2.3, (1.0, 2.0)))
            / multiple_gamma(MultiZetaParams(2, 0.7, (1.0, 2.0))))
    assert abs(got - want) <= 1e-11 * abs(want)


def test_rectangle_stops_on_the_relative_target(monkeypatch):
    # |value| is about 3e-8, so an absolute stop at 1e-13 returned a value
    # off by 1.3e-7 relative; it must meet target * |ref| or refuse.
    # direct_series refolds these integer periods, so the rectangle is
    # called on its own, and the refold must meet the same target
    mpmath = pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import references
    from azw import multizeta
    params = MultiZetaParams(2, 13.3, (2.0, 3.0))
    with mpmath.workdps(25):
        want = complex(references.two_period_zeta(13.3, 2, 3, 7.0))
    got = direct_series(params, 7.0)
    assert abs(got - want) <= DEFAULT_POLICY.target * abs(want)
    monkeypatch.setattr(multizeta, "_SERIES_BUDGET", 50_000)
    try:
        got, _ = multizeta._rectangular_series(params, complex(7.0), DEFAULT_POLICY)
    except PrecisionError:
        return
    assert abs(got - want) <= DEFAULT_POLICY.target * abs(want)


def _route_of_direct_series(monkeypatch, periods, s) -> tuple[list[str], complex]:
    """The kernels `direct_series` calls at shift 1, and its value."""
    from azw import multizeta
    called = []
    for name in ("_collapsed_series", "_rectangular_series"):
        kernel = getattr(multizeta, name)
        monkeypatch.setattr(multizeta, name,
                            lambda *a, _k=kernel, _n=name: called.append(_n) or _k(*a))
    return called, direct_series(MultiZetaParams(2, 1.0, periods), s)


@pytest.mark.parametrize("periods, s", [
    ((1.0, 2.0), 6.0),
    ((1.0, 300.0), 10.0),
    ((7.0, 64.0), 6.0),
    ((3.0, 100.0), 4.0),
])
def test_integer_periods_take_the_refold(monkeypatch, periods, s):
    # integer periods within the refold budget always sum the one-period
    # series over the refold, whatever a rectangle would cost
    mpmath = pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import references
    called, got = _route_of_direct_series(monkeypatch, periods, s)
    assert called == ["_collapsed_series"]
    with mpmath.workdps(25):
        want = complex(references.two_period_zeta(1.0, *map(int, periods), s))
    assert abs(got - want) <= DEFAULT_POLICY.target * abs(want)


def test_refold_past_the_series_budget_takes_the_rectangle(monkeypatch):
    # 256 steps over each of the 300 refolded shifts pass a budget of
    # 50000 before the first stopping test; the rectangle clears in 1378
    from azw import multizeta
    monkeypatch.setattr(multizeta, "_SERIES_BUDGET", 50_000)
    called, got = _route_of_direct_series(monkeypatch, (1.0, 300.0), 10.0)
    assert called == ["_rectangular_series"]
    assert abs(got - multiple_hurwitz_zeta(MultiZetaParams(2, 1.0, (1.0, 300.0)), 10.0)) \
        <= 1e-12 * abs(got)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_multiplicity_coeffs_expand_the_binomial(order):
    # sum_e c_e(y) (k + y)^e = binom(k + order - 1, order - 1)
    rng = random.Random(order)
    for _ in range(10):
        y = complex(rng.uniform(-3.0, 3.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        coeffs = _multiplicity_coeffs(order, y)
        assert len(coeffs) == order
        for k in range(6):
            got = sum(c * (k + y) ** e for e, c in enumerate(coeffs))
            assert abs(got - math.comb(k + order - 1, order - 1)) <= 1e-12 * (1 + abs(y)) ** order
    # orders 1 and 2 keep the closed forms bit for bit
    y = 0.3 - 0.7j
    assert _multiplicity_coeffs(1, y) == [1.0]
    assert _multiplicity_coeffs(2, y) == [1.0 - y, 1.0]
    assert _multiplicity_coeffs(3, 0.0) == [1.0, 1.5, 0.5]


def test_rectangular_budget_is_enforced(monkeypatch):
    # near the convergence edge the certified bound cannot reach the
    # target within budget; the failure must be loud, not silent
    from azw import multizeta
    from azw.errors import PrecisionError
    monkeypatch.setattr(multizeta, "_SERIES_BUDGET", 10_000)
    pol = PrecisionPolicy(target=1e-13)
    with pytest.raises(PrecisionError):
        multizeta._rectangular_series(MultiZetaParams(2, 1.0, (1.0, 2.0)), complex(2.2), pol)


def test_gamma_order1_is_scaled_gamma():
    for x in (0.5, 1.0, 2.5):
        got = multiple_gamma(MultiZetaParams(1, x, (1.0,)))
        want = math.gamma(x) / math.sqrt(2 * math.pi)
        assert abs(got - want) < 1e-9 * want


def test_gamma_order2_at_one():
    # Gamma_2(1, (1,1)) = exp(zeta'(-1)); the closed value is the
    # Glaisher-Kinkelin combination exp(1/12 - log A)
    got = multiple_gamma(MultiZetaParams(2, 1.0, (1.0, 1.0)))
    own = cmath.exp(hurwitz_zeta_ds(-1, 1))
    assert abs(got - own) < 1e-12
    assert abs(got - 0.847536694177301) < 1e-8


def test_gamma_requires_integer_periods():
    # non-integer unequal periods have no refold; neither has a common
    # period whose refolded degree 2 * 988027 - 1988 passes the budget
    for periods in ((1.0, 2.5), (997.0, 991.0)):
        params = MultiZetaParams(2, 1.0, periods)
        for call in (lambda: multiple_gamma(params), lambda: multiple_sine(params),
                     lambda: multiple_hurwitz_zeta_ds(params, 0.0),
                     lambda: multiple_hurwitz_zeta_finite_part(params, 1)):
            with pytest.raises(UnsupportedContinuationError):
                call()
    # integer ones refold: Gamma_2(1; 1, 2) is exp of a finite real
    assert multiple_gamma(MultiZetaParams(2, 1.0, (1.0, 2.0))).imag == 0.0


def test_gamma_rejects_lattice_shift():
    with pytest.raises(NonPositiveShiftError):
        multiple_gamma(MultiZetaParams(2, -2.0, (1.0, 1.0)))


def test_gamma_overflow_is_a_domain_error():
    # log Gamma_3(306, (2,2,2)) is about 2.2e6, far past exp's range; the
    # call must refuse instead of leaking OverflowError
    from azw.errors import DomainError
    with pytest.raises(DomainError, match="overflows double precision"):
        multiple_gamma(MultiZetaParams(3, 306.0, (2.0, 2.0, 2.0)))


def test_sine_order1_values():
    assert abs(multiple_sine(MultiZetaParams(1, 0.5, (1.0,))) - 2.0) < 1e-9
    assert abs(multiple_sine(MultiZetaParams(1, 0.25, (1.0,))) - math.sqrt(2)) < 1e-9


def test_sine_of_overflowing_gammas():
    # Gamma_1(200.25) and Gamma_1(-199.25) are about e^860 and e^-860, past
    # double precision; their quotient S_1(200.25) = 2 sin(200.25 pi) = sqrt 2
    got = multiple_sine(MultiZetaParams(1, 200.25, (1.0,)))
    assert abs(got - math.sqrt(2)) <= 1e-9


def test_gamma_and_sine_are_real_for_real_shifts():
    # the kernel's principal-branch powers of the negative reflected shift
    # leave a rounding-size imaginary part, which must not reach the caller
    assert multiple_sine(MultiZetaParams(1, 200.25, (1.0,))).imag == 0.0
    for params in (MultiZetaParams(2, 7.3, (2.0, 2.0)), MultiZetaParams(3, 2.6, (1.0, 1.0, 1.0)),
                   MultiZetaParams(1, -0.5, (1.0,)), MultiZetaParams(2, -2.7, (1.5, 1.5))):
        for fn in (multiple_sine, multiple_gamma):
            assert fn(params).imag == 0.0, (fn.__name__, params)
    # Gamma(-1/2) / sqrt(2 pi) is negative: the real part keeps its sign
    got = multiple_gamma(MultiZetaParams(1, -0.5, (1.0,)))
    assert abs(got - math.gamma(-0.5) / math.sqrt(2 * math.pi)) < 1e-12
    # a complex shift keeps its imaginary part
    assert multiple_gamma(MultiZetaParams(2, 0.5 + 1j, (1.0, 1.0))).imag != 0.0


def test_gamma_refuses_an_underflowed_value():
    # log Gamma_2(-94.5; 3, 3) is about -1649, so the gamma is below every
    # double; it used to come back as 0
    with pytest.raises(PrecisionError, match="underflows double precision"):
        multiple_gamma(MultiZetaParams(2, -94.5, (3.0, 3.0)))


@pytest.mark.parametrize("x", [0.1, 0.37, 0.5, 0.81])
def test_sine_order1_reflection(x):
    got = multiple_sine(MultiZetaParams(1, x, (1.0,)))
    assert abs(got - 2 * math.sin(math.pi * x)) < 1e-9


def test_finite_part_matches_symmetric_limit():
    # the even part of the Laurent expansion kills the pole:
    # [f(p+eps) + f(p-eps)]/2 -> finite part as eps -> 0. A dyadic eps
    # keeps p +- eps exactly representable so the 1/eps parts cancel
    # exactly; the remaining error is the eps^2 Laurent term.
    eps = 2.0 ** -15
    params = MultiZetaParams(3, 1.7, (2.0, 2.0, 2.0))
    fp = multiple_hurwitz_zeta_finite_part(params, 3)
    avg = (multiple_hurwitz_zeta(params, 3 + eps)
           + multiple_hurwitz_zeta(params, 3 - eps)) / 2.0
    assert abs(fp - avg) < 1e-8
    fp2 = multiple_hurwitz_zeta_finite_part(MultiZetaParams(2, 0.9, (1.5, 1.5)), 1)
    avg2 = (multiple_hurwitz_zeta(MultiZetaParams(2, 0.9, (1.5, 1.5)), 1 + eps)
            + multiple_hurwitz_zeta(MultiZetaParams(2, 0.9, (1.5, 1.5)), 1 - eps)) / 2.0
    assert abs(fp2 - avg2) < 1e-8


@pytest.mark.parametrize("case", [1, 2, 3, *(pytest.param(pq, id="%d,%d" % pq)
                                               for pq in UNEQUAL_INTEGER_PERIODS)])
def test_finite_part_against_mpmath(case):
    # the even part of the Laurent expansion at pole +- eps, in 40 digits
    # from mpmath's Hurwitz zeta; the eps^2 term is far below double. An
    # int case is an order with equal random periods, a pair two unequal
    # integer periods (poles 1 and 2)
    mpmath = pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import references

    rng = random.Random(case if isinstance(case, int) else str(case))
    for _ in range(8 if isinstance(case, int) else 4):
        shift = complex(rng.uniform(0.1, 5.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        if isinstance(case, int):
            period = rng.uniform(0.5, 3.0)
            params = MultiZetaParams(case, shift, (period,) * case)
            reference = partial(references.equal_period_zeta, case, shift, period)
        else:
            params = MultiZetaParams(2, shift, tuple(map(float, case)))
            reference = partial(references.two_period_zeta, shift, *case)
        for pole in range(1, params.order + 1):
            with mpmath.workdps(40):
                eps = mpmath.mpf("1e-15")
                want = complex((reference(pole + eps) + reference(pole - eps)) / 2)
            got = multiple_hurwitz_zeta_finite_part(params, pole)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), (params, pole, got, want)


def _bench_tolerance(ref) -> float:
    return 100 * DEFAULT_POLICY.target * max(abs(ref), 1.0)


# Points with Re(s - j) in [-8, -2] for j < r are left out of the
# unequal-period tests below: the double Hurwitz kernel loses digits
# there to cancellation, for any periods (ROADMAP item 1).
@pytest.mark.parametrize("p, q", UNEQUAL_INTEGER_PERIODS)
def test_unequal_integer_periods_against_the_lattice(p, q):
    # the refold onto lcm(p, q) and its analytic reduction, on both sides
    # of the convergence edge s = 2, against the two-period lattice sum
    # written out with mpmath's Hurwitz zeta
    mpmath = pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import references

    for x in (0.7, 1.3, 2.5):
        params = MultiZetaParams(2, x, (float(p), float(q)))
        for s in (1.5, 0.5, -0.5):
            with mpmath.workdps(25):
                want = complex(references.two_period_zeta(x, p, q, s))
            got = multiple_hurwitz_zeta(params, s)
            assert abs(got - want) <= _bench_tolerance(want), (params, s, got, want)


@pytest.mark.parametrize("p, q", UNEQUAL_INTEGER_PERIODS)
def test_unequal_integer_gamma_and_sine_against_the_lattice(p, q):
    # zeta_2'(0, x; p, q) from the analytic s-derivative of the lattice
    # reference (mpmath's zeta(s, a, 1), not mpmath's numerical `diff`,
    # which is about 1e-11 off on (3, 4) at x = 2.5, at 25 and at 40
    # digits); Gamma_2 is its exp
    # and S_2(x) = Gamma_2(p + q - x) / Gamma_2(x)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        def log_gamma2(x):
            return two_period_zeta(mp, mp.mpf(x), p, q, mp.mpf(0), derivative=1)

        for x in (0.7, 1.3, 2.5):
            params = MultiZetaParams(2, x, (float(p), float(q)))
            ds = complex(log_gamma2(x))
            gamma = complex(mp.exp(log_gamma2(x)))
            sine = complex(mp.exp(log_gamma2(p + q - x) - log_gamma2(x)))
            for got, want in ((multiple_hurwitz_zeta_ds(params, 0.0), ds),
                              (multiple_gamma(params), gamma), (multiple_sine(params), sine)):
                assert abs(got - want) <= _bench_tolerance(want), (params, got, want)


def test_hurwitz_refuses_a_value_lost_to_underflow():
    # zeta(3, a) is about 1/(2 a^2): 2e-600 at a = 5e299, below every
    # double, where big^(-s) has underflowed too
    for kernel in (hurwitz_zeta, hurwitz_zeta_ds):
        with pytest.raises(PrecisionError, match="underflows double precision"):
            kernel(3.0, 5e299)
    # small but normal values still come back
    got = hurwitz_zeta(3.0, 1e100)
    assert abs(got - 0.5e-200) <= 1e-12 * 0.5e-200
    assert hurwitz_zeta(2.0, 5e299).real > sys.float_info.min


def test_collapsed_series_refuses_an_underflowed_first_term():
    # x^(-3) for x = 1e300 underflows, and so does every later term
    with pytest.raises(PrecisionError, match="first lattice term underflows"):
        _collapsed_series(2, 2.0, [(1, 1e300 + 0j)], 3 + 0j, PrecisionPolicy())
    # equal shifts that cancel exactly are not an underflow
    value, _ = _collapsed_series(1, 1.0, [(1, 2 + 0j), (-1, 2 + 0j), (1, 1 + 0j)],
                                 2 + 0j, PrecisionPolicy())
    assert abs(value - math.pi ** 2 / 6) < 1e-12
