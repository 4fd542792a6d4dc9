"""Absolute zeta layer: cyclotomic forms, the structure-theorem evaluator,
its two oracles, and the functional-equation verifier for cycle-graph
zetas. The direct series sums the lattice itself but closes its tail with
the Hurwitz kernel's own tail routine; Mellin quadrature integrates f and
shares no code with the kernel.

A cyclotomic form represents f(x) = x^(l/2) * prod(x^m(i) - 1) / prod(x^n(j) - 1).
Such f is reciprocally automorphic with sign (-1)^(a-b) and weight
l + |m| - |n|. Every form is refolded to one period N = lcm(n(j)): each
x^n(j) - 1 becomes (x^N - 1) / (1 + x^n(j) + ... + x^(N - n(j))), so
f(x) = x^(l/2) sum_k c_k x^k / (x^N - 1)^b with integer c_k from the
expanded numerator. The absolute Hurwitz transform Z_f(w, s) then unfolds
into the c_k-weighted sum of equal-period multiple Hurwitz zetas at the
shifts s - l/2 + bN - k, one per monomial, and log zeta_f(s) into the
matching c_k-weighted sum of log multiple gammas.

factor_cyclotomic goes the other way: it reads a form's exponents off
the coefficients of x f'/f, which one integer recurrence gives.

Z_f and zeta_f run on multizeta alone. The exact polynomial layer (and
with it matrices and graphs) is imported by the two helpers that build
polynomials, on the first factoring or automorphy check.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DomainError,
    IdentityCheckError,
    InvalidParameterError,
    NonPositiveShiftError,
    NotCyclotomicError,
    OddPowerError,
    PoleError,
    PrecisionError,
    QuadratureBudgetError,
    SingularPointError,
)
from .multizeta import (
    DEFAULT_POLICY,
    _REFOLD_BUDGET,
    MultiZetaParams,
    PrecisionPolicy,
    _checked_exp,
    _collapsed_series,
    _equal_period_sum,
    _fold_counts,
    _real_on_real_axis,
    log_gamma,
    multiple_sine,
)

_METHODS = ("structure", "series", "mellin")
# x range and finest step 2^-level of the exp-sinh Mellin rule: x = -9
# reaches log t = -6364, so t^gap vanishes for gaps down to about 0.01;
# x = 4 reaches t = 4e18
_DE_X_RANGE = (-9, 4)
_DE_MAX_LEVEL = 7
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class CyclotomicForm:
    """Exponent data of x^(l/2) * prod(x^m(i)-1) / prod(x^n(j)-1)."""

    l: int
    num_exponents: tuple[int, ...]
    den_exponents: tuple[int, ...]

    def __post_init__(self):
        if type(self.l) is not int:  # bool is an int subclass
            raise InvalidParameterError(f"monomial power l must be an int, got {self.l!r}")
        if self.l % 2 != 0:
            raise OddPowerError(f"monomial power l = {self.l} must be even")
        # any iterable of exponents is stored as a tuple, so equal forms
        # compare and hash equal
        for name in ("num_exponents", "den_exponents"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise InvalidParameterError(
                    f"{name} must be an iterable of exponents, got {getattr(self, name)!r}"
                ) from None
        for e in self.num_exponents + self.den_exponents:
            if type(e) is not int or e < 1:
                raise InvalidParameterError(f"exponents must be positive integers, got {e!r}")

    @property
    def a(self) -> int:
        return len(self.num_exponents)

    @property
    def b(self) -> int:
        return len(self.den_exponents)

    @property
    def abs_m(self) -> int:
        return sum(self.num_exponents)

    @property
    def abs_n(self) -> int:
        return sum(self.den_exponents)

    @property
    def sign(self) -> int:
        return 1 if (self.a - self.b) % 2 == 0 else -1

    @property
    def weight(self) -> int:
        return self.l + self.abs_m - self.abs_n

    def as_rational_function(self) -> ExactRationalFunction:
        from .polynomials import ExactPolynomial, ExactRationalFunction

        num = ExactPolynomial.one()
        den = ExactPolynomial.one()
        for e in self.num_exponents:
            num = num * _x_pow_minus_one(e)
        for e in self.den_exponents:
            den = den * _x_pow_minus_one(e)
        half = self.l // 2
        if half >= 0:
            num = num * ExactPolynomial.monomial(half)
        else:
            den = den * ExactPolynomial.monomial(-half)
        return ExactRationalFunction.from_parts(num, den)

    def to_dict(self) -> dict:
        return {"l": self.l, "m": list(self.num_exponents), "n": list(self.den_exponents)}


@dataclass(frozen=True)
class AbsZetaValue:
    """Complex value with the method that produced it and an error estimate."""

    value: complex
    method: str
    error: float

    def to_dict(self) -> dict:
        return {"value": [self.value.real, self.value.imag],
                "err": self.error, "method": self.method}


def _x_pow_minus_one(e: int) -> ExactPolynomial:
    from .polynomials import ExactPolynomial

    return ExactPolynomial.from_coeffs([-1] + [0] * (e - 1) + [1])


def factor_cyclotomic(f: ExactRationalFunction) -> CyclotomicForm:
    """Express a rational function in the cyclotomic family, or raise.

    f = c x^k prod(x^n - 1)^e(n) has L_N = [x^N] x f'/f equal to
    -sum over n | N of n e(n), so N e(N) = -L_N - sum over the smaller
    divisors. Each side p, x^k stripped, gives its log-derivative a by
    a p = x p' in ints: that divides only by p(0), +-1 on a cyclotomic
    product. Refuses a non-integral L_N or e(N); |e(N)| > D = deg num +
    deg den, which no form reaches; a scan end T = D + sum n |e(n)| over
    the refold budget; and a constant c != 1, naming the form. Past T, f
    over the product is c. A reduced input comes back as its form:
    1/(x+1) is (x-1)/(x^2-1).
    """
    if f.num.is_zero:
        raise NotCyclotomicError("zero function is not in the family")
    # each side is x^k times the nonzero ints {i: c} of its integer form
    shifts, sides = [], []
    for side in (f.num, f.den):
        ints = side.integer_form[1]
        shifts.append(next(i for i, c in enumerate(ints) if c))
        sides.append(({i - shifts[-1]: c for i, c in enumerate(ints) if c}, [0]))
    bound = max(sides[0][0]) + max(sides[1][0])
    exps, reach, n = {}, bound, 1
    while n <= reach:
        if reach > _REFOLD_BUDGET:
            raise NotCyclotomicError(f"the log-derivative scan would run to x^{reach}, "
                                     f"over the refold budget of {_REFOLD_BUDGET}")
        for p, a in sides:
            acc = n * p.get(n, 0) - sum(c * a[n - i] for i, c in p.items() if 0 < i <= n)
            if acc % p[0]:
                raise NotCyclotomicError(f"non-cyclotomic factor: x f'/f is not integral at x^{n}")
            a.append(acc // p[0])
        (_, a), (_, b) = sides
        e, r = divmod(b[n] - a[n] - sum(d * k for d, k in exps.items() if n % d == 0), n)
        if r or abs(e) > bound:
            raise NotCyclotomicError(
                f"non-cyclotomic factor: no exponent of x^{n} - 1 within {bound} fits")
        if e:
            exps[n] = e
            reach += n * abs(e)
        n += 1

    periods = sorted(exps, reverse=True)
    form = CyclotomicForm(2 * (shifts[0] - shifts[1]),
                          tuple(d for d in periods for _ in range(exps[d])),
                          tuple(d for d in periods for _ in range(-exps[d])))
    sign = (-1) ** (sum(exps.values()) % 2)
    residual = sign * f.num.coeffs[shifts[0]] / f.den.coeffs[shifts[1]]
    if residual != 1:
        raise NotCyclotomicError(
            f"residual constant {residual} is not 1; the family cannot absorb a sign or "
            f"scale: f is {residual} times the form {json.dumps(form.to_dict())}")
    if form.as_rational_function() != f:
        raise NotCyclotomicError(
            f"the form {json.dumps(form.to_dict())} does not reproduce the function")
    return form


def automorphic_data(form: CyclotomicForm) -> tuple[int, int]:
    """(sign, weight) of the form's reciprocal-argument automorphy.

    Checks f(1/x) = sign * x^(-weight) * f(x) exactly on the form's
    rational function and raises IdentityCheckError if it fails.
    """
    sign, weight = form.sign, form.weight
    f = form.as_rational_function()
    if f.reciprocal_argument() != f.scale_monomial(-weight).scale(sign):
        raise IdentityCheckError(
            f"f(1/x) is not {sign} x^{-weight} f(x) for the form {form.to_dict()}")
    return sign, weight


def _refold(form: CyclotomicForm) -> tuple[int, list[tuple[int, int]]]:
    """The common period N = lcm(n(j)) and the nonzero (k, c_k) of
    prod(x^m(i) - 1) * prod(1 + x^n(j) + ... + x^(N - n(j))) = sum_k c_k x^k,
    in ascending k, so that f(x) = x^(l/2) sum_k c_k x^k / (x^N - 1)^b.
    Raises PrecisionError when the degree exceeds the refold budget."""
    refold = _fold_counts(form.num_exponents, form.den_exponents)
    if refold is None:
        period = math.lcm(*form.den_exponents)
        raise PrecisionError(
            f"refolding to the period {period} gives a numerator of degree "
            f"{form.abs_m + form.b * period - form.abs_n}, over the budget of {_REFOLD_BUDGET}")
    period, coeffs = refold
    return period, [(k, c) for k, c in enumerate(coeffs) if c]


def _refolded_terms(form: CyclotomicForm, s: complex) -> tuple[int, list[tuple[int, complex]]]:
    """The common period N and the (c_k, s - l/2 + bN - k) pairs: Z_f is
    sum_k c_k zeta_b(w, s - l/2 + bN - k; N, ..., N)."""
    if form.b == 0:
        raise DomainError("the lattice methods need at least one denominator exponent")
    period, monomials = _refold(form)
    base = s - form.l / 2.0 + form.b * period
    return period, [(c, base - k) for k, c in monomials]


def _structure_value(form: CyclotomicForm, w: complex, s: complex,
                     policy: PrecisionPolicy) -> AbsZetaValue:
    # Integer w in (b-a, b] hits a pole of each monomial term whose residue
    # (a degree b-w polynomial in the shift) is killed by the a-fold zero
    # of the refolded numerator at x = 1; the kernel then sums the finite
    # parts, and their log N corrections cancel with the residues. Poles at
    # or below b-a are genuine poles of Z_f.
    if w.imag == 0.0 and float(w.real).is_integer() and 1 <= w.real <= form.b - form.a:
        raise PoleError(int(w.real), f"Z_f of this form has a pole at w = {int(w.real)}")
    period, terms = _refolded_terms(form, s)
    value, size = _equal_period_sum(form.b, float(period), terms, w, False, policy)
    return AbsZetaValue(value=value, method="structure", error=10 * policy.target * max(size, 1e-30))


def _series_value(form: CyclotomicForm, w: complex, s: complex,
                  policy: PrecisionPolicy) -> AbsZetaValue:
    if w.real <= form.b - form.a:
        raise DomainError(f"series needs Re(w) > {form.b - form.a}")
    period, terms = _refolded_terms(form, s)
    if any(shift.real <= 0 for _, shift in terms):
        raise DomainError("series needs the smallest lattice base s - l/2 + |n| - |m| "
                          "to have Re > 0")
    value, err = _collapsed_series(form.b, float(period), terms, w, policy)
    return AbsZetaValue(value=value, method="series", error=err)


@lru_cache(maxsize=None)
def _de_nodes(level: int) -> tuple[tuple[float, float, float], ...]:
    """(log t, t, pi/2 cosh x) at the nodes that step 2^-level adds to the
    exp-sinh rule t = exp(pi/2 sinh x): every integer x of the range at
    level 0, the odd multiples of 2^-level after that."""
    lo, hi = _DE_X_RANGE
    if level == 0:
        xs = [float(x) for x in range(lo, hi + 1)]
    else:
        h = 2.0 ** -level
        xs = [lo + (2 * k + 1) * h for k in range((hi - lo) << (level - 1))]
    half_pi = 0.5 * math.pi
    nodes = []
    for x in xs:
        log_t = half_pi * math.sinh(x)
        nodes.append((log_t, math.exp(log_t), half_pi * math.cosh(x)))
    return tuple(nodes)


def quad(log_g, tol: float) -> tuple[complex, float]:
    """Integral of exp(log_g(t, log t)) over t in (0, inf), with an error
    estimate, by the exp-sinh double-exponential rule (Takahasi-Mori 1974).

    t = exp(pi/2 sinh x) and dt = t pi/2 cosh x dx turn the integral into
    one over x in _DE_X_RANGE whose integrand decays double-exponentially
    at both ends, so trapezoid sums with step h = 1, 1/2, ... converge
    fast. Each level adds the midpoints of the last and stops once two
    successive sums agree within tol relative (or within rounding). The
    error is the last difference plus eps * sum |terms|; when every term
    underflows, that is 0 with error 0, for the caller to refuse. Raises
    QuadratureBudgetError when no two levels up to 2^-_DE_MAX_LEVEL agree.
    `_mellin_value` looks this name up at call time, so replacing
    `abszeta.quad` (to count or time the quadratures) reroutes every
    Mellin integral.
    """
    total = 0j
    mag = 0.0
    previous = None
    diff = math.inf
    for level in range(_DE_MAX_LEVEL + 1):
        for log_t, t, weight in _de_nodes(level):
            exponent = log_g(t, log_t) + log_t
            if exponent.real > -745.0:  # exp underflows to 0 below this
                term = cmath.exp(exponent) * weight
                total += term
                mag += abs(term)
        h = 2.0 ** -level
        value = h * total
        rounding = sys.float_info.epsilon * h * mag
        if previous is not None:
            diff = abs(value - previous)
            if diff <= tol * abs(value) + rounding:
                return value, diff + rounding
        previous = value
    raise QuadratureBudgetError(
        f"exp-sinh levels still differ by {diff:.3e} at step 2^-{_DE_MAX_LEVEL}")


def _mellin_value(form: CyclotomicForm, w: complex, s: complex,
                  policy: PrecisionPolicy) -> AbsZetaValue:
    """(1/Gamma(w)) * integral over t > 0 of f(e^t) e^(-st) t^(w-1).

    One exp-sinh quadrature over (0, inf): the integrand is evaluated in
    log space, log f(e^t) - s t + (w - 1) log t, so neither the t^(w-1+a-b)
    endpoint nor a slow e^(-(Re(s) - growth) t) tail overflows, and the
    double-exponential map clusters nodes at both ends. err is the
    quadrature estimate (last level difference plus rounding) times
    |1/Gamma(w)|, plus 10 * target * |value|. Raises QuadratureBudgetError
    when that estimate exceeds 1e-7 |value|, and PrecisionError when the
    value underflows to a subnormal or to 0 (every node term underflowing).
    """
    gap = w.real - (form.b - form.a)
    if gap <= 0:
        raise DomainError(f"Mellin transform needs Re(w) > {form.b - form.a}")
    if w.real <= 0:
        raise DomainError("Mellin normalization 1/Gamma(w) needs Re(w) > 0")
    growth = form.l / 2.0 + form.abs_m - form.abs_n
    if s.real <= growth:
        raise DomainError(f"Mellin tail needs Re(s) > {growth}")

    # f(e^t) = e^(lt/2) prod over exponents e of (e^(et) - 1)^c, with c the
    # numerator minus the denominator multiplicity of e
    net = Counter(form.num_exponents)
    net.subtract(form.den_exponents)
    factors = [(e, c, math.log(e)) for e, c in net.items() if c]
    half_l = 0.5 * form.l
    # For complex s the path turns to arg t = theta, half way to the ray on
    # which e^(-(s - growth) t) stops oscillating. f(e^t) has its poles on
    # the imaginary axis and the integrand decays in the sector swept, so
    # the integral is unchanged; real s keeps the real axis and real logs.
    theta = -0.5 * cmath.phase(s - growth)
    if theta == 0.0:
        lib, turn, tilt = math, 1.0, 0.0
    else:
        lib, turn, tilt = cmath, cmath.exp(1j * theta), 1j * theta
    w1 = w - 1

    def log_g(r: float, log_r: float) -> complex:
        t = r * turn
        log_t = log_r + tilt
        acc = half_l * t
        for e, c, log_e in factors:
            # log(e^x - 1): x itself past x = 50; log(2 e^(x/2) sinh(x/2))
            # keeps the digits of small x; below |x| = 1e-8 it is
            # log(e) + log(t) + x/2, even where t underflows
            x = e * t
            if x.real > 50.0:
                acc += c * x
            elif abs(x) > 1e-8:
                acc += c * (_LOG2 + 0.5 * x + lib.log(lib.sinh(0.5 * x)))
            else:
                acc += c * (log_e + log_t + 0.5 * x)
        return acc - s * t + w1 * log_t + tilt

    where = f"w={w}, s={s}"
    try:
        integral, quad_err = quad(log_g, policy.target)
    except OverflowError as exc:
        raise DomainError(f"Mellin integrand overflows double precision at {where}") from exc
    inv_gamma = cmath.exp(-log_gamma(w, policy))
    value = integral * inv_gamma
    if not cmath.isfinite(value):
        raise DomainError(f"Mellin integrand overflows double precision at {where}")
    if abs(value) < sys.float_info.min:
        raise PrecisionError(f"Mellin value {abs(value):.3e} underflows double precision at {where}")
    quad_err *= abs(inv_gamma)
    if quad_err > 1e-7 * abs(value):
        raise QuadratureBudgetError(
            f"quadrature error estimate {quad_err:.3e} too large for {value:.6e}")
    err = quad_err + 10 * policy.target * abs(value)
    return AbsZetaValue(value=value, method="mellin", error=err)


def absolute_hurwitz_Z(form: CyclotomicForm, w, s, method: str = "structure",
                       policy: PrecisionPolicy = DEFAULT_POLICY) -> AbsZetaValue:
    """Absolute Hurwitz zeta Z_f(w, s) of the form by the chosen method.

    structure: sum of analytically continued equal-period multiple
    Hurwitz zetas over the monomials of the refolded numerator (b <= 3).
    series: the explicit lattice sum with an integral-corrected tail
    (Re(w) > b - a).
    mellin: exp-sinh quadrature of the Mellin integral (Re(w) > b - a).
    """
    w, s = complex(w), complex(s)
    if not (cmath.isfinite(w) and cmath.isfinite(s)):
        raise DomainError(f"Z_f needs a finite w and s, got w={w}, s={s}")
    if method == "structure":
        return _structure_value(form, w, s, policy)
    if method == "series":
        return _series_value(form, w, s, policy)
    if method == "mellin":
        return _mellin_value(form, w, s, policy)
    raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")


def absolute_zeta(form: CyclotomicForm, s,
                  policy: PrecisionPolicy = DEFAULT_POLICY) -> AbsZetaValue:
    """zeta_f(s) = exp(d/dw Z_f(w, s) at w = 0), as one exp of a log-gamma sum.

    log zeta_f is the c_k-weighted sum, over the monomials c_k x^k of the
    refolded numerator, of log Gamma_b(s - l/2 + bN - k; N, ..., N), so
    gammas that overflow double precision still give a finite quotient.
    Each log gamma is good to about target * |log Gamma| absolute, so err
    is 10 * target * sum |c_k| (1 + |log Gamma_k|) * |value|. For a real s
    every Gamma_b argument is real, and so is the value returned.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"absolute zeta needs a finite s, got {s}")
    period, terms = _refolded_terms(form, s)
    try:
        log_value, size = _equal_period_sum(form.b, float(period), terms, 0j, True, policy)
    except NonPositiveShiftError as exc:
        raise DomainError(f"gamma argument on the nonpositive lattice: {exc}") from exc
    value = _real_on_real_axis(_checked_exp(log_value, f"zeta_f at s={s}"), s)
    err = 10 * policy.target * (sum(abs(c) for c, _ in terms) + size) * abs(value)
    return AbsZetaValue(value=value, method="structure", error=err)


def cycle_zeta_form(n: int) -> CyclotomicForm:
    """The Grover zeta of the n-cycle, 1/(x^n - 1)^2, as a cyclotomic form."""
    if n < 3:
        raise InvalidParameterError("cycle graphs need n >= 3")
    return CyclotomicForm(l=0, num_exponents=(), den_exponents=(n, n))


@dataclass(frozen=True)
class FunctionalEquationReport:
    n: int
    s: float
    lhs: complex
    rhs: complex
    residual: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n, "s": self.s,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "status": "ok" if self.ok else "failed",
        }


def _on_lattice(x: float, n: int) -> bool:
    """x within 1e-9 of k n for some integer k >= 0 (never for inf or nan)."""
    r = x % n
    return x > -1e-9 and min(r, n - r) < 1e-9


def verify_functional_equation(n: int, s: float, tol: float = 1e-6,
                               policy: PrecisionPolicy = DEFAULT_POLICY
                               ) -> FunctionalEquationReport:
    """Check zeta_f(-2n - s) = S_2(s + 2n, (n, n)) * zeta_f(s) for the
    n-cycle Grover zeta, reporting the relative residual.

    The gamma arguments live on the shifted lattices, so s on
    {k n : k >= 0} or {-2n - k n : k >= 0} is rejected as singular.
    """
    if n < 3:
        raise InvalidParameterError("functional equation is for cycle graphs, n >= 3")
    if not (math.isfinite(tol) and tol >= 0):
        # inf would pass any residual and a negative tol fail a zero one
        raise InvalidParameterError(f"tol must be finite and >= 0, got {tol}")
    s = float(s)
    if _on_lattice(s, n) or _on_lattice(-2.0 * n - s, n):
        raise SingularPointError(f"s = {s} sits on the singular lattice for n = {n}")

    form = cycle_zeta_form(n)
    lhs = absolute_zeta(form, -2.0 * n - s, policy).value
    sine = multiple_sine(MultiZetaParams(order=2, shift=s + 2.0 * n,
                                         periods=(float(n), float(n))), policy)
    rhs = sine * absolute_zeta(form, s, policy).value
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return FunctionalEquationReport(n=n, s=s, lhs=lhs, rhs=rhs,
                                    residual=residual, ok=residual <= tol)
