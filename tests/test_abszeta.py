import cmath
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from azw import (
    CyclotomicForm,
    ExactPolynomial,
    ExactRationalFunction,
    MultiZetaParams,
    PrecisionPolicy,
    absolute_hurwitz_Z,
    absolute_zeta,
    automorphic_data,
    automorphic_weight,
    cycle_zeta_form,
    direct_series,
    factor_cyclotomic,
    generate,
    grover_zeta,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    multiple_gamma,
    multiple_hurwitz_zeta,
    verify_functional_equation,
)
import azw.abszeta
from azw.multizeta import multiple_hurwitz_zeta_finite_part
from azw.errors import (
    AzwError,
    DomainError,
    IdentityCheckError,
    InvalidParameterError,
    NotCyclotomicError,
    OddPowerError,
    PoleError,
    PrecisionError,
    QuadratureBudgetError,
    SingularPointError,
)
from conftest import two_period_zeta

P = ExactPolynomial.from_coeffs
QUICK = PrecisionPolicy(target=1e-10)


def test_form_validation():
    with pytest.raises(OddPowerError):
        CyclotomicForm(l=1, num_exponents=(), den_exponents=(2,))
    # values the form cannot compute with are refused up front, not left
    # to fail later in as_rational_function or print as JSON booleans
    for bad in (dict(l=2.0), dict(l=True), dict(l=False), dict(l="0"),
                dict(den_exponents=(True, 2)), dict(num_exponents=(2.0,))):
        with pytest.raises(InvalidParameterError):
            CyclotomicForm(**{"l": 0, "num_exponents": (), "den_exponents": (2, 2), **bad})
    with pytest.raises(InvalidParameterError):
        CyclotomicForm(l=0, num_exponents=(0,), den_exponents=(2,))
    form = CyclotomicForm(l=-2, num_exponents=(2,), den_exponents=(3, 3))
    assert (form.a, form.b, form.abs_m, form.abs_n) == (1, 2, 2, 6)
    assert form.weight == -2 + 2 - 6
    assert form.sign == -1


def test_factor_cycle_zeta():
    form = factor_cyclotomic(grover_zeta(generate("cycle", 3)))
    assert form == CyclotomicForm(l=0, num_exponents=(), den_exponents=(3, 3))


def test_factor_telescoping_reduced_input():
    # (u-1)/(u^2-1) reduces to 1/(u+1); the factorization must recover the
    # unreduced family representation
    f = ExactRationalFunction.from_parts(P([-1, 1]), P([-1, 0, 1]))
    form = factor_cyclotomic(f)
    assert form == CyclotomicForm(l=0, num_exponents=(1,), den_exponents=(2,))
    assert form.as_rational_function() == f


def test_factor_prefers_largest_exponent():
    # (u^6 - 1) in the denominator comes back as n=(6,), not split parts
    f = ExactRationalFunction.from_parts(P([1]), P([-1, 0, 0, 0, 0, 0, 1]))
    form = factor_cyclotomic(f)
    assert form.den_exponents == (6,)


def test_factor_monomial_prefactor():
    # u^2 (u^2-1) / (u^3-1) exercises a nonzero even l
    f = ExactRationalFunction.from_parts(
        ExactPolynomial.monomial(2) * P([-1, 0, 1]), P([-1, 0, 0, 1]))
    form = factor_cyclotomic(f)
    assert form.l == 4
    assert form.as_rational_function() == f


# outcome of factoring every corpus Grover zeta, recorded as a fixture:
# cycles factor, everything else stays outside the family (an overall
# sign for the odd-b candidates, genuinely non-cyclotomic spectra for the
# complete graphs and petersen)
CORPUS_FACTOR_OUTCOMES = {
    "K2": "sign",
    "C3": (0, (), (3, 3)),
    "C4": (0, (), (4, 4)),
    "C5": (0, (), (5, 5)),
    "C6": (0, (), (6, 6)),
    "C7": (0, (), (7, 7)),
    "C8": (0, (), (8, 8)),
    "K4": "non-cyclotomic",
    "K5": "non-cyclotomic",
    "K3,3": "sign",
    "S5": "sign",
    "petersen": "non-cyclotomic",
}


def test_corpus_factorization_outcomes(corpus):
    for name, g in corpus.items():
        expected = CORPUS_FACTOR_OUTCOMES[name]
        if isinstance(expected, tuple):
            form = factor_cyclotomic(grover_zeta(g))
            assert (form.l, form.num_exponents, form.den_exponents) == expected, name
        else:
            with pytest.raises(NotCyclotomicError) as err:
                factor_cyclotomic(grover_zeta(g))
            if expected == "sign":
                assert "constant" in str(err.value), name
            else:
                assert "non-cyclotomic factor" in str(err.value), name


def test_sign_refusal_names_the_form(corpus):
    with pytest.raises(NotCyclotomicError, match="constant") as err:
        factor_cyclotomic(grover_zeta(generate("complete_bipartite", 2, 3)))
    assert '{"l": 0, "m": [], "n": [4, 4, 4]}' in str(err.value)
    with pytest.raises(NotCyclotomicError, match="constant") as err:
        factor_cyclotomic(grover_zeta(corpus["K2"]))
    assert "-1 times the form" in str(err.value)


def _random_form(rng: random.Random) -> CyclotomicForm:
    return CyclotomicForm(2 * rng.randint(-3, 3),
                          tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 3))),
                          tuple(rng.randint(1, 12) for _ in range(rng.randint(0, 3))))


def test_factor_round_trip_on_random_forms():
    # the factored form can differ from the one drawn (common exponents
    # cancel, x^n - 1 in both sides refolds), but never the function
    rng = random.Random(17)
    for _ in range(100):
        f = _random_form(rng).as_rational_function()
        form = factor_cyclotomic(f)
        assert form.as_rational_function() == f
        assert factor_cyclotomic(form.as_rational_function()) == form


def _mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def test_cyclotomic_polynomials_factor_by_mobius():
    # Phi_d by division, x^d - 1 over Phi_e for the proper divisors e: an
    # oracle that shares nothing with the log-derivative scan
    phi = {}
    for d in range(1, 61):
        poly = P([-1] + [0] * (d - 1) + [1])
        for e in range(1, d):
            if d % e == 0:
                poly, rem = poly.divmod(phi[e])
                assert rem.is_zero
        phi[d] = poly
        up = tuple(n for n in range(d, 0, -1) if d % n == 0 and _mobius(d // n) == 1)
        down = tuple(n for n in range(d, 0, -1) if d % n == 0 and _mobius(d // n) == -1)
        f = ExactRationalFunction.from_polynomial(poly)
        assert factor_cyclotomic(f) == CyclotomicForm(0, up, down), d
        inverse = ExactRationalFunction.from_parts(P([1]), poly)
        assert factor_cyclotomic(inverse) == CyclotomicForm(0, down, up), d


@pytest.mark.parametrize("form", [cycle_zeta_form(5), CyclotomicForm(2, (3,), (2, 6)),
                                  CyclotomicForm(-4, (1, 1), ())])
@pytest.mark.parametrize("c", [-1, 2])
def test_scaled_forms_refuse_with_their_constant(form, c):
    with pytest.raises(NotCyclotomicError, match="constant"):
        factor_cyclotomic(form.as_rational_function().scale(c))


@pytest.mark.parametrize("n", [48, 60])
def test_large_cycles_factor(n):
    form = factor_cyclotomic(grover_zeta(generate("cycle", n)))
    assert form == CyclotomicForm(0, (), (n, n))


def test_perturbed_form_refuses_within_the_exponent_bound():
    # without the |e(N)| <= deg num + deg den bound, the exponents read off
    # this input grow and carry the scan's reach past the refold budget
    f = CyclotomicForm(-4, (9, 4), (8, 2, 7)).as_rational_function()
    f = ExactRationalFunction.from_parts(f.num + ExactPolynomial.monomial(2), f.den)
    with pytest.raises(NotCyclotomicError, match="non-cyclotomic factor"):
        factor_cyclotomic(f)


@pytest.mark.parametrize("period", [60_000, 40_000])
def test_factor_refuses_a_scan_over_the_refold_budget(period):
    # (x^N - 1)^2 has degree 2N: N = 60000 passes the budget at once,
    # N = 40000 when e(N) = -2 doubles the reach at x^40000
    den = P([1] + [0] * (period - 1) + [-2] + [0] * (period - 1) + [1])
    with pytest.raises(NotCyclotomicError, match="refold budget of 100000"):
        factor_cyclotomic(ExactRationalFunction.from_parts(P([1]), den))


def test_automorphic_data_cycle_forms():
    for n in range(3, 7):
        assert automorphic_data(cycle_zeta_form(n)) == (1, -2 * n)
    alt = CyclotomicForm(l=0, num_exponents=(5,), den_exponents=(5, 5, 5))
    assert automorphic_data(alt) == (1, -10)


def test_automorphic_data_is_exact_for_huge_exponents():
    # the float samples it replaced raised OverflowError from 7.5 ** 400
    assert automorphic_data(CyclotomicForm(0, (), (400,))) == (-1, -400)
    assert automorphic_data(CyclotomicForm(-6, (5, 1), (400, 3))) == (1, -6 + 6 - 403)


def test_automorphic_data_refuses_a_wrong_weight(monkeypatch):
    monkeypatch.setattr(CyclotomicForm, "weight", property(lambda self: -7))
    with pytest.raises(IdentityCheckError):
        automorphic_data(cycle_zeta_form(3))


def test_automorphic_data_matches_certificate():
    g = generate("cycle", 4)
    form = factor_cyclotomic(grover_zeta(g))
    cert = automorphic_weight(g)
    assert automorphic_data(form) == (cert.sign, cert.weight) == (1, -8)


def test_structure_method_is_the_order2_zeta():
    n, w, s = 3, 2.7, 0.9
    got = absolute_hurwitz_Z(cycle_zeta_form(n), w, s, "structure", QUICK)
    want = multiple_hurwitz_zeta(
        MultiZetaParams(2, s + 2.0 * n, (float(n), float(n))), w, QUICK)
    assert got.value == want
    assert got.method == "structure"
    assert got.error < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("w, s", [(3, 0.5), (4, 1.5)])
def test_representation_invariance_Z(n, w, s):
    plain = CyclotomicForm(l=0, num_exponents=(), den_exponents=(n, n))
    alt = CyclotomicForm(l=0, num_exponents=(n,), den_exponents=(n, n, n))
    a = absolute_hurwitz_Z(plain, w, s, "structure", QUICK).value
    b = absolute_hurwitz_Z(alt, w, s, "structure", QUICK).value
    assert abs(a - b) <= 1e-8 * abs(a)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_representation_invariance_zeta(n, s):
    plain = CyclotomicForm(l=0, num_exponents=(), den_exponents=(n, n))
    alt = CyclotomicForm(l=0, num_exponents=(n,), den_exponents=(n, n, n))
    za = absolute_zeta(plain, s, QUICK).value
    zb = absolute_zeta(alt, s, QUICK).value
    assert abs(za - zb) <= 1e-8 * abs(za)


def test_tri_method_smoke():
    form = cycle_zeta_form(3)
    vals = {m: absolute_hurwitz_Z(form, 3.0, 1.0, m, QUICK) for m in
            ("structure", "series", "mellin")}
    ref = vals["structure"].value
    for m, v in vals.items():
        assert abs(v.value - ref) <= 1e-9 * abs(ref), m
        assert v.method == m
        assert 0 <= v.error < float("inf")


def test_tri_method_at_cancelled_pole():
    # w = 3 is a pole of each order-3 monomial term but not of their
    # weighted sum; all three methods must agree there
    form = CyclotomicForm(l=0, num_exponents=(2,), den_exponents=(2, 2, 2))
    st = absolute_hurwitz_Z(form, 3, 0.5, "structure", QUICK).value
    se = absolute_hurwitz_Z(form, 3, 0.5, "series", QUICK).value
    me = absolute_hurwitz_Z(form, 3, 0.5, "mellin", QUICK).value
    assert abs(st - se) <= 1e-9 * abs(st)
    assert abs(st - me) <= 1e-8 * abs(st)


def test_genuine_pole_is_rejected():
    with pytest.raises(PoleError):
        absolute_hurwitz_Z(cycle_zeta_form(3), 2, 1.0, "structure", QUICK)


def test_method_domain_errors():
    form = cycle_zeta_form(3)
    with pytest.raises(DomainError):
        absolute_hurwitz_Z(form, 1.5, 1.0, "series", QUICK)
    with pytest.raises(DomainError):
        absolute_hurwitz_Z(form, 1.5, 1.0, "mellin", QUICK)
    with pytest.raises(DomainError):
        # Mellin tail diverges once Re(s) <= -2n
        absolute_hurwitz_Z(form, 3.0, -6.5, "mellin", QUICK)
    # unequal exponents refold to one period and get a value, which Mellin
    # confirms
    uneq = CyclotomicForm(l=0, num_exponents=(), den_exponents=(2, 3))
    st = absolute_hurwitz_Z(uneq, 3.0, 1.0, "structure", QUICK)
    me = absolute_hurwitz_Z(uneq, 3.0, 1.0, "mellin", QUICK)
    assert abs(st.value - me.value) <= st.error + me.error
    with pytest.raises(InvalidParameterError):
        absolute_hurwitz_Z(form, 3.0, 1.0, "quadrature", QUICK)


def test_mellin_slow_decay_tail():
    # Re(s) just above the growth exponent stretches the integrand far out
    # on the t axis; the log-space integrand must not overflow
    form = cycle_zeta_form(3)
    st = absolute_hurwitz_Z(form, 3.0, -5.9, "structure", QUICK).value
    me = absolute_hurwitz_Z(form, 3.0, -5.9, "mellin", QUICK).value
    assert abs(st - me) <= 1e-6 * abs(st)


# (l, m, n) of the forms the bench's Mellin oracle covers; all have b - a = 2
MELLIN_FORMS = ((0, (), (2, 2)), (0, (), (3, 3)), (0, (3,), (3, 3, 3)), (0, (), (2, 3)))


def _mellin_points(rng: random.Random, per_form: int) -> list:
    """Seeded (form, w, s) draws that stress the exp-sinh rule: cycling
    through plain points, gaps w - (b - a) down to 0.05 (the t = 0
    endpoint singularity), Re(s) within 0.1-0.2 of the growth exponent (a
    slow tail), complex w and s, s up to 1e5, and all of those at once."""
    points = []
    for l, m, n in MELLIN_FORMS:
        growth = l / 2 + sum(m) - sum(n)
        for i in range(per_form):
            kind = i % 6
            gap, delta, w_im, s_im = rng.uniform(0.05, 4.0), rng.uniform(0.1, 6.0), 0.0, 0.0
            if kind in (1, 5):
                gap = rng.uniform(0.05, 0.3)
            if kind in (2, 5):
                delta = rng.uniform(0.1, 0.2)
            if kind == 3:
                w_im, s_im = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
            if kind == 4:
                delta = 10.0 ** rng.uniform(1.0, 5.0)
            if kind == 5:
                w_im, s_im = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
            points.append(((l, m, n), complex(len(n) - len(m) + gap, w_im),
                           complex(growth + delta, s_im)))
    return points


def test_mellin_against_mpmath():
    # every Mellin value lies within its err of an mpmath reference that
    # shares no azw code, or the call raises an AzwError
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import references

    points = _mellin_points(random.Random(20240601), 60)
    refused = []
    for (l, m, n), w, s in points:
        want = complex(references.absolute_Z(l, m, n, w, s))
        try:
            got = absolute_hurwitz_Z(CyclotomicForm(l, m, n), w, s, "mellin")
        except AzwError:
            refused.append((n, w, s))
            continue
        assert abs(got.value - want) <= got.error, (l, m, n, w, s, got, want)
    # the rule answers all but a few of the hardest (small gap, complex w)
    assert len(refused) <= len(points) // 20, refused


def test_mellin_refuses_when_levels_never_agree(monkeypatch):
    # one halving is too few for the 1e-13 target: a refusal, never an ok value
    monkeypatch.setattr(azw.abszeta, "_DE_MAX_LEVEL", 1)
    with pytest.raises(QuadratureBudgetError):
        absolute_hurwitz_Z(cycle_zeta_form(3), 3.0, 1.0, "mellin")


def test_mellin_refuses_underflow():
    # at s = 1e300 the true Z is about 1/(8 s) = 1.25e-301, but every node
    # term underflows; the rule used to return 0 with err 0
    with pytest.raises(PrecisionError):
        absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), 3, 1e300, "mellin")


@pytest.mark.parametrize("method", ["structure", "series"])
def test_structure_and_series_refuse_underflow(method):
    # the same point as the Mellin refusal: both used to return 2.5e-301,
    # twice the true 1.25e-301, with an err of 1e-42
    with pytest.raises(PrecisionError, match="underflows double precision"):
        absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), 3, 1e300, method)


def test_mellin_refuses_a_subnormal_value(monkeypatch):
    monkeypatch.setattr(azw.abszeta, "quad", lambda log_g, tol: (1e-310 + 0j, 0.0))
    with pytest.raises(PrecisionError, match="underflows double precision at w="):
        absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), 3, 1.0, "mellin")


def test_series_unequal_periods_route():
    uneq = CyclotomicForm(l=0, num_exponents=(), den_exponents=(1, 2))
    got = absolute_hurwitz_Z(uneq, 6.0, 1.0, "series", PrecisionPolicy(target=1e-9))
    want = multiple_hurwitz_zeta(MultiZetaParams(2, 4.0, (1.0, 2.0)), 6.0,
                                 PrecisionPolicy(target=1e-9))
    assert abs(got.value - want) <= 1e-8 * abs(want)


def test_refolded_monomials_reproduce_the_form():
    # sum_k c_k x^(l/2 + k) / (x^N - 1)^b is f exactly, at rational points
    rng = random.Random(11)
    for _ in range(40):
        form = CyclotomicForm(l=2 * rng.randint(-3, 3),
                              num_exponents=tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3))),
                              den_exponents=tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3))))
        period, monomials = azw.abszeta._refold(form)
        assert all(period % n == 0 for n in form.den_exponents)
        assert all(isinstance(c, int) and c != 0 for _, c in monomials)
        f = form.as_rational_function()
        for x in (Fraction(2), Fraction(-5, 3), Fraction(7, 11)):
            got = (sum(c * x ** k for k, c in monomials) * x ** (form.l // 2)
                   / (x ** period - 1) ** form.b)
            assert got == f.eval_exact(x), (form, x)


def test_refold_merges_duplicate_exponents():
    # (x^2 - 1)^2 = x^4 - 2 x^2 + 1: three monomials, not four subsets
    form = CyclotomicForm(0, (2, 2), (2, 2, 2))
    assert azw.abszeta._refold(form) == (2, [(0, 1), (2, -2), (4, 1)])
    # 1/((x^2 - 1)(x^3 - 1)) = (1 + x^2 + x^4)(1 + x^3) / (x^6 - 1)^2
    assert azw.abszeta._refold(CyclotomicForm(0, (), (2, 3))) == (
        6, [(k, 1) for k in (0, 2, 3, 4, 5, 7)])


def test_refold_budget_refuses_a_huge_common_period():
    # lcm(997, 991) = 988027 would mean a million monomial terms
    form = CyclotomicForm(0, (), (997, 991))
    for method in ("structure", "series"):
        with pytest.raises(PrecisionError, match="over the budget"):
            absolute_hurwitz_Z(form, 3.5, 1.0, method)
    with pytest.raises(PrecisionError, match="over the budget"):
        absolute_zeta(form, 1.0)


def test_lattice_methods_need_a_denominator():
    form = CyclotomicForm(0, (1,), ())
    for method in ("structure", "series"):
        with pytest.raises(DomainError, match="denominator exponent"):
            absolute_hurwitz_Z(form, 3.0, 1.0, method, QUICK)
    with pytest.raises(DomainError, match="denominator exponent"):
        absolute_zeta(form, 1.0, QUICK)


def _subset_reference(mp, l: int, num: tuple, den: tuple, w, s, derivative: int = 0):
    """Z_f (or its w-derivative) from prod(x^m - 1) = sum over subsets I of
    (-1)^(a - |I|) x^(m(I)): the signed sum of two-period lattice zetas at
    s - l/2 + |n| - m(I)."""
    total = 0
    for mask in range(1 << len(num)):
        picked = [e for i, e in enumerate(num) if mask >> i & 1]
        sign = -1 if (len(num) - len(picked)) % 2 else 1
        shift = mp.mpf(s) - mp.mpf(l) / 2 + sum(den) - sum(picked)
        total += sign * two_period_zeta(mp, shift, den[0], den[1], mp.mpf(w), derivative)
    return total


# (m, n, [(w, s)]) with two coprime denominator exponents; every point has
# Re(w) > b - a, so all three methods apply
UNEQUAL_FORMS = (
    ((), (2, 3), [(7.0, 1.3), (3.5, 0.6)]),
    ((), (1, 2), [(3.5, 0.7), (2.5, 2.0)]),
    ((2,), (2, 3), [(2.5, 1.1), (4.0, 0.5)]),
    ((3,), (2, 3), [(3.0, 4.7), (2.2, 2.2)]),
)


@pytest.mark.parametrize("m, n, points", UNEQUAL_FORMS)
@pytest.mark.parametrize("l", [0, 2])
def test_unequal_exponents_against_mpmath(l, m, n, points):
    # the refolded structure and series, and Mellin, each lie within their
    # err of a lattice reference that shares no azw code
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        for w, s in points:
            want = complex(_subset_reference(mp, l, m, n, w, s))
            for method in ("structure", "series", "mellin"):
                got = absolute_hurwitz_Z(CyclotomicForm(l, m, n), w, s, method)
                assert abs(got.value - want) <= got.error, (l, m, n, w, s, method, got, want)


def test_absolute_zeta_of_unequal_exponents_against_mpmath():
    # zeta_f(s) = exp(d/dw Z_f(w, s) at w = 0) for f = 1/((x^2 - 1)(x^3 - 1))
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        for s in (1.0, 0.3, 2.7, -0.5):
            want = complex(mp.exp(_subset_reference(mp, 0, (), (2, 3), 0, s, derivative=1)))
            got = absolute_zeta(CyclotomicForm(0, (), (2, 3)), s)
            assert abs(got.value - want) <= got.error, (s, got, want)


def test_unequal_exponents_cancelled_pole_finite_part():
    # w = 2 is a pole of each monomial term of (x^2 - 1)/((x^2 - 1)(x^3 - 1))
    # refolded to period 6, not of Z_f; structure takes finite parts there
    form = CyclotomicForm(0, (2,), (2, 3))
    st = absolute_hurwitz_Z(form, 2, 1.3, "structure")
    for method in ("series", "mellin"):
        other = absolute_hurwitz_Z(form, 2, 1.3, method)
        assert abs(st.value - other.value) <= st.error + other.error, method
    # the form is 1/(x^3 - 1), so Z_f is zeta_1(2, s + 3; 3)
    want = multiple_hurwitz_zeta(MultiZetaParams(1, 4.3, (3.0,)), 2)
    assert abs(st.value - want) <= st.error


def test_three_methods_agree_on_random_forms():
    # b <= 3, any exponents, Re(w) > b - a: every two methods that answer
    # agree within the sum of their errs; only the series may refuse, when
    # its budget runs out near the edge of convergence
    rng = random.Random(7)
    answered = 0
    for _ in range(40):
        b, a = rng.randint(1, 3), rng.randint(0, 3)
        form = CyclotomicForm(2 * rng.randint(-2, 2),
                              tuple(rng.randint(1, 4) for _ in range(a)),
                              tuple(rng.randint(1, 4) for _ in range(b)))
        w = complex(max(b - a, 0) + rng.uniform(0.3, 5.0), rng.choice((0.0, rng.uniform(-2, 2))))
        s = complex(form.l / 2 + form.abs_m - form.abs_n + rng.uniform(0.2, 4.0),
                    rng.choice((0.0, rng.uniform(-3, 3))))
        vals = [absolute_hurwitz_Z(form, w, s, "structure"),
                absolute_hurwitz_Z(form, w, s, "mellin")]
        try:
            vals.append(absolute_hurwitz_Z(form, w, s, "series"))
            answered += 1
        except PrecisionError:
            pass
        for i, x in enumerate(vals):
            for y in vals[i + 1:]:
                assert abs(x.value - y.value) <= x.error + y.error, (form, w, s, x, y)
    assert answered >= 30


@pytest.mark.parametrize("form, w, s", [
    (CyclotomicForm(-2, (5, 2, 4), (2, 2)), 0.5487, 9.755),
    (CyclotomicForm(2, (3, 5, 4), (4, 1, 3)), 0.4449, 7.948),
    (CyclotomicForm(0, (3,), (2, 3)), 1.5, 2.2),
])
def test_series_err_counts_cancellation_near_the_edge(form, w, s):
    # the lattice terms cancel by many digits here, so the series err
    # counts their rounding; without it, values off by 4e-10 (equal
    # periods) and 2.5e-3 (unequal, refolded) relative came with errs
    # near 1e-13
    want = absolute_hurwitz_Z(form, w, s, "mellin")
    got = absolute_hurwitz_Z(form, w, s, "series")
    assert abs(got.value - want.value) <= got.error + want.error


def test_absolute_zeta_is_gamma2():
    n, s = 3, 0.5
    got = absolute_zeta(cycle_zeta_form(n), s, QUICK)
    want = multiple_gamma(MultiZetaParams(2, s + 2.0 * n, (float(n), float(n))), QUICK)
    assert got.value == want


def test_absolute_zeta_is_real_for_real_s():
    # zeta_f(s) is a product of Gamma_b at real arguments. The log of a
    # negative Gamma_b has imaginary part pi, which exp turns into a sign
    # and a rounding-size imaginary part; that part must not reach the caller
    cases = [(CyclotomicForm(0, (), (2, 2)), -7.2), (CyclotomicForm(2, (1,), (2, 3)), -3.3),
             (cycle_zeta_form(3), 0.7), (CyclotomicForm(0, (2, 2), (2, 2, 2)), 23.0)]
    for form, s in cases:
        assert absolute_zeta(form, s).value.imag == 0.0, (form, s)
    # the real part keeps its sign (negative here)
    assert absolute_zeta(CyclotomicForm(0, (), (2, 2)), -7.2).value.real < 0.0
    # a complex s keeps its imaginary part
    assert absolute_zeta(CyclotomicForm(0, (), (2, 2)), -7.2 + 1j).value.imag != 0.0
    # the residual at (3, 0.7) was the imaginary part of the lhs alone
    rep = verify_functional_equation(3, 0.7)
    assert rep.lhs.imag == 0.0 and rep.residual <= 1e-15


def test_absolute_zeta_divides_huge_gammas_one_at_a_time():
    # (x^2 - 1)^2 / (x^2 - 1)^3 refolds to x^4 - 2 x^2 + 1 over (x^2 - 1)^3;
    # Gamma_3 at the shift of the -2 monomial is about e^400, so its square
    # overflows, yet zeta_f(23) = Gamma_1(25; 2) = Gamma(12.5) 2^12 / sqrt(2 pi);
    # the log-gamma sum never forms the square
    got = absolute_zeta(CyclotomicForm(0, (2, 2), (2, 2, 2)), 23.0).value
    want = math.gamma(12.5) * 2.0 ** 12 / math.sqrt(2 * math.pi)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("s", [23.0, 40.0])
def test_absolute_zeta_of_overflowing_gammas_is_within_err(s):
    # zeta_f of (x^2 - 1)^2 / (x^2 - 1)^3 is Gamma_1(s + 2; 2) =
    # Gamma((s + 2)/2) 2^((s + 1)/2) / sqrt(2 pi). At s = 40 a single
    # Gamma_3 factor overflows double precision; at s = 23 the log gammas
    # are about 400, so err must carry target * |log Gamma|
    got = absolute_zeta(CyclotomicForm(0, (2, 2), (2, 2, 2)), s)
    want = math.gamma((s + 2) / 2) * 2.0 ** ((s + 1) / 2) / math.sqrt(2 * math.pi)
    assert abs(got.value - want) <= got.error
    assert got.error <= 1e-7 * want


def test_absolute_zeta_refuses_an_underflowed_value():
    # Gamma_2(-94.5; 3, 3) is about e^-1649, below every double; zeta_f of
    # the 3-cycle at s = -100.5 used to come back as 0 with err 0
    with pytest.raises(PrecisionError, match="underflows double precision"):
        absolute_zeta(cycle_zeta_form(3), -100.5)


@pytest.mark.parametrize("form, w", [
    (CyclotomicForm(0, (2,), (2, 2, 2)), 3),
    (CyclotomicForm(0, (2,), (2, 3)), 2),
    (CyclotomicForm(2, (1, 3), (2, 2, 3)), 2),
])
def test_structure_at_a_cancelled_pole_needs_no_log_correction(form, w):
    # each term's finite part carries -N^(-w) c_(w-1)(y) log N; the residues
    # c_(w-1)(y) cancel over the refolded monomials, and so do these terms
    s = 1.3
    got = absolute_hurwitz_Z(form, w, s, "structure")
    period, terms = azw.abszeta._refolded_terms(form, complex(s))
    want = sum(c * multiple_hurwitz_zeta_finite_part(
        MultiZetaParams(form.b, shift, (float(period),) * form.b), w) for c, shift in terms)
    assert abs(got.value - want) <= got.error


def test_structure_keeps_the_order_cap():
    with pytest.raises(InvalidParameterError, match="order must be 1, 2 or 3"):
        absolute_hurwitz_Z(CyclotomicForm(0, (), (1, 1, 1, 1)), 6.0, 1.0, "structure")
    with pytest.raises(InvalidParameterError, match="order must be 1, 2 or 3"):
        absolute_zeta(CyclotomicForm(0, (), (1, 1, 1, 1)), 1.0)


def test_absolute_zeta_degenerate_periods():
    # form 1/(x-1)^2 at s = -1 collapses to exp(zeta'(-1))
    form = CyclotomicForm(l=0, num_exponents=(), den_exponents=(1, 1))
    got = absolute_zeta(form, -1.0, QUICK)
    assert abs(got.value - cmath.exp(hurwitz_zeta_ds(-1, 1))) < 1e-10


def test_absolute_zeta_domain_errors():
    form = cycle_zeta_form(3)
    with pytest.raises(DomainError):
        absolute_zeta(form, -6.0, QUICK)  # gamma argument hits 0
    # unequal exponents refold to one period and get a value: the
    # lattice of (2, 3) minus its translate by 2 is the lattice of (3,), so
    # zeta_f(s) / zeta_f(s + 2) = Gamma_1(s + 5; 3) = Gamma((s+5)/3)
    # 3^((s+5)/3 - 1/2) / sqrt(2 pi)
    uneq = CyclotomicForm(l=0, num_exponents=(), den_exponents=(2, 3))
    for s in (1.0, 0.4):
        z0 = absolute_zeta(uneq, s, QUICK)
        z2 = absolute_zeta(uneq, s + 2.0, QUICK)
        x = (s + 5.0) / 3.0
        want = math.gamma(x) * 3.0 ** (x - 0.5) / math.sqrt(2 * math.pi)
        assert abs(z0.value / z2.value - want) <= (z0.error / abs(z0.value)
                                                   + z2.error / abs(z2.value)) * want


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("s", [0.3, 0.7, 1.1])
def test_functional_equation_grid(n, s):
    rep = verify_functional_equation(n, s)
    assert rep.ok
    assert rep.residual <= 1e-6


def test_functional_equation_singular_points():
    with pytest.raises(SingularPointError):
        verify_functional_equation(3, 0.0)
    with pytest.raises(SingularPointError):
        verify_functional_equation(3, 3.0)
    with pytest.raises(SingularPointError):
        verify_functional_equation(4, -8.0)
    # far up both lattices: k = 65 on {k n} and on {-2n - k n}
    with pytest.raises(SingularPointError):
        verify_functional_equation(3, 195.0)
    with pytest.raises(SingularPointError):
        verify_functional_equation(3, -201.0)
    with pytest.raises(InvalidParameterError):
        verify_functional_equation(2, 0.5)


@pytest.mark.parametrize("call", [
    lambda: hurwitz_zeta(1e5, 0.5),
    lambda: absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), -1e300, 1),
    lambda: absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), 1e300, 1, "mellin"),
    lambda: absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), 1e300, -3.5, "series"),
    lambda: absolute_zeta(CyclotomicForm(0, (), (3, 3, 3)), 1e300),
    lambda: direct_series(MultiZetaParams(2, 0.5, (1.0, 2.0)), 1e5),
    lambda: direct_series(MultiZetaParams(2, 0.5, (1.0, 2.5)), 1e5),
], ids=["hurwitz", "Z-structure", "Z-mellin", "Z-series", "zeta", "rectangle",
        "rectangle-non-integer"])
def test_overflowing_powers_are_domain_errors(call):
    # finite inputs whose powers overflow a double are refused with the
    # arguments named, not leaked as a bare OverflowError
    with pytest.raises(DomainError, match=r"overflows? double precision at (s|w)="):
        call()


def test_exact_resubstitution_of_factored_forms(corpus):
    for name in ("C3", "C5", "C8"):
        z = grover_zeta(corpus[name])
        form = factor_cyclotomic(z)
        for x in (Fraction(2), Fraction(7, 3)):
            assert form.as_rational_function().eval_exact(x) == z.eval_exact(x)
