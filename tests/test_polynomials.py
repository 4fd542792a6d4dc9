import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azw import (
    ExactMatrix,
    ExactPolynomial,
    ExactRationalFunction,
    edge_matrix,
    generate,
    grover_matrix,
    ihara_zeta,
    poly_gcd,
    poly_matrix_det,
    rational_function_eval,
    reversed_charpoly,
    transition_matrix,
    verify_konno_sato,
)
import azw.polynomials as polynomials
from azw.errors import InvalidParameterError, NonSquareError, PoleError, PrecisionError
from conftest import (
    bareiss_det,
    connected_graphs,
    frac_add,
    frac_divmod,
    frac_gcd,
    frac_mul,
    frac_reduce,
    frac_trim,
    recording,
    word_prime_count,
)
from test_matrices import CORPUS_DET_U

F = Fraction
P = ExactPolynomial.from_coeffs
M = ExactMatrix.from_rows


def test_polynomial_normalization():
    assert P([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert P([0]).is_zero
    assert P([]).degree == -1
    assert P([0, 0, 3]).degree == 2


def test_polynomial_arithmetic():
    a = P([1, 1])          # 1 + u
    b = P([-1, 1])         # -1 + u
    assert a * b == P([-1, 0, 1])
    assert a + b == P([0, 2])
    assert (a - a).is_zero
    assert a ** 3 == P([1, 3, 3, 1])
    q, r = P([-1, 0, 0, 1]).divmod(P([-1, 1]))
    assert q == P([1, 1, 1]) and r.is_zero


def test_poly_gcd_is_monic():
    g = poly_gcd(P([-1, 0, 1]), P([-1, 1]))
    assert g == P([-1, 1])
    assert poly_gcd(P([2, 2]), P([4])) == P([1])


def test_reversed_charpoly_swap():
    assert reversed_charpoly(ExactMatrix.from_rows([[0, 1], [1, 0]])) == P([1, 0, -1])


def test_reversed_charpoly_identity():
    assert reversed_charpoly(ExactMatrix.identity(3)) == P([1, -1]) ** 3


def test_reversed_charpoly_grover_c3():
    # (1 - u^3)^2
    got = reversed_charpoly(grover_matrix(generate("cycle", 3)))
    assert got == P([1, 0, 0, -1]) ** 2


def test_reversed_charpoly_constant_term_one():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = ExactMatrix.from_rows(
            [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)])
        assert reversed_charpoly(m).coeff(0) == 1


def test_orthogonal_coefficient_symmetry(corpus):
    # for orthogonal U, det(I - uU) has c_(N-k) = det(U) c_k
    for name, g in corpus.items():
        p = reversed_charpoly(grover_matrix(g))
        assert p.reversed() == p.scale(CORPUS_DET_U[name]), name


def test_charpoly_leading_coeff_equals_det(corpus):
    # the same det by two exact routes: Bareiss and the Hessenberg charpoly
    for name, g in corpus.items():
        u = grover_matrix(g)
        assert reversed_charpoly(u).leading() == bareiss_det(u), name


def test_poly_matrix_det_2x2_expansion():
    # det([[1+u^2, -u], [-u, 1+u^2]])
    got = poly_matrix_det(M([[0, -1], [-1, 0]]), ExactMatrix.identity(2))
    one_u2 = P([1, 0, 1])
    assert got == one_u2 * one_u2 - P([0, 1]) * P([0, 1])


def test_poly_matrix_det_k2_transition():
    # det((1+u^2) I - 2u P_K2) = (1+u^2)^2 - 4u^2 = (1-u^2)^2
    got = poly_matrix_det(M([[0, -2], [-2, 0]]), ExactMatrix.identity(2))
    assert got == P([1, 0, -1]) ** 2


def test_poly_matrix_det_c4_transition():
    # eigenvalues of P_C4 are 1, 0, 0, -1 so the determinant factors as
    # (1-u)^2 (1+u)^2 (1+u^2)^2
    p = transition_matrix(generate("cycle", 4))
    got = poly_matrix_det(p.scale(-2), ExactMatrix.identity(4))
    assert got == P([1, 0, -1]) ** 2 * P([1, 0, 1]) ** 2


def _bareiss_one_minus(m: ExactMatrix, u: Fraction) -> Fraction:
    return bareiss_det(ExactMatrix.identity(m.rows) - m.scale(u))


def _agrees_with_bareiss(poly: ExactPolynomial, m: ExactMatrix) -> bool:
    # 2n + 1 distinct points pin down any polynomial of degree <= 2n, which
    # covers both an n x n charpoly and the 2n x 2n companion behind
    # poly_matrix_det
    points = [F(k, 3) for k in range(-m.rows, m.rows + 1)]
    return all(poly(u) == _bareiss_one_minus(m, u) for u in points)


def test_poly_matrix_det_matches_bareiss_at_rational_points():
    rng = random.Random(20240915)
    for _ in range(20):
        n = rng.randint(1, 8)
        m = M([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
        assert _agrees_with_bareiss(poly_matrix_det(m.scale(-1), ExactMatrix.zeros(n, n)), m)


def test_poly_matrix_det_matches_bareiss_on_walk_operator():
    # the same check on a live 10x10 walk operator
    u = grover_matrix(generate("cycle", 5))
    assert _agrees_with_bareiss(poly_matrix_det(u.scale(-1), ExactMatrix.zeros(10, 10)), u)


def test_poly_matrix_det_requires_square():
    # blocks that are non-square or of mismatched size
    with pytest.raises(NonSquareError):
        poly_matrix_det(M([[1], [1]]), M([[1], [1]]))
    with pytest.raises(NonSquareError):
        poly_matrix_det(ExactMatrix.identity(2), ExactMatrix.identity(3))
    with pytest.raises(NonSquareError):
        poly_matrix_det(ExactMatrix.identity(2), M([[1, 0, 0], [0, 1, 0]]))


def _structured_matrices():
    """Sparse rational matrices whose zeros make the Hessenberg reduction
    both skip columns (nothing to eliminate) and swap in a pivot."""
    rng = random.Random(31)
    out = [
        M([[0, 1, 2], [0, 3, 4], [0, 5, 6]]),               # zero first column: skip
        M([[1, 2, 3], [0, 4, 5], [6, 7, 8]]),               # zero subdiagonal: swap
        M([[1, 2, 0, 0], [3, 4, 0, 0], [5, 6, 7, 8], [9, 1, 2, 3]]),  # block triangular
        ExactMatrix.zeros(3, 3),
    ]
    for _ in range(12):
        n = rng.randint(2, 9)
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
              for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            for row in m:
                row[0] = F(0)
        k = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            for i in range(k, n):
                for j in range(k):
                    m[i][j] = F(0)
        out.append(M(m))
    return out


def test_reversed_charpoly_matches_bareiss_on_structured_matrices():
    for m in _structured_matrices():
        assert _agrees_with_bareiss(reversed_charpoly(m), m), m


def test_charpoly_lifts_huge_coefficients_over_several_primes(monkeypatch):
    # numerators up to 1e30 over pairwise coprime denominators make the
    # Hadamard bound, and so the number of primes, large
    used = []
    monkeypatch.setattr(polynomials, "_charpoly_mod", recording(polynomials._charpoly_mod, used))
    rng = random.Random(20261018)
    coprime = (7, 11, 13, 17, 19, 23, 29, 31, 37)
    for _ in range(6):
        n = rng.randint(2, 4)
        m = M([[F(rng.randint(-10 ** 30, 10 ** 30), rng.choice(coprime)) for _ in range(n)]
               for _ in range(n)])
        used.clear()
        assert _agrees_with_bareiss(reversed_charpoly(m), m), m
        # one reduction carries every prime: its modulus is the product
        # of at least three word primes, above twice the Hadamard bound
        bound = 1
        for row in m.integer_rows():
            bound *= isqrt(sum(x * x for x in row)) + 2
        (q,) = used
        assert word_prime_count(q) >= 3 and q > 2 * bound, used


def test_charpoly_of_entries_past_the_word_size():
    m = M([[2 ** 62, 1, -(2 ** 70)], [F(2 ** 64 + 1, 3), 0, 5], [-1, 2 ** 63 - 1, F(1, 2 ** 62)]])
    assert _agrees_with_bareiss(reversed_charpoly(m), m)


def test_charpoly_of_multiples_of_the_first_prime(monkeypatch):
    # the matrix is zero modulo the first prime, so modulo the product q
    # of the primes its pivots are zero divisors: q is skipped, and the
    # kernel runs again on a modulus of the next primes, coprime to q
    p = polynomials._prime(0)
    rng = random.Random(5)
    m = M([[p * rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    used = []
    monkeypatch.setattr(polynomials, "_charpoly_mod", recording(polynomials._charpoly_mod, used))
    assert _agrees_with_bareiss(reversed_charpoly(m), m)
    assert word_prime_count(used[0]) >= 2 and used[0] % p == 0, used
    assert gcd(used[0], used[1]) == 1, used


def test_a_zero_divisor_pivot_raises_value_error(monkeypatch):
    # modulo 15 the first nonzero entry under the subdiagonal is 3, a
    # zero divisor: its inverse raises, as pow does
    with pytest.raises(ValueError):
        polynomials._charpoly_mod([[1, 2, 0], [3, 1, 4], [5, 0, 2]], 15)
    # the first pivot, and only that one, is a multiple of the first
    # prime; the bound needs two primes, so the first modulus is skipped
    p = polynomials._prime(0)
    m = M([[1, 2, 3], [p, 1, 4], [5, 6, 7]])
    used = []
    monkeypatch.setattr(polynomials, "_charpoly_mod", recording(polynomials._charpoly_mod, used))
    char = polynomials.reversed_charpoly.__wrapped__(m)
    assert _agrees_with_bareiss(char, m)
    assert len(used) == 2 and used[0] % p == 0 and gcd(used[0], used[1]) == 1, used


square_int_matrices = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=n, max_size=n))


@given(square_int_matrices)
@settings(max_examples=200, deadline=None)
def test_composite_modulus_matches_the_prime_kernels(a):
    # modulo 3*5*7*11 small entries often leave a zero-divisor pivot,
    # which raises; otherwise the residues are those of each prime alone
    q = 3 * 5 * 7 * 11
    try:
        char = polynomials._charpoly_mod(a, q)
    except ValueError:
        return
    assert all(0 <= x < q for x in char)
    for p in (3, 5, 7, 11):
        assert [x % p for x in char] == polynomials._charpoly_mod(a, p)


def test_grover_charpoly_of_k7_runs_the_kernel_once(monkeypatch):
    # the 42 x 42 Grover matrix needs two primes, and one call carries both
    used = []
    monkeypatch.setattr(polynomials, "_charpoly_mod", recording(polynomials._charpoly_mod, used))
    polynomials.reversed_charpoly.__wrapped__(grover_matrix(generate("complete", 7)))
    assert len(used) == 1 and word_prime_count(used[0]) >= 2, used


def test_charpoly_of_degenerate_sizes():
    assert reversed_charpoly(ExactMatrix(())) == P([1])
    assert reversed_charpoly(M([[F(5, 3)]])) == P([1, F(-5, 3)])
    assert reversed_charpoly(ExactMatrix.zeros(4, 4)) == P([1])


def test_charpoly_primes_are_odd_decreasing_primes():
    sympy = pytest.importorskip("sympy")
    primes = [polynomials._prime(i) for i in range(6)]
    assert primes[0] < 2 ** 62
    assert all(p > q for p, q in zip(primes, primes[1:]))
    assert all(p % 2 == 1 and sympy.isprime(p) for p in primes)
    # and none is skipped: each is the largest prime below the one before
    assert [sympy.prevprime(p) for p in [2 ** 62] + primes[:-1]] == primes


ORACLE_POINTS = (F(1, 3), F(-2, 7), F(3, 5))


def _check_determinants_against_bareiss(g):
    """Each exact determinant, evaluated at a rational u, equals the
    Bareiss determinant of the matrix built directly at that u."""
    deg = g.degrees()
    adj = [[F(0)] * g.n for _ in range(g.n)]
    for a, b in g.edges:
        adj[a][b] = adj[b][a] = F(1)
    bass = ihara_zeta(g, route="bass")
    ks = verify_konno_sato(g).rhs
    for u in ORACLE_POINTS:
        for m in (grover_matrix(g), edge_matrix(g)):
            assert reversed_charpoly(m)(u) == _bareiss_one_minus(m, u)
        circle = 1 - u * u
        # I - uA + u^2 (D - I), against bass = 1 / ((1-u^2)^(betti-1) det)
        d = bareiss_det(M([[(1 + u * u * (deg[i] - 1) if i == j else 0) - u * adj[i][j]
                          for j in range(g.n)] for i in range(g.n)]))
        assert bass.num(u) * circle ** (g.betti - 1) * d == bass.den(u)
        # (1+u^2) I - 2uP, against ks = (1-u^2)^(m-n) det
        d = bareiss_det(M([[(1 + u * u if i == j else 0) - 2 * u * adj[i][j] / deg[i]
                          for j in range(g.n)] for i in range(g.n)]))
        assert ks.num(u) == ks.den(u) * circle ** (g.m - g.n) * d


def test_determinants_match_bareiss_on_corpus(corpus):
    for g in corpus.values():
        _check_determinants_against_bareiss(g)


@given(connected_graphs())
@settings(max_examples=25, deadline=None)
def test_determinants_match_bareiss_on_random_graphs(g):
    _check_determinants_against_bareiss(g)


def test_rational_function_reduction_and_monic_den():
    f = ExactRationalFunction.from_parts(P([-1, 1]), P([-1, 0, 1]))
    assert f.num == P([1]) and f.den == P([1, 1])
    g = ExactRationalFunction.from_parts(P([2]), P([0, 2]))
    assert g.num == P([1]) and g.den == P([0, 1])


def test_rational_function_eval():
    f = ExactRationalFunction.from_parts(P([1]), P([-1, 0, 0, 1]) ** 2)
    assert abs(rational_function_eval(f, 2.0) - 1.0 / 49.0) < 1e-15
    assert f.eval_exact(F(2)) == F(1, 49)
    with pytest.raises(PoleError):
        rational_function_eval(f, 1.0)
    g = ExactRationalFunction.from_polynomial(P([1, 0, -1]))
    assert abs(rational_function_eval(g, 1j) - 2.0) < 1e-15


def test_reciprocal_argument():
    # f(u) = 1/(u^3 - 1)^2 has f(1/u) = u^6 f(u)
    f = ExactRationalFunction.from_parts(P([1]), P([-1, 0, 0, 1]) ** 2)
    assert f.reciprocal_argument() == f.scale_monomial(6)
    # and on a non-symmetric example, double reciprocal is the identity
    g = ExactRationalFunction.from_parts(P([1, 2]), P([3, 0, 1]))
    assert g.reciprocal_argument().reciprocal_argument() == g


def test_polynomial_json_round_trip():
    p = P(["1/3", 0, "-2/7"])
    assert ExactPolynomial.from_json(p.to_json()) == p
    f = ExactRationalFunction.from_parts(P([1, 1]), P([2, 0, 1]))
    assert ExactRationalFunction.from_json(f.to_json()) == f


def test_monomial_refuses_a_negative_power():
    assert ExactPolynomial.monomial(0, 5) == P([5])
    assert ExactPolynomial.monomial(2, F(-1, 2)) == P([0, 0, F(-1, 2)])
    assert ExactPolynomial.monomial(3, 0).is_zero
    for power in (-1, -3):
        with pytest.raises(InvalidParameterError):
            ExactPolynomial.monomial(power)


def test_rational_function_eval_past_the_float_range():
    # den(x) = x^2 - 1 is past the float range at both points; the old
    # near-pole tolerance max(1, |x|)^2 overflowed at each
    f = ExactRationalFunction.from_parts(P([1]), P([-1, 0, 1]))
    for x in (1e200, 1e155, -1e155j):
        with pytest.raises(PrecisionError):
            rational_function_eval(f, x)
    assert rational_function_eval(f, 1e100) == 1e-200
    with pytest.raises(PrecisionError):
        rational_function_eval(ExactRationalFunction.from_polynomial(P([0, 0, 1])), 1e200)


def test_float_evaluation_with_a_coefficient_past_the_float_range():
    # the coefficient 10^400 / L has no double; int / L raised a raw
    # OverflowError from the float evaluation
    den = P([-10 ** 400, 1])
    f = ExactRationalFunction.from_parts(P([1]), den)
    for evaluate in (lambda: den(2.0), lambda: den(2j), lambda: rational_function_eval(f, 2.0)):
        with pytest.raises(PrecisionError, match="coefficient"):
            evaluate()
    assert den(2) == 2 - 10 ** 400  # the exact evaluation needs no float


# Random rational polynomials against the Fraction oracle of conftest:
# numerators up to 10^30 over pairwise coprime denominators, so L grows
# large; some monic, and pairs that share a factor of positive degree.
big_fractions = st.builds(F, st.integers(-10 ** 30, 10 ** 30),
                          st.sampled_from((1, 2, 3, 5, 7, 11, 13)))


@st.composite
def rational_coeffs(draw, max_degree: int = 6):
    coeffs = draw(st.lists(big_fractions, max_size=max_degree + 1))
    if coeffs and draw(st.booleans()):
        coeffs[-1] = F(1)
    return frac_trim(coeffs)


@st.composite
def rational_pairs(draw):
    """Two coefficient tuples of degree at most 6; in half the pairs both
    are multiples of one factor of degree 1 to 3."""
    if not draw(st.booleans()):
        return draw(rational_coeffs()), draw(rational_coeffs())
    factor = draw(rational_coeffs(3).filter(lambda c: len(c) > 1))
    rest = 7 - len(factor)
    return (frac_mul(draw(rational_coeffs(rest)), factor),
            frac_mul(draw(rational_coeffs(rest)), factor))


def _held_canonically(p: ExactPolynomial, coeffs) -> bool:
    """p is coeffs, held as the form (lcm of the denominators, ints)."""
    scale = lcm(*(c.denominator for c in coeffs))
    form = (scale, tuple(int(c * scale) for c in coeffs))
    scale, ints = p.integer_form
    return (p.coeffs == tuple(coeffs) and p.integer_form == form
            and scale > 0 and gcd(scale, *ints) == 1 and (not ints or ints[-1]))


def _reciprocal(num, den):
    """The oracle's u -> f(1/u) for f = num/den."""
    shift = len(den) - len(num)
    num, den = frac_trim(num[::-1]), frac_trim(den[::-1])
    if shift >= 0:
        return frac_reduce((F(0),) * shift + num, den)
    return frac_reduce(num, (F(0),) * -shift + den)


@given(rational_pairs(), big_fractions)
@settings(max_examples=100, deadline=None)
def test_polynomial_arithmetic_agrees_with_fractions(pair, c):
    a, b = pair
    pa, pb = P(a), P([str(x) for x in b])
    want = [(pa, a), (pb, b), (pa + pb, frac_add(a, b)), (pa - pb, frac_add(a, b, -1)),
            (pa * pb, frac_mul(a, b)), (-pa, frac_trim(-x for x in a)),
            (pa.scale(c), frac_trim(c * x for x in a)), (pa.reversed(), frac_trim(a[::-1])),
            (pa ** 2, frac_mul(a, a))]
    if b:
        want += zip(pa.divmod(pb), frac_divmod(a, b))
    for got, coeffs in want:
        assert _held_canonically(got, coeffs), (got, coeffs)
    for u in (F(1, 3), F(-7, 2), 5):
        assert pa(u) == sum(x * F(u) ** k for k, x in enumerate(a))


@given(rational_pairs())
@settings(max_examples=100, deadline=None)
def test_gcd_and_reduction_agree_with_fractions(pair):
    a, b = pair
    g = poly_gcd(P(a), P(b))
    assert _held_canonically(g, frac_gcd(a, b))
    assert g.is_zero or g.leading() == 1
    if not b:
        return
    f = ExactRationalFunction.from_parts(P(a), P(b))
    num, den = frac_reduce(a, b)
    assert _held_canonically(f.num, num) and _held_canonically(f.den, den)
    assert f.den.leading() == 1
    r = f.reciprocal_argument()
    num, den = _reciprocal(num, den)
    assert _held_canonically(r.num, num) and _held_canonically(r.den, den)
    assert r.den.leading() == 1


@given(rational_pairs(), big_fractions.filter(bool))
@settings(max_examples=60, deadline=None)
def test_equal_polynomials_have_equal_forms_and_hashes(pair, c):
    a, b = pair
    p = P(a)
    for same in (p.scale(2).scale(F(1, 2)), p.scale(c).scale(1 / c), P([str(x) for x in a]),
                 p + ExactPolynomial.zero(), (p * P([c, 1])).divmod(P([c, 1]))[0],
                 ExactPolynomial.from_json(p.to_json())):
        assert same == p
        assert same.integer_form == p.integer_form and hash(same) == hash(p)
    zero = ExactPolynomial.zero()
    for none in (p - p, p.scale(0), P([0, 0])):
        assert none == zero and none.integer_form == (1, ()) and hash(none) == hash(zero)
    if b:
        f = ExactRationalFunction.from_parts(p, P(b))
        h = P(b) * P([c, 1])
        same = ExactRationalFunction.from_parts(p * h, P(b) * h)
        assert same == f and hash(same) == hash(f)
