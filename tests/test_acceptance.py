"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live). Exact criteria admit no tolerance at
all; numeric ones pin the tolerance stated next to each assertion.

The conftest hook orders this module last so the wall-clock criterion at
the bottom observes (almost) the whole session.
"""

import cmath
import math
import time

import conftest
from azw import (
    CyclotomicForm,
    ExactPolynomial,
    ExactRationalFunction,
    MultiZetaParams,
    PrecisionPolicy,
    absolute_hurwitz_Z,
    absolute_zeta,
    automorphic_weight,
    det_exact,
    edge_matrix,
    generate,
    grover_matrix,
    grover_zeta,
    hurwitz_zeta_ds,
    ihara_zeta,
    matched_spectra,
    multiple_gamma,
    multiple_hurwitz_zeta,
    multiple_sine,
    positive_support,
    reversed_charpoly,
    transition_matrix,
    transition_spectrum,
    spectrum,
    verify_functional_equation,
    verify_ihara_series,
    verify_konno_sato,
)
from azw.matrices import adjacency_and_degree

P = ExactPolynomial.from_coeffs
POLICY = PrecisionPolicy(target=1e-9)


def _report(cid: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {cid:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {cid} failed: {description}"


def _clear_caches() -> None:
    grover_matrix.cache_clear()
    transition_matrix.cache_clear()
    adjacency_and_degree.cache_clear()
    edge_matrix.cache_clear()
    reversed_charpoly.cache_clear()


def test_criterion_01_konno_sato_exact_on_corpus(corpus):
    _clear_caches()
    started = time.perf_counter()
    ok = all(verify_konno_sato(g).ok for g in corpus.values())
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 10.0
    _report(1, f"Konno-Sato identity exact on {len(corpus)} graphs "
               f"({elapsed:.2f} s <= 10 s)", ok)


def test_criterion_02_cycle_zeta_identity():
    ok = True
    for n in range(3, 11):
        z = grover_zeta(generate("cycle", n))
        cyc = ExactRationalFunction.from_polynomial(
            P([-1] + [0] * (n - 1) + [1]) ** 2)
        ok &= (z * cyc) == ExactRationalFunction.one()
    _report(2, "grover_zeta(C_n) * (u^n - 1)^2 = 1 exactly for n = 3..10", ok)


def test_criterion_03_stated_spectra(corpus):
    tol = 1e-10

    def close(entries, expected):
        if len(entries) != len(expected):
            return False
        got = sorted(entries, key=lambda e: (e[0].real, e[0].imag))
        want = sorted(expected, key=lambda e: (e[0].real, e[0].imag))
        return all(abs(a - b) <= tol and ma == mb
                   for (a, ma), (b, mb) in zip(got, want))

    c4 = corpus["C4"]
    ok = close(transition_spectrum(c4).entries,
               [(-1 + 0j, 1), (0j, 2), (1 + 0j, 1)])
    ok &= close(spectrum(c4).entries,
                [(-1 + 0j, 2), (1j, 2), (-1j, 2), (1 + 0j, 2)])
    for g in corpus.values():
        matched_spectra(g)  # raises on mismatch
    _report(3, "C4 spectra match the stated multisets (1e-10); mapped = direct "
               "on the corpus (1e-8)", ok)


def test_criterion_04_automorphy(corpus):
    ok = True
    for name, g in corpus.items():
        cert = automorphic_weight(g)  # exact identity checked inside
        ok &= cert.sign == det_exact(grover_matrix(g))
        ok &= cert.weight == -2 * g.m
        ok &= cert.max_residual <= 1e-10
    _report(4, "(C, D) = (det U, -2m) with exact identity and residual "
               "<= 1e-10 at x in {2, 3.5, 10}", ok)


def test_criterion_05_ihara_routes(corpus):
    ok = True
    for name, g in corpus.items():
        if g.min_degree() >= 2:
            ok &= ihara_zeta(g, "edge") == ihara_zeta(g, "bass")
            ok &= positive_support(grover_matrix(g).transpose()) == edge_matrix(g)
    k2 = corpus["K2"]
    ok &= ihara_zeta(k2, "bass") == ExactRationalFunction.one()
    support_poly = reversed_charpoly(positive_support(grover_matrix(k2)))
    ok &= support_poly == P([1, 0, -1])  # det(I - u U+) = 1 - u^2 != 1
    _report(5, "both Ihara routes and the support identity agree exactly on "
               "min-degree >= 2 graphs; K2 exception asserted", ok)


def test_criterion_06_reduced_cycle_series(corpus):
    ok = True
    for name in ("C3", "C5", "K4"):
        rep = verify_ihara_series(corpus[name], r_max=6)
        ok &= rep.ok
    _report(6, "N_r = r [u^r] log Z exactly for r <= 6 on C3, C5, K4", ok)


def test_criterion_07_tri_method_agreement():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        form = CyclotomicForm(l=0, num_exponents=(), den_exponents=(n, n))
        for w, s in ((3, 1), (4, 0.5), (2.5, 2)):
            values = [absolute_hurwitz_Z(form, w, s, m, POLICY).value
                      for m in ("structure", "series", "mellin")]
            for i in range(3):
                for j in range(i + 1, 3):
                    delta = abs(values[i] - values[j]) / abs(values[i])
                    worst = max(worst, delta)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 20.0
    _report(7, f"structure/series/Mellin pairwise <= 1e-6 (worst {worst:.2e}, "
               f"{elapsed:.2f} s <= 20 s)", ok)


def test_criterion_08_representation_invariance():
    ok = True
    for n in (2, 3, 4):
        plain = CyclotomicForm(l=0, num_exponents=(), den_exponents=(n, n))
        alt = CyclotomicForm(l=0, num_exponents=(n,), den_exponents=(n, n, n))
        for w in (3, 4):
            for s in (0.5, 1.5):
                a = absolute_hurwitz_Z(plain, w, s, "structure", POLICY).value
                b = absolute_hurwitz_Z(alt, w, s, "structure", POLICY).value
                ok &= abs(a - b) <= 1e-8 * abs(a)
        for s in (0.5, 1.5):
            za = absolute_zeta(plain, s, POLICY).value
            zb = absolute_zeta(alt, s, POLICY).value
            ok &= abs(za - zb) <= 1e-8 * abs(za)
        # the underlying ladder and gamma-ratio relations, stated directly
        s, x = 2.2, 1.3
        lhs = (multiple_hurwitz_zeta(MultiZetaParams(3, x, (float(n),) * 3), s)
               - multiple_hurwitz_zeta(MultiZetaParams(3, x + n, (float(n),) * 3), s))
        rhs = multiple_hurwitz_zeta(MultiZetaParams(2, x, (float(n),) * 2), s)
        ok &= abs(lhs - rhs) <= 1e-8 * abs(rhs)
        g3 = (multiple_gamma(MultiZetaParams(3, 0.5 + 2 * n, (float(n),) * 3))
              / multiple_gamma(MultiZetaParams(3, 0.5 + 3 * n, (float(n),) * 3)))
        g2 = multiple_gamma(MultiZetaParams(2, 0.5 + 2 * n, (float(n),) * 2))
        ok &= abs(g3 - g2) <= 1e-8 * abs(g2)
    _report(8, "a=0,b=2 and a=1,b=3 forms agree to 1e-8 (Z, zeta_f, ladder, "
               "gamma ratio) for n in {2, 3, 4}", ok)


def test_criterion_09_special_function_anchors():
    ok = True
    for x in (0.5, 1.0, 2.5):
        got = multiple_gamma(MultiZetaParams(1, x, (1.0,)))
        ok &= abs(got - math.gamma(x) / math.sqrt(2 * math.pi)) <= 1e-9
    gamma2 = multiple_gamma(MultiZetaParams(2, 1.0, (1.0, 1.0)))
    ok &= abs(gamma2 - cmath.exp(hurwitz_zeta_ds(-1, 1))) <= 1e-8
    ok &= abs(multiple_sine(MultiZetaParams(1, 0.5, (1.0,))) - 2.0) <= 1e-9
    _report(9, "Gamma_1 = Gamma/sqrt(2 pi) (1e-9); Gamma_2(1,(1,1)) = "
               "exp(zeta'(-1)) (1e-8); S_1(1/2) = 2 (1e-9)", ok)


def test_criterion_10_functional_equation():
    worst = 0.0
    for n in (3, 4):
        for s in (0.3, 0.7, 1.1):
            worst = max(worst, verify_functional_equation(n, s).residual)
    _report(10, f"functional equation residual <= 1e-6 on the grid "
                f"(worst {worst:.2e})", worst <= 1e-6)


def test_criterion_11_suite_runtime():
    elapsed = time.perf_counter() - conftest.SESSION_START
    _report(11, f"suite wall time {elapsed:.1f} s <= 60 s, offline", elapsed <= 60.0)
