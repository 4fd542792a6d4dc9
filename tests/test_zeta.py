import random
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings

from conftest import circulant_graphs, connected_graphs

from azw import (
    ExactPolynomial,
    ExactRationalFunction,
    SpectrumReport,
    automorphic_weight,
    count_reduced_cycles,
    generate,
    grover_matrix,
    grover_zeta,
    ihara_zeta,
    log_zeta_series,
    matched_spectra,
    spectrum,
    spectrum_via_konno_sato,
    transition_spectrum,
    verify_ihara_routes,
    verify_ihara_series,
    verify_konno_sato,
)
import azw.zeta
from azw.errors import InvalidParameterError, SpectralMismatchError
from azw.graphs import build_graph
from test_matrices import CORPUS_DET_U

F = Fraction
P = ExactPolynomial.from_coeffs


def u_pow_n_minus_1_squared(n):
    return P([-1] + [0] * (n - 1) + [1]) ** 2


def test_grover_zeta_cycles():
    for n in (3, 4):
        z = grover_zeta(generate("cycle", n))
        assert z.num == P([1])
        assert z.den == u_pow_n_minus_1_squared(n)


def test_grover_zeta_k2_up_to_normalization():
    # 1/(1 - u^2) carries its sign in the numerator under the monic-
    # denominator convention
    z = grover_zeta(generate("complete", 2))
    assert z.num == P([-1])
    assert z.den == P([-1, 0, 1])


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_zeta_identity(n):
    z = grover_zeta(generate("cycle", n))
    product = z * ExactRationalFunction.from_polynomial(u_pow_n_minus_1_squared(n))
    assert product == ExactRationalFunction.one()


def test_ihara_zeta_tree_is_one():
    # K1 has no walk, so its Bass side stays on the block companion
    for g in (generate("complete", 2), build_graph(1, [])):
        for route in ("edge", "bass"):
            assert ihara_zeta(g, route=route) == ExactRationalFunction.one()


def test_ihara_zeta_c3():
    z = ihara_zeta(generate("cycle", 3))
    assert z.num == P([1])
    assert z.den == u_pow_n_minus_1_squared(3)


def test_ihara_routes_agree_on_corpus(corpus):
    for name, g in corpus.items():
        rep = verify_ihara_routes(g)
        assert rep.ok, name
        assert rep.routes_equal, name
        assert rep.support_equals_edge_matrix == (g.min_degree() >= 2), name


@given(circulant_graphs())
@settings(max_examples=15, deadline=None)
def test_ihara_routes_agree_on_circulant_graphs(g):
    assert ihara_zeta(g, "bass") == ihara_zeta(g, "edge")


def _seeded_irregular_graph(seed: int, n: int = 9):
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + 3:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = build_graph(n, sorted(edges))
    assert len(set(g.degrees())) > 1
    return g


def test_bass_block_companion_serves_only_irregular_graphs(monkeypatch, corpus):
    calls = []
    companion = azw.zeta.poly_matrix_det
    monkeypatch.setattr(azw.zeta, "poly_matrix_det",
                        lambda a1, a2: calls.append(a1.rows) or companion(a1, a2))
    regular = [g for g in corpus.values() if len(set(g.degrees())) == 1]
    for g in regular + [generate("cycle", 36), generate("complete_bipartite", 4, 4)]:
        ihara_zeta(g, "bass")
    assert calls == []
    for g in (corpus["S5"], generate("complete_bipartite", 3, 5), _seeded_irregular_graph(7)):
        ihara_zeta(g, "bass")
        assert calls == [g.n]
        calls.clear()


@pytest.mark.parametrize("k", [0, 7])
def test_a_perturbed_walk_vertex_side_fails_both_identities(monkeypatch, corpus, k):
    # Bass and Konno-Sato read one walk charpoly, but each is checked
    # against its own 2m x 2m arc charpoly, so a wrong vertex side shows
    shared = azw.zeta._walk_vertex_side
    monkeypatch.setattr(azw.zeta, "_walk_vertex_side",
                        lambda g, a, b: shared(g, a, b) + ExactPolynomial.monomial(k))
    g = corpus["petersen"]
    routes = verify_ihara_routes(g)
    assert (routes.routes_equal, routes.ok) == (False, False)
    assert not verify_konno_sato(g).ok


def test_ihara_route_argument_checked():
    with pytest.raises(InvalidParameterError):
        ihara_zeta(generate("cycle", 3), route="hashimoto")


def test_both_arc_matrix_orders_share_the_charpoly(corpus):
    # the arc-index convention (successor vs predecessor adjacency) only
    # transposes the matrix, so det(I - uB) is the same either way
    from azw import edge_matrix, reversed_charpoly
    for name in ("C3", "K4"):
        b = edge_matrix(corpus[name])
        assert reversed_charpoly(b) == reversed_charpoly(b.transpose())


def test_konno_sato_k2():
    rep = verify_konno_sato(generate("complete", 2))
    assert rep.ok
    assert rep.lhs == P([1, 0, -1])           # 1 - u^2 on both sides
    assert rep.rhs.is_polynomial


def test_konno_sato_c4():
    rep = verify_konno_sato(generate("cycle", 4))
    assert rep.ok
    assert rep.lhs == u_pow_n_minus_1_squared(4)


def test_konno_sato_corpus_exact(corpus):
    for name, g in corpus.items():
        rep = verify_konno_sato(g)
        assert rep.ok, f"{name}: {rep.mismatches[:3]}"


def test_konno_sato_vertex_side_matches_the_block_companion(corpus):
    # the n x n walk-charpoly route and the 2n x 2n block companion charpoly
    # give the identical polynomial: det((1+u^2) I - 2uP) on every graph,
    # and Bass's det(I - uA + (d-1)u^2 I) = det((1+(d-1)u^2) I - duP) on the
    # d-regular ones
    from azw import ExactMatrix, adjacency_and_degree, poly_matrix_det, transition_matrix
    from azw.zeta import _walk_vertex_side

    graphs = list(corpus.values()) + [generate("cycle", 36), generate("complete", 7),
                                      generate("complete_bipartite", 4, 7)]
    for g in graphs:
        block = poly_matrix_det(transition_matrix(g).scale(-2), ExactMatrix.identity(g.n))
        assert _walk_vertex_side(g, 2, 1) == block

    regular = [g for g in corpus.values() if len(set(g.degrees())) == 1]
    regular += [generate("cycle", 36), generate("complete", 7),
                generate("complete_bipartite", 4, 4)]
    for g in regular:
        d = g.degrees()[0]
        adj, deg = adjacency_and_degree(g)
        block = poly_matrix_det(adj.scale(-1), deg - ExactMatrix.identity(g.n))
        assert _walk_vertex_side(g, d, d - 1) == block, g


# reduced-cycle counts frozen from the enumeration oracle; each equals
# r * [u^r] log Z as verified by verify_ihara_series
FROZEN_COUNTS = {
    "C3": (0, 0, 6, 0, 0, 6),
    "C5": (0, 0, 0, 0, 10, 0),
    "K4": (0, 0, 24, 24, 0, 96),
    "K2": (0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("name", sorted(FROZEN_COUNTS))
def test_reduced_cycle_counts(name, corpus):
    assert count_reduced_cycles(corpus[name], 6) == FROZEN_COUNTS[name]


@pytest.mark.parametrize("name", ["C3", "C5", "K4", "K2"])
def test_ihara_series_definition(name, corpus):
    rep = verify_ihara_series(corpus[name], r_max=6)
    assert rep.ok
    assert rep.counts == FROZEN_COUNTS[name]
    for count, series in zip(rep.counts, rep.from_series):
        assert F(count) == series


def test_log_zeta_series_c3():
    z = ihara_zeta(generate("cycle", 3))
    assert log_zeta_series(z, 6) == [F(0), F(0), F(0), F(2), F(0), F(0), F(1)]


def test_ihara_series_r_max_capped():
    # 0 and below would check no cycle length and still report ok
    for r_max in (9, 0, -3):
        with pytest.raises(InvalidParameterError):
            verify_ihara_series(generate("cycle", 3), r_max=r_max)


def _as_multiset(report):
    return sorted(((round(v.real, 6), round(v.imag, 6)), m) for v, m in report.entries)


def test_spectrum_u_c4():
    got = _as_multiset(spectrum(generate("cycle", 4)))
    assert got == sorted([((-1.0, 0.0), 2), ((0.0, 1.0), 2), ((0.0, -1.0), 2), ((1.0, 0.0), 2)])


def test_transition_spectrum_c4():
    got = _as_multiset(transition_spectrum(generate("cycle", 4)))
    assert got == sorted([((-1.0, 0.0), 1), ((0.0, 0.0), 2), ((1.0, 0.0), 1)])


def test_spectrum_k2_tree_cancellation():
    got = _as_multiset(spectrum_via_konno_sato(generate("complete", 2)))
    assert got == sorted([((-1.0, 0.0), 1), ((1.0, 0.0), 1)])
    direct = _as_multiset(spectrum(generate("complete", 2)))
    assert direct == got


def test_mapped_unit_multiplicities_on_trees():
    # both trees are bipartite with m - n = -1: mu = 1 and mu = -1 each add
    # 2 to their unit's count, and the shift takes one back
    r = round(0.5 ** 0.5, 6)
    want = {
        ("star", 4): {(1.0, 0.0): 1, (-1.0, 0.0): 1, (0.0, 1.0): 3, (0.0, -1.0): 3},
        ("path", 5): {(1.0, 0.0): 1, (-1.0, 0.0): 1, (0.0, 1.0): 1, (0.0, -1.0): 1,
                      (r, r): 1, (r, -r): 1, (-r, r): 1, (-r, -r): 1},
    }
    for (family, size), mults in want.items():
        g = generate(family, size)
        assert _as_multiset(spectrum_via_konno_sato(g)) == sorted(mults.items()), family
        direct, _ = matched_spectra(g)
        assert _as_multiset(direct) == sorted(mults.items()), family


def test_mapped_tree_without_unit_eigenvalue_raises(monkeypatch):
    # K2's transition spectrum is {-1, 1}; without mu = 1 the m - n = -1
    # shift leaves +1 with multiplicity -1
    real = transition_spectrum(generate("complete", 2))
    lacking = SpectrumReport(entries=((-1 + 0j, 1), (0j, 1)), source=real.source,
                             err=(0.0, 0.0))
    monkeypatch.setattr(azw.zeta, "transition_spectrum", lambda g: lacking)
    with pytest.raises(SpectralMismatchError):
        spectrum_via_konno_sato(generate("complete", 2))


@pytest.mark.parametrize("changes", [{0: 3}, {0: 3, 1: 1}], ids=["dimension", "same-dimension"])
def test_matched_spectra_rejects_changed_multiplicity(monkeypatch, changes):
    g = generate("cycle", 4)
    real = spectrum_via_konno_sato(g)
    entries = tuple((v, changes.get(i, m)) for i, (v, m) in enumerate(real.entries))
    changed = SpectrumReport(entries=entries, source=real.source, err=real.err)
    monkeypatch.setattr(azw.zeta, "spectrum_via_konno_sato", lambda g: changed)
    with pytest.raises(SpectralMismatchError):
        matched_spectra(g)


def test_one_vertex_graph_spectra():
    g = build_graph(1, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = spectrum(g)
        assert rep.entries == () and rep.dimension == 0 == 2 * g.m
        for call in (transition_spectrum, spectrum_via_konno_sato, matched_spectra):
            with pytest.raises(InvalidParameterError):
                call(g)


# mpmath's eigenvalues at 30 digits are good to about 1e-28
REFERENCE_SLACK = 1e-25


def _walk_reference(g) -> list:
    """The eigenvalues of D^(-1/2) A D^(-1/2), which P shares, by mpmath's
    symmetric solver at 30 digits."""
    with mpmath.workdps(30):
        deg = g.degrees()
        a = mpmath.zeros(g.n)
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1 / mpmath.sqrt(deg[u] * deg[v])
        return [mpmath.mpf(x) for x in mpmath.eigsy(a, eigvals_only=True)]


def _grover_reference(g, walk: list) -> list:
    """mu +- i sqrt(1 - mu^2) over the walk eigenvalues other than +-1, and
    +-1 with multiplicity m - n plus twice theirs (Konno-Sato)."""
    units = {1: g.m - g.n, -1: g.m - g.n}
    out = []
    with mpmath.workdps(30):
        for mu in walk:
            unit = next((u for u in units if abs(mu - u) < 1e-20), None)
            if unit is not None:
                units[unit] += 2
                continue
            s = mpmath.sqrt(1 - mu * mu)
            out += [mpmath.mpc(mu, s), mpmath.mpc(mu, -s)]
    return out + [mpmath.mpc(u) for u, k in units.items() for _ in range(k)]


def _assert_within_err(report, reference, label):
    """Every entry holds exactly its multiplicity of reference values
    within its err, and no reference value is left over."""
    held = 0
    for (value, mult), err in zip(report.entries, report.err):
        near = sum(1 for ref in reference if abs(value - ref) <= err + REFERENCE_SLACK)
        assert near == mult, (label, report.source, value, mult, err)
        held += near
    assert held == len(reference) == report.dimension, (label, report.source)


def _assert_spectra_certified(g, label):
    walk = _walk_reference(g)
    _assert_within_err(transition_spectrum(g), walk, label)
    grover = _grover_reference(g, walk)
    for report in matched_spectra(g):
        _assert_within_err(report, grover, label)


def test_spectra_within_err_of_mpmath_on_corpus(corpus):
    for name, g in corpus.items():
        _assert_spectra_certified(g, name)


@given(connected_graphs(max_n=6))
@settings(max_examples=10, deadline=None)
def test_spectra_within_err_of_mpmath_on_random_graphs(g):
    _assert_spectra_certified(g, g.edges)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 36, 100])
def test_cycle_walk_spectrum_is_cos_2pi_k_over_n(n):
    rep = transition_spectrum(generate("cycle", n))
    mults: dict[int, int] = {}
    for k in range(n):
        mults[min(k, n - k)] = mults.get(min(k, n - k), 0) + 1
    # cos(2 pi k / n) falls as k runs from 0 to n/2
    got = sorted(zip(rep.entries, rep.err), key=lambda e: -e[0][0].real)
    assert [mult for (_, mult), _ in got] == [mults[k] for k in sorted(mults)]
    with mpmath.workdps(30):
        for ((value, _), err), k in zip(got, sorted(mults)):
            assert value.imag == 0
            assert abs(value.real - mpmath.cos(2 * mpmath.pi * k / n)) <= err + REFERENCE_SLACK


def _exact_entries(report) -> list[tuple[Fraction, int]]:
    """(the rational each entry stands for, multiplicity), checking that
    its err is the exact rounding gap, which is 0 for a float value."""
    out = []
    for (value, mult), err in zip(report.entries, report.err):
        q = Fraction(value.real).limit_denominator(100)
        assert value.imag == 0 and abs(Fraction(value.real) - q) <= err <= 2.0 ** -54
        assert (err == 0) == (Fraction(value.real) == q)
        out.append((q, mult))
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_complete_graph_walk_spectrum(n):
    rep = transition_spectrum(generate("complete", n))
    assert _exact_entries(rep) == [(Fraction(-1, n - 1), n - 1), (Fraction(1), 1)]


def test_petersen_walk_spectrum():
    rep = transition_spectrum(generate("petersen"))
    assert _exact_entries(rep) == [(Fraction(-2, 3), 4), (Fraction(1, 3), 5), (Fraction(1), 1)]


@pytest.mark.parametrize("name", ["C5", "K4", "petersen"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_matched_spectra_rejects_a_perturbed_grover_charpoly(monkeypatch, corpus, name, where):
    # one coefficient of det(I - uU) off by one, the walk side untouched
    g = corpus[name]
    u = grover_matrix(g)
    k = {"first": 1, "middle": g.m, "last": 2 * g.m}[where]
    real = azw.zeta.reversed_charpoly

    def perturbed(matrix):
        p = real(matrix)
        if matrix != u:
            return p
        coeffs = list(p.coeffs)
        coeffs[k] += 1
        return P(coeffs)

    monkeypatch.setattr(azw.zeta, "reversed_charpoly", perturbed)
    with pytest.raises(SpectralMismatchError):
        matched_spectra(g)


@pytest.mark.parametrize("family", ["path", "complete"])
def test_matched_spectra_rejects_the_walk_side_of_another_graph(monkeypatch, family):
    # P5 and K5 have C5's vertex count, so both sides build. K5's walk also
    # has mu = 1 once and no mu = -1, so its mapped spectrum has C5's units
    # and adds up to 2m: only the Konno-Sato identity tells them apart
    c5, other = generate("cycle", 5), generate(family, 5)
    real = azw.zeta.transition_matrix
    monkeypatch.setattr(azw.zeta, "transition_matrix", lambda g: real(other if g == c5 else g))
    with pytest.raises(SpectralMismatchError):
        matched_spectra(c5)


def test_matched_spectra_rejects_a_changed_pair_multiplicity(monkeypatch):
    # both members of one non-real pair change, so the direct side copies
    # them and the entries still agree; only the total 2m catches it
    g = generate("petersen")
    real = spectrum_via_konno_sato(g)
    first = next(v for v, _ in real.entries if v.imag)
    entries = tuple((v, m + 1 if v.imag and v.real == first.real else m)
                    for v, m in real.entries)
    assert sum(m for _, m in entries) == 2 * g.m + 2
    changed = SpectrumReport(entries=entries, source=real.source, err=real.err)
    monkeypatch.setattr(azw.zeta, "spectrum_via_konno_sato", lambda g: changed)
    with pytest.raises(SpectralMismatchError):
        matched_spectra(g)


def _assert_direct_is_mapped(g, label):
    """The direct report has the mapped values, multiplicities and err."""
    direct, mapped = matched_spectra(g)
    assert direct.entries == mapped.entries and direct.err == mapped.err, label
    assert spectrum(g) == direct, label


def test_direct_spectrum_is_the_mapped_one_on_corpus(corpus):
    for name, g in corpus.items():
        _assert_direct_is_mapped(g, name)


@given(connected_graphs(max_n=7))
@settings(max_examples=10, deadline=None)
def test_direct_spectrum_is_the_mapped_one_on_random_graphs(g):
    _assert_direct_is_mapped(g, g.edges)


def test_matched_spectra_on_corpus(corpus):
    for name, g in corpus.items():
        direct, mapped = matched_spectra(g)
        assert direct.dimension == mapped.dimension == 2 * g.m, name
        assert mapped.source == "konno_sato_mapped"
        for value, _ in direct.entries:
            assert abs(abs(value) - 1.0) <= 1e-10, name


@given(connected_graphs(max_n=5))
@settings(max_examples=10, deadline=None)
def test_konno_sato_holds_on_random_graphs(g):
    assert verify_konno_sato(g).ok
    matched_spectra(g)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_cycle_counts_match_arc_matrix_traces(seed):
    # independent algebraic route: N_r = trace(B^r) for the
    # non-backtracking arc matrix B
    import random
    from azw import build_graph, edge_matrix
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    edges = {(u, rng.randint(0, u - 1)) for u in range(1, n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    while len(edges) < n + 1:
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(edges))
    b = edge_matrix(g)
    counts = count_reduced_cycles(g, 5)
    power = b
    for r in range(1, 6):
        trace = sum(power[i, i] for i in range(power.rows))
        assert counts[r - 1] == trace, (r, counts)
        power = power @ b


def test_automorphy_rejects_a_perturbed_charpoly(monkeypatch):
    import azw.zeta as zeta_module
    from azw.errors import CertificateError

    def perturbed(g):
        z = grover_zeta(g)
        coeffs = list(z.den.coeffs)
        coeffs[1] += 1
        return ExactRationalFunction.from_parts(z.num, P(coeffs))

    monkeypatch.setattr(zeta_module, "grover_zeta", perturbed)
    with pytest.raises(CertificateError, match="exact automorphy"):
        automorphic_weight(generate("complete", 4))


def test_automorphy_certificates(corpus):
    expected = {name: (CORPUS_DET_U[name], -2 * g.m) for name, g in corpus.items()}
    assert expected["C4"] == (1, -8)
    assert expected["K2"] == (-1, -2)
    assert expected["petersen"] == (-1, -30)
    for name, g in corpus.items():
        cert = automorphic_weight(g)
        assert (cert.sign, cert.weight) == expected[name], name
        assert cert.max_residual <= 1e-10, name


def test_automorphy_of_a_long_cycle():
    # x^(2m) at the sample point 10 overflows a float from m = 155 on;
    # the residual is evaluated inside the unit disc instead
    cert = automorphic_weight(generate("cycle", 155))
    assert (cert.sign, cert.weight) == (1, -310)
    assert cert.max_residual <= 1e-10
