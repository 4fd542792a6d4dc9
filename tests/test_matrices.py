import copy
import json
import pickle
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import azw.matrices as matrices
from azw import (
    ExactMatrix,
    adjacency_and_degree,
    arc_table,
    builtin_corpus,
    det_exact,
    edge_matrix,
    generate,
    grover_matrix,
    poly_matrix_det,
    positive_support,
    reversed_charpoly,
    transition_matrix,
)
from azw.errors import NonSquareError
from conftest import bareiss_det, connected_graphs, recording, word_prime_count

F = Fraction

# det of the Grover operator for every corpus graph, frozen from the
# fraction-free elimination now kept as `conftest.bareiss_det` (and
# cross-checked against the Hessenberg charpoly in test_polynomials).
CORPUS_DET_U = {
    "K2": -1,
    "C3": 1, "C4": 1, "C5": 1, "C6": 1, "C7": 1, "C8": 1,
    "K4": 1, "K5": -1, "K3,3": -1, "S5": -1, "petersen": -1,
}


def test_grover_k2_is_the_swap():
    u = grover_matrix(generate("complete", 2))
    assert u.entries == ((F(0), F(1)), (F(1), F(0)))


def test_grover_c4_matches_block_circulant_display():
    # Under the per-vertex arc ordering [(v, v-1), (v, v+1)] the cycle
    # operator is block circulant with P = [[1,0],[0,0]] above the diagonal
    # and Q = [[0,0],[0,1]] below it (indices mod n).
    n = 4
    g = generate("cycle", n)
    u = grover_matrix(g)
    from azw import arc_table
    arcs = arc_table(g).arcs
    order = []
    for v in range(n):
        order.append(arcs.index((v, (v - 1) % n)))
        order.append(arcs.index((v, (v + 1) % n)))

    blk_p = ((F(1), F(0)), (F(0), F(0)))
    blk_q = ((F(0), F(0)), (F(0), F(1)))
    blk_o = ((F(0), F(0)), (F(0), F(0)))
    for bi in range(n):
        for bj in range(n):
            if bj == (bi + 1) % n:
                want = blk_p
            elif bj == (bi - 1) % n:
                want = blk_q
            else:
                want = blk_o
            for r in range(2):
                for c in range(2):
                    assert u[order[2 * bi + r], order[2 * bj + c]] == want[r][c]


def test_grover_orthogonal_on_corpus(corpus):
    for name, g in corpus.items():
        u = grover_matrix(g)
        assert u.transpose() @ u == ExactMatrix.identity(2 * g.m), name


def test_det_grover_in_unit_group(corpus):
    for name, g in corpus.items():
        assert det_exact(grover_matrix(g)) == CORPUS_DET_U[name], name


def test_det_exact_basics():
    assert det_exact(ExactMatrix.identity(5)) == 1
    assert det_exact(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det_exact(grover_matrix(generate("cycle", 4))) == 1
    singular = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert det_exact(singular) == 0
    assert det_exact(ExactMatrix.from_rows([["1/2", "1/3"], ["1/5", "1/7"]])) == F(1, 14) - F(1, 15)
    with pytest.raises(NonSquareError):
        det_exact(ExactMatrix.zeros(2, 3))


def test_det_exact_lifts_huge_entries_over_several_primes(monkeypatch):
    # numerators up to 1e30 over pairwise coprime denominators make the
    # Hadamard bound, and so the number of primes, large
    used = []
    monkeypatch.setattr(matrices, "_det_mod", recording(matrices._det_mod, used))
    rng = random.Random(20261019)
    coprime = (7, 11, 13, 17, 19, 23, 29, 31, 37)
    for _ in range(8):
        n = rng.randint(2, 5)
        m = ExactMatrix.from_rows(
            [[F(rng.randint(-10 ** 30, 10 ** 30), rng.choice(coprime)) for _ in range(n)]
             for _ in range(n)])
        used.clear()
        assert det_exact(m) == bareiss_det(m), m
        # one elimination carries every prime: its modulus is the product
        # of at least three word primes, above twice the Hadamard bound
        bound = 1
        for row in m.integer_rows():
            bound *= isqrt(sum(x * x for x in row)) + 1
        (q,) = used
        assert word_prime_count(q) >= 3 and q > 2 * bound, used


def test_det_exact_of_singular_matrices(monkeypatch):
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 6)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n - 1)]
        # the last row is a rational combination of the others
        coef = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1)]
        rows.append([sum(c * r[j] for c, r in zip(coef, rows)) for j in range(n)])
        order = list(range(n))
        rng.shuffle(order)
        m = ExactMatrix.from_rows([rows[i] for i in order])
        assert det_exact(m) == 0 == bareiss_det(m), m
    assert det_exact(ExactMatrix.from_rows([[1, 0, 2], [3, 0, 4], [5, 0, 6]])) == 0
    assert det_exact(ExactMatrix.zeros(4, 4)) == 0
    # zero modulo the first prime, but not zero: modulo q = p * _prime(1)
    # the pivot p is a zero divisor, so q splits into its two primes
    p = matrices._prime(0)
    used = []
    monkeypatch.setattr(matrices, "_det_mod", recording(matrices._det_mod, used))
    assert det_exact(ExactMatrix.from_rows([[p, 0], [0, 1]])) == p
    assert used == [p * matrices._prime(1), p, matrices._prime(1)]


def test_a_zero_divisor_pivot_splits_the_modulus():
    # modulo 15 the first column (3, 5) is nonzero but holds no unit
    a = [[3, 1], [5, 2]]
    with pytest.raises(matrices._Split) as split:
        matrices._det_mod(a, 15)
    assert split.value.factor == 3
    assert matrices._solve_mod(15, lambda q: (matrices._det_mod(a, q),)) == [1]
    # a column that is zero modulo q is no split: the determinant is 0
    assert matrices._det_mod([[15, 1], [30, 2]], 15) == 0


def test_det_exact_row_swap_signs():
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            diag = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            # a scaled permutation matrix: every column pivot needs a swap
            # unless the permutation fixes it
            m = ExactMatrix.from_rows(
                [[diag[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)])
            want = (-1) ** inversions
            for d in diag:
                want *= d
            assert det_exact(m) == want == bareiss_det(m), perm
    # zero pivot with fill below it: one swap, then elimination
    m = ExactMatrix.from_rows([[0, 2, 1], [3, 1, 0], [1, 1, 1]])
    assert det_exact(m) == bareiss_det(m) == -4


def test_det_exact_of_degenerate_sizes():
    assert det_exact(ExactMatrix(())) == 1
    assert det_exact(ExactMatrix.from_rows([["5/3"]])) == F(5, 3)
    assert det_exact(ExactMatrix.from_rows([[0]])) == 0
    assert det_exact(ExactMatrix.from_rows([[-(2 ** 70)]])) == -(2 ** 70)


def test_det_of_a_long_cycle_grover_operator():
    u = grover_matrix(generate("cycle", 155))
    assert det_exact(u) == 1


def test_matrix_equality_and_hash_follow_the_values():
    half = ExactMatrix.from_rows([["2/4"]])
    also_half = ExactMatrix.from_rows([[F(1, 2)]])
    assert half == also_half and hash(half) == hash(also_half)
    assert half != ExactMatrix.from_rows([[1]])
    assert ExactMatrix.zeros(1, 2) != ExactMatrix.zeros(2, 1)
    assert ExactMatrix(()) != ExactMatrix.zeros(1, 0)
    assert half != ((F(1, 2),),)
    assert len({half, also_half, ExactMatrix.from_rows([[1]])}) == 2


def test_charpoly_cache_hit_hashes_no_fraction(monkeypatch):
    g = generate("cycle", 80)
    first = reversed_charpoly(grover_matrix(g))
    calls = []
    fraction_hash = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    hits = reversed_charpoly.cache_info().hits
    assert reversed_charpoly(grover_matrix(g)) is first
    assert reversed_charpoly.cache_info().hits == hits + 1
    assert calls == []


def test_transition_matrix_row_stochastic(corpus):
    for name, g in corpus.items():
        p = transition_matrix(g)
        for row in p.entries:
            assert sum(row) == 1, name


def test_transition_c4_is_half_adjacency():
    g = generate("cycle", 4)
    a, _ = adjacency_and_degree(g)
    assert transition_matrix(g) == a.scale(F(1, 2))


def test_transition_k2():
    assert transition_matrix(generate("complete", 2)).entries == (
        (F(0), F(1)), (F(1), F(0)))


def test_transition_rejects_isolated_vertex():
    from azw import build_graph
    from azw.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        transition_matrix(build_graph(1, []))


def test_adjacency_and_degree_shapes():
    g = generate("cycle", 4)
    a, d = adjacency_and_degree(g)
    for i in range(4):
        for j in range(4):
            expected = 1 if (abs(i - j) % 4) in (1, 3) else 0
            assert a[i, j] == expected
        assert d[i, i] == 2
    pet_a, pet_d = adjacency_and_degree(generate("petersen"))
    assert all(sum(row) == 3 for row in pet_a.entries)
    assert all(pet_d[i, i] == 3 for i in range(10))


def test_positive_support_indicator():
    m = ExactMatrix.from_rows([["1/2", "-1/2"], [0, 2]])
    assert positive_support(m).entries == ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(NonSquareError):
        positive_support(ExactMatrix.zeros(1, 2))


def test_support_of_transposed_grover_is_edge_matrix_when_min_degree_2(corpus):
    for name, g in corpus.items():
        support = positive_support(grover_matrix(g).transpose())
        if g.min_degree() >= 2:
            assert support == edge_matrix(g), name
        else:
            assert support != edge_matrix(g), name


def test_support_exception_on_k2():
    g = generate("complete", 2)
    assert positive_support(grover_matrix(g)).entries == ((F(0), F(1)), (F(1), F(0)))
    assert edge_matrix(g) == ExactMatrix.zeros(2, 2)


def test_edge_matrix_row_sums(corpus):
    # every arc has deg(terminus) - 1 non-backtracking continuations
    from azw import arc_table
    for name, g in corpus.items():
        b = edge_matrix(g)
        arcs = arc_table(g)
        deg = g.degrees()
        for e, row in enumerate(b.entries):
            assert sum(row) == deg[arcs.terminus(e)] - 1, name


def test_edge_matrix_small_cases():
    b3 = edge_matrix(generate("cycle", 3))
    assert all(sum(row) == 1 for row in b3.entries)
    b4 = edge_matrix(generate("complete", 4))
    assert all(sum(row) == 2 for row in b4.entries)


def test_matrix_json_round_trip():
    m = grover_matrix(generate("cycle", 3))
    again = ExactMatrix.from_json(m.to_json())
    assert again == m
    assert '"1"' in m.to_json() and '"0"' in m.to_json()
    for empty in (ExactMatrix.zeros(0, 3), ExactMatrix.zeros(3, 0),
                  ExactMatrix.zeros(3, 0).transpose()):
        assert ExactMatrix.from_json(empty.to_json()) == empty


@given(connected_graphs(max_n=6))
@settings(max_examples=20, deadline=None)
def test_grover_orthogonality_property(g):
    u = grover_matrix(g)
    assert u.transpose() @ u == ExactMatrix.identity(2 * g.m)
    assert det_exact(u) in (1, -1)


@given(connected_graphs(max_n=6))
@settings(max_examples=20, deadline=None)
def test_grover_rows_sum_to_one(g):
    for row in grover_matrix(g).entries:
        assert sum(row) == 1


# ---- the integer form against plain Fraction arithmetic

small_fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
scalars = st.one_of(st.just(F(0)), st.integers(-4, 4).map(F), small_fractions)


def fraction_rows(rows: int, cols: int):
    return st.lists(st.lists(small_fractions, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def fraction_matrix_triples(draw):
    """Two Fraction row lists of one shape, and a third that can follow them
    in a product."""
    rows, cols, width = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(fraction_rows(rows, cols)), draw(fraction_rows(rows, cols)), \
        draw(fraction_rows(cols, width))


def _product(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0)) for j in range(len(b[0]))]
            for row in a]


def _canonical(rows) -> tuple[int, tuple[int, ...]]:
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, tuple(int(x * scale) for row in rows for x in row)


def _as_tuples(rows):
    return tuple(tuple(row) for row in rows)


@given(fraction_matrix_triples(), scalars)
@settings(max_examples=150, deadline=None)
def test_integer_form_arithmetic_agrees_with_fractions(triple, c):
    a_rows, b_rows, c_rows = triple
    a, b, m = ExactMatrix(a_rows), ExactMatrix.from_rows(b_rows), ExactMatrix(c_rows)
    assert a.entries == _as_tuples(a_rows)
    assert a.integer_form == _canonical(a_rows)
    assert a.scale(c).entries == _as_tuples([[c * x for x in row] for row in a_rows])
    assert (a + b).entries == _as_tuples(
        [[x + y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)])
    assert (a - b).entries == _as_tuples(
        [[x - y for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)])
    assert a.transpose().entries == _as_tuples(zip(*a_rows))
    assert (a @ m).entries == _as_tuples(_product(a_rows, c_rows))
    for result in (a.scale(c), a + b, a - b, a.transpose(), a @ m):
        # every result is held in its canonical form
        assert result.integer_form == _canonical(result.entries)
    if a.is_square:
        assert positive_support(a).entries == _as_tuples(
            [[F(1) if x > 0 else F(0) for x in row] for row in a_rows])


@given(fraction_matrix_triples(), small_fractions.filter(bool))
@settings(max_examples=100, deadline=None)
def test_equal_matrices_have_equal_forms_and_hashes(triple, c):
    a_rows, _, _ = triple
    a = ExactMatrix(a_rows)
    for same in (a.scale(2).scale(F(1, 2)), a.scale(c).scale(1 / c),
                 ExactMatrix.from_rows([[str(x) for x in row] for row in a_rows]),
                 a.transpose().transpose(), a + ExactMatrix.zeros(a.rows, a.cols)):
        assert same == a
        assert same.integer_form == a.integer_form and hash(same) == hash(a)
    zero = ExactMatrix.zeros(a.rows, a.cols)
    for none in (a - a, a.scale(0)):
        assert none == zero
        assert none.integer_form == zero.integer_form == (1, (0,) * (a.rows * a.cols))
        assert hash(none) == hash(zero)


@st.composite
def blocks_of_different_scales(draw):
    n = draw(st.integers(1, 3))
    a1 = ExactMatrix(draw(fraction_rows(n, n)))
    a2 = ExactMatrix(draw(fraction_rows(n, n)))
    assume(a1.integer_form[0] != a2.integer_form[0])
    return a1, a2


@given(blocks_of_different_scales())
@settings(max_examples=60, deadline=None)
def test_poly_matrix_det_over_blocks_of_different_scales(blocks):
    a1, a2 = blocks
    n = a1.rows
    poly = poly_matrix_det(a1, a2)
    assert poly.degree <= 2 * n
    for u in (F(1, 3), F(-2, 5), F(7, 2)):
        want = bareiss_det(ExactMatrix.identity(n) + a1.scale(u) + a2.scale(u * u))
        assert poly(u) == want, (a1, a2, u)


def test_matrix_is_immutable_and_picklable():
    m = ExactMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    half = ExactMatrix.from_rows([["1/2", 0]])
    assert pickle.loads(pickle.dumps(half)) == half == copy.deepcopy(half)
    with pytest.raises(IndexError):
        m[2, 0]
    assert m[-1, -1] == 1


# ---- the walk builders against the arc definitions, byte for byte

def _reference_json(rows) -> str:
    """The wire format built straight from Fraction rows, without ExactMatrix."""
    return json.dumps({"rows": len(rows), "cols": len(rows[0]) if rows else 0,
                       "entries": [[str(x) for x in row] for row in rows]})


def _reference_matrices(g) -> dict[str, list[list[Fraction]]]:
    arcs = arc_table(g).arcs
    deg = g.degrees()
    adjacent = set(g.edges) | {(v, u) for u, v in g.edges}
    vertices = range(g.n)
    return {
        # U[e][f] = 2/deg(o(e)) - [f = e reversed] when f ends where e starts
        "grover": [[F(2, deg[oe]) - (1 if (of, tf) == (te, oe) else 0) if tf == oe else F(0)
                    for (of, tf) in arcs] for (oe, te) in arcs],
        # B[e][f] = 1 when f starts where e ends and f is not e reversed
        "edge": [[F(1) if of == te and tf != oe else F(0) for (of, tf) in arcs]
                 for (oe, te) in arcs],
        "transition": [[F(1, deg[u]) if (u, v) in adjacent else F(0) for v in vertices]
                       for u in vertices],
        "adjacency": [[F(1) if (u, v) in adjacent else F(0) for v in vertices] for u in vertices],
        "degree": [[F(deg[u]) if u == v else F(0) for v in vertices] for u in vertices],
    }


def test_walk_matrices_json_matches_the_arc_definitions():
    for name, g in builtin_corpus():
        adjacency, degree = adjacency_and_degree(g)
        built = {"grover": grover_matrix(g), "edge": edge_matrix(g),
                 "transition": transition_matrix(g), "adjacency": adjacency, "degree": degree}
        for kind, rows in _reference_matrices(g).items():
            want = _reference_json(rows)
            assert built[kind].to_json() == want, (name, kind)
            assert ExactMatrix(rows).to_json() == want, (name, kind)
            assert ExactMatrix.from_rows([[str(x) for x in row] for row in rows]).to_json() == want
            assert ExactMatrix(rows) == built[kind], (name, kind)
