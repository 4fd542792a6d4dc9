from fractions import Fraction

import pytest
from hypothesis import given, settings

from azw import (
    ExactMatrix,
    adjacency_and_degree,
    det_exact,
    edge_matrix,
    generate,
    grover_matrix,
    positive_support,
    transition_matrix,
)
from azw.errors import NonSquareError
from conftest import connected_graphs

F = Fraction

# det of the Grover operator for every corpus graph, frozen from the
# fraction-free elimination (cross-checked against the Hessenberg
# characteristic polynomial in test_polynomials).
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
