import pytest
from hypothesis import given, settings

from azw import Graph, arc_table, build_graph, builtin_corpus, generate, graph_from_json
from azw.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParameterError,
    SelfLoopError,
)
from conftest import connected_graphs


def test_k2_smallest_graph():
    g = build_graph(2, [(0, 1)])
    assert g.m == 1
    assert g.degrees() == (1, 1)
    assert g.betti == 0


def test_single_vertex_graph_is_valid():
    g = build_graph(1, [])
    assert (g.n, g.m, g.betti) == (1, 0, 0)
    assert len(arc_table(g)) == 0


def test_c4_build_matches_generate():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g == generate("cycle", 4)
    assert g.m == 4
    assert g.degrees() == (2, 2, 2, 2)


@pytest.mark.parametrize("n, edges, exc", [
    (3, [(0, 0)], SelfLoopError),
    (3, [(0, 1), (0, 1)], DuplicateEdgeError),
    (3, [(0, 1), (1, 0)], DuplicateEdgeError),
    (4, [(0, 1), (2, 3)], DisconnectedError),
    (3, [(0, 3)], IndexOutOfRangeError),
    (3, [(0, -1)], IndexOutOfRangeError),
    (0, [], InvalidParameterError),
])
def test_build_rejections(n, edges, exc):
    with pytest.raises(exc):
        build_graph(n, edges)


def test_arc_table_k2():
    t = arc_table(build_graph(2, [(0, 1)]))
    assert t.arcs == ((0, 1), (1, 0))
    assert [t.inverse(k) for k in range(2)] == [1, 0]


def test_arc_table_involution_and_count():
    t = arc_table(generate("cycle", 3))
    assert len(t) == 6
    for k in range(6):
        assert t.inverse(t.inverse(k)) == k
        assert t.origin(t.inverse(k)) == t.terminus(k)
        assert t.terminus(t.inverse(k)) == t.origin(k)


def test_arc_table_c4_has_2m_arcs():
    assert len(arc_table(generate("cycle", 4))) == 8


def test_arc_table_independent_of_input_order():
    a = build_graph(4, [(3, 0), (2, 3), (1, 2), (0, 1)])
    b = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert a == b
    assert arc_table(a) == arc_table(b)


@pytest.mark.parametrize("n", range(3, 9))
def test_cycles_are_2_regular(n):
    assert set(generate("cycle", n).degrees()) == {2}


def test_standard_families():
    k4 = generate("complete", 4)
    assert (k4.n, k4.m) == (4, 6)
    pet = generate("petersen")
    assert (pet.n, pet.m) == (10, 15)
    assert set(pet.degrees()) == {3}
    s5 = generate("star", 5)
    assert (s5.n, s5.m) == (6, 5)
    assert sorted(s5.degrees()) == [1, 1, 1, 1, 1, 5]
    k33 = generate("complete_bipartite", 3, 3)
    assert (k33.n, k33.m) == (6, 9)
    p4 = generate("path", 4)
    assert (p4.n, p4.m) == (4, 3)


@pytest.mark.parametrize("family, params", [
    ("cycle", (2,)),
    ("path", (1,)),
    ("complete", (1,)),
    ("complete_bipartite", (0, 3)),
    ("star", (0,)),
    ("petersen", (5,)),
    ("moebius", ()),
    # integer parameters only, as in build_graph: no float, str or bool
    ("cycle", (3.5,)),
    ("complete", ("4",)),
    ("cycle", (True,)),
    ("star", (True,)),
])
def test_generate_rejections(family, params):
    with pytest.raises(InvalidParameterError):
        generate(family, *params)


@pytest.mark.parametrize("family, params", [
    ("cycle", (1_000_001,)),
    ("path", (1_000_002,)),
    ("complete", (1415,)),
    ("complete_bipartite", (1000, 1001)),
    ("star", (1_000_001,)),
])
def test_generate_refuses_more_than_a_million_edges(family, params):
    # each member has just over 10^6 edges, refused before its edge list,
    # which would take seconds and hundreds of MB to build
    with pytest.raises(InvalidParameterError, match="edges"):
        generate(family, *params)


def test_json_round_trip():
    g = generate("petersen")
    assert graph_from_json(g.to_json()) == g


@pytest.mark.parametrize("text, exc", [
    ("not json", InvalidParameterError),
    ('{"edges": [[0, 1]]}', InvalidParameterError),
    ('{"n": 2.5, "edges": [[0, 1]]}', InvalidParameterError),
    ('{"n": 2, "edges": "nope"}', InvalidParameterError),
    ('{"n": 4, "edges": [[0, 1], [2, 3]]}', DisconnectedError),
    ('{"n": 3, "edges": [[0, 0], [0, 1], [1, 2]]}', SelfLoopError),
])
def test_json_rejections(text, exc):
    with pytest.raises(exc):
        graph_from_json(text)


def test_builtin_corpus_names_and_validity():
    named = builtin_corpus()
    names = [name for name, _ in named]
    assert len(names) == len(set(names)) == 12
    assert "petersen" in names and "K2" in names
    for _, g in named:
        assert isinstance(g, Graph)
        assert sum(g.degrees()) == 2 * g.m


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees()) == 2 * g.m


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_arc_inversion_is_involutive(g):
    t = arc_table(g)
    assert len(t) == 2 * g.m
    for k in range(len(t)):
        assert t.inverse(k) == k ^ 1
        assert t.arcs[t.inverse(k)] == (t.terminus(k), t.origin(k))


def test_too_few_edges_refused_before_allocating():
    # a connected graph needs n - 1 edges; n = 1e9 must not build 1e9
    # adjacency lists on the way to DisconnectedError
    with pytest.raises(DisconnectedError, match="cannot connect"):
        build_graph(10**9, [])
