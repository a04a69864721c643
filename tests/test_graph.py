import json

import pytest
from hypothesis import given, settings

from homology_lab.complexes import clique_complex
from homology_lab.errors import GraphFormatError
from homology_lab.graph import (
    MAX_EXPONENT,
    bowtie,
    graph_to_json,
    join,
    join_all,
    make_graph,
    octahedron,
    parse_graph,
    qubit_graph,
    relabel,
    thicken,
    two_points,
    unweighted,
)

from conftest import graphs


def test_parse_smallest_graph():
    g = parse_graph('{"vertices":[{"id":"a","w":0},{"id":"b","w":0}],"edges":[["a","b"]]}')
    assert g.vertices == ("a", "b")
    assert g.n_edges == 1


def test_parse_rejects_unknown_vertex():
    with pytest.raises(GraphFormatError):
        parse_graph('{"vertices":[{"id":"a","w":0}],"edges":[["a","z"]]}')


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        '{"vertices":[{"id":"a","w":-1}]}',
        '{"vertices":[{"id":"a","w":0},{"id":"a","w":0}]}',
        '{"vertices":[{"id":"a","w":0}],"edges":[["a","a"]]}',
        '{"vertices":[{"id":"a","w":0},{"id":"b","w":0}],"edges":[["a","b"],["b","a"]]}',
        '{"vertices":[{"id":"a","w":0.5}]}',
    ],
)
def test_parse_rejects_bad_documents(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_exponent_bound_keeps_levels_in_int64():
    """The largest exponent is accepted and its edge's level is exact; one
    more is rejected."""
    g = make_graph({"a": MAX_EXPONENT, "b": MAX_EXPONENT}, [("a", "b")])
    assert clique_complex(g, 1).levels[1].tolist() == [2 * MAX_EXPONENT]
    with pytest.raises(GraphFormatError, match="above 2147483647"):
        make_graph({"a": MAX_EXPONENT + 1})


def test_roundtrip_is_canonical():
    g = make_graph({"b": 1, "a": 0}, [("b", "a")])
    text = graph_to_json(g)
    assert parse_graph(text) == g
    doc = json.loads(text)
    assert [v["id"] for v in doc["vertices"]] == ["a", "b"]


def test_join_of_two_point_graphs_is_square():
    g = join_all([two_points(), two_points()])
    assert g == octahedron(2)
    assert g.n_vertices == 4 and g.n_edges == 4
    # a 4-cycle: every vertex has degree 2
    assert all(len(g.neighbors(v)) == 2 for v in g.vertices)


def test_join_with_empty_graph_is_identity():
    g = bowtie()
    assert join(g, make_graph({}, [])) == g


def test_join_rejects_label_collision():
    with pytest.raises(GraphFormatError):
        join(bowtie(), bowtie())


def test_folded_join_gives_octahedron():
    g = octahedron(3)
    assert g.n_vertices == 6 and g.n_edges == 12


def test_octahedron_base_case_and_errors():
    assert octahedron(1).n_edges == 0
    assert octahedron(1).n_vertices == 2
    with pytest.raises(GraphFormatError):
        octahedron(0)


def test_bowtie_shape():
    g = bowtie()
    assert g.n_vertices == 7
    assert g.n_edges == 8
    for loop in (("x", "a3", "a2", "a4"), ("x", "b3", "b2", "b4")):
        for i in range(4):
            assert loop[(i + 1) % 4] in g.neighbors(loop[i])


def test_qubit_graph_1_is_namespaced_bowtie():
    g = qubit_graph(1)
    stripped = relabel(g, {v: v.removeprefix("q1.") for v in g.vertices})
    assert stripped == bowtie()


def test_qubit_graph_2_counts():
    g = qubit_graph(2)
    assert g.n_vertices == 14
    assert g.n_edges == 8 + 8 + 49


def test_qubit_graph_rejects_zero():
    with pytest.raises(GraphFormatError):
        qubit_graph(0)


def test_thicken_counts():
    g = octahedron(2)  # the 4-cycle
    t = thicken(g)
    assert t.n_vertices == 2 * g.n_vertices
    assert t.n_edges == 3 * g.n_edges + g.n_vertices


def test_thicken_single_vertex():
    t = thicken(unweighted(["a"]))
    assert t.n_vertices == 2 and t.n_edges == 1


def test_thicken_rejects_bad_order():
    with pytest.raises(GraphFormatError):
        thicken(two_points(), order=["0"])


@settings(max_examples=10, deadline=None)
@given(graphs(max_vertices=6))
def test_thicken_counts_property(g):
    t = thicken(g)
    assert t.n_vertices == 2 * g.n_vertices
    assert t.n_edges == 3 * g.n_edges + g.n_vertices
