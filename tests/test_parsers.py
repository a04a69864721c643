"""Fuzz the two JSON input schemas: every text parses or is a format error.

Documents start valid (a random graph, a random Hamiltonian) and get up to
two of their values, at any depth, replaced by arbitrary JSON; some texts
are cut in half or nested deeper than the interpreter's recursion limit.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab.errors import GraphFormatError
from homology_lab.graph import WeightedGraph, graph_to_json, parse_graph
from homology_lab.reduction import Hamiltonian, parse_hamiltonian

from conftest import graphs

LABELS = st.text(alphabet="ab01", max_size=3)
ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | LABELS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(LABELS, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def hamiltonian_docs(draw):
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)))
        bits = st.text(alphabet="01", min_size=len(support), max_size=len(support))
        amps = draw(st.dictionaries(bits, st.integers(-2, 2).filter(bool), min_size=1))
        terms.append({"support": support, "amps": amps})
    return {"n": n, "terms": terms}


def _paths(doc, here=()):
    yield here
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, here + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


@st.composite
def mutated(draw, docs):
    doc = draw(docs)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replaced(doc, path, draw(ANY_JSON))
    return doc


def texts(docs):
    as_text = mutated(docs).map(json.dumps)
    deep = st.integers(900, 3000).map(lambda d: "[" * d + "]" * d)
    return st.one_of(as_text, as_text, as_text.map(lambda t: t[: len(t) // 2]), deep)


def parses_or_format_error(parse, text, result_type):
    try:
        assert isinstance(parse(text), result_type)
    except GraphFormatError:
        pass


GRAPH_DOCS = graphs(max_vertices=5, wmax=1).map(lambda g: json.loads(graph_to_json(g)))


@settings(max_examples=200, deadline=None)
@given(texts(GRAPH_DOCS))
def test_parse_graph_returns_or_raises_format_error(text):
    parses_or_format_error(parse_graph, text, WeightedGraph)


@settings(max_examples=200, deadline=None)
@given(texts(hamiltonian_docs()))
def test_parse_hamiltonian_returns_or_raises_format_error(text):
    parses_or_format_error(parse_hamiltonian, text, Hamiltonian)


def test_parse_hamiltonian_bounds_the_amplitude_sum():
    """A state's gadget grows with its amplitude sum, so a large one is a
    format error at parse time, before any gadget is built."""
    def one_term(a):
        return '{"n": 1, "terms": [{"support": [0], "amps": {"0": %d, "1": 1}}]}' % a

    assert isinstance(parse_hamiltonian(one_term(511)), Hamiltonian)  # a sum of 512
    for a in (512, 10**23):
        with pytest.raises(GraphFormatError, match="amplitude sum"):
            parse_hamiltonian(one_term(a))
