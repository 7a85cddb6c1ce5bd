"""Fuzzing of the text parsers: on any input, parse_graph, parse_word and
parse_hom either return a value or raise ValueError / OSError."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag.embedding import parse_hom
from raag.graphs import Graph, complete_graph, format_graph, parse_graph, path_complement
from raag.words import parse_word

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

# no "/" so that a fuzzed path in a hom file stays inside the fixture directory
_ANY_TEXT = st.text(alphabet=st.characters(blacklist_characters="/"), max_size=40)


def _texts(head, tail):
    """Texts whose first lines are drawn from head (one list of candidates
    per line) and whose remaining lines from tail or arbitrary text."""
    lines = [st.sampled_from(c) for c in head]
    rest = st.lists(st.one_of(st.sampled_from(tail), _ANY_TEXT), max_size=3)
    return st.tuples(*lines, rest).map(lambda t: "\n".join([*t[:-1], *t[-1]]))


def _survives(parse, *args):
    try:
        parse(*args)
    except (ValueError, OSError):
        pass


_GRAPH_TEXTS = _texts(
    [
        ["graph g", "graph", "graph a b", "graph g!"],
        ["vertices: a b c", "vertices: a a", "vertices:", "vertices: a-b"],
        ["edges: a-b b-c", "edges:", "edges: a-a", "edges: a-b b-a", "edges: a-z", "edges: a--b"],
    ],
    ["edges: a-b", ""],
)


@FUZZ
@given(st.one_of(_ANY_TEXT, _GRAPH_TEXTS))
def test_parse_graph_fuzz(text):
    _survives(parse_graph, text)


_WORD_GRAPHS = (complete_graph(2, prefix="a"), Graph("one", ["1", "x"]))
_WORD_TOKENS = ["a1", "a2^-1", "1", "x", "x^-1", "^-1", "a1^-1^-1", "a3", "a1^1"]


@FUZZ
@given(
    st.sampled_from(_WORD_GRAPHS),
    st.one_of(_ANY_TEXT, st.lists(st.one_of(st.sampled_from(_WORD_TOKENS), _ANY_TEXT)).map(" ".join)),
)
def test_parse_word_fuzz(graph, text):
    _survives(parse_word, graph, text)


@pytest.fixture(scope="module")
def hom_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hom")
    (d / "lam.txt").write_text(format_graph(path_complement(2)))
    (d / "t.txt").write_text(format_graph(complete_graph(2, prefix="a")))
    (d / "bad.txt").write_text("graph bad\n")
    return str(d)


_HOM_TEXTS = _texts(
    [
        ["hom", "hom x"],
        ["source: lam.txt", "source: missing.txt", "source: bad.txt", "source: ."],
        ["target: t.txt", "target: missing.txt", "target: bad.txt"],
    ],
    ["map v1 = a1", "map v2 = a2^-1 a1", "map v1 =", "map v1 a1", "map x = a1", "map v2 = b"],
)


@FUZZ
@given(st.one_of(_ANY_TEXT, _HOM_TEXTS))
def test_parse_hom_fuzz(hom_dir, text):
    _survives(parse_hom, text, hom_dir)
