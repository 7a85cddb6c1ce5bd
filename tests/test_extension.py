import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag import _kernel, _purekernel
from raag.extension import (
    _conjugators,
    ball_as_graph,
    ext_ball,
    ext_vertex,
)
from raag.graphs import (
    Graph,
    complete_graph,
    full_embedding_search,
    path_complement,
    path_graph,
)
from raag.words import (
    Word,
    canonical_form,
    commutator,
    conjugate,
    is_reduced,
    is_trivial,
    parse_word,
    product,
    reduce,
    support,
)

from conftest import (
    all_labeled_graphs,
    assert_same_as_rebuilt,
    cycle_graph,
    drawn_graphs,
    iso_class_representatives,
    random_graph,
    random_word_letters,
)
from reference import enumerate_reduced_words, ext_adjacent, oracle_is_trivial

EDGE = Graph("edge", ["a", "b"], [("a", "b")])
FREE2 = Graph("free2", ["a", "b"])


# -- single vertices -------------------------------------------------------------


def test_ext_vertex_identity_conjugator():
    x = ext_vertex("a", Word(FREE2, []))
    assert str(x.element) == "a" and x.base == "a"
    assert x.name == "a@a"


def test_ext_vertex_commuting_conjugator_acts_trivially():
    x = ext_vertex("a", parse_word(EDGE, "b"))
    assert str(x.element) == "a"


def test_ext_vertex_free_conjugate_is_distinct():
    x = ext_vertex("a", parse_word(FREE2, "b"))
    assert str(x.element) == "b^-1 a b"
    assert x != ext_vertex("a", Word(FREE2, []))
    assert x.name == "a@b^-1.a.b"


def test_ext_vertex_rejects_foreign_base():
    with pytest.raises(ValueError, match="foreign"):
        ext_vertex("z", Word(FREE2, []))


def test_ext_adjacent_base_generators():
    x = ext_vertex("a", Word(EDGE, []))
    y = ext_vertex("b", Word(EDGE, []))
    assert ext_adjacent(x, y)


def test_ext_adjacent_distinct_free_conjugates_never_commute():
    x = ext_vertex("a", Word(FREE2, []))
    y = ext_vertex("a", parse_word(FREE2, "b"))
    assert not ext_adjacent(x, y)
    # cross-check by reducing the commutator directly
    assert not is_trivial(
        commutator(x.element.word, y.element.word)
    )


def test_ext_adjacent_is_irreflexive():
    x = ext_vertex("a", Word(EDGE, []))
    assert not ext_adjacent(x, x)


def test_ext_adjacent_rejects_source_mismatch():
    with pytest.raises(ValueError, match="different source"):
        ext_adjacent(ext_vertex("a", Word(EDGE, [])), ext_vertex("a", Word(FREE2, [])))


# -- reduced-word enumeration ------------------------------------------------------


def test_enumerate_reduced_words_shortlex():
    words = list(enumerate_reduced_words(FREE2, 2))
    # lengths ascend, every word reduced, no duplicates
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    assert all(is_reduced(w) for w in words)
    assert len({w.letters for w in words}) == len(words)
    # free group on 2 generators: 1 + 4 + 4*3 reduced words up to length 2
    assert len(words) == 17


def test_enumerate_reduced_words_rejects_negative_length():
    with pytest.raises(ValueError, match="max_len must be >= 0"):
        list(enumerate_reduced_words(FREE2, -1))


def test_enumerate_reduced_words_collapses_on_abelian():
    words = list(enumerate_reduced_words(EDGE, 2))
    # Z^2: enumeration keeps all 17 reduced spellings of length <= 2 (a b and
    # b a both), against the 13 elements, the lattice points at L1 distance
    # <= 2, that _conjugators yields
    assert all(is_reduced(w) for w in words)
    assert Word(EDGE, []) in words
    assert len(words) == 17
    assert len(list(_conjugators(EDGE, 2))) == 13
    assert len(list(_conjugators(FREE2, 2))) == 17


def _shortlex(codes):
    return len(codes), [(abs(c), c < 0) for c in codes]


def _shortened_by(g, word, sign, left):
    """The mask of the generators a for which a^sign word (left) or
    word a^sign (not left) is shorter than word."""
    mask = 0
    for i, v in enumerate(g.vertices):
        letter = Word(g, [(v, sign)])
        if len(reduce(letter * word if left else word * letter)) < len(word):
            mask |= 1 << i
    return mask


def test_conjugators_are_the_elements_with_their_first_letters(monkeypatch):
    # one canonical word per element, in shortlex order; the first-letter
    # mask holds the generators a for which a h or a^-1 h is shorter than h,
    # the last-letter masks those for which h a^-1, respectively h a, is;
    # and ext_ball normalizes one conjugate per vertex, never a repeat
    normalize = _kernel.normalize
    calls = []

    def counting(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(_kernel, "normalize", counting)
    for n in range(1, 6):
        for g in iso_class_representatives(n):
            for radius in (0, 1, 2, 3) if n <= 3 else (0, 1, 2):
                elements = {canonical_form(w).word.codes() for w in enumerate_reduced_words(g, radius)}
                got = list(_conjugators(g, radius))
                assert [h for h, *_ in got] == sorted(elements, key=_shortlex), (g.edges(), radius)
                for h, first, pos, neg in got:
                    word = Word._from_codes(g, h)
                    first_ref = _shortened_by(g, word, 1, True) | _shortened_by(g, word, -1, True)
                    assert first == first_ref, (g.edges(), h)
                    assert pos == _shortened_by(g, word, -1, False), (g.edges(), h)
                    assert neg == _shortened_by(g, word, 1, False), (g.edges(), h)
                calls.clear()
                ball = ext_ball(g, radius)
                assert len(calls) == len(ball.vertices), (g.edges(), radius)


def test_ball_runs_the_kernel_only_on_products_that_cancel(monkeypatch):
    # m = k h^-1 goes through survivors exactly when it is not reduced, once
    # for each pair (x, y) that passes the base and support pre-tests, where
    # h and k are the first conjugators of x and y in _conjugators' order
    survivors = _kernel.survivors
    calls = []

    def counting(codes, noncomm):
        calls.append(tuple(codes))
        return survivors(codes, noncomm)

    monkeypatch.setattr(_kernel, "survivors", counting)
    for n in range(1, 6):
        for g in iso_class_representatives(n):
            for radius in (0, 1, 2, 3) if n <= 3 else (0, 1, 2):
                firsts = {}
                for h, *_ in _conjugators(g, radius):
                    w = Word._from_codes(g, h)
                    for v in g.vertices:
                        rep = canonical_form(conjugate(Word(g, [(v, 1)]), w))
                        firsts.setdefault(rep.word.codes(), (v, rep.word, w))
                firsts = list(firsts.values())
                star = {v: frozenset((v, *g.neighbors(v))) for v in g.vertices}
                reach = [star[v] | support(h) for v, _, h in firsts]
                expected = []
                for i, (v, x, h) in enumerate(firsts):
                    for j, (u, y, k) in enumerate(firsts):
                        m = k * h.inverse()
                        if (
                            j > i
                            and g.adjacent(u, v)
                            and support(y) <= reach[i]
                            and support(x) <= reach[j]
                            and len(reduce(m)) < len(m)
                        ):
                            expected.append(m.codes())
                calls.clear()
                ext_ball(g, radius)
                assert sorted(calls) == sorted(expected), (g.edges(), radius)


# -- balls ------------------------------------------------------------------------------


def test_radius_zero_ball_reproduces_graph():
    g = Graph("g", ["a", "b", "c"], [("a", "b")])
    ball = ext_ball(g, 0)
    assert [x.base for x in ball.vertices] == list(g.vertices)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            assert ball.adjacent(i, j) == g.adjacent(g.vertices[i], g.vertices[j])
    _check_ball_graph(ball)


def test_single_vertex_ball_is_single_vertex():
    g = Graph("g", ["a"])
    for radius in (0, 1, 2, 3):
        assert len(ext_ball(g, radius).vertices) == 1


def test_free2_radius1_ball_has_six_vertices():
    ball = ext_ball(FREE2, 1)
    reps = {str(x.element) for x in ball.vertices}
    assert reps == {
        "a",
        "b",
        "b^-1 a b",
        "b a b^-1",
        "a^-1 b a",
        "a b a^-1",
    }
    assert len(ball.vertices) == 6


def test_ball_edges_match_pairwise_commutation_oracle():
    # independent route: decide each edge by the brute-force word oracle
    ball = ext_ball(FREE2, 1)
    for i in range(len(ball.vertices)):
        for j in range(i + 1, len(ball.vertices)):
            wi = ball.vertices[i].element.word
            wj = ball.vertices[j].element.word
            verdict = oracle_is_trivial(commutator(wi, wj))
            assert verdict is not None
            assert ball.adjacent(i, j) == verdict


def _commutator_edges(ball, trivial):
    words = [x.element.word for x in ball.vertices]
    edges = set()
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            verdict = trivial(commutator(words[i], words[j]))
            assert verdict is not None
            if verdict:
                edges.add((i, j))
    return edges


def test_ball_edges_match_commutator_reference_on_small_graphs():
    # ext_ball decides adjacency from conjugator supports; the reduced
    # commutator, and on the smallest balls the brute-force oracle, decide it
    # independently (radius 1 on at most 4 vertices is covered by the 5-vertex
    # pass)
    for n in range(1, 5):
        for g in iso_class_representatives(n):
            for radius in (0, 2):
                ball = ext_ball(g, radius)
                assert ball.edges == _commutator_edges(ball, is_trivial), (g.edges(), radius)
    for n in range(1, 6):
        for g in iso_class_representatives(n):
            ball = ext_ball(g, 1)
            assert ball.edges == _commutator_edges(ball, is_trivial), g.edges()
            assert ball.edges == _commutator_edges(ball, oracle_is_trivial), g.edges()


def _check_ball_graph(ball):
    """ball.adjacent agrees with ball.edges on every index pair, i == j
    included, and ball_as_graph(ball) is a well-formed graph on the vertex
    names with the same edges."""
    edges = ball.edges
    n = len(ball.vertices)
    for i in range(n):
        for j in range(n):
            assert ball.adjacent(i, j) == ((min(i, j), max(i, j)) in edges), (i, j)
    bg = ball_as_graph(ball)
    assert_same_as_rebuilt(bg)
    assert bg.vertices == tuple(x.name for x in ball.vertices)
    assert {(bg.index(u), bg.index(v)) for u, v in bg.edges()} == edges


def _reference_ext_ball(g, radius):
    """The ball by the direct rule: the canonical form of v^w for every
    conjugator w and generator v, and each pair (x, y) that passes the two
    support pre-tests decided by whether the support of h y h^-1 lies in
    st(v), where h is the first conjugator of x = v^h."""
    verts = {}
    for w in enumerate_reduced_words(g, radius):
        for v in g.vertices:
            rep = canonical_form(conjugate(Word(g, [(v, 1)]), w))
            verts.setdefault(rep.word.codes(), (v, rep, w))
    firsts = list(verts.values())
    star = {v: frozenset((v, *g.neighbors(v))) for v in g.vertices}
    supports = [support(rep.word) for _, rep, _ in firsts]
    reach = [star[v] | support(h) for v, _, h in firsts]
    edges = set()
    for i, (v, _, h) in enumerate(firsts):
        for j, (u, rep, _) in enumerate(firsts):
            if (
                j > i
                and g.adjacent(u, v)
                and supports[j] <= reach[i]
                and supports[i] <= reach[j]
                and support(product(h, rep.word, h.inverse())) <= star[v]
            ):
                edges.add((i, j))
    return [(v, rep.word.codes()) for v, rep, _ in firsts], edges


def _ball_summary(ball):
    return [(x.base, x.element.word.codes()) for x in ball.vertices], set(ball.edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn_graphs(1, 6, "a"), st.integers(1, 2))
def test_ball_matches_the_support_reference(g, radius):
    # the double-coset scan of k h^-1 decides the same edges as the support
    # of h y h^-1, and vertices built from codes come in the same order
    ball = ext_ball(g, radius)
    assert _ball_summary(ball) == _reference_ext_ball(g, radius), (g.edges(), radius)
    _check_ball_graph(ball)


def test_ball_under_the_compiled_kernel_matches_the_pure_kernel(compiled_kernel, monkeypatch):
    rng = random.Random(2013)
    graphs = [(cycle_graph(5), 2), (path_graph(4), 3)] + [
        (random_graph(rng, rng.randint(2, 6), rng.random()), rng.randint(1, 2)) for _ in range(6)
    ]
    monkeypatch.setattr(_kernel, "normalize", _purekernel.normalize)
    monkeypatch.setattr(_kernel, "survivors", _purekernel.survivors)
    pure = [ext_ball(g, radius) for g, radius in graphs]
    monkeypatch.setattr(_kernel, "normalize", compiled_kernel.normalize)
    monkeypatch.setattr(_kernel, "survivors", compiled_kernel.survivors)
    for (g, radius), expected in zip(graphs, pure):
        assert ext_ball(g, radius) == expected, (g.edges(), radius)


def test_ball_vertices_monotone_in_radius():
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 3), rng.random())
        small = {x.element for x in ext_ball(g, 0).vertices}
        big = {x.element for x in ext_ball(g, 1).vertices}
        assert small <= big


def test_ball_radius_negative_rejected():
    with pytest.raises(ValueError):
        ext_ball(FREE2, -1)


def test_dedup_matches_quotient_triviality():
    rng = random.Random(41)
    checked_equal = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 3), rng.random())
        v = rng.choice(g.vertices)
        w1 = Word(g, random_word_letters(rng, g, 3))
        w2 = Word(g, random_word_letters(rng, g, 3))
        gen = Word(g, [(v, 1)])
        c1 = canonical_form(conjugate(gen, w1))
        c2 = canonical_form(conjugate(gen, w2))
        quotient_trivial = is_trivial(
            product(conjugate(gen, w1), conjugate(gen, w2).inverse())
        )
        assert (c1 == c2) == quotient_trivial
        checked_equal += c1 == c2
    assert checked_equal > 10


# -- structure of balls (Kim & Koberda, Geom. Topol. 2013) ----------------------------


def _check_doubling_along_stars(g, radius):
    """Kim & Koberda build the extension graph by doubling along stars: on
    Gamma together with its conjugate by v, x^v = x exactly for x in st(v),
    and x ~ y^v for y outside st(v) iff x is in st(v) and x ~ y. Conjugation
    by w is an automorphism, so the same double appears on the conjugates by
    w and by v w whenever both conjugators have reduced length <= radius.
    Vertices are built with ext_vertex and located by element; the edges
    are read off the ball."""
    ball = ext_ball(g, radius)
    where = {x.element: i for i, x in enumerate(ball.vertices)}

    def locate(x, w):
        return where[ext_vertex(x, w).element]

    checked = 0
    for w in enumerate_reduced_words(g, radius):
        base = [(x, locate(x, w)) for x in g.vertices]
        for v in g.vertices:
            vw = Word(g, [(v, 1)]) * w
            if len(canonical_form(vw).word) > radius:
                continue
            star = {v, *g.neighbors(v)}
            layers = [base, [(x, locate(x, vw)) for x in g.vertices]]
            for (x, i), (_, j) in zip(*layers):
                assert (i == j) == (x in star), (g.edges(), str(w), v, x)
            for e in (0, 1):
                for f in (0, 1):
                    for x, i in layers[e]:
                        for y, j in layers[f]:
                            if i == j:
                                continue
                            expected = g.adjacent(x, y) and (e == f or x in star or y in star)
                            assert ball.adjacent(i, j) == expected, (g.edges(), str(w), v, x, y)
                            checked += 1
    return checked


def test_balls_double_along_stars():
    for g in all_labeled_graphs(4):
        for radius in (1, 2):
            _check_doubling_along_stars(g, radius)
    for g in (path_graph(5), cycle_graph(5)):
        for radius in (1, 2):
            assert _check_doubling_along_stars(g, radius) > 0


def test_balls_of_trees_are_forests():
    # the extension graph of a tree is a tree, so its balls, induced
    # subgraphs of it, are forests: no edge closes a cycle
    star = Graph("K13", ["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")])
    for g in [path_graph(n) for n in range(2, 6)] + [star]:
        for radius in (0, 1, 2):
            ball = ext_ball(g, radius)
            root = list(range(len(ball.vertices)))

            def find(i):
                while root[i] != i:
                    root[i] = root[root[i]]
                    i = root[i]
                return i

            for i, j in ball.edges:
                a, b = find(i), find(j)
                assert a != b, (g.name, radius, ball.vertices[i].name, ball.vertices[j].name)
                root[a] = b


# -- bridge to the graph layer -------------------------------------------------------------


def test_ball_as_graph_radius0_k3():
    bg = ball_as_graph(ext_ball(complete_graph(3), 0))
    assert bg.vertices == ("v1@v1", "v2@v2", "v3@v3")
    assert bg.edge_count() == 3
    assert_same_as_rebuilt(bg)


def test_ball_as_graph_radius0_edgeless():
    bg = ball_as_graph(ext_ball(FREE2, 0))
    assert bg.vertices == ("a@a", "b@b")
    assert bg.edge_count() == 0
    assert_same_as_rebuilt(bg)


def test_ball_as_graph_rejects_colliding_names():
    # '.' inside vertex names lets two distinct conjugates print alike
    ball = ext_ball(Graph("g", ["a.a", "b...", "a"]), 2)
    with pytest.raises(ValueError, match=re.escape("duplicate vertex name 'b...@a.a.a^-1.b....a.a.a^-1'")):
        ball_as_graph(ball)


def test_ball_as_graph_radius1_free2():
    ball = ext_ball(FREE2, 1)
    bg = ball_as_graph(ball)
    assert len(bg) == 6
    assert bg.edge_count() == len(ball.edges)


def test_radius0_adjacency_equals_source_adjacency_exhaustive():
    for n in range(1, 4):
        for g in all_labeled_graphs(n):
            ball = ext_ball(g, 0)
            assert [x.base for x in ball.vertices] == list(g.vertices)
            # base-generator supports are singletons
            assert all(support(x.element.word) == {x.base} for x in ball.vertices)
            for i in range(n):
                for j in range(i + 1, n):
                    assert ball.adjacent(i, j) == g.adjacent(g.vertices[i], g.vertices[j])
            _check_ball_graph(ball)


# -- full embeddings into balls ---------------------------------------------------


@pytest.mark.parametrize("target, lam", [
    (path_complement(5, prefix="a"), path_complement(6, prefix="x")),
    (cycle_graph(4), path_graph(6, prefix="x")),
    (cycle_graph(4), cycle_graph(5, prefix="x")),
])
def test_no_full_embedding_into_radius2_ball(target, lam):
    # the most expensive negatives of the ext_query benchmark workload: the
    # search has to rule out every placement in a 105- or 36-vertex ball
    bg = ball_as_graph(ext_ball(target, 2))
    assert full_embedding_search(lam, bg) is None
