import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag import _kernel, _purekernel, cli, embedding, extension, graphs
from raag.extension import (
    _conjugators,
    ball_as_graph,
    ext_ball,
    ext_vertex,
)
from raag.graphs import (
    Graph,
    _embedding_links,
    _forward_check,
    complement,
    complete_graph,
    full_embedding_search,
    induced_subgraph,
    path_complement,
    path_graph,
    verify_full_embedding,
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
    symmetric_sources,
)
from reference import (
    automorphisms_by_brute_force,
    closure,
    degree_prefilter,
    enumerate_reduced_words,
    ext_adjacent,
    oracle_is_trivial,
    stabilizer_orbits_by_brute_force,
)

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
    # one canonical word per element, in shortlex order; the support mask
    # holds its generators, the first-letter mask the generators a for which
    # a h or a^-1 h is shorter than h, and the last-letter masks those for
    # which h a^-1, respectively h a, is; and ext_ball builds every vertex
    # without normalizing anything
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
                for h, supp, first, pos, neg in got:
                    word = Word._from_codes(g, h)
                    assert supp == sum(1 << g.index(v) for v in support(word)), (g.edges(), h)
                    first_ref = _shortened_by(g, word, 1, True) | _shortened_by(g, word, -1, True)
                    assert first == first_ref, (g.edges(), h)
                    assert pos == _shortened_by(g, word, -1, False), (g.edges(), h)
                    assert neg == _shortened_by(g, word, 1, False), (g.edges(), h)
                calls.clear()
                ext_ball(g, radius)
                assert calls == [], (g.edges(), radius)


def _last_letters(g, h):
    """The signed letters c of the reduced codes h whose last occurrence is
    followed only by letters of generators adjacent to c's."""
    out = set()
    for k, c in enumerate(h):
        if c not in h[k + 1:] and all(g._nbr[abs(c) - 1] >> abs(d) - 1 & 1 for d in h[k + 1:]):
            out.add(c)
    return out


def _without_last(h, c):
    k = len(h) - 1 - h[::-1].index(c)
    return h[:k] + h[k + 1:]


def _kept_pairs(ball):
    """Per vertex v^h of the ball, (h, index of v), read from its codes
    canon(h^-1) v h."""
    g = ball.source
    return [(x.element.word.codes()[len(x.element.word) // 2 + 1:], g.index(x.base)) for x in ball.vertices]


def test_ball_conjugates_shared_last_letters_down_to_kept_parents(monkeypatch):
    # no kernel call decides an edge: for x = v^h and y = u^k whose first
    # conjugators share a signed last letter c, deleting the last c from
    # each leaves the first conjugators of two earlier vertices, and x ~ y
    # iff those parents are adjacent, for every shared letter
    survivors = []
    monkeypatch.setattr(_kernel, "survivors", lambda *args: survivors.append(args))
    resolved = 0
    for n in range(2, 6):
        for g in iso_class_representatives(n):
            for radius in (1, 2, 3) if n <= 3 else (1, 2):
                ball = ext_ball(g, radius)
                pairs = _kept_pairs(ball)
                where = {pair: i for i, pair in enumerate(pairs)}
                assert len(where) == len(ball.vertices)
                lasts = [_last_letters(g, h) for h, _ in pairs]
                for i, (h, v) in enumerate(pairs):
                    for j in range(i + 1, len(pairs)):
                        k, u = pairs[j]
                        for c in lasts[i] & lasts[j]:
                            hp, kp = _without_last(h, c), _without_last(k, c)
                            p, q = where[hp, v], where[kp, u]
                            assert p < i and q < j and len(hp) == len(h) - 1 and len(kp) == len(k) - 1
                            assert ball.adjacent(i, j) == ball.adjacent(p, q), (g.edges(), radius, h, k, c)
                            resolved += 1
    assert survivors == []
    assert resolved > 90000


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


def _conjugator_and_last_letters(x):
    """The conjugator h of a ball vertex x = h^-1 v h, read off its
    canonical word, and h's last letters: the signed codes of the letters
    that commute with (are adjacent in g to, so distinct from) every letter
    after them."""
    g, codes = x.element.word.graph, x.element.word.codes()
    h = codes[len(codes) // 2 + 1:]
    last = {c for p, c in enumerate(h)
            if all(g._nbr[abs(c) - 1] >> abs(d) - 1 & 1 for d in h[p + 1:])}
    return h, last


def _support_test_counts(ball, edges):
    """Check the double-coset support test on every pair of vertices x =
    v^h, y = u^k with adjacent bases and no shared last letter: an edge
    needs supp(h) | supp(k) inside st(u) | st(v) (Servatius). Returns how
    many such pairs are non-edges that pass, edges (which all pass), and
    non-edges that fail."""
    g = ball.source
    star = [g._nbr[i] | 1 << i for i in range(len(g))]
    conj = [_conjugator_and_last_letters(x) for x in ball.vertices]
    counts = [0, 0, 0]
    for i, j in itertools.combinations(range(len(ball.vertices)), 2):
        (h, hl), (k, kl) = conj[i], conj[j]
        v, u = (g.index(ball.vertices[t].base) for t in (i, j))
        if hl & kl or not g._nbr[v] >> u & 1:
            continue
        supp = sum({1 << abs(c) - 1 for c in h + k})
        if supp & ~(star[u] | star[v]):
            assert (i, j) not in edges, (g.edges(), ball.vertices[i], ball.vertices[j])
            counts[2] += 1
        else:
            counts[(i, j) in edges] += 1
    return counts


def test_ball_edges_match_commutator_reference_on_small_graphs():
    # ext_ball decides adjacency from conjugator supports; the reduced
    # commutator, and on the smallest balls the brute-force oracle, decide it
    # independently (radius 1 on at most 4 vertices is covered by the 5-vertex
    # pass). Every edge between vertices with no shared last letter passes
    # the double-coset support test, which passes some non-edges and fails
    # others.
    counts = [0, 0, 0]
    for n in range(1, 5):
        for g in iso_class_representatives(n):
            for radius in (0, 2):
                ball = ext_ball(g, radius)
                edges = _commutator_edges(ball, is_trivial)
                assert ball.edges == edges, (g.edges(), radius)
                counts = [a + b for a, b in zip(counts, _support_test_counts(ball, edges))]
    assert min(counts) > 0, counts
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
    # ext_ball calls no kernel, so rebuild every vertex with ext_vertex,
    # which does
    probes = [(x.base, Word._from_codes(ball.source, h))
              for ball in pure for x, (h, _) in zip(ball.vertices, _kept_pairs(ball))]
    by_pure = [ext_vertex(v, h) for v, h in probes]
    assert by_pure == [x for ball in pure for x in ball.vertices]
    monkeypatch.setattr(_kernel, "normalize", compiled_kernel.normalize)
    monkeypatch.setattr(_kernel, "survivors", compiled_kernel.survivors)
    for (g, radius), expected in zip(graphs, pure):
        assert ext_ball(g, radius) == expected, (g.edges(), radius)
    assert [ext_vertex(v, h) for v, h in probes] == by_pure


def _check_vertices_spelled_without_the_kernel(g, radius):
    """Every vertex v^h of the ball is spelled canon(h^-1) v h, which is
    the canonical word the kernel gives v^h."""
    ball = ext_ball(g, radius)
    for x, (h, gen) in zip(ball.vertices, _kept_pairs(ball)):
        codes = x.element.word.codes()
        hinv = canonical_form(Word._from_codes(g, h).inverse()).word.codes()
        assert codes == hinv + (gen + 1,) + h, (g.edges(), radius, codes)
        assert codes == ext_vertex(x.base, Word._from_codes(g, h)).element.word.codes(), (g.edges(), radius, codes)


def test_ball_vertices_are_the_canonical_inverse_then_base_then_conjugator():
    for n in range(2, 6):
        for g in iso_class_representatives(n):
            for radius in (1, 2, 3) if n <= 3 else (1, 2):
                _check_vertices_spelled_without_the_kernel(g, radius)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_graphs(1, 6, "a"), st.integers(1, 2))
def test_ball_vertices_match_the_kernel_on_drawn_graphs(g, radius):
    _check_vertices_spelled_without_the_kernel(g, radius)


def test_ball_makes_no_kernel_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel called")

    balls = [(cycle_graph(5), 2), (path_graph(4), 3), (path_complement(5), 2), (FREE2, 3)]
    expected = [ext_ball(g, radius) for g, radius in balls]
    monkeypatch.setattr(_kernel, "normalize", refuse)
    monkeypatch.setattr(_kernel, "survivors", refuse)
    assert [ext_ball(g, radius) for g, radius in balls] == expected


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


# -- symmetries of balls ------------------------------------------------------------


def _rows_without_symmetry(monkeypatch, g, radius):
    """The rows of the radius ball of g built with no lifted automorphism,
    so every row is computed from the rules rather than copied along an
    orbit."""
    with monkeypatch.context() as m:
        m.setattr(extension, "_lifted_automorphisms", lambda *args: ())
        return ext_ball(g, radius).nbr


def _check_lifted_automorphisms(monkeypatch, g, radius):
    """Each permutation of ball.automorphisms is an automorphism of the
    ball, whose rows are built without symmetry, that keeps conjugator
    length, and is either word reversal or the lift of an automorphism s of
    g, read off the radius-0 slice: it maps each vertex to the canonical
    form of the reversed word, respectively of s applied letter by letter.
    The lifts of g's automorphisms generate Aut(g)."""
    ball = ext_ball(g, radius)
    rows = _rows_without_symmetry(monkeypatch, g, radius)
    n, size = len(g), len(ball.vertices)
    words = [x.element.word for x in ball.vertices]
    aut = set(automorphisms_by_brute_force(g))
    sigmas = []
    for perm in ball.automorphisms:
        assert sorted(perm) == list(range(size)) and perm != tuple(range(size))
        for i in range(size):
            assert rows[perm[i]] == sum(1 << perm[j] for j in range(size) if rows[i] >> j & 1)
            assert len(words[perm[i]]) == len(words[i])
        sigma = perm[:n]
        if sigma == tuple(range(n)):
            images = [Word(g, list(reversed(w.letters))) for w in words]
        else:
            assert sigma in aut, (g.edges(), radius, sigma)
            images = [Word(g, [(g.vertices[sigma[g.index(v)]], e) for v, e in w.letters]) for w in words]
            sigmas.append(sigma)
        assert [canonical_form(w) for w in images] == [ball.vertices[perm[i]].element for i in range(size)]
    assert closure(sigmas, n) == aut, (g.edges(), radius)
    return ball


def test_lifted_automorphisms_are_automorphisms_of_the_ball(monkeypatch):
    reversed_somewhere = False
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for radius in (0, 1, 2):
                ball = _check_lifted_automorphisms(monkeypatch, g, radius)
                reversed_somewhere |= any(p[:n] == tuple(range(n)) for p in ball.automorphisms)
    assert reversed_somewhere
    for g in (path_graph(5), cycle_graph(5), cycle_graph(6), path_complement(5)):
        ball = _check_lifted_automorphisms(monkeypatch, g, 2)
        # word reversal and at least one lift of a non-trivial automorphism
        assert len({p[:len(g)] == tuple(range(len(g))) for p in ball.automorphisms}) == 2


def test_rows_copied_along_orbits_are_the_rows_built_without_symmetry(monkeypatch):
    # ext_ball computes one row per orbit of its automorphisms and maps it
    # to the rest of the orbit; computing every row gives the same ball
    balls = [(g, radius) for n in range(1, 6) for g in iso_class_representatives(n) for radius in (0, 1, 2)]
    balls += [(_named_graph(target, "a"), radius) for target, radius in sorted({q[:2] for q in EXT_QUERIES})]
    balls.append((cycle_graph(6), 2))
    copied = 0
    for g, radius in balls:
        ball = ext_ball(g, radius)
        assert ball.nbr == _rows_without_symmetry(monkeypatch, g, radius), (g.edges(), radius)
        copied += bool(ball.automorphisms) and len(ball.vertices) > 1
    assert copied > len(balls) // 2


def _named_graph(name, prefix):
    """C<n>: cycle, P<n>: path, P<n>c: complement of a path, K<n>: complete."""
    n = int(name[1:].rstrip("c"))
    if name[0] == "C":
        return cycle_graph(n, prefix)
    if name[0] == "K":
        return complete_graph(n, prefix=prefix)
    if name.endswith("c"):
        return path_complement(n, prefix=prefix)
    return path_graph(n, prefix=prefix)


# the (target, radius, source) queries of the ext_query benchmark workload
EXT_QUERIES = (
    ("C5", 1, "P8"), ("C5", 1, "C4"), ("C5", 1, "P5c"), ("C5", 1, "C7"), ("C5", 2, "C4"),
    ("P4", 2, "P8"), ("P4", 2, "C6"), ("P4", 2, "P5c"), ("P4", 2, "P7"), ("P4", 2, "C7"),
    ("P5c", 1, "P7"), ("P5c", 1, "C6"), ("P5c", 1, "P6"), ("P5c", 1, "K3"), ("P5c", 1, "C5"),
    ("P5c", 2, "P6"), ("P5c", 2, "K4"), ("P5c", 2, "P6c"),
    ("C4", 2, "P4"), ("C4", 2, "P5"), ("C4", 2, "P6"), ("C4", 2, "C5"),
    ("C6", 1, "C7"),
)
BALL_GRAPHS = {}


def _ball_graph(target, radius):
    if (target, radius) not in BALL_GRAPHS:
        BALL_GRAPHS[target, radius] = ball_as_graph(ext_ball(_named_graph(target, "a"), radius))
    return BALL_GRAPHS[target, radius]


def _without_symmetries(bg):
    return Graph._from_masks(bg.name, bg.vertices, bg._nbr)


def test_search_keeps_its_first_solution_under_ball_symmetries():
    found = []
    for target, radius, source in EXT_QUERIES:
        bg = _ball_graph(target, radius)
        assert bg._automorphisms
        lam = _named_graph(source, "x")
        got = full_embedding_search(lam, bg)
        assert got == full_embedding_search(lam, _without_symmetries(bg)), (target, radius, source)
        found.append(got is not None)
    assert found.count(True) == 7


def test_search_domains_on_the_ext_query_queries_are_the_degree_prefilter(monkeypatch):
    domains = []
    engine = graphs._forward_check
    monkeypatch.setattr(graphs, "_forward_check", lambda d, *rest: domains.append(d) or engine(d, *rest))
    for target, radius, source in EXT_QUERIES:
        bg, lam = _ball_graph(target, radius), _named_graph(source, "x")
        # the orderings read lam's stabilizer chain, whose generators come
        # from the same engine; build it first so only the search's domains
        # are recorded
        lam._stabilizer_chain()
        domains.clear()
        full_embedding_search(lam, bg)
        assert domains == [degree_prefilter(lam, bg)], (target, radius, source)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_graphs(1, 7, "x"), st.sampled_from(sorted({q[:2] for q in EXT_QUERIES})))
def test_search_keeps_its_first_solution_on_sampled_sources(lam, ball):
    bg = _ball_graph(*ball)
    assert full_embedding_search(lam, bg) == full_embedding_search(lam, _without_symmetries(bg))


def test_search_keeps_its_first_solution_for_symmetric_sources():
    # sources whose automorphisms give the lex-leader orderings something
    # to cut, into every ext_query ball and the 342-vertex C6 radius 2 ball
    found = 0
    for target, radius in sorted({q[:2] for q in EXT_QUERIES}) + [("C6", 2)]:
        bg = _ball_graph(target, radius)
        assert bg._automorphisms
        for lam in symmetric_sources():
            got = full_embedding_search(lam, bg)
            assert got == full_embedding_search(lam, _without_symmetries(bg)), (target, radius, lam.name)
            found += got is not None
    assert 60 < found < 8 * len(symmetric_sources())


@pytest.mark.parametrize("target", ["C5", "P5c"])
def test_ordered_engine_keeps_the_lex_leader_of_every_orbit_of_assignments(target):
    # the masked links keep exactly the assignments f with f(i) < f(s) for
    # every s of the orbit of i under the automorphisms of lam that fix
    # 0, ..., i - 1, and each assignment has an image f.a, a in Aut(lam),
    # among them: its lexicographically least one
    bg = _ball_graph(target, 1)
    names = {"C4", "C5", "K3", "E3", "P4c", "P5c", "K1,3"}
    sources = [lam for lam in symmetric_sources() if lam.name in names]
    assert len(sources) == len(names)
    kept = 0
    for lam in sources:
        n = len(lam)
        aut, orbits = automorphisms_by_brute_force(lam), stabilizer_orbits_by_brute_force(lam)
        domains = [(1 << len(bg)) - 1] * n
        everything = list(_forward_check(domains, _embedding_links(lam, bg)))
        ordered = list(_forward_check(domains, _embedding_links(lam, bg, lam._stabilizer_chain().orbits)))
        meets = [f for f in everything
                 if all(f[i] < f[s] for i in range(n) for s in range(i + 1, n) if orbits[i] >> s & 1)]
        assert ordered == meets, lam.name
        leaders = {min(tuple(f[p[k]] for k in range(n)) for p in aut) for f in everything}
        assert leaders == set(map(tuple, ordered)), lam.name
        kept += len(ordered)
    assert kept


def test_searches_into_targets_without_automorphisms_build_no_source_generators(monkeypatch, capsys, tmp_path):
    # the orderings are built only for targets with automorphisms: elsewhere
    # the generators of Aut(lam) would cost more than the search they prune
    built = []
    engine = graphs._automorphism_generators
    monkeypatch.setattr(graphs, "_automorphism_generators", lambda g: built.append(g) or engine(g))
    searched = []

    def recording(search):
        def run(lam, *args):
            searched.append(lam)
            return search(lam, *args)
        return run

    monkeypatch.setattr(embedding, "full_embedding_search", recording(embedding.full_embedding_search))
    monkeypatch.setattr(cli, "full_embedding_search", recording(cli.full_embedding_search))
    p3c, k3 = path_complement(3), complete_graph(3, prefix="a")
    # a 3-vertex certificate: the supports span a triangle
    certificate = embedding.HomSpec(p3c, k3, {v: Word(k3, [(a, 1)]) for v, a in zip(p3c.vertices, k3.vertices)})
    assert isinstance(embedding.extract_full(certificate), embedding.StructuralCertificate)
    # a 3-vertex embedding, found by the search
    identity = embedding.HomSpec(p3c, p3c, {v: Word(p3c, [(v, 1)]) for v in p3c.vertices})
    assert isinstance(embedding.extract_full(identity), embedding.FullEmbedding)
    assert searched and all(g._stabchain is None for g in searched)
    assert p3c._stabchain is None
    searched.clear()
    c4 = cycle_graph(4, "x")
    lam_file, target_file = tmp_path / "lam.txt", tmp_path / "target.txt"
    lam_file.write_text(graphs.format_graph(c4))
    target_file.write_text(graphs.format_graph(cycle_graph(6)))
    assert cli.main(["embed-search", "--graph", str(lam_file), "--target", str(target_file)]) == 2
    assert "found: false" in capsys.readouterr().out
    assert len(searched) == 1 and searched[0]._stabchain is None
    bg = _ball_graph("C5", 1)
    assert full_embedding_search(c4, bg, restrict=bg.vertices[:12]) is None
    assert c4._stabchain is None and built == []
    # a search into the ball itself builds the chain once, for the source
    full_embedding_search(c4, bg)
    chain = c4._stabchain
    assert built == [c4] and chain.gens
    # a second search reads the cached chain: no generator search, and every
    # orbit it closes is one of a failed root value under the ball's
    # automorphisms, none under the source's generators
    closed = []
    orbit = graphs._orbit
    monkeypatch.setattr(graphs, "_orbit", lambda mask, perms: closed.append(perms) or orbit(mask, perms))
    assert full_embedding_search(c4, bg) is None
    assert built == [c4] and c4._stabchain is chain
    assert closed and all(perms is bg._automorphisms for perms in closed)


def test_search_engine_under_ball_symmetries_yields_every_assignment():
    # pruning drops only root values whose subtree is empty, so the engine
    # yields every assignment, in order, with or without the symmetries
    bg = _ball_graph("C5", 1)
    counts = []
    for lam in (path_graph(3, "x"), cycle_graph(4, "x"), Graph("free", ["x", "y"]), path_complement(4, "x")):
        n, m = len(lam), len(bg)
        domains = [(1 << m) - 1] * n
        links = _embedding_links(lam, bg)
        everything = list(_forward_check(domains, links))
        assert list(_forward_check(domains, links, bg._automorphisms)) == everything
        counts.append(len(set(map(tuple, everything))))
        assert counts[-1] == len(everything)
        for found in everything:
            assert verify_full_embedding(lam, bg, {v: bg.vertices[t] for v, t in zip(lam.vertices, found)})
    # C4 does not embed (a pinned ext_query answer); the others do
    assert counts[1] == 0 and all(counts[:1] + counts[2:])


def test_graphs_derived_from_a_ball_carry_no_symmetries(monkeypatch):
    bg = _ball_graph("C5", 1)
    assert bg._automorphisms
    assert complement(bg)._automorphisms == ()
    assert induced_subgraph(bg, bg.vertices)._automorphisms == ()
    searched = []
    search = graphs.full_embedding_search

    def recording(lam, gamma, restrict=None):
        searched.append(gamma)
        return search(lam, gamma, restrict)

    monkeypatch.setattr(graphs, "full_embedding_search", recording)
    assert graphs.full_embedding_search(path_graph(3, "x"), bg, restrict=bg.vertices[:10]) is not None
    assert [g._automorphisms for g in searched[1:]] == [()]


def test_automorphism_generators_are_cached_per_graph():
    g = cycle_graph(6)
    assert g._stabchain is None
    chain = g._stabilizer_chain()
    assert chain == graphs._automorphism_generators(g) and g._stabchain is chain
    assert g._stabilizer_chain() is chain
    ext_ball(g, 1)
    assert g._stabchain is chain
    bg = ball_as_graph(ext_ball(g, 1))
    assert bg._stabchain is None
    bg._stabilizer_chain()
    for derived in (complement(g), induced_subgraph(g, g.vertices), complement(bg),
                    induced_subgraph(bg, bg.vertices), Graph(g.name, g.vertices, g.edges())):
        assert derived._stabchain is None
    assert bg == _without_symmetries(bg) and hash(bg) == hash(_without_symmetries(bg))


def test_graph_equality_and_hash_ignore_symmetries():
    bg = _ball_graph("P5c", 1)
    bare = _without_symmetries(bg)
    assert bg._automorphisms and bare._automorphisms == ()
    assert bg == bare and hash(bg) == hash(bare)
    assert bg == Graph(bg.name, bg.vertices, bg.edges())
