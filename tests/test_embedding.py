import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag.embedding import (
    CliqueChain,
    FullEmbedding,
    HomSpec,
    KernelWitness,
    MechanismError,
    StructuralCertificate,
    build_clique_chain,
    check_reach_adjacency,
    extract_abelian,
    extract_anti_path,
    extract_anti_path3,
    extract_full,
    glue_join,
    obstruction_commutator,
    parse_hom,
    peel_words,
    reach_sets,
    sequence_search,
    validate_hom,
    _complete_complement_components,
    _lift_witness,
)
from raag import _kernel
from raag.graphs import (
    Graph,
    complement,
    complete_graph,
    format_graph,
    full_embedding_search,
    graph_join,
    induced_subgraph,
    join_decompose,
    path_complement,
    path_graph,
    verify_full_embedding,
)
from raag.words import (
    Word,
    canonical_form,
    commutator,
    is_reduced,
    is_trivial,
    parse_word,
    product,
    reduce,
    support,
    _support_mask,
)

from conftest import (
    SEEDS,
    all_labeled_graphs,
    cycle_graph,
    drawn_graphs,
    extract_long_pool,
    random_graph,
    random_word_letters,
)
from reference import full_embedding_problem, peel_divergence_stage, reach_sets_by_name


def identity_spec(g):
    return HomSpec(g, g, {v: Word(g, [(v, 1)]) for v in g.vertices})


def masks(g, *sets):
    """Vertex-name sets of g as bitmasks over its vertex indices, the
    format of clique chains and reach sets."""
    return tuple(sum(1 << g.index(v) for v in names) for names in sets)


def collapsed_spec(src, target, gen, powers=None):
    powers = powers or {}
    return HomSpec(
        src,
        target,
        {v: Word(target, [(gen, 1)] * powers.get(v, 1)) for v in src.vertices},
    )


# -- HomSpec and validation -------------------------------------------------------------


def test_homspec_requires_total_images():
    g = path_complement(2)
    with pytest.raises(ValueError, match="missing image"):
        HomSpec(g, g, {"v1": Word(g, [("v1", 1)])})


def test_homspec_rejects_extra_images():
    g = path_complement(2)
    images = {v: Word(g, [(v, 1)]) for v in g.vertices}
    images["zz"] = Word(g, [("v1", 1)])
    with pytest.raises(ValueError, match="non-source"):
        HomSpec(g, g, images)


def test_homspec_names_the_image_that_is_not_a_word():
    src = Graph("s", ["u", "v"])
    tgt = Graph("t", ["a"])
    with pytest.raises(ValueError, match="image of 'u' is not a Word"):
        HomSpec(src, tgt, {"u": "a", "v": parse_word(tgt, "a")})


def test_homspec_rejects_wrong_ambient():
    g = path_complement(2)
    other = complete_graph(2)
    with pytest.raises(ValueError, match="not a word over the target"):
        HomSpec(g, g, {"v1": Word(other, [("v1", 1)]), "v2": Word(g, [("v2", 1)])})


def test_restricted_names_a_component_vertex_outside_the_source():
    h = identity_spec(path_complement(4))
    with pytest.raises(ValueError, match="non-source vertex 'zz'"):
        h.restricted(Graph("c", ["v1", "zz"]))


def test_restricted_names_the_first_pair_whose_adjacency_differs():
    h = identity_spec(path_complement(4))
    # v1-v2 is not a source edge; v1-v3 and v1-v4 are, but are missing
    with pytest.raises(ValueError, match=r"differs from the source at pair \('v1', 'v2'\)"):
        h.restricted(Graph("c", ["v1", "v2", "v3", "v4"], [("v1", "v2")]))
    with pytest.raises(ValueError, match=r"at pair \('v4', 'v2'\)"):
        h.restricted(Graph("c", ["v4", "v2", "v1"], [("v1", "v4")]))
    # any vertex order is accepted when the adjacency is the source's
    r = h.restricted(Graph("c", ["v4", "v2", "v1"], [("v1", "v4"), ("v2", "v4")]))
    assert (r.source.vertices, r.target, list(r.images)) == (("v4", "v2", "v1"), h.target, ["v4", "v2", "v1"])
    assert r._table is h._table


def test_restricted_accepts_exactly_the_source_adjacency_in_any_order():
    kinds = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SEEDS)
    def check(seed):
        rnd = random.Random(seed)
        src = random_graph(rnd, rnd.randint(1, 12), rnd.random(), prefix="s")
        h = identity_spec(src)
        names = rnd.sample(src.vertices, rnd.randint(0, len(src)))
        pairs = list(itertools.combinations(names, 2))
        adjacent = {p for p in pairs if src.adjacent(*p)}
        if pairs and rnd.random() < 0.5:
            # one to three flips, so that the row holding the first pair can differ twice
            for _ in range(rnd.randint(1, 3)):
                adjacent ^= {rnd.choice(pairs)}
        comp = Graph("c", names, adjacent)
        # brute force, in component order: row k, then the first l > k
        first = next(((u, v) for u, v in pairs if comp.adjacent(u, v) != src.adjacent(u, v)), None)
        kinds.add(first is None)
        if first is None:
            r = h.restricted(comp)
            assert r.source is comp and list(r.images) == names
        else:
            with pytest.raises(ValueError) as err:
                h.restricted(comp)
            assert str(err.value) == f"restriction differs from the source at pair ({first[0]!r}, {first[1]!r})"

    check()
    assert kinds == {True, False}


def test_validate_identity_on_p4c():
    report = validate_hom(identity_spec(path_complement(4)))
    assert report.is_homomorphism
    assert report.clique_violations == ()
    assert report.supp == ("v1", "v2", "v3", "v4")
    assert report.trivial_images == ()


def test_validate_reports_relator_failure():
    k2 = complete_graph(2, prefix="u")
    target = Graph("t", ["a", "b"])  # a, b non-adjacent
    h = HomSpec(k2, target, {"u1": parse_word(target, "a"), "u2": parse_word(target, "b")})
    report = validate_hom(h)
    assert report.relator_failures == (("u1", "u2"),)
    assert not report.is_homomorphism


def test_validate_sends_undecided_relators_to_commutes():
    # every image is supported on the non-clique {a, b}, so the centralizer
    # test leaves both relators undecided: (ab)^2 commutes with ab, and
    # (ab)^2 does not commute with ba
    lam = path_graph(3, prefix="u")
    target = Graph("t", ["a", "b", "c"], [("b", "c")])
    images = {"u1": "a b", "u2": "a b a b", "u3": "b a"}
    h = HomSpec(lam, target, {v: parse_word(target, w) for v, w in images.items()})
    assert validate_hom(h).relator_failures == (("u2", "u3"),)


def test_validate_clique_support_with_triangle():
    k3 = complete_graph(3, prefix="a")
    src = Graph("s", ["u"])
    h = HomSpec(src, k3, {"u": parse_word(k3, "a1 a2 a3")})
    report = validate_hom(h)
    assert report.clique_violations == ()
    assert support(h.images["u"]) == {"a1", "a2", "a3"}


def test_validate_flags_non_clique_support():
    src = Graph("s", ["u"])
    target = Graph("t", ["a", "b"])
    h = HomSpec(src, target, {"u": parse_word(target, "a b")})
    report = validate_hom(h)
    assert report.clique_violations == (("u", frozenset({"a", "b"})),)


def test_validate_reports_trivial_image():
    src = Graph("s", ["u"])
    target = complete_graph(2)
    h = HomSpec(src, target, {"u": parse_word(target, "v1 v1^-1")})
    assert validate_hom(h).trivial_images == ("u",)


def test_apply_substitutes_letterwise():
    # v2's image v1 v2 v2^-1 is not reduced: apply spells its reduced form
    # v1, inverted for v2^-1, and gives the element of raw substitution
    g = path_complement(2)
    t = complete_graph(2)
    h = HomSpec(g, t, {"v1": parse_word(t, "v1 v2"), "v2": parse_word(t, "v1 v2 v2^-1")})
    cases = [("v1^-1 v2", "v2^-1 v1^-1 v1"), ("v2^-1 v1", "v1^-1 v1 v2"), ("v2 v2^-1", "v1 v1^-1")]
    for word, spelled in cases:
        w = parse_word(g, word)
        image = h.apply(w)
        assert str(image) == spelled
        raw = product(*(h.images[v] if s > 0 else h.images[v].inverse() for v, s in w.letters))
        assert canonical_form(image) == canonical_form(raw)


def _random_clique_word(rnd, g, max_len):
    """A random word over a random clique of g: a random vertex, then each
    other vertex adjacent to all chosen so far with probability 0.7."""
    order = rnd.sample(g.vertices, len(g))
    clique = [order[0]]
    for v in order[1:]:
        if all(g.adjacent(v, u) for u in clique) and rnd.random() < 0.7:
            clique.append(v)
    return Word(g, [(rnd.choice(clique), rnd.choice((1, -1))) for _ in range(rnd.randint(0, max_len))])


def _random_image_table(rnd):
    """A random target of 1-7 vertices, a random source of 1-4, and images
    mixing words over a clique, random words (seldom over a clique) and
    powers of an earlier image, whose commutators with it are trivial."""
    t = random_graph(rnd, rnd.randint(1, 7), rnd.random(), prefix="t")
    src = random_graph(rnd, rnd.randint(1, 4), rnd.random(), prefix="s")
    images = {}
    for v in src.vertices:
        kind = rnd.random()
        if kind < 0.4:
            images[v] = _random_clique_word(rnd, t, 12)
        elif kind < 0.8 or not images:
            images[v] = Word(t, random_word_letters(rnd, t, 12))
        else:
            base = images[rnd.choice(list(images))]
            images[v] = product(*[base] * rnd.randint(1, 3))
            if rnd.random() < 0.5:
                images[v] = images[v].inverse()
    return HomSpec(src, t, images)


def test_image_table_holds_the_kernels_support_and_element():
    kinds = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SEEDS)
    def check(seed):
        h = _random_image_table(random.Random(seed))
        t = h.target
        for v, w in h.images.items():
            mask, *flat = h._image(v)
            syllables = list(zip(flat[::2], flat[1::2]))
            assert len(flat) == 2 * len(syllables)
            assert mask == _support_mask(Word._from_codes(t, w.codes()))
            assert all(e for _, e in syllables)
            clique = t.spans_clique(t._names(mask))
            # read by counting letters, from reduced codes, or as runs
            kinds.add((t.spans_clique({t.vertices[abs(c) - 1] for c in w.codes()}), clique))
            if clique:
                # the exponent vector, in generator order
                assert [i for i, _ in syllables] == sorted({abs(c) - 1 for c in reduce(w).codes()})
            else:
                assert syllables == [(abs(c) - 1, 1 if c > 0 else -1) for c in reduce(w).codes()]
            spelled = [(t.vertices[i], 1 if e > 0 else -1) for i, e in syllables for _ in range(abs(e))]
            assert canonical_form(Word(t, spelled)) == canonical_form(w)
            # restrictions share the table
            assert h.restricted(induced_subgraph(h.source, [v]))._image(v) is h._image(v)

    check()
    assert kinds == {(True, True), (False, True), (False, False)}


def test_apply_piles_syllables_as_the_kernel_piles_letters():
    trivial = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SEEDS)
    def check(seed):
        rnd = random.Random(seed)
        h = _random_image_table(rnd)
        src, noncomm = h.source, h.target.nonneighbor_table()
        x, y = (Word(src, random_word_letters(rnd, src, 6)) for _ in range(2))
        gens = [Word(src, [(v, 1)]) for v in src.vertices]
        words = [x, x * x.inverse(), commutator(x, y), commutator(rnd.choice(gens), rnd.choice(gens))]
        for w in words:
            image = h.apply(w)
            want = []
            for v, s in w.letters:
                img = reduce(h.images[v]).codes()
                want += img if s > 0 else [-c for c in reversed(img)]
            assert image.codes() == tuple(want)
            empty = not _kernel.survivors(image.codes(), noncomm)
            trivial.add(empty)
            assert image._reduced == (() if empty else None)

    check()
    assert trivial == {True, False}


# -- abelian factors ------------------------------------------------------------------------


def test_abelian_single_generator():
    src = Graph("s", ["u"])
    t = complete_graph(2, prefix="a")
    out = extract_abelian(HomSpec(src, t, {"u": parse_word(t, "a1")}))
    assert isinstance(out, FullEmbedding) and out.mapping == {"u": "a1"}


def test_abelian_rank_deficit_yields_witness():
    k2 = complete_graph(2, prefix="u")
    t = complete_graph(2, prefix="a")
    h = HomSpec(k2, t, {u: parse_word(t, "a1 a2") for u in k2.vertices})
    out = extract_abelian(h)
    assert isinstance(out, KernelWitness)
    assert str(out.word) == "u1 u2^-1"
    assert out.check(h) is None
    assert not is_trivial(out.word)
    assert is_trivial(h.apply(out.word))


def test_abelian_witness_is_primitive_and_sign_normalized():
    # exponent sums 2 and 3: the kernel is spanned by (3, -2), first entry positive
    k2 = complete_graph(2, prefix="u")
    t = complete_graph(1, prefix="a")
    h = HomSpec(k2, t, {"u1": parse_word(t, "a1 a1"), "u2": parse_word(t, "a1 a1 a1")})
    out = extract_abelian(h)
    assert isinstance(out, KernelWitness)
    assert str(out.word) == "u1 u1 u1 u2^-1 u2^-1"


def test_abelian_full_rank_yields_order_first_embedding():
    k2 = complete_graph(2, prefix="u")
    t = complete_graph(3, prefix="a")
    h = HomSpec(k2, t, {"u1": parse_word(t, "a1"), "u2": parse_word(t, "a2 a3")})
    out = extract_abelian(h)
    assert isinstance(out, FullEmbedding)
    assert out.mapping == {"u1": "a1", "u2": "a2"}


def test_abelian_requires_complete_source():
    src = Graph("s", ["u1", "u2"])  # edgeless
    t = complete_graph(2, prefix="a")
    with pytest.raises(ValueError, match="complete"):
        extract_abelian(HomSpec(src, t, {u: parse_word(t, "a1") for u in src.vertices}))


def test_abelian_requires_clique_support():
    k2 = complete_graph(2, prefix="u")
    t = Graph("t", ["a", "b"])
    h = HomSpec(k2, t, {"u1": parse_word(t, "a"), "u2": parse_word(t, "b")})
    with pytest.raises(ValueError, match="clique"):
        extract_abelian(h)


def test_abelian_agrees_with_sympy_rank_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(321)
    for _ in range(150):
        n = rng.randint(1, 3)
        l = rng.randint(1, 4)
        src = complete_graph(n, prefix="u")
        t = complete_graph(l, prefix="a")
        images = {}
        for v in src.vertices:
            length = rng.randint(1, 4)
            images[v] = Word(
                t, [(rng.choice(t.vertices), rng.choice((1, -1))) for _ in range(length)]
            )
        h = HomSpec(src, t, images)
        matrix = []
        for v in src.vertices:
            row = [0] * l
            for name, s in images[v].letters:
                row[t.index(name)] += s
            matrix.append(row)
        # the support columns used internally are a subset; the full matrix
        # has the same row rank since the other columns are zero
        rank = sympy.Matrix(matrix).rank()
        out = extract_abelian(h)
        if rank == n:
            assert isinstance(out, FullEmbedding)
        else:
            assert isinstance(out, KernelWitness) and out.check(h) is None


# -- clique chains and sequences --------------------------------------------------------------


def test_chain_identity_p4c():
    h = identity_spec(path_complement(4))
    chain = build_clique_chain(h)
    assert chain.order == ("v1", "v2", "v3", "v4")
    assert chain.cliques == masks(h.target, ("v1",), ("v2",), ("v3",), ("v4",))


def test_chain_vacuous_for_two_vertices():
    h = identity_spec(path_complement(2))
    chain = build_clique_chain(h)
    assert len(chain.cliques) == 2


def test_chain_rejects_distant_non_adjacent_supports():
    # v1 and v3 are adjacent in P_4^c, so a table sending them to the two
    # ends of a non-edge is not a homomorphism; the chain check says so.
    p4c = path_complement(4)
    t = Graph("t", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = HomSpec(
        p4c,
        t,
        {
            "v1": parse_word(t, "a"),
            "v2": parse_word(t, "b"),
            "v3": parse_word(t, "c"),
            "v4": parse_word(t, "b"),
        },
    )
    with pytest.raises(ValueError, match="not a homomorphism on this component"):
        build_clique_chain(h)


def _pairwise_anti_path_order(src, order):
    """The anti-path rule pair by pair: order enumerates the source, every
    consecutive pair is non-adjacent and every other pair adjacent."""
    if sorted(order) != sorted(src.vertices):
        return False
    n = len(order)
    return all(
        src.adjacent(order[a], order[b]) == (b - a > 1) for a in range(n) for b in range(a + 1, n)
    )


@pytest.mark.parametrize(
    "srcs, outcomes",
    [
        ([path_complement(5)], {True}),
        ([cycle_graph(4)], {False}),
        ([g for n in range(1, 5) for g in all_labeled_graphs(n)], {True, False}),
    ],
    ids=["P5c", "C4", "upto4"],
)
def test_chain_judges_labelings_by_the_pairwise_rule(srcs, outcomes):
    # the chain reads its order from the source: the order obeys the
    # pairwise rule, and the chain raises exactly when no permutation of the
    # vertices does (C4, the complement of two disjoint edges, for one)
    seen = set()
    for src in srcs:
        h = identity_spec(src)
        obeyed = any(_pairwise_anti_path_order(src, o) for o in itertools.permutations(src.vertices))
        seen.add(obeyed)
        if obeyed:
            chain = build_clique_chain(h)
            assert _pairwise_anti_path_order(src, chain.order), src.edges()
            assert chain.cliques == masks(src, *((v,) for v in chain.order))
        else:
            with pytest.raises(ValueError, match="not the complement of a path"):
                build_clique_chain(h)
    assert seen == outcomes


def _reference_cross_pair(g, order, cliques):
    """The first (v_i, v_j) with j >= i + 2 whose vertex-name sets hold a
    distinct non-adjacent pair, by the pairwise scan over every cross
    pair."""
    for i in range(len(cliques)):
        for j in range(i + 2, len(cliques)):
            for x in cliques[i]:
                for y in cliques[j]:
                    if x != y and not g.adjacent(x, y):
                        return order[i], order[j]
    return None


def test_chain_cross_check_matches_the_pairwise_rule():
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_graphs(1, 8, "t"), st.sampled_from((2, 4, 5, 6)), SEEDS)
    def check(t, n, seed):
        from raag.harness import _random_clique, _tables

        rnd = random.Random(seed)
        src = path_complement(n)
        images = {}
        for v in src.vertices:
            clique = [t.vertices[c - 1] for c in _random_clique(rnd, _tables(t))]
            images[v] = Word(t, [(rnd.choice(clique), rnd.choice((1, -1))) for _ in range(rnd.randint(1, 4))])
        h = HomSpec(src, t, images)
        cliques = tuple(tuple(u for u in t.vertices if u in support(h.images[v])) for v in src.vertices)
        want = _reference_cross_pair(t, src.vertices, cliques)
        outcomes.add(want is None)
        if want is None:
            assert build_clique_chain(h) == CliqueChain(t, src.vertices, masks(t, *cliques))
        else:
            with pytest.raises(ValueError, match="not a homomorphism on this component") as exc:
                build_clique_chain(h)
            assert f"{want[0]!r} and {want[1]!r}" in str(exc.value)

    check()
    assert outcomes == {True, False}


def test_sequence_search_identity_p4c():
    h = identity_spec(path_complement(4))
    chain = build_clique_chain(h)
    assert sequence_search(chain) == ("v1", "v2", "v3", "v4")


def test_sequence_search_fails_inside_one_clique():
    t = complete_graph(3, prefix="a")
    chain = CliqueChain(t, ("v1", "v2", "v3", "v4"), masks(t, ("a1", "a2"), ("a2", "a3"), ("a1",), ("a3",)))
    assert sequence_search(chain) is None


def test_sequence_search_two_supports():
    t = Graph("t", ["a", "b"])
    chain = CliqueChain(t, ("v1", "v2"), masks(t, ("a",), ("b",)))
    assert sequence_search(chain) == ("a", "b")


def test_sequence_search_needs_two_cliques():
    t = Graph("t", ["a"])
    with pytest.raises(ValueError):
        sequence_search(CliqueChain(t, ("v1",), masks(t, ("a",))))


def _reference_sequence_search(g, cliques):
    """The plain backtracking scan that sequence_search prunes, on the
    vertex-name sets of a chain over g: positions in chain order, each
    trying its set in order, skipping used vertices and neighbours of the
    previous choice. Its first solution is the one the search must
    return."""
    n = len(cliques)
    chosen = []
    used = set()

    def step(i):
        if i == n:
            return True
        for y in cliques[i]:
            if y in used:
                continue
            if i > 0 and g.adjacent(chosen[-1], y):
                continue
            chosen.append(y)
            used.add(y)
            if step(i + 1):
                return True
            used.discard(y)
            chosen.pop()
        return False

    if step(0):
        return tuple(chosen)
    return None


@st.composite
def _chains(draw):
    """A graph on at most 10 vertices and 2 to 6 non-empty vertex-name sets
    over it, each in target order like build_clique_chain's supports, with
    every cross pair at distance > 1 identical or adjacent, as the chain
    check guarantees. The sets need not be cliques: nothing here relies on
    it. A set with no vertex left to draw ends the chain."""
    g = draw(drawn_graphs(1, 10, "t"))
    rnd = random.Random(draw(SEEDS))
    sets = []
    for _ in range(rnd.randint(2, 6)):
        allowed = [y for y in g.vertices
                   if all(x == y or g.adjacent(x, y) for earlier in sets[:-1] for x in earlier)]
        if not allowed:
            break
        members = rnd.sample(allowed, rnd.randint(1, min(5, len(allowed))))
        sets.append(tuple(v for v in g.vertices if v in members))
    return g, tuple(sets)


def _chain(g, sets):
    return CliqueChain(g, tuple(f"v{i}" for i in range(1, len(sets) + 1)), masks(g, *sets))


def test_sequence_search_returns_the_reference_sequence():
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_chains())
    def check(drawn):
        want = _reference_sequence_search(*drawn)
        outcomes.add(want is not None)
        assert sequence_search(_chain(*drawn)) == want

    check()
    assert outcomes == {True, False}


# -- reach sets and peeling ---------------------------------------------------------------------


def test_reach_sets_start_with_first_clique():
    h = identity_spec(path_complement(4))
    chain = build_clique_chain(h)
    rs = reach_sets(chain)
    assert rs == masks(h.target, ("v1",), ("v2",), ("v3",))


def test_reach_sets_empty_inside_clique():
    t = complete_graph(2, prefix="a")
    chain = CliqueChain(t, ("v1", "v2", "v3", "v4"), masks(t, ("a1",), ("a2",), ("a1",), ("a2",)))
    rs = reach_sets(chain)
    assert rs == masks(t, ("a1",), (), ())


def test_reach_adjacency_names_the_first_distinct_non_adjacent_pair():
    # a and b are adjacent, c is adjacent to neither: reach sets inside
    # {a, b} pass against the last clique (a, b), and a reach-set c fails
    # at its pair with a
    t = Graph("t", ["a", "b", "c"], [("a", "b")])
    chain = CliqueChain(t, ("v1", "v2", "v3", "v4"), masks(t, ("a",), ("b",), ("a",), ("a", "b")))
    check_reach_adjacency(chain, masks(t, ("a",), ("b",), ("a", "b")))
    with pytest.raises(MechanismError, match=r"at pair \('c', 'a'\)"):
        check_reach_adjacency(chain, masks(t, ("a",), ("b", "c"), ()))


def test_reach_sets_match_the_name_based_reference():
    empty = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_chains())
    def check(drawn):
        g, sets = drawn
        want = reach_sets_by_name(g, sets)
        empty.add(() in want)
        assert reach_sets(_chain(g, sets)) == masks(g, *want)

    check()
    assert empty == {True, False}


def test_peel_keeps_words_already_in_reach_sets():
    p4c = path_complement(4)
    h = identity_spec(p4c)
    chain = build_clique_chain(h)
    rs = reach_sets(chain)
    peeled = peel_words(h, chain, rs)
    assert [str(w) for w in peeled] == ["v1", "v2", "v3"]


def test_peel_empties_words_with_empty_reach_sets():
    # every image inside a single clique: all reach sets past the first are
    # empty, so everything after W_1 peels away completely
    p4c = path_complement(4)
    t = complete_graph(2, prefix="a")
    h = HomSpec(
        p4c,
        t,
        {
            "v1": parse_word(t, "a1"),
            "v2": parse_word(t, "a2"),
            "v3": parse_word(t, "a1"),
            "v4": parse_word(t, "a2"),
        },
    )
    chain = build_clique_chain(h)
    assert sequence_search(chain) is None
    rs = reach_sets(chain)
    peeled = peel_words(h, chain, rs)
    assert [str(w) for w in peeled] == ["a1", "1", "1"]


def test_peel_deletes_single_blocking_letter():
    # triangle a,b,c plus d adjacent to a and c only; the image of v2 is
    # b a b, and a (reachable from no non-neighbor) peels out of it
    t = Graph(
        "t",
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("c", "d")],
    )
    p4c = path_complement(4)
    h = HomSpec(
        p4c,
        t,
        {
            "v1": parse_word(t, "d"),
            "v2": parse_word(t, "b a b"),
            "v3": parse_word(t, "a"),
            "v4": parse_word(t, "c"),
        },
    )
    assert validate_hom(h).is_homomorphism
    chain = build_clique_chain(h)
    assert sequence_search(chain) is None
    rs = reach_sets(chain)
    assert rs == masks(t, ("d",), ("b",), ())
    peeled = peel_words(h, chain, rs)
    assert [str(w) for w in peeled] == ["d", "b b", "1"]
    out = extract_anti_path(h)
    assert isinstance(out, KernelWitness) and out.check(h) is None and out.peel_checked


def test_peel_rejects_forged_reach_sets():
    # a and b do not commute, so dropping b from the second word changes
    # the conjugate of a: the towers part at stage 2
    t = Graph("t", ["a", "b"])
    p3c = path_complement(3)
    h = HomSpec(p3c, t, {"v1": parse_word(t, "a"), "v2": parse_word(t, "b"), "v3": parse_word(t, "a")})
    forged = masks(t, ("a",), ())
    with pytest.raises(MechanismError, match="diverged at stage 2"):
        peel_words(h, build_clique_chain(h), forged)


def _peel_stage(h, chain, reach):
    """The stage at which peel_words finds the towers parted, or None."""
    try:
        peel_words(h, chain, reach)
    except MechanismError as exc:
        return int(str(exc).rsplit(" ", 1)[1])
    return None


def test_peel_stops_where_the_two_tower_reference_does():
    # every anti-path chain of 3 or more vertices in the pools of seeds 1
    # and 2, with its genuine reach sets and three forgeries: random
    # subsets of the cliques, the genuine sets with one later Y_i
    # replaced, and the genuine sets with one vertex dropped
    stages = set()
    rnd = random.Random(33)
    for seed in (1, 2):
        for h in extract_long_pool(seed):
            for c in join_decompose(h.source).components:
                if c.kind == "singleton" or len(c.graph) < 3:
                    continue
                r = h.restricted(c.graph)
                chain = build_clique_chain(r)
                genuine = reach_sets(chain)
                k = rnd.randrange(1, len(genuine))
                for reach in (genuine,
                              tuple(rnd.getrandbits(len(r.target)) & c for c in chain.cliques[:-1]),
                              genuine[:k] + (rnd.getrandbits(len(r.target)) & chain.cliques[k],) + genuine[k + 1:],
                              tuple(y & ~(1 << rnd.randrange(len(r.target))) for y in genuine)):
                    want = peel_divergence_stage(r, chain, reach)
                    assert _peel_stage(r, chain, reach) == want
                    stages.add(want)
    assert {None, 2, 3, 4, 5} <= stages


def test_peel_rejects_reach_sets_forged_only_at_the_first_stage():
    # Y_1 forged empty, the later sets genuine: every later image lies in
    # its reach set, so no D_i is left to fail the one-tower test, and only
    # the base case T_1 = W_1 catches it, at stage 2 as the reference does
    h = identity_spec(path_complement(4))
    chain = build_clique_chain(h)
    forged = (0,) + reach_sets(chain)[1:]
    assert peel_divergence_stage(h, chain, forged) == 2
    with pytest.raises(MechanismError, match="diverged at stage 2"):
        peel_words(h, chain, forged)


# -- obstruction commutators -------------------------------------------------------------------


def test_obstruction_two_vertices():
    p2c = path_complement(2)
    t = complete_graph(2, prefix="a")
    h = HomSpec(p2c, t, {"v1": parse_word(t, "a1"), "v2": parse_word(t, "a2")})
    wit = obstruction_commutator(h)
    assert str(wit.word) == "v1 v2 v1^-1 v2^-1"
    assert wit.check(h) is None


def test_obstruction_four_vertices_has_twelve_letters():
    p4c = path_complement(4)
    t = complete_graph(1, prefix="a")
    h = collapsed_spec(p4c, t, "a1")
    wit = obstruction_commutator(h)
    assert len(wit.word) == 12
    assert wit.check(h) is None


def test_obstruction_five_vertices_one_clique():
    p5c = path_complement(5)
    t = complete_graph(3, prefix="a")
    h = HomSpec(
        p5c,
        t,
        {
            "v1": parse_word(t, "a1"),
            "v2": parse_word(t, "a2 a3"),
            "v3": parse_word(t, "a3"),
            "v4": parse_word(t, "a1 a1"),
            "v5": parse_word(t, "a2"),
        },
    )
    wit = obstruction_commutator(h)
    assert wit.check(h) is None


def test_obstruction_rejects_three_vertices():
    h = identity_spec(path_complement(3))
    with pytest.raises(ValueError):
        obstruction_commutator(h)


def test_obstruction_raises_when_image_nontrivial():
    h = identity_spec(path_complement(2))
    with pytest.raises(MechanismError):
        obstruction_commutator(h)


# -- per-component dichotomy ----------------------------------------------------------------------


def test_anti_path_single_vertex():
    # one-vertex factors take the abelian route
    src = Graph("s", ["u"])
    t = complete_graph(2, prefix="a")
    h = HomSpec(src, t, {"u": parse_word(t, "a2 a1")})
    with pytest.raises(ValueError, match="extract_abelian"):
        extract_anti_path(h)
    assert extract_abelian(h).mapping == {"u": "a1"}


def test_anti_path_two_vertices_embedding():
    p2c = path_complement(2)
    t = Graph("t", ["a", "b"])
    h = HomSpec(p2c, t, {"v1": parse_word(t, "a"), "v2": parse_word(t, "b")})
    out = extract_anti_path(h)
    assert isinstance(out, FullEmbedding) and out.mapping == {"v1": "a", "v2": "b"}


def test_anti_path_two_vertices_collapse_witness():
    p2c = path_complement(2)
    t = complete_graph(2, prefix="a")
    h = HomSpec(p2c, t, {"v1": parse_word(t, "a1 a1"), "v2": parse_word(t, "a1^-1")})
    out = extract_anti_path(h)
    assert isinstance(out, KernelWitness)
    assert str(out.word) == "v1 v2 v1^-1 v2^-1"
    assert out.check(h) is None


def test_anti_path_four_vertices_embedding_in_own_supports():
    p4c = path_complement(4)
    h = identity_spec(p4c)
    out = extract_anti_path(h)
    assert isinstance(out, FullEmbedding)
    for v in p4c.vertices:
        assert out.mapping[v] in support(h.images[v])
    assert verify_full_embedding(p4c, p4c, out.mapping)


def test_anti_path_rejects_three_vertices():
    h = identity_spec(path_complement(3))
    with pytest.raises(ValueError, match="extract_anti_path3"):
        extract_anti_path(h)


def test_anti_path_dichotomy_randomized():
    from raag.harness import _random_hom

    rng = random.Random(246)
    embeddings = witnesses = 0
    for _ in range(150):
        n = rng.choice((2, 4, 5))
        lam = path_complement(n)
        size = rng.randint(1, 6)
        names = [f"t{i}" for i in range(1, size + 1)]
        edges = [
            (names[i], names[j])
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < 0.5
        ]
        gamma = Graph("Gamma", names, edges)
        h = _random_hom(rng, lam, gamma)
        report = validate_hom(h)
        assert report.is_homomorphism
        if report.trivial_images:
            continue
        out = extract_anti_path(h)
        if isinstance(out, FullEmbedding):
            embeddings += 1
            assert verify_full_embedding(lam, gamma, out.mapping)
            for v in lam.vertices:
                assert out.mapping[v] in support(h.images[v])
        else:
            witnesses += 1
            assert out.check(h) is None
            assert not is_trivial(out.word)
            assert is_trivial(h.apply(out.word))
    assert embeddings > 10 and witnesses > 10


# -- the 3-vertex anti-path -----------------------------------------------------------------------


def test_anti_path3_identity():
    h = identity_spec(path_complement(3))
    out = extract_anti_path3(h)
    assert isinstance(out, FullEmbedding)
    assert out.mapping == {v: v for v in ("v1", "v2", "v3")}


def test_anti_path3_into_triangle_gives_certificate():
    p3c = path_complement(3)
    t = complete_graph(3, prefix="a")
    h = HomSpec(
        p3c,
        t,
        {"v1": parse_word(t, "a1"), "v2": parse_word(t, "a2"), "v3": parse_word(t, "a3")},
    )
    out = extract_anti_path3(h)
    assert isinstance(out, StructuralCertificate)
    assert out.complement_components == (("a1",), ("a2",), ("a3",))
    assert out.check(h) is None


def test_anti_path3_support_c4_gives_certificate():
    # image support spans a 4-cycle: no induced edge+isolated-vertex inside,
    # and the complement of the cycle is a pair of disjoint edges
    p3c = path_complement(3)
    c4 = cycle_graph(4)
    h = HomSpec(
        p3c,
        c4,
        {
            "v1": parse_word(c4, "a1 a2"),
            "v2": parse_word(c4, "a3 a4"),
            "v3": parse_word(c4, "a1 a2"),
        },
    )
    assert validate_hom(h).is_homomorphism
    out = extract_anti_path3(h)
    assert isinstance(out, StructuralCertificate)
    assert out.supp == ("a1", "a2", "a3", "a4")
    assert out.complement_components == (("a1", "a3"), ("a2", "a4"))


def test_anti_path3_empty_support_gives_empty_certificate():
    p3c = path_complement(3)
    t = path_graph(2, prefix="t")
    h = HomSpec(p3c, t, {v: Word(t, []) for v in p3c.vertices})
    out = extract_anti_path3(h)
    assert out == StructuralCertificate(("v1", "v2", "v3"), (), ())
    assert out.check(h) is None


def test_anti_path3_rejects_other_sources():
    for src in (path_complement(4), complete_graph(3), Graph("e3", ["v1", "v2", "v3"]), path_graph(3)):
        with pytest.raises(ValueError):
            extract_anti_path3(identity_spec(src))


def test_complete_complement_components_match_the_complement_graph():
    # oracle: the components of the complement Graph, found by search on its
    # edges, each a clique there
    for n in range(0, 6):
        for g in all_labeled_graphs(n) if n else [Graph("empty", [])]:
            c = complement(g)
            left, comps = list(c.vertices), []
            while left:
                comp, todo = {left[0]}, [left[0]]
                while todo:
                    for w in c.neighbors(todo.pop()):
                        if w not in comp:
                            comp.add(w)
                            todo.append(w)
                comps.append(tuple(v for v in c.vertices if v in comp))
                left = [v for v in left if v not in comp]
            expected = tuple(comps) if all(c.spans_clique(comp) for comp in comps) else None
            assert _complete_complement_components(g) == expected


def test_anti_path3_embeds_iff_complement_components_are_not_complete():
    # the equivalence that lets the structural certificate's check run no
    # search: the complement of the anti-path is the path on three vertices
    lam = path_complement(3)
    for n in range(0, 6):
        for g in all_labeled_graphs(n) if n else [Graph("empty", [])]:
            assert (full_embedding_search(lam, g) is None) == (_complete_complement_components(g) is not None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn_graphs(0, 8, "s"))
def test_anti_path3_embeds_iff_complement_components_are_not_complete_up_to_8(g):
    lam = path_complement(3)
    assert (full_embedding_search(lam, g) is None) == (_complete_complement_components(g) is not None)


# -- gluing -----------------------------------------------------------------------------------------


def test_glue_single_component_is_identity():
    g = path_complement(4)
    h = identity_spec(g)
    emb = FullEmbedding({v: v for v in g.vertices})
    assert glue_join([emb], h).mapping == emb.mapping


def test_glue_k1_with_p2c():
    # source K_1 * P_2^c; target has the K_1 image adjacent to both P_2^c
    # image vertices
    lam = graph_join([Graph("k1", ["u"]), path_complement(2)], name="lam")
    t = Graph("t", ["x", "a", "b"], [("x", "a"), ("x", "b")])
    h = HomSpec(
        lam,
        t,
        {"u": parse_word(t, "x"), "v1": parse_word(t, "a"), "v2": parse_word(t, "b")},
    )
    merged = glue_join(
        [FullEmbedding({"u": "x"}), FullEmbedding({"v1": "a", "v2": "b"})], h
    )
    assert merged.mapping == {"u": "x", "v1": "a", "v2": "b"}
    assert verify_full_embedding(lam, t, merged.mapping)


def test_glue_rejects_overlapping_images():
    lam = graph_join([Graph("k1", ["u"]), path_complement(2)], name="lam")
    t = Graph("t", ["x", "a", "b"], [("x", "a"), ("x", "b")])
    h = HomSpec(
        lam,
        t,
        {"u": parse_word(t, "a"), "v1": parse_word(t, "a"), "v2": parse_word(t, "b")},
    )
    with pytest.raises(ValueError, match="injectivity violation"):
        glue_join(
            [FullEmbedding({"u": "a"}), FullEmbedding({"v1": "a", "v2": "b"})], h
        )


def test_glue_rejects_non_adjacent_cross_pair():
    lam = graph_join([Graph("k1", ["u"]), path_complement(2)], name="lam")
    t = Graph("t", ["x", "a", "b"], [("x", "a")])  # x-b missing
    h = HomSpec(
        lam,
        t,
        {"u": parse_word(t, "x"), "v1": parse_word(t, "a"), "v2": parse_word(t, "b")},
    )
    with pytest.raises(ValueError, match="adjacency violation"):
        glue_join(
            [FullEmbedding({"u": "x"}), FullEmbedding({"v1": "a", "v2": "b"})], h
        )


# -- end-to-end -------------------------------------------------------------------------------------


def test_extract_full_identity_cases():
    for g in (path_complement(2), path_complement(4), path_complement(5)):
        out = extract_full(identity_spec(g))
        assert isinstance(out, FullEmbedding)
        assert out.mapping == {v: v for v in g.vertices}


def test_extract_full_rejects_non_homomorphism():
    k2 = complete_graph(2, prefix="u")
    t = Graph("t", ["a", "b"])
    h = HomSpec(k2, t, {"u1": parse_word(t, "a"), "u2": parse_word(t, "b")})
    with pytest.raises(ValueError, match="not a homomorphism"):
        extract_full(h)


def test_extract_full_rejects_non_clique_support():
    p2c = path_complement(2)
    t = Graph("t", ["a", "b"])
    h = HomSpec(p2c, t, {"v1": parse_word(t, "a b"), "v2": parse_word(t, "a")})
    with pytest.raises(ValueError, match="clique-support"):
        extract_full(h)


def test_extract_full_rejects_out_of_scope_source():
    c5 = cycle_graph(5)
    h = identity_spec(c5)
    with pytest.raises(ValueError, match="out of theorem scope"):
        extract_full(h)


def test_extract_full_trivial_image_witness():
    p4c = path_complement(4)
    t = complete_graph(2, prefix="a")
    images = {v: parse_word(t, "a1") for v in p4c.vertices}
    images["v2"] = parse_word(t, "a1 a1^-1")
    h = HomSpec(p4c, t, images)
    out = extract_full(h)
    assert isinstance(out, KernelWitness)
    assert str(out.word) == "v2" and out.check(h) is None


def test_extract_full_collapsed_witnesses():
    t = complete_graph(3, prefix="t")
    for lam in (path_complement(2), path_complement(4), cycle_graph(4)):
        powers = {v: i + 1 for i, v in enumerate(lam.vertices)}
        h = collapsed_spec(lam, t, "t1", powers)
        out = extract_full(h)
        assert isinstance(out, KernelWitness)
        assert out.check(h) is None


def test_extract_full_c4_witness_from_first_factor():
    c4 = cycle_graph(4)
    t = complete_graph(2, prefix="t")
    out = extract_full(collapsed_spec(c4, t, "t1"))
    assert isinstance(out, KernelWitness)
    assert out.component == ("a1", "a3")
    assert not is_trivial(out.word)


def test_extract_full_k2_join_p4c_glued():
    lam = graph_join([complete_graph(2, prefix="u"), path_complement(4)], name="lam")
    out = extract_full(identity_spec(lam))
    assert isinstance(out, FullEmbedding)
    assert verify_full_embedding(lam, lam, out.mapping)
    assert len(out.mapping) == 6


def test_extract_full_embedding_lands_in_support():
    # non-identity images around a planted copy inside a bigger target
    p4c = path_complement(4)
    t = graph_join([path_complement(4), complete_graph(2, prefix="x")], name="t")
    h = HomSpec(
        p4c,
        t,
        {
            "v1": parse_word(t, "v1 x1 x1^-1"),
            "v2": parse_word(t, "v2^-1"),
            "v3": parse_word(t, "v3 v3"),
            "v4": parse_word(t, "v4"),
        },
    )
    out = extract_full(h)
    assert isinstance(out, FullEmbedding)
    supp = set().union(*(support(w) for w in h.images.values()))
    assert set(out.mapping.values()) <= supp


def test_extract_full_p3c_certificate_component():
    lam = path_complement(3)
    t = complete_graph(4, prefix="t")
    h = HomSpec(
        lam,
        t,
        {
            "v1": parse_word(t, "t1"),
            "v2": parse_word(t, "t2 t3"),
            "v3": parse_word(t, "t4"),
        },
    )
    out = extract_full(h)
    assert isinstance(out, StructuralCertificate)
    assert out.check(h) is None and out.component == ("v1", "v2", "v3")


def test_extract_full_mixed_join_with_p3c():
    lam = graph_join([Graph("k1", ["u"]), path_complement(3)], name="lam")
    out = extract_full(identity_spec(lam))
    assert isinstance(out, FullEmbedding)
    assert len(out.mapping) == 4


def _k1_join_p4c_into_target_with_spare_vertex():
    # source u * P4c; target x * P4c(a1..a4) plus z, adjacent to every other
    # target vertex and outside every image support
    lam = graph_join([Graph("k1", ["u"]), path_complement(4)], name="lam")
    base = graph_join([Graph("kx", ["x"]), path_complement(4, prefix="a")], name="base")
    t = Graph("t", base.vertices + ("z",), list(base.edges()) + [(v, "z") for v in base.vertices])
    return lam, t


@pytest.mark.parametrize(
    "images, kind",
    [
        (
            {"u": "z z^-1 x", "v1": "a1 z a2 a2^-1 z^-1", "v2": "z a2 z^-1",
             "v3": "a3 z^-1 z", "v4": "a4 z z^-1"},
            FullEmbedding,
        ),
        (
            {"u": "x z z^-1", "v1": "a1 z z^-1", "v2": "z a3 z^-1 a1",
             "v3": "a1 a1 a3", "v4": "a3 z a3 z^-1"},
            KernelWitness,
        ),
    ],
)
def test_extract_full_ignores_letters_cancelling_outside_the_support(images, kind):
    lam, t = _k1_join_p4c_into_target_with_spare_vertex()
    h = HomSpec(lam, t, {v: parse_word(t, w) for v, w in images.items()})
    out = extract_full(h)
    assert isinstance(out, kind)
    assert out == extract_full(HomSpec(lam, t, {v: reduce(w) for v, w in h.images.items()}))
    assert out.check(h) is None
    if kind is KernelWitness:
        assert out.peel_checked and out.component == ("v1", "v2", "v3", "v4")
    else:
        assert "z" not in out.mapping.values()


def _fresh_copy(h):
    """h rebuilt from its codes: a new source graph and new image words,
    so no cached reduced codes or graph tables carry over."""
    src = Graph(h.source.name, h.source.vertices, h.source.edges())
    return HomSpec(src, h.target, {v: Word._from_codes(h.target, w.codes()) for v, w in h.images.items()})


def test_extract_full_does_not_depend_on_cached_reductions():
    from raag.harness import _random_graph, _random_hom, _random_source

    rng = random.Random(1313)
    kinds = set()
    for _ in range(200):
        lam = _random_source(rng, (1, 2, 3, 4, 5))
        gamma = _random_graph(rng, 7, 0.5)
        h = _random_hom(rng, lam, gamma)
        first = extract_full(h)
        kinds.add(type(first).__name__)
        assert repr(extract_full(h)) == repr(first)
        assert repr(extract_full(_fresh_copy(h))) == repr(first)
    assert kinds == {"FullEmbedding", "KernelWitness", "StructuralCertificate"}


def _one_clique_join_spec(rng):
    from raag.harness import _random_clique, _tables

    # K_k * P_n^c (n in 2, 4, 5), sometimes * P_2^c, every image a word over
    # one clique of a random target
    n = rng.choice((2, 4, 5))
    parts = [complete_graph(rng.randint(1, 3), prefix="u"), path_complement(n)]
    if rng.random() < 0.5:
        parts.append(path_complement(2, prefix="w"))
    lam = graph_join(parts, name="lam")
    t = random_graph(rng, rng.randint(2, 7), rng.random(), prefix="t")
    clique = [t.vertices[c - 1] for c in _random_clique(rng, _tables(t))]
    images = {
        v: Word(t, [(rng.choice(clique), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))])
        for v in lam.vertices
    }
    return HomSpec(lam, t, images)


def test_extract_full_reads_images_only_as_group_elements():
    from raag.harness import _random_graph, _random_hom, _random_source

    # one-clique joins give witnesses from every route; the harness draws
    # add embeddings and certificates
    rng = random.Random(1414)
    specs = [_one_clique_join_spec(rng) for _ in range(150)]
    for _ in range(150):
        lam = _random_source(rng, (1, 2, 3, 4, 5))
        specs.append(_random_hom(rng, lam, _random_graph(rng, 7, 0.5)))
    kinds = set()
    unreduced = 0
    for h in specs:
        images = dict(h.images)
        unreduced += any(not is_reduced(w) for w in images.values())
        out = extract_full(h)
        kinds.add(type(out).__name__)
        assert h.images.keys() == images.keys()
        assert all(h.images[v] is w for v, w in images.items())
        reduced = HomSpec(h.source, h.target, {v: reduce(w) for v, w in images.items()})
        assert repr(extract_full(reduced)) == repr(out)
        assert out.check(h) is None
    assert kinds == {"FullEmbedding", "KernelWitness", "StructuralCertificate"} and unreduced > 50


def test_component_witnesses_hold_over_the_full_source():
    rng = random.Random(4711)
    anti_path = abelian = 0
    for _ in range(120):
        h = _one_clique_join_spec(rng)
        components = join_decompose(h.source).components
        singles = [v for c in components if c.kind == "singleton" for v in c.graph.vertices]
        out = extract_abelian(h.restricted(induced_subgraph(h.source, singles)))
        if isinstance(out, KernelWitness):
            abelian += 1
            assert _lift_witness(out, h).check(h) is None
        for comp in components:
            if comp.kind != "singleton" and len(comp.graph) != 3:
                anti_path += 1
                out = obstruction_commutator(h.restricted(comp.graph))
                assert _lift_witness(out, h).check(h) is None
    assert anti_path > 150 and abelian > 40


# -- outcome checkers -------------------------------------------------------------------------------


def test_check_accepts_each_extracted_outcome_type():
    p3c = path_complement(3)
    t = complete_graph(4, prefix="t")
    certificate_spec = HomSpec(
        p3c, t, {"v1": parse_word(t, "t1"), "v2": parse_word(t, "t2 t3"), "v3": parse_word(t, "t4")}
    )
    specs = {
        FullEmbedding: identity_spec(path_complement(4)),
        KernelWitness: collapsed_spec(path_complement(4), complete_graph(2, prefix="t"), "t1"),
        StructuralCertificate: certificate_spec,
    }
    for kind, h in specs.items():
        out = extract_full(h)
        assert isinstance(out, kind)
        assert out.check(h) is None


def _free_pair_spec():
    # v1, v2 non-adjacent; images a, b inside an edgeless 4-vertex target
    t = Graph("t", ["a", "b", "c", "d"])
    return HomSpec(path_complement(2), t, {"v1": parse_word(t, "a"), "v2": parse_word(t, "b")})


def test_embedding_check_rejects_non_injective_mapping():
    h = identity_spec(path_complement(4))
    bad = FullEmbedding({"v1": "v1", "v2": "v1", "v3": "v3", "v4": "v4"})
    assert "injectivity violation" in bad.check(h)


def test_embedding_check_rejects_mapping_outside_support():
    bad = FullEmbedding({"v1": "c", "v2": "d"})
    assert "outside the homomorphism support" in bad.check(_free_pair_spec())


def test_embedding_check_rejects_anti_path_vertex_outside_own_support():
    bad = FullEmbedding({"v1": "b", "v2": "a"})
    assert bad.check(_free_pair_spec()) == (
        "anti-path vertex 'v1' mapped outside the support of its image"
    )


def test_witness_check_rejects_word_trivial_over_source():
    h = identity_spec(path_complement(2))
    bad = KernelWitness(parse_word(h.source, "v1 v1^-1"), True, True)
    assert bad.check(h) == "witness word is trivial over the source"


def test_witness_check_rejects_nontrivial_image():
    h = identity_spec(path_complement(2))
    bad = KernelWitness(parse_word(h.source, "v1 v2 v1^-1 v2^-1"), True, True)
    assert bad.check(h) == "witness image does not reduce to the identity"


def test_witness_check_reads_only_the_word():
    # the two flags carry no verdict: a valid word passes whatever they say
    t = complete_graph(2, prefix="a")
    h = HomSpec(path_complement(2), t, {"v1": parse_word(t, "a1"), "v2": parse_word(t, "a1^-1")})
    word = parse_word(h.source, "v1 v2")
    assert KernelWitness(word, False, False).check(h) is None
    assert KernelWitness(word, True, True).check(h) is None


def test_certificate_check_rejects_existing_embedding():
    h = identity_spec(path_complement(3))
    bad = StructuralCertificate(("v1", "v2", "v3"), ("v1", "v2", "v3"), (("v1", "v3"), ("v2",)))
    assert bad.check(h) == "certificate refuted: a full embedding into the support exists"


@pytest.mark.parametrize("certificate, problem", [
    (FullEmbedding({"v1": ["a"], "v2": "b", "v3": "c"}),
     "embedding check failed: image ['a'] of 'v1' is not a target vertex"),
    (FullEmbedding(None), "embedding check failed: map is not a mapping: None"),
    (KernelWitness("v1", True, True), "witness word is not over the source graph"),
    (StructuralCertificate((["v1"], "v2", "v3"), (), ()),
     "certificate component does not name three distinct source vertices"),
    (StructuralCertificate(None, (), ()), "certificate component does not name three distinct source vertices"),
], ids=["embedding-with-a-list-image", "embedding-of-none", "witness-of-a-string", "certificate-with-a-list-vertex",
        "certificate-of-none"])
def test_a_malformed_certificate_gets_a_problem_not_an_exception(certificate, problem):
    # a certificate read from a file can hold any value; check(h) promises
    # None or the first problem, and each of these raised before
    assert certificate.check(identity_spec(path_complement(3))) == problem


def _p3c_into_edge_plus_point_spec():
    # a1-a3 is the one source edge; images a1 -> x, a2 -> z, a3 -> y
    lam = path_complement(3, prefix="a")
    t = Graph("t", ["x", "y", "z"], [("x", "y")])
    images = {"a1": parse_word(t, "x"), "a2": parse_word(t, "z"), "a3": parse_word(t, "y")}
    return HomSpec(lam, t, images)


def test_certificate_check_rejects_forged_support():
    h = _p3c_into_edge_plus_point_spec()
    assert isinstance(extract_full(h), FullEmbedding)
    forged = StructuralCertificate(h.source.vertices, ("x",), (("x",),))
    assert forged.check(h) == "certificate support is not the union of the component image supports"


def test_certificate_check_rejects_unknown_support_names():
    h = _p3c_into_edge_plus_point_spec()
    forged = StructuralCertificate(h.source.vertices, ("x", "y", "nope"), (("x",),))
    assert forged.check(h) == "certificate support is not the union of the component image supports"


def test_certificate_check_rejects_unknown_component_names():
    h = _p3c_into_edge_plus_point_spec()
    forged = StructuralCertificate(("a1", "a2", "nope"), ("x", "y", "z"), ())
    assert forged.check(h) == "certificate component does not name three distinct source vertices"


def test_certificate_check_rejects_component_that_is_not_an_anti_path():
    k3 = complete_graph(3, prefix="a")
    t = complete_graph(3, prefix="t")
    h = HomSpec(k3, t, {f"a{i}": parse_word(t, f"t{i}") for i in (1, 2, 3)})
    forged = StructuralCertificate(k3.vertices, t.vertices, tuple((v,) for v in t.vertices))
    assert forged.check(h) == "certificate component is not a 3-vertex anti-path"


def test_certificate_check_rejects_wrong_complement_components():
    p3c = path_complement(3)
    t = complete_graph(4, prefix="t")
    h = HomSpec(
        p3c, t, {"v1": parse_word(t, "t1"), "v2": parse_word(t, "t2 t3"), "v3": parse_word(t, "t4")}
    )
    cert = extract_full(h)
    assert isinstance(cert, StructuralCertificate)
    forged = StructuralCertificate(cert.component, cert.supp, cert.complement_components[:1])
    assert forged.check(h) == "certificate complement components differ from those of the support"


SUPPORT_PROBLEM = "certificate support is not the union of the component image supports"
COMPONENTS_PROBLEM = "certificate complement components differ from those of the support"


@pytest.mark.parametrize("fields, problem", [
    ({}, None),
    ({"supp": "a1 a2 a3 a4"}, SUPPORT_PROBLEM),
    ({"supp": ["a1", "a2", "a3", ["a4"]]}, SUPPORT_PROBLEM),
    ({"supp": None}, SUPPORT_PROBLEM),
    ({"complement_components": [["a1", "a3"], "a2 a4"]}, COMPONENTS_PROBLEM),
    ({"complement_components": [["a2", "a4"], ["a1", "a3"]]}, COMPONENTS_PROBLEM),
    ({"complement_components": [["a1", "a3"], 5]}, COMPONENTS_PROBLEM),
    ({"complement_components": 5}, COMPONENTS_PROBLEM),
], ids=["as-read", "support-as-a-string", "support-with-a-list-vertex", "support-of-none",
        "component-as-a-string", "components-out-of-order", "component-of-a-number", "components-of-a-number"])
def test_a_certificate_read_from_json_is_checked_like_the_original(fields, problem):
    # JSON holds the tuples of a certificate as lists: a correct one read
    # back passes, and a malformed field gets a problem, not an exception
    c4 = cycle_graph(4)
    h = HomSpec(path_complement(3), c4, {"v1": parse_word(c4, "a1 a2"), "v2": parse_word(c4, "a3 a4"),
                                         "v3": parse_word(c4, "a1 a2")})
    cert = extract_full(h)
    assert cert == StructuralCertificate(("v1", "v2", "v3"), ("a1", "a2", "a3", "a4"), (("a1", "a3"), ("a2", "a4")))
    read = StructuralCertificate(**{**json.loads(json.dumps(dataclasses.asdict(cert))), **fields})
    assert isinstance(read.component, list) and read.check(h) == problem


def test_embedding_check_rejects_map_that_is_not_total():
    h = identity_spec(path_complement(2))
    assert FullEmbedding({}).check(h) == (
        "embedding check failed: map is not total on the source: missing 'v1'"
    )


def test_embedding_check_accepts_empty_map_of_empty_source():
    t = complete_graph(2, prefix="t")
    assert FullEmbedding({}).check(HomSpec(Graph("empty", []), t, {})) is None


def test_embedding_check_rejects_map_naming_non_source_vertices():
    h = identity_spec(path_complement(2))
    bad = FullEmbedding({"v1": "v1", "v2": "v2", "zz": "v1"})
    assert bad.check(h) == "embedding check failed: map mentions non-source vertex 'zz'"


_EMBEDDING_PROBLEMS = (
    "embedding check failed",
    "outside the homomorphism support",
    "outside its component support",
    "outside the support of its image",
)


def test_embedding_check_matches_the_name_based_reference():
    # a source, a target holding a full embedding phi of it among up to two
    # extra vertices, and images whose supports miss phi(v) now and then;
    # the maps checked are phi, phi with its images shuffled, random ones
    # and phi made malformed, so most of them are wrong. The images need not
    # define a homomorphism: the check reads only their supports.
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(SEEDS, st.sampled_from(("phi", "shuffle", "random", "malformed")))
    def check(seed, kind):
        rnd = random.Random(seed)
        if rnd.random() < 0.7:
            parts = [path_complement(rnd.randint(1, 4), prefix=f"s{c}_") for c in range(rnd.randint(1, 3))]
            src = graph_join(parts)
        else:
            src = random_graph(rnd, rnd.randint(0, 4), rnd.random(), prefix="s")
        n = len(src)
        names = [f"t{i}" for i in range(1, n + rnd.randint(0, 2) + 1)]
        rnd.shuffle(names)
        edges = [(names[i], names[j]) for i, j in itertools.combinations(range(len(names)), 2)
                 if (src.adjacent(src.vertices[i], src.vertices[j]) if j < n else rnd.random() < 0.5)]
        t = Graph("t", sorted(names, key=lambda v: int(v[1:])), edges)
        phi = dict(zip(src.vertices, names))
        images = {}
        for v in src.vertices:
            letters = [y for y in t.vertices if rnd.random() < (0.85 if y == phi[v] else 0.3)]
            images[v] = Word(t, [(y, rnd.choice((1, -1))) for y in letters])
        h = HomSpec(src, t, images)
        mapping = dict(phi)
        if kind == "shuffle":
            mapping = dict(zip(phi, rnd.sample(list(phi.values()), n)))
        elif kind == "random":
            mapping = {v: rnd.choice(t.vertices) for v in src.vertices}
        elif kind == "malformed" and n:
            v = rnd.choice(src.vertices)
            fault = rnd.randrange(3)
            if fault == 0:
                del mapping[v]
            elif fault == 1:
                mapping["zz"] = mapping[v]
            else:
                mapping[v] = "zz"
        want = full_embedding_problem(h, mapping)
        seen.add(want and next(k for k in _EMBEDDING_PROBLEMS if k in want))
        assert FullEmbedding(mapping).check(h) == want

    check()
    assert seen == {None, *_EMBEDDING_PROBLEMS}


def test_witness_check_rejects_word_over_another_graph():
    h = identity_spec(path_complement(4))
    bad = KernelWitness(parse_word(path_complement(2), "v1 v2 v1^-1 v2^-1"), True, True)
    assert bad.check(h) == "witness word is not over the source graph"


# -- homomorphism files ------------------------------------------------------------------------------


def test_parse_hom_roundtrip(tmp_path):
    lam = path_complement(2)
    t = complete_graph(2, prefix="a")
    (tmp_path / "lam.txt").write_text(format_graph(lam))
    (tmp_path / "t.txt").write_text(format_graph(t))
    text = "hom\nsource: lam.txt\ntarget: t.txt\nmap v1 = a1 a2\nmap v2 = a2^-1\n"
    h = parse_hom(text, base_dir=str(tmp_path))
    assert h.source == lam and h.target == t
    assert str(h.images["v1"]) == "a1 a2"
    assert str(h.images["v2"]) == "a2^-1"


@pytest.mark.parametrize(
    "body",
    [
        "source: lam.txt\ntarget: t.txt\nmap v1 = a1\nmap v2 = a1\n",  # no header
        "hom\ntarget: t.txt\nsource: lam.txt\nmap v1 = a1\nmap v2 = a1\n",  # wrong order
        "hom\nsource: lam.txt\ntarget: t.txt\nmap v1 = a1\n",  # missing image
        "hom\nsource: lam.txt\ntarget: t.txt\nmap v1 = a1\nmap v1 = a1\nmap v2 = a1\n",  # duplicate
        "hom\nsource: lam.txt\ntarget: t.txt\nmapping v1 = a1\n",  # bad line
    ],
)
def test_parse_hom_rejects_malformed(tmp_path, body):
    (tmp_path / "lam.txt").write_text(format_graph(path_complement(2)))
    (tmp_path / "t.txt").write_text(format_graph(complete_graph(2, prefix="a")))
    with pytest.raises(ValueError):
        parse_hom(body, base_dir=str(tmp_path))
