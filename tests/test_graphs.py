import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag import graphs
from raag.graphs import (
    Graph,
    complement,
    complete_graph,
    format_graph,
    full_embedding_search,
    graph_join,
    graph_to_dot,
    induced_subgraph,
    join_decompose,
    parse_graph,
    path_complement,
    path_graph,
    recognize_linear_forest_complement,
    verify_full_embedding,
    _automorphism_generators,
)

from conftest import (
    all_labeled_graphs,
    assert_same_as_rebuilt,
    cycle_graph,
    drawn_graphs,
    random_graph,
    symmetric_sources,
)
from reference import automorphisms_by_brute_force, closure, degree_prefilter, stabilizer_orbits_by_brute_force


# -- construction and basic accessors ------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph("g", ["a"], [("a", "a")])


def test_graph_rejects_duplicate_vertex():
    with pytest.raises(ValueError, match="duplicate"):
        Graph("g", ["a", "a"])
    with pytest.raises(ValueError, match="duplicate vertex name 'b'"):
        graph_join([Graph("g", ["a", "b"]), Graph("h", ["b", "c"])])


def test_graph_rejects_unknown_edge_endpoint():
    with pytest.raises(ValueError, match="unknown"):
        Graph("g", ["a"], [("a", "b")])


def test_adjacency_is_symmetric():
    g = Graph("g", ["a", "b", "c"], [("a", "b")])
    assert g.adjacent("a", "b") and g.adjacent("b", "a")
    assert not g.adjacent("a", "c")
    assert g.degree("a") == 1 and g.degree("c") == 0


def _check_accessors(verts, edges, subsets):
    """Build a Graph from edges and check every accessor against a reference
    computed from the edge set alone; spans_clique is checked on subsets."""
    g = Graph("g", verts, edges)
    pairs = {frozenset(e) for e in edges}
    n = len(verts)

    def adj(u, v):
        return frozenset((u, v)) in pairs

    for u in verts:
        nbrs = tuple(v for v in verts if adj(u, v))
        assert g.neighbors(u) == nbrs
        assert g.degree(u) == len(nbrs)
        for v in verts:
            assert g.adjacent(u, v) == adj(u, v)
    assert g.edges() == [(u, v) for u, v in itertools.combinations(verts, 2) if adj(u, v)]
    assert g.edge_count() == len(pairs)
    assert g.nonneighbor_table() == tuple(
        tuple(j for j in range(n) if j != i and not adj(verts[i], verts[j])) for i in range(n)
    )
    comp = complement(g)
    assert comp.vertices == g.vertices
    assert {frozenset(e) for e in comp.edges()} == {
        frozenset(p) for p in itertools.combinations(verts, 2)
    } - pairs
    for names in subsets:
        assert g.spans_clique(names) == all(adj(u, v) for u, v in itertools.combinations(names, 2))


def _shuffled_edges(rnd, edges):
    # the stored adjacency must not depend on the order or orientation of the input
    out = [e if rnd.random() < 0.5 else e[::-1] for e in edges]
    rnd.shuffle(out)
    return out


def test_accessors_match_the_edge_set_exhaustive_up_to_5():
    rnd = random.Random(12)
    for n in range(6):
        verts = [chr(ord("a") + i) for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        subsets = [s for k in range(n + 1) for s in itertools.combinations(verts, k)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            _check_accessors(verts, _shuffled_edges(rnd, edges), subsets)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_accessors_match_the_edge_set_on_drawn_graphs(seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 12)
    verts = [f"v{i}" for i in rnd.sample(range(100), n)]
    density = rnd.random()
    edges = [(u, v) for u, v in itertools.combinations(verts, 2) if rnd.random() < density]
    subsets = [rnd.sample(verts, rnd.randint(0, n)) for _ in range(40)]
    _check_accessors(verts, _shuffled_edges(rnd, edges), subsets)


def test_spans_clique_reads_names_as_a_set():
    g = Graph("g", ["a", "b", "c"], [("a", "b")])
    assert g.spans_clique(["a", "a"])
    assert g.spans_clique(["a", "b", "a"])
    assert not g.spans_clique(["a", "c", "a"])


def test_spans_clique_rejects_unknown_names():
    g = Graph("g", ["a", "b"], [("a", "b")])
    with pytest.raises(ValueError, match="unknown vertex"):
        g.spans_clique(["a", "z"])
    with pytest.raises(ValueError, match="unknown vertex"):
        g.spans_clique(["z"])


# -- complement -----------------------------------------------------------------


def test_complement_of_complete_is_edgeless():
    g = complement(complete_graph(3))
    assert g.edge_count() == 0 and len(g) == 3


def test_complement_single_vertex_fixed_point():
    g = Graph("g", ["a"])
    assert complement(g).edges() == []


def test_complement_of_p4():
    # oracle: direct enumeration of the non-edges of the path a-b-c-d
    p4 = Graph("P4", ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    expected = {
        frozenset(p) for p in itertools.combinations("abcd", 2)
    } - {frozenset(e) for e in p4.edges()}
    got = {frozenset(e) for e in complement(p4).edges()}
    assert got == expected == {frozenset("ac"), frozenset("ad"), frozenset("bd")}


def test_complement_involution_exhaustive_up_to_5():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            c = complement(g)
            assert complement(c) == g
            assert_same_as_rebuilt(c)
            for comp in join_decompose(g).components:
                assert_same_as_rebuilt(comp.graph)
            if n <= 4:
                for k in range(n + 1):
                    for names in itertools.combinations(g.vertices, k):
                        assert_same_as_rebuilt(induced_subgraph(g, names))
    for n in range(1, 9):
        assert_same_as_rebuilt(path_complement(n))
    small = [g for n in range(1, 4) for g in all_labeled_graphs(n)]
    for g in small:
        for h in small:
            renamed = Graph(h.name, [v.upper() for v in h.vertices], [(u.upper(), v.upper()) for u, v in h.edges()])
            joined = graph_join([g, renamed], f"{g.name}*{h.name}")
            assert_same_as_rebuilt(joined)
            assert joined.edge_count() == g.edge_count() + h.edge_count() + len(g) * len(h)


# -- join decomposition ------------------------------------------------------------


def test_decompose_complete_graph_into_singletons():
    decomp = join_decompose(complete_graph(3))
    assert [c.kind for c in decomp.components] == ["singleton"] * 3


def test_decompose_p4c_is_irreducible():
    decomp = join_decompose(path_complement(4))
    assert len(decomp.components) == 1
    assert decomp.components[0].kind == "path-complement"


def test_decompose_complement_of_p2_disjoint_p1():
    # (P_2 disjoint-union P_1)^c on x1 x2 x3: edges x1-x3, x2-x3
    g = Graph("g", ["x1", "x2", "x3"], [("x1", "x3"), ("x2", "x3")])
    decomp = join_decompose(g)
    kinds = [c.kind for c in decomp.components]
    assert kinds == ["path-complement", "singleton"]
    assert decomp.components[0].graph.vertices == ("x1", "x2")
    assert decomp.components[0].graph.edge_count() == 0


def test_decompose_empty_graph_rejected():
    with pytest.raises(ValueError, match="empty input"):
        join_decompose(Graph("g", []))


def test_decompose_matches_complement_bfs_oracle():
    # independent oracle: explicit complement adjacency plus BFS
    rng = random.Random(99)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        comp_adj = {
            v: {u for u in g.vertices if u != v and not g.adjacent(u, v)}
            for v in g.vertices
        }
        seen = set()
        oracle = []
        for v in g.vertices:
            if v in seen:
                continue
            comp = {v}
            frontier = [v]
            while frontier:
                x = frontier.pop()
                for y in comp_adj[x]:
                    if y not in comp:
                        comp.add(y)
                        frontier.append(y)
            seen |= comp
            oracle.append(frozenset(comp))
        got = [frozenset(c.graph.vertices) for c in join_decompose(g).components]
        assert got == oracle


def test_decompose_rejoin_reconstructs():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        decomp = join_decompose(g)
        rejoined = graph_join(decomp.graphs(), name=g.name)
        assert set(rejoined.vertices) == set(g.vertices)
        assert {frozenset(e) for e in rejoined.edges()} == {frozenset(e) for e in g.edges()}


# -- linear-forest-complement recognition -----------------------------------------------


def test_recognize_complete_graph():
    orders = recognize_linear_forest_complement(complete_graph(4))
    assert orders is not None and len(orders) == 4
    assert all(len(order) == 1 for order in orders)


def test_recognize_p5c():
    g = path_complement(5)
    orders = recognize_linear_forest_complement(g)
    assert orders is not None and len(orders) == 1
    order = orders[0]
    assert set(order) == set(g.vertices)
    # consecutive labels are exactly the non-adjacent pairs
    for a in range(5):
        for b in range(a + 1, 5):
            assert g.adjacent(order[a], order[b]) == (b - a > 1)


def test_recognize_c4_as_two_anti_edges():
    orders = recognize_linear_forest_complement(cycle_graph(4))
    assert orders is not None and len(orders) == 2
    assert sorted(len(order) for order in orders) == [2, 2]


def test_recognize_rejects_c5():
    assert recognize_linear_forest_complement(cycle_graph(5)) is None


def test_recognize_empty_graph():
    assert recognize_linear_forest_complement(Graph("g", [])) is None


def brute_force_path_orders(g):
    """Every vertex order in which consecutive vertices are exactly the
    non-adjacent pairs of g, found by trying all permutations."""
    return {
        order
        for order in itertools.permutations(g.vertices)
        if all(g.adjacent(order[a], order[b]) == (b - a > 1)
               for a in range(len(order)) for b in range(a + 1, len(order)))
    }


def test_factor_labeled_iff_brute_force_finds_path_order_exhaustive_up_to_5():
    labeled = unlabeled = 0
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            for comp in join_decompose(g).components:
                orders = brute_force_path_orders(comp.graph)
                if comp.order is None:
                    assert not orders
                    unlabeled += 1
                else:
                    assert comp.order in orders
                    labeled += 1
    assert labeled > 600 and unlabeled > 800


def test_recognized_labelings_are_anti_path_orders():
    rng = random.Random(17)
    found = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        orders = recognize_linear_forest_complement(g)
        if orders is None:
            continue
        found += 1
        for order in orders:
            for a in range(len(order)):
                for b in range(a + 1, len(order)):
                    assert g.adjacent(order[a], order[b]) == (b - a > 1)
    assert found > 20


# -- full embedding search ------------------------------------------------------------


def test_search_k2_into_k3_finds_first_edge():
    lam = complete_graph(2, prefix="u")
    found = full_embedding_search(lam, complete_graph(3))
    assert found == {"u1": "v1", "u2": "v2"}


def test_search_edgeless_pair_into_k3_fails():
    lam = Graph("lam", ["u1", "u2"])
    assert full_embedding_search(lam, complete_graph(3)) is None


def test_search_identity_case():
    g = path_complement(3)
    found = full_embedding_search(g, g)
    assert found == {v: v for v in g.vertices}


def test_search_restrict_subset_enforced():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        full_embedding_search(complete_graph(2, prefix="u"), g, restrict=["v1", "zzz"])


def test_search_respects_restrict():
    g = complete_graph(4)
    lam = complete_graph(2, prefix="u")
    found = full_embedding_search(lam, g, restrict=["v3", "v4"])
    assert found == {"u1": "v3", "u2": "v4"}


def test_search_agrees_with_bruteforce():
    rng = random.Random(31)
    for _ in range(250):
        lam = random_graph(rng, rng.randint(1, 4), rng.random(), prefix="u")
        gam = random_graph(rng, rng.randint(1, 6), rng.random(), prefix="t")
        got = full_embedding_search(lam, gam)
        exists = False
        for perm in itertools.permutations(gam.vertices, len(lam)):
            mapping = dict(zip(lam.vertices, perm))
            if verify_full_embedding(lam, gam, mapping):
                exists = True
                break
        assert (got is not None) == exists
        if got is not None:
            assert verify_full_embedding(lam, gam, got)


def test_search_is_deterministic():
    rng = random.Random(77)
    for _ in range(40):
        lam = random_graph(rng, 3, 0.5, prefix="u")
        gam = random_graph(rng, 5, 0.5, prefix="t")
        assert full_embedding_search(lam, gam) == full_embedding_search(lam, gam)


def _reference_full_embedding_search(lam, gamma):
    """The plain backtracking scan that full_embedding_search prunes: the
    same degree prefilter, source vertices placed in insertion order, each
    trying its candidates in insertion order and checked against every
    placed vertex. Its first solution is the one the search must return."""
    n, m = len(lam), len(gamma)
    if n == 0:
        return {}
    if n > m:
        return None
    ldeg = [lam.degree(v) for v in lam.vertices]
    gdeg = [gamma.degree(x) for x in gamma.vertices]
    cands = [
        [t for t in range(m) if gdeg[t] >= ldeg[s] and (m - 1 - gdeg[t]) >= (n - 1 - ldeg[s])]
        for s in range(n)
    ]
    assignment = [-1] * n
    used = [False] * m

    def place(s):
        if s == n:
            return True
        for t in cands[s]:
            if used[t]:
                continue
            ok = True
            for s2 in range(s):
                if lam.adjacent(lam.vertices[s2], lam.vertices[s]) != gamma.adjacent(
                    gamma.vertices[assignment[s2]], gamma.vertices[t]
                ):
                    ok = False
                    break
            if not ok:
                continue
            assignment[s] = t
            used[t] = True
            if place(s + 1):
                return True
            used[t] = False
            assignment[s] = -1
        return False

    if not place(0):
        return None
    return {lam.vertices[s]: gamma.vertices[assignment[s]] for s in range(n)}


def test_search_returns_the_reference_mapping():
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_graphs(1, 6, "u"), drawn_graphs(1, 10, "t"), st.data())
    def check(lam, gamma, data):
        restrict = data.draw(st.none() | st.lists(st.sampled_from(gamma.vertices), unique=True))
        if restrict is None:
            want = _reference_full_embedding_search(lam, gamma)
        else:
            want = _reference_full_embedding_search(lam, induced_subgraph(gamma, restrict))
        outcomes.add((want is not None, restrict is not None))
        assert full_embedding_search(lam, gamma, restrict) == want

    check()
    # found and not found, each with and without restrict
    assert outcomes == {(True, False), (False, False), (True, True), (False, True)}


def test_search_domains_are_the_degree_prefilter(monkeypatch):
    # domains read off a table of target degrees hold the same targets as
    # the prefilter applied target by target
    domains = []
    engine = graphs._forward_check
    monkeypatch.setattr(graphs, "_forward_check", lambda d, *rest: domains.append(d) or engine(d, *rest))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn_graphs(1, 7, "u"), drawn_graphs(1, 12, "t"))
    def check(lam, gamma):
        domains.clear()
        full_embedding_search(lam, gamma)
        assert domains == ([degree_prefilter(lam, gamma)] if len(lam) <= len(gamma) else [])

    check()


def test_automorphism_generators_generate_the_automorphism_group():
    # a strong generating set: no identity, every generator an automorphism,
    # and the group they generate is the whole automorphism group
    rnd = random.Random(1989)
    graphs = [g for n in range(1, 5) for g in all_labeled_graphs(n)]
    graphs += [random_graph(rnd, rnd.randint(5, 6), rnd.random()) for _ in range(40)]
    graphs += [cycle_graph(6), cycle_graph(7), complete_graph(6), Graph("free6", list("abcdef")),
               path_complement(6), graph_join([path_graph(3, "a"), path_graph(3, "b")])]
    for g in graphs:
        gens = _automorphism_generators(g).gens
        aut = automorphisms_by_brute_force(g)
        assert tuple(range(len(g))) not in gens and set(gens) <= aut, g.edges()
        assert closure(gens, len(g)) == aut, g.edges()
        assert len(gens) <= len(g) * (len(g) - 1) // 2


def test_stabilizer_orbits_are_the_orbits_of_the_pointwise_stabilizers():
    # O(i) is the set of images of i under the automorphisms that fix
    # 0, ..., i - 1, not under the whole group
    for g in [g for n in range(1, 5) for g in all_labeled_graphs(n)] + symmetric_sources():
        orbits = _automorphism_generators(g).orbits
        assert list(orbits) == stabilizer_orbits_by_brute_force(g), (g.name, g.edges())


def test_search_deeper_than_the_recursion_limit():
    # one search frame per source vertex, more of them than the default
    # recursion limit of 1000
    g = path_graph(1100)
    assert full_embedding_search(g, g) == {v: v for v in g.vertices}


# -- embedding verification --------------------------------------------------------------


def test_verify_identity_on_p4c():
    g = path_complement(4)
    assert verify_full_embedding(g, g, {v: v for v in g.vertices})


def test_verify_rejects_constant_map():
    k2 = complete_graph(2)
    chk = verify_full_embedding(k2, k2, {"v1": "v1", "v2": "v1"})
    assert not chk and "injectivity" in chk.violation


def test_verify_rejects_fullness_violation():
    lam = Graph("lam", ["u1", "u2"])
    c4 = cycle_graph(4)
    # a1 and a2 are adjacent in C_4 but u1, u2 are not adjacent in lam
    chk = verify_full_embedding(lam, c4, {"u1": "a1", "u2": "a2"})
    assert not chk and "fullness" in chk.violation


def test_verify_rejects_adjacency_violation():
    lam = complete_graph(2, prefix="u")
    c4 = cycle_graph(4)
    chk = verify_full_embedding(lam, c4, {"u1": "a1", "u2": "a3"})
    assert not chk and "adjacency" in chk.violation


def test_verify_requires_total_map():
    g = complete_graph(2)
    with pytest.raises(ValueError, match="not total"):
        verify_full_embedding(g, g, {"v1": "v1"})


def test_verify_reports_unknown_target():
    g = complete_graph(1)
    chk = verify_full_embedding(g, g, {"v1": "zzz"})
    assert not chk and "not a target vertex" in chk.violation


# -- text formats ------------------------------------------------------------------------


def test_parse_format_roundtrip():
    g = Graph("G", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert parse_graph(format_graph(g)) == g


def test_parse_empty_edges_line():
    g = parse_graph("graph G\nvertices: a b\nedges:\n")
    assert g.edge_count() == 0


@pytest.mark.parametrize(
    "text",
    [
        "graph G\nvertices: a b\nedges: a-a\n",  # self loop
        "graph G\nvertices: a b\nedges: a-b b-a\n",  # duplicate edge
        "graph G\nvertices: a a\nedges:\n",  # duplicate vertex
        "graph G\nvertices: a\nedges: a-b\n",  # unknown endpoint
        "graph G\nvertices: a-b\nedges:\n",  # bad id
        "graph G!\nvertices: a\nedges:\n",  # bad name
        "vertices: a\nedges:\n",  # missing header
        "graph G\nvertices: a\n",  # missing edges line
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_graph(text)


def test_dot_output_quotes_names():
    g = Graph("G", ["a", "b"], [("a", "b")])
    dot = graph_to_dot(g)
    assert dot.startswith('graph "G" {')
    assert '"a" -- "b";' in dot


def test_induced_subgraph_keeps_order():
    g = Graph("G", ["a", "b", "c", "d"], [("a", "c"), ("b", "d")])
    sub = induced_subgraph(g, ["d", "a", "c"])
    assert sub.vertices == ("a", "c", "d")
    assert sub.edges() == [("a", "c")]


def test_path_builders():
    p = path_graph(4)
    assert p.edges() == [("v1", "v2"), ("v2", "v3"), ("v3", "v4")]
    pc = path_complement(4)
    assert {frozenset(e) for e in pc.edges()} == {
        frozenset(("v1", "v3")),
        frozenset(("v1", "v4")),
        frozenset(("v2", "v4")),
    }
