"""Finite simple graphs with named, insertion-ordered vertices.

This module is the substrate for everything else in the package: graph
algebra (complement, join, induced subgraphs), join decomposition via the
connected components of the complement, recognition of complements of
linear forests, and a deterministic forward-checking search for full
(induced) embeddings, whose engine the clique-chain sequence search of
raag.embedding shares and which also finds generators of a graph's
automorphism group, for raag.extension and for the lex-leader orderings
of the embedding search.

Derived graphs (complements, joins, induced subgraphs, join factors, path
complements, extension balls) are built from neighbour masks by
Graph._from_masks; only names and edges from outside pass through the
checks of Graph.__init__.

Vertex insertion order is significant: it is the tie-breaker for every
deterministic search built on top, so two graphs with the same vertex set
in a different order are treated as distinct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_EDGE_RE = re.compile(r"([A-Za-z0-9_]+)-([A-Za-z0-9_]+)\Z")


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable finite simple graph.

    Vertices are opaque string names, unique within the graph; adjacency is
    symmetric and irreflexive. All operations on graphs are pure, so
    instances are safe to share across threads.

    Adjacency is held as one neighbour bitmask per vertex index: bit j of
    _nbr[i] is set iff the vertices of indices i and j are adjacent. Vertex
    sets inside the package are bitmasks over the same indices.

    The constructor checks names and edges given from outside; graphs
    derived from other masks come from _from_masks, which checks only that
    no name repeats.

    _automorphisms holds vertex permutations (tuples of indices) known to
    be automorphisms, which full_embedding_search uses to prune its root.
    Only the code that builds a graph can vouch for them, so the slot is
    empty except where _from_masks is handed them (extension balls);
    every derived graph starts empty again, and equality and hashing
    ignore it. _stabchain caches the strong generators of the full
    automorphism group and their basic orbits (_stabilizer_chain); every
    graph, derived ones included, starts without them.
    """

    __slots__ = ("name", "vertices", "_index", "_nbr", "_nonadj", "_automorphisms", "_stabchain")

    def __init__(self, name: str, vertices: Iterable[str], edges: Iterable = ()):
        verts = tuple(vertices)
        index: dict[str, int] = {}
        for v in verts:
            if not isinstance(v, str) or not v:
                raise ValueError(f"vertex names must be non-empty strings, got {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex name {v!r}")
            index[v] = len(index)
        nbr = [0] * len(verts)
        for e in edges:
            u, v = e
            if u not in index or v not in index:
                raise ValueError(f"edge {u!r}-{v!r} mentions an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            nbr[index[u]] |= 1 << index[v]
            nbr[index[v]] |= 1 << index[u]
        self.name = name
        self.vertices = verts
        self._index = index
        self._nbr = tuple(nbr)
        self._nonadj = self._stabchain = None
        self._automorphisms = ()

    @classmethod
    def _from_masks(
        cls, name: str, vertices: Sequence[str], nbr: Sequence[int], automorphisms: Sequence[Sequence[int]] = ()
    ) -> "Graph":
        """A graph from vertex names and neighbour masks, and optionally
        automorphisms for _automorphisms. Only a repeated name is checked
        (a ValueError); the names must be non-empty strings, the masks
        symmetric and irreflexive over the vertex indices, and each
        automorphism a permutation of those indices that keeps the
        masks."""
        g = object.__new__(cls)
        g.name = name
        g.vertices = tuple(vertices)
        g._index = {v: i for i, v in enumerate(g.vertices)}
        if len(g._index) != len(g.vertices):
            seen: set[str] = set()
            dup = next(v for v in g.vertices if v in seen or seen.add(v))
            raise ValueError(f"duplicate vertex name {dup!r}")
        g._nbr = tuple(nbr)
        g._nonadj = g._stabchain = None
        g._automorphisms = tuple(automorphisms)
        return g

    # -- accessors ---------------------------------------------------------

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r} in graph {self.name!r}") from None

    def adjacent(self, u: str, v: str) -> bool:
        return bool(self._nbr[self.index(u)] >> self.index(v) & 1)

    def degree(self, v: str) -> int:
        return self._nbr[self.index(v)].bit_count()

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._names(self._nbr[self.index(v)])

    def edges(self) -> list[tuple[str, str]]:
        """Edges as name pairs, ordered by vertex insertion order."""
        verts = self.vertices
        return [(u, verts[j]) for i, u in enumerate(verts) for j in _bits(self._nbr[i] >> i + 1 << i + 1)]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._nbr) // 2

    def spans_clique(self, names: Iterable[str]) -> bool:
        """True iff the given vertices are pairwise adjacent (empty and
        singleton sets span cliques vacuously). The names are read as a set,
        so a repeated name counts once."""
        mask = 0
        for v in names:
            mask |= 1 << self.index(v)
        return not mask & ~self._star_meet(mask)

    def nonneighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex index, the indices of the *distinct* non-adjacent
        vertices. This is the dependence structure consumed by the word
        kernels; cached on first use."""
        if self._nonadj is None:
            self._nonadj = tuple(tuple(_bits(m)) for m in _nonneighbor_masks(self))
        return self._nonadj

    def _stabilizer_chain(self) -> _StabilizerChain:
        """The strong generators of Aut(self) and their basic orbits, as
        _automorphism_generators finds them; cached on first use."""
        if self._stabchain is None:
            self._stabchain = _automorphism_generators(self)
        return self._stabchain

    # -- vertex sets as bitmasks over vertex indices ---------------------------

    def _names(self, mask: int) -> tuple[str, ...]:
        """The vertices of mask, in insertion order."""
        return tuple(self.vertices[i] for i in _bits(mask))

    def _star_meet(self, mask: int) -> int:
        """The AND of the stars st(v) = {v} + lk(v) over the vertices v of
        mask; all ones for the empty mask. mask spans a clique iff it lies
        inside its star meet, which is then the clique together with its
        link (the centralizer theorem's S + lk(S))."""
        meet = -1
        while mask:
            low = mask & -mask
            meet &= self._nbr[low.bit_length() - 1] | low
            mask ^= low
        return meet

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._nbr == other._nbr

    def __hash__(self) -> int:
        return hash((self.vertices, self._nbr))

    def __repr__(self) -> str:
        return f"Graph({self.name!r}, |V|={len(self.vertices)}, |E|={self.edge_count()})"


def _nonneighbor_masks(g: Graph) -> list[int]:
    """Per vertex index t, the bitmask of the vertices distinct from and
    non-adjacent to t: the neighbour masks of the complement graph."""
    full = (1 << len(g)) - 1
    return [full ^ a ^ 1 << t for t, a in enumerate(g._nbr)]


# -- constructors ------------------------------------------------------------


def complement(g: Graph) -> Graph:
    """Complement graph: same vertices, distinct u,v adjacent iff they were
    not. An involution."""
    return Graph._from_masks(g.name + "_c", g.vertices, _nonneighbor_masks(g))


def induced_subgraph(g: Graph, names: Iterable[str], name: Optional[str] = None) -> Graph:
    """Induced subgraph on the given vertices, kept in g's insertion order.
    An unknown or repeated name is a ValueError."""
    keep = 0
    for v in names:
        bit = 1 << g.index(v)
        if keep & bit:
            raise ValueError(f"duplicate vertex {v!r} in selection")
        keep |= bit
    return _induced(g, keep, name if name is not None else g.name + "_sub")


def _induced(g: Graph, keep: int, name: str) -> Graph:
    """Induced subgraph on the vertices of the mask keep, in g's insertion
    order: each kept neighbour mask compressed to the kept indices."""
    idxs = list(_bits(keep))
    pos = {i: k for k, i in enumerate(idxs)}
    nbr = [sum(1 << pos[j] for j in _bits(g._nbr[i] & keep)) for i in idxs]
    return Graph._from_masks(name, g._names(keep), nbr)


def graph_join(parts: Sequence[Graph], name: str = "join") -> Graph:
    """Join of graphs: disjoint union plus every edge across distinct parts.
    Each part's masks are shifted to its offset and ORed with every vertex
    outside the part.

    Vertex names must be globally distinct across the parts; a repeated
    name is a ValueError.
    """
    full = (1 << sum(len(p) for p in parts)) - 1
    verts: list[str] = []
    nbr: list[int] = []
    for p in parts:
        outside = full ^ ((1 << len(p)) - 1) << len(verts)
        nbr.extend(m << len(verts) | outside for m in p._nbr)
        verts.extend(p.vertices)
    return Graph._from_masks(name, verts, nbr)


def _check_count(name: str, value: int, least: int) -> None:
    """Raise ValueError naming the argument unless value is an int, not a
    bool, and at least least."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def path_graph(n: int, prefix: str = "v", name: Optional[str] = None) -> Graph:
    """The path on n >= 1 vertices prefix1 - prefix2 - ... - prefixn."""
    _check_count("n", n, 1)
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return Graph(name if name is not None else f"P{n}", verts, edges)


def path_complement(n: int, prefix: str = "v", name: Optional[str] = None) -> Graph:
    """Complement of the path on n vertices: prefixi ~ prefixj iff |i-j| > 1."""
    p = path_graph(n, prefix)
    return Graph._from_masks(name if name is not None else f"P{n}c", p.vertices, _nonneighbor_masks(p))


def complete_graph(n: int, prefix: str = "v", name: Optional[str] = None) -> Graph:
    """The complete graph on n >= 0 vertices prefix1, ..., prefixn."""
    _check_count("n", n, 0)
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(name if name is not None else f"K{n}", verts, edges)


# -- join decomposition --------------------------------------------------------


@dataclass(frozen=True)
class JoinComponent:
    """One join factor of a graph. order is _anti_path_order of the factor:
    when the factor is the complement of a path v_1 - ... - v_n (a single
    vertex included), that path's order v_1..v_n, so consecutive entries
    are exactly the non-adjacent pairs; None otherwise."""

    graph: Graph
    order: Optional[tuple[str, ...]]

    @property
    def kind(self) -> str:
        """"singleton", "path-complement" or "other" (no order)."""
        if len(self.graph) == 1:
            return "singleton"
        return "other" if self.order is None else "path-complement"


@dataclass(frozen=True)
class JoinDecomposition:
    components: tuple[JoinComponent, ...]

    def graphs(self) -> tuple[Graph, ...]:
        return tuple(c.graph for c in self.components)


def _components_of(nbr: Sequence[int]) -> list[int]:
    """Connected components of the graph with neighbour masks nbr, as
    masks, ordered by smallest index."""
    comps = []
    left = (1 << len(nbr)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= nbr[i]
            frontier = reach & ~comp
            comp |= frontier
        left ^= comp
        comps.append(comp)
    return comps


def _anti_path_order(g: Graph) -> Optional[tuple[str, ...]]:
    """If g is the complement of a path (one vertex counts, none does not),
    the path's order from its insertion-order-first endpoint; else None.
    The walk in the complement from its first vertex of degree <= 1 marks
    all unvisited neighbours of each vertex it visits but moves to one, so
    it visits every vertex iff the complement is that path."""
    non = _nonneighbor_masks(g)
    start = next((i for i, m in enumerate(non) if m.bit_count() <= 1), None)
    if start is None:
        return None
    order = [start]
    seen = 1 << start
    while step := non[order[-1]] & ~seen:
        seen |= step
        order.append(step.bit_length() - 1)
    if len(order) != len(non):
        return None
    return tuple(g.vertices[i] for i in order)


def join_decompose(g: Graph) -> JoinDecomposition:
    """Split g into its join factors.

    The factors are the induced subgraphs on the connected components of
    the complement of g (a graph is join-irreducible iff its complement is
    connected). Components are ordered by their smallest vertex in
    insertion order. Path complements, single vertices included, carry
    their anti-path order; the other components carry None.
    """
    if len(g) == 0:
        raise ValueError("empty input")
    comps = []
    for keep in _components_of(_nonneighbor_masks(g)):
        sub = _induced(g, keep, f"{g.name}_comp{len(comps) + 1}")
        comps.append(JoinComponent(sub, _anti_path_order(sub)))
    return JoinDecomposition(tuple(comps))


def recognize_linear_forest_complement(g: Graph) -> Optional[list[tuple[str, ...]]]:
    """If g is a join of path-graph complements, return the anti-path order
    of each join component (in component order); otherwise None.

    The empty graph is not recognized.
    """
    if len(g) == 0:
        return None
    orders = [comp.order for comp in join_decompose(g).components]
    return None if None in orders else orders


# -- full embeddings -----------------------------------------------------------


def _forward_check(
    domains: list[int],
    links: Sequence[Sequence[tuple[int, Sequence[int]]]],
    symmetries: Sequence[Sequence[int]] = (),
) -> Iterator[list[int]]:
    """Every assignment of one target index to each of n >= 1 positions,
    by depth-first forward checking, as a generator: first-solution
    callers take next(..., None).

    domains[s] is the bitmask of target indices allowed at position s.
    Positions are assigned in order 0, 1, ..., and values in ascending bit
    order. links[s] lists, for later positions s2 only, a table indexed by
    target: placing t at s ANDs domains[s2] with table[t]. A branch is cut
    as soon as a later domain becomes empty, which loses no solution, so
    the assignments come in the order a plain backtracking scan in the
    same orders would find them. The search keeps an explicit stack, one
    frame per placed position, so its depth is not bounded by the
    interpreter's recursion limit.

    symmetries are permutations of the targets that keep every domain
    and link table. Once the subtree under a value t at position 0 has
    been searched without an assignment, the rest of its orbit under the
    group they generate is dropped from position 0: a permutation that
    maps t to t2 maps an assignment with t2 first to one with t first. So
    exactly the same assignments come out, in the same order, and only
    searches that were bound to fail are skipped (root-level orbit
    pruning: McKay & Piperno, J. Symbolic Comput. 2014). An orbit is
    computed only when a root subtree fails, so a search that succeeds at
    its first root value pays nothing for them; a root value that empties
    a domain at once costs one forward check and is not worth an orbit.
    """
    n = len(domains)
    out = [0] * n
    # position s tries the values in d against doms, the domains left by
    # the placements before it; stack holds (d, doms) of positions < s;
    # hit says whether the value at position 0 led to an assignment
    stack: list[tuple[int, list[int]]] = []
    s, d, doms = 0, domains[0], domains
    hit = False
    while True:
        while d:
            low = d & -d
            d ^= low
            t = low.bit_length() - 1
            nxt = doms[:]
            for s2, table in links[s]:
                nxt[s2] &= table[t]
                if not nxt[s2]:
                    break
            else:
                out[s] = t
                if s + 1 == n:
                    hit = True
                    yield out[:]
                    continue
                stack.append((d, doms))
                s, d, doms = s + 1, nxt[s + 1], nxt
        if not stack:
            return
        d, doms = stack.pop()
        s -= 1
        if s == 0:
            if symmetries and not hit:
                d &= ~_orbit(1 << out[0], symmetries)
            hit = False


def _orbit(mask: int, perms: Sequence[Sequence[int]]) -> int:
    """The union of the orbits of the indices in mask under the group that
    the permutations perms generate, as a bitmask."""
    frontier = mask
    while frontier:
        reach = 0
        for p in perms:
            for x in _bits(frontier):
                reach |= 1 << p[x]
        frontier = reach & ~mask
        mask |= frontier
    return mask


def _embedding_links(
    lam: Graph, gamma: Graph, orbits: Sequence[int] = ()
) -> list[list[tuple[int, Sequence[int]]]]:
    """The forward-checking links of a full embedding of lam into gamma:
    a later source neighbour of s keeps the neighbours of t, any other
    later source vertex the distinct non-neighbours of t. With orbits, one
    mask of source positions per position s, a later position in
    orbits[s] keeps only the targets above t as well (the ordering
    f(s) < f(s2)); a table never holds t itself. A masked table is built
    only when some orbit pair reads it: the neighbour one for a pair
    adjacent in lam, the non-neighbour one for a pair that is not."""
    nbr, non = gamma._nbr, _nonneighbor_masks(gamma)
    n = len(lam)
    links = [[(s2, nbr if lam._nbr[s] >> s2 & 1 else non) for s2 in range(s + 1, n)] for s in range(n)]
    masked: dict[bool, list[int]] = {}
    for s, orbit in enumerate(orbits):
        row = links[s]
        for k, (s2, table) in enumerate(row):
            if orbit >> s2 & 1:
                kind = table is nbr
                if kind not in masked:
                    masked[kind] = _above(table)
                row[k] = (s2, masked[kind])
    return links


def _above(table: Sequence[int]) -> list[int]:
    """Each row t of table masked to the indices above t."""
    return [row & -(2 << t) for t, row in enumerate(table)]


class _StabilizerChain(NamedTuple):
    """What _automorphism_generators finds: gens and orbits."""

    gens: tuple[tuple[int, ...], ...]
    orbits: tuple[int, ...]


def _automorphism_generators(g: Graph) -> _StabilizerChain:
    """Generators of the automorphism group of g, as permutations of its
    vertex indices (identity left out), along the stabilizer chain of the
    indices 0, 1, ...: a strong generating set (Sims, 1970), and per index
    i, as a mask, its basic orbit: its orbit under the automorphisms that
    fix 0, ..., i - 1.

    Index i is taken from the last to the first. Every generator found so
    far fixes 0, ..., i - 1, so it lies in the stabilizer G_i of those
    indices. Each t of i's degree that is not yet in the orbit of i under
    those generators is tried as the image of i by one first-solution run
    of the forward-checking engine, with 0, ..., i - 1 fixed; a solution is
    a new generator. So the generators found at levels >= i move i onto its
    whole G_i-orbit and, with G_(i+1), generate G_i: the orbit closed at
    the end of level i is the basic orbit of i. This costs at most
    n(n - 1)/2 searches and never lists the group, which has up to n!
    elements."""
    n = len(g)
    links = _embedding_links(g, g)
    deg = [m.bit_count() for m in g._nbr]
    same = [sum(1 << t for t in range(n) if deg[t] == deg[s]) for s in range(n)]
    gens: list[tuple[int, ...]] = []
    orbits = [0] * n
    for i in reversed(range(n)):
        fixed = [1 << k for k in range(i)]
        moved = (1 << n) - (1 << i)
        orbit = 1 << i
        for t in _bits(same[i] & moved & ~orbit):
            if orbit >> t & 1:
                continue
            found = next(_forward_check(fixed + [1 << t] + [same[s] & moved for s in range(i + 1, n)], links), None)
            if found is None:
                continue
            gens.append(tuple(found))
            orbit = _orbit(orbit, gens)
        orbits[i] = orbit
    return _StabilizerChain(tuple(gens), tuple(orbits))


def full_embedding_search(
    lam: Graph, gamma: Graph, restrict: Optional[Iterable[str]] = None
) -> Optional[dict[str, str]]:
    """Search for a full (induced) embedding of lam into gamma.

    Returns an injective vertex map preserving both adjacency and
    non-adjacency, or None if no such map exists. When restrict is given
    the image must lie inside that subset of gamma's vertices.

    Source vertices are placed in insertion order and each tries its
    candidate targets (those passing a degree and complement-degree
    prefilter) in insertion order; the first solution is returned. The
    search keeps each unplaced source vertex's remaining candidates as a
    bitmask: placing u at t keeps only the neighbours of t for the source
    neighbours of u and only the distinct non-neighbours of t for the
    others, and abandons the branch when some candidate set runs empty.
    That pruning discards only branches without a solution, so the result
    is the first solution of the plain backtracking scan in the same
    orders.

    When gamma carries automorphisms (extension balls do, see
    Graph._automorphisms), two symmetries prune the search, and the first
    solution is still the one above. The restricted search runs on an
    induced subgraph, which carries none, and so does neither.

    Source symmetry, by lex-leader orderings along a stabilizer chain
    (Crawford, Ginsberg, Luks & Roy, KR 1996; Puget, IJCAI 2005, for
    injective maps): with O(i) the orbit of position i under the
    automorphisms of lam that fix 0, ..., i - 1 (its basic orbit), the
    search keeps only maps f with f(i) < f(s) for every s != i in O(i), by
    masking the link table of each such (i, s) to the targets above f(i).
    For an automorphism a of lam, write f.a for the map s -> f(a(s)); a
    keeps the degree prefilter and the source adjacency, so f.a is a
    solution whenever f is. (a) The first solution f of the plain scan
    meets every ordering: were f(s) < f(i) for some s in O(i), an a that
    fixes 0, ..., i - 1 and sends i to s would make f.a agree with f
    before i and hold f(s) < f(i) at i, a lexicographically smaller
    solution. (b) By the same step, the least map of each orbit {f.a}
    meets every ordering: each solution has an image under Aut(lam) that
    the ordered search keeps.

    Target symmetry, at the root: the first source vertex skips every
    target in the orbit of one where the ordered search below it failed.
    Say a solution f starts at p(t), for an automorphism p of gamma, where
    t failed. Then s -> p^-1(f(s)) is a solution starting at t, and by (b)
    one of its images under Aut(lam) meets the orderings and starts at a
    value <= t. The ascending root scan has already ruled out every such
    value: t failed, and a smaller root value that led to a solution would
    have been returned. So no skipped target starts the first solution.
    The masked tables are not kept by gamma's automorphisms, so the engine
    no longer yields every ordered assignment; only the first one is
    certain, and that is all this search returns.

    The same pruning below the root, by the automorphisms of gamma that
    fix the values already placed, would keep the first solution too: one
    that mapped a value tried earlier at position k onto the first
    solution's value there would map the first solution to a smaller one.
    It is left out because it costs more than it saves: it cut a quarter
    of the values tried on the ext_query benchmark queries, but filtering
    the generators at each backtrack took longer.

    The orderings read the basic orbits of Aut(lam), cached on lam with its
    generators (Graph._stabilizer_chain), so they are built only for
    targets with automorphisms: the other searches (induced supports in
    raag.embedding) run on small fresh sources, where that costs more than
    the search it would prune.
    """
    if restrict is not None:
        return full_embedding_search(lam, induced_subgraph(gamma, restrict))
    n, m = len(lam), len(gamma)
    if n == 0:
        return {}
    if n > m:
        return None
    # t can host s only if t has enough neighbors and enough non-neighbors
    # inside any n-vertex induced image: deg(s) <= deg(t) <= m - n + deg(s).
    # below[d] holds the targets of degree < d.
    below = [0] * (m + 1)
    for t, a in enumerate(gamma._nbr):
        below[a.bit_count() + 1] |= 1 << t
    for d in range(1, m + 1):
        below[d] |= below[d - 1]
    domains = [below[m - n + d + 1] & ~below[d] for d in (a.bit_count() for a in lam._nbr)]
    orbits = lam._stabilizer_chain().orbits if gamma._automorphisms else ()
    found = next(_forward_check(domains, _embedding_links(lam, gamma, orbits), gamma._automorphisms), None)
    if found is None:
        return None
    return {lam.vertices[s]: gamma.vertices[found[s]] for s in range(n)}


@dataclass(frozen=True)
class EmbeddingCheck:
    """The result of verify_full_embedding: true iff there is no violation."""

    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.violation is None


def verify_full_embedding(lam: Graph, gamma: Graph, mapping: Mapping[str, str]) -> EmbeddingCheck:
    """Certificate checker for full embeddings.

    True iff mapping is injective, adjacency-preserving and
    non-adjacency-preserving; otherwise the report names the first
    violating pair in insertion-order scan. The map must be a mapping total
    on lam's vertices (anything else is a usage error, not a verification
    result).
    """
    if not isinstance(mapping, Mapping):
        raise ValueError(f"map is not a mapping: {mapping!r}")
    missing = [v for v in lam.vertices if v not in mapping]
    if missing:
        raise ValueError(f"map is not total on the source: missing {missing[0]!r}")
    extra = [v for v in mapping if v not in lam]
    if extra:
        raise ValueError(f"map mentions non-source vertex {extra[0]!r}")
    for v in lam.vertices:
        if not isinstance(mapping[v], str) or mapping[v] not in gamma:
            return EmbeddingCheck(f"image {mapping[v]!r} of {v!r} is not a target vertex")
    verts = lam.vertices
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            u, v = verts[a], verts[b]
            xu, xv = mapping[u], mapping[v]
            if xu == xv:
                return EmbeddingCheck(f"injectivity violation: {u!r} and {v!r} both map to {xu!r}")
            la = lam.adjacent(u, v)
            ga = gamma.adjacent(xu, xv)
            if la and not ga:
                return EmbeddingCheck(f"adjacency violation at pair ({u!r}, {v!r})")
            if ga and not la:
                return EmbeddingCheck(f"fullness violation at pair ({u!r}, {v!r})")
    return EmbeddingCheck()


# -- text formats ----------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the three-line graph format::

        graph <name>
        vertices: <id> <id> ...
        edges: <id>-<id> <id>-<id> ...

    Ids match [A-Za-z0-9_]+; the edges line may be empty. Self-loops and
    duplicate edges are rejected.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) != 3:
        raise ValueError("expected exactly three lines: graph/vertices/edges")
    m = re.fullmatch(r"graph\s+([A-Za-z0-9_]+)", lines[0])
    if not m:
        raise ValueError(f"bad graph header: {lines[0]!r}")
    name = m.group(1)
    if not lines[1].startswith("vertices:"):
        raise ValueError("second line must start with 'vertices:'")
    vert_tokens = lines[1][len("vertices:"):].split()
    for v in vert_tokens:
        if not _ID_RE.fullmatch(v):
            raise ValueError(f"bad vertex id {v!r}")
    if not lines[2].startswith("edges:"):
        raise ValueError("third line must start with 'edges:'")
    edges = []
    seen = set()
    for tok in lines[2][len("edges:"):].split():
        m = _EDGE_RE.fullmatch(tok)
        if not m:
            raise ValueError(f"bad edge token {tok!r}")
        u, v = m.group(1), m.group(2)
        if u == v:
            raise ValueError(f"self-loop {tok!r}")
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {tok!r}")
        seen.add(key)
        edges.append((u, v))
    return Graph(name, vert_tokens, edges)


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph, provided all ids are of the restricted form."""
    verts = " ".join(g.vertices)
    edges = " ".join(f"{u}-{v}" for u, v in g.edges())
    edge_line = f"edges: {edges}" if edges else "edges:"
    return f"graph {g.name}\nvertices: {verts}\n{edge_line}\n"


def graph_to_dot(g: Graph) -> str:
    """Undirected DOT rendering with quoted vertex names."""
    out = [f'graph "{g.name}" {{']
    for v in g.vertices:
        out.append(f'  "{v}";')
    for u, v in g.edges():
        out.append(f'  "{u}" -- "{v}";')
    out.append("}")
    return "\n".join(out) + "\n"
