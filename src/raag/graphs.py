"""Finite simple graphs with named, insertion-ordered vertices.

This module is the substrate for everything else in the package: graph
algebra (complement, join, induced subgraphs), join decomposition via the
connected components of the complement, recognition of complements of
linear forests, and a deterministic forward-checking search for full
(induced) embeddings, whose engine the clique-chain sequence search of
raag.embedding shares.

Vertex insertion order is significant: it is the tie-breaker for every
deterministic search built on top, so two graphs with the same vertex set
in a different order are treated as distinct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_EDGE_RE = re.compile(r"([A-Za-z0-9_]+)-([A-Za-z0-9_]+)\Z")


class Graph:
    """Immutable finite simple graph.

    Vertices are opaque string names, unique within the graph; adjacency is
    symmetric and irreflexive. All operations on graphs are pure, so
    instances are safe to share across threads.
    """

    __slots__ = ("name", "vertices", "_index", "_adj", "_nonadj", "_hash")

    def __init__(self, name: str, vertices: Iterable[str], edges: Iterable = ()):
        verts = tuple(vertices)
        index: dict[str, int] = {}
        for v in verts:
            if not isinstance(v, str) or not v:
                raise ValueError(f"vertex names must be non-empty strings, got {v!r}")
            if v in index:
                raise ValueError(f"duplicate vertex name {v!r}")
            index[v] = len(index)
        adj = [set() for _ in verts]
        for e in edges:
            u, v = e
            if u not in index or v not in index:
                raise ValueError(f"edge {u!r}-{v!r} mentions an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        self.name = name
        self.vertices = verts
        self._index = index
        self._adj = tuple(frozenset(s) for s in adj)
        self._nonadj = None
        self._hash = None

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
        return self.index(v) in self._adj[self.index(u)]

    def degree(self, v: str) -> int:
        return len(self._adj[self.index(v)])

    def neighbors(self, v: str) -> tuple[str, ...]:
        i = self.index(v)
        return tuple(u for u in self.vertices if self._index[u] in self._adj[i])

    def edges(self) -> list[tuple[str, str]]:
        """Edges as name pairs, ordered by vertex insertion order."""
        out = []
        for i, u in enumerate(self.vertices):
            for j in sorted(self._adj[i]):
                if j > i:
                    out.append((u, self.vertices[j]))
        return out

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def spans_clique(self, names: Iterable[str]) -> bool:
        """True iff the given vertices are pairwise adjacent (empty and
        singleton sets span cliques vacuously)."""
        idxs = [self.index(v) for v in names]
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                if idxs[b] not in self._adj[idxs[a]]:
                    return False
        return True

    def nonneighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex index, the indices of the *distinct* non-adjacent
        vertices. This is the dependence structure consumed by the word
        kernels; cached on first use."""
        if self._nonadj is None:
            n = len(self.vertices)
            self._nonadj = tuple(
                tuple(j for j in range(n) if j != i and j not in self._adj[i])
                for i in range(n)
            )
        return self._nonadj

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, self._adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.name!r}, |V|={len(self.vertices)}, |E|={self.edge_count()})"


# -- constructors ------------------------------------------------------------


def complement(g: Graph) -> Graph:
    """Complement graph: same vertices, distinct u,v adjacent iff they were
    not. An involution."""
    verts = g.vertices
    edges = [
        (verts[i], verts[j])
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if j not in g._adj[i]
    ]
    return Graph(g.name + "_c", verts, edges)


def induced_subgraph(g: Graph, names: Iterable[str], name: Optional[str] = None) -> Graph:
    """Induced subgraph on the given vertices, kept in g's insertion order."""
    wanted = set()
    for v in names:
        g.index(v)
        if v in wanted:
            raise ValueError(f"duplicate vertex {v!r} in selection")
        wanted.add(v)
    verts = [v for v in g.vertices if v in wanted]
    edges = [(u, v) for u, v in g.edges() if u in wanted and v in wanted]
    return Graph(name if name is not None else g.name + "_sub", verts, edges)


def graph_join(parts: Sequence[Graph], name: str = "join") -> Graph:
    """Join of graphs: disjoint union plus every edge across distinct parts.

    Vertex names must be globally distinct across the parts.
    """
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    for p in parts:
        verts.extend(p.vertices)
        edges.extend(p.edges())
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in parts[a].vertices:
                for v in parts[b].vertices:
                    edges.append((u, v))
    return Graph(name, verts, edges)


def path_graph(n: int, prefix: str = "v", name: Optional[str] = None) -> Graph:
    """The path on n >= 1 vertices prefix1 - prefix2 - ... - prefixn."""
    if n < 1:
        raise ValueError("a path graph has at least one vertex")
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return Graph(name if name is not None else f"P{n}", verts, edges)


def path_complement(n: int, prefix: str = "v", name: Optional[str] = None) -> Graph:
    """Complement of the path on n vertices: prefixi ~ prefixj iff |i-j| > 1."""
    g = complement(path_graph(n, prefix))
    return Graph(name if name is not None else f"P{n}c", g.vertices, g.edges())


def complete_graph(n: int, prefix: str = "v", name: Optional[str] = None) -> Graph:
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(name if name is not None else f"K{n}", verts, edges)


# -- join decomposition --------------------------------------------------------


@dataclass(frozen=True)
class PathLabeling:
    """An ordering v_1..v_n of one join component such that consecutive
    entries are exactly the non-adjacent pairs within the component (the
    component is the complement of the path v_1 - ... - v_n)."""

    order: tuple[str, ...]


@dataclass(frozen=True)
class JoinComponent:
    graph: Graph
    kind: str  # "singleton" | "path-complement" | "other"
    labeling: Optional[PathLabeling]


@dataclass(frozen=True)
class JoinDecomposition:
    components: tuple[JoinComponent, ...]

    def graphs(self) -> tuple[Graph, ...]:
        return tuple(c.graph for c in self.components)


def _components_of(g: Graph) -> list[list[int]]:
    """Connected components of g as index lists, ordered by smallest index."""
    n = len(g.vertices)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            i = stack.pop()
            for j in g._adj[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _path_order(g: Graph) -> Optional[tuple[str, ...]]:
    """If g is a path graph, its vertex order from the insertion-order-first
    endpoint; otherwise None. A path is connected, has n-1 edges, and max
    degree <= 2 (n = 1 counts)."""
    n = len(g.vertices)
    if n == 0:
        return None
    if n == 1:
        return (g.vertices[0],)
    if g.edge_count() != n - 1:
        return None
    if any(len(s) > 2 for s in g._adj):
        return None
    if len(_components_of(g)) != 1:
        return None
    start = next(i for i in range(n) if len(g._adj[i]) == 1)
    order = [start]
    prev = -1
    while len(order) < n:
        nxt = next(j for j in g._adj[order[-1]] if j != prev)
        prev = order[-1]
        order.append(nxt)
    return tuple(g.vertices[i] for i in order)


def join_decompose(g: Graph) -> JoinDecomposition:
    """Split g into its join factors.

    The factors are the induced subgraphs on the connected components of
    the complement of g (a graph is join-irreducible iff its complement is
    connected). Components are ordered by their smallest vertex in
    insertion order; each is tagged singleton / path-complement / other,
    and path complements carry a PathLabeling.
    """
    if len(g) == 0:
        raise ValueError("empty input")
    comps = []
    for idxs in _components_of(complement(g)):
        sub = induced_subgraph(g, [g.vertices[i] for i in idxs],
                               name=f"{g.name}_comp{len(comps) + 1}")
        if len(sub) == 1:
            comps.append(JoinComponent(sub, "singleton", PathLabeling(sub.vertices)))
            continue
        order = _path_order(complement(sub))
        if order is not None:
            comps.append(JoinComponent(sub, "path-complement", PathLabeling(order)))
        else:
            comps.append(JoinComponent(sub, "other", None))
    return JoinDecomposition(tuple(comps))


def recognize_linear_forest_complement(g: Graph) -> Optional[list[PathLabeling]]:
    """If g is a join of path-graph complements, return one PathLabeling per
    join component (in component order); otherwise None.

    The empty graph is not recognized.
    """
    if len(g) == 0:
        return None
    decomp = join_decompose(g)
    labelings = []
    for comp in decomp.components:
        if comp.labeling is None:
            return None
        labelings.append(comp.labeling)
    return labelings


# -- full embeddings -----------------------------------------------------------


def _forward_check(
    domains: list[int], links: Sequence[Sequence[tuple[int, Sequence[int]]]]
) -> Optional[list[int]]:
    """First assignment of one target index to each of n >= 1 positions,
    by depth-first forward checking.

    domains[s] is the bitmask of target indices allowed at position s.
    Positions are assigned in order 0, 1, ..., and values in ascending bit
    order. links[s] lists, for later positions s2 only, a table indexed by
    target: placing t at s ANDs domains[s2] with table[t]. A branch is cut
    as soon as a later domain becomes empty, which loses no solution, so
    the first assignment found is the one a plain backtracking scan in the
    same orders would find. None when no assignment exists. The search
    keeps an explicit stack, one frame per placed position, so its depth
    is not bounded by the interpreter's recursion limit.
    """
    n = len(domains)
    out = [0] * n
    # position s tries the values in d against doms, the domains left by
    # the placements before it; stack holds (d, doms) of positions < s
    stack: list[tuple[int, list[int]]] = []
    s, d, doms = 0, domains[0], domains
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
                    return out
                stack.append((d, doms))
                s, d, doms = s + 1, nxt[s + 1], nxt
        if not stack:
            return None
        d, doms = stack.pop()
        s -= 1


def _adjacency_masks(g: Graph) -> tuple[list[int], list[int]]:
    """Per vertex index t, the bitmasks of its neighbours and of its
    distinct non-neighbours; neither contains t itself."""
    nbr = [sum(1 << j for j in adj) for adj in g._adj]
    full = (1 << len(nbr)) - 1
    return nbr, [full ^ a ^ (1 << t) for t, a in enumerate(nbr)]


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
    """
    if restrict is not None:
        return full_embedding_search(lam, induced_subgraph(gamma, restrict))
    n, m = len(lam), len(gamma)
    if n == 0:
        return {}
    if n > m:
        return None
    ldeg = [len(a) for a in lam._adj]
    gdeg = [len(a) for a in gamma._adj]
    # t can host s only if t has enough neighbors and enough non-neighbors
    # inside any n-vertex induced image.
    domains = [
        sum(1 << t for t in range(m) if gdeg[t] >= ldeg[s] and m - 1 - gdeg[t] >= n - 1 - ldeg[s])
        for s in range(n)
    ]
    nbr, non = _adjacency_masks(gamma)
    links = [
        [(s2, nbr if s2 in lam._adj[s] else non) for s2 in range(s + 1, n)] for s in range(n)
    ]
    found = _forward_check(domains, links)
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
    violating pair in insertion-order scan. The map must be total on lam's
    vertices (anything else is a usage error, not a verification result).
    """
    missing = [v for v in lam.vertices if v not in mapping]
    if missing:
        raise ValueError(f"map is not total on the source: missing {missing[0]!r}")
    extra = [v for v in mapping if v not in lam]
    if extra:
        raise ValueError(f"map mentions non-source vertex {extra[0]!r}")
    for v in lam.vertices:
        if mapping[v] not in gamma:
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
