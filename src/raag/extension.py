"""Finite balls of the extension graph of a finite simple graph.

The extension graph of a graph has one vertex per conjugate of a generator
of the right-angled Artin group, with edges between commuting elements. It
is infinite in general, so this module computes the finite approximation
obtained by bounding the length of the (reduced) conjugating words; the
radius-0 ball is the original graph.

Vertices are canonicalized as group elements, so conjugates that coincide
as elements are merged regardless of which conjugator produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from raag.graphs import Graph
from raag.words import (
    GroupElement,
    Word,
    canonical_form,
    commutes,
    conjugate,
    is_reduced,
    support,
)


@dataclass(frozen=True)
class ExtVertex:
    """A conjugate of a generator: the conjugated generator (base) plus the
    canonical form of the conjugated element (its identity)."""

    base: str
    element: GroupElement

    @property
    def name(self) -> str:
        """Stable printable name: <base>@<canonical letters joined by '.'>."""
        rep = ".".join(v if s > 0 else f"{v}^-1" for v, s in self.element.word.letters)
        return f"{self.base}@{rep}"


def ext_vertex(v: str, conjugator: Word) -> ExtVertex:
    """The extension-graph vertex v^conjugator, canonicalized."""
    g = conjugator.graph
    if v not in g:
        raise ValueError(f"foreign vertex {v!r} for graph {g.name!r}")
    rep = canonical_form(conjugate(Word(g, ((v, 1),)), conjugator))
    return ExtVertex(v, rep)


def ext_adjacent(x: ExtVertex, y: ExtVertex) -> bool:
    """Adjacency in the extension graph: distinct and commuting."""
    if x.element.word.graph != y.element.word.graph:
        raise ValueError("extension vertices come from different source graphs")
    if x.element == y.element:
        return False
    return commutes(x.element.word, y.element.word)


def enumerate_reduced_words(g: Graph, max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len, in shortlex order (length
    ascending, then letter order)."""
    empty = Word(g, ())
    yield empty
    letters = [(c,) for i in range(1, len(g.vertices) + 1) for c in (i, -i)]
    level = [empty]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for letter in letters:
                cand = Word._from_codes(g, w.codes() + letter)
                if is_reduced(cand):
                    nxt.append(cand)
                    yield cand
        level = nxt


@dataclass(frozen=True)
class ExtBall:
    """The ball of the extension graph spanned by conjugates with reduced
    conjugators of length <= radius. Adjacency is commutation; there are no
    self-loops."""

    source: Graph
    radius: int
    vertices: tuple[ExtVertex, ...]
    edges: frozenset[tuple[int, int]]  # index pairs i < j

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges


def ext_ball(g: Graph, radius: int) -> ExtBall:
    """Construct the radius-L ball of the extension graph of g.

    Conjugators are enumerated in shortlex order and conjugates are
    deduplicated by canonical representative, so the vertex order is
    deterministic and the radius-0 slice comes first, in g's vertex order.

    Adjacency uses the centralizer of a generator v, the subgroup generated
    by its star st(v) (Servatius, J. Algebra 1989). With h the first
    conjugator that produced x = h^-1 v h, the centralizer of x is
    h^-1 <st(v)> h, so y commutes with x iff the support of h y h^-1 lies
    in st(v). Two necessary conditions reject most pairs without a
    normalization. The bases of x and y are adjacent in g: conjugates of
    one generator commute only when equal, and the retraction onto the
    subgroup generated by two non-adjacent generators, a free group, maps
    their conjugates to non-commuting elements. And every element of
    h^-1 <st(v)> h has its support in the union of supp(h) and st(v).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    verts: dict[tuple, tuple[ExtVertex, Word]] = {}
    for w in enumerate_reduced_words(g, radius):
        for v in g.vertices:
            x = ext_vertex(v, w)
            key = x.element.word.codes()
            if key not in verts:
                verts[key] = (x, w)
    firsts = tuple(verts.values())
    vlist = tuple(x for x, _ in firsts)
    star = {v: frozenset((v, *g.neighbors(v))) for v in g.vertices}
    with_base: dict[str, list[int]] = {v: [] for v in g.vertices}
    for j, x in enumerate(vlist):
        with_base[x.base].append(j)
    codes = [x.element.word.codes() for x in vlist]
    names = g.vertices
    # canonical words are reduced, so their letters are their support
    supports = [frozenset(names[abs(c) - 1] for c in cs) for cs in codes]
    reach = [star[x.base].union(names[abs(c) - 1] for c in h.codes()) for x, h in firsts]
    edges = set()
    for i, (x, h) in enumerate(firsts):
        head, tail = h.codes(), h.inverse().codes()
        for u in g.neighbors(x.base):
            for j in with_base[u]:
                if (
                    j > i
                    and supports[j] <= reach[i]
                    and supports[i] <= reach[j]
                    and support(Word._from_codes(g, head + codes[j] + tail)) <= star[x.base]
                ):
                    edges.add((i, j))
    return ExtBall(g, radius, vlist, frozenset(edges))


def ball_as_graph(ball: ExtBall) -> Graph:
    """Bridge to the graph layer: a Graph whose vertex names encode
    (base, representative) and whose adjacency equals the ball adjacency.
    Suitable as the target of full_embedding_search or of a homomorphism
    table."""
    names = [x.name for x in ball.vertices]
    edges = [(names[i], names[j]) for i, j in sorted(ball.edges)]
    return Graph(f"{ball.source.name}_ball{ball.radius}", names, edges)
