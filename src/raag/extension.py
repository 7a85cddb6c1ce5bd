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

from raag import _kernel
from raag.graphs import Graph, _adjacency_masks
from raag.words import GroupElement, Word, commutes, is_reduced


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


def _conjugate_codes(winv: tuple[int, ...], gen: int, wcodes: tuple[int, ...], noncomm) -> tuple:
    """The canonical codes of w^-1 v w, for the generator v of index gen,
    given the codes of w and of its inverse."""
    return tuple(_kernel.normalize(winv + (gen + 1,) + wcodes, noncomm))


def _letter_mask(codes: tuple[int, ...]) -> int:
    """The generators of the letters of codes, as a bitmask over indices."""
    mask = 0
    for c in codes:
        mask |= 1 << (abs(c) - 1)
    return mask


def ext_vertex(v: str, conjugator: Word) -> ExtVertex:
    """The extension-graph vertex v^conjugator, canonicalized."""
    g = conjugator.graph
    if v not in g:
        raise ValueError(f"foreign vertex {v!r} for graph {g.name!r}")
    key = _conjugate_codes(conjugator.inverse().codes(), g._index[v], conjugator.codes(),
                           g.nonneighbor_table())
    return ExtVertex(v, GroupElement(Word._from_codes(g, key)))


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
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
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
    Only the first conjugator of each vertex becomes an ExtVertex.

    Adjacency uses the centralizer of a generator v, the subgroup A(st(v))
    generated by its star (Servatius, J. Algebra 1989). Let h and k be the
    first conjugators that produced x = h^-1 v h and y = k^-1 u k. Then y
    commutes with x iff h y h^-1 = u^m lies in A(st(v)), where m = k h^-1.
    Two necessary conditions reject most pairs without a normalization. The
    bases of x and y are adjacent in g: conjugates of one generator commute
    only when equal, and the retraction onto the subgroup generated by two
    non-adjacent generators, a free group, maps their conjugates to
    non-commuting elements. And every element of h^-1 A(st(v)) h has its
    support in the union of supp(h) and st(v).

    For the remaining pairs, u^m lies in A(st(v)) iff m lies in the double
    coset A(st(u)) A(st(v)). If m = c d with c in A(st(u)) and d in
    A(st(v)), then u^m = u^d, which lies in A(st(v)) because u does.
    Conversely, the retraction of the group onto A(st(v)), which kills every
    generator outside st(v), fixes u^m, so m times the inverse of its image
    centralizes u and lies in A(st(u)). One scan of the reduced m decides
    membership: a letter of st(u) that commutes with every letter kept
    before it moves to the front and is dropped; any other letter is kept
    and must lie in st(v).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    noncomm = g.nonneighbor_table()
    nbr, noncomm_mask = _adjacency_masks(g)
    st_mask = [m | 1 << a for a, m in enumerate(nbr)]
    verts: dict[tuple[int, ...], tuple[ExtVertex, tuple[int, ...]]] = {}
    for w in enumerate_reduced_words(g, radius):
        wcodes = w.codes()
        winv = tuple(-c for c in reversed(wcodes))
        for gen, v in enumerate(g.vertices):
            key = _conjugate_codes(winv, gen, wcodes, noncomm)
            if key not in verts:
                verts[key] = (ExtVertex(v, GroupElement(Word._from_codes(g, key))), wcodes)
    vlist = tuple(x for x, _ in verts.values())
    hcodes = [h for _, h in verts.values()]
    bases = [g._index[x.base] for x in vlist]
    with_base: list[list[int]] = [[] for _ in g.vertices]
    for j, b in enumerate(bases):
        with_base[b].append(j)
    # canonical words are reduced, so their letters are their support
    supports = [_letter_mask(key) for key in verts]
    reach = [st_mask[b] | _letter_mask(h) for b, h in zip(bases, hcodes)]
    edges = set()
    for i, b in enumerate(bases):
        tail = tuple(-c for c in reversed(hcodes[i]))
        st_v, supp_i, reach_i = st_mask[b], supports[i], reach[i]
        for u in g._adj[b]:
            st_u = st_mask[u]
            for j in with_base[u]:
                if j <= i or supports[j] & ~reach_i or supp_i & ~reach[j]:
                    continue
                m = hcodes[j] + tail
                kept = 0
                for p in _kernel.survivors(m, noncomm):
                    a = abs(m[p]) - 1
                    if st_u >> a & 1 and not kept & noncomm_mask[a]:
                        continue
                    if not st_v >> a & 1:
                        break
                    kept |= 1 << a
                else:
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
