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
from raag.graphs import Graph, _bits, _nonneighbor_masks
from raag.words import GroupElement, Word, _code_mask
from raag.words import commutes  # noqa: F401  (unused here; perfbench's tests expect it bound in this module)


@dataclass(frozen=True)
class ExtVertex:
    """A conjugate of a generator: the conjugated generator (base) plus the
    canonical form of the conjugated element (its identity)."""

    base: str
    element: GroupElement

    @property
    def name(self) -> str:
        """Stable printable name: <base>@<canonical letters joined by '.'>."""
        w = self.element.word
        return _vertex_name(self.base, w.codes(), _letter_names(w.graph))


def _letter_names(g: Graph) -> dict[int, str]:
    """The printed letter of each generator code of g: v for v, v^-1 for its
    inverse."""
    names = {}
    for i, v in enumerate(g.vertices, 1):
        names[i], names[-i] = v, f"{v}^-1"
    return names


def _vertex_name(base: str, codes: tuple[int, ...], letters: dict[int, str]) -> str:
    """The name <base>@<letters of codes joined by '.'>, given the letter
    names of _letter_names."""
    return f"{base}@{'.'.join(letters[c] for c in codes)}"


def _conjugate_codes(winv: tuple[int, ...], gen: int, wcodes: tuple[int, ...], noncomm) -> tuple:
    """The canonical codes of w^-1 v w, for the generator v of index gen,
    given the codes of w and of its inverse."""
    return tuple(_kernel.normalize(winv + (gen + 1,) + wcodes, noncomm))


def ext_vertex(v: str, conjugator: Word) -> ExtVertex:
    """The extension-graph vertex v^conjugator, canonicalized."""
    g = conjugator.graph
    if v not in g:
        raise ValueError(f"foreign vertex {v!r} for graph {g.name!r}")
    key = _conjugate_codes(conjugator.inverse().codes(), g._index[v], conjugator.codes(),
                           g.nonneighbor_table())
    return ExtVertex(v, GroupElement(Word._from_codes(g, key)))


def _conjugators(g: Graph, max_len: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each element of length <= max_len once, as the codes of its canonical
    word (the lex-least reduced spelling, which the kernel's normal form
    spells), in shortlex order (length ascending, then letter order a, a^-1,
    b, ...), with its first-letter mask: the generators of the letters that
    commute with every letter before them.

    A prefix of a canonical word is canonical, so level k + 1 extends the
    canonical words of level k by one letter c of generator a. The word
    stays reduced unless c^-1 is among its last letters (those that commute
    with every letter after them), and stays lex-least unless c commutes
    past a larger letter (Anisimov & Knuth's lexicographic normal form of a
    trace)."""
    yield (), 0
    nbr = g._nbr
    # per word: codes, support, first-letter mask, the generators whose
    # letter would commute past a larger letter, and the generators of the
    # positive and of the negative last letters
    level = [((), 0, 0, 0, 0, 0)]
    for _ in range(max_len):
        nxt = []
        for codes, supp, first, barred, pos, neg in level:
            for a, lk in enumerate(nbr):
                bit = 1 << a
                if barred & bit:
                    continue
                # the new letter commutes with every earlier one iff supp lies in lk(a)
                grown_first = first if supp & ~lk else first | bit
                grown_barred = lk & (barred | bit - 1)
                if not neg & bit:
                    word = codes + (a + 1,)
                    nxt.append((word, supp | bit, grown_first, grown_barred, pos & lk | bit, neg & lk))
                    yield word, grown_first
                if not pos & bit:
                    word = codes + (-a - 1,)
                    nxt.append((word, supp | bit, grown_first, grown_barred, pos & lk, neg & lk | bit))
                    yield word, grown_first
        level = nxt


@dataclass(frozen=True)
class ExtBall:
    """The ball of the extension graph spanned by conjugates with reduced
    conjugators of length <= radius. Adjacency is commutation; there are no
    self-loops."""

    source: Graph
    radius: int
    vertices: tuple[ExtVertex, ...]
    nbr: tuple[int, ...]  # bit j of nbr[i] is set iff vertices i and j commute

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The adjacent index pairs (i, j) with i < j."""
        return frozenset((i, j) for i, m in enumerate(self.nbr) for j in _bits(m >> i + 1 << i + 1))

    def adjacent(self, i: int, j: int) -> bool:
        """Whether vertices i and j are adjacent; both indices must lie in
        range(len(vertices))."""
        return bool(self.nbr[i] >> j & 1)


def ext_ball(g: Graph, radius: int) -> ExtBall:
    """Construct the radius-L ball of the extension graph of g.

    Conjugators are enumerated as group elements, each once as its canonical
    word, in shortlex order, so the vertex order is deterministic and the
    radius-0 slice comes first, in g's vertex order. The centralizer of a
    generator v is A(st(v)) (below), so the conjugates of v correspond one
    to one to the cosets A(st(v)) h. The pair (h, v) is skipped when a first
    letter a of h (one that commutes with every letter before it) lies in
    st(v): then h = a h' with h' shorter, and v^h = v^h' was met at h'.
    Otherwise h is the unique shortest element of its coset, so v^h is new,
    and one normalization builds it. Conjugates are still deduplicated by
    canonical representative, so the output does not depend on that
    uniqueness argument; each vertex keeps its first conjugator.

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
    st_mask = [g._star_meet(1 << a) for a in range(len(g))]
    noncomm_mask = _nonneighbor_masks(g)
    # the vertices keyed by their canonical codes, and per vertex the codes
    # of its first conjugator and the index of its generator
    verts: dict[tuple[int, ...], ExtVertex] = {}
    hcodes: list[tuple[int, ...]] = []
    bases: list[int] = []
    for h, first in _conjugators(g, radius):
        hinv = tuple(-c for c in reversed(h))
        for gen, v in enumerate(g.vertices):
            if first & st_mask[gen]:
                continue
            key = _conjugate_codes(hinv, gen, h, noncomm)
            if key not in verts:
                verts[key] = ExtVertex(v, GroupElement(Word._from_codes(g, key)))
                hcodes.append(h)
                bases.append(gen)
    with_base: list[list[int]] = [[] for _ in g.vertices]
    for j, b in enumerate(bases):
        with_base[b].append(j)
    # canonical words are reduced, so their letters are their support
    supports = [_code_mask(key) for key in verts]
    reach = [st_mask[b] | _code_mask(h) for b, h in zip(bases, hcodes)]
    nbr = [0] * len(bases)
    for i, b in enumerate(bases):
        tail = tuple(-c for c in reversed(hcodes[i]))
        st_v, supp_i, reach_i = st_mask[b], supports[i], reach[i]
        for u in _bits(g._nbr[b]):
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
                    nbr[i] |= 1 << j
                    nbr[j] |= 1 << i
    return ExtBall(g, radius, tuple(verts.values()), tuple(nbr))


def ball_as_graph(ball: ExtBall) -> Graph:
    """Bridge to the graph layer: a Graph whose vertex names encode
    (base, representative) and whose neighbour masks are the ball's.
    Suitable as the target of full_embedding_search or of a homomorphism
    table. Two vertices get one name when the source's vertex names
    contain the name separators ('@', '.', '^-1'), which is a ValueError."""
    letters = _letter_names(ball.source)
    names = [_vertex_name(x.base, x.element.word.codes(), letters) for x in ball.vertices]
    return Graph._from_masks(f"{ball.source.name}_ball{ball.radius}", names, ball.nbr)
