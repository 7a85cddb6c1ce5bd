"""Finite balls of the extension graph of a finite simple graph.

The extension graph of a graph has one vertex per conjugate of a generator
of the right-angled Artin group, with edges between commuting elements. It
is infinite in general, so this module computes the finite approximation
obtained by bounding the length of the (reduced) conjugating words; the
radius-0 ball is the original graph.

Vertices are spelled by canonical words. For v^h with h shortest, that is
canon(h^-1) v h (see ext_ball), which gives back h (its tail) and v (its
middle letter); so distinct such pairs give distinct vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from raag import _kernel
from raag.graphs import Graph, _bits, _nonneighbor_masks
from raag.words import GroupElement, Word
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


def ext_vertex(v: str, conjugator: Word) -> ExtVertex:
    """The extension-graph vertex v^conjugator, canonicalized by the kernel."""
    g = conjugator.graph
    if v not in g:
        raise ValueError(f"foreign vertex {v!r} for graph {g.name!r}")
    codes = conjugator.inverse().codes() + (g._index[v] + 1,) + conjugator.codes()
    return ExtVertex(v, GroupElement(Word._from_codes(g, tuple(_kernel.normalize(codes, g.nonneighbor_table())))))


def _conjugators(g: Graph, max_len: int) -> Iterator[tuple[tuple[int, ...], int, int, int, int]]:
    """Each element of length <= max_len once, as the codes of its canonical
    word (the lex-least reduced spelling, which the kernel's normal form
    spells), in shortlex order (length ascending, then letter order a, a^-1,
    b, ...), with four masks: supp, the generators of its letters (a
    reduced word's support); first, the generators of the first letters
    (those that commute with every letter before them); and pos and neg,
    the generators a for which a, respectively a^-1, is a last letter (one
    that commutes with every letter after it).

    A prefix of a canonical word is canonical, so level k + 1 extends the
    canonical words of level k by one letter c of generator a. The word
    stays reduced unless c^-1 is among its last letters (those that commute
    with every letter after them), and stays lex-least unless c commutes
    past a larger letter (Anisimov & Knuth's lexicographic normal form of a
    trace)."""
    yield (), 0, 0, 0, 0
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
                    word, last_pos, last_neg = codes + (a + 1,), pos & lk | bit, neg & lk
                    nxt.append((word, supp | bit, grown_first, grown_barred, last_pos, last_neg))
                    yield word, supp | bit, grown_first, last_pos, last_neg
                if not pos & bit:
                    word, last_pos, last_neg = codes + (-a - 1,), pos & lk, neg & lk | bit
                    nxt.append((word, supp | bit, grown_first, grown_barred, last_pos, last_neg))
                    yield word, supp | bit, grown_first, last_pos, last_neg
        level = nxt


@dataclass(frozen=True)
class ExtBall:
    """The ball of the extension graph spanned by conjugates with reduced
    conjugators of length <= radius. Adjacency is commutation; there are no
    self-loops. automorphisms holds permutations of the vertex indices that
    are automorphisms of the ball and keep conjugator length (word reversal
    and the lifts of generators of Aut(source), see ext_ball), the identity
    left out; they generate a group, which they do not list."""

    source: Graph
    radius: int
    vertices: tuple[ExtVertex, ...]
    nbr: tuple[int, ...]  # bit j of nbr[i] is set iff vertices i and j commute
    automorphisms: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The adjacent index pairs (i, j) with i < j."""
        return frozenset((i, j) for i, m in enumerate(self.nbr) for j in _bits(m >> i + 1 << i + 1))

    def adjacent(self, i: int, j: int) -> bool:
        """Whether vertices i and j are adjacent; both indices must lie in
        range(len(vertices))."""
        return bool(self.nbr[i] >> j & 1)


def _drop_last(h: tuple[int, ...], c: int) -> tuple[int, ...]:
    """The codes h with the last occurrence of the letter c deleted."""
    k = len(h) - 1 - h[::-1].index(c)
    return h[:k] + h[k + 1:]


def _append_canonical(word: tuple[int, ...], x: int, nbr: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical codes of word x, for the canonical codes word and a
    letter x whose inverse is not a last letter of word (so nothing
    cancels), without the kernel. x is a last letter of word x, and
    deleting it gives word back, so the canonical word of word x is word
    with x inserted at some position past the last letter that blocks x
    (one of its own generator or of a non-adjacent one). Of those
    positions, the first where x sorts lower than the letter it precedes
    spells the lex-least word."""
    a = abs(x) - 1
    lk = nbr[a]
    q = len(word)
    for p in range(len(word) - 1, -1, -1):
        b = abs(word[p]) - 1
        if not lk >> b & 1:
            break
        if a < b:
            q = p
    return word[:q] + (x,) + word[q:]


def _lifted_automorphisms(
    g: Graph,
    conjugators: list[tuple[int, ...]],
    number: dict[tuple[int, ...], int],
    vid: list[int],
    cnum: list[int],
    bases: list[int],
) -> tuple[tuple[int, ...], ...]:
    """Word reversal and each generator of Aut(g), as permutations of the
    vertices of a ball, from the tables of ext_ball: the conjugators in
    shortlex order and their numbers, vid[n * number + base index] the
    vertex of each kept pair, and per vertex the number of its first
    conjugator and its base index. Conjugators are mapped once each, so
    each vertex costs one look-up per permutation."""
    n = len(g)
    flip = [n * number[tuple([-c for c in h])] for h in conjugators]
    perms = [tuple([vid[flip[c] + b] for c, b in zip(cnum, bases)])]
    for sigma in g._stabilizer_chain().gens:
        letter = {}
        for a, t in enumerate(sigma):
            letter[a + 1], letter[-a - 1] = t + 1, -t - 1
        # the canonical sigma(h) of each conjugator, from that of its prefix
        image, moved = [()], [0]
        for h in conjugators[1:]:
            w = _append_canonical(image[number[h[:-1]]], letter[h[-1]], g._nbr)
            image.append(w)
            moved.append(n * number[w])
        perms.append(tuple([vid[moved[c] + sigma[b]] for c, b in zip(cnum, bases)]))
    identity = tuple(range(len(bases)))
    return tuple(p for p in dict.fromkeys(perms) if p != identity)


def ext_ball(g: Graph, radius: int) -> ExtBall:
    """Construct the radius-L ball of the extension graph of g.

    Conjugators are enumerated as group elements, each once as its canonical
    word, in shortlex order, so the vertex order is deterministic and the
    radius-0 slice comes first, in g's vertex order. The centralizer of a
    generator v is A(st(v)) (below), so the conjugates of v correspond one
    to one to the cosets A(st(v)) h. The pair (h, v) is skipped when a first
    letter a of h (one that commutes with every letter before it) lies in
    st(v): then h = a h' with h' shorter, and v^h = v^h' was met at h'.
    Otherwise h is the unique shortest element of its coset, so v^h is new;
    each vertex keeps that conjugator, and a table maps every kept pair
    (h, v) to the index of the vertex v^h.

    No kernel call builds a vertex: the canonical word of v^h is
    canon(h^-1) v h. By induction along a kept h, each of its letters is
    linked to v by a chain of letters that neither commute nor share a
    generator: a letter that commutes with v lies in st(v), so it is not a
    first letter, and an earlier letter of h blocks it. So in the trace of
    h^-1 v h (Cartier & Foata 1969) the letters of h^-1 come before v and
    those of h after it: the word is reduced, and its lex-least spelling is
    that of h^-1, then v, then h, which is canonical. With h = c h', h' is
    canonical (a suffix of a canonical word) and numbered earlier, so
    canon(h^-1) is canon(h'^-1) c^-1 by _append_canonical, once per
    conjugator.

    Adjacency uses the centralizer of a generator v, the subgroup A(st(v))
    generated by its star (Servatius, J. Algebra 1989). Let h and k be the
    first conjugators that produced x = h^-1 v h and y = k^-1 u k. Then y
    commutes with x iff h y h^-1 = u^m lies in A(st(v)), where m = k h^-1.
    Only pairs whose bases are adjacent in g are tested: conjugates of one
    generator commute only when equal, and the retraction onto the
    subgroup generated by two non-adjacent generators, a free group, maps
    their conjugates to non-commuting elements.

    When some signed letter c is a last letter of both h and k (one that
    commutes with every letter after it; _conjugators yields these masks),
    h = h' c and k = k' c, where h' and k' delete the last occurrence of c.
    Conjugation by c is an automorphism of the extension graph (Kim &
    Koberda, Geom. Topol. 2013), so x and y commute iff v^h' and u^k' do.
    Deleting a last letter keeps a canonical word canonical (it commutes
    with every letter after it, so it blocked no move: Anisimov & Knuth)
    and adds no first letter, so (h', v) and (k', u) are kept pairs with shorter
    conjugators: their vertices come earlier, and the edge bit is copied
    from the row of (h', v), which is final by then (below). No kernel call
    is needed.

    Otherwise k h^-1 is reduced: a product of two reduced words is reduced
    unless it holds a pair c ... c^-1 whose letters in between all commute
    with c, and such a pair straddles the join, so c would be a last letter
    of both k and h. Then u^m lies in A(st(v)) iff m lies in the double
    coset A(st(u)) A(st(v)). If m = c d with c in A(st(u)) and d in
    A(st(v)), then u^m = u^d, which lies in A(st(v)) because u does.
    Conversely, the retraction of the group onto A(st(v)), which kills every
    generator outside st(v), fixes u^m, so m times the inverse of its image
    centralizes u and lies in A(st(u)). Every element of the double coset
    has its support in st(u) | st(v), and m, being reduced, has support
    supp(h) | supp(k): a pair whose conjugator supports leave st(u) | st(v)
    is no edge, with no scan. Otherwise one scan of m decides membership: a
    letter of st(u) that commutes with every letter kept before it moves to
    the front and is dropped; any other letter is kept and must lie in
    st(v).

    The same table lifts symmetries of g to the ball, as permutations that
    keep conjugator length. Word reversal maps v^h to v^i(h), where i(h)
    flips the sign of every letter of h; it is the automorphism that
    inverts every generator, followed by inversion, so it keeps
    commutation. An automorphism s of g maps v^h to s(v)^s(h). Both keep
    the length and the first letters of h, and flipping signs keeps a
    canonical word canonical, so each image is a kept pair, looked up in
    the table once the canonical s(h) is known; that comes from the
    canonical s of h's prefix by _append_canonical, once per conjugator.
    The generators of Aut(g) are cached on g (Graph._stabilizer_chain).

    The lifts are automorphisms of the ball, so the rows are filled one
    orbit of the group they generate at a time, vertices taken in index
    order. The first vertex i whose row is still open gets its bits toward
    the open vertices j > i by the rules above; every other vertex of its
    orbit, reached from i along the generating permutations, gets the image
    sigma(row) of an earlier member's row. Every bit a row gains is also
    set in the row of the other end, and the orbit's rows are then closed.
    So when i's turn comes, its row already holds its bits toward every
    closed vertex, and every vertex before i is closed: the bits toward the
    open j > i complete it. A copy reads the row of (h', v), whose
    conjugator is shorter than h, so it comes before i and is closed.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    n = len(g)
    st_mask = [g._star_meet(1 << a) for a in range(n)]
    noncomm_mask = _nonneighbor_masks(g)
    # the table: every conjugator in shortlex order, its number, its
    # canonical inverse, and vid[n * number + base index], the vertex of
    # each kept pair (-1 for a skipped one)
    conjugators: list[tuple[int, ...]] = []
    number: dict[tuple[int, ...], int] = {}
    inverses: list[tuple[int, ...]] = []
    vid: list[int] = []
    blank = [-1] * n
    # per vertex: the number of its conjugator h, the index of its generator
    # v, h's last-letter mask (bit a for a, bit n + a for a^-1) and supp(h);
    # per generator, the vertices it is the base of
    vertices: list[ExtVertex] = []
    cnum, bases, lasts, supports = [], [], [], []
    with_base: list[list[int]] = [[] for _ in g.vertices]
    for h, supp, first, pos, neg in _conjugators(g, radius):
        num = number[h] = len(conjugators)
        conjugators.append(h)
        hinv = _append_canonical(inverses[number[h[1:]]], -h[0], g._nbr) if h else ()
        inverses.append(hinv)
        vid += blank
        last = pos | neg << n
        for gen, v in enumerate(g.vertices):
            if first & st_mask[gen]:
                continue
            vid[n * num + gen] = i = len(vertices)
            with_base[gen].append(i)
            vertices.append(ExtVertex(v, GroupElement(Word._from_codes(g, hinv + (gen + 1,) + h))))
            cnum.append(num)
            bases.append(gen)
            lasts.append(last)
            supports.append(supp)
    automorphisms = _lifted_automorphisms(g, conjugators, number, vid, cnum, bases)
    nbr = [0] * len(bases)
    closed = [False] * len(bases)
    for i, b in enumerate(bases):
        if closed[i]:
            continue
        closed[i] = True
        h, tail = conjugators[cnum[i]], inverses[cnum[i]]
        st_v, supp_i, last_i = st_mask[b], supports[i], lasts[i]
        for u in _bits(g._nbr[b]):
            st_u = st_mask[u]
            outside = ~(st_u | st_v)
            for j in with_base[u]:
                if j <= i or closed[j]:
                    continue
                shared = last_i & lasts[j]
                if shared:
                    # conjugate both down by a shared last letter
                    a = shared.bit_length() - 1
                    c = a + 1 if a < n else n - a - 1
                    p = vid[n * number[_drop_last(h, c)] + b]
                    if nbr[p] >> vid[n * number[_drop_last(conjugators[cnum[j]], c)] + u] & 1:
                        nbr[i] |= 1 << j
                        nbr[j] |= 1 << i
                    continue
                if (supp_i | supports[j]) & outside:
                    continue
                kept = 0
                for c in conjugators[cnum[j]] + tail:
                    a = abs(c) - 1
                    if st_u >> a & 1 and not kept & noncomm_mask[a]:
                        continue
                    if not st_v >> a & 1:
                        break
                    kept |= 1 << a
                else:
                    nbr[i] |= 1 << j
                    nbr[j] |= 1 << i
        # the rest of i's orbit: y = perm(x) gets the image of x's row, and
        # sets its bit in the rows it touches
        orbit = [i]
        for x in orbit:
            row = nbr[x]
            for perm in automorphisms:
                y = perm[x]
                if closed[y]:
                    continue
                closed[y] = True
                orbit.append(y)
                image, bit, rest = 0, 1 << y, row
                while rest:
                    low = rest & -rest
                    k = perm[low.bit_length() - 1]
                    image |= 1 << k
                    nbr[k] |= bit
                    rest ^= low
                nbr[y] = image
    return ExtBall(g, radius, tuple(vertices), tuple(nbr), automorphisms)


def ball_as_graph(ball: ExtBall) -> Graph:
    """Bridge to the graph layer: a Graph whose vertex names encode
    (base, representative) and whose neighbour masks are the ball's.
    Suitable as the target of full_embedding_search or of a homomorphism
    table. Two vertices get one name when the source's vertex names
    contain the name separators ('@', '.', '^-1'), which is a ValueError."""
    letters = _letter_names(ball.source)
    names = [_vertex_name(x.base, x.element.word.codes(), letters) for x in ball.vertices]
    return Graph._from_masks(f"{ball.source.name}_ball{ball.radius}", names, ball.nbr, ball.automorphisms)
