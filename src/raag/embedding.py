"""Certified extraction of full embeddings from clique-supported homomorphisms.

A homomorphism between right-angled Artin groups is given as a table
mapping each source generator to a word over the target graph. When every
image's support spans a clique of the target (the *clique-support
condition*) and the source graph is the complement of a linear forest,
the functions here either

* extract a full graph embedding of the source into the support of the
  homomorphism, verified vertex pair by vertex pair, or
* produce a *kernel witness*: an explicit word, nontrivial over the source,
  whose image reduces to the identity, or
* for optional-edge (3-vertex anti-path) components, a *structural
  certificate*: the complement of the image support decomposes into
  complete components, which forces the restricted target group into a
  product of free groups where the component group cannot embed.

Every output is re-checkable from its own data by its check(h) method;
injectivity of the input map is never assumed.

An image matters only as a group element. Each HomSpec reads its images
through one image table, filled once per image and shared by its
restrictions: the support mask and the syllables, which for a
clique-supported image are its exponent vector, since A(K) is free
abelian for a clique K. An image whose letters span a clique is counted
from its letters; any other is read from the reduced codes its Word
caches (raag.words._reduced_codes). Supports, clique chains, the relator
and clique-support checks and the abelian exponent matrix read the table;
a witness check decides triviality by piling syllables, and
HomSpec.apply spells an image from the cached codes; peel_words decides
each stage from supports by the centralizer theorem. So the word spelling
an image never changes an outcome, and each image is piled at most once
for all routes and checks.

Vertex sets of the target (supports, chains, reach sets) are bitmasks
over its vertex indices; names are built only for outcomes and messages.

Per-component machinery for an anti-path component v_1 .. v_n (consecutive
vertices non-adjacent, all other pairs adjacent). Every route takes only
the homomorphism: the order v_1 .. v_n is read from its source by
raag.graphs._anti_path_order, which join_decompose has already left on
each factor graph that extract_full restricts to, so no route walks the
complement again; the clique chain carries the order on.

* the *clique chain* C_1..C_n collects the supports of the generator
  images; commuting images force every cross pair at distance > 1 to be
  identical or adjacent;
* a sequence y_i in C_i, mutually distinct with consecutive members
  non-adjacent, immediately yields a full embedding v_i -> y_i;
* when no such sequence exists, the conjugated commutator
  [v_1^(v_2..v_{n-1}), v_n] is a kernel witness. The *reach sets* and the
  *peeling* of the image words re-play the argument behind that fact and
  are run as a self-check of the mechanism.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from raag.graphs import (
    Graph,
    full_embedding_search,
    induced_subgraph,
    join_decompose,
    parse_graph,
    verify_full_embedding,
    _anti_path_order,
    _bits,
    _components_of,
    _forward_check,
    _induced,
    _nonneighbor_masks,
    _packed,
)
from raag.words import (
    Word,
    canonical_form,
    commutator,
    commutes,
    conjugate,
    is_trivial,
    parse_word,
    product,
    _centralizer_commutes,
    _code_mask,
    _reduced_codes,
)


class MechanismError(RuntimeError):
    """An internal guarantee of the extraction machinery failed; indicates
    a corrupted instance or an upstream bug, never a normal outcome."""


# -- homomorphism specifications ---------------------------------------------------


class HomSpec:
    """A homomorphism source -> target given by a generator-image table.

    The table must be total on the source vertices and every image must be
    a word over the target graph. Whether the table actually defines a
    homomorphism (all edge relators commute) is checked by validate_hom,
    not at construction. Immutable by convention, like Word: images is
    never changed after construction.

    Each image is read as a group element through a private image table,
    shared by the restricted() views and filled per vertex on first read:
    counted from the image's letters when they span a clique, otherwise
    from the reduced codes its Word caches (see _image_entry). An
    entry holds the support mask, then the syllables, (generator index,
    exponent) pairs whose product is the element, flattened into the same
    tuple, which takes half the memory of a tuple of pairs. A
    clique-supported image lies in A(K) = Z^|K|, so its syllables are its
    exponent vector in generator order; any other image spells its reduced
    codes, one unit syllable (generator index, +-1) per letter.
    """

    __slots__ = ("source", "target", "images", "_table")

    def __init__(self, source: Graph, target: Graph, images: dict[str, Word]):
        for v in source.vertices:
            if v not in images:
                raise ValueError(f"missing image for generator {v!r}")
        for v in images:
            if v not in source:
                raise ValueError(f"image given for non-source vertex {v!r}")
        for v, w in images.items():
            if not isinstance(w, Word):
                raise ValueError(f"image of {v!r} is not a Word: {w!r}")
            if w.graph != target:
                raise ValueError(f"image of {v!r} is not a word over the target graph")
        self.source = source
        self.target = target
        self.images = dict(images)
        self._table: dict[str, tuple[int, ...]] = {}

    def _image(self, v: str) -> tuple[int, ...]:
        """The table entry of the image of v: its support mask, then its
        syllables i_1, e_1, i_2, e_2, ... (see the class docstring)."""
        entry = self._table.get(v)
        if entry is None:
            entry = self._table[v] = _image_entry(self.images[v])
        return entry

    def apply(self, w: Word) -> Word:
        """Image of a source word, the same element as letterwise
        substitution: each letter becomes its image's reduced codes,
        negated and reversed for an inverse letter. When _maps_to_identity
        finds the element trivial, the result's cached reduced codes are
        set to (), which is what the kernel would give; a nontrivial image
        leaves the cache empty.
        """
        if w.graph != self.source:
            raise ValueError("word is not over the source graph")
        verts = self.source.vertices
        pieces: dict = {}  # per letter code: its image's codes
        codes: list = []
        for c in w.codes():
            piece = pieces.get(c)
            if piece is None:
                img = _reduced_codes(self.images[verts[abs(c) - 1]])
                piece = pieces[c] = img if c > 0 else tuple(-x for x in reversed(img))
            codes += piece
        return Word._from_codes(self.target, tuple(codes), () if self._maps_to_identity(w) else None)

    def _maps_to_identity(self, w: Word) -> bool:
        """Whether the image of the source word w is the identity: the
        syllables of its letters' images, inverted for an inverse letter,
        are piled (see _piled_syllables), a few per letter instead of every
        letter the image spells, and none is left."""
        verts = self.source.vertices
        pieces: dict = {}  # per letter code: its image's syllables
        syllables: list = []
        for c in w.codes():
            piece = pieces.get(c)
            if piece is None:
                syl = self._image(verts[abs(c) - 1])[1:]
                if c < 0:
                    syl = tuple(x for k in range(len(syl) - 2, -1, -2) for x in (syl[k], -syl[k + 1]))
                piece = pieces[c] = syl
            syllables += piece
        return not _piled_syllables(syllables, self.target.nonneighbor_table())

    def restricted(self, component: Graph) -> "HomSpec":
        """Restriction to an induced subgraph of the source; it shares this
        homomorphism's image words, already checked, and image table. A
        ValueError names the first vertex of component that is no source
        vertex, or the first pair, in component order, whose adjacency
        differs from the source's: the source's masks are packed to the
        component's positions (raag.graphs._packed) and compared row by row."""
        src, names = self.source, component.vertices
        at = [src._index.get(v) for v in names]
        if None in at:
            raise ValueError(f"restriction to non-source vertex {names[at.index(None)]!r}")
        for k, (row, have) in enumerate(zip(component._nbr, _packed(src, at))):
            if differ := row ^ have:
                j = (differ & -differ).bit_length() - 1
                raise ValueError(f"restriction differs from the source at pair ({names[k]!r}, {names[j]!r})")
        out = object.__new__(HomSpec)
        out.source, out.target, out._table = component, self.target, self._table
        out.images = {v: self.images[v] for v in names}
        return out

    def __repr__(self) -> str:
        return f"HomSpec({self.source.name!r} -> {self.target.name!r}, {len(self.images)} images)"


def _image_entry(w: Word) -> tuple[int, ...]:
    """The image table entry of w: its support mask and its flattened
    syllables. When the letters of w span a clique, w lies in A(K) = Z^|K|
    and its syllables are its nonzero exponent sums, counted from its
    letters without a kernel call. Otherwise the entry is read from its
    cached reduced codes; a clique-supported reduced word is counted the
    same way (every letter of one generator has the same sign, since a
    pair of opposite signs would cancel across the commuting letters
    between them); any other gives each reduced code as a unit syllable
    (i, +-1), which _piled_syllables joins as the kernel would."""
    codes = w._signed
    mask = _code_mask(set(codes))
    if mask & ~w.graph._star_meet(mask):
        codes = _reduced_codes(w)
        mask = _code_mask(codes)
    if not mask & ~w.graph._star_meet(mask):
        entry = [0]
        for i in _bits(mask):
            if e := codes.count(i + 1) - codes.count(-i - 1):
                entry[0] |= 1 << i
                entry += (i, e)
        return tuple(entry)
    entry = [mask]
    for c in codes:
        entry += (abs(c) - 1, 1 if c > 0 else -1)
    return tuple(entry)


def _piled_syllables(syllables: list[int], noncomm) -> int:
    """The push pass of the kernel (raag._purekernel._pile) over powers: per
    generator a pile of syllables, each with its position and exponent. A
    syllable joins the top of its generator's pile unless the pile of a
    generator in its noncomm row has a later top; the exponents add, and a
    top that reaches 0 is popped. Otherwise it is pushed. Joining moves a
    power only past commuting syllables, and a run of letters piles as
    the kernel piles it letter by letter, so the piles empty exactly when
    the kernel's do (trace reduction: Cartier & Foata 1969). Returns the
    number of syllables left, 0 iff the product is the identity;
    syllables is flattened, as in the image table."""
    tops = [-1] * len(noncomm)
    positions: list = [[] for _ in noncomm]
    exponents: list = [[] for _ in noncomm]
    left = 0
    pairs = iter(syllables)
    for pos, (i, e) in enumerate(zip(pairs, pairs)):
        top = tops[i]
        if top >= 0:
            for j in noncomm[i]:
                if tops[j] > top:
                    break
            else:
                exps = exponents[i]
                e += exps[-1]
                if e:
                    exps[-1] = e
                else:
                    exps.pop()
                    p = positions[i]
                    p.pop()
                    tops[i] = p[-1] if p else -1
                    left -= 1
                continue
        positions[i].append(pos)
        exponents[i].append(e)
        tops[i] = pos
        left += 1
    return left


@dataclass(frozen=True)
class HomReport:
    relator_failures: tuple[tuple[str, str], ...]
    clique_violations: tuple[tuple[str, frozenset[str]], ...]
    supp: tuple[str, ...]
    trivial_images: tuple[str, ...]

    @property
    def is_homomorphism(self) -> bool:
        return not self.relator_failures


def validate_hom(h: HomSpec) -> HomReport:
    """Relator check (images of adjacent generators commute), clique-support
    check, union of image supports (in target vertex order), and the list of
    generators mapped to the identity. A relator whose images have a
    clique-spanning support is decided from the supports alone (centralizer
    theorem: the other support must lie in its star meet, computed once per
    source vertex); only the others go to commutes."""
    g, verts = h.target, h.source.vertices
    supports = [h._image(v)[0] for v in verts]
    meets = [g._star_meet(s) for s in supports]
    cliques = [not s & ~meet for s, meet in zip(supports, meets)]
    failures = []
    for i, row in enumerate(h.source._nbr):
        for j in _bits(row >> i + 1 << i + 1):
            if cliques[i]:
                decided = not supports[j] & ~meets[i]
            elif cliques[j]:
                decided = not supports[i] & ~meets[j]
            else:
                decided = commutes(h.images[verts[i]], h.images[verts[j]])
            if not decided:
                failures.append((verts[i], verts[j]))
    violations = tuple((v, frozenset(g._names(s))) for v, s, c in zip(verts, supports, cliques) if not c)
    trivial = tuple(v for v, s in zip(verts, supports) if not s)
    return HomReport(tuple(failures), violations, g._names(_support_union(h, verts)), trivial)


# -- certificates -------------------------------------------------------------------


@dataclass(frozen=True)
class FullEmbedding:
    """A full embedding of the source into the target, as a vertex map
    from source to target names; check(h) decides whether it is one."""

    mapping: dict[str, str]

    def check(self, h: HomSpec) -> Optional[str]:
        """None when the mapping is a full embedding of the source into the
        target that lands inside the homomorphism support, with every
        anti-path vertex inside the support of its own image (3-vertex
        components: inside the component support); otherwise the first
        problem found."""
        try:
            chk = verify_full_embedding(h.source, h.target, self.mapping)
        except ValueError as exc:  # not total on the source, or names non-source vertices
            return f"embedding check failed: {exc}"
        if not chk:
            return f"embedding check failed: {chk.violation}"
        image = {v: h.target.index(x) for v, x in self.mapping.items()}
        supp = _support_union(h, h.source.vertices)
        outside = [v for v, t in image.items() if not supp >> t & 1]
        if outside:
            return f"image of {outside[0]!r} lies outside the homomorphism support"
        # the join components of the source: its complement's components
        for comp in _components_of(_nonneighbor_masks(h.source)):
            names = h.source._names(comp)
            if len(names) == 3:
                comp_supp = _support_union(h, names)
                for v in names:
                    if not comp_supp >> image[v] & 1:
                        return f"vertex {v!r} mapped outside its component support"
            elif len(names) > 1:
                for v in names:
                    if not h._image(v)[0] >> image[v] & 1:
                        return f"anti-path vertex {v!r} mapped outside the support of its image"
        return None


@dataclass(frozen=True)
class KernelWitness:
    """A word over the source generators, nontrivial in the source group
    and mapped to the identity of the target; check(h) decides both from
    the word alone."""

    word: Word
    # never read: the benchmark's tests still build witnesses with these
    # two positional flags, so they stay until the benchmark drops them
    nontrivial_in_source: bool
    trivial_image: bool
    component: Optional[tuple[str, ...]] = None
    peel_checked: bool = False

    def check(self, h: HomSpec) -> Optional[str]:
        """None when the word is nontrivial over the source and its image
        under h is trivial; otherwise the first problem found."""
        if not isinstance(self.word, Word) or self.word.graph != h.source:
            return "witness word is not over the source graph"
        if is_trivial(self.word):
            return "witness word is trivial over the source"
        if not h._maps_to_identity(self.word):
            return "witness image does not reduce to the identity"
        return None


def _checked_witness(h: HomSpec, word: Word, component: tuple[str, ...], what: str) -> KernelWitness:
    """The kernel witness of word, checked against h; a failure raises
    MechanismError naming what built it, since every builder constructs
    its word to be one."""
    witness = KernelWitness(word, True, True, component=component)
    problem = witness.check(h)
    if problem is not None:
        raise MechanismError(f"{what}: {problem}")
    return witness


@dataclass(frozen=True)
class StructuralCertificate:
    """Non-injectivity certificate for a 3-vertex anti-path component: no
    full embedding into the support subgraph exists, and the complement of
    that subgraph splits into complete components, so the restricted target
    group is a direct product of free groups."""

    component: tuple[str, ...]
    supp: tuple[str, ...]
    complement_components: tuple[tuple[str, ...], ...]

    def check(self, h: HomSpec) -> Optional[str]:
        """None when the component is a 3-vertex anti-path of the source,
        supp is the union of its image supports in target order, and
        complement_components are the complement components of the induced
        support subgraph, each complete; otherwise the first problem found.
        Complete complement components are exactly what leaves the
        3-vertex anti-path (an edge plus a vertex, whose complement is the
        path on three vertices) no full embedding, so no search is run."""
        comp = tuple(self.component) if isinstance(self.component, (tuple, list)) else ()
        if len(comp) != 3 or any(not isinstance(v, str) or v not in h.source for v in comp) or len(set(comp)) != 3:
            return "certificate component does not name three distinct source vertices"
        # three vertices complement a path iff they span exactly one edge
        if induced_subgraph(h.source, comp).edge_count() != 1:
            return "certificate component is not a 3-vertex anti-path"
        sub = _induced(h.target, _support_union(h, comp), h.target.name + "_sub")
        if _as_tuple(self.supp) != sub.vertices:
            return "certificate support is not the union of the component image supports"
        names = _complete_complement_components(sub)
        if names is None:
            return "certificate refuted: a full embedding into the support exists"
        components = self.complement_components
        if not isinstance(components, (tuple, list)) or tuple(map(_as_tuple, components)) != names:
            return "certificate complement components differ from those of the support"
        return None


def _as_tuple(value):
    """value as a tuple when it is a list (as read from JSON) or a tuple."""
    return tuple(value) if isinstance(value, (tuple, list)) else value


def _support_union(h: HomSpec, vertices) -> int:
    """Union of the reduced supports of the images of the given source
    vertices, as a mask over the target."""
    union = 0
    for v in vertices:
        union |= h._image(v)[0]
    return union


def _complete_complement_components(g: Graph) -> Optional[tuple[tuple[str, ...], ...]]:
    """The connected components of g's complement as vertex-name tuples,
    ordered by smallest vertex, when each spans a complete graph there (is
    independent in g); None otherwise."""
    comps = _components_of(_nonneighbor_masks(g))
    if any(g._nbr[i] & comp for comp in comps for i in _bits(comp)):
        return None
    return tuple(g._names(comp) for comp in comps)


ExtractionOutcome = Union[FullEmbedding, KernelWitness, StructuralCertificate]


# -- abelian factors ----------------------------------------------------------------


def _exponent_matrix(h: HomSpec, columns: int) -> list[list[int]]:
    # one row per source vertex: the exponents of the target vertices of the
    # mask columns in its image, read from its syllables, which are its
    # exponent vector since every image lies in the clique of the columns
    index = list(_bits(columns))
    rows = []
    for v in h.source.vertices:
        entry = h._image(v)
        exponents = dict(zip(entry[1::2], entry[2::2]))
        rows.append([exponents.get(i, 0) for i in index])
    return rows


def _integer_left_nullvector(rows: list[list[int]]) -> Optional[list[int]]:
    """A nonzero integer vector z with z*M = 0, or None if M has full row
    rank. Exact Gaussian elimination over the rationals on the augmented
    matrix [M | I]; deterministic (first pivot, first zero row)."""
    n = len(rows)
    l = len(rows[0]) if rows else 0
    aug = [
        [Fraction(x) for x in rows[r]] + [Fraction(1 if c == r else 0) for c in range(n)]
        for r in range(n)
    ]
    r = 0
    for c in range(l):
        pivot = next((rr for rr in range(r, n) if aug[rr][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for rr in range(r + 1, n):
            if aug[rr][c] != 0:
                f = aug[rr][c] / aug[r][c]
                aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
        r += 1
        if r == n:
            break
    if r == n:
        return None
    # row r of the M-part is zero; its I-part records the combination
    vec = aug[r][l:]
    denom = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints


def extract_abelian(h: HomSpec) -> Union[FullEmbedding, KernelWitness]:
    """Extraction for a complete source graph (free-abelian source group).

    The image supports all lie in one clique of the target, so the
    homomorphism is a linear map between free-abelian groups; its matrix of
    exponent sums decides everything. Full row rank yields the order-first
    assignment of source vertices to support vertices (a full embedding,
    both sides being cliques); a rank deficit yields an integer kernel
    vector, spelled out as a product of generator powers and verified to be
    a kernel witness.
    """
    src = h.source
    if not src.spans_clique(src.vertices):
        raise ValueError("source of extract_abelian must be a complete graph")
    supp = _support_union(h, src.vertices)
    if supp & ~h.target._star_meet(supp):
        raise ValueError("image supports are not contained in a clique of the target")
    z = _integer_left_nullvector(_exponent_matrix(h, supp))
    if z is None:
        return FullEmbedding(dict(zip(src.vertices, h.target._names(supp))))
    letters = []
    for v, e in zip(src.vertices, z):
        sign = 1 if e > 0 else -1
        letters.extend([(v, sign)] * abs(e))
    return _checked_witness(h, Word(src, letters), src.vertices, "abelian kernel vector")


# -- anti-path components -------------------------------------------------------------


@dataclass(frozen=True)
class CliqueChain:
    """The anti-path order v_1..v_n of the source and the supports
    C_1..C_n of the images of v_1..v_n, as masks over the target graph,
    each spanning a clique; every cross pair at distance > 1 in the order
    is identical or adjacent."""

    graph: Graph
    order: tuple[str, ...]
    cliques: tuple[int, ...]


def build_clique_chain(h: HomSpec) -> CliqueChain:
    """Read the order v_1..v_n of the path that complements the source
    (raag.graphs._anti_path_order; a ValueError when the source is no path
    complement), collect C_i = supp(image of v_i) and check the
    cross-adjacency forced by commuting clique-supported images: for
    |i-j| > 1 the images of v_i and v_j commute, which the centralizer
    theorem decides from the two supports: C_j lies in the star meet of the
    clique C_i, computed once per image."""
    order = _anti_path_order(h.source)
    if order is None:
        raise ValueError("source is not the complement of a path")
    gamma = h.target
    supports = [h._image(v)[0] for v in order]
    meets = [gamma._star_meet(s) for s in supports]
    for v, supp_v, meet in zip(order, supports, meets):
        if supp_v & ~meet:
            raise ValueError(f"clique-support condition violated at {v!r}")
    n = len(order)
    for i in range(n):
        for j in range(i + 2, n):
            if supports[j] & ~meets[i]:
                raise ValueError(
                    "not a homomorphism on this component: images of "
                    f"{order[i]!r} and {order[j]!r} do not commute"
                )
    return CliqueChain(gamma, order, tuple(supports))


def sequence_search(chain: CliqueChain) -> Optional[tuple[str, ...]]:
    """Search for mutually distinct y_i in C_i with y_{i-1} non-adjacent to
    y_i; None means no such sequence exists anywhere in the chain.

    Positions are filled in chain order and each tries the vertices of its
    clique in target insertion order; the first solution is returned. The
    forward-checking engine of raag.graphs keeps every unfilled position's
    remaining vertices as a bitmask: choosing y_i keeps only the distinct
    non-neighbours of y_i at position i + 1 and its neighbours further on,
    which the chain makes all but y_i itself; a choice that empties some
    position is dropped. That pruning discards only choices without a
    solution, so the result is the first solution of the plain
    backtracking scan in the same orders."""
    n = len(chain.cliques)
    if n < 2:
        raise ValueError("sequence search needs a chain of length >= 2")
    g = chain.graph
    non = _nonneighbor_masks(g)
    links = [[(j, non if j == i + 1 else g._nbr) for j in range(i + 1, n)] for i in range(n)]
    found = next(_forward_check(list(chain.cliques), links), None)
    if found is None:
        return None
    return tuple(g.vertices[t] for t in found)


def reach_sets(chain: CliqueChain) -> tuple[int, ...]:
    """The reach sets Y_1..Y_{n-1}, as masks over the target: Y_1 = C_1;
    Y_i = vertices of C_i with a distinct non-neighbor in Y_{i-1} (a
    generator commutes with itself, so equal vertices do not count). Sets
    may be empty."""
    non = _nonneighbor_masks(chain.graph)
    sets = [chain.cliques[0]]
    for clique in chain.cliques[1:-1]:
        reach = 0
        for x in _bits(sets[-1]):
            reach |= non[x]
        sets.append(clique & reach)
    return tuple(sets)


def check_reach_adjacency(chain: CliqueChain, reach: tuple[int, ...]) -> None:
    """When no distinct non-adjacent sequence exists, every vertex of the
    last clique must be identical-or-adjacent to every vertex of every
    reach set (masks over the target). Raises MechanismError otherwise,
    naming the first pair in target order."""
    g = chain.graph
    non = _nonneighbor_masks(g)
    for ys in reach:
        for y in _bits(ys):
            bad = chain.cliques[-1] & non[y]
            if bad:
                c = g.vertices[(bad & -bad).bit_length() - 1]
                raise MechanismError(f"reach-set adjacency failed at pair ({g.vertices[y]!r}, {c!r})")


def peel_words(h: HomSpec, chain: CliqueChain, reach: tuple[int, ...]) -> tuple[Word, ...]:
    """Peel the reduced image words down to their reach sets.

    With W_i = reduce(image of v_i), the peeled word P_i keeps exactly the
    letters whose vertex lies in Y_i: each discarded letter commutes with
    everything it has to pass, so conjugating by the peeled words agrees
    with conjugating by the originals. That invariant is verified here
    stage by stage, on one canonical tower T_i = P_i^-1 T_{i-1} P_i, T_1 =
    P_1, against the image tower, which conjugates by W_i instead:
    * W_i spans a clique, so W_i = P_i D_i, where D_i holds its letters
      outside Y_i and supp(D_i) = supp(W_i) minus Y_i. Once T_{i-1} equals
      the image tower, T_i does iff D_i commutes with T_i, which the
      centralizer theorem decides from the two supports, D_i's being a
      clique.
    * Stage 2 also requires the base case T_1 = W_1, that is supp(W_1)
      inside Y_1. Otherwise the towers part at stage 2: conjugation keeps
      exponent sums, and P_1 and W_1 differ in those of D_1.
    So the check fails at the first stage at which the two towers part, as
    comparing their canonical forms would. A failure is an internal error,
    since it cannot happen once no distinct non-adjacent sequence exists
    in the chain.
    """
    g = h.target
    peeled: list[Word] = []
    for i, v in enumerate(chain.order[:-1]):
        codes = _reduced_codes(h.images[v])
        p = Word._from_codes(g, tuple(c for c in codes if reach[i] >> abs(c) - 1 & 1))
        peeled.append(p)
        outside = h._image(v)[0] & ~reach[i]
        if i == 0:
            tower, first_outside = p, outside
            continue
        tower = canonical_form(conjugate(tower, p)).word
        if (i == 1 and first_outside) or not _centralizer_commutes(g, outside, _code_mask(tower.codes())):
            raise MechanismError(f"peeled conjugation tower diverged at stage {i + 1}")
    return tuple(peeled)


def obstruction_commutator(h: HomSpec) -> KernelWitness:
    """The kernel witness for an anti-path source with no distinct
    non-adjacent sequence: the conjugated commutator
    [v_1^(v_2 ... v_{n-1}), v_n] in the anti-path order of the source,
    which is [v_1, v_2] letter for letter at n = 2, checked by
    _checked_witness; a failure raises, since it contradicts the
    construction.
    """
    order = _anti_path_order(h.source)
    if order is None or len(order) in (1, 3):
        raise ValueError("obstruction commutator is defined for anti-paths with n = 2 and n >= 4")
    gens = {v: Word(h.source, ((v, 1),)) for v in order}
    conj = conjugate(gens[order[0]], product(Word(h.source, ()), *[gens[v] for v in order[1:-1]]))
    return _checked_witness(h, commutator(conj, gens[order[-1]]), tuple(order), "obstruction commutator")


def extract_anti_path(h: HomSpec) -> Union[FullEmbedding, KernelWitness]:
    """Dichotomy for an anti-path source on n = 2 or n >= 4 vertices, in
    the anti-path order that build_clique_chain reads from the source.

    Either returns a full embedding with each vertex mapped inside the
    support of its own image, or a verified kernel witness. The chain
    sequence is a full embedding by construction (distinct values,
    consecutive ones non-adjacent, and the clique chain makes every other
    pair adjacent), so it is not checked here; glue_join checks the merged
    map. The witness branch for n >= 4 also re-plays the reach-set and
    peeling argument (peel_words checks the peeled tower against the image
    tower stage by stage); obstruction_commutator then checks the witness
    itself.
    """
    n = len(h.source)
    if n == 1:
        raise ValueError("use extract_abelian for single-vertex components")
    if n == 3:
        raise ValueError("use extract_anti_path3 for 3-vertex anti-path components")
    chain = build_clique_chain(h)
    seq = sequence_search(chain)
    if seq is not None:
        return FullEmbedding(dict(zip(chain.order, seq)))
    peel_checked = n >= 4
    if peel_checked:
        reach = reach_sets(chain)
        check_reach_adjacency(chain, reach)
        peel_words(h, chain, reach)
    witness = obstruction_commutator(h)
    return replace(witness, peel_checked=peel_checked)


def extract_anti_path3(h: HomSpec) -> Union[FullEmbedding, StructuralCertificate]:
    """Dichotomy for the 3-vertex anti-path (one edge plus an isolated
    vertex) on the induced subgraph of the image support: when that
    subgraph's complement splits into complete components, no full
    embedding exists (the complement of the anti-path is the path on three
    vertices, which fits in no complete graph), and they are emitted as the
    structural certificate of non-injectivity; otherwise a full embedding
    exists, and the embedding search returns its first one."""
    src = h.source
    if len(src) != 3 or _anti_path_order(src) is None:
        raise ValueError("source of extract_anti_path3 must be a 3-vertex anti-path")
    sub = _induced(h.target, _support_union(h, src.vertices), h.target.name + "_sub")
    names = _complete_complement_components(sub)
    if names is not None:
        return StructuralCertificate(src.vertices, sub.vertices, names)
    return FullEmbedding(full_embedding_search(src, sub))


# -- gluing and the end-to-end pipeline ------------------------------------------------


def glue_join(embeddings: list[FullEmbedding], h: HomSpec) -> FullEmbedding:
    """Merge per-component embeddings into one full embedding of the whole
    join. The merged map is checked with verify_full_embedding; a violation,
    such as two components sharing an image vertex or a cross pair landing
    on non-adjacent target vertices, raises ValueError naming the first
    violating pair."""
    merged: dict[str, str] = {}
    for emb in embeddings:
        for v in emb.mapping:
            if v in merged:
                raise ValueError(f"component embeddings overlap on source vertex {v!r}")
        merged.update(emb.mapping)
    chk = verify_full_embedding(h.source, h.target, merged)
    if not chk:
        raise ValueError(f"glued map is not a full embedding: {chk.violation}")
    return FullEmbedding(merged)


def extract_full(h: HomSpec) -> ExtractionOutcome:
    """End-to-end extraction.

    Validates the table (homomorphism + clique-support; anything else is
    refused), decomposes the source into join factors and runs one loop
    over (route, factor) pairs: the merged singleton factors through
    extract_abelian first, then each other factor in component order
    through extract_anti_path3 (3 vertices) or extract_anti_path. Every
    route takes only the restriction of h to its factor, which shares h's
    image words and their cached reduced codes, picks its target vertices
    from the image supports and checks its own witness. The first factor
    that fails ends the loop: a kernel witness is returned re-homed on the
    full source, a structural certificate as it is. Otherwise the
    collected embeddings are glued.
    """
    report = validate_hom(h)
    if report.relator_failures:
        u, v = report.relator_failures[0]
        raise ValueError(f"not a homomorphism: images of {u!r} and {v!r} do not commute")
    if report.clique_violations:
        v, supp_v = report.clique_violations[0]
        raise ValueError(
            f"clique-support condition fails at {v!r}: support {sorted(supp_v)} is not a clique"
        )
    if report.trivial_images:
        v = report.trivial_images[0]
        return _checked_witness(h, Word(h.source, ((v, 1),)), (v,), "trivial-image witness")
    decomp = join_decompose(h.source) if len(h.source) else None
    if decomp is None or any(c.order is None for c in decomp.components):
        raise ValueError("out of theorem scope: source is not the complement of a linear forest")
    # the singleton factors: the vertices without a non-neighbour
    singles = sum(1 << i for i, m in enumerate(_nonneighbor_masks(h.source)) if not m)
    factors = []
    if singles:
        factors.append((extract_abelian, _induced(h.source, singles, h.source.name + "_abelian")))
    factors += [(extract_anti_path3 if len(c.graph) == 3 else extract_anti_path, c.graph)
                for c in decomp.components if c.kind != "singleton"]
    embeddings: list[FullEmbedding] = []
    for route, factor in factors:
        out = route(h.restricted(factor))
        if isinstance(out, KernelWitness):
            return _lift_witness(out, h)
        if isinstance(out, StructuralCertificate):
            return out
        embeddings.append(out)
    return glue_join(embeddings, h)


def _lift_witness(witness: KernelWitness, h: HomSpec) -> KernelWitness:
    """Re-home a component witness on the full source graph. A(component)
    is a retract of A(source), so the word stays nontrivial, and h maps it
    to the same element as the restriction of h did."""
    return replace(witness, word=Word(h.source, witness.word.letters))


# -- text format --------------------------------------------------------------------


def parse_hom(text: str, base_dir: str = ".") -> HomSpec:
    """Parse the homomorphism file format::

        hom
        source: <graph-file>
        target: <graph-file>
        map <vertex> = <word>
        ...

    Graph file paths are resolved relative to base_dir. Every source
    vertex needs exactly one map line; words use the word syntax of the
    ambient target graph.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or lines[0] != "hom":
        raise ValueError("homomorphism file must start with a 'hom' line")
    if len(lines) < 3 or not lines[1].startswith("source:") or not lines[2].startswith("target:"):
        raise ValueError("expected 'source:' and 'target:' lines after the header")
    source_path = os.path.join(base_dir, lines[1][len("source:"):].strip())
    target_path = os.path.join(base_dir, lines[2][len("target:"):].strip())
    with open(source_path, encoding="utf-8") as fh:
        source = parse_graph(fh.read())
    with open(target_path, encoding="utf-8") as fh:
        target = parse_graph(fh.read())
    images: dict[str, Word] = {}
    for ln in lines[3:]:
        if not ln.startswith("map "):
            raise ValueError(f"unexpected line in homomorphism file: {ln!r}")
        body = ln[len("map "):]
        if "=" not in body:
            raise ValueError(f"map line without '=': {ln!r}")
        vert, word_text = body.split("=", 1)
        vert = vert.strip()
        if vert in images:
            raise ValueError(f"duplicate map line for {vert!r}")
        images[vert] = parse_word(target, word_text.strip())
    return HomSpec(source, target, images)
