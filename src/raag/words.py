"""Exact word arithmetic in right-angled Artin groups.

A word is a finite sequence of signed letters over the vertex alphabet of
an ambient graph; generators commute exactly when their vertices are
adjacent. The module provides reduction, a canonical normal form (so group
elements can be compared by letter identity), supports, commutation tests,
and an independent brute-force triviality oracle used for cross-validation.

A word is *reduced* when it contains no pair v^e ... v^-e whose
intermediate letters all have vertices adjacent to v; reduced words of the
same element all have the same length and differ only by transpositions of
adjacent commuting letters. The canonical form is the lexicographically
least reduced word of that commutation class, under the letter order
"vertex insertion index ascending, positive sign before negative".

Commutation is decided with Servatius's centralizer theorem ("Automorphisms
of graph groups", J. Algebra 1989): if the reduced support S of an element
spans a clique, its centralizer is the subgroup generated by S together
with the link lk(S) (the vertices outside S adjacent to all of S); in
particular the centralizer of a generator v is generated by its star st(v).
An element lies in the subgroup generated by a vertex set iff its reduced
support does, so whenever one of two supports spans a clique, commutation
is a support test; only the remaining pairs need a commutator.

Each Word caches the codes of its reduced form, the letters that survive
the piling pass, in a slot filled on first use: reduction, the reduced-length
and triviality tests, supports and commutation all read that one fact, and
raag.embedding reads homomorphism images only through it (substitution and
exponent sums included), so a word is piled at most once however many of
them ask. The cache is a pure function of the letters and the graph, so
equality and hashing ignore it, and two threads that fill it at once write
the same value.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from raag import _kernel
from raag.graphs import Graph

Letter = tuple[str, int]

_DEFAULT_ORACLE_BUDGET = 2_000_000


class Word:
    """A raw (not necessarily reduced) word over an ambient graph, held as
    signed generator codes: +(i+1) for the vertex of insertion index i,
    -(i+1) for its inverse.

    Immutable by convention; all operations return new words. Words refuse
    to combine with words over a different ambient graph. _reduced caches
    the codes of the reduced form (see _reduced_codes); None until first
    asked for.
    """

    __slots__ = ("graph", "_signed", "_reduced")

    def __init__(self, graph: Graph, letters: Iterable[Letter]):
        index = graph._index
        codes = []
        for v, s in letters:
            if v not in index:
                raise ValueError(f"foreign vertex {v!r} for graph {graph.name!r}")
            if type(s) is not int or s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
            codes.append((index[v] + 1) * s)
        self.graph = graph
        self._signed = tuple(codes)
        self._reduced = None

    @classmethod
    def _from_codes(cls, graph: Graph, codes: tuple[int, ...]) -> "Word":
        w = object.__new__(cls)
        w.graph = graph
        w._signed = codes
        w._reduced = None
        return w

    def codes(self) -> tuple[int, ...]:
        return self._signed

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The word as (vertex name, sign) pairs."""
        verts = self.graph.vertices
        return tuple((verts[c - 1], 1) if c > 0 else (verts[-c - 1], -1) for c in self._signed)

    def inverse(self) -> "Word":
        return Word._from_codes(self.graph, tuple(-c for c in reversed(self._signed)))

    def __mul__(self, other: "Word") -> "Word":
        _same_ambient(self, other)
        return Word._from_codes(self.graph, self._signed + other._signed)

    def __len__(self) -> int:
        return len(self._signed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.graph == other.graph and self._signed == other._signed

    def __hash__(self) -> int:
        return hash((self.graph, self._signed))

    def __str__(self) -> str:
        if not self._signed:
            return "1"
        return " ".join(v if s > 0 else f"{v}^-1" for v, s in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r} over {self.graph.name!r})"


class GroupElement:
    """An element of the group, held as its canonical word.

    Construct via canonical_form; two elements are equal iff their
    canonical words are letter-identical.
    """

    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word

    @property
    def is_identity(self) -> bool:
        return not len(self.word)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __str__(self) -> str:
        return str(self.word)

    def __repr__(self) -> str:
        return f"GroupElement({str(self.word)!r} over {self.word.graph.name!r})"


def _same_ambient(w1: Word, w2: Word) -> None:
    if w1.graph != w2.graph:
        raise ValueError("ambient graph mismatch")


def parse_word(graph: Graph, text: str) -> Word:
    """Parse the word syntax: whitespace-separated letters, inverses marked
    with a ^-1 suffix (e.g. "a b^-1 c"); the empty word is written "1".

    If the graph has a vertex literally named "1", that name wins and the
    empty word cannot be written.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty input; the empty word is written '1'")
    if tokens == ["1"] and "1" not in graph:
        return Word._from_codes(graph, ())
    letters = []
    for tok in tokens:
        if tok.endswith("^-1"):
            name, sign = tok[:-3], -1
        else:
            name, sign = tok, 1
        if name not in graph:
            raise ValueError(f"unknown generator {name!r}")
        letters.append((name, sign))
    return Word(graph, letters)


def _reduced_codes(w: Word) -> tuple[int, ...]:
    """The codes of the letters of w that survive the piling pass of the
    kernel, in their original order; computed once per Word and cached."""
    reduced = w._reduced
    if reduced is None:
        codes = w._signed
        keep = _kernel.survivors(codes, w.graph.nonneighbor_table())
        reduced = codes if len(keep) == len(codes) else tuple(codes[k] for k in keep)
        w._reduced = reduced
    return reduced


def _normal_codes(w: Word) -> list[int]:
    return _kernel.normalize(w.codes(), w.graph.nonneighbor_table())


def reduce(w: Word) -> Word:
    """One reduced word representing the same element: the letters of w
    that survive the piling pass of the kernel, in their original order.

    A letter cancels against the last surviving letter of its generator
    when that one is its inverse and every surviving letter since commutes
    with it, so each cancelled pair deletes letters that commute past
    everything between them and the element is unchanged. The survivors
    admit no further cancellation, so they are as many as the letters of
    the canonical form.
    """
    reduced = _reduced_codes(w)
    out = Word._from_codes(w.graph, reduced)
    out._reduced = reduced
    return out


def is_reduced(w: Word) -> bool:
    """Reduced words are exactly the length-minimal representatives, so a
    word is reduced iff no letter cancels in the piling pass."""
    return len(_reduced_codes(w)) == len(w)


def canonical_form(w: Word) -> GroupElement:
    """The canonical representative of the element of w: reduced, and
    shortlex-least among all words reachable from a reduced form by
    swapping adjacent commuting letters. Idempotent; equal elements yield
    letter-identical canonical words."""
    return GroupElement(Word._from_codes(w.graph, tuple(_normal_codes(w))))


def is_trivial(w: Word) -> bool:
    """Word problem: true iff w represents the identity (equivalently,
    reduce(w) is empty)."""
    return not _reduced_codes(w)


def _code_mask(codes: Iterable[int]) -> int:
    """The generators of the letters of codes, as a bitmask over vertex
    indices."""
    mask = 0
    for c in codes:
        mask |= 1 << (abs(c) - 1)
    return mask


def _support_mask(w: Word) -> int:
    """The reduced support of w as a bitmask over vertex indices."""
    return _code_mask(_reduced_codes(w))


def support(w: Word) -> frozenset[str]:
    """Vertices appearing in a reduced form of w (independent of the choice
    of reduced form)."""
    return frozenset(w.graph._names(_support_mask(w)))


def _centralizer_commutes(g: Graph, s1: int, s2: int) -> Optional[bool]:
    """Whether two elements with reduced support masks s1 and s2 commute,
    when one of the supports spans a clique S: by the centralizer theorem
    the other commutes with it iff its support lies in the union of S and
    lk(S), the star meet of S. None when neither support spans a clique."""
    for s, t in ((s1, s2), (s2, s1)):
        meet = g._star_meet(s)
        if not s & ~meet:
            return not t & ~meet
    return None


def commutes(w1: Word, w2: Word) -> bool:
    """True iff the elements of w1 and w2 commute.

    When the reduced support S of either word spans a clique, Servatius's
    centralizer theorem (J. Algebra 1989) decides it: the centralizer is
    generated by S and lk(S), so the words commute iff the other support
    lies in the union of S and lk(S). Otherwise their commutator is
    reduced."""
    _same_ambient(w1, w2)
    decided = _centralizer_commutes(w1.graph, _support_mask(w1), _support_mask(w2))
    if decided is not None:
        return decided
    return is_trivial(commutator(w1, w2))


# -- expression builders (raw, unreduced output) ------------------------------


def inverse(w: Word) -> Word:
    return w.inverse()


def product(*words: Word) -> Word:
    if not words:
        raise ValueError("product needs at least one word")
    out = words[0]
    for w in words[1:]:
        out = out * w
    return out


def conjugate(x: Word, y: Word) -> Word:
    """x conjugated by y: y^-1 x y."""
    return product(y.inverse(), x, y)


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return product(x, y, x.inverse(), y.inverse())


# -- brute-force oracle --------------------------------------------------------


def oracle_is_trivial(w: Word, budget: int = _DEFAULT_ORACLE_BUDGET) -> Optional[bool]:
    """Independent word-problem oracle.

    Breadth-first search over the moves {cancel an adjacent inverse pair,
    transpose adjacent letters on distinct adjacent vertices}; True iff the
    empty word is reached. Both moves are length-nonincreasing, so the
    reachable set is finite and is exhausted unless the visited-state
    budget is exceeded, in which case None (inconclusive) is returned.
    Deliberately shares no code with the piling kernel.
    """
    g = w.graph
    # compact state encoding: one char per letter
    chars = "".join(
        chr((abs(c) - 1) * 2 + (0 if c > 0 else 1)) for c in w.codes()
    )
    if not chars:
        return True
    n = len(g.vertices)
    cancel_pairs = set()
    swap_pairs = set()
    for i in range(n):
        cancel_pairs.add(chr(2 * i) + chr(2 * i + 1))
        cancel_pairs.add(chr(2 * i + 1) + chr(2 * i))
        for j in range(n):
            if g._nbr[i] >> j & 1:
                for si in (0, 1):
                    for sj in (0, 1):
                        swap_pairs.add(chr(2 * i + si) + chr(2 * j + sj))
    seen = {chars}
    queue = deque([chars])
    while queue:
        cur = queue.popleft()
        for k in range(len(cur) - 1):
            pair = cur[k:k + 2]
            if pair in cancel_pairs:
                nxt = cur[:k] + cur[k + 2:]
                if not nxt:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > budget:
                        return None
                    queue.append(nxt)
            if pair in swap_pairs:
                nxt = cur[:k] + pair[1] + pair[0] + cur[k + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > budget:
                        return None
                    queue.append(nxt)
    return False
