"""Exact word arithmetic in right-angled Artin groups.

A word is a finite sequence of signed letters over the vertex alphabet of
an ambient graph; generators commute exactly when their vertices are
adjacent. The module provides reduction, a canonical normal form (so group
elements can be compared by letter identity), supports, commutation tests
and expression builders.

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

from dataclasses import dataclass, field
from typing import Iterable, Optional

from raag import _kernel
from raag.graphs import Graph

Letter = tuple[str, int]


@dataclass(slots=True, unsafe_hash=True, init=False)
class Word:
    """A raw (not necessarily reduced) word over an ambient graph, held as
    signed generator codes: +(i+1) for the vertex of insertion index i,
    -(i+1) for its inverse.

    Immutable by convention; all operations return new words. Words refuse
    to combine with words over a different ambient graph. _reduced caches
    the codes of the reduced form (see _reduced_codes); None until first
    asked for. Word(graph, letters) checks letters from outside; _from_codes
    takes trusted codes, and their reduced codes when they are known.
    """

    graph: Graph
    _signed: tuple[int, ...]
    _reduced: Optional[tuple[int, ...]] = field(default=None, compare=False)

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
    def _from_codes(cls, graph: Graph, codes: tuple[int, ...], reduced: Optional[tuple[int, ...]] = None) -> "Word":
        w = object.__new__(cls)
        w.graph = graph
        w._signed = codes
        w._reduced = reduced
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

    def __str__(self) -> str:
        if not self._signed:
            return "1"
        return " ".join(v if s > 0 else f"{v}^-1" for v, s in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r} over {self.graph.name!r})"


@dataclass(slots=True, unsafe_hash=True)
class GroupElement:
    """An element of the group, held as its canonical word.

    Construct via canonical_form; two elements are equal iff their
    canonical words are letter-identical.
    """

    word: Word

    @property
    def is_identity(self) -> bool:
        return not len(self.word)

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
    return Word._from_codes(w.graph, reduced, reduced)


def is_reduced(w: Word) -> bool:
    """Reduced words are exactly the length-minimal representatives, so a
    word is reduced iff no letter cancels in the piling pass."""
    return len(_reduced_codes(w)) == len(w)


def canonical_form(w: Word) -> GroupElement:
    """The canonical representative of the element of w: reduced, and
    shortlex-least among all words reachable from a reduced form by
    swapping adjacent commuting letters. Idempotent; equal elements yield
    letter-identical canonical words."""
    codes = _kernel.normalize(w._signed, w.graph.nonneighbor_table())
    return GroupElement(Word._from_codes(w.graph, tuple(codes)))


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
