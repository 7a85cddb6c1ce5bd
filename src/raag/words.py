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
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from raag import _kernel
from raag.graphs import Graph

Letter = tuple[str, int]

_DEFAULT_ORACLE_BUDGET = 2_000_000


class Word:
    """A raw (not necessarily reduced) word over an ambient graph.

    Immutable by convention; all operations return new words. Words refuse
    to combine with words over a different ambient graph.
    """

    __slots__ = ("graph", "letters", "_codes")

    def __init__(self, graph: Graph, letters: Iterable[Letter]):
        lets = tuple((v, int(s)) for v, s in letters)
        for v, s in lets:
            if v not in graph:
                raise ValueError(f"foreign vertex {v!r} for graph {graph.name!r}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        self.graph = graph
        self.letters = lets
        self._codes = None

    @classmethod
    def _make(cls, graph: Graph, letters: tuple[Letter, ...]) -> "Word":
        w = object.__new__(cls)
        w.graph = graph
        w.letters = letters
        w._codes = None
        return w

    def codes(self) -> tuple[int, ...]:
        if self._codes is None:
            idx = self.graph._index
            self._codes = tuple((idx[v] + 1) * s for v, s in self.letters)
        return self._codes

    def inverse(self) -> "Word":
        return Word._make(self.graph, tuple((v, -s) for v, s in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        _same_ambient(self, other)
        return Word._make(self.graph, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.graph == other.graph and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.graph, self.letters))

    def __str__(self) -> str:
        if not self.letters:
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
        return not self.word.letters

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
        return Word._make(graph, ())
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


def _normal_codes(w: Word) -> list[int]:
    g = w.graph
    return _kernel.normalize(w.codes(), len(g.vertices), g.nonneighbor_table())


def _decode(g: Graph, codes) -> tuple[Letter, ...]:
    verts = g.vertices
    return tuple((verts[c - 1], 1) if c > 0 else (verts[-c - 1], -1) for c in codes)


def reduce(w: Word) -> Word:
    """One reduced word representing the same element, obtained by
    leftmost-innermost pair deletion.

    Repeatedly finds a letter v^e followed, after intermediate letters
    whose vertices are all adjacent to v, by v^-e, and deletes the pair
    (the intermediates commute past v, so the element is unchanged).
    Iterates to a fixpoint; the surviving letters keep their original
    relative order.
    """
    letters = list(w.letters)
    g = w.graph
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            vi, si = letters[i]
            for j in range(i + 1, len(letters)):
                vj, sj = letters[j]
                if vj == vi:
                    if sj == -si:
                        del letters[j]
                        del letters[i]
                        changed = True
                    # same vertex, same sign: blocks (a vertex is not
                    # adjacent to itself)
                    break
                if not g.adjacent(vi, vj):
                    break
            if changed:
                break
    return Word._make(w.graph, tuple(letters))


def is_reduced(w: Word) -> bool:
    """Reduced words are exactly the length-minimal representatives, so a
    word is reduced iff normalization preserves its length."""
    return len(_normal_codes(w)) == len(w.letters)


def canonical_form(w: Word) -> GroupElement:
    """The canonical representative of the element of w: reduced, and
    shortlex-least among all words reachable from a reduced form by
    swapping adjacent commuting letters. Idempotent; equal elements yield
    letter-identical canonical words."""
    g = w.graph
    return GroupElement(Word._make(g, _decode(g, _normal_codes(w))))


def is_trivial(w: Word) -> bool:
    """Word problem: true iff w represents the identity (equivalently,
    reduce(w) is empty)."""
    return not _normal_codes(w)


def support(w: Word) -> frozenset[str]:
    """Vertices appearing in a reduced form of w (independent of the choice
    of reduced form)."""
    g = w.graph
    return frozenset(g.vertices[abs(c) - 1] for c in _normal_codes(w))


def commutes(w1: Word, w2: Word) -> bool:
    """True iff the elements of w1 and w2 commute, decided by reducing
    their commutator."""
    _same_ambient(w1, w2)
    return is_trivial(commutator(w1, w2))


def clique_commute_check(w1: Word, w2: Word) -> bool:
    """Centralizer shortcut for clique-supported words: two words whose
    supports each span a clique commute iff the union of the supports
    spans a clique. Raises if either support is not clique-shaped (that is
    the hypothesis of the underlying centralizer theorem)."""
    _same_ambient(w1, w2)
    g = w1.graph
    s1, s2 = support(w1), support(w2)
    if not g.spans_clique(s1) or not g.spans_clique(s2):
        raise ValueError("supports not clique-shaped")
    return g.spans_clique(s1 | s2)


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
            if i != j and j in g._adj[i]:
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
