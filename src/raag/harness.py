"""Seeded randomized end-to-end verification harness.

Each trial draws a random target graph, a random complement-of-a-linear-
forest source, and a random clique-supported image table whose relators
hold; runs the full extraction; and re-checks whatever came out
(embedding, kernel witness, or structural certificate) with its check(h).
The report is fully determined by the configuration: the generator is a
single seeded Mersenne Twister (random.Random), trial sub-seeds are drawn
from it, and no timing or environment data enters the output.

Tables are drawn as signed generator codes, with the cliques read off the
target's neighbour bitmasks. Every image is a word over a clique of the
target, so it lies in a free abelian subgroup: its reduced support is the
set of generators with nonzero exponent sum, and that set spans a clique.
By Servatius's centralizer theorem ("Automorphisms of graph groups",
J. Algebra 1989) two such images a and b commute iff supp(b) lies in the
star meet of supp(a), the AND of the stars of its vertices, and
raag.words._centralizer_commutes, the test validate_hom and commutes
use, decides every relator from the two supports. The loop that draws an
image word also sums its exponents and returns that support as a
bitmask, so a table is accepted or rejected from bitmasks alone, without
reducing or recounting a word; validate_hom runs once per trial, inside
extract_full.

Every uniform draw inside a trial (clique vertices, word lengths, letters
and signs) calls the trial generator's getrandbits directly, under
Random's own rejection rule for randrange(n): n.bit_length() bits, drawn
again while they read n or more. The generator therefore yields the same
bits in the same order as rng.choice and rng.randint would, and the
reports are unchanged, without two or three Python frames per draw.
rng.random, rng.shuffle and the once-per-trial graph and source draws
stay on the public methods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from raag.embedding import FullEmbedding, HomSpec, KernelWitness, extract_full
from raag.graphs import Graph, _bits, graph_join, path_complement
from raag.words import Word, _centralizer_commutes

_IMAGE_ATTEMPTS = 50


@dataclass(frozen=True)
class HarnessConfig:
    trials: int
    seed: int
    max_target_vertices: int = 7
    component_sizes: tuple[int, ...] = (1, 2, 4, 5)
    edge_density: float = 0.5


@dataclass(frozen=True)
class TrialResult:
    index: int
    outcome: str  # "embedding" | "witness" | "certificate" | "error"
    detail: str
    verified: bool
    peel_checked: bool


@dataclass
class HarnessReport:
    config: HarnessConfig
    results: list[TrialResult] = field(default_factory=list)
    failed_invariants: list[str] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.results if r.outcome == outcome)

    @property
    def peel_checked_trials(self) -> int:
        return sum(1 for r in self.results if r.peel_checked)

    @property
    def clean(self) -> bool:
        return not self.failed_invariants and self.count("error") == 0

    def format(self) -> str:
        cfg = self.config
        lines = [
            "raag verification harness",
            f"trials: {cfg.trials}",
            f"seed: {cfg.seed}",
            f"max_target_vertices: {cfg.max_target_vertices}",
            "component_sizes: " + " ".join(str(s) for s in cfg.component_sizes),
            f"edge_density: {cfg.edge_density}",
        ]
        for r in self.results:
            flag = "ok" if r.verified else "UNVERIFIED"
            lines.append(f"trial {r.index}: {r.outcome} {flag} {r.detail}".rstrip())
        lines.append(f"embeddings: {self.count('embedding')}")
        lines.append(f"witnesses: {self.count('witness')}")
        lines.append(f"certificates: {self.count('certificate')}")
        lines.append(f"errors: {self.count('error')}")
        lines.append(f"peel_checked_trials: {self.peel_checked_trials}")
        lines.append(f"failed_invariants: {len(self.failed_invariants)}")
        for msg in self.failed_invariants:
            lines.append(f"failed: {msg}")
        return "\n".join(lines) + "\n"


# -- instance generation ------------------------------------------------------------


def _random_graph(rng: random.Random, max_vertices: int, density: float) -> Graph:
    n = rng.randint(1, max_vertices)
    names = [f"t{i}" for i in range(1, n + 1)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph("Gamma", names, edges)


def _random_source(rng: random.Random, sizes: tuple[int, ...]) -> Graph:
    k = 2 if rng.random() < 0.25 else 1
    parts = [path_complement(rng.choice(sizes), prefix=chr(ord("a") + c), name="Lambda") for c in range(k)]
    return parts[0] if k == 1 else graph_join(parts, name="Lambda")


class _Tables(NamedTuple):
    """A target graph as the draws read it: every generator code (vertex
    index + 1), the neighbour codes of each vertex in vertex order, and the
    graph's neighbour bitmask of each vertex index."""

    codes: tuple[int, ...]
    links: list[tuple[int, ...]]
    nbr: tuple[int, ...]


def _tables(g: Graph) -> _Tables:
    return _Tables(tuple(range(1, len(g) + 1)), [tuple(j + 1 for j in _bits(m)) for m in g._nbr], g._nbr)


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n) by Random's own rule, as rng.randrange(n) and
    rng.choice make it: k = n.bit_length() bits from bits (an rng's
    getrandbits), drawn again while they read n or more. Raises IndexError
    on n = 0, as rng.choice([]) does, where getrandbits(0) would return 0
    forever."""
    if n <= 0:
        raise IndexError("cannot draw from an empty range")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_clique(rng: random.Random, t: _Tables) -> list[int]:
    bits = rng.getrandbits
    clique = [1 + _below(bits, len(t.codes))]
    # the common neighbours of the clique so far, in vertex order
    candidates = t.links[clique[0] - 1]
    while candidates and rng.random() < 0.7:
        c = candidates[_below(bits, len(candidates))]
        clique.append(c)
        mask = t.nbr[c - 1]
        candidates = [d for d in candidates if mask >> (d - 1) & 1]
    return clique


def _maximal_clique(rng: random.Random, t: _Tables) -> list[int]:
    clique = [1 + _below(rng.getrandbits, len(t.codes))]
    common = t.nbr[clique[0] - 1]
    order = list(t.codes)
    rng.shuffle(order)
    for c in order:
        if common >> (c - 1) & 1:
            clique.append(c)
            common &= t.nbr[c - 1]
    return clique


def _random_word_over(rng: random.Random, clique: list[int]) -> tuple[list[int], int]:
    """A word of 1 to 4 letters over clique, as signed codes, and its reduced
    support as a bitmask: the generators with nonzero exponent sum.

    The bits are those of rng.randint(1, 4) and then, per letter,
    rng.choice(clique) and rng.choice((1, -1)), in that order: the sign is
    two bits drawn again while they read 2 or more, 0 meaning +1."""
    bits = rng.getrandbits
    n = len(clique)
    k = n.bit_length()
    sums = [0] * n
    word = []
    for _ in range(1 + _below(bits, 4)):
        i = bits(k)
        while i >= n:
            i = bits(k)
        s = bits(2)
        while s >= 2:
            s = bits(2)
        if s:
            sums[i] -= 1
            word.append(-clique[i])
        else:
            sums[i] += 1
            word.append(clique[i])
    mask = 0
    for c, e in zip(clique, sums):
        if e:
            mask |= 1 << (c - 1)
    return word, mask


def _relators_hold(edges: list[tuple[int, int]], supp: list[int], gamma: Graph) -> bool:
    """Whether the images of every source edge (a, b) commute, given the
    reduced support supp[i] of each image as a bitmask over gamma, for
    images that each lie over a clique (so each supp[i] spans one and
    raag.words._centralizer_commutes decides every pair)."""
    return all(_centralizer_commutes(gamma, supp[a], supp[b]) for a, b in edges)


def _random_hom(rng: random.Random, lam: Graph, gamma: Graph) -> HomSpec:
    """Random clique-supported image table whose relators all hold.

    Per-vertex random cliques are rejection-sampled a bounded number of
    times; if the relators never line up, all images are drawn over one
    shared maximal clique, which commutes unconditionally. Each image is a
    word over a clique, hence in a free abelian subgroup, so its reduced
    support is the set of generators with nonzero exponent sum, which
    _random_word_over returns as a bitmask with the word; by the
    centralizer theorem the images of an edge (a, b) commute iff supp(b)
    lies in the intersection of st(x) over x in supp(a), which
    _relators_hold tests on those bitmasks with
    raag.words._centralizer_commutes. The uniform draws read
    rng.getrandbits directly, by the rule of _below, so they take the same
    bits as rng.choice and rng.randint would. Tables are drawn as generator
    codes; words and the HomSpec are built only for the table returned.
    """
    t = _tables(gamma)
    index = lam._index
    edges = [(index[u], index[v]) for u, v in lam.edges()]
    m = len(lam.vertices)
    for _ in range(_IMAGE_ATTEMPTS):
        words, supp = [], []
        for _ in range(m):
            w, mask = _random_word_over(rng, _random_clique(rng, t))
            words.append(w)
            supp.append(mask)
        if _relators_hold(edges, supp, gamma):
            break
    else:
        shared = _maximal_clique(rng, t)
        words = [_random_word_over(rng, shared)[0] for _ in range(m)]
    return HomSpec(lam, gamma, {v: Word._from_codes(gamma, tuple(w)) for v, w in zip(lam.vertices, words)})


# -- driver ----------------------------------------------------------------------------


def run_harness(cfg: HarnessConfig) -> HarnessReport:
    """Run cfg.trials independent seeded trials and re-verify every outcome.

    Identical configurations produce byte-identical formatted reports.
    """
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.seed < 0:
        # random.Random seeds an int by its absolute value, so -s would
        # silently run the trials of s
        raise ValueError("seed must be >= 0")
    if not 0.0 <= cfg.edge_density <= 1.0:
        raise ValueError("edge density must lie in [0, 1]")
    if cfg.max_target_vertices < 1:
        raise ValueError("max target vertices must be >= 1")
    if not cfg.component_sizes or min(cfg.component_sizes) < 1:
        raise ValueError("component sizes must be a non-empty list of sizes >= 1")
    master = random.Random(cfg.seed)
    report = HarnessReport(cfg)
    for index in range(1, cfg.trials + 1):
        rng = random.Random(master.getrandbits(64))
        gamma = _random_graph(rng, cfg.max_target_vertices, cfg.edge_density)
        lam = _random_source(rng, cfg.component_sizes)
        h = _random_hom(rng, lam, gamma)
        peel_checked = False
        try:
            outcome = extract_full(h)
        except Exception as exc:  # recorded, never raised out of the harness
            report.results.append(TrialResult(index, "error", repr(exc), False, False))
            report.failed_invariants.append(f"trial {index}: extraction error: {exc!r}")
            continue
        problem = outcome.check(h)
        if isinstance(outcome, FullEmbedding):
            kind, detail = "embedding", f"|V|={len(outcome.mapping)}"
        elif isinstance(outcome, KernelWitness):
            peel_checked = outcome.peel_checked
            kind, detail = "witness", f"len={len(outcome.word)}"
        else:
            kind, detail = "certificate", f"supp={len(outcome.supp)}"
        if problem is not None:
            report.failed_invariants.append(f"trial {index}: {problem}")
        report.results.append(TrialResult(index, kind, detail, problem is None, peel_checked))
    return report
