"""Seeded randomized end-to-end verification harness.

Each trial draws a random target graph, a random complement-of-a-linear-
forest source, and a random clique-supported image table that passes the
relator check; runs the full extraction; and re-checks whatever came out
(embedding, kernel witness, or structural certificate) with its check(h).
The report is fully determined by the configuration: the generator is a
single seeded Mersenne Twister (random.Random), trial sub-seeds are drawn
from it, and no timing or environment data enters the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from raag.embedding import (
    FullEmbedding,
    HomSpec,
    KernelWitness,
    extract_full,
    validate_hom,
)
from raag.graphs import Graph, graph_join, path_complement
from raag.words import Word

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
    parts = []
    for c in range(k):
        n = rng.choice(sizes)
        parts.append(path_complement(n, prefix=chr(ord("a") + c)))
    if len(parts) == 1:
        g = parts[0]
        return Graph("Lambda", g.vertices, g.edges())
    return graph_join(parts, name="Lambda")


def _random_clique(rng: random.Random, g: Graph) -> list[str]:
    clique = [rng.choice(g.vertices)]
    # the common neighbours of the clique so far, in vertex order
    candidates = list(g.neighbors(clique[0]))
    while candidates and rng.random() < 0.7:
        clique.append(rng.choice(candidates))
        candidates = [v for v in candidates if g.adjacent(v, clique[-1])]
    return clique


def _maximal_clique(rng: random.Random, g: Graph) -> list[str]:
    clique = [rng.choice(g.vertices)]
    order = list(g.vertices)
    rng.shuffle(order)
    for v in order:
        if v not in clique and all(g.adjacent(v, u) for u in clique):
            clique.append(v)
    return clique


def _random_word_over(rng: random.Random, g: Graph, clique: list[str]) -> Word:
    length = rng.randint(1, 4)
    return Word(g, [(rng.choice(clique), rng.choice((1, -1))) for _ in range(length)])


def _random_hom(rng: random.Random, lam: Graph, gamma: Graph) -> HomSpec:
    """Random clique-supported image table that passes the relator check.

    Per-vertex random cliques are rejection-sampled a bounded number of
    times; if the relators never line up, all images are drawn over one
    shared maximal clique, which commutes unconditionally.
    """
    for _ in range(_IMAGE_ATTEMPTS):
        images = {v: _random_word_over(rng, gamma, _random_clique(rng, gamma)) for v in lam.vertices}
        h = HomSpec(lam, gamma, images)
        if validate_hom(h).is_homomorphism:
            return h
    shared = _maximal_clique(rng, gamma)
    images = {v: _random_word_over(rng, gamma, shared) for v in lam.vertices}
    return HomSpec(lam, gamma, images)


# -- driver ----------------------------------------------------------------------------


def run_harness(cfg: HarnessConfig) -> HarnessReport:
    """Run cfg.trials independent seeded trials and re-verify every outcome.

    Identical configurations produce byte-identical formatted reports.
    """
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
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
