"""The three benchmark workloads: inputs made from a seed, one operation per
input, and an independent check of every result.

Each workload reaches raag only through module attributes
(``self.m.embedding.extract_full`` and so on), so a tracer that rebinds those
attributes sees every call. The checks use public functions only.

* ``harness``: one in-process ``raag verify --trials 25 --seed s`` per
  operation, over a fixed pool of ``s`` in seeded order; exercises instance generation (``validate_hom`` -> ``commutes`` on
  short words) and the extraction pipeline on small instances.
* ``extract_long``: ``extract_full`` plus a re-check, on clique-supported
  homomorphisms whose image words are tens to hundreds of letters long;
  exercises ``embedding``, ``reduce`` and the kernel on long words.
* ``ext_query``: ``ext_ball`` -> ``ball_as_graph`` -> ``full_embedding_search``
  over a fixed list of queries with pinned answers; exercises ``extension``
  and the backtracking search in ``graphs``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
from collections import Counter


class Modules:
    """The raag modules as currently imported."""

    def __init__(self):
        import raag.cli  # noqa: F401  (raag itself does not import the CLI)

        self.cli = sys.modules["raag.cli"]
        self.embedding = sys.modules["raag.embedding"]
        self.extension = sys.modules["raag.extension"]
        self.graphs = sys.modules["raag.graphs"]
        self.words = sys.modules["raag.words"]


class Workload:
    """Base: ``rounds()`` yields lists of inputs forever, in a fixed order; the
    runner starts a round only if it expects it to end before the deadline.
    ``run_op`` performs one operation and returns (problem or None, outcome
    tallies)."""

    name = ""
    required: tuple[str, ...] = ()

    def __init__(self):
        self.m = Modules()

    def describe_inputs(self) -> str:
        raise NotImplementedError

    def rounds(self):
        raise NotImplementedError

    def warm_up(self) -> list:
        """A few operations run during set-up; returns their results."""
        items = [item for _, rnd in zip(range(4), self.rounds()) for item in rnd]
        return [self.run_op(item) for item in items[:4]]

    def run_op(self, item):
        raise NotImplementedError

    def inputs_digest(self) -> str:
        return hashlib.sha256(self.describe_inputs().encode()).hexdigest()


# -- harness ----------------------------------------------------------------------


HARNESS_TRIALS = 25
# the CLI harness report is deterministic; this digest pins the report of
# `raag verify --trials 25 --seed 2017`, which the warm-up re-runs
PINNED_VERIFY_SEED = 2017
PINNED_VERIFY_SHA256 = "aa4caeb5be5b77e597fca801ea19d0ab0466ea69cabd1896af2dec0f9f4aa3e2"
_COUNT_RE = re.compile(r"^(embeddings|witnesses|certificates|errors|peel_checked_trials|failed_invariants): (\d+)$", re.M)
_TRIAL_RE = re.compile(r"^trial (\d+): (embedding|witness|certificate|error) (ok|UNVERIFIED)\b", re.M)


class Harness(Workload):
    name = "harness"
    required = ("embedding", "witness", "peel_checked")
    POOL = 48
    PASSES = 64

    def __init__(self, seed: int):
        super().__init__()
        # one fixed pool of instance seeds under every benchmark seed: instance
        # costs spread over an order of magnitude, so a pool drawn per seed
        # moved op_p50_ms by ~10% from seed to seed. The benchmark seed orders
        # each pass over the pool
        pool = random.Random(0)
        self.op_seeds = [pool.getrandbits(31) for _ in range(self.POOL)]
        rng = random.Random(seed)
        self.passes = [rng.sample(self.op_seeds, self.POOL) for _ in range(self.PASSES)]

    def describe_inputs(self) -> str:
        return "\n".join(" ".join(f"verify --trials {HARNESS_TRIALS} --seed {s}" for s in order)
                         for order in self.passes)

    def rounds(self):
        while True:
            yield from self.passes

    def _verify(self, s: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.m.cli.main(["verify", "--trials", str(HARNESS_TRIALS), "--seed", str(s)])
        return rc, buf.getvalue()

    def warm_up(self) -> list:
        rc, text = self._verify(PINNED_VERIFY_SEED)
        pinned = check_report(rc, text, HARNESS_TRIALS, PINNED_VERIFY_SEED)
        if pinned[0] is None and hashlib.sha256(text.encode()).hexdigest() != PINNED_VERIFY_SHA256:
            pinned = ("report differs from the pinned report", pinned[1])
        # the first instances of the pool, not of a seeded pass, so that set-up
        # costs the same under every seed
        return [pinned] + [self.run_op(s) for s in self.op_seeds[:4]]

    def run_op(self, s):
        rc, text = self._verify(s)
        return check_report(rc, text, HARNESS_TRIALS, s)


def check_report(rc: int, text: str, trials: int, seed: int):
    """Re-check a `raag verify` report: exit code 0, one verified line per
    trial, and summary counts that agree with those lines."""
    tally = Counter()
    if rc != 0:
        return f"exit code {rc}", tally
    head = f"raag verification harness\ntrials: {trials}\nseed: {seed}\n"
    if not text.startswith(head):
        return "report header mismatch", tally
    lines = _TRIAL_RE.findall(text)
    if [int(i) for i, _, _ in lines] != list(range(1, trials + 1)):
        return "trial lines missing or out of order", tally
    if any(flag != "ok" for _, _, flag in lines):
        return "unverified trial", tally
    counts = {k: int(v) for k, v in _COUNT_RE.findall(text)}
    kinds = Counter(kind for _, kind, _ in lines)
    if (counts.get("embeddings"), counts.get("witnesses"), counts.get("certificates"),
            counts.get("errors"), counts.get("failed_invariants")) != (
            kinds["embedding"], kinds["witness"], kinds["certificate"], 0, 0):
        return "summary counts disagree with the trial lines", tally
    tally.update({"embedding": kinds["embedding"], "witness": kinds["witness"],
                  "certificate": kinds["certificate"], "peel_checked": counts["peel_checked_trials"]})
    return None, tally


# -- extract_long -------------------------------------------------------------------


# instance shapes, cycled so that every branch appears within a few operations:
# planted embedding, one-clique collapse on a 4-6 vertex anti-path (peel-checked
# witness), one-clique collapse behind a leading 3-vertex anti-path
# (certificate), and random compatible cliques (mixed outcomes)
SHAPES = ("plant", "peel", "cert", "random")
MIN_WORD, MAX_WORD = 20, 160


class ExtractLong(Workload):
    name = "extract_long"
    required = ("embedding", "witness", "certificate", "peel_checked")
    POOL = 800

    def __init__(self, seed: int):
        super().__init__()
        # the sizes (components, target, word lengths) follow one fixed
        # schedule, so every seed has the same mix of instance sizes; the seed
        # draws the content: target edges, cliques and letters
        plan, content = random.Random(0), random.Random(seed)
        self.specs = [
            self._instance(random.Random(plan.getrandbits(64)), random.Random(content.getrandbits(64)),
                           SHAPES[i % len(SHAPES)])
            for i in range(self.POOL)
        ]

    # instance generation (outside the timed loop)

    def _instance(self, plan: random.Random, rng: random.Random, shape: str):
        g = self.m.graphs
        if shape == "peel":
            sizes = [plan.randint(4, 6)] + _component_sizes(plan, plan.choice((0, 1)))
        elif shape == "cert":
            sizes = [3] + _component_sizes(plan, plan.choice((0, 1)))
        else:
            sizes = _component_sizes(plan, plan.choice((1, 2)))
        lam = _source(g, sizes)
        if shape == "plant":
            gamma, cliques = _blow_up(g, rng, lam, plan.randint(0, 3))
        else:
            gamma = _random_graph(g, rng, plan.randint(5, 9))
            if shape == "random":
                cliques = _compatible_cliques(rng, lam, gamma)
            else:
                shared = _maximal_clique(rng, gamma)
                cliques = {v: shared for v in lam.vertices}
        images = {v: _long_word(self.m.words, rng, gamma, cliques[v], plan.randint(MIN_WORD, MAX_WORD))
                  for v in lam.vertices}
        return self.m.embedding.HomSpec(lam, gamma, images)

    def describe_inputs(self) -> str:
        fmt = self.m.graphs.format_graph
        parts = []
        for h in self.specs:
            parts.append(fmt(h.source) + fmt(h.target))
            parts.extend(f"map {v} = {h.images[v]}\n" for v in h.source.vertices)
        return "".join(parts)

    def rounds(self):
        while True:
            for h in self.specs:
                yield [h]

    def run_op(self, h):
        return check_extraction(self.m, h, self.m.embedding.extract_full(h))


def check_extraction(m: Modules, h, outcome):
    """Independent re-check of one extraction result from public functions."""
    graphs, words = m.graphs, m.words
    kind = type(outcome).__name__
    tally = Counter()
    if kind == "FullEmbedding":
        tally["embedding"] += 1
        chk = graphs.verify_full_embedding(h.source, h.target, outcome.mapping)
        if not chk:
            return f"embedding rejected: {chk.violation}", tally
        supp = set().union(*(words.support(w) for w in h.images.values()))
        if any(x not in supp for x in outcome.mapping.values()):
            return "embedding leaves the image support", tally
        return None, tally
    if kind == "KernelWitness":
        tally["witness"] += 1
        tally["peel_checked"] += bool(outcome.peel_checked)
        if words.is_trivial(outcome.word):
            return "witness is trivial over the source", tally
        if not words.is_trivial(h.apply(outcome.word)):
            return "witness image is not trivial", tally
        return None, tally
    if kind == "StructuralCertificate":
        tally["certificate"] += 1
        comp = graphs.induced_subgraph(h.source, outcome.component)
        if len(comp) != 3 or graphs.recognize_linear_forest_complement(comp) is None:
            return "certificate component is not a 3-vertex anti-path", tally
        supp = set().union(*(words.support(h.images[v]) for v in outcome.component))
        if set(outcome.supp) != supp:
            return "certificate support differs from the component's image support", tally
        sub = graphs.induced_subgraph(h.target, outcome.supp)
        if graphs.full_embedding_search(comp, sub) is not None:
            return "certificate refuted: a full embedding into the support exists", tally
        # join factors of the support are the components of its complement
        for factor in graphs.join_decompose(sub).components:
            if factor.graph.edge_count():
                return "certificate refuted: a complement component is not complete", tally
        return None, tally
    return f"unexpected outcome type {kind}", tally


def _component_sizes(rng: random.Random, k: int) -> list[int]:
    return [rng.randint(1, 6) for _ in range(k)]


def _source(g, sizes: list[int]):
    parts = [g.path_complement(n, prefix=chr(ord("a") + c)) for c, n in enumerate(sizes)]
    if len(parts) == 1:
        return g.Graph("Lambda", parts[0].vertices, parts[0].edges())
    return g.graph_join(parts, name="Lambda")


def _random_graph(g, rng: random.Random, n: int, density: float = 0.5):
    names = [f"t{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return g.Graph("Gamma", names, edges)


def _blow_up(g, rng: random.Random, lam, n_noise: int):
    """A target holding an induced copy of lam in which every source vertex
    v becomes a two-vertex clique {x_v, y_v}, plus a few noise vertices, in
    shuffled order. The image of v is supported on its own clique."""
    verts, edges = [], []
    twins = {}
    for v in lam.vertices:
        twins[v] = (f"x{v}", f"y{v}")
        verts.extend(twins[v])
        edges.append(twins[v])
    for u, v in lam.edges():
        edges.extend((a, b) for a in twins[u] for b in twins[v])
    noise = [f"n{i}" for i in range(n_noise)]
    for z in noise:
        edges.extend((z, x) for x in verts if rng.random() < 0.5)
    verts.extend(noise)
    rng.shuffle(verts)
    cliques = {v: [x for x in twins[v] if rng.random() < 0.75] or [twins[v][0]] for v in lam.vertices}
    return g.Graph("Gamma", verts, edges), cliques


def _random_clique(rng: random.Random, closed: dict, allowed: set) -> list[str]:
    """A random clique inside ``allowed`` (closed[v] is v plus its neighbours)."""
    clique = []
    cands = sorted(allowed)
    while cands and (not clique or rng.random() < 0.6):
        x = rng.choice(cands)
        clique.append(x)
        cands = [v for v in cands if v != x and v in closed[x]]
    return clique


def _maximal_clique(rng: random.Random, gamma) -> list[str]:
    order = list(gamma.vertices)
    rng.shuffle(order)
    clique = []
    for v in order:
        if all(gamma.adjacent(v, u) for u in clique):
            clique.append(v)
    return clique


def _compatible_cliques(rng: random.Random, lam, gamma) -> dict:
    """Random cliques, one per source vertex in order, each inside the set of
    target vertices equal or adjacent to every clique already chosen for a
    source neighbour, so images of adjacent generators commute. Falls back to
    one shared maximal clique when that set runs empty."""
    closed = {v: set(gamma.neighbors(v)) | {v} for v in gamma.vertices}
    cliques: dict[str, list[str]] = {}
    for v in lam.vertices:
        allowed = set(gamma.vertices)
        for u in lam.neighbors(v):
            for y in cliques.get(u, ()):
                allowed &= closed[y]
        if not allowed:
            shared = _maximal_clique(rng, gamma)
            return {v: shared for v in lam.vertices}
        cliques[v] = _random_clique(rng, closed, allowed)
    return cliques


def _long_word(words, rng: random.Random, gamma, clique: list[str], length: int):
    """A raw word of about ``length`` letters over the clique in which every
    clique vertex has a nonzero exponent sum, so the support is the clique."""
    letters = rng.choices([(v, s) for v in clique for s in (1, -1)], k=length)
    sums = Counter()
    for v, s in letters:
        sums[v] += s
    for v in clique:
        if sums[v] == 0:
            letters.insert(rng.randint(0, len(letters)), (v, rng.choice((1, -1))))
    return words.Word(gamma, letters)


# -- ext_query ----------------------------------------------------------------------------


# (target graph, radius, source graph, full embedding exists, ball vertices, ball edges);
# answers and ball sizes are isomorphism invariants, pinned here
QUERIES = (
    ("C5", 1, "P8", True, 25, 35),
    ("C5", 1, "C4", False, 25, 35),
    ("C5", 1, "P5c", False, 25, 35),
    ("C5", 1, "C7", True, 25, 35),
    ("C5", 2, "C4", False, 145, 225),
    ("P4", 2, "P8", True, 76, 75),
    ("P4", 2, "C6", False, 76, 75),
    ("P4", 2, "P5c", False, 76, 75),
    ("P4", 2, "P7", True, 76, 75),
    ("P4", 2, "C7", False, 76, 75),
    ("P5c", 1, "P7", False, 21, 52),
    ("P5c", 1, "C6", False, 21, 52),
    ("P5c", 1, "P6", True, 21, 52),
    ("P5c", 1, "K3", True, 21, 52),
    ("P5c", 1, "C5", False, 21, 52),
    ("P5c", 2, "P6", True, 105, 482),
    ("P5c", 2, "K4", False, 105, 482),
    ("P5c", 2, "P6c", False, 105, 482),
    ("C4", 2, "P4", False, 36, 324),
    ("C4", 2, "P5", False, 36, 324),
    ("C4", 2, "P6", False, 36, 324),
    ("C4", 2, "C5", False, 36, 324),
    ("C6", 1, "C7", False, 42, 54),
)


class ExtQuery(Workload):
    name = "ext_query"
    required = ("found", "not_found")

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        # the seed renames the target vertices and orders each pass; it keeps
        # vertex insertion order, so every query costs the same under any seed
        self.targets = {}
        for name in sorted({q[0] for q in QUERIES}):
            base = _named_graph(self.m.graphs, name, "a")
            labels = rng.sample(range(100, 1000), len(base))
            mapping = {v: f"g{k}" for v, k in zip(base.vertices, labels)}
            self.targets[name] = self.m.graphs.Graph(
                name, [mapping[v] for v in base.vertices], [(mapping[u], mapping[v]) for u, v in base.edges()])
        self.sources = {q[2]: _named_graph(self.m.graphs, q[2], "x") for q in QUERIES}
        self.rng = random.Random(rng.getrandbits(64))
        self.passes = []

    def describe_inputs(self) -> str:
        fmt = self.m.graphs.format_graph
        return "".join(fmt(g) for g in self.targets.values()) + "".join(
            f"{q[0]} r={q[1]} {fmt(self.sources[q[2]])}" for q in QUERIES)

    def rounds(self):
        k = 0
        while True:
            if k == len(self.passes):
                order = list(QUERIES)
                self.rng.shuffle(order)
                self.passes.append(order)
            yield self.passes[k]
            k += 1

    def warm_up(self) -> list:
        # the first queries of the list, not of a seeded pass, so that set-up
        # costs the same under every seed
        return [self.run_op(q) for q in QUERIES[:4]]

    def run_op(self, q):
        gname, radius, lname, expect, nv, ne = q
        ext, graphs = self.m.extension, self.m.graphs
        lam = self.sources[lname]
        ball = ext.ext_ball(self.targets[gname], radius)
        bg = ext.ball_as_graph(ball)
        found = graphs.full_embedding_search(lam, bg)
        tally = Counter({"found" if found is not None else "not_found": 1})
        if (len(ball.vertices), len(ball.edges)) != (nv, ne):
            return f"ball of {gname} r={radius} has {len(ball.vertices)}/{len(ball.edges)} vertices/edges", tally
        if (found is not None) != expect:
            return f"{lname} into {gname} r={radius}: answer differs from the pinned answer", tally
        if found is not None and not graphs.verify_full_embedding(lam, bg, found):
            return f"{lname} into {gname} r={radius}: embedding rejected", tally
        return None, tally


def _named_graph(g, name: str, prefix: str):
    """C<n>: cycle, P<n>: path, P<n>c: complement of a path, K<n>: complete."""
    kind, n, comp = name[0], int(name[1:].rstrip("c")), name.endswith("c")
    if kind == "C":
        verts = [f"{prefix}{i}" for i in range(1, n + 1)]
        return g.Graph(name, verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])
    if kind == "K":
        return g.complete_graph(n, prefix=prefix, name=name)
    if comp:
        return g.path_complement(n, prefix=prefix, name=name)
    return g.path_graph(n, prefix=prefix, name=name)


WORKLOADS = {cls.name: cls for cls in (Harness, ExtractLong, ExtQuery)}
