"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced.
"""

import itertools
import random
import time

import pytest

from raag.embedding import (
    FullEmbedding,
    HomSpec,
    KernelWitness,
    extract_anti_path,
    extract_full,
    validate_hom,
)
from raag.extension import ext_ball
from raag.graphs import (
    Graph,
    complete_graph,
    graph_join,
    join_decompose,
    path_complement,
    verify_full_embedding,
)
from raag.harness import HarnessConfig, run_harness
from raag.words import (
    Word,
    canonical_form,
    commutator,
    commutes,
    is_trivial,
    parse_word,
    support,
)

from conftest import cycle_graph, iso_class_representatives
from reference import oracle_is_trivial


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def harness_500():
    start = time.monotonic()
    report = run_harness(HarnessConfig(trials=500, seed=42))
    return report, time.monotonic() - start


def test_criterion_1_word_problem_oracle_equivalence():
    start = time.monotonic()
    reps = iso_class_representatives(4)
    assert len(reps) == 11
    mismatches = 0
    inconclusive = 0
    for gi, g in enumerate(reps):
        rng = random.Random(1000 + gi)
        for _ in range(1000):
            length = rng.randint(0, 8)
            w = Word(g, [(rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(length)])
            verdict = oracle_is_trivial(w)
            if verdict is None:
                inconclusive += 1
            elif verdict != is_trivial(w):
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and inconclusive == 0 and elapsed < 300
    _report(
        1,
        "word-problem oracle equivalence",
        ok,
        f"11 classes x 1000 words, {mismatches} mismatches, "
        f"{inconclusive} inconclusive, {elapsed:.1f}s",
    )


def test_criterion_2_canonical_form_stability():
    rng = random.Random(20_000)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(1, 5)
        verts = [chr(ord("a") + i) for i in range(n)]
        edges = [
            (verts[i], verts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph("g", verts, edges)
        length = rng.randint(0, 10)
        letters = [(rng.choice(verts), rng.choice((1, -1))) for _ in range(length)]
        w = Word(g, letters)
        shuffled = list(letters)
        for _ in range(rng.randint(0, 20)):
            if len(shuffled) < 2:
                break
            k = rng.randrange(len(shuffled) - 1)
            (v1, _), (v2, _) = shuffled[k], shuffled[k + 1]
            if v1 != v2 and g.adjacent(v1, v2):
                shuffled[k], shuffled[k + 1] = shuffled[k + 1], shuffled[k]
        if canonical_form(w) != canonical_form(Word(g, shuffled)):
            failures += 1
    _report(2, "canonical-form stability", failures == 0, f"10000 pairs, {failures} failures")


def _is_canonical(w):
    return canonical_form(w).word.letters == w.letters


def test_criterion_3_clique_commutation_consistency():
    # commutes decides every pair with a clique-supported side by the
    # centralizer theorem; the reduced commutator is the independent reference
    disagreements = 0
    pairs_checked = 0
    for n in range(1, 5):
        for g in iso_class_representatives(n):
            clique_words, other_words = [], []
            alphabet = [(v, s) for v in g.vertices for s in (1, -1)]
            for length in range(0, 4):
                for combo in itertools.product(alphabet, repeat=length):
                    w = Word(g, combo)
                    (clique_words if g.spans_clique(support(w)) else other_words).append(w)
            pairs = [
                (clique_words[i], clique_words[j])
                for i in range(len(clique_words))
                for j in range(i, len(clique_words))
            ]
            # one word per element on the mixed side: commutes decides these
            # pairs from the reduced supports alone
            canonical = [[w for w in ws if _is_canonical(w)] for ws in (clique_words, other_words)]
            pairs += list(itertools.product(*canonical))
            for a, b in pairs:
                pairs_checked += 1
                if commutes(a, b) != is_trivial(commutator(a, b)):
                    disagreements += 1
    _report(
        3,
        "clique commutation consistency",
        disagreements == 0,
        f"{pairs_checked} pairs with a clique-supported side, {disagreements} disagreements",
    )


def test_criterion_4_dichotomy_harness(harness_500):
    report, elapsed = harness_500
    outcomes_ok = all(
        r.outcome in ("embedding", "witness", "certificate") and r.verified
        for r in report.results
    )
    ok = (
        len(report.results) == 500
        and outcomes_ok
        and not report.failed_invariants
        and elapsed < 600
    )
    _report(
        4,
        "extraction dichotomy over 500 seeded trials",
        ok,
        f"embeddings={report.count('embedding')} witnesses={report.count('witness')} "
        f"certificates={report.count('certificate')} errors={report.count('error')} "
        f"failed={len(report.failed_invariants)} {elapsed:.1f}s",
    )


def test_criterion_5_peel_mechanism(harness_500):
    report, _ = harness_500
    # every witness branch with n >= 4 runs the reach-set and peeling
    # checks inside extract_full; a failure would surface as a trial error
    peel_failures = [m for m in report.failed_invariants]
    harness_ok = report.peel_checked_trials > 0 and not peel_failures

    # forced synthetic instances exercising the same mechanism directly
    synthetic_ok = True
    t1 = complete_graph(3, prefix="t")
    for n in (4, 5):
        lam = path_complement(n)
        h = HomSpec(
            lam,
            t1,
            {v: Word(t1, [("t1", 1)] * (i + 1)) for i, v in enumerate(lam.vertices)},
        )
        out = extract_anti_path(h)
        synthetic_ok &= isinstance(out, KernelWitness) and out.peel_checked and out.check(h) is None
    t2 = Graph(
        "t",
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("c", "d")],
    )
    lam = path_complement(4)
    h = HomSpec(
        lam,
        t2,
        {
            "v1": parse_word(t2, "d"),
            "v2": parse_word(t2, "b a b"),
            "v3": parse_word(t2, "a"),
            "v4": parse_word(t2, "c"),
        },
    )
    out = extract_anti_path(h)
    synthetic_ok &= isinstance(out, KernelWitness) and out.peel_checked and out.check(h) is None

    _report(
        5,
        "peel mechanism verification",
        harness_ok and synthetic_ok,
        f"{report.peel_checked_trials} harness trials peel-checked, "
        f"{len(peel_failures)} failures, synthetic={'ok' if synthetic_ok else 'FAIL'}",
    )


def test_criterion_6_extension_ball_sanity():
    start = time.monotonic()
    checked = 0
    bad = 0
    for n in range(1, 6):
        verts = [chr(ord("a") + i) for i in range(n)]
        pairs = list(itertools.combinations(verts, 2))
        for mask in range(1 << len(pairs)):
            g = Graph("g", verts, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
            ball = ext_ball(g, 0)
            checked += 1
            if [x.base for x in ball.vertices] != list(g.vertices):
                bad += 1
                continue
            for i in range(n):
                for j in range(i + 1, n):
                    if ball.adjacent(i, j) != g.adjacent(verts[i], verts[j]):
                        bad += 1
    free2 = Graph("free2", ["a", "b"])
    ball = ext_ball(free2, 1)
    six_ok = len(ball.vertices) == 6
    oracle_ok = True
    for i in range(len(ball.vertices)):
        for j in range(i + 1, len(ball.vertices)):
            verdict = oracle_is_trivial(
                commutator(ball.vertices[i].element.word, ball.vertices[j].element.word)
            )
            if verdict is None or ball.adjacent(i, j) != verdict:
                oracle_ok = False
    elapsed = time.monotonic() - start
    ok = bad == 0 and six_ok and oracle_ok and elapsed < 60
    _report(
        6,
        "extension ball sanity",
        ok,
        f"{checked} radius-0 balls, free-pair radius-1 vertices={len(ball.vertices)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_join_decomposition_oracle():
    rng = random.Random(7_777)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        verts = [chr(ord("a") + i) for i in range(n)]
        edges = [
            (verts[i], verts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < rng.random()
        ]
        g = Graph("g", verts, edges)
        comp_adj = {
            v: {u for u in verts if u != v and not g.adjacent(u, v)} for v in verts
        }
        seen = set()
        oracle = []
        for v in verts:
            if v in seen:
                continue
            comp = {v}
            frontier = [v]
            while frontier:
                x = frontier.pop()
                for y in comp_adj[x]:
                    if y not in comp:
                        comp.add(y)
                        frontier.append(y)
            seen |= comp
            oracle.append(tuple(u for u in verts if u in comp))
        got = [c.graph.vertices for c in join_decompose(g).components]
        if got != oracle:
            mismatches += 1
    _report(7, "join decomposition vs complement-BFS oracle", mismatches == 0,
            f"200 graphs, {mismatches} mismatches")


def test_criterion_8_end_to_end_smoke():
    sources = {
        "P2c": path_complement(2),
        "P4c": path_complement(4),
        "C4": cycle_graph(4),
        "K2*P4c": graph_join([complete_graph(2, prefix="u"), path_complement(4)], name="lam"),
    }
    problems = []
    for label, lam in sources.items():
        # identity-style table into a target containing lam
        target = graph_join(
            [Graph(lam.name, lam.vertices, lam.edges()), complete_graph(2, prefix="pad")],
            name="padded",
        )
        identity = HomSpec(lam, target, {v: Word(target, [(v, 1)]) for v in lam.vertices})
        out = extract_full(identity)
        if not isinstance(out, FullEmbedding):
            problems.append(f"{label}: identity produced {type(out).__name__}")
            continue
        if not verify_full_embedding(lam, target, out.mapping):
            problems.append(f"{label}: identity embedding failed verification")
        # collapsed table: all generators to powers of one target generator
        collapsed = HomSpec(
            lam,
            target,
            {v: Word(target, [("pad1", 1)] * (i + 1)) for i, v in enumerate(lam.vertices)},
        )
        assert validate_hom(collapsed).is_homomorphism
        out = extract_full(collapsed)
        if not isinstance(out, KernelWitness):
            problems.append(f"{label}: collapse produced {type(out).__name__}")
            continue
        if out.check(collapsed) is not None or is_trivial(out.word) or not is_trivial(collapsed.apply(out.word)):
            problems.append(f"{label}: collapse witness failed re-verification")
    _report(8, "end-to-end smoke", not problems, "; ".join(problems) or "4 sources, both branches")
