import hashlib
import random
import re

import pytest
from hypothesis import given, settings

from raag.embedding import FullEmbedding, HomSpec, KernelWitness, extract_full, validate_hom
from raag.harness import (
    _IMAGE_ATTEMPTS,
    HarnessConfig,
    HarnessReport,
    _below,
    _maximal_clique,
    _random_clique,
    _random_graph,
    _random_hom,
    _random_source,
    _random_word_over,
    _relators_hold,
    _tables,
    run_harness,
)
from raag.words import Word, _support_mask

from conftest import SEEDS, drawn_graphs, random_graph


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        run_harness(HarnessConfig(trials=0, seed=1))
    with pytest.raises(ValueError):
        run_harness(HarnessConfig(trials=1, seed=1, edge_density=1.5))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_harness(HarnessConfig(trials=1, seed=-5))
    with pytest.raises(ValueError, match="max target vertices must be >= 1"):
        run_harness(HarnessConfig(trials=1, seed=1, max_target_vertices=0))
    for sizes in ((), (2, 0), (-1,), "12", 5, None, {1: 2}):
        with pytest.raises(ValueError, match="component sizes must be a non-empty list of sizes >= 1"):
            run_harness(HarnessConfig(trials=1, seed=1, component_sizes=sizes))


@pytest.mark.parametrize("changes, name", [({"trials": True}, "trials"), ({"seed": 1.5}, "seed"),
                                           ({"max_target_vertices": 2.5}, "max target vertices"),
                                           ({"component_sizes": (2, 1.0)}, "component sizes"),
                                           ({"component_sizes": ("a",)}, "component sizes"),
                                           ({"component_sizes": (None,)}, "component sizes"),
                                           ({"component_sizes": [3, True]}, "component sizes")])
def test_rejects_non_integer_counts(changes, name):
    # trials=True ran one trial reported as "trials: True", and
    # max_target_vertices=2.5 failed inside random
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not "):
        run_harness(HarnessConfig(**{"trials": 1, "seed": 1, **changes}))


@pytest.mark.parametrize("density", [True, "0.5", None, 1j])
def test_rejects_an_edge_density_that_is_not_a_number(density):
    # edge_density=True ran and printed "edge_density: True", and "0.5"
    # failed inside the range check
    with pytest.raises(ValueError, match=f"^edge density must be a number, not {re.escape(repr(density))}$"):
        run_harness(HarnessConfig(trials=1, seed=1, edge_density=density))


def test_accepts_an_integer_edge_density():
    assert "edge_density: 1\n" in run_harness(HarnessConfig(trials=1, seed=1, edge_density=1)).format()


def test_same_seed_same_report():
    cfg = HarnessConfig(trials=40, seed=123)
    assert run_harness(cfg).format() == run_harness(cfg).format()


def test_different_seeds_differ():
    a = run_harness(HarnessConfig(trials=40, seed=1)).format()
    b = run_harness(HarnessConfig(trials=40, seed=2)).format()
    assert a != b


def test_default_config_runs_clean():
    report = run_harness(HarnessConfig(trials=120, seed=7))
    assert report.clean
    assert report.count("error") == 0
    assert not report.failed_invariants
    assert report.count("embedding") + report.count("witness") + report.count("certificate") == 120
    # both branches of the dichotomy show up at this scale
    assert report.count("embedding") > 0
    assert report.count("witness") > 0


def test_every_outcome_reverified():
    report = run_harness(HarnessConfig(trials=80, seed=99))
    assert all(r.verified for r in report.results)


def test_three_vertex_components_produce_certificates():
    report = run_harness(HarnessConfig(trials=120, seed=11, component_sizes=(3,)))
    assert report.clean
    assert report.count("certificate") > 0
    assert report.count("embedding") > 0
    # 3-vertex components never take the witness branch on their own, but a
    # generator collapsed to the identity still yields a one-letter witness
    for r in report.results:
        if r.outcome == "witness":
            assert r.detail == "len=1"


def test_peel_checks_happen_and_pass():
    report = run_harness(HarnessConfig(trials=200, seed=42))
    assert report.peel_checked_trials > 0
    assert report.clean


def test_report_format_shape():
    report = run_harness(HarnessConfig(trials=3, seed=5))
    text = report.format()
    assert text.startswith("raag verification harness\ntrials: 3\nseed: 5\n")
    assert "failed_invariants: 0" in text
    assert isinstance(report, HarnessReport)


def _failing_extraction(monkeypatch):
    """Makes the harness's extract_full raise on the first trial and return
    a witness of the empty word, which check(h) rejects, on the second; the
    later trials extract as usual."""
    calls = []

    def extract(h):
        calls.append(h)
        if len(calls) == 1:
            raise RuntimeError("boom")
        if len(calls) == 2:
            return KernelWitness(Word(h.source, []), True, True)
        return extract_full(h)

    monkeypatch.setattr("raag.harness.extract_full", extract)


def test_extraction_errors_and_failed_checks_are_reported(monkeypatch, capsys):
    from raag.cli import main

    _failing_extraction(monkeypatch)
    report = run_harness(HarnessConfig(trials=3, seed=5))
    lines = report.format().splitlines()
    assert lines[6] == "trial 1: error UNVERIFIED RuntimeError('boom')"
    assert lines[7] == "trial 2: witness UNVERIFIED len=0"
    assert lines[8] == "trial 3: witness ok len=1"
    assert "errors: 1" in lines and "failed_invariants: 2" in lines
    assert lines[-2:] == [
        "failed: trial 1: extraction error: RuntimeError('boom')",
        "failed: trial 2: witness word is trivial over the source",
    ]
    assert not report.clean
    _failing_extraction(monkeypatch)
    assert main(["verify", "--trials", "3", "--seed", "5"]) == 1
    assert capsys.readouterr().out == report.format()


def test_report_pinned_across_commits():
    # any change to instance generation, extraction or re-checking that moves
    # a single byte of the report changes this digest
    report = run_harness(HarnessConfig(trials=40, seed=11, component_sizes=(1, 2, 3, 4, 5)))
    assert (report.count("embedding"), report.count("witness"), report.count("certificate")) == (8, 28, 4)
    assert report.peel_checked_trials == 6
    digest = hashlib.sha256(report.format().encode()).hexdigest()
    assert digest == "4e9c898acb3c01f2eeea8ee2b49ad1d3838b1150cce20ea8db601ef93198b6e4"


def _outcome_line(h, outcome):
    """A canonical dump of one extraction outcome: the embedding's mapping
    in source order, the witness's codes, component and peel flag, or every
    field of the certificate."""
    if isinstance(outcome, FullEmbedding):
        return "embedding " + " ".join(outcome.mapping[v] for v in h.source.vertices)
    if isinstance(outcome, KernelWitness):
        return f"witness {outcome.word.codes()!r} {outcome.component!r} {outcome.peel_checked}"
    return f"certificate {outcome.component!r} {outcome.supp!r} {outcome.complement_components!r}"


def test_outcomes_pinned_across_commits():
    # the pinned reports print only sizes; this digest covers the outcomes
    # themselves, on the instances run_harness draws for this configuration
    cfg = HarnessConfig(500, 42, component_sizes=(1, 2, 3, 4, 5, 6))
    master = random.Random(cfg.seed)
    lines = []
    for _ in range(cfg.trials):
        rng = random.Random(master.getrandbits(64))
        gamma = _random_graph(rng, cfg.max_target_vertices, cfg.edge_density)
        lam = _random_source(rng, cfg.component_sizes)
        h = _random_hom(rng, lam, gamma)
        lines.append(_outcome_line(h, extract_full(h)))
    kinds = [line.split(" ", 1)[0] for line in lines]
    assert (kinds.count("embedding"), kinds.count("witness"), kinds.count("certificate")) == (67, 397, 36)
    assert sum(line.startswith("witness") and line.endswith(" True") for line in lines) == 62
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e9c64aba59779b2133137d1817ab461747090c9b44eb5b6c2123633fa0075fc2"


def _reference_random_clique(rng, g):
    """The clique draw that rescans every vertex against the whole clique
    at each step; _random_clique must consume rng call for call like it."""
    clique = [rng.choice(g.vertices)]
    while True:
        candidates = [
            v for v in g.vertices
            if v not in clique and all(g.adjacent(v, u) for u in clique)
        ]
        if not candidates or rng.random() >= 0.7:
            return clique
        clique.append(rng.choice(candidates))


def test_random_clique_draws_like_the_reference():
    graphs = random.Random(2024)
    sizes = set()
    for trial in range(300):
        g = random_graph(graphs, graphs.randint(1, 9), graphs.random(), prefix="t")
        ours, ref = random.Random(trial), random.Random(trial)
        for _ in range(5):
            clique = [g.vertices[c - 1] for c in _random_clique(ours, _tables(g))]
            assert clique == _reference_random_clique(ref, g)
            assert ours.getstate() == ref.getstate()
            sizes.add(len(clique))
    assert {1, 2, 3} <= sizes


def _reference_maximal_clique(rng, g):
    clique = [rng.choice(g.vertices)]
    order = list(g.vertices)
    rng.shuffle(order)
    for v in order:
        if v not in clique and all(g.adjacent(v, u) for u in clique):
            clique.append(v)
    return clique


def _reference_random_word_over(rng, g, clique):
    length = rng.randint(1, 4)
    return Word(g, [(rng.choice(clique), rng.choice((1, -1))) for _ in range(length)])


def _reference_random_hom(rng, lam, gamma):
    """The name-based generator that rejects a table by validate_hom; the
    code-based _random_hom must draw the same tables call for call. Also
    says whether the shared-clique fallback was taken."""
    for _ in range(_IMAGE_ATTEMPTS):
        images = {
            v: _reference_random_word_over(rng, gamma, _reference_random_clique(rng, gamma))
            for v in lam.vertices
        }
        h = HomSpec(lam, gamma, images)
        if validate_hom(h).is_homomorphism:
            return h, False
    shared = _reference_maximal_clique(rng, gamma)
    images = {v: _reference_random_word_over(rng, gamma, shared) for v in lam.vertices}
    return HomSpec(lam, gamma, images), True


def test_random_hom_draws_like_the_reference():
    instances = random.Random(77)
    fallbacks = dict.fromkeys((0.0, 0.2, 0.5, 0.8, 1.0), 0)
    for density in fallbacks:
        for trial in range(80):
            gamma = _random_graph(instances, 8, density)
            lam = _random_source(instances, (1, 2, 3, 4, 5, 6))
            seed = instances.getrandbits(32)
            ours, ref = random.Random(seed), random.Random(seed)
            h = _random_hom(ours, lam, gamma)
            expected, fell_back = _reference_random_hom(ref, lam, gamma)
            assert {v: w.codes() for v, w in h.images.items()} == {
                v: w.codes() for v, w in expected.images.items()
            }
            assert ours.getstate() == ref.getstate()
            fallbacks[density] += fell_back
    # over single-vertex cliques the fallback is reached; over one clique never
    assert fallbacks[0.0] >= 10 and fallbacks[1.0] == 0


@settings(max_examples=300, deadline=None)
@given(gamma=drawn_graphs(1, 7, "t"), lam=drawn_graphs(1, 6, "s"), seed=SEEDS)
def test_relator_rule_matches_validate_hom(gamma, lam, seed):
    # clique-supported tables, some images cancelled in part or to the
    # identity by inverse letters shuffled in
    rng = random.Random(seed)
    t = _tables(gamma)
    words = []
    for _ in lam.vertices:
        w, _ = _random_word_over(rng, _random_clique(rng, t))
        if rng.random() < 0.5:
            w += [-c for c in w if rng.random() < 0.7]
            rng.shuffle(w)
        words.append(tuple(w))
    h = HomSpec(lam, gamma, {v: Word._from_codes(gamma, w) for v, w in zip(lam.vertices, words)})
    edges = [(lam.index(u), lam.index(v)) for u, v in lam.edges()]
    supp = [_support_mask(h.images[v]) for v in lam.vertices]
    assert _relators_hold(edges, supp, gamma) == validate_hom(h).is_homomorphism


@settings(max_examples=200, deadline=None)
@given(gamma=drawn_graphs(1, 8, "t"), seed=SEEDS)
def test_drawn_support_mask_is_the_reduced_support(gamma, seed):
    # the mask the draw loop sums up is the reduced support of the word it
    # draws, over random cliques and over maximal ones
    rng = random.Random(seed)
    t = _tables(gamma)
    for clique in [_random_clique(rng, t) for _ in range(4)] + [_maximal_clique(rng, t)]:
        for _ in range(4):
            w, mask = _random_word_over(rng, clique)
            assert 1 <= len(w) <= 4 and {abs(c) for c in w} <= set(clique)
            assert mask == _support_mask(Word._from_codes(gamma, tuple(w)))


def test_below_draws_like_randrange():
    # _below reads the running interpreter's rejection rule off getrandbits;
    # a Python whose randrange drew differently would fail here first
    for seed in range(6):
        for n in [*range(1, 65), 2**32 - 1, 2**32, 2**32 + 1]:
            ours, ref = random.Random(seed * 1000 + n), random.Random(seed * 1000 + n)
            for _ in range(8):
                assert _below(ours.getrandbits, n) == ref.randrange(n)
            assert ours.getstate() == ref.getstate()


def test_below_an_empty_range_raises():
    # getrandbits(0) returns 0 for ever, which no rejection loop escapes, so
    # an empty range must be refused before any bits are drawn
    def bits(k):
        raise AssertionError(f"drew {k} bits for an empty range")

    for n in (0, -1):
        with pytest.raises(IndexError):
            _below(bits, n)
