import hashlib
import random

import pytest

from raag.harness import HarnessConfig, HarnessReport, _random_clique, run_harness

from conftest import random_graph


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        run_harness(HarnessConfig(trials=0, seed=1))
    with pytest.raises(ValueError):
        run_harness(HarnessConfig(trials=1, seed=1, edge_density=1.5))
    with pytest.raises(ValueError, match="max target vertices must be >= 1"):
        run_harness(HarnessConfig(trials=1, seed=1, max_target_vertices=0))
    for sizes in ((), (2, 0), (-1,)):
        with pytest.raises(ValueError, match="component sizes must be a non-empty list of sizes >= 1"):
            run_harness(HarnessConfig(trials=1, seed=1, component_sizes=sizes))


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


def test_report_pinned_across_commits():
    # any change to instance generation, extraction or re-checking that moves
    # a single byte of the report changes this digest
    report = run_harness(HarnessConfig(trials=40, seed=11, component_sizes=(1, 2, 3, 4, 5)))
    assert (report.count("embedding"), report.count("witness"), report.count("certificate")) == (8, 28, 4)
    assert report.peel_checked_trials == 6
    digest = hashlib.sha256(report.format().encode()).hexdigest()
    assert digest == "4e9c898acb3c01f2eeea8ee2b49ad1d3838b1150cce20ea8db601ef93198b6e4"


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
            clique = _random_clique(ours, g)
            assert clique == _reference_random_clique(ref, g)
            assert ours.getstate() == ref.getstate()
            sizes.add(len(clique))
    assert {1, 2, 3} <= sizes
