"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibration  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert cls(5).describe_inputs().encode() == cls(5).describe_inputs().encode()
    if name != "ext_query":  # ext_query's seed only renames vertices and orders passes
        assert cls(5).describe_inputs() != cls(6).describe_inputs()


def test_tracer_restores_all_bindings():
    import raag.cli  # noqa: F401

    before = {(m.__name__, attr): val for m in tracing.raag_modules() for attr, val in vars(m).items()}
    tr = tracing.Tracer()
    tr.install()
    try:
        # commutes is imported by name into several modules; all are rebound
        for mod in ("raag.words", "raag.embedding", "raag.extension", "raag.cli"):
            assert getattr(sys.modules[mod].commutes, "__perfbench_traced__", False)
        assert getattr(sys.modules["raag._kernel"].normalize, "__perfbench_traced__", False)
        wl = workloads.ExtractLong(3)
        res = run.measure(wl, 0, tracer=tr, rounds=4)
    finally:
        tr.restore()
    assert not res["problems"]
    assert tr.calls[tr.labels.index("embedding.extract_full")] == 4
    assert tr.calls[tr.labels.index("kernel.normalize")] > 0
    assert tracing.leftover_wrappers() == []
    after = {(m.__name__, attr): val for m in tracing.raag_modules() for attr, val in vars(m).items()}
    assert all(after[key] is val for key, val in before.items())


def test_self_times_exclude_children():
    tr = tracing.Tracer()
    tr.install()
    try:
        run.measure(workloads.ExtractLong(4), 0, tracer=tr, rounds=8)
    finally:
        tr.restore()
    op = tr.labels.index("op")
    # every traced self time is non-negative and all of them add up to the
    # inclusive time of the root operation spans
    assert min(tr.self_ns) >= 0
    assert sum(tr.self_ns) == tr.inclusive_ns[op]


def test_corrupted_witness_counts_as_failure(monkeypatch):
    wl = workloads.ExtractLong(7)
    embedding = wl.m.embedding
    real = embedding.extract_full

    def corrupted(h, *args, **kwargs):
        out = real(h, *args, **kwargs)
        if type(out).__name__ == "KernelWitness":
            # a nontrivial source word whose image is not trivial
            gen = wl.m.words.Word(h.source, [(h.source.vertices[0], 1)])
            out = embedding.KernelWitness(gen, True, True, component=out.component)
        return out

    monkeypatch.setattr(embedding, "extract_full", corrupted)
    res = run.measure(wl, 0, rounds=8)
    witnesses = res["tally"]["witness"]
    assert witnesses > 0
    assert len(res["problems"]) == witnesses
    assert all("witness image is not trivial" in p for p in res["problems"])


def test_lost_branch_is_a_problem():
    wl = workloads.ExtractLong(1)
    assert run.coverage_problems(wl, Counter(embedding=3, witness=2, peel_checked=1, certificate=1)) == []
    assert run.coverage_problems(wl, Counter(embedding=3, witness=2, peel_checked=1)) == [
        "workload lost its 'certificate' branch"]


def test_calibration_uses_the_samples_around_an_interval():
    clock = calibration.HostClock()
    nominal, every = calibration.REF_NOMINAL_S, calibration.CAL_EVERY_S
    # a fast stretch, then a stretch twice as slow
    clock.at = [i * every for i in range(8)]
    clock.ref_s = [nominal] * 4 + [2 * nominal] * 4
    assert clock.factor(0.5 * every, 0.6 * every) == pytest.approx(1.0)
    assert clock.factor(6.5 * every, 6.6 * every) == pytest.approx(0.5)
    # an interval spanning both stretches gets the mean of the samples it spans
    assert clock.factor(3.5 * every, 3.6 * every) == pytest.approx(1 / 1.5)
    # far from every sample: the nearest one
    assert clock.factor(100.0, 100.1) == pytest.approx(0.5)
    assert clock.speed() == pytest.approx(1 / 1.5)


def test_measure_calibrates_every_latency():
    clock = calibration.HostClock()
    res = run.measure(workloads.ExtractLong(2), 0, rounds=3, clock=clock)
    assert len(res["calibrated"]) == len(res["latencies"]) == 3
    assert len(clock.ref_s) >= 2  # before and after the operations
    lo, hi = (calibration.REF_NOMINAL_S / t for t in (max(clock.ref_s), min(clock.ref_s)))
    for raw, cal in zip(res["latencies"], res["calibrated"]):
        assert lo * (1 - 1e-9) <= cal / raw <= hi * (1 + 1e-9)


def test_tail_percentile_has_ten_samples_beyond():
    assert run.tail([1.0] * 99)[0] == 50.0
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(101)))[1] == pytest.approx(90.0)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _bench("--workload", "ext_query", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "harness", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
