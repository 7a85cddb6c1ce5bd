"""Layered benchmark for raag.

Runs one workload in a closed loop (one client, one process, each operation
sent after the previous one returns) and prints human-readable lines followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced, with every time scaled to a nominal host speed (see
``calibration.py``). With ``--trace 1`` the run first measures untraced for a
third of ``--seconds``, then replays the same operations with every public
function of the raag modules traced, and reports the per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload extract_long --seed 1 --seconds 10 --trace 0

The benchmark imports raag from ``src/`` next to this directory and refuses to
run without it. Numbers are comparable only between runs with the same
``kernel_impl`` (printed with every result).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

import tracer as tracing
from calibration import REF_NOMINAL_S, HostClock
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TRACE_UNTRACED_SHARE = 1 / 3


def _import_raag():
    """(Re-)import raag from the checkout's src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "raag" or n.startswith("raag.")]:
        del sys.modules[name]
    raag = importlib.import_module("raag")
    where = os.path.dirname(os.path.abspath(raag.__file__))
    if where != os.path.join(SRC, "raag"):
        raise SystemExit(f"raag was imported from {where}, not from {SRC}")


def set_up(workload_cls, seed: int, clock: HostClock):
    """Import raag, generate the inputs and warm up; returns the workload,
    the warm-up results and the elapsed time, raw and calibrated."""
    clock.sample()
    t0 = time.perf_counter()
    _import_raag()
    wl = workload_cls(seed)
    warm = wl.warm_up()
    t1 = time.perf_counter()
    clock.sample()
    return wl, warm, t1 - t0, (t1 - t0) * clock.factor(t0, t1)


def measure(wl, seconds: float, tracer=None, rounds: int | None = None, clock: HostClock | None = None):
    """Run rounds of operations; either a fixed number of rounds, or rounds
    for as long as the next one is expected to end within ``seconds``. With a
    ``clock``, reference samples are taken before, between and after the
    operations, and the result also holds the calibrated latencies."""
    latencies: list[float] = []
    op_starts: list[float] = []
    problems: list[str] = []
    tally: Counter = Counter()
    if clock is not None:
        clock.sample()
    start = time.perf_counter()
    last = 0.0
    done = 0
    for rnd in wl.rounds():
        now = time.perf_counter() - start
        if rounds is not None:
            if done == rounds:
                break
        elif done and now + last > seconds:
            break
        r0 = time.perf_counter()
        for item in rnd:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    problem, got = wl.run_op(item)
                else:
                    problem, got = tracer.op(len(latencies) + 1, wl.run_op, item)
            except Exception as exc:  # an operation that raises is a failed operation
                problem, got = f"raised {exc!r}", Counter()
            latencies.append(time.perf_counter() - t0)
            op_starts.append(t0)
            tally.update(got)
            if problem is not None:
                problems.append(problem)
            if clock is not None and clock.due():
                clock.sample()
        last = time.perf_counter() - r0
        done += 1
    wall = time.perf_counter() - start
    out = {"wall": wall, "latencies": latencies, "problems": problems, "tally": tally, "rounds": done}
    if clock is not None:
        clock.sample()
        out["calibrated"] = [lat * clock.factor(t0, t0 + lat) for t0, lat in zip(op_starts, latencies)]
    return out


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100 * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(latencies: list[float]):
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(latencies)
    p = next((q for q in TAIL_LADDER if n * (100 - q) >= 1000 - 1e-6), TAIL_LADDER[-1])
    return p, percentile(sorted(latencies), p)


def coverage_problems(wl, tally: Counter) -> list[str]:
    return [f"workload lost its {kind!r} branch" for kind in wl.required if not tally[kind]]


def end_to_end(run, setup_s: float) -> dict:
    """End-to-end metrics from calibrated times; ops_per_s counts operations
    per calibrated second spent in them."""
    lat = run["calibrated"]
    p, tail_s = tail(lat)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, p


def per_layer(tracer, untraced_wall: float, traced_wall: float) -> dict:
    out = {}
    idx = {label: i for i, label in enumerate(tracer.labels)}
    for layer, (_, fns) in tracing.LAYERS.items():
        for fn in fns:
            i = idx[f"{layer}.{fn}"]
            out[f"{layer}.{fn}.calls"] = (tracer.calls[i], "count")
            out[f"{layer}.{fn}.self_s"] = (tracer.self_ns[i] / 1e9, "s")
    c = tracer.counters.get

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(label):
        return tracer.calls[idx[label]]

    letters_in = c("kernel.normalize.letters_in", 0)
    out["kernel.normalize.letters_in"] = (letters_in, "letters")
    out["kernel.normalize.letters_out"] = (c("kernel.normalize.letters_out", 0), "letters")
    out["kernel.normalize.ns_per_letter"] = (ratio(tracer.self_ns[idx["kernel.normalize"]], letters_in), "ns/letter")
    out["words.reduce.letters_in"] = (c("words.reduce.letters_in", 0), "letters")
    out["words.commutes.clique_supported_share"] = (
        ratio(c("words.commutes.clique_supported", 0), calls("words.commutes")), "ratio")
    out["words.is_reduced.true_ratio"] = (ratio(c("words.is_reduced.true", 0), calls("words.is_reduced")), "ratio")
    out["graphs.full_embedding_search.found_ratio"] = (
        ratio(c("graphs.full_embedding_search.found", 0), calls("graphs.full_embedding_search")), "ratio")
    out["extension.ext_ball.vertices"] = (c("extension.ext_ball.vertices", 0), "count")
    out["extension.ext_ball.edges"] = (c("extension.ext_ball.edges", 0), "count")
    out["extension.ext_vertex.unique_ratio"] = (
        ratio(c("extension.ext_vertex.unique", 0), calls("extension.ext_vertex")), "ratio")
    out["embedding.sequence_search.found_ratio"] = (
        ratio(c("embedding.sequence_search.found", 0), calls("embedding.sequence_search")), "ratio")
    for kind in ("embedding", "witness", "certificate", "peel_checked"):
        out[f"embedding.outcome.{kind}"] = (c(f"embedding.outcome.{kind}", 0), "count")
    out["harness.gen_validate_s"] = (tracer.gen_validate_ns / 1e9, "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "raag", "__init__.py")):
        print(f"error: no raag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    clock = HostClock()
    setups, raw_setups, digests, warm, wl = [], [], set(), [], None
    for _ in range(SETUP_REPEATS):
        wl = None  # release the previous inputs before building new ones
        wl, warmed, raw, calibrated = set_up(WORKLOADS[args.workload], args.seed, clock)
        raw_setups.append(raw)
        setups.append(calibrated)
        digests.add(wl.inputs_digest())
        warm.extend(p for p, _ in warmed)
    setup_s = statistics.median(setups)
    setup_speed = clock.speed()
    from raag import _kernel

    kernel_impl = _kernel.kernel_name()
    problems = [p for p in warm if p is not None]
    if len(digests) != 1:
        problems.append("the same seed generated different inputs")
    leftover = tracing.leftover_wrappers()
    if leftover:
        problems.append(f"untraced run sees traced bindings: {leftover[:3]}")

    print(f"workload: {args.workload}  seed: {args.seed}  kernel_impl: {kernel_impl}  "
          f"trace: {args.trace}  inputs_sha256: {digests.pop()[:16]}")
    budget = args.seconds * (TRACE_UNTRACED_SHARE if args.trace else 1)
    run = measure(wl, budget, clock=None if args.trace else clock)
    runs = [run]
    notes = {}
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, budget, tracer=tr, rounds=run["rounds"])
        finally:
            tr.restore()
        runs.append(traced)
        leftover = tracing.leftover_wrappers()
        if leftover:
            problems.append(f"tracer left bindings behind: {leftover[:3]}")
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.tsv.gz")
        tr.write_spans(spans_path)
        print(f"spans: {tr.span_count()} written to {os.path.relpath(spans_path, ROOT)}"
              f" ({tr.dropped_spans} more counted but not kept)")
        metrics = per_layer(tr, run["wall"], traced["wall"])
    else:
        metrics, tail_p = end_to_end(run, setup_s)
        lat = run["latencies"]
        n = len(lat)
        notes = {
            "setup_s": "median of " + " ".join(f"{t:.3f}" for t in setups)
                       + f"; raw {statistics.median(raw_setups):.4g} s",
            "ops_per_s": f"{n} ops in {run['wall']:.2f} s, {run['rounds']} rounds; raw {n / sum(lat):.4g} 1/s",
            "op_p50_ms": f"raw {statistics.median(lat) * 1e3:.4g} ms",
            "op_tail_ms": f"p{tail_p:g} of {n} samples, {n * (100 - tail_p) / 100:.0f} beyond it;"
                          f" raw {tail(lat)[1] * 1e3:.4g} ms",
        }
        print(f"host speed: {setup_speed:.4g} in set-up, {clock.speed():.4g} overall"
              f" ({len(clock.ref_s)} reference samples); times below are calibrated to a host"
              f" where the reference work takes {REF_NOMINAL_S * 1e3:g} ms")

    attempted = len(warm) + sum(len(r["latencies"]) for r in runs)
    failed_ops = sum(p is not None for p in warm) + sum(len(r["problems"]) for r in runs)
    for r in runs:
        problems.extend(r["problems"])
        problems.extend(coverage_problems(wl, r["tally"]))
    correct = not problems

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"fail_ratio: {failed_ops / attempted:.6g} ratio  ({failed_ops} failed / {attempted} attempted,"
          f" set-up warm-ups included)")
    tally = sum((r["tally"] for r in runs), Counter())
    print("outcomes: " + " ".join(f"{k}={tally[k]}" for k in sorted(tally)))
    for p in problems[:10]:
        print(f"problem: {p}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
