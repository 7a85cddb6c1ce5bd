"""Time each layer of raag under the pure kernel and, when raag._speedups
was built, under the compiled one, and write the rows to BENCH_11.json.

Rows:
- kernel: normalize and survivors on long single words, on large batches of
  short commutator-shaped words, and on long words over a wide alphabet,
  where the piles of the compiled kernel are sized per generator;
- ext_ball: the path P5 at radius 2 and 3, the path P4 at radius 3 and 4;
- harness: run_harness with 500 trials and seed 42, end to end, and its
  instance generation alone (the _random_graph, _random_source and
  _random_hom draws of those 500 trials).

Each row runs under each kernel by rebinding raag._kernel.normalize and
raag._kernel.survivors, which every caller looks up there. Each figure is
the minimum of 3 runs, in seconds.

Runs of different checkouts go into one file, each under its own --label,
so a change and its parent can be read side by side (run this script with
PYTHONPATH pointing at the other checkout's src):

    PYTHONPATH=src python benchmarks/bench_layers.py --label after

Build the compiled kernel first (`python setup.py build_ext --inplace`) to
fill the compiled column; without it that column is null.
"""

import argparse
import json
import platform
import random
import time
from pathlib import Path

from raag import _kernel, _purekernel
from raag.extension import ext_ball
from raag.graphs import Graph, path_graph
from raag.harness import HarnessConfig, _random_graph, _random_hom, _random_source, run_harness

try:
    from raag import _speedups
except ImportError:
    _speedups = None

OUT = Path(__file__).resolve().parent.parent / "BENCH_11.json"
REPEATS = 3


def make_graph(rng, n, p):
    verts = [f"g{i}" for i in range(n)]
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph("bench", verts, edges)


def make_codes(rng, n, length):
    return [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)]


def kernel_jobs():
    """(name, jobs) per kernel workload; a job is (codes, noncomm)."""
    rng = random.Random(20240)
    out = []
    for name, n, p, count, length in (
        ("long words (60 x len 2000, 12 generators)", 12, 0.4, 60, 2000),
        ("short batch (30000 x len 12, 7 generators)", 7, 0.5, 30000, 12),
        ("wide alphabet (20 x len 5000, 200 generators)", 200, 0.5, 20, 5000),
    ):
        nn = make_graph(rng, n, p).nonneighbor_table()
        out.append((name, [(make_codes(rng, n, length), nn) for _ in range(count)]))
    return out


def best_of(run):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def draw_instances(cfg):
    """The instances run_harness(cfg) draws, without extracting from them;
    built from the draw helpers alone, so the row also runs against older
    checkouts."""
    master = random.Random(cfg.seed)
    for _ in range(cfg.trials):
        rng = random.Random(master.getrandbits(64))
        gamma = _random_graph(rng, cfg.max_target_vertices, cfg.edge_density)
        lam = _random_source(rng, cfg.component_sizes)
        _random_hom(rng, lam, gamma)


def use_kernel(module):
    _kernel.normalize = module.normalize
    _kernel.survivors = module.survivors


def rows():
    kernels = [("pure", _purekernel)] + ([("compiled", _speedups)] if _speedups else [])
    out = []

    def row(layer, case, run):
        entry = {"layer": layer, "case": case, "pure_s": None, "compiled_s": None}
        for label, module in kernels:
            use_kernel(module)
            entry[f"{label}_s"] = round(best_of(run), 4)
        out.append(entry)
        print(f"{layer:<8} {case:<58} {entry['pure_s']:>9}s {entry['compiled_s'] or 'n/a':>9}"
              + ("" if entry["compiled_s"] is None else "s"), flush=True)

    for name, jobs in kernel_jobs():
        for function in ("normalize", "survivors"):
            if _speedups:
                pure, compiled = getattr(_purekernel, function), getattr(_speedups, function)
                assert all(pure(*job) == compiled(*job) for job in jobs[:50])

            def run_jobs(function=function, jobs=jobs):
                call = getattr(_kernel, function)
                for job in jobs:
                    call(*job)

            row("kernel", f"{function}: {name}", run_jobs)
    for n, radius in ((5, 2), (4, 3), (5, 3), (4, 4)):
        g = path_graph(n)
        row("ext_ball", f"P{n} radius {radius}", lambda g=g, radius=radius: ext_ball(g, radius))
    config = HarnessConfig(trials=500, seed=42)
    row("harness", "run_harness(500 trials, seed 42)", lambda: run_harness(config))
    row("harness", "instance generation of run_harness(500 trials, seed 42)", lambda: draw_instances(config))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current", help=f"name of this run in {OUT.name}")
    args = parser.parse_args()
    data = json.loads(OUT.read_text()) if OUT.exists() else {"runs": {}}
    run = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "compiled_kernel": _speedups is not None,
        "rows": rows(),
    }
    if _speedups is None:
        print("compiled kernel not built; build it with `python setup.py build_ext --inplace` to compare")
    data["runs"][args.label] = run
    OUT.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
