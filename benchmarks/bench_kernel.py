"""Benchmark the compiled piling kernel against the pure-Python one, for
normalize and survivors, on three workloads: long single words, large
batches of short commutator-shaped words (the inner loop of commutation
tests and extension-ball construction), and long words over a wide
alphabet, where the piles of the compiled kernel are sized per generator.

Usage: python benchmarks/bench_kernel.py
"""

import random
import time

from raag import _purekernel
from raag.graphs import Graph

try:
    from raag import _speedups
except ImportError:
    _speedups = None


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


def run(function, jobs):
    start = time.perf_counter()
    for codes, n, nn in jobs:
        function(codes, n, nn)
    return time.perf_counter() - start


def workload_long_words(rng):
    g = make_graph(rng, 12, 0.4)
    nn = g.nonneighbor_table()
    return [(make_codes(rng, 12, 2000), 12, nn) for _ in range(60)]


def workload_short_batch(rng):
    g = make_graph(rng, 7, 0.5)
    nn = g.nonneighbor_table()
    return [(make_codes(rng, 7, 12), 7, nn) for _ in range(30000)]


def workload_wide_alphabet(rng):
    g = make_graph(rng, 200, 0.5)
    nn = g.nonneighbor_table()
    return [(make_codes(rng, 200, 5000), 200, nn) for _ in range(20)]


def main():
    rng = random.Random(20240)
    workloads = [
        ("long words (60 x len 2000, 12 generators)", workload_long_words(rng)),
        ("short batch (30000 x len 12, 7 generators)", workload_short_batch(rng)),
        ("wide alphabet (20 x len 5000, 200 generators)", workload_wide_alphabet(rng)),
    ]
    print(f"{'workload':<48} {'function':<10} {'pure':>10} {'compiled':>10} {'speedup':>9}")
    for name, jobs in workloads:
        for function in ("normalize", "survivors"):
            pure_t = run(getattr(_purekernel, function), jobs)
            if _speedups is None:
                print(f"{name:<48} {function:<10} {pure_t:>9.3f}s {'n/a':>10} {'n/a':>9}")
                continue
            comp_t = run(getattr(_speedups, function), jobs)
            for codes, n, nn in jobs[:50]:
                assert getattr(_purekernel, function)(codes, n, nn) == getattr(_speedups, function)(codes, n, nn)
            print(f"{name:<48} {function:<10} {pure_t:>9.3f}s {comp_t:>9.3f}s {pure_t / comp_t:>8.1f}x")
    if _speedups is None:
        print("compiled kernel not built; build it with `python setup.py build_ext --inplace` to compare")


if __name__ == "__main__":
    main()
