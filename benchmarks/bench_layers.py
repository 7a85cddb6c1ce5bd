"""Time each layer of raag under the pure kernel and, when raag._speedups
was built, under the compiled one, and write the rows to a JSON file.

Rows:
- kernel: normalize and survivors on long single words, on large batches of
  short commutator-shaped words, and on long words over a wide alphabet,
  where normalize's depile checks many fronts per letter;
- kernel memory: the tracemalloc peak, in MB, of one call on one long
  word (survivors and normalize on 50000 letters over 200 generators,
  survivors on 20000 letters over 1000 generators), under each kernel;
  tracemalloc sees the PyMem allocations of the compiled kernel too;
- ext_ball: the path P5 at radius 2 and 3, the path P4 at radius 3 and 4;
  the seven distinct balls of the perfbench ext_query queries (C4 r2, C5
  r1/r2, C6 r1, P4 r2, P5c r1/r2), one pass, where building the vertices is
  a larger share than on the big balls; then ball_as_graph on the four path
  balls, each built once outside the timing and converted BALL_GRAPH_CALLS
  times per run; then ExtBall.edges on the seven ext_query balls, built
  once outside the timing and read BALL_GRAPH_CALLS times per run (the
  pairs are derived from the masks on each read, as perfbench's ext_query
  check reads them);
- harness: run_harness with 500 trials and seed 42, end to end, and its
  instance generation alone (the _random_graph, _random_source and
  _random_hom draws of those 500 trials);
- words: reduce, support, is_trivial and canonical_form, one row each, on
  the raw image words of the perfbench extract_long pool of seed 1, cold;
  then commutes on every pair of images of each homomorphism of that pool,
  cold, where every image lies over a clique, so the centralizer test
  decides each pair from the two supports, and on COMMUTE_PAIRS pairs of
  random 12-letter words over 8 generators, cold, whose supports seldom
  span a clique, so almost every pair goes to the kernel through
  is_trivial of the commutator;
- graphs: join_decompose on the 800 sources of that pool, and complement
  after induced_subgraph on each target's image support union (the
  support graph of the structural certificate), one pass each; then
  full_embedding_search on the 23 perfbench ext_query queries, and on its
  slowest one alone (P6c into the P5c radius-2 ball), SEARCH_PASSES passes
  each, with every ball and ball graph built once outside the timing;
  then sequence_search on the clique chains of every anti-path factor of
  2 or at least 4 vertices of that pool (the chains extract_anti_path
  searches), SEARCH_PASSES passes, with the chains built once outside the
  timing;
- extract_full: one pass of extract_full over the 800 homomorphisms of that
  pool.

The pool and the ext_query targets come from perfbench/workloads.py,
which is only read; the pool is drawn once. The words and extract_full rows
rebuild it from its names and codes before every timed run, outside the
timing: new image words, and for extract_full new graphs too. So no run,
under either kernel, reads a cached reduced form that an earlier run
filled.

Each row runs under each kernel by rebinding raag._kernel.normalize and
raag._kernel.survivors, which every caller looks up there. Each row runs
7 times per kernel; pure_s and compiled_s are the median, in seconds, and
pure_min_s and compiled_min_s the minimum. The median is steadier than a
minimum of few runs, but on a shared host the host's speed can still move
a row by tens of percent between runs minutes apart, so compare labels
run close together.

Runs of different checkouts go into one file, each under its own --label,
so a change and its parent can be read side by side (run this script with
PYTHONPATH pointing at the other checkout's src). Every run needs a label
the file does not hold yet: alternate the two checkouts and number the
runs (parent-1, change-1, parent-2, ...). A label already in the file is
refused before anything is measured, and the file is left as it was:

    PYTHONPATH=src python benchmarks/bench_layers.py --out BENCH_<n>.json --label change-1

With --against <src dir of another checkout>, the run holds only the
kernel time rows, the ext_ball rows and the graphs rows, timed on both
checkouts in one process: the other checkout's raag is loaded beside this
one under the package name raag_against, each row is built once per
checkout from that checkout's own modules, and the two sides alternate on
every one of INTERLEAVED_REPEATS repetitions (this checkout first on even
repetitions, the other first on odd ones). So host drift, which moves
separate runs by tens of percent, reaches both sides alike. Each side
runs the kernel its own raag._kernel picked (the compiled one only where
that checkout has it built): the kernel rows call that module's normalize
and survivors, and the other rows reach it through their own modules.
Before each timed repetition the garbage collector runs, and it stays
disabled while the repetition is timed, so a collection that the other
side's garbage triggers is not charged to this one. A row carries, per
side, the median, the minimum and the quartiles (this_* and against_*),
and this_faster, the number of repetitions in which this checkout was
faster.

Two sides that run the same code need not read 50/50: which side runs
first, or where each side's objects sit in memory, can favour one. So each
--against run also times this checkout against a copy of itself, loaded
from a temporary directory as the package raag_self, on the same rows, each
right after the comparison with the other checkout. A row's "self" entry
holds that control, with the copy as the against side; a this_faster that
the control also reads is bias, not a change. The temporary copy is
removed when the run ends, and neither loaded checkout gets bytecode
written:

    PYTHONPATH=src python benchmarks/bench_layers.py --out BENCH_<n>.json \
        --label interleaved-1 --against ../parent/src

A kernel memory row carries pure_peak_mb and compiled_peak_mb instead of
times; a peak moves by at most a few kB between runs, so each is measured
once.

Build the compiled kernel first (`python setup.py build_ext --inplace`) to
fill the compiled column; without it that column is null.
"""

import argparse
import gc
import importlib
import json
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from raag import _kernel, _purekernel, embedding, extension, graphs, words
from raag.embedding import extract_full
from raag.graphs import Graph
from raag.harness import HarnessConfig, _random_graph, _random_hom, _random_source, run_harness
from raag.words import Word, canonical_form, commutes, is_trivial, reduce, support

try:
    from raag import _speedups
except ImportError:
    _speedups = None

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
INTERLEAVED_REPEATS = 11
BALL_GRAPH_CALLS = 20
SEARCH_PASSES = 10
COMMUTE_PAIRS = 3000
# the raag modules the rows are built from: this checkout's, or another's
# (load_checkout)
THIS = SimpleNamespace(graphs=graphs, extension=extension, embedding=embedding, words=words, _kernel=_kernel)


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


def kernel_rows(r):
    """(layer, case, run) of the kernel time rows, each calling the
    _kernel module of the raag modules r, looked up at call time."""
    out = []
    for name, jobs in kernel_jobs():
        for function in ("normalize", "survivors"):
            def run_jobs(function=function, jobs=jobs):
                call = getattr(r._kernel, function)
                for job in jobs:
                    call(*job)

            out.append(("kernel", f"{function}: {name}", run_jobs))
    return out


def memory_jobs():
    """(function, case, job) per kernel memory row; a job is (codes,
    noncomm) for one word."""
    rng = random.Random(20242)
    out = []
    for function, n, length in (("survivors", 200, 50_000), ("normalize", 200, 50_000), ("survivors", 1000, 20_000)):
        nn = make_graph(rng, n, 0.5).nonneighbor_table()
        out.append((function, f"{function} peak: 1 x len {length}, {n} generators", (make_codes(rng, n, length), nn)))
    return out


def peak_mb(call, job):
    """The tracemalloc peak of call(*job), in MB."""
    tracemalloc.start()
    try:
        call(*job)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def median_and_min(run, setup=None):
    """The median and the minimum of REPEATS runs; with a setup, each run
    gets a new setup() as its argument, built outside the timing."""
    times = []
    for _ in range(REPEATS):
        args = (setup(),) if setup else ()
        start = time.perf_counter()
        run(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times)


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


def perfbench_workloads():
    """The perfbench/workloads.py module."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def extract_long_pool():
    """The 800 homomorphisms of the perfbench extract_long workload, seed 1."""
    return perfbench_workloads().ExtractLong(1).specs


def ext_query_balls(r):
    """(target, radius) of each distinct ball of the perfbench ext_query
    queries, on the targets its _named_graph builds with the raag modules
    r."""
    wl = perfbench_workloads()
    return [(wl._named_graph(r.graphs, name, "a"), radius) for name, radius in sorted({q[:2] for q in wl.QUERIES})]


def ext_query_searches(r):
    """(source, ball graph) of each perfbench ext_query query, in its
    order, on the graphs its _named_graph builds with the raag modules r;
    each ball is built once."""
    wl = perfbench_workloads()
    balls = {}
    out = []
    for target, radius, source, *_ in wl.QUERIES:
        if (target, radius) not in balls:
            g = wl._named_graph(r.graphs, target, "a")
            balls[target, radius] = r.extension.ball_as_graph(r.extension.ext_ball(g, radius))
        out.append((wl._named_graph(r.graphs, source, "x"), balls[target, radius]))
    return out


def fresh_images(pool):
    """The raw image words of the pool, as new words over the same graphs."""
    return [Word._from_codes(w.graph, w.codes()) for h in pool for w in h.images.values()]


def fresh_image_pairs(pool):
    """Every pair of images of each hom of the pool, as new words."""
    out = []
    for h in pool:
        images = [Word._from_codes(w.graph, w.codes()) for w in h.images.values()]
        out += [(a, b) for i, a in enumerate(images) for b in images[i + 1:]]
    return out


def random_word_pairs():
    """One 8-generator graph of density 0.5 and the codes of COMMUTE_PAIRS
    pairs of random 12-letter words over it."""
    rng = random.Random(20241)
    g = make_graph(rng, 8, 0.5)
    return g, [(make_codes(rng, 8, 12), make_codes(rng, 8, 12)) for _ in range(COMMUTE_PAIRS)]


def fresh_word_pairs(g, pairs):
    """The pairs of codes as new words over g."""
    return [(Word._from_codes(g, tuple(a)), Word._from_codes(g, tuple(b))) for a, b in pairs]


def pool_chains(pool, r):
    """The clique chain of every anti-path factor of 2 or at least 4
    vertices of each hom of the pool, in pool and factor order, built by
    the raag modules r."""
    out = []
    for h in pool:
        for c in r.graphs.join_decompose(h.source).components:
            if len(c.graph) == 2 or len(c.graph) >= 4:
                out.append(r.embedding.build_clique_chain(h.restricted(c.graph)))
    return out


def support_unions(pool, r):
    """(target, union of the image supports in target order) per hom."""
    out = []
    for h in pool:
        union = frozenset().union(*(r.words.support(w) for w in h.images.values()))
        out.append((h.target, [v for v in h.target.vertices if v in union]))
    return out


def fresh_pool(pool, r=THIS):
    """The pool rebuilt from names and codes, with new graphs and words, of
    the raag modules r."""
    out = []
    for h in pool:
        source = r.graphs.Graph(h.source.name, h.source.vertices, h.source.edges())
        target = r.graphs.Graph(h.target.name, h.target.vertices, h.target.edges())
        images = {v: r.words.Word._from_codes(target, w.codes()) for v, w in h.images.items()}
        out.append(r.embedding.HomSpec(source, target, images))
    return out


def load_checkout(src, alias="raag_against"):
    """The modules of the raag package under the directory src, imported
    beside this checkout's as the package alias, without writing bytecode.
    While it imports, the raag entries of sys.modules are set aside, so its
    modules bind one another; afterwards they are registered under alias
    and this checkout's raag is restored."""
    names = ("graphs", "words", "extension", "embedding", "_kernel")
    mine = {k: m for k, m in sys.modules.items() if k == "raag" or k.startswith("raag.")}
    for k in mine:
        del sys.modules[k]
    sys.path.insert(0, str(src))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        package = importlib.import_module("raag")
        modules = {name: importlib.import_module(f"raag.{name}") for name in names}
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(src))
        theirs = {k: m for k, m in sys.modules.items() if k == "raag" or k.startswith("raag.")}
        for k in theirs:
            del sys.modules[k]
        sys.modules.update(mine)
    sys.modules.update({alias + k[len("raag"):]: m for k, m in theirs.items()})
    if Path(package.__file__).resolve().parent != (Path(src) / "raag").resolve():
        sys.exit(f"--against {src}: no raag package there")
    return SimpleNamespace(**modules)


def ball_rows(r):
    """(layer, case, run) of the ext_ball rows, on graphs and balls built
    by the raag modules r."""
    ext_ball, ball_as_graph = r.extension.ext_ball, r.extension.ball_as_graph
    out = []
    balls = [(n, radius, r.graphs.path_graph(n)) for n, radius in ((5, 2), (4, 3), (5, 3), (4, 4))]
    for n, radius, g in balls:
        out.append(("ext_ball", f"P{n} radius {radius}", lambda g=g, radius=radius: ext_ball(g, radius)))
    queried = ext_query_balls(r)
    out.append(("ext_ball", f"the {len(queried)} ext_query balls, one pass",
                lambda: [ext_ball(g, radius) for g, radius in queried]))
    for n, radius, g in balls:
        ball = ext_ball(g, radius)
        out.append(("ext_ball", f"ball_as_graph x{BALL_GRAPH_CALLS} on the P{n} radius {radius} ball",
                    lambda ball=ball: [ball_as_graph(ball) for _ in range(BALL_GRAPH_CALLS)]))
    built = [ext_ball(g, radius) for g, radius in queried]
    out.append(("ext_ball", f"edges x{BALL_GRAPH_CALLS} on the {len(built)} ext_query balls",
                lambda: [ball.edges for _ in range(BALL_GRAPH_CALLS) for ball in built]))
    return out


def graph_rows(r, pool):
    """(layer, case, run) of the graphs rows, on inputs built by the raag
    modules r from the pool, which r's classes built."""
    gr = r.graphs
    sources, unions = [h.source for h in pool], support_unions(pool, r)
    out = [
        ("graphs", "join_decompose on the extract_long pool sources (800, seed 1)",
         lambda: [gr.join_decompose(g) for g in sources]),
        ("graphs", "complement(induced_subgraph) on its support unions (800, seed 1)",
         lambda: [gr.complement(gr.induced_subgraph(t, s)) for t, s in unions]),
    ]
    searches = ext_query_searches(r)
    tail = [(lam, bg) for lam, bg in searches if (lam.name, bg.name) == ("P6c", "P5c_ball2")]
    for case, queries in ((f"the {len(searches)} ext_query queries", searches),
                          ("the ext_query tail, P6c into the P5c radius 2 ball", tail)):
        out.append(("graphs", f"full_embedding_search x{SEARCH_PASSES} on {case}",
                    lambda queries=queries: [gr.full_embedding_search(lam, bg)
                                             for _ in range(SEARCH_PASSES) for lam, bg in queries]))
    chains = pool_chains(pool, r)
    sequence_search = r.embedding.sequence_search
    out.append(("graphs", f"sequence_search x{SEARCH_PASSES} on the {len(chains)} extract_long pool chains (seed 1)",
                lambda: [sequence_search(chain) for _ in range(SEARCH_PASSES) for chain in chains]))
    return out


def spread(times):
    """Median, minimum and quartiles of times, rounded."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"s": round(median, 4), "min_s": round(min(times), 4), "quartiles_s": [round(q1, 4), round(q3, 4)]}


def timed(run):
    """The time of one run(), collected before and with the garbage
    collector disabled while it runs."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def compared(run, other_run):
    """this_*, against_* and this_faster of run against other_run, the two
    alternating on every one of INTERLEAVED_REPEATS repetitions."""
    times = ([], [])
    for k in range(INTERLEAVED_REPEATS):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            times[side].append(timed((run, other_run)[side]))
    out = {}
    for prefix, side in (("this", 0), ("against", 1)):
        out.update({f"{prefix}_{k}": v for k, v in spread(times[side]).items()})
    out["this_faster"] = sum(a < b for a, b in zip(*times))
    return out


def interleaved_rows(other, copy):
    """The kernel, ext_ball and graphs rows of this checkout against the
    raag modules other, and under "self" against copy, a copy of this
    checkout, on the same rows."""
    pool = extract_long_pool()

    def rows_of(r):
        return kernel_rows(r) + ball_rows(r) + graph_rows(r, pool if r is THIS else fresh_pool(pool, r))

    out = []
    for (layer, case, run), (_, other_case, other_run), (_, copy_case, copy_run) in zip(
            rows_of(THIS), rows_of(other), rows_of(copy), strict=True):
        assert case == other_case == copy_case, (case, other_case, copy_case)
        entry = {"layer": layer, "case": case, **compared(run, other_run), "self": compared(run, copy_run)}
        out.append(entry)
        print(f"{layer:<8} {case:<58} {entry['this_s']:>9}s against {entry['against_s']:>9}s"
              f"  faster {entry['this_faster']}/{INTERLEAVED_REPEATS},"
              f" against itself {entry['self']['this_faster']}/{INTERLEAVED_REPEATS}", flush=True)
    return out


def use_kernel(module):
    _kernel.normalize = module.normalize
    _kernel.survivors = module.survivors


def rows():
    kernels = [("pure", _purekernel)] + ([("compiled", _speedups)] if _speedups else [])
    out = []

    def row(layer, case, run, setup=None):
        entry = {"layer": layer, "case": case, "pure_s": None, "compiled_s": None,
                 "pure_min_s": None, "compiled_min_s": None}
        for label, module in kernels:
            use_kernel(module)
            median, least = median_and_min(run, setup)
            entry[f"{label}_s"], entry[f"{label}_min_s"] = round(median, 4), round(least, 4)
        out.append(entry)
        print(f"{layer:<8} {case:<58} {entry['pure_s']:>9}s {entry['compiled_s'] or 'n/a':>9}"
              + ("" if entry["compiled_s"] is None else "s"), flush=True)

    if _speedups:
        for name, jobs in kernel_jobs():
            for function in ("normalize", "survivors"):
                pure, compiled = getattr(_purekernel, function), getattr(_speedups, function)
                assert all(pure(*job) == compiled(*job) for job in jobs[:50])
    for layer, case, run in kernel_rows(THIS):
        row(layer, case, run)
    for function, case, job in memory_jobs():
        entry = {"layer": "kernel memory", "case": case, "pure_peak_mb": None, "compiled_peak_mb": None}
        for label, module in kernels:
            entry[f"{label}_peak_mb"] = peak_mb(getattr(module, function), job)
        out.append(entry)
        print(f"{'memory':<8} {case:<58} {entry['pure_peak_mb']:>8}MB {entry['compiled_peak_mb'] or 'n/a':>8}"
              + ("" if entry["compiled_peak_mb"] is None else "MB"), flush=True)
    for layer, case, run in ball_rows(THIS):
        row(layer, case, run)
    config = HarnessConfig(trials=500, seed=42)
    row("harness", "run_harness(500 trials, seed 42)", lambda: run_harness(config))
    row("harness", "instance generation of run_harness(500 trials, seed 42)", lambda: draw_instances(config))
    pool = extract_long_pool()
    for function in (reduce, support, is_trivial, canonical_form):
        row("words", f"{function.__name__} on the extract_long pool images (seed 1, cold)",
            lambda words, function=function: [function(w) for w in words], lambda: fresh_images(pool))
    row("words", "commutes on every image pair of each extract_long pool hom (seed 1, cold)",
        lambda pairs: [commutes(a, b) for a, b in pairs], lambda: fresh_image_pairs(pool))
    g, pairs = random_word_pairs()
    row("words", f"commutes on {COMMUTE_PAIRS} pairs of random 12-letter words, 8 generators (cold)",
        lambda fresh: [commutes(a, b) for a, b in fresh], lambda: fresh_word_pairs(g, pairs))
    for layer, case, run in graph_rows(THIS, pool):
        row(layer, case, run)
    row("extract", "extract_full on the extract_long pool (800 homs, seed 1, cold)",
        lambda specs: [extract_full(h) for h in specs], lambda: fresh_pool(pool))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add this run to")
    parser.add_argument("--label", default="current", help="name of this run in the output file")
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="src directory of another checkout: time the kernel, ext_ball and graphs rows of "
                             "both, interleaved, and of this checkout against a copy of itself")
    args = parser.parse_args()
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    if args.label in data["runs"]:
        sys.exit(f"{args.out} already holds a run labelled {args.label!r} (labels: {', '.join(data['runs'])}); "
                 "give each run its own label")
    if args.against:
        other = load_checkout(args.against)
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(Path(graphs.__file__).parent, Path(tmp) / "raag",
                            ignore=shutil.ignore_patterns("__pycache__"))
            copy = load_checkout(tmp, "raag_self")
            rows = interleaved_rows(other, copy)
        run = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "against": str(args.against),
            "repeats": INTERLEAVED_REPEATS,
            "kernels": {"this": _kernel.kernel_name(), "against": other._kernel.kernel_name(),
                        "self": copy._kernel.kernel_name()},
            "rows": rows,
        }
    else:
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
    args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
