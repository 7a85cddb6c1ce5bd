"""Time each layer of raag on two checkouts, interleaved, and write the
rows to a JSON file.

The sides are this checkout and another, whose src directory --against
names. The other checkout's raag is loaded beside this one under the
package name raag_against, the rows are built once per checkout from that
checkout's own modules, and each side runs the kernel its own raag._kernel
picked. Before anything is timed, the two checkouts' normalize and
survivors must agree on the first 50 jobs of each kernel row; if they do
not, the run stops and names the row.

Every row is timed on the two sides, and then on the two sides of a
control: this checkout against a copy of itself, loaded from a temporary
directory as raag_self, compiled kernel included when one is built. Two
sides that run the same code need not read 50/50: which side runs first,
or where each side's objects sit in memory, can favour one. The row's
"self" entry holds the control, and a gap that the control also reads is
bias, not a change. The copy is removed when the run ends, and neither
loaded checkout gets bytecode written:

    PYTHONPATH=src python benchmarks/bench_layers.py --out BENCH_<n>.json \
        --label interleaved-1 --against ../parent/src

The compiled kernel is compared the same way, as two checkouts, in both
directions: build it in a copy of this checkout outside the working tree,
then time this checkout against the copy, where the control runs pure
against pure, and the copy against this checkout, where the control runs
compiled against compiled and the sides swap places:

    git archive HEAD --prefix=built/ | tar -x -C ..
    (cd ../built && python setup.py build_ext --inplace)
    PYTHONPATH=src python benchmarks/bench_layers.py --out BENCH_<n>.json \
        --label kernels-pure-against-compiled --against ../built/src
    PYTHONPATH=../built/src python benchmarks/bench_layers.py --out BENCH_<n>.json \
        --label kernels-compiled-against-pure --against src

Rows, in order:
- kernel: normalize and survivors on long single words, on large batches of
  short commutator-shaped words, and on long words over a wide alphabet,
  where normalize's depile checks many fronts per letter;
- kernel memory: the tracemalloc peak, in MB, of one call on one long word
  (survivors and normalize on 50000 letters over 200 generators, survivors
  on 20000 letters over 1000 generators); tracemalloc sees the PyMem
  allocations of the compiled kernel too;
- ext_ball: the path P5 at radius 2 and 3, the path P4 at radius 3 and 4;
  the seven distinct balls of the perfbench ext_query queries, one pass;
  ball_as_graph on the four path balls, BALL_GRAPH_CALLS times per run;
  ExtBall.edges on the seven ext_query balls, BALL_GRAPH_CALLS reads per
  run (the balls of the last two built once outside the timing);
- harness: run_harness with 500 trials and seed 42, end to end, and its
  instance generation alone (the draws of those 500 trials);
- words: reduce, support, is_trivial and canonical_form on the raw image
  words of the perfbench extract_long pool of seed 1; commutes on every
  pair of images of each homomorphism of that pool, where every image lies
  over a clique, so the centralizer test decides each pair from the two
  supports; and commutes on COMMUTE_PAIRS pairs of random 12-letter words
  over 8 generators, whose supports seldom span a clique, so almost every
  pair goes to the kernel; all cold;
- graphs: join_decompose on the 800 sources of that pool, and complement
  after induced_subgraph on each target's image support union, one pass
  each; full_embedding_search on the 23 perfbench ext_query queries, and
  on its slowest one alone (P6c into the P5c radius-2 ball); and
  sequence_search on the clique chains of every anti-path factor of 2 or
  at least 4 vertices of that pool; SEARCH_PASSES passes each, with every
  ball, ball graph and chain built once outside the timing;
- extract: one pass of extract_full over the 800 homomorphisms of that
  pool, cold; and one pass of extract_full plus perfbench's
  check_extraction over it, warm (passed over once before the timing, as
  perfbench's extract_long workload cycles one pool).

The pool and the ext_query targets come from perfbench/workloads.py, which
is only read; the pool is drawn once, and each side rebuilds it from names
and codes with its own classes. The cold words and extract rows rebuild
their words, and the cold extract row its graphs too, before every timed
repetition, outside the timing, so no repetition reads a cached reduced
form that an earlier one filled.

The sides alternate on every one of INTERLEAVED_REPEATS repetitions of a
row (in order on even repetitions, reversed on odd ones), so host drift,
which moves separate runs by tens of percent, reaches both sides alike.
Before each timed repetition the garbage collector runs, and it stays
disabled while the repetition is timed, so a collection that the other
side's garbage triggers is not charged to this one. A row carries, per
side (this and against), the median <side>_s, the minimum <side>_min_s and
the quartiles <side>_quartiles_s, in seconds, and this_faster, the number
of repetitions in which this checkout was faster, and its "self" entry
carries the same for the control. A kernel memory row carries
<side>_peak_mb instead, per checkout's raag._kernel and the self copy's; a
peak moves by at most a few kB between runs, so each is measured once.

Runs go into one file, each under its own --label, so a change and its
parent can be read side by side. A label already in the file is refused
before anything is measured, and the file is left as it was.
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

from raag import _kernel, embedding, extension, graphs, harness, words

ROOT = Path(__file__).resolve().parent.parent
INTERLEAVED_REPEATS = 11
BALL_GRAPH_CALLS = 20
SEARCH_PASSES = 10
COMMUTE_PAIRS = 3000
# the raag modules the rows are built from: this checkout's, or another's
# (load_checkout)
THIS = SimpleNamespace(graphs=graphs, extension=extension, embedding=embedding, words=words, harness=harness,
                       _kernel=_kernel)


def make_graph(r, rng, n, p):
    """A random graph on g0..g{n-1} of the raag modules r, each edge drawn
    with probability p."""
    verts = [f"g{i}" for i in range(n)]
    edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return r.graphs.Graph("bench", verts, edges)


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
        nn = make_graph(THIS, rng, n, p).nonneighbor_table()
        out.append((name, [(make_codes(rng, n, length), nn) for _ in range(count)]))
    return out


def kernel_rows(r):
    """(layer, case, run) of the kernel time rows, each calling the
    _kernel module of the raag modules r."""
    out = []
    for name, jobs in kernel_jobs():
        for function in ("normalize", "survivors"):
            def run_jobs(call=getattr(r._kernel, function), jobs=jobs):
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
        nn = make_graph(THIS, rng, n, 0.5).nonneighbor_table()
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


def check_kernels(this, other):
    """Stop the run, naming the row, unless the kernels of the raag modules
    this and other agree on the first 50 jobs of each kernel row."""
    for name, jobs in kernel_jobs():
        for function in ("normalize", "survivors"):
            ours, theirs = getattr(this._kernel, function), getattr(other._kernel, function)
            if any(ours(*job) != theirs(*job) for job in jobs[:50]):
                sys.exit(f"kernel row {function}: {name}: the two checkouts' kernels disagree; nothing was timed")


def memory_rows(kernels):
    """The kernel memory rows: the peak of each memory job under each
    kernel of kernels, {side: module with normalize and survivors}."""
    out = []
    for function, case, job in memory_jobs():
        out.append({"layer": "kernel memory", "case": case,
                    **{f"{side}_peak_mb": peak_mb(getattr(k, function), job) for side, k in kernels.items()}})
        print(f"{'memory':<8} {case:<58}" + "".join(f" {side} {out[-1][side + '_peak_mb']}MB" for side in kernels),
              flush=True)
    return out


def draw_instances(r, cfg):
    """The instances run_harness(cfg) of the raag modules r draws, without
    extracting from them; built from the draw helpers alone, so the row
    also runs against older checkouts."""
    master = random.Random(cfg.seed)
    for _ in range(cfg.trials):
        rng = random.Random(master.getrandbits(64))
        gamma = r.harness._random_graph(rng, cfg.max_target_vertices, cfg.edge_density)
        lam = r.harness._random_source(rng, cfg.component_sizes)
        r.harness._random_hom(rng, lam, gamma)


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


def fresh_images(r, pool):
    """The raw image words of the pool, as new words of the raag modules r
    over the same graphs."""
    return [r.words.Word._from_codes(w.graph, w.codes()) for h in pool for w in h.images.values()]


def fresh_image_pairs(r, pool):
    """Every pair of images of each hom of the pool, as new words of the
    raag modules r."""
    out = []
    for h in pool:
        images = [r.words.Word._from_codes(w.graph, w.codes()) for w in h.images.values()]
        out += [(a, b) for i, a in enumerate(images) for b in images[i + 1:]]
    return out


def random_word_pairs(r):
    """One 8-generator graph of density 0.5 of the raag modules r and the
    codes of COMMUTE_PAIRS pairs of random 12-letter words over it."""
    rng = random.Random(20241)
    g = make_graph(r, rng, 8, 0.5)
    return g, [(make_codes(rng, 8, 12), make_codes(rng, 8, 12)) for _ in range(COMMUTE_PAIRS)]


def fresh_word_pairs(r, g, pairs):
    """The pairs of codes as new words of the raag modules r over g."""
    return [(r.words.Word._from_codes(g, tuple(a)), r.words.Word._from_codes(g, tuple(b))) for a, b in pairs]


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


def fresh_pool(pool, r):
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
    names = ("graphs", "words", "extension", "embedding", "harness", "_kernel")
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


def word_rows(r, pool):
    """(layer, case, (setup, run)) of the words rows, on the pool built by
    the raag modules r; each setup builds new words (see timed)."""
    commutes, (g, pairs) = r.words.commutes, random_word_pairs(r)
    out = [("words", f"{name} on the extract_long pool images (seed 1, cold)",
            (lambda: fresh_images(r, pool), lambda ws, f=getattr(r.words, name): [f(w) for w in ws]))
           for name in ("reduce", "support", "is_trivial", "canonical_form")]
    for case, setup in (("every image pair of each extract_long pool hom (seed 1, cold)",
                         lambda: fresh_image_pairs(r, pool)),
                        (f"{COMMUTE_PAIRS} pairs of random 12-letter words, 8 generators (cold)",
                         lambda: fresh_word_pairs(r, g, pairs))):
        out.append(("words", f"commutes on {case}", (setup, lambda ps: [commutes(a, b) for a, b in ps])))
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


def warm_extract_pass(r, pool):
    """A run of extract_full plus perfbench's check_extraction over the pool,
    built by the raag modules r; it runs once here, so every timed run
    reads warm images, as perfbench's extract_long operations do."""
    check, extract_full = perfbench_workloads().check_extraction, r.embedding.extract_full

    def run():
        for h in pool:
            problem, _ = check(r, h, extract_full(h))
            assert problem is None, problem

    run()
    return run


def extract_rows(r, pool):
    """(layer, case, run) of the extract rows, on the pool built by the
    raag modules r: the cold row's run is a (setup, run) pair that rebuilds
    the pool (see timed), and the warm row's passes over it."""
    return [
        ("extract", "extract_full on the extract_long pool (800 homs, seed 1, cold)",
         (lambda: fresh_pool(pool, r), lambda specs: [r.embedding.extract_full(h) for h in specs])),
        ("extract", "extract_full + check_extraction on the extract_long pool (800 homs, seed 1, warm)",
         warm_extract_pass(r, pool)),
    ]


def layer_rows(r, pool):
    """(layer, case, run) of every timed row, in order, built by the raag
    modules r; pool is the extract_long pool, which the words, graphs and
    extract rows rebuild with r's classes. A run is a callable or a
    (setup, run) pair (see timed)."""
    config = r.harness.HarnessConfig(trials=500, seed=42)
    own = fresh_pool(pool, r)
    return kernel_rows(r) + ball_rows(r) + [
        ("harness", "run_harness(500 trials, seed 42)", lambda: r.harness.run_harness(config)),
        ("harness", "instance generation of run_harness(500 trials, seed 42)", lambda: draw_instances(r, config)),
    ] + word_rows(r, own) + graph_rows(r, own) + extract_rows(r, fresh_pool(pool, r))


def spread(times):
    """Median, minimum and quartiles of times, rounded."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"s": round(median, 4), "min_s": round(min(times), 4), "quartiles_s": [round(q1, 4), round(q3, 4)]}


def timed(run):
    """The time of one run(), collected before and with the garbage
    collector disabled while it runs. A (setup, run) pair times run on a
    new setup(), built before the collection."""
    setup, run = run if isinstance(run, tuple) else (None, run)
    args = (setup(),) if setup else ()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run(*args)
        return time.perf_counter() - start
    finally:
        gc.enable()


def compared(runs):
    """The spread of each of runs, (this, against), under <side>_s,
    <side>_min_s and <side>_quartiles_s, the two alternating on every one
    of INTERLEAVED_REPEATS repetitions; and this_faster, the repetitions in
    which this was faster."""
    times = ([], [])
    for k in range(INTERLEAVED_REPEATS):
        for i in (0, 1) if k % 2 == 0 else (1, 0):
            times[i].append(timed(runs[i]))
    out = {f"{side}_{key}": v for side, t in zip(("this", "against"), times) for key, v in spread(t).items()}
    out["this_faster"] = sum(a < b for a, b in zip(*times))
    return out


def interleaved_rows(other, copy):
    """Every row of layer_rows on this checkout against the raag modules
    other, and under "self" against copy, a copy of this checkout; the
    memory entries follow the kernel rows. Stops before anything is
    measured if this checkout's kernel and other's disagree."""
    check_kernels(THIS, other)
    pool = extract_long_pool()
    memory = memory_rows({"this": _kernel, "against": other._kernel, "self": copy._kernel})
    out = []
    for (layer, case, run), (_, other_case, other_run), (_, copy_case, copy_run) in zip(
            layer_rows(THIS, pool), layer_rows(other, pool), layer_rows(copy, pool), strict=True):
        assert case == other_case == copy_case, (case, other_case, copy_case)
        entry = {"layer": layer, "case": case, **compared((run, other_run)), "self": compared((run, copy_run))}
        print(f"{layer:<8} {case:<58} this {entry['this_s']:>7}s against {entry['against_s']:>7}s  faster "
              f"{entry['this_faster']}/{INTERLEAVED_REPEATS}, against itself "
              f"{entry['self']['this_faster']}/{INTERLEAVED_REPEATS}", flush=True)
        out.append(entry)
    k = sum(entry["layer"] == "kernel" for entry in out)
    return out[:k] + memory + out[k:]


def copy_checkout(package, directory):
    """directory, now holding a copy of the raag package directory package,
    its compiled kernel included, without bytecode."""
    shutil.copytree(package, Path(directory) / "raag", ignore=shutil.ignore_patterns("__pycache__"))
    return directory


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add this run to")
    parser.add_argument("--label", default="current", help="name of this run in the output file")
    parser.add_argument("--against", type=Path, metavar="SRC", required=True,
                        help="src directory of another checkout: time every row on both, interleaved, and on this "
                             "checkout against a copy of itself")
    args = parser.parse_args()
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    if args.label in data["runs"]:
        sys.exit(f"{args.out} already holds a run labelled {args.label!r} (labels: {', '.join(data['runs'])}); "
                 "give each run its own label")
    other = load_checkout(args.against)
    with tempfile.TemporaryDirectory() as tmp:
        copy = load_checkout(copy_checkout(Path(graphs.__file__).parent, tmp), "raag_self")
        data["runs"][args.label] = {
            "python": platform.python_version(), "machine": platform.machine(), "repeats": INTERLEAVED_REPEATS,
            "against": str(args.against), "kernels": {"this": _kernel.kernel_name(),
                                                      "against": other._kernel.kernel_name(),
                                                      "self": copy._kernel.kernel_name()},
            "rows": interleaved_rows(other, copy)}
    args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
