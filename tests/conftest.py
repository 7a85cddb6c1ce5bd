"""Shared builders for the test suite."""

import importlib.util
import itertools
import os
import random
import shutil
import signal
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import strategies as st

from raag.graphs import Graph, complete_graph, graph_join, path_complement


def assert_same_as_rebuilt(d):
    """A derived graph matches the graph Graph.__init__ builds from its
    name, vertices and edges: a mask that is not symmetric, irreflexive or
    in range, or a stale index, shows up in one of these."""
    r = Graph(d.name, d.vertices, d.edges())
    assert (d.name, d.vertices, d.edges()) == (r.name, r.vertices, r.edges())
    assert [d.index(v) for v in d.vertices] == [r.index(v) for v in d.vertices]
    assert d == r and hash(d) == hash(r)
    assert d.nonneighbor_table() == r.nonneighbor_table()


def names_for(n):
    return [chr(ord("a") + i) for i in range(n)]


def all_labeled_graphs(n):
    """Every labeled graph on n named vertices."""
    verts = names_for(n)
    pairs = list(itertools.combinations(verts, 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        yield Graph(f"g{n}_{mask}", verts, edges)


def iso_class_representatives(n):
    """One representative per isomorphism class of n-vertex graphs."""
    verts = names_for(n)
    seen = set()
    reps = []
    for g in all_labeled_graphs(n):
        edge_idx = {frozenset((verts.index(u), verts.index(v))) for u, v in g.edges()}
        canon = min(
            tuple(sorted(
                tuple(sorted((perm[a], perm[b]))) for e in edge_idx for a, b in [tuple(e)]
            ))
            for perm in itertools.permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            reps.append(g)
    return reps


def random_graph(rng, n, p, prefix="a"):
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph("rand", verts, edges)


def random_word_letters(rng, g, max_len):
    length = rng.randint(0, max_len)
    return [(rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(length)]


SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def drawn_graphs(draw, min_vertices, max_vertices, prefix):
    """Hypothesis strategy: a random_graph on prefix1, prefix2, ... with
    size and edge density drawn uniformly from a seeded Random (hypothesis'
    own draws favour small values, which rarely reach the larger cases)."""
    rnd = random.Random(draw(SEEDS))
    return random_graph(rnd, rnd.randint(min_vertices, max_vertices), rnd.random(), prefix=prefix)


def extract_long_pool(seed):
    """The homomorphisms of the benchmark's extract_long workload for seed."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.ExtractLong(seed).specs


def cycle_graph(n, prefix="a"):
    verts = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Graph(f"C{n}", verts, edges)


def symmetric_sources(prefix="x"):
    """Sources with many automorphisms, where the search's lex-leader
    orderings act: the cycles C3-C8, the complete graphs K2-K5, the
    edgeless graphs E2-E4, the path complements P4c-P7c, joins of two path
    complements and the stars K(1,3)-K(1,5)."""
    def edgeless(n, p):
        return Graph(f"E{n}", [f"{p}{i}" for i in range(1, n + 1)])

    out = [cycle_graph(n, prefix) for n in range(3, 9)]
    out += [complete_graph(n, prefix=prefix, name=f"K{n}") for n in range(2, 6)]
    out += [edgeless(n, prefix) for n in range(2, 5)]
    out += [path_complement(n, prefix=prefix, name=f"P{n}c") for n in range(4, 8)]
    out += [graph_join([path_complement(a, prefix=prefix), path_complement(b, prefix=prefix + "y")],
                       name=f"P{a}c*P{b}c") for a, b in ((2, 3), (3, 3), (2, 4), (3, 4))]
    out += [graph_join([Graph("hub", [prefix + "0"]), edgeless(n, prefix)], name=f"K1,{n}") for n in (3, 4, 5)]
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def build_kernel(directory, *flags):
    """Compiles the committed src/raag/_speedups.c into directory with the
    given optimization and sanitizer flags, compiled and linked the way
    this Python builds extensions, and returns the path of the module. Any
    compiler warning fails the build. Skips only when there are no Python
    headers or no compiler."""
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip(f"no Python headers in {include}")
    link = (sysconfig.get_config_var("LDSHARED") or "").split()
    if not link or shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler to build extensions with (LDSHARED={link!r})")
    source = Path(__file__).resolve().parent.parent / "src" / "raag" / "_speedups.c"
    out = Path(directory) / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*link, *(sysconfig.get_config_var("CCSHARED") or "").split(), *flags, "-Wall", "-Wextra", "-Werror",
           f"-I{include}", str(source), "-o", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        pytest.fail(f"building the compiled kernel failed: {' '.join(cmd)}\n{done.stderr}")
    return out


# The parity cases a child interpreter runs on the compiled kernel built at
# sys.argv[1] (run_parity_cases): asymmetric tables, empty words and rows,
# rejected codes and entries, 1,000-generator alphabets and the shapes of
# the memory test, cut short.
PARITY_CASES = """
import importlib.util, random, sys
from raag import _purekernel as pure
spec = importlib.util.spec_from_file_location("_raag_kernel_under_test._speedups", sys.argv[1])
compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)

def same(codes, noncomm):
    for f in ("normalize", "survivors"):
        assert getattr(pure, f)(codes, noncomm) == getattr(compiled, f)(codes, noncomm), (f, codes, noncomm)

def table(rnd, n, p):
    return tuple(tuple(j for j in range(n) if j != i and rnd.random() < p) for i in range(n))

def word(rnd, alphabet, length):
    return [rnd.choice((1, -1)) * rnd.choice(alphabet) for _ in range(length)]

rnd = random.Random(2017)
for _ in range(400):
    n = rnd.randint(1, 40)
    noncomm = table(rnd, n, rnd.random())
    size = rnd.randint(1, min(3, n)) if rnd.random() < 0.5 else rnd.randint(1, n)
    same(word(rnd, rnd.sample(range(1, n + 1), size), rnd.randint(0, 300)), noncomm)
for n in (0, 1, 2, 7):
    same([], ((),) * n)
same([1, -1, -1, 2, 1], ((), ()))
same([2, -3, 3, 2, -2, 1], ((2,), (), ()))
for codes, noncomm in (([0], ((),)), ([2], ((),)), ([-2], ((),)), ([1], ((0,),)), ([1], ((1,),)),
                       ([1], ((-1,),)), ([1, 0, -1], ((), ()))):
    for f in (compiled.normalize, compiled.survivors):
        try:
            f(codes, noncomm)
        except ValueError:
            continue
        raise AssertionError(("accepted", f.__name__, codes, noncomm))
for p in (0.0, 0.01, 0.5):
    noncomm = table(rnd, 1000, p)
    same(word(rnd, range(1, 1001), 3000), noncomm)
    same(word(rnd, range(1, 4), 3000), noncomm)
for n, length in ((1000, 4000), (200, 10000)):
    same(word(rnd, range(1, n + 1), length), table(rnd, n, 0.5))
print("ok")
"""


def run_parity_cases(module, **env):
    """Runs PARITY_CASES on the compiled kernel at module in a child
    interpreter, with env added to its environment, and returns the
    finished process; it prints "ok" when every case agrees with the pure
    kernel."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    return subprocess.run([sys.executable, "-c", PARITY_CASES, str(module)],
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The kernel of build_kernel at -O2, loaded under a private module
    name: never as raag._speedups, so the kernel raag._kernel selects for
    the rest of the suite stays the one it imported. A child interpreter
    runs the parity cases on the build first, so a kernel that crashes
    fails the tests that use it, naming the signal, instead of killing
    the test run."""
    out = build_kernel(tmp_path_factory.mktemp("kernel"), "-O2")
    done = run_parity_cases(out)
    if done.returncode < 0:
        pytest.fail(f"the compiled kernel killed the child running its parity cases with "
                    f"{signal.Signals(-done.returncode).name}\n{done.stderr[-4000:]}")
    if done.returncode != 0 or done.stdout != "ok\n":
        pytest.fail(f"the compiled kernel failed its parity cases in a child interpreter\n{done.stderr[-4000:]}")
    spec = importlib.util.spec_from_file_location("_raag_kernel_under_test._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
