"""Shared builders for the test suite."""

import importlib.util
import itertools
import os
import random
import shutil
import subprocess
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


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The committed src/raag/_speedups.c, compiled and linked the way this
    Python builds extensions, and loaded under a private module name: never
    as raag._speedups, so the kernel raag._kernel selects for the rest of
    the suite stays the one it imported. Any compiler warning fails the
    build. Skips only when there are no Python headers or no compiler."""
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip(f"no Python headers in {include}")
    link = (sysconfig.get_config_var("LDSHARED") or "").split()
    if not link or shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler to build extensions with (LDSHARED={link!r})")
    source = Path(__file__).resolve().parent.parent / "src" / "raag" / "_speedups.c"
    out = tmp_path_factory.mktemp("kernel") / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*link, *(sysconfig.get_config_var("CCSHARED") or "").split(), "-O2", "-Wall", "-Wextra", "-Werror",
           f"-I{include}", str(source), "-o", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        pytest.fail(f"building the compiled kernel failed: {' '.join(cmd)}\n{done.stderr}")
    spec = importlib.util.spec_from_file_location("_raag_kernel_under_test._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
