import os
import random
import subprocess
import sys
import sysconfig
import threading
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raag.graphs import Graph, path_complement
from raag.words import (
    GroupElement,
    Word,
    canonical_form,
    commutator,
    commutes,
    conjugate,
    inverse,
    is_reduced,
    is_trivial,
    parse_word,
    product,
    reduce,
    support,
)

from conftest import SEEDS, build_kernel, drawn_graphs, random_graph, random_word_letters, run_parity_cases
from reference import marker_normalize, marker_survivors, oracle_is_trivial


EDGE = Graph("edge", ["a", "b"], [("a", "b")])
FREE2 = Graph("free2", ["a", "b"])


# -- hypothesis strategy: (graph, word) over at most 4 vertices --------------------


@st.composite
def graph_and_word(draw, max_vertices=4, max_len=8):
    n = draw(st.integers(1, max_vertices))
    verts = [chr(ord("a") + i) for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    g = Graph("h", verts, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
    letters = draw(
        st.lists(
            st.tuples(st.sampled_from(verts), st.sampled_from((1, -1))),
            max_size=max_len,
        )
    )
    return g, Word(g, letters)


# -- word basics ---------------------------------------------------------------------


def test_word_rejects_foreign_vertex():
    with pytest.raises(ValueError, match="foreign vertex"):
        Word(EDGE, [("z", 1)])


def test_word_rejects_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        Word(EDGE, [("a", 2)])


@pytest.mark.parametrize("sign", [1.5, -1.9, 1.0, "1", True, None])
def test_word_accepts_only_int_signs(sign):
    # int() used to truncate 1.5 and -1.9 and parse "1" before the check
    with pytest.raises(ValueError, match="letter sign must be \\+1 or -1"):
        Word(EDGE, [("b", 1), ("a", sign)])
    assert Word(EDGE, [("a", 1), ("b", -1)]).codes() == (1, -2)


def test_parse_and_str_roundtrip():
    w = parse_word(EDGE, "a b^-1 a")
    assert str(w) == "a b^-1 a"
    assert str(parse_word(EDGE, "1")) == "1"
    with pytest.raises(ValueError, match="unknown generator"):
        parse_word(EDGE, "a z")
    with pytest.raises(ValueError):
        parse_word(EDGE, "   ")


def test_vertex_named_1_shadows_empty_word():
    g = Graph("g", ["1", "x"])
    w = parse_word(g, "1")
    assert w.letters == (("1", 1),)


def test_ambient_mismatch_refused():
    with pytest.raises(ValueError, match="ambient"):
        product(parse_word(EDGE, "a"), parse_word(FREE2, "a"))


# -- reduce ---------------------------------------------------------------------------


def test_reduce_free_cancellation():
    assert reduce(parse_word(EDGE, "a a^-1")).letters == ()


def test_reduce_across_commuting_letter():
    assert str(reduce(parse_word(EDGE, "a b a^-1"))) == "b"


def test_reduce_blocked_without_edge():
    w = parse_word(FREE2, "a b a^-1")
    assert reduce(w) == w


def _has_reducible_pair(w):
    letters = w.letters
    g = w.graph
    for i in range(len(letters)):
        vi, si = letters[i]
        for j in range(i + 1, len(letters)):
            vj, sj = letters[j]
            if vj == vi:
                if sj == -si:
                    return True
                break
            if not g.adjacent(vi, vj):
                break
    return False


@settings(max_examples=300, deadline=None)
@given(graph_and_word())
def test_reduce_properties(gw):
    g, w = gw
    r = reduce(w)
    assert len(r) <= len(w)
    assert not _has_reducible_pair(r)
    assert canonical_form(r) == canonical_form(w)


def _reference_reduce(w):
    """Leftmost-innermost pair deletion to a fixpoint: find a letter v^e
    followed, after letters whose vertices are all adjacent to v, by v^-e,
    delete the pair, and start again. O(L^3) in the worst case; reduce
    must keep the same letters."""
    letters = list(w.letters)
    g = w.graph
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            vi, si = letters[i]
            for j in range(i + 1, len(letters)):
                vj, sj = letters[j]
                if vj == vi:
                    if sj == -si:
                        del letters[j]
                        del letters[i]
                        changed = True
                    # same vertex, same sign: blocks (a vertex is not
                    # adjacent to itself)
                    break
                if not g.adjacent(vi, vj):
                    break
            if changed:
                break
    return tuple(letters)


def _long_word(g, seed):
    # letters from a random sub-alphabet, so that long words cancel and pile
    # up deeply as well as rarely
    rnd = random.Random(seed)
    alphabet = rnd.sample(g.vertices, rnd.randint(1, len(g)))
    return Word(g, [(rnd.choice(alphabet), rnd.choice((1, -1))) for _ in range(rnd.randint(0, 160))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn_graphs(1, 8, "g"), SEEDS)
def test_reduce_matches_reference(g, seed):
    w = _long_word(g, seed)
    assert reduce(w).letters == _reference_reduce(w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn_graphs(1, 8, "g"), SEEDS)
def test_survivors_spell_the_normal_form(g, seed):
    from raag import _purekernel

    codes = _long_word(g, seed).codes()
    nn = g.nonneighbor_table()
    normal = _purekernel.normalize(codes, nn)
    keep = _purekernel.survivors(codes, nn)
    assert keep == sorted(set(keep))
    assert len(keep) == len(normal)
    assert _purekernel.normalize([codes[k] for k in keep], nn) == normal


# -- cached reduced codes ------------------------------------------------------------------


# what each word function answers about a word w; commutes pairs it with other
_WORD_FUNCTIONS = {
    "reduce": lambda w, other: reduce(w).codes(),
    "is_reduced": lambda w, other: is_reduced(w),
    "is_trivial": lambda w, other: is_trivial(w),
    "support": lambda w, other: support(w),
    "canonical_form": lambda w, other: canonical_form(w),
    "commutes": commutes,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn_graphs(1, 8, "g"), SEEDS, st.permutations(tuple(_WORD_FUNCTIONS)))
def test_word_answers_do_not_depend_on_the_cache(g, seed, order):
    w = _long_word(g, seed)
    other = _long_word(g, seed + 1)

    def answers(x, names):
        return {name: _WORD_FUNCTIONS[name](x, other) for name in names}

    def cold(x):
        # each function on its own fresh copies, so it fills every cache
        return {name: f(Word._from_codes(g, x.codes()), Word._from_codes(g, other.codes()))
                for name, f in _WORD_FUNCTIONS.items()}

    r = reduce(w)
    for x in (w, r):
        want = cold(x)
        # first in the drawn order as the caches fill, then with all filled
        assert answers(x, order) == want
        assert answers(x, order) == want
    assert r.codes() == reduce(r).codes() and is_reduced(r)
    names = ("is_trivial", "support", "canonical_form", "commutes")
    assert answers(r, names) == answers(w, names)


def test_every_constructor_sets_the_cache_slot():
    w = Word(EDGE, [("a", 1), ("b", 1), ("a", -1)])
    built = [
        w,
        Word._from_codes(EDGE, (1, -2)),
        w.inverse(),
        w * w,
        parse_word(EDGE, "a b^-1"),
        parse_word(EDGE, "1"),
    ]
    for x in built:
        assert x._reduced is None
    r = reduce(w)
    assert r._reduced == r.codes() == (2,)


def test_equality_and_hash_ignore_the_cache():
    w = parse_word(EDGE, "a b a^-1")
    same = Word._from_codes(EDGE, w.codes())
    assert is_trivial(w) is False and same._reduced is None
    assert w == same and hash(w) == hash(same)
    r = reduce(w)
    plain = Word._from_codes(EDGE, r.codes())
    assert r == plain and hash(r) == hash(plain)
    assert len({w, same}) == 1


def test_concurrent_fills_agree():
    # threads that fill the caches of shared words at once, with frequent
    # switches, must all see the answers of cold words
    rnd = random.Random(77)
    g = random_graph(rnd, 8, 0.5)
    shared = [_long_word(g, seed) for seed in range(40)]
    want = [(reduce(Word._from_codes(g, w.codes())).codes(), support(Word._from_codes(g, w.codes())))
            for w in shared]
    got = [[] for _ in range(8)]

    def work(out):
        for w in shared:
            out.append((reduce(w).codes(), support(w)))

    threads = [threading.Thread(target=work, args=(out,)) for out in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == want for out in got)


# -- canonical form ----------------------------------------------------------------------


def test_canonical_swaps_commuting_pair():
    assert str(canonical_form(parse_word(EDGE, "b a"))) == "a b"


def test_canonical_fixed_when_no_moves():
    assert str(canonical_form(parse_word(FREE2, "b a"))) == "b a"


def test_canonical_of_trivial_is_empty():
    e = canonical_form(parse_word(EDGE, "a b a^-1 b^-1"))
    assert e.is_identity and str(e) == "1"


@settings(max_examples=300, deadline=None)
@given(graph_and_word())
def test_canonical_idempotent(gw):
    g, w = gw
    c = canonical_form(w).word
    assert canonical_form(c).word == c
    assert is_reduced(c)


@settings(max_examples=300, deadline=None)
@given(graph_and_word(), st.lists(st.integers(0, 10_000), max_size=12))
def test_canonical_constant_on_swap_orbits(gw, positions):
    g, w = gw
    letters = list(w.letters)
    for pos in positions:
        if len(letters) < 2:
            break
        k = pos % (len(letters) - 1)
        (v1, s1), (v2, s2) = letters[k], letters[k + 1]
        if v1 != v2 and g.adjacent(v1, v2):
            letters[k], letters[k + 1] = letters[k + 1], letters[k]
    assert canonical_form(Word(g, letters)) == canonical_form(w)


def _shortlex_min_of_commutation_class(w):
    """BFS oracle over commuting swaps of a reduced form; letter order is
    (vertex index, positive before negative)."""
    g = w.graph

    def key(lets):
        return tuple((g.index(v), 0 if s > 0 else 1) for v, s in lets)

    start = reduce(w).letters
    seen = {start}
    queue = deque([start])
    best = start
    while queue:
        cur = queue.popleft()
        if key(cur) < key(best):
            best = cur
        for k in range(len(cur) - 1):
            (v1, _), (v2, _) = cur[k], cur[k + 1]
            if v1 != v2 and g.adjacent(v1, v2):
                nxt = cur[:k] + (cur[k + 1], cur[k]) + cur[k + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return best


def test_canonical_is_shortlex_minimum():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 4), rng.random())
        w = Word(g, random_word_letters(rng, g, 7))
        assert canonical_form(w).word.letters == _shortlex_min_of_commutation_class(w)


def test_group_element_equality():
    e1 = canonical_form(parse_word(EDGE, "a b"))
    e2 = canonical_form(parse_word(EDGE, "b a"))
    e3 = canonical_form(parse_word(FREE2, "a b"))
    assert e1 == e2 and hash(e1) == hash(e2)
    assert e1 != e3
    assert isinstance(e1, GroupElement)


# -- triviality --------------------------------------------------------------------------


def test_trivial_commutator_of_commuting_generators():
    assert is_trivial(parse_word(EDGE, "a b a^-1 b^-1"))


def test_nontrivial_free_commutator():
    assert not is_trivial(parse_word(FREE2, "a b a^-1 b^-1"))


def test_obstruction_word_over_p4c_is_nontrivial():
    # [(v1)^(v2 v3), v4]: 12 letters, and no reduction applies
    g = path_complement(4)
    v = {i: parse_word(g, f"v{i}") for i in range(1, 5)}
    w = commutator(conjugate(v[1], product(v[2], v[3])), v[4])
    assert len(w) == 12
    assert is_reduced(w)
    assert not is_trivial(w)


def test_is_trivial_equals_empty_reduce():
    rng = random.Random(404)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 4), rng.random())
        w = Word(g, random_word_letters(rng, g, 8))
        assert is_trivial(w) == (len(reduce(w)) == 0)


# -- support ------------------------------------------------------------------------------


def test_support_of_reduced_word():
    assert support(parse_word(FREE2, "a b^-1 a")) == {"a", "b"}


def test_support_of_trivial_word_is_empty():
    assert support(parse_word(EDGE, "a a^-1")) == frozenset()


def test_support_reduces_first():
    assert support(parse_word(EDGE, "a b a^-1")) == {"b"}


@settings(max_examples=200, deadline=None)
@given(graph_and_word())
def test_support_invariant_under_inverse_and_reduce(gw):
    g, w = gw
    s = support(w)
    assert s == support(inverse(w)) == support(reduce(w))
    assert s == set(v for v, _ in canonical_form(w).word.letters)


# -- commutation ---------------------------------------------------------------------------


def test_commutes_with_itself():
    w = parse_word(FREE2, "a b")
    assert commutes(w, w)


def test_commutes_adjacent_generators():
    assert commutes(parse_word(EDGE, "a"), parse_word(EDGE, "b"))
    assert not commutes(parse_word(FREE2, "a"), parse_word(FREE2, "b"))


@settings(max_examples=200, deadline=None)
@given(graph_and_word(max_len=5))
def test_commutes_symmetric(gw):
    g, w1 = gw
    rng = random.Random(len(w1.letters))
    w2 = Word(g, random_word_letters(rng, g, 5))
    assert commutes(w1, w2) == commutes(w2, w1)


def test_commutes_clique_support_examples():
    assert commutes(parse_word(EDGE, "a"), parse_word(EDGE, "b"))
    assert not commutes(parse_word(FREE2, "a"), parse_word(FREE2, "b"))
    # {a,b} is a clique, c adjacent to a but not to b: union is not a clique
    g = Graph("g", ["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert not commutes(parse_word(g, "a b"), parse_word(g, "c"))
    # only one side clique-supported: {b, c} lies in st(a) but not in st(c)
    assert commutes(parse_word(g, "a^-1 a^-1"), parse_word(g, "b c b^-1"))
    assert not commutes(parse_word(g, "c"), parse_word(g, "b c b^-1"))


_COMMUTES_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def graph_and_two_words(draw, max_vertices=6, max_len=8):
    """A graph on at most 6 vertices and two words over it, each drawn over
    its own small alphabet so that clique supports are common."""
    g, _ = draw(graph_and_word(max_vertices=max_vertices, max_len=0))
    words = []
    for _ in range(2):
        alphabet = draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=3, unique=True))
        letters = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1))), max_size=max_len))
        words.append(Word(g, letters))
    return g, words[0], words[1]


def test_commutes_matches_commutator_reference():
    cases = set()

    @_COMMUTES_PROPERTY
    @given(graph_and_two_words())
    def check(gww):
        g, w1, w2 = gww
        cases.add(sum(g.spans_clique(support(w)) for w in (w1, w2)))
        assert commutes(w1, w2) == is_trivial(commutator(w1, w2))

    check()
    # both supports span cliques, exactly one does, neither does
    assert cases == {2, 1, 0}


# -- expression builders --------------------------------------------------------------------


def test_conjugate_definition():
    got = conjugate(parse_word(EDGE, "a"), parse_word(EDGE, "b"))
    assert str(got) == "b^-1 a b"


def test_inverse_reverses_and_flips():
    assert str(inverse(parse_word(EDGE, "a b^-1"))) == "b a^-1"


def test_commutator_definition():
    got = commutator(parse_word(EDGE, "a"), parse_word(EDGE, "b"))
    assert str(got) == "a b a^-1 b^-1"


# -- brute-force oracle -----------------------------------------------------------------------


def test_oracle_on_empty_word():
    assert oracle_is_trivial(Word(EDGE, [])) is True


def test_oracle_on_commutators():
    assert oracle_is_trivial(parse_word(EDGE, "a b a^-1 b^-1")) is True
    assert oracle_is_trivial(parse_word(FREE2, "a b a^-1 b^-1")) is False


def test_oracle_budget_gives_inconclusive():
    w = parse_word(EDGE, "a b a b")
    assert oracle_is_trivial(w, budget=1) is None


def test_kernel_agrees_with_oracle_on_random_words():
    rng = random.Random(1234)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 4), rng.random())
        w = Word(g, random_word_letters(rng, g, 8))
        verdict = oracle_is_trivial(w)
        assert verdict is not None
        assert is_trivial(w) == verdict


# -- pure/compiled kernel parity -----------------------------------------------------------------


def test_kernel_parity(compiled_kernel):
    from raag import _purekernel

    rng = random.Random(555)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        w = Word(g, random_word_letters(rng, g, 14))
        nn = g.nonneighbor_table()
        assert _purekernel.normalize(w.codes(), nn) == compiled_kernel.normalize(w.codes(), nn)
        for codes in (w.codes(), list(w.codes())):
            assert _purekernel.survivors(codes, nn) == compiled_kernel.survivors(codes, nn)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_graphs(1, 64, "g"), SEEDS)
def test_kernel_parity_on_long_words(compiled_kernel, g, seed):
    # letters from a random sub-alphabet, so that long words cancel and pile
    # up deeply as well as rarely
    from raag import _purekernel

    rnd = random.Random(seed)
    alphabet = rnd.sample(g.vertices, rnd.randint(1, len(g)))
    letters = [(rnd.choice(alphabet), rnd.choice((1, -1))) for _ in range(rnd.randint(0, 400))]
    codes = Word(g, letters).codes()
    nn = g.nonneighbor_table()
    assert _purekernel.normalize(codes, nn) == compiled_kernel.normalize(codes, nn)
    assert _purekernel.survivors(codes, nn) == compiled_kernel.survivors(codes, nn)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn_graphs(1, 64, "g"), SEEDS)
def test_pure_kernel_matches_marker_reference(g, seed):
    # half the words come from a sub-alphabet of at most three generators,
    # so that they cancel deeply; the rest from a random sub-alphabet
    from raag import _purekernel

    rnd = random.Random(seed)
    size = rnd.randint(1, min(3, len(g))) if rnd.random() < 0.5 else rnd.randint(1, len(g))
    alphabet = rnd.sample(g.vertices, size)
    letters = [(rnd.choice(alphabet), rnd.choice((1, -1))) for _ in range(rnd.randint(0, 400))]
    codes = Word(g, letters).codes()
    nn = g.nonneighbor_table()
    assert _purekernel.normalize(codes, nn) == marker_normalize(codes, nn)
    assert _purekernel.survivors(codes, nn) == marker_survivors(codes, nn)


@st.composite
def asymmetric_jobs(draw):
    """Hypothesis strategy: (codes, noncomm) where each generator lists each
    other one with a drawn probability, on its own, so that the table is
    seldom symmetric. Half the words come from a sub-alphabet of at most
    three generators, so that they cancel deeply."""
    rnd = random.Random(draw(SEEDS))
    n, p = rnd.randint(1, 64), rnd.random()
    noncomm = tuple(tuple(j for j in range(n) if j != i and rnd.random() < p) for i in range(n))
    size = rnd.randint(1, min(3, n)) if rnd.random() < 0.5 else rnd.randint(1, n)
    alphabet = rnd.sample(range(1, n + 1), size)
    codes = [rnd.choice((1, -1)) * rnd.choice(alphabet) for _ in range(rnd.randint(0, 400))]
    return codes, noncomm


@settings(max_examples=200, deadline=None, derandomize=True)
@given(asymmetric_jobs())
def test_kernel_parity_on_asymmetric_tables(compiled_kernel, job):
    from raag import _purekernel

    assert _purekernel.normalize(*job) == compiled_kernel.normalize(*job)
    assert _purekernel.survivors(*job) == compiled_kernel.survivors(*job)


@pytest.mark.parametrize("function, generators, length", [
    ("survivors", 1000, 20_000),
    ("normalize", 200, 50_000),
])
@pytest.mark.parametrize("kernel", ["pure", "compiled"])
def test_kernel_memory_is_bounded(request, kernel, function, generators, length):
    # the piles hold each surviving position once, so the peak grows with the
    # letters plus the generators, not with their product; tracemalloc sees
    # the PyMem allocations of the compiled kernel too
    import tracemalloc

    from raag import _purekernel

    module = _purekernel if kernel == "pure" else request.getfixturevalue("compiled_kernel")
    rng = random.Random(generators)
    nn = random_graph(rng, generators, 0.5).nonneighbor_table()
    codes = [rng.choice((1, -1)) * rng.randint(1, generators) for _ in range(length)]
    call = getattr(module, function)
    tracemalloc.start()
    try:
        call(codes, nn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _kernel_outcomes(compiled_kernel, calls):
    """Evaluates each call, such as "pure.normalize([1], ((),))", in a
    child interpreter where pure is raag._purekernel and compiled is the
    compiled_kernel build, and returns per call the name of the exception
    it raised, or "returned". A call that hangs times out and one that
    crashes the child fails here, so neither stalls or kills the suite."""
    script = "\n".join([
        "import importlib.util",
        "from raag import _purekernel as pure",
        f"spec = importlib.util.spec_from_file_location('_raag_kernel_under_test._speedups', {compiled_kernel.__file__!r})",
        "compiled = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(compiled)",
        f"for call in {calls!r}:",
        "    try:",
        "        eval(call)",
        "    except Exception as e:",
        "        print(type(e).__name__)",
        "    else:",
        "        print('returned')",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_kernels_agree_on_a_table_that_stalled_marker_piles(compiled_kernel):
    # generator 0 lists 1 as non-commuting but not the other way round, so
    # a zero marker that the letter of generator 0 left on pile 1 would
    # stall a depile by read heads; the earliest front always qualifies,
    # so depiling by fronts returns for any table
    from raag import _purekernel

    job = ([2, 1], ((1,), ()))
    assert _purekernel.normalize(*job) == compiled_kernel.normalize(*job) == [2, 1]


def test_compiled_kernel_rejects_out_of_range_input(compiled_kernel):
    arguments = [
        "[3, 1], ((), ())",
        "[-3], ((), ())",
        "[0, 1], ((), ())",
        "[1], ((5,), ())",
        "[1], ((-1,), ())",
        "[1], ((0,), ())",
    ]
    calls = [f"compiled.{f}({a})" for f in ("normalize", "survivors") for a in arguments]
    assert _kernel_outcomes(compiled_kernel, calls) == ["ValueError"] * len(calls)


def _sanitizer_runtime(name):
    """The path of the sanitizer runtime library name that the compiler
    building extensions links against, or None when it has none."""
    compiler = (sysconfig.get_config_var("LDSHARED") or "cc").split()[0]
    try:
        done = subprocess.run([compiler, f"-print-file-name={name}"], capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    path = done.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_compiled_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    # the kernel indexes stacks it sizes itself inside one buffer, with a -1
    # sentinel below each; an overrun by one slot need not change a result,
    # so the parity tests above cannot see it. The child runs with Python's
    # allocator off (PYTHONMALLOC=malloc), so AddressSanitizer sees every
    # PyMem buffer, and with fresh allocations filled with zero bytes, so a
    # slot read before it is written holds 0, a real position, instead of
    # AddressSanitizer's default pattern, which reads as a negative int32
    # and would pass for the sentinel
    runtimes = [_sanitizer_runtime(name) for name in ("libasan.so", "libubsan.so")]
    if None in runtimes:
        pytest.skip("no AddressSanitizer or UBSan runtime for the extension compiler")
    module = build_kernel(tmp_path, "-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
                          "-fno-sanitize-recover=undefined")
    done = run_parity_cases(module, LD_PRELOAD=" ".join(runtimes), PYTHONMALLOC="malloc",
                            ASAN_OPTIONS="detect_leaks=0:malloc_fill_byte=0:max_malloc_fill_size=1048576",
                            UBSAN_OPTIONS="print_stacktrace=1")
    report = done.stderr[-4000:]
    assert "Sanitizer" not in done.stderr and "runtime error" not in done.stderr, report
    assert done.returncode == 0 and done.stdout == "ok\n", report


def _kernel_selection(setup):
    """Runs setup, then imports raag._kernel in a child interpreter, and
    returns the messages of the warnings the import emitted and the kernel
    name it selected."""
    script = "\n".join([
        "import sys, types, warnings",
        setup,
        "with warnings.catch_warnings(record=True) as caught:",
        "    warnings.simplefilter('always')",
        "    from raag._kernel import kernel_name",
        "for w in caught:",
        "    print(w.category.__name__, w.message)",
        "print(kernel_name())",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_missing_extension_selects_pure_kernel_silently():
    assert _kernel_selection("sys.modules['raag._speedups'] = None") == ["pure"]


def test_broken_extension_warns_and_selects_pure_kernel():
    # a built module without the kernel entry points, like a stale build
    lines = _kernel_selection("sys.modules['raag._speedups'] = types.ModuleType('raag._speedups')")
    assert len(lines) == 2 and lines[1] == "pure"
    assert lines[0].startswith("RuntimeWarning raag._speedups failed to import")
    assert "cannot import name" in lines[0]
