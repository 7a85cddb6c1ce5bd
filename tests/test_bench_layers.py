import gc
import importlib.util
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

import raag
from raag import _kernel, extension, graphs

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_layers.py"
# one kernel row of one job, for runs whose kernels are checked but not timed
ONE_KERNEL_JOB = [("one", [([1, -2, -1], ((1,), (0,)))])]


@pytest.fixture
def bench():
    """The benchmark script as a module; the raag_against and raag_self
    modules it loads are dropped afterwards."""
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for k in [k for k in sys.modules if k.split(".")[0] in ("raag_against", "raag_self")]:
        del sys.modules[k]


@pytest.fixture
def gc_events(bench, monkeypatch):
    """The benchmark's calls to the collector, recorded in order and passed
    on to gc."""
    events = []
    calls = {name: lambda name=name: events.append(name) or getattr(gc, name)()
             for name in ("collect", "disable", "enable")}
    monkeypatch.setattr(bench, "gc", SimpleNamespace(**calls))
    return events


def _copy_of_raag(tmp_path):
    src = tmp_path / "other" / "src"
    shutil.copytree(SCRIPT.parent.parent / "src" / "raag", src / "raag",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return src


def test_a_label_already_in_the_file_is_refused_before_measuring(bench, tmp_path, monkeypatch):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": {"parent-1": {}, "change-1": {}}}))
    before = out.read_bytes()
    monkeypatch.setattr(bench, "load_checkout", lambda *args: pytest.fail("loaded a checkout for a refused run"))
    monkeypatch.setattr(sys, "argv", ["bench_layers.py", "--out", str(out), "--label", "change-1",
                                      "--against", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code != 0
    assert "'change-1'" in str(exc.value.code) and "parent-1, change-1" in str(exc.value.code)
    assert out.read_bytes() == before


def test_another_checkout_loads_beside_this_one(bench, tmp_path):
    mine = {k: m for k, m in sys.modules.items() if k == "raag" or k.startswith("raag.")}
    other = bench.load_checkout(_copy_of_raag(tmp_path))
    assert {k: m for k, m in sys.modules.items() if k == "raag" or k.startswith("raag.")} == mine
    assert sys.modules["raag_against.extension"] is other.extension is not extension
    assert Path(other.extension.__file__).is_relative_to(tmp_path)
    # the other checkout's modules bind one another, not this checkout's
    assert other.extension.Graph is other.graphs.Graph is not graphs.Graph
    ball = other.extension.ext_ball(other.graphs.path_graph(4), 2)
    assert ball.nbr == extension.ext_ball(graphs.path_graph(4), 2).nbr
    assert sys.modules["raag"] is raag


def test_interleaved_rows_alternate_the_two_checkouts(bench, tmp_path, monkeypatch):
    # each row: this checkout against the other, then against a copy of
    # itself, the two sides alternating; the copy lives in a temporary
    # directory that is gone after the run, and no bytecode is written
    other_src = _copy_of_raag(tmp_path)
    temp_root = tmp_path / "temp_root"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
    calls = []

    def tiny_rows(r, pool):
        where = Path(r.extension.__file__)
        side = "this" if r is bench.THIS else "against" if where.is_relative_to(other_src) else "self"
        assert side != "self" or where.is_relative_to(temp_root)
        return [("ext_ball", "one call", lambda: calls.append(side))]

    monkeypatch.setattr(bench, "layer_rows", tiny_rows)
    monkeypatch.setattr(bench, "memory_jobs", lambda: [])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: [])
    monkeypatch.setattr(bench, "kernel_jobs", lambda: ONE_KERNEL_JOB)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_layers.py", "--out", str(out), "--label", "interleaved-1",
                                      "--against", str(other_src)])
    bench.main()
    n = bench.INTERLEAVED_REPEATS
    assert calls == [side for other in ("against", "self") for k in range(n)
                     for side in (("this", other) if k % 2 == 0 else (other, "this"))]
    assert list(temp_root.iterdir()) == [] and list(other_src.rglob("__pycache__")) == []
    run = json.loads(out.read_text())["runs"]["interleaved-1"]
    assert run["against"] == str(other_src) and run["repeats"] == n
    [row] = run["rows"]
    assert row["layer"] == "ext_ball" and row["case"] == "one call"
    for comparison in (row, row["self"]):
        assert 0 <= comparison["this_faster"] <= n
        for side in ("this", "against"):
            low, high = comparison[f"{side}_quartiles_s"]
            assert comparison[f"{side}_min_s"] <= low <= comparison[f"{side}_s"] <= high


def test_interleaved_kernel_rows_call_each_checkouts_own_kernel(bench, tmp_path, monkeypatch):
    other = bench.load_checkout(_copy_of_raag(tmp_path))
    assert other._kernel is not bench.THIS._kernel
    real_jobs = bench.kernel_jobs()
    monkeypatch.setattr(bench, "kernel_jobs", lambda: [(name, jobs[:3]) for name, jobs in real_jobs])
    calls = []
    for side, r in (("this", bench.THIS), ("against", other)):
        for function in ("normalize", "survivors"):
            def recording(*job, side=side, function=function, real=getattr(r._kernel, function)):
                calls.append((side, function))
                return real(*job)
            monkeypatch.setattr(r._kernel, function, recording)
    this_rows, other_rows = bench.kernel_rows(bench.THIS), bench.kernel_rows(other)
    # the kernel rows: three workloads, two functions
    assert [case for _, case, _ in this_rows] == [case for _, case, _ in other_rows]
    assert len(this_rows) == 6 and {layer for layer, _, _ in this_rows} == {"kernel"}
    for (_, case, run), (_, _, other_run) in zip(this_rows, other_rows):
        function = case.split(":")[0]
        calls.clear()
        run()
        assert calls == [("this", function)] * 3
        calls.clear()
        other_run()
        assert calls == [("against", function)] * 3


def test_interleaved_rows_start_with_the_kernel_rows(bench, tmp_path, monkeypatch):
    other_src = _copy_of_raag(tmp_path)
    monkeypatch.setattr(bench, "layer_rows", lambda r, pool: [("kernel", "one kernel call", lambda: None),
                                                              ("ext_ball", "one ball", lambda: None)])
    monkeypatch.setattr(bench, "memory_jobs", lambda: [("survivors", "one peak", ([1, -1], ((),)))])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: [])
    monkeypatch.setattr(bench, "kernel_jobs", lambda: ONE_KERNEL_JOB)
    rows = bench.interleaved_rows(bench.load_checkout(other_src), bench.load_checkout(other_src, "raag_self"))
    assert [(row["layer"], row["case"]) for row in rows] == [
        ("kernel", "one kernel call"), ("kernel memory", "one peak"), ("ext_ball", "one ball")]
    # each checkout's kernel, and the copy's, has its peak
    assert {key for key in rows[1] if key.endswith("_peak_mb")} == {"this_peak_mb", "against_peak_mb", "self_peak_mb"}


def test_interleaved_repetitions_run_with_the_collector_collected_and_off(bench, tmp_path, gc_events, monkeypatch):
    other_src = _copy_of_raag(tmp_path)
    monkeypatch.setattr(bench, "layer_rows", lambda r, pool: [
        ("ext_ball", "one call", lambda: gc_events.append(("run", gc.isenabled())))])
    monkeypatch.setattr(bench, "memory_jobs", lambda: [])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: [])
    monkeypatch.setattr(bench, "kernel_jobs", lambda: ONE_KERNEL_JOB)
    bench.interleaved_rows(bench.load_checkout(other_src), bench.load_checkout(other_src, "raag_self"))
    assert gc_events == ["collect", "disable", ("run", False), "enable"] * (4 * bench.INTERLEAVED_REPEATS)
    assert gc.isenabled()


def test_interleaved_extract_rows_run_on_each_checkouts_own_pool(bench, tmp_path):
    other = bench.load_checkout(_copy_of_raag(tmp_path))
    pool = bench.extract_long_pool()[:8]
    sides = (bench.THIS, other)
    rows = [bench.extract_rows(r, bench.fresh_pool(pool, r)) for r in sides]
    assert [(layer, case) for layer, case, _ in rows[0]] == [(layer, case) for layer, case, _ in rows[1]]
    assert [layer for layer, _, _ in rows[0]] == ["extract", "extract"]
    for r, (cold, warm) in zip(sides, rows):
        warm[2]()
        setup, run = cold[2]
        first, second = setup(), setup()
        assert len(first) == 8 and all(type(h) is r.embedding.HomSpec for h in first + second)
        # every repetition of the cold row reads new image words
        assert all(a.images[v] is not b.images[v] for a, b in zip(first, second) for v in a.images)
        assert [repr(out) for out in run(first)] == [repr(bench.embedding.extract_full(h)) for h in pool]


def test_a_timed_pair_builds_its_input_before_the_collection(bench, gc_events):
    bench.timed((lambda: gc_events.append("setup") or "input", lambda arg: gc_events.append(("run", arg))))
    assert gc_events == ["setup", "collect", "disable", ("run", "input"), "enable"]


def test_the_run_times_every_row_in_order(bench, tmp_path, monkeypatch):
    # every row of layer_rows on each side, the words, memory and
    # instance-generation rows included
    pool, real_jobs, real_memory = bench.extract_long_pool()[:8], bench.kernel_jobs(), bench.memory_jobs()
    monkeypatch.setattr(bench, "kernel_jobs", lambda: [(name, jobs[:3]) for name, jobs in real_jobs])
    monkeypatch.setattr(bench, "memory_jobs", lambda: [(f, case, (codes[:20], nn))
                                                       for f, case, (codes, nn) in real_memory])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: pool)
    monkeypatch.setattr(bench, "timed", lambda run: 0.0)
    other_src = _copy_of_raag(tmp_path)
    rows = bench.interleaved_rows(bench.load_checkout(other_src), bench.load_checkout(other_src, "raag_self"))
    cases = [(row["layer"], row["case"]) for row in rows]
    layers = [layer for layer, _ in cases]
    assert len(cases) == 34 and layers[:6] == ["kernel"] * 6 and layers[6:9] == ["kernel memory"] * 3
    assert layers.count("words") == 6
    assert ("harness", "instance generation of run_harness(500 trials, seed 42)") in cases


def test_kernels_that_disagree_stop_the_run_before_anything_is_timed(bench, tmp_path, monkeypatch):
    other = bench.load_checkout(_copy_of_raag(tmp_path))
    monkeypatch.setattr(other._kernel, "survivors", lambda codes, noncomm: [])
    monkeypatch.setattr(bench, "kernel_jobs", lambda: ONE_KERNEL_JOB)
    for name in ("timed", "peak_mb", "layer_rows"):
        monkeypatch.setattr(bench, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(SystemExit) as exc:
        bench.interleaved_rows(other, bench.load_checkout(_copy_of_raag(tmp_path / "copy"), "raag_self"))
    assert str(exc.value.code).startswith("kernel row survivors: one: ")


def test_the_run_needs_another_checkout(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bench_layers.py", "--out", str(tmp_path / "bench.json")])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 2 and "--against" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_a_built_checkout_and_its_self_copy_each_run_their_own_compiled_kernel(bench, compiled_kernel, tmp_path):
    # the copy against this checkout: the compiled kernel on this side and
    # on the control's, each loaded from its own directory
    mine = (_kernel.kernel_name(), _kernel.normalize, _kernel.survivors)
    built = _copy_of_raag(tmp_path)
    shutil.copy(compiled_kernel.__file__, built / "raag")
    sides = [bench.load_checkout(built), bench.load_checkout(bench.copy_checkout(built / "raag", tmp_path / "self"),
                                                              "raag_self")]
    assert [side._kernel.kernel_name() for side in sides] == ["compiled", "compiled"]
    assert sides[0]._kernel.normalize is not sides[1]._kernel.normalize
    assert Path(sides[1]._kernel.__file__).is_relative_to(tmp_path / "self")
    assert sides[0]._kernel.normalize([1, -2, -1, 2], ((1,), (0,))) == sides[1]._kernel.normalize(
        [1, -2, -1, 2], ((1,), (0,)))
    assert (_kernel.kernel_name(), _kernel.normalize, _kernel.survivors) == mine
    assert sys.modules["raag._kernel"] is _kernel
