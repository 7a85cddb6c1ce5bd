import gc
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

import raag
from raag import extension, graphs

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_layers.py"


@pytest.fixture
def bench():
    """The benchmark script as a module; the raag_against modules it loads
    are dropped afterwards."""
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for k in [k for k in sys.modules if k.split(".")[0] == "raag_against"]:
        del sys.modules[k]


def _copy_of_raag(tmp_path):
    src = tmp_path / "other" / "src"
    shutil.copytree(SCRIPT.parent.parent / "src" / "raag", src / "raag",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return src


def test_a_label_already_in_the_file_is_refused_before_measuring(bench, tmp_path, monkeypatch):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": {"parent-1": {}, "change-1": {}}}))
    before = out.read_bytes()
    monkeypatch.setattr(bench, "rows", lambda: pytest.fail("measured a refused run"))
    monkeypatch.setattr(sys, "argv", ["bench_layers.py", "--out", str(out), "--label", "change-1"])
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
    other_src = _copy_of_raag(tmp_path)
    calls = []

    def tiny_rows(r, *pool):
        side = "this" if r.extension is bench.THIS.extension else "against"
        return [("ext_ball", "one call", lambda: calls.append(side))]

    monkeypatch.setattr(bench, "kernel_rows", lambda r: [])
    monkeypatch.setattr(bench, "ball_rows", tiny_rows)
    monkeypatch.setattr(bench, "graph_rows", lambda r, pool: [])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: [])
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_layers.py", "--out", str(out), "--label", "interleaved-1",
                                      "--against", str(other_src)])
    bench.main()
    n = bench.INTERLEAVED_REPEATS
    assert calls == [side for k in range(n) for side in (("this", "against") if k % 2 == 0 else ("against", "this"))]
    run = json.loads(out.read_text())["runs"]["interleaved-1"]
    assert run["against"] == str(other_src) and run["repeats"] == n
    [row] = run["rows"]
    assert row["layer"] == "ext_ball" and row["case"] == "one call" and 0 <= row["this_faster"] <= n
    for side in ("this", "against"):
        low, high = row[f"{side}_quartiles_s"]
        assert row[f"{side}_min_s"] <= low <= row[f"{side}_s"] <= high


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
    # the cases of the plain run's kernel rows: three workloads, two functions
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
    monkeypatch.setattr(bench, "kernel_rows", lambda r: [("kernel", "one kernel call", lambda: None)])
    monkeypatch.setattr(bench, "ball_rows", lambda r: [("ext_ball", "one ball", lambda: None)])
    monkeypatch.setattr(bench, "graph_rows", lambda r, pool: [])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: [])
    rows = bench.interleaved_rows(bench.load_checkout(other_src))
    assert [(row["layer"], row["case"]) for row in rows] == [("kernel", "one kernel call"), ("ext_ball", "one ball")]


def test_interleaved_repetitions_run_with_the_collector_collected_and_off(bench, tmp_path, monkeypatch):
    other_src = _copy_of_raag(tmp_path)
    events = []

    class RecordingGC:
        def collect(self):
            events.append("collect")
            return gc.collect()

        def disable(self):
            events.append("disable")
            gc.disable()

        def enable(self):
            events.append("enable")
            gc.enable()

    def tiny_rows(r):
        return [("ext_ball", "one call", lambda: events.append(("run", gc.isenabled())))]

    monkeypatch.setattr(bench, "gc", RecordingGC())
    monkeypatch.setattr(bench, "kernel_rows", lambda r: [])
    monkeypatch.setattr(bench, "ball_rows", tiny_rows)
    monkeypatch.setattr(bench, "graph_rows", lambda r, pool: [])
    monkeypatch.setattr(bench, "extract_long_pool", lambda: [])
    bench.interleaved_rows(bench.load_checkout(other_src))
    assert events == ["collect", "disable", ("run", False), "enable"] * (2 * bench.INTERLEAVED_REPEATS)
    assert gc.isenabled()
