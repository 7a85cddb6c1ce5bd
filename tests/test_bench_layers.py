import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_layers.py"


def test_a_label_already_in_the_file_is_refused_before_measuring(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
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
