"""tools/bench_ab.py: the exit status follows the runs' correctness."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_ab(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "export_revision", lambda revision, directory: None)
    monkeypatch.setattr(module, "export_worktree", lambda directory: None)
    return module


def fake_runs(module, monkeypatch, incorrect):
    """run_bench stand-in: every metric 1.0, `correct` False for the
    (side, pair) entries in `incorrect`."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = {"base": 0, "change": 0}

    def run_bench(root, workload, seed, seconds):
        side = root.name
        calls[side] += 1
        return {"correct": (side, calls[side]) not in incorrect,
                "metrics": dict.fromkeys(names, 1.0), "sha": "x", "passes": 3}

    monkeypatch.setattr(module, "run_bench", run_bench)
    monkeypatch.setattr(sys, "argv", ["bench_ab.py", "--workload", "audit", "--seed", "1",
                                      "--pairs", "3", "--seconds", "1"])


def test_all_correct_exits_zero(bench_ab, monkeypatch, capsys):
    fake_runs(bench_ab, monkeypatch, set())
    assert bench_ab.main() == 0
    captured = capsys.readouterr()
    assert "all runs correct: True" in captured.out
    assert "incorrect" not in captured.err


def test_incorrect_run_exits_one_and_is_named(bench_ab, monkeypatch, capsys):
    fake_runs(bench_ab, monkeypatch, {("change", 2), ("base", 3)})
    assert bench_ab.main() == 1
    captured = capsys.readouterr()
    assert "all runs correct: False" in captured.out
    assert "incorrect outputs: base pair 3, change pair 2" in captured.err
