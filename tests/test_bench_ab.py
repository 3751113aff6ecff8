"""tools/bench_ab.py: the exit status follows the runs' correctness, and the
report gives each side's src/ line count, per-operation-group times and
failure counts."""

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


def fake_runs(module, monkeypatch, incorrect, failures=None, group_times=None):
    """run_bench stand-in: every metric 1.0, `correct` False for the
    (side, pair) entries in `incorrect`, each side's (fail_share, failed)
    from `failures` (default (0.0625, 0) on both), and the one operation
    group's time in each pair from `group_times` (default 1.0)."""
    failures = failures or {}
    group_times = group_times or {}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = {"base": 0, "change": 0}

    def run_bench(root, workload, seed, seconds):
        side = root.name
        calls[side] += 1
        return {"correct": (side, calls[side]) not in incorrect,
                "metrics": dict.fromkeys(names, 1.0), "sha": "x", "passes": 3,
                "groups": {"audit - em": group_times.get(side, [1.0] * 3)[calls[side] - 1]},
                **dict(zip(("fail_share", "failed"), failures.get(side, (0.0625, 0))))}

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


def test_src_line_counts(bench_ab, monkeypatch, capsys):
    def write_src(directory, files):
        for name, text in files.items():
            path = directory / "src" / "pkg" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    # counted as wc -l counts: newlines in .py files only, at any depth
    monkeypatch.setattr(bench_ab, "export_revision", lambda revision, directory: write_src(
        directory, {"a.py": "x = 1\ny = 2\n", "notes.txt": "1\n2\n3\n"}))
    monkeypatch.setattr(bench_ab, "export_worktree", lambda directory: write_src(
        directory, {"a.py": "x = 1\n", "sub/b.py": "y = 2\nz = 3\nw = 4"}))
    fake_runs(bench_ab, monkeypatch, set())
    assert bench_ab.main() == 0
    assert "src/ lines: base 2, change 3" in capsys.readouterr().out


def test_op_group_table(bench_ab, monkeypatch, capsys):
    # exact_enum's pass: ratio xor22 alg3, ratio xor16 em_baseline,
    # verify-hardness, then 320 alg6 solves on bip80 and bip1000
    ops = 3 + 320
    record = {"calib_s": [0.002, 0.006],  # mean 0.004 = CALIB_REF_S: scale 1
              "op_s": [[float(i) for i in range(ops)], [2.0 * i for i in range(ops)]]}
    groups = bench_ab.group_seconds(ROOT, "exact_enum", 1, record)
    bip1000 = [3 + i for i in range(320) if i % 16 == 15]
    assert list(groups) == ["ratio xor22 alg3", "ratio xor16 em_baseline", "verify-hardness - -",
                            "solve bip80 alg6", "solve bip1000 alg6"]
    assert groups["ratio xor16 em_baseline"] == 1.5  # median of 1 and 2
    assert groups["solve bip1000 alg6"] == 1.5 * sum(bip1000)
    assert groups["solve bip80 alg6"] == 1.5 * (sum(range(3, ops)) - sum(bip1000))
    assert bench_ab.group_seconds(ROOT, "exact_enum", 1, dict(record, calib_s=[0.008]))[
        "verify-hardness - -"] == 0.5 * 3.0  # median of 2 and 4, scale 0.5

    def group_row(group_times):
        fake_runs(bench_ab, monkeypatch, set(), group_times=group_times)
        assert bench_ab.main() == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("op group"))
        assert header.split()[-1] == "wins"
        return lines[lines.index(header) + 1].split()

    assert group_row(None) == ["audit", "-", "em", "1", "1", "1.0000", "0/3"]
    # wins count the pairs whose change time is below the base's, not the medians
    assert group_row({"base": [1.0, 2.0, 3.0], "change": [1.5, 1.0, 2.0]}) == [
        "audit", "-", "em", "2", "1.5", "0.7500", "2/3"]
    assert group_row({"base": [1.0, 2.0, 3.0], "change": [0.5, 2.5, 3.5]}) == [
        "audit", "-", "em", "2", "2.5", "1.2500", "1/3"]


@pytest.mark.parametrize("failures, flagged", [
    ({}, False),
    ({"base": (0.0625, 2), "change": (0.05, 1)}, False),
    ({"change": (0.07, 0)}, True),
    ({"change": (0.0625, 1)}, True),
])
def test_failures_reported_and_flagged(bench_ab, monkeypatch, capsys, failures, flagged):
    fake_runs(bench_ab, monkeypatch, set(), failures)
    assert bench_ab.main() == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("median fail_share"))
    base, change = (failures.get(side, (0.0625, 0)) for side in ("base", "change"))
    assert line.startswith(f"median fail_share: base {base[0]:.4g}, change {change[0]:.4g}; "
                           f"failed: base {3 * base[1]}, change {3 * change[1]}")
    assert line.endswith("; FLAG: more failures on change") is flagged
