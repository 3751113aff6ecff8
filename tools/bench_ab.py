"""A/B runs of the benchmark: a base revision against the working tree.

Usage, from the repository root:

    python3 tools/bench_ab.py --workload mc_large --seed 14 --pairs 10 --seconds 20 --base HEAD

Exports the committed files of the base revision (git archive) and the
working tree's files (tracked and untracked, minus ignored ones) into two
temporary directories, so both sides start alike, with no bytecode caches
or earlier bench output. It then runs ``bench/run.py`` alternately in the
two copies, for the given number of pairs. Pair i runs the base first
when i is even and the working tree first when it is odd, so slow drift
of the machine's speed falls on both sides alike. Each run is a fresh
``python3`` process with ``--trace 0``.

For every end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles, the change's median relative to the base, the
number of pairs the working tree wins, and whether the gap between the
medians exceeds the base's interquartile range. It also reports whether
every run checked its outputs as correct and whether ``outputs_sha256``
is the same on both sides, and each side's median number of timed passes
(``len(pass_s)`` in the result file), and each side's ``src/`` line
count (newlines in its ``src/**/*.py`` files, as ``wc -l`` counts them).
It gives each side's median ``fail_share`` (operations refused at the
enumeration cap, over those attempted) and total ``failed`` count (crashed
operations), both from the result file, and flags the change when either
is higher than the base's, since a larger share of failing operations
rejects a change.
A second table shows where the time goes: one row per operation group
(the operations of ``bench/workloads.py`` with the same kind, instance
and algorithm or mechanism), with each side's median over its runs of the
group's median per-pass time, taken from the result file's ``op_s`` and
scaled by ``CALIB_REF_S`` over the mean of its ``calib_s``, as
``bench/run.py`` scales its end-to-end times, change/base, and the number
of pairs in which the change's group time is below the base's: a group's
ratio drifts by several percent between runs, so read it with its wins.
The timed phase repeats passes for ``--seconds``, so a faster side runs
more of them, and ``peak_rss_mb`` rises with the pass count: read a
small RSS rise next to the two counts.
A run whose outputs ``bench/run.py`` reports as incorrect makes the exit
status 1, after the table, with each such run named by side and pair.
The temporary copies are removed at the end. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_revision(revision: str, directory: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 / 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(directory, **safe)


def export_worktree(directory: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (directory / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, directory / name)


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (root / ".bench_out" / f"result-{workload}-s{seed}-t0.json").read_text()
    )
    return {
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "sha": record["outputs_sha256"],
        "passes": len(record["pass_s"]),
        "fail_share": record["fail_share"],
        "failed": record["failed"],
        "groups": group_seconds(root, workload, seed, record),
    }


def op_groups(root: Path, workload: str, seed: int) -> dict[str, list[int]]:
    """Indices of the workload's operations per "kind instance algorithm"
    label (the algorithm or mechanism; "-" for none), in order of first
    appearance, from the copy's bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    groups: dict[str, list[int]] = {}
    for i, op in enumerate(workloads.ops(workload, seed)):
        name = next((op.argv[op.argv.index(flag) + 1] for flag in ("--algorithm", "--mechanism")
                     if flag in op.argv), "-")
        groups.setdefault(f"{op.kind} {op.instance or '-'} {name}", []).append(i)
    return groups


def calib_ref_s(root: Path) -> float:
    """The value of CALIB_REF_S assigned in the copy's bench/run.py."""
    tree = ast.parse((root / "bench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CALIB_REF_S" for t in node.targets))


def group_seconds(root: Path, workload: str, seed: int, record: dict) -> dict[str, float]:
    """Each operation group's median per-pass seconds over the record's
    untraced passes (op_s), scaled by CALIB_REF_S / mean(calib_s)."""
    scale = calib_ref_s(root) / statistics.fmean(record["calib_s"])
    return {label: scale * statistics.median(sum(times[i] for i in ops) for times in record["op_s"])
            for label, ops in op_groups(root, workload, seed).items()}


def src_lines(root: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, runs: dict[str, list[dict]], src_counts: dict[str, int]) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = [f"{workload}: {len(runs['base'])} pairs (base vs change)",
             f"{'metric':<14} {'base q1/med/q3':>34} {'change q1/med/q3':>34} "
             f"{'change/base':>11} {'wins':>6}  gap>IQR"]
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        bq, cq = quartiles(base), quartiles(change)
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        gap = abs(cq[1] - bq[1]) > bq[2] - bq[0]
        ratio = cq[1] / bq[1] if bq[1] else float("nan")
        lines.append(
            f"{name:<14} {' / '.join(f'{v:.4g}' for v in bq):>34} "
            f"{' / '.join(f'{v:.4g}' for v in cq):>34} {ratio:>11.4f} "
            f"{wins:>3}/{len(base):<2}  {'yes' if gap else 'no'}"
        )
    lines.append(f"{'op group':<40} {'base s/pass':>12} {'change s/pass':>14} {'change/base':>11} "
                 f"{'wins':>6}")
    for label in [g for g in runs["base"][0]["groups"] if g in runs["change"][0]["groups"]]:
        times = {side: [r["groups"][label] for r in runs[side]] for side in ("base", "change")}
        base, change = (statistics.median(times[side]) for side in ("base", "change"))
        wins = sum(c < b for b, c in zip(times["base"], times["change"]))
        ratio = change / base if base else float("nan")
        lines.append(f"{label:<40} {base:>12.4g} {change:>14.4g} {ratio:>11.4f} "
                     f"{wins:>3}/{len(times['base']):<2}")
    correct = all(r["correct"] for side in runs.values() for r in side)
    shas = {side: {r["sha"] for r in rs} for side, rs in runs.items()}
    same = len(shas["base"] | shas["change"]) == 1
    lines.append("median passes: " + ", ".join(
        f"{side} {statistics.median(r['passes'] for r in rs):g}" for side, rs in runs.items()))
    lines.append(f"src/ lines: base {src_counts['base']}, change {src_counts['change']}")
    share = {side: statistics.median(r["fail_share"] for r in rs) for side, rs in runs.items()}
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    more = share["change"] > share["base"] or failed["change"] > failed["base"]
    lines.append(f"median fail_share: base {share['base']:.4g}, change {share['change']:.4g}; "
                 f"failed: base {failed['base']}, change {failed['change']}"
                 + ("; FLAG: more failures on change" if more else ""))
    lines.append(f"all runs correct: {correct}")
    lines.append(f"outputs_sha256 identical: {same} "
                 f"(base {sorted(shas['base'])}, change {sorted(shas['change'])})")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    work = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    try:
        roots = {"base": work / "base", "change": work / "change"}
        export_revision(args.base, roots["base"])
        export_worktree(roots["change"])
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_bench(roots[side], args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} trials_per_s={runs[side][-1]['metrics'].get('trials_per_s', float('nan')):.4g}"
                for side in ("base", "change")), file=sys.stderr, flush=True)
        print(report(args.workload, runs, {side: src_lines(root) for side, root in roots.items()}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    incorrect = [f"{side} pair {i + 1}" for side, rs in runs.items()
                 for i, r in enumerate(rs) if not r["correct"]]
    if incorrect:
        print("incorrect outputs: " + ", ".join(incorrect), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
