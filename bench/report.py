"""Runs every workload and prints one table of all metrics, with the
output checks and a determinism check.

Usage, from the repository root:

    python3 bench/report.py [--seed 5] [--seconds 20] [workload ...]

Each workload runs four times in fresh interpreters at the same seed, as
bench/run.py: untraced twice, then traced twice. The table shows the
end-to-end metrics of the first untraced run, the per-layer metrics and
tracing overhead of the first traced run, and whether all four runs
passed their output checks, printed identical CLI outputs (stdout and
exit codes without the wall_ms column) and, traced, identical exact
counts. Exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((run.OUT_DIR / f"result-{workload}-s{seed}-t{trace}.json").read_text())


def counts(result: dict) -> dict:
    return {name: {k: v for k, v in st.items() if k in run.COUNT_STATS}
            for name, st in result["per_function"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        runs = [one_run(workload, args.seed, args.seconds, trace) for trace in (0, 0, 1, 1)]
        for label, result in (("end-to-end", runs[0]), ("per-layer", runs[2])):
            for name, m in result["metrics"].items():
                print(f"{workload:<10} {label:<10} {name:<46} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:<10} fail_share={runs[0]['fail_share']:.4g} refused={runs[0]['refused']} "
              f"attempted={runs[0]['attempted']} audit_false_alarms={runs[0]['audit_false_alarms']}")
        checks = {
            "outputs correct in 4 runs": all(r["correct"] for r in runs),
            "outputs identical in 4 runs": len({r["outputs_sha256"] for r in runs}) == 1,
            "counts identical in 2 traced runs": counts(runs[2]) == counts(runs[3]),
        }
        for name, passed in checks.items():
            print(f"{workload:<10} {name}: {'yes' if passed else 'NO'}")
        for result in runs:
            for error in result["errors"][:5]:
                print(f"{workload:<10} ERROR {error}")
        ok &= all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
