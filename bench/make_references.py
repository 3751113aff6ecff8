"""Regenerates references.json, the reference means the benchmark checks
its outputs against.

Usage, from the repository root (takes about 15 minutes on one core):

    python3 bench/make_references.py

For every instance set and every instance of mc_large and exact_enum, it
runs each checked table cell through the CLI with REF_FACTOR times the
benchmark's trials, the alg6 solves REF_SOLVES times, and the exact
optimum of every instance with n <= 26 by an enumeration written here,
independent of privcsp. Seeds start at REF_SEED so that no benchmark
operation shares a trial stream with a reference. Entries are keyed by
the sha256 of the instance file, so a generator that changes its output
shows up as a missing reference.
"""

import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run
import workloads as wl

REF_FACTOR = 20
REF_SOLVES = 3000
REF_SEED = 1 << 40


def exact_optimum(doc: dict) -> float:
    """Maximum number of satisfied sign-form constraints, by enumerating
    every assignment in blocks."""
    n = doc["n"]
    cons = [(c["scope"], c["b"]) for c in doc["constraints"]]
    best = 0.0
    bits = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 18):
        idx = np.arange(start, min(start + (1 << 18), 1 << n), dtype=np.int64)
        x = np.where((idx[:, None] >> bits) & 1 == 1, 1, -1)
        value = np.zeros(idx.size)
        for scope, b in cons:
            value += np.prod(x[:, scope], axis=1) == b
        best = max(best, float(value.max()))
    return best


def with_trials(argv: list[str], trials: int, seed: int) -> list[str]:
    argv = list(argv)
    argv[argv.index("--trials") + 1] = str(trials)
    argv[argv.index("--seed") + 1] = str(seed)
    return argv


def main() -> int:
    cli = run.import_cli()
    run.OUT_DIR.mkdir(exist_ok=True)
    refs: dict = {"recorded_at": run.git_revision(), "instances": {}}
    seed = REF_SEED
    for workload in ("mc_large", "exact_enum"):
        for instance_set in range(wl.INSTANCE_SETS):
            t0 = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
                paths = run.make_instances(cli, workload, instance_set, Path(tmp))
                docs = {name: json.loads(p.read_text()) for name, p in paths.items()}
                shas = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
                for name, doc in docs.items():
                    entry = refs["instances"].setdefault(shas[name], {"name": name, "cells": {}})
                    if "constraints" in doc and doc["n"] <= 26:
                        entry["opt"] = exact_optimum(doc)
                ops = wl.ops(workload, 0)
                fmt = {k: str(v) for k, v in paths.items()}
                solves: dict[str, list[float]] = {}
                for op in ops:
                    argv = [a.format(**fmt) for a in op.argv]
                    if op.kind in ("sweep", "ratio"):
                        trials = REF_FACTOR * int(argv[argv.index("--trials") + 1])
                        seed += 1
                        rc, _, out, err = run.run_op(cli, with_trials(argv, trials, seed))
                        outcome, errors, facts = wl.check(
                            wl.Op(op.kind, tuple(with_trials(op.argv, trials, seed)), op.runs, op.instance),
                            rc, out, docs)
                        if outcome != "ok":
                            raise RuntimeError(f"{argv}: {errors} {err}")
                        for key, mean, se, _ in facts["cells"]:
                            refs["instances"][shas[op.instance]]["cells"][key] = {
                                "mean": mean, "se": se, "trials": trials}
                    elif op.kind == "solve" and op.instance not in solves and op.instance == "bip80":
                        values = solves.setdefault(op.instance, [])
                        for _ in range(REF_SOLVES):
                            seed += 1
                            argv[argv.index("--seed") + 1] = str(seed)
                            rc, _, out, err = run.run_op(cli, argv)
                            outcome, errors, facts = wl.check(op, rc, out, docs)
                            if outcome == "failed":
                                raise RuntimeError(f"{argv}: {errors} {err}")
                            if outcome == "ok":
                                values.append(facts["value"])
                        refs["instances"][shas[op.instance]]["cells"][f"alg6-solve {float(wl.ALG6_EPS):g}"] = {
                            "mean": statistics.fmean(values),
                            "se": statistics.stdev(values) / len(values) ** 0.5,
                            "trials": len(values)}
            print(f"{workload} set {instance_set}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    out_path = Path(__file__).parent / "references.json"
    out_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
