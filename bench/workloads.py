"""Workloads of the privcsp CLI benchmark and the checks on their outputs.

Each workload is a fixed list of CLI operations (one ``privcsp.cli.main``
call each) over instance files made with ``privcsp gen``. The benchmark
seed picks one of ``INSTANCE_SETS`` instance sets (``seed % INSTANCE_SETS``)
and the ``--seed`` of every operation. Reference means for every checked
statistic live in ``references.json``, one entry per instance file,
keyed by the file's sha256.

Why these three workloads: each puts most of its time in a different
module, so a gain in one module should show on one workload and leave the
other two unchanged.

- ``mc_large``: Monte-Carlo sweeps above the n <= 26 oracle cap. Time goes
  to the per-trial loop in ``harness``, per-trial re-validation in
  ``csp_core`` and the ``algo_*`` kernels; the noisy-degree high sets are
  almost always empty, so next to nothing is enumerated.
- ``exact_enum``: exact small-instance work. Brute-force optima over 2^22
  assignments, an exponential mechanism over all 2^16 assignments on every
  trial, the hard-family check, and private Max-Cut (alg6) solves. Time
  goes to ``csp_core.assignment_blocks`` and the ``compile_values``
  evaluators. The alg6 solves on a 1000-vertex graph always stop at the
  enumeration cap (exit 3) today; the solves on an 80-vertex graph give
  the per-solve latency distribution.
- ``audit``: 5*10^5-trial empirical privacy audits. Time goes to the harness
  adapters that turn output rows into tuples and to the ``Counter``
  bucketing in ``oracles.empirical_epsilon``; the kernels are a small part.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

INSTANCE_SETS = 4
EXIT_OK, EXIT_AUDIT_FAILURE, EXIT_RESOURCE = 0, 2, 3
# Tolerance, in combined standard errors, of every check against a reference mean.
SE_TOLERANCE = 4.0


@dataclass(frozen=True)
class Instance:
    """One instance file, made by ``privcsp gen`` with ``gen_argv`` plus
    ``--seed``. With ``cover_all`` the seed is the first of
    ``base_seed, base_seed + 1, ...`` whose instance leaves no variable
    without a constraint, so the enumeration size is the same in every
    instance set."""

    name: str
    gen_argv: tuple[str, ...]
    base_seed: int
    cover_all: bool = False


@dataclass(frozen=True)
class Op:
    """One CLI call. ``argv`` holds ``{name}`` placeholders for instance
    paths; ``runs`` counts the algorithm or mechanism runs it performs."""

    kind: str
    argv: tuple[str, ...]
    runs: int
    instance: str | None = None


def _kxor(n, m, k, *extra):
    return ("gen", "--kind", "kxor", "--n", str(n), "--m", str(m), "--k", str(k), *extra)


def _bipartite(a, b, m):
    return ("gen", "--kind", "random_bipartite", "--a", str(a), "--b", str(b), "--m", str(m))


def instances(workload: str, instance_set: int) -> list[Instance]:
    s = instance_set
    if workload == "mc_large":
        return [
            Instance("xor2", _kxor(240, 120, 2, "--triangle-free", "--max-degree", "2"), s),
            Instance("xor3", _kxor(90, 30, 3, "--triangle-free"), s),
            Instance("bip1000", _bipartite(500, 500, 5000), s),
        ]
    if workload == "exact_enum":
        return [
            Instance("xor22", _kxor(22, 18, 2, "--triangle-free"), s),
            Instance("xor16", _kxor(16, 14, 2), 1000 * s, cover_all=True),
            Instance("bip80", _bipartite(40, 40, 260), s),
            Instance("bip1000", _bipartite(500, 500, 5000), s),
        ]
    if workload == "audit":
        return []
    raise ValueError(f"unknown workload {workload!r}")


MC_SWEEPS = (
    ("alg1", "xor2"), ("alg2", "xor2"), ("alg3", "xor2"),
    ("alg3", "xor3"), ("alg_oddk", "xor3"),
    ("shearer", "bip1000"), ("dp_shearer", "bip1000"), ("alg5", "bip1000"),
)
MC_EPS = ("0.5", "1", "2")
MC_TRIALS = 50
ENUM_TRIALS = 200
SMALL_SOLVES = 300
CAPPED_SOLVES = 20
ALG6_EPS = "0.1"
AUDIT_MECHANISMS = ("randomized_response", "dp_shearer", "alg1", "em")
AUDIT_EPS = 1.0
AUDIT_TRIALS = 500_000


def ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; operation i runs with --seed seed*1000+i."""
    out: list[Op] = []

    def add(kind, runs, *args, instance=None):
        out.append(Op(kind, (kind, *args, "--seed", str(seed * 1000 + len(out))), runs, instance))

    if workload == "mc_large":
        for alg, inst in MC_SWEEPS:
            add("sweep", MC_TRIALS * len(MC_EPS), "--algorithm", alg, "--instance", "{%s}" % inst,
                "--eps", *MC_EPS, "--trials", str(MC_TRIALS), instance=inst)
    elif workload == "exact_enum":
        add("ratio", ENUM_TRIALS, "--algorithm", "alg3", "--instance", "{xor22}",
            "--eps", "1.0", "--trials", str(ENUM_TRIALS), instance="xor22")
        add("ratio", ENUM_TRIALS, "--algorithm", "em_baseline", "--instance", "{xor16}",
            "--eps", "1.0", "--trials", str(ENUM_TRIALS), instance="xor16")
        add("verify-hardness", 0, "--n", "20", "--size", "3", "--eps", "0.5")
        for i in range(SMALL_SOLVES + CAPPED_SOLVES):
            # one capped solve after every 15 small ones
            inst = "bip1000" if i % 16 == 15 else "bip80"
            add("solve", 1, "--algorithm", "alg6", "--instance", "{%s}" % inst,
                "--eps", ALG6_EPS, instance=inst)
    elif workload == "audit":
        for mech in AUDIT_MECHANISMS:
            add("audit", 2 * AUDIT_TRIALS, "--mechanism", mech, "--eps", str(AUDIT_EPS),
                "--trials", str(AUDIT_TRIALS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


WORKLOADS = ("mc_large", "exact_enum", "audit")


# ---------------------------------------------------------------- checks


def covers_all(doc: dict) -> bool:
    seen = set()
    for c in doc.get("constraints", []):
        seen.update(c["scope"])
    for u, v, _ in doc.get("edges", []):
        seen.update((u, v))
    return len(seen) == doc["n"]


def cut_recount(doc: dict, x: list[int]) -> float:
    """Total weight of cut edges, counted from the instance file itself."""
    return float(sum(w for u, v, w in doc["edges"] if x[u] != x[v]))


def _flag(argv: tuple[str, ...], name: str) -> list[str]:
    i = argv.index(name) + 1
    vals = []
    while i < len(argv) and not argv[i].startswith("--"):
        vals.append(argv[i])
        i += 1
    return vals


def _check_table(op: Op, out: str, doc: dict) -> tuple[list[str], dict]:
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    alg = _flag(op.argv, "--algorithm")[0]
    eps = [float(e) for e in _flag(op.argv, "--eps")]
    trials = int(_flag(op.argv, "--trials")[0])
    errors = []
    if len(rows) != len(eps):
        return [f"expected {len(eps)} rows, got {len(rows)}"], {}
    cells = []
    opt = None
    for row, e in zip(rows, eps):
        if row["algorithm"] != alg or float(row["eps"]) != e or int(row["trials"]) != trials:
            errors.append(f"row does not match the request: {row}")
            continue
        n_items = len(doc.get("constraints", doc.get("edges", [])))
        if int(row["n"]) != doc["n"] or int(row["m"]) != n_items:
            errors.append(f"row reports n={row['n']} m={row['m']}, instance has {doc['n']}, {n_items}")
        mean, se = float(row["mean_val"]), float(row["se"])
        if not (0.0 <= mean <= n_items and se >= 0.0):
            errors.append(f"mean_val {mean} or se {se} out of range")
        if row["opt"]:
            opt = float(row["opt"])
            if not math.isclose(float(row["ratio"]), mean / opt, rel_tol=1e-12):
                errors.append(f"ratio {row['ratio']} != mean_val / opt")
        cells.append((f"{alg} {e:g}", mean, se, trials))
    if op.kind == "sweep" and len(eps) >= 2 and "# spearman(advantage, eps)" not in out:
        errors.append("sweep output lacks the spearman summary line")
    return errors, {"cells": cells, "opt": opt}


def _check_solve(out: str, doc: dict) -> tuple[list[str], dict]:
    res = json.loads(out)
    x = res["assignment"]
    if len(x) != doc["n"] or any(v not in (-1, 1) for v in x):
        return [f"assignment is not a +-1 vector of length {doc['n']}"], {}
    recount = cut_recount(doc, x)
    if res["value"] != recount:
        return [f"reported value {res['value']} != recount {recount}"], {}
    return [], {"value": recount}


def rr_audit_sigma(eps: float, trials: int) -> float:
    """Standard error of the randomized-response log-ratio estimate, whose
    true value is exactly eps."""
    p = math.exp(eps) / (1.0 + math.exp(eps))
    return math.sqrt((1.0 - p) / (trials * p) + p / (trials * (1.0 - p)))


def _check_audit(op: Op, rc: int, out: str) -> tuple[list[str], dict]:
    lines = out.strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    mech = _flag(op.argv, "--mechanism")[0]
    eps_hat, lo, hi = float(row["eps_hat"]), float(row["ci_lo"]), float(row["ci_hi"])
    errors = []
    if row["mechanism"] != mech or int(row["trials"]) != AUDIT_TRIALS:
        errors.append(f"audit row does not match the request: {row}")
    if not lo <= eps_hat <= hi:
        errors.append(f"interval [{lo}, {hi}] does not bracket eps_hat {eps_hat}")
    if mech == "randomized_response":
        # The privacy loss of randomized response is exactly eps, so the
        # estimate must sit within SE_TOLERANCE standard errors of it. The
        # audit's own verdict (exit 2) rejects this exact mechanism on about
        # 1.1% of seeds; that false alarm is counted, not failed.
        sigma = rr_audit_sigma(AUDIT_EPS, AUDIT_TRIALS)
        if abs(eps_hat - AUDIT_EPS) > SE_TOLERANCE * sigma:
            errors.append(f"eps_hat {eps_hat} is not within {SE_TOLERANCE} se of {AUDIT_EPS}")
    elif rc != EXIT_OK:
        errors.append(f"audit of {mech} exited {rc}")
    return errors, {"eps_hat": eps_hat, "false_alarm": rc == EXIT_AUDIT_FAILURE}


def _check_hardness(out: str) -> tuple[list[str], dict]:
    res = json.loads(out)
    flags = ("generation_complete", "separation_ok", "opt_ok")
    bad = [f for f in flags if res.get(f) is not True]
    if bad or res.get("counterexample") is not None or res["generated"] != res["requested"]:
        return [f"verify-hardness flags not all true: {res}"], {}
    return [], {}


def check(op: Op, rc, out: str, docs: dict) -> tuple[str, list[str], dict]:
    """Checks one operation's exit code and output.

    Returns (outcome, errors, facts); outcome is "ok", "refused" (exit 3,
    the enumeration cap, allowed for alg6 solves only) or "failed".
    """
    if rc == EXIT_RESOURCE and op.kind == "solve":
        return "refused", [], {}
    allowed = (EXIT_OK, EXIT_AUDIT_FAILURE) if op.kind == "audit" else (EXIT_OK,)
    if rc not in allowed:
        return "failed", [f"exit code {rc}"], {}
    doc = docs.get(op.instance)
    try:
        if op.kind in ("sweep", "ratio"):
            errors, facts = _check_table(op, out, doc)
        elif op.kind == "solve":
            errors, facts = _check_solve(out, doc)
        elif op.kind == "audit":
            errors, facts = _check_audit(op, rc, out)
        else:
            errors, facts = _check_hardness(out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        errors, facts = [f"unparseable output ({type(exc).__name__}: {exc}): {out[:200]!r}"], {}
    return ("failed" if errors else "ok"), errors, facts


def normalized_output(op: Op, rc, out: str) -> str:
    """The deterministic part of an operation's result: the exit code and
    stdout without the wall_ms column of CSV tables."""
    if op.kind in ("sweep", "ratio"):
        out = "\n".join(
            ln if ln.startswith("#") else ln.rsplit(",", 1)[0] for ln in out.splitlines()
        )
    return f"{rc}\n{out}"
