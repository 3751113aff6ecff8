"""privcsp CLI benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload mc_large --seed 1 --seconds 30 --trace 0

Drives ``privcsp.cli.main(argv)`` in this one process on instance files
made from the seed (see workloads.py), so argument parsing, instance
loading and validation, the algorithms and the CSV/JSON output are all
inside the measured path. A pass runs the workload's operation list once;
passes repeat, each on freshly imported privcsp modules so module caches
start cold as they do for every CLI call, until ``--seconds`` have passed.
Every pass runs the same operations with the same seeds, so every pass
must print the same outputs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- trials_per_s: algorithm or mechanism runs per second of operation time
  (an audit counts both sides of its pair, a solve one run, a refused
  solve none);
- wall_s: the time of one pass;
- op_ms_p50, op_ms_p90: percentiles of the per-operation latency;
- setup_s: the median of SETUP_REPEATS set-ups, each a fresh import of
  privcsp plus writing the instance files (numpy and scipy are imported
  once; that time is in the result file as import_s);
- peak_rss_mb: the peak resident set of this process.

The times are scaled by calibrate(), see CALIB_REF_S. With ``--trace 1``
passes alternate untraced and traced (spans.py), and the last line
reports per-layer metrics (PER_LAYER) from the traced passes, plus the
tracing overhead: traced minus untraced pass time. Lines before the last
are a readable table, including fail_share, the share of operations that
exit 3 because of the enumeration cap. Outputs go to ``.bench_out/``: a
result file with run metadata, and with tracing the raw spans.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread for BLAS and OpenMP, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
# The end-to-end times are scaled to a machine on which calibrate() takes
# CALIB_REF_S. On a shared machine the speed of this process drifts by tens
# of percent over minutes as other tenants come and go; calibrate() runs
# after every CALIB_EVERY_S of operation time, so the mean of its samples
# tracks that drift and the scaled times do not.
CALIB_REF_S = 0.004
CALIB_EVERY_S = 0.25

# per_layer metrics: (metric name, span name, statistic, unit), from the
# traced passes; "setup:" names count the set-up repeats. Function times
# are kept only for functions every workload calls, so that no time reads
# 0 on every run of a workload; the traced table and the result file hold
# every function.
MODULES = ("cli", "harness", "csp_core", "dp_mechanisms", "oracles", "algo_csp", "algo_maxcut")
PER_LAYER = [(f"{m}.self_s", m, "module_self_s", "s") for m in MODULES] + [
    ("csp_core.WeightedGraph.degree_counts.s", "csp_core.WeightedGraph.degree_counts", "s", "s"),
    ("csp_core.WeightedGraph.edge_arrays.s", "csp_core.WeightedGraph.edge_arrays", "s", "s"),
    ("csp_core.WeightedGraph.is_unweighted.s", "csp_core.WeightedGraph.is_unweighted", "s", "s"),
    ("dp_mechanisms.RngStream.generator.s", "dp_mechanisms.RngStream.generator", "s", "s"),
    ("harness.trials", "harness.estimate_ratio+harness.audit", "trials", "count"),
    ("cli.main.exit3", "cli.main", "exit3", "count"),
    ("csp_core.eval_value.calls", "csp_core.eval_value", "calls", "count"),
    ("csp_core.is_triangle_free.calls", "csp_core.is_triangle_free", "calls", "count"),
    ("csp_core.WeightedGraph.degree_counts.calls", "csp_core.WeightedGraph.degree_counts", "calls", "count"),
    ("csp_core.WeightedGraph.edge_arrays.calls", "csp_core.WeightedGraph.edge_arrays", "calls", "count"),
    ("csp_core.WeightedGraph.is_unweighted.calls", "csp_core.WeightedGraph.is_unweighted", "calls", "count"),
    ("csp_core.load_instance.calls", "csp_core.load_instance", "calls", "count"),
    ("csp_core.all_values.calls", "csp_core.all_values", "calls", "count"),
    ("csp_core.assignment_blocks.rows", "csp_core.assignment_blocks", "rows", "count"),
    ("csp_core.assignment_blocks.bytes_computed", "csp_core.assignment_blocks", "bytes_computed", "bytes"),
    ("csp_core.evaluate_block.rows", "csp_core.evaluate_block", "rows", "count"),
    ("dp_mechanisms.RngStream.generator.calls", "dp_mechanisms.RngStream.generator", "calls", "count"),
    ("dp_mechanisms.em_over_assignments.calls", "dp_mechanisms.em_over_assignments", "calls", "count"),
    ("dp_mechanisms.em_over_assignments.active_max", "dp_mechanisms.em_over_assignments", "active_max", "count"),
    ("dp_mechanisms.em_over_assignments.refused", "dp_mechanisms.em_over_assignments", "refused", "count"),
    ("oracles.brute_force_opt.calls", "oracles.brute_force_opt", "calls", "count"),
    ("oracles.brute_force_opt.rows", "oracles.brute_force_opt", "rows", "count"),
    ("oracles.exact_median_theta.calls", "oracles.exact_median_theta", "calls", "count"),
    ("generators.gen_random_kxor.calls", "setup:generators.gen_random_kxor", "calls", "count"),
    ("generators.gen_triangle_free_graph.calls", "setup:generators.gen_triangle_free_graph", "calls", "count"),
    ("generators.gen_hard_family.calls", "generators.gen_hard_family", "calls", "count"),
    ("trace.overhead_s", None, "overhead", "s"),
]
COUNT_STATS = ("calls", "rows", "bytes_computed", "trials", "exit3", "refused", "active_max", "hook_error")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Imports privcsp.cli from this checkout's src/, dropping any privcsp
    modules already loaded, so module-level state starts fresh."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "privcsp" or n.startswith("privcsp.")]:
        del sys.modules[name]
    cli = importlib.import_module("privcsp.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        fail(f"imported privcsp from {cli.__file__}, not from {SRC}")
    return cli


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that does not
    touch privcsp."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    x = numpy.random.default_rng(0).random(60_000)
    for _ in range(5):
        x = numpy.sort(x)
    return time.perf_counter() - t0


def privcsp_modules() -> dict:
    mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("privcsp.")}
    mods["__init__"] = sys.modules["privcsp"]
    return mods


def run_op(cli, argv: list[str]):
    """One CLI call with stdout, stderr and warnings captured.
    Returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, reported with its traceback
            rc = "exception"
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def make_instances(cli, workload: str, instance_set: int, directory: Path) -> dict:
    """Writes the workload's instance files; returns {name: path}."""
    paths = {}
    for inst in wl.instances(workload, instance_set):
        path = directory / f"{inst.name}.json"
        seed = inst.base_seed
        while True:
            rc, _, _, err = run_op(cli, [*inst.gen_argv, "--seed", str(seed), "--out", str(path)])
            if rc != 0:
                raise RuntimeError(f"generating {inst.name} failed ({rc}): {err}")
            if not inst.cover_all or wl.covers_all(json.loads(path.read_text())):
                break
            seed += 1
        paths[inst.name] = path
    return paths


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_references(ops, results, shas, refs) -> list[str]:
    """Compares every table cell and the alg6 solve mean of one pass with
    the stored reference means, within SE_TOLERANCE combined errors."""
    errors = []
    by_sha = refs["instances"]

    def ref_for(inst_name):
        sha = shas[inst_name]
        if sha not in by_sha:
            errors.append(f"no reference for instance {inst_name} (sha256 {sha[:12]}); "
                          "the generator's output changed, rerun bench/make_references.py")
            return None
        return by_sha[sha]

    def compare(label, mean, se, trials, cell):
        # The reference's larger sample also estimates the run's standard
        # error better: values with rare outliers (alg6 picking its low
        # candidate) make a small sample's own estimate too small.
        ref_mean, ref_se = cell["mean"], cell["se"]
        se = max(se, ref_se * math.sqrt(cell["trials"] / trials))
        tol = wl.SE_TOLERANCE * math.hypot(se, ref_se)
        if abs(mean - ref_mean) > tol:
            errors.append(f"{label}: mean {mean:.6g} vs reference {ref_mean:.6g}, tolerance {tol:.3g}")

    solves: dict[str, list[float]] = {}
    for op, res in zip(ops, results):
        outcome, facts = res["outcome"], res["facts"]
        if outcome != "ok" or op.instance is None:
            continue
        if op.kind == "solve":
            solves.setdefault(op.instance, []).append(facts["value"])
            continue
        ref = ref_for(op.instance)
        if ref is None:
            continue
        if facts["opt"] is not None and facts["opt"] != ref["opt"]:
            errors.append(f"{op.instance}: opt {facts['opt']} != independent optimum {ref['opt']}")
        for key, mean, se, trials in facts["cells"]:
            if key not in ref["cells"]:
                errors.append(f"{op.instance}: no reference cell {key!r}")
            else:
                compare(f"{op.instance} {key}", mean, se, trials, ref["cells"][key])
    for inst, values in solves.items():
        ref = ref_for(inst)
        key = f"alg6-solve {float(wl.ALG6_EPS):g}"
        if ref is not None and len(values) >= 2:
            se = statistics.stdev(values) / math.sqrt(len(values))
            compare(f"{inst} {key}", statistics.fmean(values), se, len(values), ref["cells"][key])
    return errors


def set_up(workload: str, instance_set: int, workdir: Path, tracer, calib: list[float]):
    """Imports privcsp afresh and makes the instance files, SETUP_REPEATS
    times. Returns the seconds of each repeat, the paths and sha256 of the
    last repeat's files, and whether every repeat wrote identical files."""
    times, digests = [], set()
    for r in range(SETUP_REPEATS):
        rep_dir = workdir / f"setup{r}"
        rep_dir.mkdir()
        calib.append(calibrate())
        t0 = time.perf_counter()
        cli = import_cli()
        if tracer:
            tracer.install(privcsp_modules())
            tracer.op = f"setup{r}/"
        paths = make_instances(cli, workload, instance_set, rep_dir)
        times.append(time.perf_counter() - t0)
        shas = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
        digests.add(tuple(shas.items()))
    return times, paths, shas, len(digests) == 1


def timed_phase(argvs: list[list[str]], seconds: float, tracer, calib: list[float]) -> list[dict]:
    """Whole passes until --seconds have passed, each on freshly imported
    privcsp modules; with tracing, passes alternate untraced and traced,
    untraced first, and there are at least two."""
    passes: list[dict] = []
    t_phase = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        cli = import_cli()
        if traced:
            tracer.install(privcsp_modules())
        gc.collect()
        results = []
        since_calib = CALIB_EVERY_S
        for i, argv in enumerate(argvs):
            if since_calib >= CALIB_EVERY_S and not traced:
                calib.append(calibrate())
                since_calib = 0.0
            if traced:
                tracer.op = f"p{len(passes)}/o{i}"
            rc, dt, out, err = run_op(cli, argv)
            since_calib += dt
            results.append({"rc": rc, "s": dt, "out": out, "err": err})
        passes.append({"traced": traced, "results": results, "s": sum(r["s"] for r in results)})
        # stop when another pass would end further from --seconds than now
        elapsed = time.perf_counter() - t_phase
        if elapsed + 0.5 * elapsed / len(passes) >= seconds and (tracer is None or len(passes) >= 2):
            return passes


def check_passes(ops, argvs, passes, docs) -> list[str]:
    """Checks every operation of every pass and that every pass printed
    the same outputs as the first; records each outcome and its facts."""
    errors = []
    first = passes[0]["results"]
    for p, ps in enumerate(passes):
        for i, (op, res) in enumerate(zip(ops, ps["results"])):
            res["outcome"], errs, res["facts"] = wl.check(op, res["rc"], res["out"], docs)
            errors += [f"pass {p} op {i} ({' '.join(argvs[i])}): {e} | stderr: {res['err'][-300:]}"
                       for e in errs]
            if p and wl.normalized_output(op, res["rc"], res["out"]) != wl.normalized_output(
                    op, first[i]["rc"], first[i]["out"]):
                errors.append(f"pass {p} op {i}: output differs from pass 0")
    return errors


def end_to_end_metrics(ops, passes, setup_times, peak_rss_mb: float, setup_calib, calib) -> dict:
    """Every untraced pass runs the same operations; each operation's time
    is its mean over those passes, scaled by CALIB_REF_S / mean(calib).
    The latency percentiles are taken over these per-operation times.
    set-up times are scaled by the calibrations made during set-up."""
    scale = CALIB_REF_S / statistics.fmean(calib)
    setup_scale = CALIB_REF_S / statistics.fmean(setup_calib)
    untraced = [ps["results"] for ps in passes if not ps["traced"]]
    per_op = [scale * statistics.fmean(results[i]["s"] for results in untraced) for i in range(len(ops))]
    runs = sum(op.runs for op, r in zip(ops, untraced[0]) if r["outcome"] == "ok")
    return {
        "trials_per_s": (runs / sum(per_op), "1/s"),
        "wall_s": (sum(per_op), "s"),
        "op_ms_p50": (1000.0 * statistics.median(per_op), "ms"),
        "op_ms_p90": (1000.0 * percentile(per_op, 90), "ms"),
        "setup_s": (setup_scale * statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, passes, errors: list[str]) -> tuple[dict, dict]:
    """Per-function statistics averaged over the traced passes, and over
    the set-up repeats under "setup:" names, and the per_layer metrics
    drawn from them. Traced passes must agree in every exact count."""
    traced = [p for p, ps in enumerate(passes) if ps["traced"]]
    aggs = [tracer.aggregate(f"p{p}/") for p in traced]
    counts = [{(n, k): v for n, st in a.items() for k, v in st.items() if k in COUNT_STATS} for a in aggs]
    if any(c != counts[0] for c in counts):
        errors.append("traced passes differ in their exact counts")
    per_function = {}
    for prefix, group in (("", aggs), ("setup:", [tracer.aggregate(f"setup{r}/") for r in range(SETUP_REPEATS)])):
        for name in sorted(set().union(*group)):
            keys = sorted(set().union(*(a.get(name, {}) for a in group)))
            per_function[prefix + name] = {k: statistics.fmean(a.get(name, {}).get(k, 0.0) for a in group)
                                           for k in keys}
    overhead = (statistics.median(passes[p]["s"] for p in traced)
                - statistics.median(ps["s"] for ps in passes if not ps["traced"]))
    per_layer = {}
    for metric, span, stat, unit in PER_LAYER:
        if stat == "module_self_s":
            value = sum(st.get("self_s", 0.0) for n, st in per_function.items() if n.split(".")[0] == span)
        elif stat == "overhead":
            value = overhead
        else:
            value = sum(per_function.get(s, {}).get(stat, 0.0) for s in span.split("+"))
        per_layer[metric] = (int(round(value)) if unit in ("count", "bytes") else value, unit)
    return per_function, per_layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if not (SRC / "privcsp" / "cli.py").is_file():
        fail(f"no privcsp sources under {SRC}")
    try:
        import_cli()
    except ImportError as exc:
        fail(f"cannot import privcsp: {exc}")

    import_s = time.perf_counter() - T_START
    tracer = spans.Tracer() if args.trace else None
    missing = tracer.install(privcsp_modules()) if tracer else []
    instance_set = args.seed % wl.INSTANCE_SETS
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        calibrate()  # the first call pays one-time costs; discard it
        setup_calib: list[float] = []
        setup_times, paths, shas, setup_same = set_up(args.workload, instance_set, workdir, tracer, setup_calib)
        docs = {name: json.loads(p.read_text()) for name, p in paths.items()}
        ops = wl.ops(args.workload, args.seed)
        argvs = [[a.format(**{k: str(v) for k, v in paths.items()}) for a in op.argv] for op in ops]
        calib: list[float] = []
        passes = timed_phase(argvs, args.seconds, tracer, calib)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [] if setup_same else ["instance generation is not deterministic across set-up repeats"]
    errors += check_passes(ops, argvs, passes, docs)
    refs = json.loads((Path(__file__).parent / "references.json").read_text())
    errors += check_references(ops, passes[0]["results"], shas, refs)
    end_to_end = end_to_end_metrics(ops, passes, setup_times, peak_rss_mb, setup_calib, calib)
    per_function, per_layer = layer_metrics(tracer, passes, errors) if tracer else ({}, {})
    if tracer:
        tracer.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
    metrics = per_layer if tracer else end_to_end

    all_results = [r for ps in passes for r in ps["results"]]
    attempted = len(all_results)
    refused = sum(r["outcome"] == "refused" for r in all_results)
    false_alarms = sum(bool(r["facts"].get("false_alarm")) for r in all_results)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": sum(r["outcome"] == "failed" for r in all_results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "instance_set": instance_set,
        "seconds": args.seconds, "trace": args.trace, "git_revision": git_revision(),
        "src_lines": src_lines(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }

    # Report: a readable table, a result file, then the result line.
    table = [f"# {json.dumps(meta)}"]
    table += [f"# {args.workload:<10} {name:<46} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    table.append(f"# {args.workload:<10} passes={len(passes)} ops/pass={len(ops)} attempted={attempted} "
                 f"fail_share={refused / attempted:.4g} (exit 3: {refused}) "
                 f"audit_false_alarms={false_alarms}")
    if missing:
        table.append(f"# targets not found: {', '.join(missing)}")
    table += [f"# {name:<44} " + " ".join(f"{k}={v:.6g}" for k, v in st.items())
              for name, st in per_function.items()]
    table += [f"# ERROR {e}" for e in errors[:20]]
    print("\n".join(table))
    outputs = "\x00".join(wl.normalized_output(op, r["rc"], r["out"]) for op, r in zip(ops, passes[0]["results"]))
    record = dict(
        result, meta=meta, end_to_end={k: v for k, (v, _) in end_to_end.items()},
        fail_share=refused / attempted, refused=refused, audit_false_alarms=false_alarms,
        errors=errors, per_function=per_function,
        outputs_sha256=hashlib.sha256(outputs.encode()).hexdigest(),
        import_s=import_s, setup_repeats_s=setup_times, setup_calib_s=setup_calib, calib_s=calib,
        pass_s=[ps["s"] for ps in passes],
        op_s=[[r["s"] for r in ps["results"]] for ps in passes if not ps["traced"]],
    )
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
