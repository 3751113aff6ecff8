"""Command-line interface.

Subcommands: gen, solve, ratio, sweep, audit, verify-hardness. Each takes
only the flags its handler reads, so any other flag is an argparse error
(exit 2). Exit codes: 0 pass, 1 validation error, 2 acceptance/audit
failure, 3 resource cap hit.

main builds one argparse parser per process, on its first call, and
reuses it: parse_args keeps no state between calls, and building the
parser costs about as much as a small solve. build_parser() still
returns a fresh parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
    eval_value,
    instance_to_json,
    load_edge_list,
    load_instance,
    save_instance,
)
from .dp_mechanisms import RngStream
from .generators import (
    GenSpec,
    gen_random_kxor,
    gen_single_constraint,
    gen_triangle_free_graph,
)
from .harness import (
    ALGORITHMS,
    AUDIT_MECHANISMS,
    ExperimentConfig,
    _wants_graph,
    audit,
    audit_csv_row,
    estimate_ratio,
    sweep,
    verify_hardness,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FAILURE = 2
EXIT_RESOURCE = 3


def _load_problem(path: str):
    if path.endswith(".edges") or path.endswith(".txt"):
        return load_edge_list(path)
    return load_instance(path)


# flag -> add_argument keywords, for the flags several subcommands share;
# ratio and sweep take an epsilon grid instead of one --eps
_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": int, "default": 1000},
    "--eps": {"type": float, "default": 1.0},
    "--alpha": {"type": float, "default": 0.0},
    "--out": {"type": str, "default": None},
    "--instance": {"type": str, "default": None},
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


# the keys of a --config JSON object: ExperimentConfig's fields, which it
# type-checks, and the instance path
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig)) | {"instance"}


def _config_from_args(args) -> ExperimentConfig:
    """The command line's experiment, with the fields of a --config JSON
    object, if given, in place of the flags'."""
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config document must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "instance" in doc:
            if type(doc["instance"]) is not str:
                raise ValueError(f"config field 'instance' must be a string, got {doc['instance']!r}")
            if not args.instance:
                args.instance = doc["instance"]
    return ExperimentConfig(
        algorithm=doc.get("algorithm", args.algorithm),
        eps=doc.get("eps", args.eps),
        trials=doc.get("trials", args.trials),
        seed=doc.get("seed", args.seed),
        alpha=doc.get("alpha", args.alpha),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privcsp",
        description="Differentially private Max-CSP / Max-Cut experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=[
            "kxor",
            "even_cycle",
            "complete_bipartite",
            "random_bipartite",
            "single",
        ],
    )
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--m", type=int, default=8)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--a", type=int, default=3)
    p_gen.add_argument("--b", type=int, default=3)
    p_gen.add_argument("--sign", type=int, default=1, choices=[-1, 1])
    p_gen.add_argument("--scope", type=int, nargs="+", default=[0, 1])
    p_gen.add_argument("--triangle-free", action="store_true")
    p_gen.add_argument("--max-degree", type=int, default=None)
    _add_flags(p_gen, "--seed", "--out")

    p_solve = sub.add_parser("solve", help="run an algorithm once")
    p_solve.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    _add_flags(p_solve, "--instance", "--eps", "--alpha", "--seed")

    for name in ("ratio", "sweep"):
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--eps", type=float, nargs="+", default=[1.0])
        _add_flags(p, "--instance", "--alpha", "--trials", "--seed", "--out")

    p_audit = sub.add_parser("audit", help="empirical privacy audit")
    p_audit.add_argument(
        "--mechanism", required=True, choices=sorted(AUDIT_MECHANISMS)
    )
    _add_flags(p_audit, "--eps", "--trials", "--seed", "--out")

    p_hard = sub.add_parser("verify-hardness", help="hard-family checks")
    p_hard.add_argument("--n", type=int, default=8)
    p_hard.add_argument("--size", type=int, default=3)
    _add_flags(p_hard, "--eps", "--seed")

    return parser


def _cmd_gen(args) -> int:
    if args.kind == "kxor":
        spec = GenSpec(
            n=args.n,
            m=args.m,
            k=args.k,
            seed=args.seed,
            triangle_free=args.triangle_free,
            max_degree=args.max_degree,
        )
        problem = gen_random_kxor(spec)
    elif args.kind == "even_cycle":
        problem = gen_triangle_free_graph("even_cycle", args.n)
    elif args.kind == "complete_bipartite":
        problem = gen_triangle_free_graph("complete_bipartite", args.a, args.b)
    elif args.kind == "random_bipartite":
        problem = gen_triangle_free_graph(
            "random_bipartite", args.a, args.b, args.m, seed=args.seed
        )
    else:
        problem = gen_single_constraint(
            args.n, Constraint(scope=tuple(args.scope), b=args.sign)
        )
    if args.out:
        save_instance(problem, args.out)
        kind = "graph" if not isinstance(problem, CspInstance) else problem.kind
        print(f"wrote {args.out}: n={problem.n}, m={problem.m}, kind={kind}")
    else:
        print(instance_to_json(problem))
    return EXIT_OK


def _cmd_solve(args) -> int:
    if not args.instance:
        raise ValueError("solve requires --instance")
    problem = _load_problem(args.instance)
    kernel, want_graph = ALGORITHMS[args.algorithm]
    prob = _wants_graph(problem, want_graph)
    # row 0 of a one-trial kernel call: ratio --trials 1 with this seed
    x = kernel(prob, args.eps, args.alpha, RngStream(args.seed, 0).generator(), 1)[0]
    print(
        json.dumps(
            {
                "algorithm": args.algorithm,
                "eps": args.eps,
                "assignment": [int(v) for v in x],
                "value": eval_value(prob, x),
            }
        )
    )
    return EXIT_OK


def _cmd_ratio(args, use_sweep: bool) -> int:
    config = _config_from_args(args)
    if not args.instance:
        raise ValueError("this command requires --instance (or a config file naming one)")
    problem = _load_problem(args.instance)
    report = sweep(config, problem) if use_sweep else estimate_ratio(config, problem)
    text = report.csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def _cmd_audit(args) -> int:
    report, ok = audit(args.mechanism, args.eps, args.trials, args.seed)
    header = "mechanism,eps,trials,eps_hat,ci_lo,ci_hi,coarsening"
    row = audit_csv_row(args.mechanism, args.eps, report)
    text = header + "\n" + row + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    if not ok:
        print(
            f"AUDIT FAILURE: ci lower bound {report.ci_lower:.4g} exceeds "
            f"eps {args.eps:.4g}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_verify_hardness(args) -> int:
    report = verify_hardness(args.n, args.eps, args.size, args.seed)
    print(
        json.dumps(
            {
                "n": report.n,
                "eps": report.epsilon,
                "requested": report.requested,
                "generated": report.generated,
                "generation_complete": report.generation_complete,
                "separation_ok": report.separation_ok,
                "counterexample": report.counterexample,
                "opt_ok": report.opt_ok,
            }
        )
    )
    if not report.generation_complete:
        print("generation shortfall: family smaller than requested", file=sys.stderr)
        return EXIT_FAILURE
    if not (report.separation_ok and report.opt_ok):
        print("hardness verification failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Runs one subcommand and returns its exit code. The parser is built
    on the first call in a process and reused by every later one."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "ratio":
            return _cmd_ratio(args, use_sweep=False)
        if args.command == "sweep":
            return _cmd_ratio(args, use_sweep=True)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "verify-hardness":
            return _cmd_verify_hardness(args)
        raise ValueError(f"unknown command {args.command!r}")
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
