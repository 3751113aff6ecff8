import importlib.util
import json
import sys
from pathlib import Path

import pytest

from privcsp import cli
from privcsp.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from privcsp.csp_core import Constraint, CspInstance, load_instance, save_instance
from privcsp.harness import ALGORITHMS


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_kxor_to_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code, out, _ = run(
            capsys,
            "gen", "--kind", "kxor", "--n", "10", "--m", "8", "--k", "2",
            "--seed", "3", "--out", str(path),
        )
        assert code == EXIT_OK and path.exists()
        doc = json.loads(path.read_text())
        assert doc["n"] == 10 and len(doc["constraints"]) == 8

    def test_gen_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "even_cycle", "--n", "6")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 6

    def test_graph_to_file_names_its_kind(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        code, out, _ = run(capsys, "gen", "--kind", "even_cycle", "--n", "6", "--out", str(path))
        assert code == EXIT_OK and out == f"wrote {path}: n=6, m=6, kind=maxcut\n"

    def test_stalled_generator_exits_resource(self, capsys, monkeypatch):
        # feasible on paper (m <= C(4, 2)), but no 5 pairs of 4 variables are
        # triangle-free: the stall is a resource cap, exit 3, not a traceback
        monkeypatch.setattr("privcsp.generators.MAX_REJECTIONS", 50)
        code, out, err = run(capsys, "gen", "--kind", "kxor", "--n", "4", "--m", "5", "--k", "2",
                             "--triangle-free", "--seed", "1")
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("resource cap: generator stalled after 50 rejections")

    def test_infeasible_spec(self, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "kxor", "--n", "4", "--m", "100", "--k", "2"
        )
        assert code == EXIT_VALIDATION and "error" in err

    def test_negative_edge_count(self, capsys):
        # numpy's "negative dimensions are not allowed" used to surface here
        code, out, err = run(
            capsys, "gen", "--kind", "random_bipartite", "--a", "3", "--b", "3", "--m", "-1")
        assert code == EXIT_VALIDATION and out == ""
        assert err == "error: requested -1 edges, a negative edge count\n"

    def test_single_constraint(self, capsys):
        code, out, _ = run(
            capsys,
            "gen", "--kind", "single", "--n", "5", "--scope", "1", "3",
            "--sign", "-1",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["constraints"][0]["scope"] == [1, 3]


class TestSolveRatioSweep:
    @pytest.fixture
    def instance_path(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        code, _, _ = run(
            capsys,
            "gen", "--kind", "kxor", "--n", "12", "--m", "10", "--k", "2",
            "--triangle-free", "--out", str(path),
        )
        assert code == EXIT_OK
        return str(path)

    def test_solve_roundtrip(self, instance_path, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--algorithm", "alg1", "--instance", instance_path,
            "--eps", "1.0", "--seed", "7",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["assignment"]) == 12
        assert set(doc["assignment"]) <= {-1, 1}
        assert 0 <= doc["value"] <= 10

    def test_solve_requires_instance(self, capsys):
        code, _, err = run(capsys, "solve", "--algorithm", "alg1")
        assert code == EXIT_VALIDATION

    def test_ratio_csv(self, instance_path, tmp_path, capsys):
        out_path = tmp_path / "r.csv"
        code, out, _ = run(
            capsys,
            "ratio", "--algorithm", "random_baseline", "--instance", instance_path,
            "--eps", "1.0", "--trials", "200", "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,eps,alpha")
        assert lines[1].startswith("random_baseline,1,")

    def test_sweep_spearman_line(self, tmp_path, capsys):
        path = tmp_path / "cycle_graph.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "even_cycle", "--n", "8", "--out", str(path)
        )
        assert code == EXIT_OK
        code, out, _ = run(
            capsys,
            "sweep", "--algorithm", "dp_shearer", "--instance", str(path),
            "--eps", "0.5", "1.0", "--trials", "300",
        )
        assert code == EXIT_OK
        assert "# spearman(advantage, eps)" in out

    def test_config_file_overrides(self, instance_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"algorithm": "random_baseline", "eps": [2.0], "trials": 50,
                 "seed": 9, "instance": instance_path}
            )
        )
        code, out, _ = run(
            capsys, "ratio", "--algorithm", "alg1", "--config", str(cfg)
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("random_baseline,2,")

    def test_unknown_config_fields_rejected(self, instance_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tirals": 9000, "eps": [1.0], "sed": 2}))
        code, out, err = run(
            capsys, "ratio", "--algorithm", "alg1", "--instance", instance_path,
            "--trials", "5", "--config", str(cfg),
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "unknown config fields: ['sed', 'tirals']" in err

    @pytest.mark.parametrize("doc, field", [
        ({"n": 3.9, "kind": "kxor", "constraints": []}, "n must be"),
        ({"n": 3, "kind": "kxor", "constraints": [{"scope": [0, 1.7], "b": 1}]}, "scope entry"),
        ({"n": 3, "kind": "maxcut", "edges": [[0, 1, 1e999]]},
         "edge weight must be 1, got [0, 1, inf]"),
    ])
    def test_non_integral_instance_values_rejected(self, tmp_path, capsys, doc, field):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "solve", "--algorithm", "random_baseline", "--instance", str(path)
        )
        assert code == EXIT_VALIDATION and out == "" and field in err

    @pytest.mark.parametrize("field, value", [
        ("eps", 1.0), ("eps", ["1.0"]), ("eps", [True]), ("trials", "9"), ("trials", 9.5),
        ("trials", True), ("seed", 2.0), ("seed", False), ("alpha", "0.5"), ("alpha", True),
        ("algorithm", 3), ("instance", ["a.json"]),
    ])
    def test_config_value_types_rejected(self, instance_path, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code, out, err = run(
            capsys, "ratio", "--algorithm", "alg1", "--instance", instance_path,
            "--trials", "5", "--config", str(cfg),
        )
        assert code == EXIT_VALIDATION and out == ""
        assert f"config field '{field}' must be" in err

    @pytest.mark.parametrize("algorithm", ["random_baseline", "alg1", "em_baseline"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_invalid_eps_grid_rejected_before_trials(
        self, instance_path, monkeypatch, capsys, algorithm, eps
    ):
        from privcsp import harness

        runs = []
        monkeypatch.setattr(harness, "_run_one_eps", lambda *args: runs.append(args))
        for command in ("ratio", "sweep"):
            code, out, err = run(
                capsys,
                command, "--algorithm", algorithm, "--instance", instance_path,
                "--eps", "1.0", eps, "--trials", "5",
            )
            assert code == EXIT_VALIDATION and out == ""
            assert "epsilon grid value must be finite and nonnegative" in err
        assert runs == []

    def test_invalid_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "constraints": [], "kind": "kxor", "extra": 1}')
        code, _, err = run(
            capsys, "solve", "--algorithm", "alg3", "--instance", str(bad)
        )
        assert code == EXIT_VALIDATION

    def test_resource_cap_exit(self, tmp_path, capsys):
        # em_baseline enumerates all covered variables; a large covered
        # set trips the enumeration cap
        path = tmp_path / "big.json"
        code, _, _ = run(
            capsys,
            "gen", "--kind", "kxor", "--n", "30", "--m", "29", "--k", "2",
            "--out", str(path),
        )
        assert code == EXIT_OK
        code, _, err = run(
            capsys,
            "solve", "--algorithm", "em_baseline", "--instance", str(path),
            "--eps", "1.0",
        )
        assert code == EXIT_RESOURCE and "resource cap" in err

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_solve_invalid_eps_rejected(self, tmp_path, capsys, algorithm, eps):
        # shearer and random_baseline never read eps, and em_baseline on an
        # edgeless graph draws nothing: they used to print it and exit 0
        path = tmp_path / "edgeless.json"
        save_instance(cut_graph(4, ()), str(path))
        code, out, err = run(
            capsys, "solve", "--algorithm", algorithm, "--instance", str(path), "--eps", eps
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "epsilon must be finite and nonnegative" in err

    def test_solve_alg2_refuses_triangles(self, tmp_path, capsys):
        # at eps = 20 every variable is high, and the exponential mechanism
        # on all 30 used to hit its cap (exit 3) before alg1's check ran
        path = tmp_path / "complete.json"
        cons = tuple(Constraint(scope=(i, j), b=1) for i in range(30) for j in range(i + 1, 30))
        save_instance(CspInstance(n=30, constraints=cons, kind="kxor"), str(path))
        code, out, err = run(
            capsys, "solve", "--algorithm", "alg2", "--instance", str(path), "--eps", "20"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "alg2 requires a triangle-free instance" in err


class TestAuditCommand:
    def test_audit_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--mechanism", "randomized_response",
            "--eps", "1.0", "--trials", "50000",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "mechanism,eps,trials,eps_hat,ci_lo,ci_hi,coarsening"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_invalid_eps_is_a_validation_error(self, capsys, eps):
        code, out, err = run(
            capsys,
            "audit", "--mechanism", "em", "--eps", eps, "--trials", "1000",
        )
        assert code == EXIT_VALIDATION and out == "" and "finite" in err


    def test_tiny_eps_names_the_sampler(self, capsys):
        code, out, err = run(
            capsys,
            "audit", "--mechanism", "dp_shearer", "--eps", "1e-17", "--trials", "1000",
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "epsilon" in err and "discrete-Laplace sampler" in err


class TestTinyEpsSweep:
    def test_dp_shearer_names_the_sampler(self, tmp_path, capsys):
        path = tmp_path / "cycle_graph.json"
        assert run(capsys, "gen", "--kind", "even_cycle", "--n", "8", "--out", str(path))[0] == 0
        code, out, err = run(
            capsys,
            "sweep", "--algorithm", "dp_shearer", "--instance", str(path),
            "--eps", "1e-17", "--trials", "5",
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "epsilon" in err and "discrete-Laplace sampler" in err
        code, out, _ = run(
            capsys,
            "sweep", "--algorithm", "dp_shearer", "--instance", str(path),
            "--eps", "1e-12", "--trials", "5",
        )
        assert code == EXIT_OK and out.startswith("algorithm,")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("algorithm,gen_args,eps", [
        ("alg2", ("kxor", "--k", "2", "--m", "10", "--triangle-free"), "2.4e-16"),
        ("alg_oddk", ("kxor", "--k", "3", "--m", "4"), "3.6e-16"),
        ("alg5", ("even_cycle",), "2.4e-16"),
        ("alg6", ("even_cycle",), "4.8e-16"),
    ])
    def test_degree_stage_names_the_stage(self, tmp_path, capsys, algorithm, gen_args, eps):
        # the degree stage's noise parameter eps/(3k) or eps/12 lies below
        # the sampler's floor of about 4.5e-17
        path = tmp_path / "instance.json"
        assert run(capsys, "gen", "--kind", *gen_args, "--n", "12", "--out", str(path))[0] == 0
        code, out, err = run(
            capsys,
            "ratio", "--algorithm", algorithm, "--instance", str(path),
            "--eps", eps, "--trials", "5",
        )
        assert code == EXIT_VALIDATION and out == ""
        assert f"epsilon = {eps} is too small for the degree stage" in err
        assert err.count(eps) == 1 and "noise parameter" in err


class TestVerifyHardnessCommand:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-hardness", "--n", "8", "--size", "3", "--eps", "0.5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["separation_ok"] and doc["opt_ok"]

    def test_shortfall_fails(self, capsys):
        code, _, err = run(
            capsys,
            "verify-hardness", "--n", "8", "--size", "400", "--eps", "0.5",
        )
        assert code == EXIT_FAILURE and "shortfall" in err


class TestEdgeListLoading:
    def test_edge_list_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "graph.edges"
        path.write_text("# toy graph\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(
            capsys,
            "solve", "--algorithm", "dp_shearer", "--instance", str(path),
            "--eps", "1.0",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["assignment"]) == 4

    @pytest.mark.parametrize("line", ["-1 2", "2 -5 1", "0 9223372036854775807"])
    def test_endpoint_out_of_reach_names_its_line(self, tmp_path, capsys, line):
        # a negative endpoint used to surface as "edge (-1,2) out of range
        # for n=3", naming no line
        path = tmp_path / "graph.edges"
        path.write_text(f"0 1\n{line}\n")
        code, out, err = run(capsys, "solve", "--algorithm", "shearer", "--instance", str(path))
        assert code == EXIT_VALIDATION and out == ""
        assert err == f"error: line 2: endpoints must lie in [0, 2^63 - 1), got {line + chr(10)!r}\n"


class TestGraphKernelsRefuseOtherKinds:
    """The graph kernels take only a Max-Cut instance; on a kxor file they
    used to die with an AttributeError traceback."""

    @pytest.mark.parametrize("algorithm, eps", [
        ("shearer", "1.0"), ("dp_shearer", "1.0"), ("alg5", "1.0"), ("alg6", "0.1")])
    def test_kxor_file_exits_1(self, tmp_path, capsys, algorithm, eps):
        path = tmp_path / "kxor.json"
        code, _, _ = run(capsys, "gen", "--kind", "kxor", "--n", "8", "--m", "6", "--k", "2",
                         "--seed", "1", "--out", str(path))
        assert code == EXIT_OK
        for command in (["solve"], ["ratio", "--trials", "3"], ["sweep", "--trials", "3"]):
            code, out, err = run(capsys, *command, "--algorithm", algorithm,
                                 "--instance", str(path), "--eps", eps)
            assert code == EXIT_VALIDATION and out == ""
            assert err == f"error: {algorithm} requires a Max-Cut instance, got kind 'kxor'\n"


class TestMalformedInstanceDocuments:
    """A field of the wrong JSON type, or a missing one, exits 1 naming it;
    TypeError and KeyError used to escape with a traceback."""

    @pytest.mark.parametrize("doc, message", [
        ({"n": 3, "kind": "maxcut", "edges": 5}, "'edges' must be a list, got 5"),
        ({"n": 3, "kind": "kxor", "constraints": [{"b": 1}]}, "constraint requires 'scope'"),
        ({"n": 3, "kind": "maxcut", "edges": [[0, 1, 1.0], 7]},
         "edge must be a list [u, v, 1], got 7"),
        ({"n": 3, "kind": "maxcut", "edges": [[0, 1]]}, "edge must be a list [u, v, 1], got [0, 1]"),
        ({"n": 3, "kind": "maxcut", "edges": [[0, "1", 1.0]]},
         "edge endpoints must be integers, got [0, '1']"),
        ({"n": 3, "kind": "kxor", "constraints": [{"scope": 0, "b": 1}]},
         "'scope' must be a list, got 0"),
        ({"n": 3, "kind": "kxor", "constraints": {"scope": [0, 1], "b": 1}},
         "'constraints' must be a list, got {'scope': [0, 1], 'b': 1}"),
        ({"n": 2, "kind": "general", "constraints": [{"scope": [0], "table": 1}]},
         "'table' must be a list, got 1"),
    ])
    def test_exits_1_naming_the_field(self, tmp_path, capsys, doc, message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--algorithm", "random_baseline",
                             "--instance", str(path))
        assert code == EXIT_VALIDATION and out == "" and err == f"error: {message}\n"


class TestAlg6Alpha:
    @pytest.mark.parametrize("alpha", ["nan", "inf", "1e308"])
    def test_bad_alpha_is_a_validation_error(self, tmp_path, capsys, alpha):
        path = tmp_path / "cycle.json"
        assert run(capsys, "gen", "--kind", "even_cycle", "--n", "8", "--out", str(path))[0] == 0
        code, out, err = run(
            capsys,
            "solve", "--algorithm", "alg6", "--instance", str(path),
            "--eps", "0.1", "--alpha", alpha,
        )
        assert code == EXIT_VALIDATION and out == "" and "alpha" in err


class TestAlphaCheck:
    """One alpha rule, check_alpha, for every algorithm and entry point: a
    nan, infinite or negative alpha exits 1 before any trial, and never
    reaches a CSV row or a config_hash."""

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["ratio", "sweep", "solve", "config"])
    def test_bad_alpha_exits_1(self, tmp_path, capsys, command, alpha):
        path = tmp_path / "cycle.json"
        assert run(capsys, "gen", "--kind", "even_cycle", "--n", "8", "--out", str(path))[0] == 0
        argv = ["--algorithm", "random_baseline", "--instance", str(path), "--eps", "0.5"]
        if command == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"alpha": float(alpha)}))
            argv = ["ratio", *argv, "--config", str(cfg)]
        else:
            argv = [command, *argv, "--alpha", alpha]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == ""
        assert err == f"error: alpha must be finite and nonnegative, got {float(alpha)}\n"


class TestThresholdUnderflow:
    @pytest.mark.parametrize("algorithm,gen_args,eps,power", [
        ("alg2", ("--kind", "kxor", "--n", "8", "--m", "3", "--k", "2", "--triangle-free"),
         "1e-100", "eps^4"),
        ("alg5", ("--kind", "even_cycle", "--n", "8"), "1e-200", "eps^2"),
        ("alg_oddk", ("--kind", "kxor", "--n", "8", "--m", "3", "--k", "3"), "1e-200", "eps^2"),
    ])
    def test_underflowing_threshold_is_a_validation_error(
            self, tmp_path, capsys, algorithm, gen_args, eps, power):
        # each used to end in an uncaught ZeroDivisionError traceback
        path = tmp_path / "inst.json"
        assert run(capsys, "gen", *gen_args, "--out", str(path))[0] == 0
        code, out, err = run(
            capsys, "solve", "--algorithm", algorithm, "--instance", str(path), "--eps", eps)
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and f"{power} underflows to 0 at epsilon = {eps}" in err


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main call; an argparse rejection
    gives its SystemExit code. ratio and sweep lose the wall_ms column."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    out = captured.out
    if argv[:1] in (["ratio"], ["sweep"]):
        out = [line if line.startswith("#") else line.rsplit(",", 1)[0]
               for line in out.splitlines()]
    return code, out, captured.err


class TestParserReuse:
    def sequence(self, tmp_path):
        kxor, cycle = str(tmp_path / "kxor.json"), str(tmp_path / "cycle.json")
        return [
            ["gen", "--kind", "kxor", "--n", "10", "--m", "8", "--k", "2",
             "--triangle-free", "--seed", "3", "--out", kxor],
            ["gen", "--kind", "even_cycle", "--n", "10", "--out", cycle],
            ["solve", "--algorithm", "alg1", "--instance", kxor, "--seed", "3"],
            ["solve", "--instance", kxor],  # no --algorithm: argparse exits
            ["ratio", "--algorithm", "em_baseline", "--instance", kxor,
             "--eps", "0.5", "1.0", "--trials", "30", "--seed", "2"],
            ["audit", "--mechanism", "randomized_response", "--eps", "1.0",
             "--trials", "2000", "--seed", "4"],
            ["sweep", "--algorithm", "dp_shearer", "--instance", cycle,
             "--eps", "0.5", "1.0", "--trials", "40"],
            ["solve", "--algorithm", "alg6", "--instance", cycle, "--eps", "0.1",
             "--alpha", "nan"],
            ["verify-hardness", "--n", "8", "--size", "3", "--eps", "0.5"],
            ["gen", "--kind", "single", "--n", "4", "--scope", "2", "3", "--sign", "-1"],
            ["ratio", "--algorithm", "alg1", "--instance", kxor, "--bogus"],
            ["gen", "--kind", "single", "--n", "4"],
            ["solve", "--algorithm", "alg6", "--instance", cycle, "--eps", "0.1",
             "--alpha", "2", "--seed", "1"],
            ["ratio", "--algorithm", "alg1", "--instance", kxor, "--trials", "20"],
            ["audit", "--mechanism", "em", "--eps", "nan"],
            ["solve", "--algorithm", "alg1", "--instance", kxor, "--seed", "3"],
        ]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_mixed_sequence_matches_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        argvs = self.sequence(tmp_path)
        shared = [_call(capsys, argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [_call(capsys, argv) for argv in argvs]
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes.count(("SystemExit", 2)) == 2 and EXIT_VALIDATION in codes
        assert shared[2] == shared[-1]

    def test_rejected_call_leaves_next_call_alone(self, capsys):
        argv = ["gen", "--kind", "single", "--n", "5", "--scope", "1", "4"]
        before = _call(capsys, argv)
        for bad in (["gen", "--kind", "single", "--n", "5", "--scope", "x"],
                    ["gen", "--kind", "nope"], ["audit"], []):
            assert _call(capsys, bad)[0] == ("SystemExit", 2)
            assert _call(capsys, argv) == before

    def test_list_defaults_unchanged(self, tmp_path, capsys):
        kxor = str(tmp_path / "kxor.json")
        for argv in (["gen", "--kind", "single", "--n", "6", "--scope", "4", "5"],
                     ["gen", "--kind", "single", "--n", "3", "--out", kxor],
                     ["sweep", "--algorithm", "random_baseline", "--instance", kxor,
                      "--eps", "0.5", "2", "--trials", "3"],
                     ["gen", "--kind", "single", "--n", "3"]):
            assert _call(capsys, argv)[0] == EXIT_OK
        parser = cli._parser()
        assert parser is cli._parser()
        args = parser.parse_args(["gen", "--kind", "single"])
        assert args.scope == [0, 1]
        assert parser.parse_args(["sweep", "--algorithm", "alg1"]).eps == [1.0]
        fresh = build_parser()
        for command in (["gen", "--kind", "kxor"], ["solve", "--algorithm", "alg1"],
                        ["audit", "--mechanism", "em"], ["verify-hardness"]):
            assert vars(parser.parse_args(command)) == vars(fresh.parse_args(command))

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestUnreadFlags:
    """Each subcommand takes only the flags its handler reads: any other
    flag, or a second --eps value where one epsilon is used, is an argparse
    error (exit 2), not a silently ignored setting."""

    BASE = {
        "gen": ["gen", "--kind", "single", "--n", "3"],
        "solve": ["solve", "--algorithm", "alg1", "--instance", "x.json"],
        "audit": ["audit", "--mechanism", "em"],
        "verify-hardness": ["verify-hardness"],
    }

    @pytest.mark.parametrize("command,flag", [
        ("gen", ["--trials", "5"]),
        ("gen", ["--eps", "0.5"]),
        ("gen", ["--alpha", "1"]),
        ("gen", ["--instance", "x.json"]),
        ("solve", ["--config", "missing.json"]),
        ("solve", ["--trials", "5"]),
        ("solve", ["--out", "f"]),
        ("solve", ["--eps", "0.5", "9"]),
        ("audit", ["--alpha", "3"]),
        ("audit", ["--instance", "x"]),
        ("audit", ["--eps", "0.5", "9"]),
        ("verify-hardness", ["--out", "f"]),
        ("verify-hardness", ["--trials", "5"]),
        ("verify-hardness", ["--alpha", "1"]),
        ("verify-hardness", ["--instance", "x"]),
        ("verify-hardness", ["--eps", "0.5", "9"]),
    ])
    def test_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*self.BASE[command], *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _bench_workloads():
    """bench/workloads.py, loaded from the repository checkout."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestBenchmarkArgv:
    """Every argv the benchmark passes to privcsp.cli.main parses, so a flag
    change that would break the benchmark fails here first. Nothing runs."""

    workloads = _bench_workloads()

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_ops_parse(self, workload):
        parser = build_parser()
        for seed in range(4):
            for op in self.workloads.ops(workload, seed):
                assert parser.parse_args(list(op.argv)).command == op.kind

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_instance_gen_argv_parse(self, workload):
        parser = build_parser()
        for instance_set in range(self.workloads.INSTANCE_SETS):
            for inst in self.workloads.instances(workload, instance_set):
                argv = [*inst.gen_argv, "--seed", str(inst.base_seed), "--out", "inst.json"]
                assert parser.parse_args(argv).command == "gen"


# a triangle-free general instance: truth tables of arity 1 to 3 and
# parities of arity 1 and 2 along a path, so alg1's median cells read tables
MIXED_PATH = CspInstance(n=9, kind="general", constraints=(
    Constraint(scope=(0, 1), table=(0, 1, 1, 1)), Constraint(scope=(1, 2, 3), b=-1),
    Constraint(scope=(3, 4, 5), table=(1, 0, 0, 1, 0, 1, 1, 0)), Constraint(scope=(5, 6), b=1),
    Constraint(scope=(6,), table=(0, 1)), Constraint(scope=(7,), b=1), Constraint(scope=(8,), b=-1)))


@pytest.mark.parametrize("algorithm, instance", [
    ("alg1", 2), ("alg2", 2), ("alg3", 2), ("alg3", 3), ("alg_oddk", 3), ("alg1", 1), ("alg2", 1),
    ("alg1", MIXED_PATH)])
def test_sweep_never_builds_constraint_view(tmp_path, capsys, monkeypatch, algorithm, instance):
    """A kxor file of arity k, or a general file for alg1, runs from its columns:
    loading it, its triangle and distinct-scope checks, its config_hash and
    the kernels (alg1's medians of truth tables and arity-1 parities
    included) read the groups' arrays, and no Constraint tuple is derived
    from them."""
    from functools import cached_property

    path = tmp_path / "inst.json"
    if isinstance(instance, int):
        assert main(["gen", "--kind", "kxor", "--n", "60", "--m", "20", "--k", str(instance),
                     "--triangle-free", "--max-degree", "2", "--seed", "4", "--out", str(path)]) == 0
    else:
        save_instance(instance, str(path))
    built = []
    view = CspInstance.constraints

    def counting_view(instance):
        built.append(instance)
        return view.func(instance)

    counted = cached_property(counting_view)
    counted.__set_name__(CspInstance, "constraints")
    monkeypatch.setattr(CspInstance, "constraints", counted)
    code, out, err = run(capsys, "sweep", "--algorithm", algorithm, "--instance", str(path),
                         "--eps", "0.5", "2", "--trials", "5", "--seed", "1")
    assert code == EXIT_OK, err
    assert "config_hash" in out and built == []
    m = len(load_instance(str(path)).constraints)  # the counter counts
    assert m == (20 if isinstance(instance, int) else 7) and len(built) == 1
