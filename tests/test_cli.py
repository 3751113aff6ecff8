import json

import pytest

from privcsp.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    main,
)


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

    def test_infeasible_spec(self, capsys):
        code, _, err = run(
            capsys, "gen", "--kind", "kxor", "--n", "4", "--m", "100", "--k", "2"
        )
        assert code == EXIT_VALIDATION and "error" in err

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
