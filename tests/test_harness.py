import math

import numpy as np
import pytest

from privcsp.csp_core import Constraint, CspInstance, WeightedGraph
from privcsp.generators import GenSpec, gen_random_kxor
from privcsp.harness import (
    ALGORITHMS,
    AUDIT_MECHANISMS,
    CSV_COLUMNS,
    ExperimentConfig,
    audit,
    audit_csv_row,
    estimate_ratio,
    sweep,
    verify_hardness,
)
from privcsp.harness import _neighboring_delta


def cycle_instance(n):
    cons = tuple(Constraint(scope=(i, (i + 1) % n), b=1) for i in range(n))
    return CspInstance(n=n, constraints=cons, kind="kxor")


def maxcut_cycle(n):
    cons = tuple(Constraint(scope=(i, (i + 1) % n), b=-1) for i in range(n))
    return CspInstance(n=n, constraints=cons, kind="maxcut")


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg9", eps=(1.0,), trials=10, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg1", eps=(), trials=10, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg1", eps=(1.0,), trials=0, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_eps_grid_checked_for_every_algorithm(self, bad):
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match="epsilon grid value"):
                ExperimentConfig(algorithm=algorithm, eps=(1.0, bad), trials=10, seed=0)
            ExperimentConfig(algorithm=algorithm, eps=(0.0, 1.0), trials=10, seed=0)

    def test_registry_complete(self):
        assert set(ALGORITHMS) == {
            "alg1",
            "alg2",
            "alg3",
            "alg_oddk",
            "shearer",
            "dp_shearer",
            "alg5",
            "alg6",
            "em_baseline",
            "random_baseline",
        }

    def test_config_hash_sensitivity(self):
        inst = cycle_instance(6)
        a = ExperimentConfig(algorithm="alg1", eps=(1.0,), trials=5, seed=0)
        b = ExperimentConfig(algorithm="alg1", eps=(1.0,), trials=5, seed=1)
        assert a.config_hash(inst) != b.config_hash(inst)
        assert a.config_hash(inst) == a.config_hash(cycle_instance(6))


class TestEstimateRatio:
    def test_random_baseline_half(self):
        inst = cycle_instance(10)
        config = ExperimentConfig(
            algorithm="random_baseline", eps=(1.0,), trials=5_000, seed=0
        )
        report = estimate_ratio(config, inst)
        row = report.rows[0]
        assert row.opt == 10
        assert abs(row.mean_val - 5.0) < 3.5 * row.se
        assert abs(row.advantage) < 3.5 * row.se
        assert row.ratio == pytest.approx(row.mean_val / 10)

    def test_em_baseline_utility(self):
        # the exponential mechanism over all assignments at eps = 8 must
        # respect E[value] >= OPT - (2/eps)(n ln 2 + 1)
        inst = gen_random_kxor(GenSpec(n=12, m=24, k=2, seed=0))
        config = ExperimentConfig(
            algorithm="em_baseline", eps=(8.0,), trials=3_000, seed=1
        )
        report = estimate_ratio(config, inst)
        row = report.rows[0]
        bound = row.opt - (2.0 / 8.0) * (12 * math.log(2) + 1)
        assert row.mean_val > bound - 3.5 * row.se

    def test_graph_algorithm_on_instance(self):
        inst = maxcut_cycle(6)
        config = ExperimentConfig(algorithm="dp_shearer", eps=(1.0,), trials=50, seed=2)
        report = estimate_ratio(config, inst)
        assert report.rows[0].n == 6

    def test_opt_cap_skips_bruteforce(self):
        inst = cycle_instance(8)
        config = ExperimentConfig(
            algorithm="random_baseline", eps=(1.0,), trials=10, seed=3, opt_cap=4
        )
        row = estimate_ratio(config, inst).rows[0]
        assert row.opt is None and row.ratio is None


class TestSweep:
    def test_csv_determinism_and_trend(self):
        inst = maxcut_cycle(12)
        config = ExperimentConfig(
            algorithm="dp_shearer", eps=(0.25, 0.5, 1.0), trials=2_000, seed=4
        )
        rep_a = sweep(config, inst)
        rep_b = sweep(config, inst)
        strip = lambda text: [
            ",".join(line.split(",")[:-1]) if not line.startswith("#") else line
            for line in text.strip().splitlines()
        ]
        # identical except the wall_ms column
        assert strip(rep_a.csv()) == strip(rep_b.csv())
        assert rep_a.csv().startswith(CSV_COLUMNS)
        assert rep_a.spearman_advantage_eps == 1.0

    def test_single_eps_no_spearman(self):
        config = ExperimentConfig(algorithm="random_baseline", eps=(1.0,), trials=5, seed=5)
        rep = sweep(config, cycle_instance(4))
        assert rep.spearman_advantage_eps is None
        assert "# spearman" not in rep.csv()


class TestNeighboringDelta:
    def test_instances(self):
        a = cycle_instance(4)
        b = CspInstance(n=4, constraints=a.constraints[:-1], kind="kxor")
        assert _neighboring_delta(a, b) == 1
        assert _neighboring_delta(a, a) == 0

    def test_graphs(self):
        g1 = WeightedGraph(n=3, edges=((0, 1, 1.0),))
        g2 = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        assert _neighboring_delta(g1, g2) == 1

    def test_mixed_rejected(self):
        with pytest.raises(ValueError):
            _neighboring_delta(cycle_instance(4), WeightedGraph(n=2, edges=()))


class TestAudit:
    def test_registry(self):
        assert set(AUDIT_MECHANISMS) == {
            "randomized_response",
            "dp_shearer",
            "alg1",
            "em",
        }
        with pytest.raises(ValueError):
            audit("gaussian", 1.0, 100, 0)

    def test_randomized_response_audit(self):
        report, ok = audit("randomized_response", 1.0, 200_000, seed=0)
        assert ok
        assert abs(report.epsilon_hat - 1.0) < 0.15
        assert report.ci_lower <= 1.0

    def test_dp_shearer_audit_smoke(self):
        report, ok = audit("dp_shearer", 1.0, 50_000, seed=1)
        assert ok and report.ci_lower <= 1.0

    def test_csv_row(self):
        report, _ = audit("randomized_response", 0.5, 20_000, seed=2)
        row = audit_csv_row("randomized_response", 0.5, report)
        parts = row.split(",")
        assert parts[0] == "randomized_response" and parts[2] == "20000"


class TestVerifyHardness:
    def test_small_family(self):
        report = verify_hardness(8, 0.5, 3, seed=0)
        assert report.generation_complete
        assert report.separation_ok and report.counterexample is None
        assert report.opt_ok
        assert report.generated == 3
