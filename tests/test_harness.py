import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from privcsp import cli, harness
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    constraint_groups,
    instance_from_json,
)
from privcsp.dp_mechanisms import RngStream
from privcsp.generators import GenSpec, gen_random_kxor, gen_triangle_free_graph
from privcsp.harness import (
    ALGORITHMS,
    AUDIT_MECHANISMS,
    CSV_COLUMNS,
    ExperimentConfig,
    ReportRow,
    audit,
    audit_csv_row,
    estimate_ratio,
    sweep,
    verify_hardness,
)
from privcsp.harness import _neighboring_delta


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def edge_list(g):
    """A graph's edges, as (u, v) tuples in edge order."""
    return tuple(c.scope for c in g.constraints)


def edge_columns(g):
    """A graph's u and v edge columns: the rows of its 2XOR group's scopes."""
    return constraint_groups(g)[0].scopes.T


def cycle_instance(n):
    cons = tuple(Constraint(scope=(i, (i + 1) % n), b=1) for i in range(n))
    return CspInstance(n=n, constraints=cons, kind="kxor")


def maxcut_cycle(n):
    return cut_graph(n, tuple((i, (i + 1) % n) for i in range(n)))


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg9", eps=(1.0,), trials=10, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg1", eps=(), trials=10, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg1", eps=(1.0,), trials=0, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("eps", 1.0), ("eps", ["1.0"]), ("eps", [True]), ("trials", "9"), ("trials", 9.5),
        ("trials", True), ("seed", 2.0), ("seed", None), ("alpha", "0.5"), ("alpha", True),
        ("algorithm", 3),
    ])
    def test_field_types_named(self, field, value):
        fields = {"algorithm": "alg1", "eps": (1.0,), "trials": 5, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"config field '{field}' must be"):
            ExperimentConfig(**fields)

    def test_eps_list_stored_as_tuple(self):
        config = ExperimentConfig(algorithm="alg1", eps=[0.5, 1], trials=5, seed=0)
        assert config.eps == (0.5, 1)

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

    def test_config_hash_and_baseline_of_a_large_graph(self):
        g = gen_triangle_free_graph("random_bipartite", 500, 500, 5000, seed=2)
        config = ExperimentConfig(algorithm="dp_shearer", eps=(0.5, 1.0), trials=50, seed=7)
        # the reference: the graph's edge lists through json.dumps, as
        # instance_to_json wrote them before it formatted the columns
        text = json.dumps({"n": g.n, "kind": "maxcut", "edges": [[u, v, 1.0] for u, v in edge_list(g)]},
                          indent=None, separators=(",", ":"), sort_keys=True)
        blob = json.dumps({"algorithm": "dp_shearer", "eps": [0.5, 1.0], "trials": 50, "seed": 7,
                           "alpha": config.alpha, "instance": text}, sort_keys=True)
        assert config.config_hash(g) == hashlib.sha256(blob.encode()).hexdigest()[:12]
        # a graph read from its file hashes the text it was read from: the same
        loaded = instance_from_json(text + "\n")
        rebuilt = CspInstance.from_edges(loaded.n, *edge_columns(loaded))
        assert config.config_hash(loaded) == config.config_hash(rebuilt) == config.config_hash(g)
        assert harness._baseline_value(g) == 0.5 * g.m == 2500.0


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

    def test_empty_instance_baseline_is_zero(self):
        # an empty CSP instance used to fail with "mu undefined for an empty
        # instance"; every kind now has the graph's baseline of 0
        config = ExperimentConfig(algorithm="random_baseline", eps=(1.0,), trials=4, seed=0)
        for kind in ("general", "kxor", "maxcut"):
            row = estimate_ratio(config, CspInstance(n=3, constraints=(), kind=kind)).rows[0]
            assert (row.m, row.mean_val, row.opt, row.advantage) == (0, 0.0, 0.0, 0.0)

    def test_above_brute_force_cap_skips_opt(self):
        # 28 variables, above BRUTE_FORCE_CAP (26)
        inst = cycle_instance(28)
        config = ExperimentConfig(algorithm="random_baseline", eps=(1.0,), trials=10, seed=3)
        row = estimate_ratio(config, inst).rows[0]
        assert row.opt is None and row.ratio is None


def kxor_twin(graph):
    """The kxor instance with one 2XOR constraint of b = -1 per edge."""
    cons = tuple(Constraint(scope=(u, v), b=-1) for u, v in edge_list(graph))
    return CspInstance(n=graph.n, constraints=cons, kind="kxor")


def run_or_error(kernel, problem, eps, seed):
    """(rows, generator state) of one kernel call, or the ValueError's text."""
    gen = RngStream(seed, 0).generator()
    try:
        rows = kernel(problem, eps, 0.0, gen, 300)
    except ValueError as exc:
        return str(exc)
    return rows.tobytes(), rows.shape, gen.bit_generator.state


class TestOneMaxCutType:
    """A graph is the only Max-Cut type: every ALGORITHMS kernel runs on it as loaded."""

    CSP_KERNELS = ("alg1", "alg2", "alg3", "alg_oddk", "em_baseline", "random_baseline")
    UNIT_GRAPHS = {
        "even_cycle": gen_triangle_free_graph("even_cycle", 6),
        "path": cut_graph(5, tuple((i, i + 1) for i in range(4))),
        "parallel_edges": cut_graph(4, ((0, 1), (1, 2), (1, 0), (2, 3))),
    }
    WEIGHTED = '{"edges":[[0,1,1.0],[1,2,2.5],[2,3,1.0]],"kind":"maxcut","n":4}\n'

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("name", sorted(UNIT_GRAPHS))
    @pytest.mark.parametrize("algorithm", CSP_KERNELS)
    def test_csp_kernel_on_graph_equals_kxor_twin(self, algorithm, name):
        # eps 15 puts alg2's degree threshold (10000/eps^4 = 0.2) under the
        # degrees, so its high sets vary and the exponential mechanism runs
        graph, kernel = self.UNIT_GRAPHS[name], ALGORITHMS[algorithm]
        outcomes = []
        for eps in (1.0, 15.0):
            on_graph = run_or_error(kernel, graph, eps, seed=3)
            assert on_graph == run_or_error(kernel, kxor_twin(graph), eps, seed=3)
            outcomes.append(on_graph)
        refused = [o for o in outcomes if isinstance(o, str)]
        if algorithm == "alg_oddk":
            assert refused == ["alg_oddk requires odd arity; use alg2_batch"] * 2
        elif name == "parallel_edges" and algorithm in ("alg1", "alg2", "alg3"):
            assert len(refused) == 2
        else:
            assert not refused

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_weighted_graph_refused(self, algorithm, tmp_path, capsys):
        # refused where the file is read, naming the edge, before any kernel runs
        path = tmp_path / "weighted.json"
        path.write_text(self.WEIGHTED)
        for command in ("solve", "ratio"):
            code = cli.main([command, "--algorithm", algorithm, "--instance", str(path), "--eps", "0.1"])
            assert code == cli.EXIT_VALIDATION
            out = capsys.readouterr()
            assert out.err == "error: edge weight must be 1, got [1, 2, 2.5]\n" and out.out == ""

    def test_kernels_get_the_graph_as_loaded(self, monkeypatch):
        # the harness hands each kernel the object it was given, for every id
        graph = self.UNIT_GRAPHS["path"]
        seen = []

        def record(problem, eps, alpha, gen, trials):
            seen.append(problem)
            return np.ones((trials, problem.n), dtype=np.int8)

        for algorithm in ALGORITHMS:
            monkeypatch.setitem(ALGORITHMS, algorithm, record)
            estimate_ratio(ExperimentConfig(algorithm=algorithm, eps=(0.1,), trials=2, seed=0), graph)
        assert len(seen) == len(ALGORITHMS) and all(p is graph for p in seen)


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

    @pytest.mark.parametrize("algorithm", ["random_baseline", "shearer"])
    def test_eps_blind_algorithm_gives_nan_without_warning(self, algorithm):
        # every eps reads the same draws, so the advantage vector is
        # constant: the summary is nan, as scipy gives (with a warning)
        config = ExperimentConfig(algorithm=algorithm, eps=(0.5, 1.0, 2.0), trials=40, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sweep(config, maxcut_cycle(8))
        adv = [r.advantage for r in rep.rows]
        assert len(set(adv)) == 1 and math.isnan(rep.spearman_advantage_eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isnan(stats.spearmanr([0.5, 1.0, 2.0], adv).statistic)
        assert rep.csv().endswith("\n# spearman(advantage, eps) = nan\n")

    def test_csv_layout(self):
        assert CSV_COLUMNS == (
            "algorithm,eps,alpha,n,m,trials,mean_val,se,opt,ratio,advantage,"
            "seed,config_hash,wall_ms"
        )
        row = ReportRow("alg1", 0.5, 0.0, 4, 3, 10, 1.25, 0.1, None, None, -0.25, 7, "abc", 1.5)
        assert row.csv() == "alg1,0.5,0,4,3,10,1.25,0.10000000000000001,,,-0.25,7,abc,1.5"

    def test_single_eps_no_spearman(self):
        config = ExperimentConfig(algorithm="random_baseline", eps=(1.0,), trials=5, seed=5)
        rep = sweep(config, cycle_instance(4))
        assert rep.spearman_advantage_eps is None
        assert "# spearman" not in rep.csv()


class TestSpearman:
    """harness._spearman is scipy.stats.spearmanr's statistic to the last bit."""

    def test_matches_scipy_on_random_grids(self):
        rng = np.random.default_rng(2024)
        constant = 0
        for _ in range(10_000):
            k = int(rng.integers(2, 9))
            # small integer grids (ties, negatives, -0.0) or continuous values
            x, y = (rng.integers(-3, 4, k) * rng.choice([1.0, 0.5, -0.1, 1e-300, 1e300])
                    if rng.random() < 0.5 else rng.normal(size=k) * 10.0 ** rng.integers(-5, 6)
                    for _ in range(2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", stats.ConstantInputWarning)
                expect = stats.spearmanr(x, y).statistic
            got = harness._spearman(x.tolist(), y.tolist())
            if math.isnan(expect):
                constant += 1
                assert math.isnan(got)
            else:
                assert got == expect
        assert 100 < constant < 5_000

    @pytest.mark.parametrize("x, y", [
        ([1.0, 1.0], [0.0, 1.0]),
        ([0.5, 1.0, 2.0], [3.0, 3.0, 3.0]),
        ([0.0, -0.0, 0.0], [1.0, 2.0, 3.0]),
    ])
    def test_constant_input_is_nan_without_warning(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(harness._spearman(x, y))


class TestNeighboringDelta:
    def test_instances(self):
        a = cycle_instance(4)
        b = CspInstance(n=4, constraints=a.constraints[:-1], kind="kxor")
        assert _neighboring_delta(a, b) == 1
        assert _neighboring_delta(a, a) == 0

    def test_graphs(self):
        g1 = cut_graph(3, ((0, 1),))
        g2 = cut_graph(3, ((0, 1), (1, 2)))
        assert _neighboring_delta(g1, g2) == 1

    def test_sign_scopes_compared_as_sets(self):
        # a parity does not depend on its scope's order; a truth table does
        assert _neighboring_delta(cut_graph(3, ((1, 0),)), CspInstance.from_edges(3, [0], [1])) == 0
        a, b = (CspInstance(n=3, constraints=(Constraint(scope=s, b=1),), kind="kxor")
                for s in ((0, 1), (1, 0)))
        assert _neighboring_delta(a, b) == 0
        a, b = (CspInstance(n=3, constraints=(Constraint(scope=s, table=(0, 1, 0, 0)),))
                for s in ((0, 1), (1, 0)))
        assert _neighboring_delta(a, b) == 2

    def test_mixed_rejected(self):
        with pytest.raises(ValueError):
            _neighboring_delta(cycle_instance(4), cut_graph(2, ()))


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

    def test_every_instance_pair_is_neighbouring(self):
        # the instance pairs differ by one constraint, as _pair checks
        pairs = [pair for pair, _, _ in AUDIT_MECHANISMS.values()
                 if isinstance(pair[0], CspInstance)]
        assert len(pairs) == 3 and all(_neighboring_delta(a, b) == 1 for a, b in pairs)
        assert len(harness._pair(3, "kxor", 1, [(0, 1)], [])) == 2
        for scopes in ([(0, 1)], [(1, 2)], [(1, 2), (0, 2), (0, 1)]):
            with pytest.raises(ValueError, match="differ by one constraint"):
                harness._pair(3, "kxor", 1, [(0, 1)], scopes)

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

    # audit CSV row and sha256 of repr(report.buckets) of each built-in
    # audit at eps 1, 2*10^4 trials and seed 7, as the Counter-free
    # bucketing and alg1's dense median assembly first produced them:
    # faster code must keep every draw and every byte. The alg1 and
    # dp_shearer entries are those of their fair_signs draws, which the
    # audit with test_reference_equality's ref_alg1_batch and
    # ref_dp_shearer_batch (bits read by shifts) gives too
    PINNED = {
        "alg1": (
            "alg1,1,20000,0.28454235244711329,0.16956316872889404,"
            "0.39952153616533265,full-output",
            "2d6d71cbd6f92da01f70cff2905a5adbe8f320422583b5396017cf4768b97a50",
        ),
        "dp_shearer": (
            "dp_shearer,1,20000,0.13646957984394947,0.086643985628423348,"
            "0.18629517405947546,full-output",
            "ef87c76168d43700b4c3e4bfc7a01350af36220489d0803aed92120438ff3c25",
        ),
        "em": (
            "em,1,20000,0.30708997246821945,0.21442737981069437,"
            "0.39975256512574453,full-output",
            "baadc4f5ab8d7efd447f6ec63f465518a46dd316a120bdcc34e47687fbc7f538",
        ),
        "randomized_response": (
            "randomized_response,1,20000,0.97480769005039092,0.94371879375516665,"
            "1.0058965863456146,identity",
            "b141da67626ef9fbd0a7176bef24f76186ac3f74c5eef6f67a87188e2c3b146b",
        ),
    }

    @pytest.mark.parametrize("mechanism", sorted(AUDIT_MECHANISMS))
    def test_pinned_rows(self, mechanism):
        report, ok = audit(mechanism, 1.0, 20_000, seed=7)
        row, digest = self.PINNED[mechanism]
        assert ok and audit_csv_row(mechanism, 1.0, report) == row
        assert hashlib.sha256(repr(report.buckets).encode()).hexdigest() == digest


class TestVerifyHardness:
    def test_small_family(self):
        report = verify_hardness(8, 0.5, 3, seed=0)
        assert report.generation_complete
        assert report.separation_ok and report.counterexample is None
        assert report.opt_ok
        assert report.generated == 3


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_graph_kernels_never_build_the_constraint_view(tmp_path, monkeypatch, capsys):
    """A random_bipartite file read through the canonical-text path runs
    ratio with every graph kernel, brute-force optimum included, on its edge
    group alone: no Constraint object is made for its edges."""
    path = tmp_path / "bip.json"
    assert cli.main(["gen", "--kind", "random_bipartite", "--a", "9", "--b", "9", "--m", "40",
                     "--seed", "2", "--out", str(path)]) == 0
    loaded = []

    def load(p):
        loaded.append(cli.load_instance(p))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_problem", load)
    # eps = 70 puts high vertices on alg5's exponential mechanism
    for algorithm, eps in (("shearer", "1"), ("dp_shearer", "1"), ("alg5", "70"), ("alg6", "0.1")):
        assert cli.main(["ratio", "--algorithm", algorithm, "--instance", str(path),
                         "--eps", eps, "--trials", "40", "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(loaded) == 4
    for graph in loaded:
        assert graph.__dict__["_json_text"] == path.read_text()[:-1]
        assert "constraints" not in graph.__dict__
