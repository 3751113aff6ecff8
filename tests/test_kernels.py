"""Batch-first kernels: `solve` is `ratio --trials 1`, and the harness
fills each epsilon's block in row chunks from one generator."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from privcsp import dp_mechanisms, harness
from privcsp.cli import EXIT_OK, main
from privcsp.csp_core import Constraint, CspInstance, save_instance
from privcsp.generators import GenSpec, gen_random_kxor

def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


KXOR = gen_random_kxor(GenSpec(n=14, m=8, k=2, seed=3, triangle_free=True))
K3 = CspInstance(n=9, constraints=tuple(
    Constraint(scope=(3 * i, 3 * i + 1, 3 * i + 2), b=(-1) ** i) for i in range(3)
) + (Constraint(scope=(0, 4, 8), b=1),), kind="kxor")
CYCLE = cut_graph(10, tuple((i, (i + 1) % 10) for i in range(10)))
# algorithm -> (problem in the view its kernel takes, eps)
CASES = {
    "alg1": (KXOR, 1.0),
    # eps = 12 puts noise-dependent high sets on the degree split
    "alg2": (KXOR, 12.0),
    "alg3": (KXOR, 1.0),
    "alg_oddk": (K3, 6.0),
    "shearer": (CYCLE, 1.0),
    "dp_shearer": (CYCLE, 1.0),
    "alg5": (CYCLE, 70.0),
    "alg6": (CYCLE, 0.1),
    "em_baseline": (KXOR, 1.0),
    "random_baseline": (KXOR, 1.0),
}


def test_every_algorithm_covered():
    assert set(CASES) == set(harness.ALGORITHMS)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_solve_is_ratio_with_one_trial(tmp_path, capsys, algorithm):
    problem, eps = CASES[algorithm]
    path = str(tmp_path / "inst.json")
    save_instance(problem, path)
    for seed in (0, 7):
        common = ("--algorithm", algorithm, "--instance", path, "--eps", str(eps), "--seed", str(seed))
        assert main(["solve", *common]) == EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        assert main(["ratio", *common, "--trials", "1"]) == EXIT_OK
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert float(dict(zip(header.split(","), row.split(",")))["mean_val"]) == solved["value"]


def bipartite(n=1000, m=2000, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    u, v = rng.integers(0, half, m), rng.integers(half, n, m)
    return cut_graph(n, tuple((int(a), int(b)) for a, b in zip(u, v)))


def dense_kxor(seed=0):
    """5000 distinct 2XOR constraints across two halves of 200 variables:
    average degree 50."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(100 * 100, size=5000, replace=False)
    return CspInstance(n=200, constraints=tuple(
        Constraint(scope=(int(p // 100), 100 + int(p % 100)), b=int(rng.choice((-1, 1))))
        for p in pairs
    ), kind="kxor")


DENSE_KXOR = dense_kxor()


def without_wall_ms(report):
    return [line.rsplit(",", 1)[0] for line in report.csv().splitlines()]


class TestChunkedBlocks:
    def test_one_generator_per_eps(self, monkeypatch):
        streams = []
        real = dp_mechanisms.RngStream.generator

        def spy(self):
            streams.append((self.seed, self.stream))
            return real(self)

        monkeypatch.setattr(dp_mechanisms.RngStream, "generator", spy)
        config = harness.ExperimentConfig(algorithm="dp_shearer", eps=(0.5, 1.0, 2.0), trials=2500, seed=4)
        harness.estimate_ratio(config, bipartite())
        # n = 1000, m = 2000: 2500 trials take ten chunks of at most 262
        # rows, one generator per eps
        assert streams == [(4, 0)] * 3

    def test_chunked_run_is_deterministic(self):
        config = harness.ExperimentConfig(algorithm="alg5", eps=(1.0, 2.0), trials=2500, seed=8)
        g = bipartite()
        assert without_wall_ms(harness.estimate_ratio(config, g)) == without_wall_ms(
            harness.estimate_ratio(config, bipartite()))

    @pytest.mark.parametrize("algorithm,problem,trials,eps,alpha", [
        # 20000 trials on n = 1000 in chunks of 262 rows: the dp_shearer
        # kernel's (rows, m) temporaries for one chunk peak near 8 MB, for
        # the whole block they would take some 80 times that
        ("dp_shearer", bipartite(), 20_000, 1.0, 0.0),
        # average degree 200 and 50: chunks of 2^20 / n rows, each of m
        # entries, would peak near 115 and 210 MB at these trial counts
        ("dp_shearer", bipartite(n=200, m=20_000), 2000, 1.0, 0.0),
        ("alg3", DENSE_KXOR, 1000, 1.0, 0.0),
        # the threshold 24/eps^3 leaves the high sets empty, so nothing is
        # enumerated; alg6's (rows, m) subsampling uniforms and (rows, 3, n)
        # candidates are the chunk's largest blocks
        ("alg6", bipartite(), 20_000, 0.1, 2.0),
    ], ids=["dp_shearer-n1000", "dp_shearer-degree200", "alg3-degree50", "alg6-n1000"])
    def test_memory_bounded_by_chunk(self, algorithm, problem, trials, eps, alpha):
        config = harness.ExperimentConfig(
            algorithm=algorithm, eps=(eps,), alpha=alpha, trials=trials, seed=2)
        harness.estimate_ratio(dataclasses.replace(config, trials=1), problem)
        tracemalloc.start()
        try:
            harness.estimate_ratio(config, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_baseline_value_once_per_report(self, monkeypatch):
        calls = []
        real = harness._baseline_value
        monkeypatch.setattr(harness, "_baseline_value", lambda p: calls.append(p) or real(p))
        config = harness.ExperimentConfig(algorithm="shearer", eps=(0.5, 1.0, 2.0), trials=5, seed=1)
        report = harness.estimate_ratio(config, CYCLE)
        assert len(calls) == 1
        for row in report.rows:
            assert row.advantage == row.mean_val - 0.5 * CYCLE.m
