"""The noisy-degree split shared by alg2, alg5, alg6 and em_baseline: the
degree stage's exact privacy loss, the stage budgets against the ledger,
and the helpers themselves."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from privcsp import algo_csp, algo_maxcut, dp_mechanisms
from privcsp.algo_csp import alg2_batch
from privcsp.algo_maxcut import dp_maxcut_general_batch, dp_maxcut_unbounded_batch
from privcsp.csp_core import Constraint, CspInstance, WeightedGraph, degrees
from privcsp.dp_mechanisms import (
    GENERAL_BUDGET_FRACTIONS,
    UNBOUNDED_BUDGET_FRACTIONS,
    RngStream,
    budget_ledger,
    degree_split_batch,
    em_on_part,
    noisy_high_mask,
    stage_budget,
)


def gen(seed=0):
    return RngStream(seed, 0).generator()


def one_constraint(k):
    return CspInstance(n=k, constraints=(Constraint(scope=tuple(range(k)), b=1),), kind="kxor")


def spy_laplace_scales(monkeypatch):
    """Records the scale of every sample_laplace call, whichever module
    binding the algorithm calls it through."""
    scales = []
    real = dp_mechanisms.sample_laplace

    def spy(scale, rng, size=None):
        scales.append(scale)
        return real(scale, rng, size=size)

    for module in (dp_mechanisms, algo_csp, algo_maxcut):
        monkeypatch.setattr(module, "sample_laplace", spy, raising=False)
    return scales


def degree_stage_loss(deg_a, deg_b, scale, threshold):
    """max over high sets H of |ln P_a[H] - ln P_b[H]|, where P[H] is the
    probability that exactly the variables in H have degree plus
    Laplace(scale) noise above the threshold, from the closed-form tails
    P[L > t] = e^(-t/scale) / 2 for t >= 0."""
    assert threshold > max(deg_a.max(), deg_b.max())

    def log_p(deg, high):
        tail = -(threshold - deg) / scale + math.log(0.5)  # ln P[L > T - d]
        return sum(
            t if h else math.log1p(-math.exp(t)) for t, h in zip(tail.tolist(), high)
        )

    return max(
        abs(log_p(deg_a, high) - log_p(deg_b, high))
        for high in product((False, True), repeat=deg_a.size)
    )


def spy_em_budgets(monkeypatch):
    """Records the budget of every em_over_assignments_batch call of the
    helper."""
    budgets = []
    real = dp_mechanisms.em_over_assignments_batch

    def spy(problem, active, budget, sensitivity, rng, trials):
        budgets.append(budget)
        return real(problem, active, budget, sensitivity, rng, trials)

    monkeypatch.setattr(dp_mechanisms, "em_over_assignments_batch", spy)
    return budgets


class TestDegreeStageLoss:
    """The degree stage of each algorithm spends exactly its share of
    epsilon on a neighbouring pair, one edge or constraint against none:
    the largest log ratio of the probabilities of a high set, computed
    exactly at the scale the algorithm draws with."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("algorithm", ["alg5", "alg6"])
    def test_graph_pair(self, monkeypatch, algorithm, eps):
        if algorithm == "alg5":
            run = lambda g: dp_maxcut_unbounded_batch(g, eps, gen(1), 1)[0]  # noqa: E731
            share = UNBOUNDED_BUDGET_FRACTIONS[0]
        else:
            eps /= 30.0  # alg6 takes epsilon in (0, 0.1]
            run = lambda g: dp_maxcut_general_batch(g, eps, 0.0, gen(1), 1)[0]  # noqa: E731
            share = GENERAL_BUDGET_FRACTIONS[0]
        scales = spy_laplace_scales(monkeypatch)
        one_edge = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        empty = WeightedGraph(n=2, edges=())
        run(one_edge)
        run(empty)
        assert len(scales) == 2 and scales[0] == scales[1]
        for threshold in (1.5, 10.0, 200.0):
            loss = degree_stage_loss(
                one_edge.degree_counts(), empty.degree_counts(), scales[0], threshold
            )
            assert abs(loss - float(share) * eps) <= 1e-12

    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("k", [2, 3])
    def test_kxor_pair(self, monkeypatch, k, eps):
        # neighbouring kXOR instances share the arity k, so the empty
        # instance is taken at the scale of the k-ary side
        scales = spy_laplace_scales(monkeypatch)
        inst = one_constraint(k)
        alg2_batch(inst, eps, gen(2), 1)
        assert len(scales) == 1
        empty_deg = np.zeros(k, dtype=np.int64)
        share = UNBOUNDED_BUDGET_FRACTIONS[0]
        for threshold in (1.5, 10.0, 200.0):
            loss = degree_stage_loss(degrees(inst), empty_deg, scales[0], threshold)
            assert abs(loss - float(share) * eps) <= 1e-12


class TestBudgetsMatchLedger:
    """What each stage is handed equals budget_ledger's entry with ==."""

    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.7, 0.1 + 0.2])
    def test_alg2(self, monkeypatch, eps):
        em = spy_em_budgets(monkeypatch)
        sub = []

        def subroutine(inst, e, g, trials):
            sub.append(e)
            return np.ones((trials, inst.n), dtype=np.int8)

        degree_split_batch(one_constraint(3), eps, gen(3), 1, subroutine, -1e9)
        ledger = dict(budget_ledger("alg2", eps))
        assert em == [ledger["high-part-em"]]
        assert sub == [ledger["subroutine"]]

    @pytest.mark.parametrize("eps", [70.0, 100.0, 0.1 + 0.2 + 99.0])
    def test_alg5(self, monkeypatch, eps):
        # threshold 10000/eps^2 <= 2.1 and noise scale 6/eps: the cycle's
        # degree-2 vertices are high
        em = spy_em_budgets(monkeypatch)
        shearer = []
        real = algo_maxcut.dp_shearer_batch

        def spy(graph, e, rng, trials):
            shearer.append(e)
            return real(graph, e, rng, trials)

        monkeypatch.setattr(algo_maxcut, "dp_shearer_batch", spy)
        cycle = WeightedGraph(n=4, edges=tuple((i, (i + 1) % 4, 1.0) for i in range(4)))
        dp_maxcut_unbounded_batch(cycle, eps, gen(4), 1)
        ledger = dict(budget_ledger("alg5", eps))
        assert em == [ledger["high-part-em"]]
        assert shearer == [ledger["dp-shearer"]]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("eps", [0.1, 0.07, 0.03 + 0.06])
    def test_alg6(self, monkeypatch, eps):
        # 600 parallel edges against the threshold 24/eps: both ends are
        # high on most seeds
        em = spy_em_budgets(monkeypatch)
        matching, final = [], []
        real_check, real_em = algo_maxcut._check_amplification, algo_maxcut.exponential_mechanism

        def check(rate, budget):
            matching.append(budget)
            return real_check(rate, budget)

        def select(candidates, score, e, sensitivity, rng):
            final.append(e)
            return real_em(candidates, score, e, sensitivity, rng)

        monkeypatch.setattr(algo_maxcut, "_check_amplification", check)
        monkeypatch.setattr(algo_maxcut, "exponential_mechanism", select)
        graph = WeightedGraph(n=2, edges=((0, 1, 1.0),) * 600)
        for seed in range(5):
            dp_maxcut_general_batch(graph, eps, 0.0, gen(seed), 1)
        ledger = dict(budget_ledger("alg6", eps))
        assert len(em) >= 1 and set(em) == {ledger["high-part-em"]}
        assert matching == [ledger["matching-em"]] * 5
        assert final == [ledger["final-selection"]] * 5

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="no budget ledger"):
            budget_ledger("alg1", 1.0)


def log_uniform_eps(count, seed=0):
    return np.exp(np.random.default_rng(seed).uniform(math.log(1e-6), math.log(1e3), count))


class TestStageBudget:
    def test_unit_shares_divide_exactly(self):
        # the rule reproduces the old literals bit for bit; float(share) * eps
        # would not (it differs on about a third of these eps, 2.9 among them)
        for eps in log_uniform_eps(20_000).tolist() + [0.1, 0.7, 1.0, 2.0]:
            for d in (2, 3, 6):
                assert stage_budget(eps, Fraction(1, d)) == eps / float(d)
        assert float(Fraction(1, 3)) * 2.9 != 2.9 / 3.0

    def test_ledger_entries(self):
        for eps in log_uniform_eps(2000, seed=1).tolist():
            third = eps / 3.0
            for algorithm in ("alg2", "alg_oddk"):
                assert budget_ledger(algorithm, eps) == (
                    ("degree-noise", third), ("high-part-em", third), ("subroutine", third))
            assert budget_ledger("alg5", eps) == (
                ("degree-noise", third), ("high-part-em", third), ("dp-shearer", third))
            sixth = eps / 6.0
            assert budget_ledger("alg6", eps) == (
                ("degree-noise", sixth), ("high-part-em", sixth), ("matching-em", sixth),
                ("final-selection", eps / 2.0))


class TestNoisyHighMask:
    CASES = [
        (WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0))), 2),
        (WeightedGraph(n=2, edges=()), 2),
        (one_constraint(3), 3),
        (CspInstance(n=4, constraints=(), kind="kxor"), 1),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_scale_and_draw(self, monkeypatch, case):
        problem, k = self.CASES[case]
        scales = spy_laplace_scales(monkeypatch)
        for i, eps in enumerate(log_uniform_eps(300, seed=2).tolist()):
            for share, literal in ((Fraction(1, 3), 3.0 * k / eps), (Fraction(1, 6), 6.0 * k / eps)):
                g1, g2 = gen(i), gen(i)
                mask = noisy_high_mask(problem, eps, share, 1.5, g1, 1)[0]
                ref = degrees(problem) + dp_mechanisms.sample_laplace(literal, g2, size=problem.n) > 1.5
                # the reference draw goes through the spy too: the helper's is second to last
                assert scales[-2] == literal
                assert mask.dtype == bool and np.array_equal(mask, ref)
                assert g1.bit_generator.state == g2.bit_generator.state

    def test_degrees_of_a_graph(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0)))
        assert degrees(g) is g.degree_counts()
        assert degrees(g).tolist() == [2, 1, 1]


class TestEmOnPart:
    def test_empty_part_draws_only_the_uniform_vector(self):
        g1, g2 = gen(5), gen(5)
        x = em_on_part(one_constraint(3), np.zeros((1, 3), dtype=bool), 1.0, g1)
        ref = (2 * g2.integers(0, 2, size=(1, 3)) - 1).astype(np.int8)
        assert x.dtype == np.int8 and np.array_equal(x, ref)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_part_over_cap_refused(self, monkeypatch):
        monkeypatch.setattr(dp_mechanisms, "EM_ENUMERATION_CAP", 4)
        inst = CspInstance(n=5, constraints=(Constraint(scope=(0, 1), b=1),), kind="kxor")
        with pytest.raises(dp_mechanisms.ResourceCapError, match="exceeds cap 4"):
            em_on_part(inst, np.ones((1, 5), dtype=bool), 1.0, gen())
