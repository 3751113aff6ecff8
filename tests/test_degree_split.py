"""The noisy-degree split shared by alg2, alg5, alg6 and em_baseline: the
degree stage's exact privacy loss, the stage budgets against the ledger,
and the helpers themselves."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from privcsp import algo_maxcut, dp_mechanisms
from privcsp.algo_csp import alg2_batch
from privcsp.algo_maxcut import (
    dp_maxcut_general_batch,
    dp_maxcut_unbounded_batch,
    dp_shearer_batch,
)
from privcsp.csp_core import Constraint, CspInstance, degrees
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
from privcsp.harness import ALGORITHMS, ExperimentConfig, estimate_ratio


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def gen(seed=0):
    return RngStream(seed, 0).generator()


def one_constraint(k):
    return CspInstance(n=k, constraints=(Constraint(scope=tuple(range(k)), b=1),), kind="kxor")


def spy_noise_params(monkeypatch):
    """Records the parameter of every noisy_above call of the degree stage:
    dp_mechanisms' binding, which dp_shearer does not use."""
    params = []
    real = dp_mechanisms.noisy_above

    def spy(values, threshold, param, rng, shape):
        params.append(param)
        return real(values, threshold, param, rng, shape)

    monkeypatch.setattr(dp_mechanisms, "noisy_above", spy)
    return params


def spy_degree_budgets(monkeypatch):
    """Records the budget of every noisy_high_mask call; every degree-split
    algorithm reaches it through dp_mechanisms.noisy_degree_split."""
    budgets = []
    real = dp_mechanisms.noisy_high_mask

    def spy(problem, budget, threshold, rng, trials):
        budgets.append(budget)
        return real(problem, budget, threshold, rng, trials)

    monkeypatch.setattr(dp_mechanisms, "noisy_high_mask", spy)
    return budgets


def small_side(m, param):
    """The smaller side of P[Z >= m] for Z integer Laplace at param, from the
    two-sided geometric tails with q = e^-param: P[Z >= m] = q^m / (1 + q)
    for m >= 1, and P[Z < m] = q^(1 - m) / (1 + q) for m <= 0."""
    q = math.exp(-param)
    return q ** (m if m >= 1 else 1 - m) / (1 + q)


def above_loss(values_a, values_b, param, threshold, param_b=None):
    """max over sets H of |ln P_a[H] - ln P_b[H]|, where P[H] is the
    probability that exactly the entries in H have value plus integer Laplace
    noise at param above the threshold, each entry's probability from
    noisy_above's own tail table (_small_tail, flipped where the value alone
    is above). A set impossible on both sides is skipped. param_b, if given,
    is side b's parameter."""

    def log_p(values, param):
        values = np.asarray(values)
        small = dp_mechanisms._small_tail(values, threshold, param)
        with np.errstate(divide="ignore"):  # a tail that underflows to 0
            log_small, log_large = np.log(small), np.log1p(-small)
        flip = values > threshold
        return np.where(flip, log_large, log_small), np.where(flip, log_small, log_large)

    (high_a, low_a), (high_b, low_b) = log_p(values_a, param), log_p(values_b, param_b or param)
    losses = []
    for high in product((False, True), repeat=len(values_a)):
        a, b = np.where(high, high_a, low_a).sum(), np.where(high, high_b, low_b).sum()
        if a > -math.inf or b > -math.inf:
            losses.append(abs(a - b))
    return max(losses)


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
        params = spy_noise_params(monkeypatch)
        one_edge = cut_graph(2, ((0, 1),))
        empty = cut_graph(2, ())
        run(one_edge)
        run(empty)
        assert len(params) == 2 and params[0] == params[1]
        for threshold in (1.5, 10.0, 200.0):
            deg_a, deg_b = degrees(one_edge), degrees(empty)
            loss = above_loss(deg_a, deg_b, params[0], threshold)
            assert abs(loss - float(share) * eps) <= 1e-12
            # mutation check: noise at the whole budget, not budget / 2
            assert above_loss(deg_a, deg_b, 2 * params[0], threshold) > float(share) * eps

    @pytest.mark.parametrize("eps", [1.0, 3.0, 6.0])
    def test_alg2_graph_pair_through_harness(self, monkeypatch, eps):
        # alg2 on the object the harness hands the kernel: a graph declares
        # arity 2 even with no edges, so the edgeless graph draws at the
        # one-edge graph's parameter and the stage spends its share, not more
        params = spy_noise_params(monkeypatch)
        one_edge = cut_graph(2, ((0, 1),))
        empty = cut_graph(2, ())
        config = ExperimentConfig(algorithm="alg2", eps=(eps,), trials=1, seed=0)
        estimate_ratio(config, one_edge)
        estimate_ratio(config, empty)
        assert len(params) == 2
        loss = above_loss(
            degrees(one_edge), degrees(empty), params[0], 10000.0 / eps ** 4, params[1]
        )
        assert loss <= float(UNBOUNDED_BUDGET_FRACTIONS[0]) * eps * (1 + 1e-9)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("k", [2, 3])
    def test_kxor_pair(self, monkeypatch, k, eps):
        # neighbouring kXOR instances share the arity k, so the empty
        # instance is taken at the parameter of the k-ary side
        params = spy_noise_params(monkeypatch)
        inst = one_constraint(k)
        alg2_batch(inst, eps, gen(2), 1)
        assert len(params) == 1
        empty_deg = np.zeros(k, dtype=np.int64)
        share = UNBOUNDED_BUDGET_FRACTIONS[0]
        for threshold in (1.5, 10.0, 200.0):
            loss = above_loss(degrees(inst), empty_deg, params[0], threshold)
            assert abs(loss - float(share) * eps) <= 1e-12
            # mutation check: noise at the whole budget, not budget / k
            mutant = above_loss(degrees(inst), empty_deg, k * params[0], threshold)
            assert mutant > float(share) * eps


class TestDpShearerLoss:
    """dp_shearer on the edgeless and the one-edge 2-vertex graph at the
    same colourings spends at most epsilon: at fixed colourings the output
    is a function of the set of vertices whose count clears the noisy
    threshold, so the loss over those sets, computed exactly from the values
    and the parameter dp_shearer hands noisy_above, bounds it."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 3.0])
    def test_edge_pair(self, monkeypatch, eps):
        calls = []
        real = algo_maxcut.noisy_above

        def spy(values, threshold, param, rng, shape):
            calls.append((np.array(values), threshold, param))
            return real(values, threshold, param, rng, shape)

        monkeypatch.setattr(algo_maxcut, "noisy_above", spy)
        one_edge = cut_graph(2, ((0, 1),))
        empty = cut_graph(2, ())
        # the colourings are the first draws, so one seed gives both the same
        dp_shearer_batch(one_edge, eps, gen(3), 16)
        dp_shearer_batch(empty, eps, gen(3), 16)
        (values_a, threshold, param), (values_b, threshold_b, param_b) = calls
        assert param == param_b == eps / 2 and threshold == threshold_b == 0
        losses = [above_loss(a, b, param, 0) for a, b in zip(values_a, values_b)]
        # a row whose colours agree moves both counts by one: the bound is met exactly
        assert max(losses) <= eps * (1 + 1e-12) and abs(max(losses) - eps) <= 1e-12
        # mutation check: noise at the whole epsilon, not epsilon / 2
        assert max(above_loss(a, b, eps, 0) for a, b in zip(values_a, values_b)) > eps


class TestNoiseFloor:
    """The degree stage draws at parameter budget / k, and the sampler
    refuses a parameter below about 4.5e-17: an epsilon whose parameter
    falls below is refused before any draw, naming the stage and the
    epsilon the kernel was given; one just above runs."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("algorithm,k,refused,runs", [
        ("alg2", 2, 2.4e-16, 3e-16),  # parameter eps/6
        ("alg_oddk", 3, 3.6e-16, 4.5e-16),  # eps/9
        ("alg5", 2, 2.4e-16, 3e-16),  # eps/6
        ("alg6", 2, 4.8e-16, 6e-16),  # eps/12
    ])
    def test_floor(self, algorithm, k, refused, runs):
        problem = cut_graph(2, ((0, 1),)) if k == 2 else one_constraint(k)
        g = gen(6)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match=rf"epsilon = {refused} is too small for the degree stage") as exc:
            ALGORITHMS[algorithm](problem, refused, 0.0, g, 3)
        assert g.bit_generator.state == state
        # epsilon once; the sampler's value goes by its own name
        message = str(exc.value)
        assert message.count(str(refused)) == 1 and message.count("epsilon") == 1
        assert "noise parameter" in message
        assert ALGORITHMS[algorithm](problem, runs, 0.0, gen(6), 3).shape == (3, problem.n)


class TestBudgetsMatchLedger:
    """What each stage is handed equals budget_ledger's entry with ==."""

    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.7, 0.1 + 0.2])
    def test_alg2(self, monkeypatch, eps):
        degree = spy_degree_budgets(monkeypatch)
        em = spy_em_budgets(monkeypatch)
        sub = []

        def subroutine(inst, e, g, trials):
            sub.append(e)
            return np.ones((trials, inst.n), dtype=np.int8)

        degree_split_batch(one_constraint(3), eps, gen(3), 1, subroutine, -1e9)
        ledger = dict(budget_ledger("alg2", eps))
        assert degree == [ledger["degree-noise"]]
        assert em == [ledger["high-part-em"]]
        assert sub == [ledger["subroutine"]]

    @pytest.mark.parametrize("eps", [71.0, 100.0, 0.1 + 0.2 + 99.0])
    def test_alg5(self, monkeypatch, eps):
        # threshold 10000/eps^2 < 2 and noise parameter eps/6: the cycle's
        # degree-2 vertices are high unless the noise is negative
        degree = spy_degree_budgets(monkeypatch)
        em = spy_em_budgets(monkeypatch)
        shearer = []
        real = algo_maxcut.dp_shearer_batch

        def spy(graph, e, rng, trials):
            shearer.append(e)
            return real(graph, e, rng, trials)

        monkeypatch.setattr(algo_maxcut, "dp_shearer_batch", spy)
        cycle = cut_graph(4, tuple((i, (i + 1) % 4) for i in range(4)))
        dp_maxcut_unbounded_batch(cycle, eps, gen(4), 1)
        ledger = dict(budget_ledger("alg5", eps))
        assert degree == [ledger["degree-noise"]]
        assert em == [ledger["high-part-em"]]
        assert shearer == [ledger["dp-shearer"]]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("eps", [0.1, 0.07, 0.03 + 0.06])
    def test_alg6(self, monkeypatch, eps):
        # 600 parallel edges against the threshold 24/eps: both ends are
        # high on most seeds
        degree = spy_degree_budgets(monkeypatch)
        em = spy_em_budgets(monkeypatch)
        matching, final = [], []
        real_check, real_em = algo_maxcut._check_amplification, algo_maxcut.exponential_mechanism

        def check(rate, budget):
            matching.append(budget)
            return real_check(rate, budget)

        def select(scores, e, sensitivity, rng):
            final.append(e)
            return real_em(scores, e, sensitivity, rng)

        monkeypatch.setattr(algo_maxcut, "_check_amplification", check)
        monkeypatch.setattr(algo_maxcut, "exponential_mechanism", select)
        graph = cut_graph(2, ((0, 1),) * 600)
        for seed in range(5):
            dp_maxcut_general_batch(graph, eps, 0.0, gen(seed), 1)
        ledger = dict(budget_ledger("alg6", eps))
        assert degree == [ledger["degree-noise"]] * 5
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
        (cut_graph(3, ((0, 1), (1, 2))), 2),
        (cut_graph(2, ()), 2),
        (one_constraint(3), 3),
        (CspInstance(n=4, constraints=(), kind="kxor"), 1),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_scale_and_draw(self, monkeypatch, case):
        problem, k = self.CASES[case]
        params = spy_noise_params(monkeypatch)
        for i, eps in enumerate(log_uniform_eps(300, seed=2).tolist()):
            for budget in (eps / 3.0, eps / 6.0):
                g1, g2 = gen(i), gen(i)
                mask = noisy_high_mask(problem, budget, 1.5, g1, 1)[0]
                # one uniform per variable against the small side of its tail,
                # flipped where the degree alone is above: d + Z > 1.5 exactly
                # when Z >= m = floor(1.5 - d) + 1
                u = g2.random((1, problem.n))[0]
                ms = [math.floor(1.5 - d) + 1 for d in degrees(problem).tolist()]
                ref = [bool(x < small_side(m, budget / k)) != (m <= 0) for x, m in zip(u, ms)]
                assert params[-1] == budget / k
                assert mask.dtype == bool and np.array_equal(mask, ref)
                assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_law_against_sampler(self, case):
        # per variable, the frequency of the mask against the
        # sample_discrete_laplace formulation d + Z > T at 4 sigma, with a
        # threshold between the degrees and noise of scale about 1
        problem, k = self.CASES[case]
        trials, budget, threshold = 400_000, 0.8 * k, 0.5
        mask = noisy_high_mask(problem, budget, threshold, gen(30), trials).mean(axis=0)
        noise = dp_mechanisms.sample_discrete_laplace(budget / k, gen(31), size=(trials, problem.n))
        ref = (degrees(problem) + noise > threshold).mean(axis=0)
        pooled = (mask + ref) / 2
        assert np.all(np.abs(mask - ref) <= 4 * np.sqrt(pooled * (1 - pooled) * 2 / trials))

    def test_degrees_of_a_graph(self):
        g = cut_graph(3, ((0, 1), (0, 2)))
        assert degrees(g) is degrees(g)
        assert degrees(g).tolist() == [2, 1, 1]


class TestEmOnPart:
    def test_empty_part_draws_only_the_uniform_vector(self):
        # the fair_signs block: entry i is bit 7 - i of one uint8 draw
        g1, g2 = gen(5), gen(5)
        x = em_on_part(one_constraint(3), np.zeros((1, 3), dtype=bool), 1.0, g1)
        byte = int(g2.integers(0, 256, size=1, dtype=np.uint8)[0])
        ref = np.array([[1 if byte >> (7 - i) & 1 else -1 for i in range(3)]], dtype=np.int8)
        assert x.dtype == np.int8 and np.array_equal(x, ref)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_part_over_cap_refused(self, monkeypatch):
        monkeypatch.setattr(dp_mechanisms, "EM_ENUMERATION_CAP", 4)
        inst = CspInstance(n=5, constraints=(Constraint(scope=(0, 1), b=1),), kind="kxor")
        with pytest.raises(dp_mechanisms.ResourceCapError, match="exceeds cap 4"):
            em_on_part(inst, np.ones((1, 5), dtype=bool), 1.0, gen())
