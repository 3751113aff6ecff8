import math

import numpy as np
import pytest

from privcsp.csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
    WeightedGraph,
    all_values,
    assignment_rows,
)
from privcsp import dp_mechanisms
from privcsp.algo_maxcut import dp_maxcut_general_batch
from privcsp.dp_mechanisms import (
    RngStream,
    check_epsilon,
    em_over_assignments_batch,
    exponential_mechanism,
    keep_probability,
    randomized_response,
    sample_discrete_laplace,
)
from privcsp.oracles import exact_em_distribution


def gen(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().random(5)
        b = RngStream(7, 3).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 0).generator().random(5)
        b = RngStream(7, 1).generator().random(5)
        assert not np.array_equal(a, b)


class TestCheckEpsilon:
    def test_accepted(self):
        for eps in (0.0, 5e-324, 1.5, 1e308):
            check_epsilon(eps)
        check_epsilon(0.5, positive=True)

    @pytest.mark.parametrize("eps", [-0.1, -math.inf, math.nan, math.inf])
    def test_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            check_epsilon(eps)
        with pytest.raises(ValueError, match="budget must be finite"):
            check_epsilon(eps, "budget", positive=True)

    def test_zero_rejected_when_positive(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            check_epsilon(0.0, positive=True)


class TestDiscreteLaplace:
    def test_argument_error(self):
        with pytest.raises(ValueError):
            sample_discrete_laplace(0.0, gen(), size=1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            sample_discrete_laplace(eps, gen(), size=1)
        with pytest.raises(ValueError, match="finite"):
            sample_discrete_laplace(eps, gen(), size=3)

    @pytest.mark.parametrize("eps", [1e-17, 5e-18, 1e-300, 5e-324])
    def test_tiny_eps_rejected_before_any_draw(self, eps):
        # 1 - e^-eps rounds to 0: the geometric law has no success probability
        for size in (1, 3, (2, 2)):
            g = gen(14)
            state = g.bit_generator.state
            with pytest.raises(ValueError, match="epsilon.*discrete-Laplace sampler"):
                sample_discrete_laplace(eps, g, size=size)
            assert g.bit_generator.state == state

    @pytest.mark.parametrize("eps", [1e-12, 2e-16])
    def test_tiny_eps_that_rounds_above_zero_samples(self, eps):
        x = sample_discrete_laplace(eps, gen(15), size=1000)
        assert x.dtype == np.int64 and x.shape == (1000,)
        one = sample_discrete_laplace(eps, gen(16), size=1)
        assert one.dtype == np.int64 and one.shape == (1,)

    def test_mass_formula_ln2(self):
        # eps = ln 2: Pr[0] = 1/3, Pr[+-1] = 1/6 each
        x = sample_discrete_laplace(math.log(2.0), gen(4), size=500_000)
        for value, target in ((0, 1 / 3), (1, 1 / 6), (-1, 1 / 6)):
            p = np.mean(x == value)
            sigma = math.sqrt(target * (1 - target) / x.size)
            assert abs(p - target) < 3.5 * sigma

    def test_variance_ln2(self):
        x = sample_discrete_laplace(math.log(2.0), gen(5), size=500_000)
        assert x.var() == pytest.approx(4.0, abs=0.1)

    def test_symmetry_and_scalar(self):
        x = sample_discrete_laplace(1.0, gen(6), size=200_000)
        assert abs(np.mean(x)) < 0.02
        one = sample_discrete_laplace(1.0, gen(7), size=1)
        assert one.dtype == np.int64 and one.shape == (1,)

    def test_determinism(self):
        a = sample_discrete_laplace(0.7, gen(8), size=10)
        b = sample_discrete_laplace(0.7, gen(8), size=10)
        assert np.array_equal(a, b)


class TestRandomizedResponse:
    def test_keep_probability(self):
        eps = math.log(3.0)  # keep probability exactly 3/4
        out = randomized_response(np.ones(400_000, dtype=np.int64), eps, gen(9))
        p = np.mean(out == 1)
        sigma = math.sqrt(0.75 * 0.25 / out.size)
        assert abs(p - 0.75) < 3.5 * sigma

    def test_eps_zero_uniform(self):
        out = randomized_response(np.ones(200_000, dtype=np.int64), 0.0, gen(10))
        assert abs(np.mean(out == 1) - 0.5) < 0.004

    def test_closed_form_ratio(self):
        # output probabilities follow directly from the keep probability
        for eps in (0.1, 1.0, 3.0):
            keep = math.exp(eps) / (1 + math.exp(eps))
            # Pr[out = 1 | in = 1] / Pr[out = 1 | in = -1] = keep / (1 - keep)
            assert keep / (1 - keep) == pytest.approx(math.exp(eps), rel=1e-12)

    def test_keep_probability_stable(self):
        assert keep_probability(0.0) == 0.5
        assert keep_probability(800.0) == 1.0
        for eps in (0.1, 1.0, 3.0):
            assert keep_probability(eps) == pytest.approx(
                math.exp(eps) / (1 + math.exp(eps)), rel=1e-15
            )

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf, -math.inf])
    def test_invalid_eps_rejected(self, eps):
        with pytest.raises(ValueError):
            keep_probability(eps)
        with pytest.raises(ValueError):
            randomized_response(np.ones(3, dtype=np.int64), eps, gen())

    def test_huge_eps_keeps_every_input(self):
        bits = 2 * gen(12).integers(0, 2, size=10_000) - 1
        out = randomized_response(bits, 800.0, gen(13))
        assert np.array_equal(out, bits)

    def test_01_domain(self):
        out = randomized_response(np.array([0, 1, 0]), 100.0, gen(11), domain="01")
        assert set(np.unique(out)) <= {0, 1}

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            randomized_response(np.array([0, 1]), 1.0, gen(), domain="pm1")
        with pytest.raises(ValueError):
            randomized_response(1, 1.0, gen(), domain="flip")

    def test_negative_eps(self):
        with pytest.raises(ValueError):
            randomized_response(1, -1.0, gen())


def em_counts(scores, eps, seed, trials):
    """Index counts of one exponential_mechanism call on `trials` rows of
    the same scores."""
    picks = exponential_mechanism(np.tile(scores, (trials, 1)), eps, 1.0, gen(seed))
    assert picks.shape == (trials,)
    return np.bincount(picks, minlength=len(scores))


class TestExponentialMechanism:
    def test_two_candidates(self):
        hits = em_counts([1.0, 0.0], 2.0, 12, 100_000)[0]
        target = math.e / (1 + math.e)
        sigma = math.sqrt(target * (1 - target) / 100_000)
        assert abs(hits / 100_000 - target) < 3.5 * sigma

    def test_equal_scores_uniform(self):
        counts = em_counts([2.0] * 4, 1.0, 13, 40_000)
        assert np.all(np.abs(counts / 40_000 - 0.25) < 0.01)

    def test_sampling_matches_exact(self):
        scores = [3.0, 1.0, 0.0, 2.5, 2.0]
        probs = exact_em_distribution(scores, 1.5, 1.0)
        trials = 100_000
        picks = exponential_mechanism(np.tile(scores, (trials, 1)), 1.5, 1.0, gen(14))
        tv = 0.5 * np.abs(np.bincount(picks, minlength=5) / trials - probs).sum()
        assert tv <= 0.01

    def test_rows_follow_their_own_scores(self):
        # one block whose rows carry different scores: each row's pick
        # follows its own scores' law
        table = np.array([[3.0, 1.0, 0.0], [0.0, 0.0, 4.0], [1.0, 1.0, 1.0], [-2.0, 5.0, 0.5]])
        trials = 100_000
        which = np.arange(4 * trials) % 4
        picks = exponential_mechanism(table[which], 1.5, 1.0, gen(22))
        for i, scores in enumerate(table):
            counts = np.bincount(picks[which == i], minlength=3)
            tv = 0.5 * np.abs(counts / trials - exact_em_distribution(scores, 1.5, 1.0)).sum()
            assert tv <= 0.01

    def test_one_uniform_per_row(self):
        # index i is taken when the row's uniform lies in [cdf[i-1], cdf[i])
        scores = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [5.0, 5.0, 5.0]] * 100)
        g1, g2 = gen(23), gen(23)
        picks = exponential_mechanism(scores, 1.0, 1.0, g1)
        draws = g2.random(scores.shape[0])
        for row, pick, u in zip(scores, picks, draws):
            cdf = np.cumsum(exact_em_distribution(row, 1.0, 1.0))
            assert pick == min(int(np.searchsorted(cdf, u, side="right")), 2)
        assert g1.random() == g2.random()

    def test_errors(self):
        with pytest.raises(ValueError):
            exponential_mechanism(np.zeros((1, 0)), 1.0, 1.0, gen())
        with pytest.raises(ValueError):
            exponential_mechanism([0.0, 1.0], 1.0, 1.0, gen())
        with pytest.raises(ValueError):
            exponential_mechanism([[float("nan")]], 1.0, 1.0, gen())
        with pytest.raises(ValueError):
            exponential_mechanism([[0.0]], 1.0, 0.0, gen())

    def test_large_scores_stable(self):
        assert exponential_mechanism([[1e6, 0.0]], 10.0, 1.0, gen(15)).tolist() == [0]

    def test_huge_eps_picks_a_maximizer(self):
        # eps * score / 2 overflows float at eps = 1e308 and score 4: the
        # weights are those of the scores minus their maximum, so the law is
        # the uniform one over the maximizers
        assert exponential_mechanism([[0.0, 4.0]] * 100, 1e308, 1.0, gen(24)).tolist() == [1] * 100
        counts = em_counts([4.0, 0.0, 4.0, -1e300], 1e308, 25, 40_000)
        assert counts[1] == counts[3] == 0
        assert abs(counts[0] / 40_000 - 0.5) < 3.5 * math.sqrt(0.25 / 40_000)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            exponential_mechanism([[1.0, 0.0]], eps, 1.0, gen())

    def test_eps_zero_uniform_over_a_spread_beyond_float_max(self):
        # scores minus their maximum overflow to -inf here, and 0 * -inf was
        # nan, so every row took index 0
        assert dp_mechanisms._em_cdf(np.array([[-1e308, 1e308]]), 0.0, 1.0).tolist() == [[0.5, 1.0]]
        counts = em_counts([-1e308, 1e308], 0.0, 27, 40_000)
        assert abs(counts[0] / 40_000 - 0.5) < 3.5 * math.sqrt(0.25 / 40_000)

    def test_eps_zero_cdf_unchanged_on_ordinary_rows(self):
        # the weights exp(0 * (score - max)) of every finite spread
        scores = gen(28).normal(size=(50, 7)) * 100
        weights = np.exp((scores - scores.max(axis=1, keepdims=True)) * 0.0)
        cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
        assert np.array_equal(dp_mechanisms._em_cdf(scores, 0.0, 1.0), cdf)


class TestEmOverAssignments:
    def graph3(self):
        return WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    @pytest.mark.parametrize("active", [[0, 1, 2], []])
    def test_non_finite_budget_rejected(self, eps, active):
        # also on an empty active set, which draws nothing
        with pytest.raises(ValueError, match="finite"):
            em_over_assignments_batch(self.graph3(), active, eps, 1.0, gen(), 1)
        with pytest.raises(ValueError, match="finite"):
            em_over_assignments_batch(self.graph3(), active, eps, 1.0, gen(), 4)

    def test_empty_active_no_randomness(self):
        g1, g2 = gen(16), gen(16)
        out = em_over_assignments_batch(self.graph3(), [], 1.0, 1.0, g1, 1)[0]
        assert out.size == 0
        assert g1.random() == g2.random()

    def test_cap(self):
        inst = CspInstance(n=30, constraints=(), kind="kxor")
        with pytest.raises(ResourceCapError):
            em_over_assignments_batch(inst, list(range(25)), 1.0, 1.0, gen(), 1)

    def test_single_edge_cut_probability(self):
        # one edge, the factorized selection exponent: budget 2.5 at
        # sensitivity 2 gives weight e^{2.5/4} to each cutting assignment
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        target = math.exp(2.5 / 4) / (1 + math.exp(2.5 / 4))
        rng = gen(17)
        trials = 100_000
        cuts = 0
        for _ in range(trials):
            out = em_over_assignments_batch(g, [0, 1], 2.5, 2.0, rng, 1)[0]
            cuts += out[0] != out[1]
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(cuts / trials - target) < 3.5 * sigma

    def test_tv_against_exact(self):
        inst = CspInstance(
            n=3,
            constraints=(
                Constraint(scope=(0, 1), b=1),
                Constraint(scope=(1, 2), b=-1),
                Constraint(scope=(0, 2), b=1),
            ),
            kind="kxor",
        )
        from privcsp.csp_core import all_values

        probs = exact_em_distribution(all_values(inst, [0, 1, 2]), 2.0, 1.0)
        rng = gen(18)
        trials = 100_000
        counts = np.zeros(8)
        for _ in range(trials):
            out = em_over_assignments_batch(inst, [0, 1, 2], 2.0, 1.0, rng, 1)[0]
            idx = sum((1 << t) for t, v in enumerate(out) if v == 1)
            counts[idx] += 1
        tv = 0.5 * np.abs(counts / trials - probs).sum()
        assert tv <= 0.01

    def test_batch_matches_single_law(self):
        inst = CspInstance(
            n=2, constraints=(Constraint(scope=(0, 1), b=1),), kind="kxor"
        )
        rows = em_over_assignments_batch(inst, [0, 1], 2.0, 1.0, gen(19), 50_000)
        sat = np.mean(rows[:, 0] * rows[:, 1] == 1)
        w = math.exp(1.0)  # budget/(2*sens) = 1 per satisfied constraint
        target = 2 * w / (2 * w + 2)
        assert abs(sat - target) < 0.01

    def test_untouched_outside_active(self):
        out = em_over_assignments_batch(self.graph3(), [2], 1.0, 1.0, gen(20), 1)[0]
        assert out.shape == (1,)

    def test_determinism(self):
        a = em_over_assignments_batch(self.graph3(), [0, 1, 2], 1.0, 1.0, gen(21), 1)[0]
        b = em_over_assignments_batch(self.graph3(), [0, 1, 2], 1.0, 1.0, gen(21), 1)[0]
        assert np.array_equal(a, b)

    def test_huge_budget_uniform_over_maximizers(self):
        # at budget 1e308 the old weights were inf - inf = nan, and the draw
        # returned assignment 0 whatever its value
        inst = CspInstance(n=5, constraints=tuple(
            Constraint(scope=(i, (i + 1) % 5), b=-1) for i in range(5)), kind="kxor")
        values = all_values(inst, range(5))
        best = values == values.max()
        rows = em_over_assignments_batch(inst, range(5), 1e308, 1.0, gen(26), 10_000)
        codes = ((rows > 0) << np.arange(5)).sum(axis=1)
        assert best[codes].all() and np.unique(codes).size == best.sum()
        cdf = next(iter(inst._em_cdf_memo.values()))
        assert np.array_equal(np.diff(cdf, prepend=0.0)[~best], np.zeros((~best).sum()))

    def test_single_draw_reads_one_uniform(self):
        # the single draw is row 0 of a one-trial batch: it reads the one
        # double gen.random() reads, and inverts the same CDF
        probs = exact_em_distribution(all_values(self.graph3(), [2, 0, 1]), 1.0, 1.0)
        for seed in range(200):
            g1, g2 = gen(seed), gen(seed)
            out = em_over_assignments_batch(self.graph3(), [2, 0, 1], 1.0, 1.0, g1, 1)[0]
            idx = int(np.searchsorted(np.cumsum(probs), g2.random(), side="right"))
            assert np.array_equal(out, assignment_rows(idx, 3))
            assert g1.random() == g2.random()


def memo_kxor():
    return CspInstance(n=5, constraints=(
        Constraint(scope=(0, 1), b=1),
        Constraint(scope=(1, 2, 3), b=-1),
        Constraint(scope=(3, 4), b=1),
        Constraint(scope=(0, 4), b=-1),
    ), kind="kxor")


def memo_graph():
    return WeightedGraph(n=5, edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 4, 1.0)))


def disable_memo(monkeypatch):
    """Gives every call an empty memo of its own, so each one builds the
    value table and CDF afresh, as before the memo existed."""
    for cls in (CspInstance, WeightedGraph):
        monkeypatch.setattr(cls, "_em_cdf_memo", property(lambda self: {}))


def count_tables(monkeypatch):
    calls = []

    def counting(problem, active):
        calls.append(tuple(active))
        return all_values(problem, active)

    monkeypatch.setattr(dp_mechanisms, "all_values", counting)
    return calls


# (problem index, active, budget, trials): repeats, and alternation between
# two equal instances, two budgets and two active sets
MEMO_CALLS = [
    (0, (0, 1, 2, 3, 4), 1.0, 1),
    (0, (0, 1, 2, 3, 4), 1.0, 3),
    (1, (0, 1, 2, 3, 4), 1.0, 1),
    (0, (0, 1, 2, 3, 4), 2.5, 1),
    (0, (0, 1, 2, 3, 4), 1.0, 1),
    (1, (4, 3, 2), 2.5, 2),
    (0, (4, 3, 2), 2.5, 1),
    (1, (4, 3, 2), 1.0, 1),
    (1, (0, 1, 2, 3, 4), 2.5, 1),
    (1, (0, 1, 2, 3, 4), 2.5, 1),
]


def run_memo_calls(make, seed):
    problems = [make(), make()]
    rng = gen(seed)
    rows = [
        em_over_assignments_batch(problems[p], list(active), budget, 1.0, rng, trials)
        for p, active, budget, trials in MEMO_CALLS
    ]
    return rows, rng.bit_generator.state


class TestEmMemo:
    @pytest.mark.parametrize("make", [memo_kxor, memo_graph])
    def test_draws_match_without_memo(self, monkeypatch, make):
        with_memo = [run_memo_calls(make, seed) for seed in range(200)]
        disable_memo(monkeypatch)
        for seed, (rows, state) in enumerate(with_memo):
            ref_rows, ref_state = run_memo_calls(make, seed)
            assert all(np.array_equal(a, b) for a, b in zip(rows, ref_rows))
            assert state == ref_state

    @pytest.mark.parametrize("make", [memo_kxor, memo_graph])
    def test_alternating_keys_use_their_own_cdf(self, monkeypatch, make):
        # each call must draw what a fresh instance draws from the same
        # generator state, and reuse a table only on its own instance
        calls = count_tables(monkeypatch)
        problems = [make(), make()]
        assert problems[0] == problems[1]
        misses = 0
        last = [None, None]
        for i, (p, active, budget, trials) in enumerate(MEMO_CALLS):
            key = (active, budget, 1.0)
            misses += last[p] != key
            last[p] = key
            out = em_over_assignments_batch(problems[p], list(active), budget, 1.0, gen(i), trials)
            ref = em_over_assignments_batch(make(), list(active), budget, 1.0, gen(i), trials)
            assert np.array_equal(out, ref)
            assert list(problems[p]._em_cdf_memo) == [key]
        # one table per miss on the shared instances, one per fresh instance
        assert len(calls) == misses + len(MEMO_CALLS)
        assert problems[0]._em_cdf_memo is not problems[1]._em_cdf_memo

    def test_repeat_builds_one_table(self, monkeypatch):
        calls = count_tables(monkeypatch)
        inst = memo_kxor()
        for seed in range(20):
            em_over_assignments_batch(inst, [0, 1, 2, 3, 4], 1.0, 1.0, gen(seed), 1)
        assert calls == [(0, 1, 2, 3, 4)]
        (cdf,) = inst._em_cdf_memo.values()
        assert not cdf.flags.writeable

    @pytest.mark.parametrize("budget,sensitivity,error", [
        (math.nan, 1.0, ValueError),
        (math.inf, 1.0, ValueError),
        (-1.0, 1.0, ValueError),
        (1.0, 0.0, ValueError),
        (1.0, -1.0, ValueError),
        (1.0, math.nan, ValueError),
    ])
    def test_checks_run_on_a_memo_hit(self, budget, sensitivity, error):
        # a stored entry under the very key of the bad call (the same nan
        # object compares equal inside a tuple) must not let it through
        inst = memo_kxor()
        active = [0, 1, 2]
        em_over_assignments_batch(inst, active, 1.0, 1.0, gen(), 1)
        (cdf,) = inst._em_cdf_memo.values()
        inst._em_cdf_memo.clear()
        inst._em_cdf_memo[(tuple(active), budget, sensitivity)] = cdf
        with pytest.raises(error):
            em_over_assignments_batch(inst, active, budget, sensitivity, gen(), 1)
        with pytest.raises(error):
            em_over_assignments_batch(inst, active, budget, sensitivity, gen(), 4)

    def test_cap_checked_on_a_memo_hit(self, monkeypatch):
        inst = memo_kxor()
        em_over_assignments_batch(inst, [0, 1, 2, 3, 4], 1.0, 1.0, gen(), 1)
        monkeypatch.setattr(dp_mechanisms, "EM_ENUMERATION_CAP", 4)
        with pytest.raises(ResourceCapError):
            em_over_assignments_batch(inst, [0, 1, 2, 3, 4], 1.0, 1.0, gen(), 1)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_alg6_keeps_one_entry(self):
        # noise lifts a few of 14 vertices above the threshold, a
        # different few on each seed
        rng = np.random.default_rng(5)
        edges = tuple(tuple(rng.choice(14, size=2, replace=False).tolist()) + (1.0,)
                      for _ in range(300))
        g = WeightedGraph(n=14, edges=edges)
        keys = set()
        for seed in range(60):
            dp_maxcut_general_batch(g, 0.1, 0.0, gen(seed), 1)
            assert len(g._em_cdf_memo) <= 1
            keys.update(g._em_cdf_memo)
        assert len(keys) > 5
        assert len(g._em_cdf_memo) == 1
