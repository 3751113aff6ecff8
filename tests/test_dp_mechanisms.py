import math
import re
from pathlib import Path

import numpy as np
import pytest

from privcsp.csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
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
    fair_signs,
    keep_probability,
    noisy_above,
    randomized_response,
    sample_discrete_laplace,
)
from privcsp.oracles import exact_em_distribution


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


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


def shifted_bits(packed, size):
    """Entry i is bit 7 - i % 8 of byte i // 8 of the uint8 array packed."""
    packed = np.asarray(packed, dtype=np.int64)
    return ((packed[:, None] >> np.arange(7, -1, -1)) & 1).reshape(-1)[:size]


def within_4_sigma(successes, n, p=0.5):
    return abs(successes - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def chi2_4_sigma(counts):
    """The chi-square statistic of counts against the uniform law is within
    4 standard deviations of its mean."""
    counts = np.asarray(counts, dtype=float)
    expect = counts.sum() / counts.size
    df = counts.size - 1
    return ((counts - expect) ** 2 / expect).sum() <= df + 4 * math.sqrt(2 * df)


# a fair coin drawn outside fair_signs: an integer draw below 2, or a
# uniform double compared with one half
FAIR_DRAW = re.compile(r"integers\(\s*0\s*,\s*2\b|random\((?:[^()]|\([^()]*\))*\)\s*<\s*0?\.5\b")
# instance generation, not a mechanism: its draws fix every generated
# instance file, so moving them would change the instances themselves
FAIR_DRAW_EXEMPT = {"generators.py"}


class TestFairSigns:
    @pytest.mark.parametrize("shape", [(0,), (0, 5), (3, 0), (1,), (13,), (3, 7), (2, 3, 5),
                                       (64, 8)])
    def test_block_and_draws(self, shape):
        # bit i of the block is bit 7 - i % 8 of byte i // 8 of one
        # integers(0, 256) uint8 draw of ceil(size / 8) bytes, and the
        # generator ends where that draw leaves it
        g1, g2 = gen(21), gen(21)
        out = fair_signs(g1, shape)
        assert out.dtype == np.int8 and out.shape == shape
        assert out.flags.c_contiguous and out.flags.writeable
        size = math.prod(shape)
        packed = g2.integers(0, 256, size=-(-size // 8), dtype=np.uint8)
        assert np.array_equal(out.reshape(-1), 2 * shifted_bits(packed, size) - 1)
        assert g1.bit_generator.state == g2.bit_generator.state
        out[...] = 1
        assert np.all(out == 1)

    def test_bit_balance(self):
        # overall and at each bit position of a byte, within 4 sigma
        out = fair_signs(gen(23), (1000, 1000)).reshape(-1) > 0
        assert within_4_sigma(out.sum(), out.size)
        for position in range(8):
            column = out[position::8]
            assert within_4_sigma(column.sum(), column.size)

    def test_adjacent_entries_independent(self):
        # a row of 13 entries straddles bytes at different offsets: pairs
        # within a byte, across a byte boundary and across a row boundary
        # agree half the time
        out = fair_signs(gen(24), (40_000, 13))
        flat = out.reshape(-1)
        agree = flat[:-1] == flat[1:]
        in_byte = np.arange(agree.size) % 8 != 7
        for pairs in (agree[in_byte], agree[~in_byte], out[:-1, -1] == out[1:, 0]):
            assert within_4_sigma(pairs.sum(), pairs.size)

    def test_three_position_patterns(self):
        # consecutive triples, which start at every offset of a byte: all 8
        # patterns equally often (chi-square), also at each start offset
        flat = (fair_signs(gen(25), (3 * 8 * 20_000,)) > 0).astype(np.int64)
        codes = 4 * flat[0::3] + 2 * flat[1::3] + flat[2::3]
        assert chi2_4_sigma(np.bincount(codes, minlength=8))
        offsets = (3 * np.arange(codes.size)) % 8
        for offset in range(8):
            assert chi2_4_sigma(np.bincount(codes[offsets == offset], minlength=8))

    def test_no_other_fair_draws_in_src(self):
        src = Path(dp_mechanisms.__file__).parent
        found = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name not in FAIR_DRAW_EXEMPT
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if FAIR_DRAW.search(line)
        ]
        assert found == []
        # the pattern finds the forms fair_signs replaced
        for line in ("x = signs_from_bits(gen.integers(0, 2, size=(trials, n)))",
                     "greedy = gen.random((trials, n)) < 0.5",
                     "negate = gen.random(trials) < .5",
                     "coin = gen.random() < 0.5"):
            assert FAIR_DRAW.search(line), line
        assert not FAIR_DRAW.search("keep = gen.random((trials, n)) < keep_prob")
        assert not FAIR_DRAW.search("packed = gen.integers(0, 256, size=k, dtype=np.uint8)")


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


def above_probability(value, threshold, param):
    """P[value + Z > threshold] for Z integer Laplace at param: Z >= m =
    floor(threshold - value) + 1 has probability q^m / (1 + q) for m >= 1
    and 1 - q^(1 - m) / (1 + q) for m <= 0, with q = e^-param."""
    q = math.exp(-param)
    m = math.floor(threshold - value) + 1
    return q ** m / (1 + q) if m >= 1 else 1 - q ** (1 - m) / (1 + q)


def assert_frequencies(values, above, threshold, param):
    """Per distinct value, the frequency of above within 4 sigma of the
    exact tail; a tail of exactly 0 or 1 must be met exactly."""
    for value in np.unique(values).tolist():
        hits = above[np.broadcast_to(values, above.shape) == value]
        p = above_probability(value, threshold, param)
        sigma = math.sqrt(p * (1 - p) / hits.size)
        assert abs(hits.mean() - p) <= 4 * sigma, (value, hits.size, hits.mean(), p)


class TestNoisyAbove:
    """noisy_above against the exact two-sided geometric tail: empirical
    frequencies from 10^6 draws at 4 sigma, on both sides of the threshold
    (m >= 1 and m <= 0), from the floor parameter's neighbourhood to one at
    which every tail is 0 or 1."""

    PARAMS = [1e-12, 0.25, 1.0, 800.0]

    @pytest.mark.parametrize("param", PARAMS)
    def test_per_column_values(self, param):
        # threshold 0.5: m = 1 - value runs from 4 down to -5
        values = np.array([-3, -1, 0, 1, 2, 6])
        above = noisy_above(values, 0.5, param, gen(20), (200_000, values.size))
        assert above.dtype == bool and above.shape == (200_000, values.size)
        assert_frequencies(values, above, 0.5, param)

    @pytest.mark.parametrize("param", PARAMS)
    def test_per_entry_values(self, param):
        values = gen(21).integers(-4, 5, size=(250_000, 4)).astype(np.int8)
        above = noisy_above(values, 1.0, param, gen(22), values.shape)
        assert above.shape == values.shape
        assert_frequencies(values, above, 1.0, param)

    @pytest.mark.parametrize("threshold", [2.0 ** 70, 1e300, math.inf])
    def test_threshold_beyond_int64(self, threshold):
        # unfloored: the tail beyond 2^70 underflows to 0 even at a tiny
        # parameter, and the mirrored threshold is always cleared
        values = np.array([0, 5, 2 ** 40])
        for param in (4.6e-17, 1e-12, 1.0):
            assert not noisy_above(values, threshold, param, gen(23), (1000, 3)).any()
            assert noisy_above(values, -threshold, param, gen(23), (1000, 3)).all()

    def test_one_uniform_per_entry(self):
        for values, shape in ((np.arange(-2, 3), (7, 5)), (np.ones((3, 4), dtype=np.int16), (3, 4)),
                              (np.zeros(0, dtype=np.int64), (5, 0))):
            g1, g2 = gen(24), gen(24)
            noisy_above(values, 0.0, 0.5, g1, shape)
            g2.random(shape)
            assert g1.bit_generator.state == g2.bit_generator.state

    def test_value_range_wider_than_the_index_dtype(self):
        # int8 values whose table offsets pass 127
        values = np.array([[-120, 120]], dtype=np.int8)
        above = noisy_above(values, 0.5, 1.0, gen(25), (1000, 2))
        assert not above[:, 0].any() and above[:, 1].all()

    @pytest.mark.parametrize("param", [1e-17, 5e-324])
    def test_floor_refused_before_any_draw(self, param):
        g = gen(26)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match=rf"epsilon = {param} is too small for the discrete-Laplace sampler"):
            noisy_above(np.zeros(3, dtype=np.int64), 0.0, param, g, (2, 3))
        assert g.bit_generator.state == state

    @pytest.mark.parametrize("param,message", [(0.0, "positive"), (math.nan, "finite"),
                                               (math.inf, "finite"), (-1.0, "finite")])
    def test_invalid_parameter(self, param, message):
        with pytest.raises(ValueError, match=message):
            noisy_above(np.zeros(3, dtype=np.int64), 0.0, param, gen(), (2, 3))


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

    def test_domain_validation(self):
        # +-1 inputs only: 0/1 bits are refused, and there is no domain option
        with pytest.raises(ValueError):
            randomized_response(np.array([0, 1]), 1.0, gen())
        with pytest.raises(TypeError):
            randomized_response(np.array([1, -1]), 1.0, gen(), domain="pm1")

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


class TestCdfCount:
    """_cdf_count gives the inverse-CDF index the parent's forms gave:
    np.searchsorted(cdf, u, side="right") on one table, the compare-sum on
    a block of per-row tables."""

    @staticmethod
    def tables(rng, k, rows=None):
        # nondecreasing, with repeated entries and zero-weight heads
        steps = rng.random((rows or 1, k)) * (rng.random((rows or 1, k)) < 0.7)
        cdf = np.cumsum(steps, axis=1)
        cdf /= np.maximum(cdf[:, -1:], 1e-300)
        return cdf[0] if rows is None else cdf

    @pytest.mark.parametrize("k", list(range(1, 21)) + [64, 256])
    def test_matches_searchsorted_and_compare_sum(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            cdf = self.tables(rng, k)
            # uniforms and every table entry and its neighbours, where ties
            # decide; 4096 uniforms or more take the column passes up to k = 16
            u = np.concatenate((rng.random(4096), cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2)))
            assert np.array_equal(dp_mechanisms._cdf_count(cdf, u),
                                  np.searchsorted(cdf, u, side="right"))
            block = self.tables(rng, k, rows=u.size)
            block[4096:] = cdf  # the rows whose u is an entry or its neighbour
            assert np.array_equal(dp_mechanisms._cdf_count(block, u),
                                  (block <= u[:, None]).sum(axis=1))

    def test_column_passes_only_on_short_tables_and_many_uniforms(self, monkeypatch):
        # a long table (em_baseline's 2^16) and a few uniforms (one solve)
        # keep np.searchsorted
        calls = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *a, **kw: calls.append((a[0].size, a[1].size)) or real(*a, **kw))
        u = gen(30).random(4096)
        for k, n in ((16, 4096), (17, 4096), (16, 4095), (2, 512), (2, 511), (8, 1)):
            dp_mechanisms._cdf_count(np.linspace(0.0, 1.0, k), u[:n])
        assert calls == [(17, 4096), (16, 4095), (2, 511), (8, 1)]

    @pytest.mark.parametrize("trials", [1, 511, 512, 5_000])
    def test_both_paths_on_either_side_of_the_switch(self, trials):
        rng = np.random.default_rng(trials)
        for k in (1, 2, 3, 16):
            cdf = self.tables(rng, k)
            u = rng.random(trials)
            assert np.array_equal(dp_mechanisms._cdf_count(cdf, u),
                                  np.searchsorted(cdf, u, side="right"))
            block = self.tables(rng, k, rows=trials)
            assert np.array_equal(dp_mechanisms._cdf_count(block, u),
                                  (block <= u[:, None]).sum(axis=1))

    @pytest.mark.parametrize("active", [[0], [0, 1, 2], [2, 0, 1, 3], list(range(5))])
    def test_em_over_assignments_identical(self, active):
        # the parent's searchsorted draw on the same uniforms, rows and state
        inst = CspInstance(n=5, constraints=(
            Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 2), b=-1),
            Constraint(scope=(2, 3, 4), b=1), Constraint(scope=(3,), b=1)), kind="kxor")
        for budget in (0.0, 0.7, 40.0):
            g1, g2 = gen(31), gen(31)
            out = em_over_assignments_batch(inst, active, budget, 1.0, g1, 20_000)
            cdf = next(iter(inst._em_cdf_memo.values()))
            idx = np.searchsorted(cdf, g2.random(20_000), side="right")
            assert np.array_equal(out, assignment_rows(np.minimum(idx, cdf.size - 1), len(active)))
            assert g1.bit_generator.state == g2.bit_generator.state

    @pytest.mark.parametrize("k", [1, 3, 16, 17, 40])
    def test_exponential_mechanism_identical(self, k):
        # the parent's compare-sum on the same uniforms and state
        scores = np.floor(gen(32).random((5_000, k)) * 4)
        for eps in (0.0, 1.0, 50.0):
            g1, g2 = gen(33), gen(33)
            picks = exponential_mechanism(scores, eps, 1.0, g1)
            cdf = dp_mechanisms._em_cdf(scores, eps, 1.0)
            idx = (cdf <= g2.random(scores.shape[0])[:, None]).sum(axis=1)
            assert np.array_equal(picks, np.minimum(idx, k - 1))
            assert g1.bit_generator.state == g2.bit_generator.state


class TestEmOverAssignments:
    def graph3(self):
        return cut_graph(3, ((0, 1), (1, 2)))

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
        g = cut_graph(2, ((0, 1),))
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
    return cut_graph(5, ((0, 1), (1, 2), (1, 2), (2, 3), (3, 4)))


def disable_memo(monkeypatch):
    """Gives every call an empty memo of its own, so each one builds the
    value table and CDF afresh, as before the memo existed."""
    monkeypatch.setattr(CspInstance, "_em_cdf_memo", property(lambda self: {}))


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
        edges = tuple(tuple(rng.choice(14, size=2, replace=False).tolist()) for _ in range(300))
        g = cut_graph(14, edges)
        keys = set()
        for seed in range(60):
            dp_maxcut_general_batch(g, 0.1, 0.0, gen(seed), 1)
            assert len(g._em_cdf_memo) <= 1
            keys.update(g._em_cdf_memo)
        assert len(keys) > 5
        assert len(g._em_cdf_memo) == 1
