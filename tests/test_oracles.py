import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from privcsp import csp_core, harness, oracles
from privcsp.constants import AT_THRESHOLD_LOWER_C
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
    all_values,
    degrees,
    eval_value,
)
from privcsp.dp_mechanisms import RngStream, as_generator, randomized_response
from privcsp.oracles import (
    AuditReport,
    BucketRow,
    PackingFamily,
    _bucket_counts,
    adversarial_single_constraint,
    at_threshold_prob,
    brute_force_opt,
    empirical_epsilon,
    exact_em_distribution,
    exact_median_theta,
    threshold_pmf,
    verify_packing_separation,
    wilson_interval,
)


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def gen(seed=0):
    return RngStream(seed, 0).generator()


def ascending_scan(problem):
    """Reference for brute_force_opt: rows in ascending order (graphs with
    vertex n-1 pinned to -1), replacing the best only on a strictly larger
    value."""
    n = problem.n
    halve = problem.kind == "maxcut" and n >= 1
    best_val, best_x = -math.inf, None
    for r in range(1 << (n - 1 if halve else n)):
        x = np.array([1 if (r >> t) & 1 else -1 for t in range(n)])
        val = eval_value(problem, x)
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


class TestBruteForceOpt:
    def test_k22(self):
        g = cut_graph(4, tuple((i, 2 + j) for i in range(2) for j in range(2)))
        val, x = brute_force_opt(g)
        assert val == 4 and eval_value(g, x) == 4

    def test_triangle(self):
        g = cut_graph(3, ((0, 1), (1, 2), (0, 2)))
        assert brute_force_opt(g)[0] == 2

    def test_flip_invariance(self):
        g = cut_graph(4, ((0, 1), (1, 2), (2, 3)))
        val, x = brute_force_opt(g)
        assert eval_value(g, -x) == val

    def test_csp_instance(self):
        inst = CspInstance(
            n=3,
            constraints=(Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 2), b=-1)),
            kind="kxor",
        )
        val, x = brute_force_opt(inst)
        assert val == 2 and eval_value(inst, x) == 2

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_opt(CspInstance(n=27, constraints=(), kind="kxor"))

    @pytest.mark.parametrize("problem", [
        # three disjoint edges and two isolated vertices: 16 tied optima
        # among the 256 rows with vertex 8 pinned
        cut_graph(9, ((0, 5), (6, 2), (3, 7))),
        # a multigraph: a triangle with a doubled side and a path with a doubled edge
        cut_graph(6, ((0, 1), (1, 2), (2, 0), (1, 2), (3, 4), (5, 3), (4, 3))),
        CspInstance(n=7, constraints=(
            Constraint(scope=(4, 1), b=1),
            Constraint(scope=(2, 6, 0), b=-1),
            Constraint(scope=(5,), table=(0, 1)),
        )),
        CspInstance(n=2, constraints=()),
        cut_graph(1, ()),
    ])
    # (chunk bits, run bits); None keeps the module constants
    @pytest.mark.parametrize("bits", [None, (0, 0), (2, 1), (3, 3)])
    def test_first_strict_maximum(self, monkeypatch, problem, bits):
        if bits is not None:
            monkeypatch.setattr(csp_core, "VALUE_CHUNK_BITS", bits[0])
            monkeypatch.setattr(csp_core, "VALUE_RUN_BITS", bits[1])
        val, x = brute_force_opt(problem)
        ref_val, ref_x = ascending_scan(problem)
        assert val == ref_val and x.dtype == np.int8 and np.array_equal(x, ref_x)

    @pytest.mark.parametrize("problem", [
        CspInstance(n=24, constraints=tuple(
            Constraint(scope=(i % 24, (5 * i + 1) % 24), b=1 - 2 * (i % 2)) for i in range(40)
        ), kind="kxor"),
        PackingFamily(n=24, supports=(tuple(range(12)),), epsilon=0.5).graph(0),
    ])
    def test_memory_at_n24(self, problem):
        # one uint8 chunk of 2^VALUE_CHUNK_BITS counts, two while the next
        # is built; a float64 chunk alone would be 8 times one
        tracemalloc.start()
        try:
            brute_force_opt(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << csp_core.VALUE_CHUNK_BITS


class TestExactMedianTheta:
    def test_empty(self):
        assert exact_median_theta([], 0) == (0.0, 0.5)

    def test_single_xor(self):
        theta, gamma = exact_median_theta([Constraint(scope=(0, 1), b=1)], 0)
        # two-point distribution at +-1/2; the tie rule restores uniformity
        assert theta == -0.5 and gamma == 0.0

    def test_three_independent_xor(self):
        cons = [
            Constraint(scope=(0, 1), b=1),
            Constraint(scope=(0, 2), b=1),
            Constraint(scope=(0, 3), b=-1),
        ]
        theta, gamma = exact_median_theta(cons, 0)
        assert theta == -0.5 and gamma == 0.0

    def test_two_independent_xor(self):
        cons = [Constraint(scope=(0, 1), b=1), Constraint(scope=(0, 2), b=1)]
        theta, gamma = exact_median_theta(cons, 0)
        # sum in {-1, 0, 1} with weights 1/4, 1/2, 1/4; theta 0, gamma 1/2
        assert theta == 0.0 and gamma == 0.5

    def test_sign_exactly_unbiased(self):
        # simulate against the pmf directly for a mixed general case
        table = (0, 1, 1, 1)  # OR-like predicate
        cons = [
            Constraint(scope=(0, 1), table=table),
            Constraint(scope=(0, 2), b=1),
        ]
        theta, gamma = exact_median_theta(cons, 0)
        rng = gen(1)
        trials = 200_000
        fixed = 2 * rng.integers(0, 2, size=(trials, 2)) - 1
        from privcsp.csp_core import derivative_q

        sums = np.array(
            [
                derivative_q(cons[0], 0, {1: int(row[0])})
                + derivative_q(cons[1], 0, {2: int(row[1])})
                for row in fixed
            ]
        )
        tie = rng.random(trials) < gamma
        z = np.where(sums > theta, 1, np.where(sums < theta, -1, np.where(tie, 1, -1)))
        assert abs(z.mean()) < 3.5 / math.sqrt(trials)

    def test_overlapping_fixed_scopes_rejected(self):
        # two constraints sharing the fixed variable 1 at j = 0: their
        # derivatives are dependent, and no triangle-free instance has them
        cons = [Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 0), b=-1)]
        with pytest.raises(ValueError, match="fixed scopes at j = 0 overlap"):
            exact_median_theta(cons, 0)


class TestAtThresholdProb:
    def test_degenerate_binomial(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            target = (math.exp(eps) - 1) / (math.exp(eps) + 1)
            assert at_threshold_prob(1, eps) == pytest.approx(target, abs=1e-12)

    def test_maximal_atom(self):
        for d in (2, 3, 7, 10, 25):
            for eps in (0.1, 1.0):
                support, probs = threshold_pmf(d, eps)
                target = math.ceil((d - 1) / 2)
                at = probs[np.searchsorted(support, target)]
                assert at == pytest.approx(probs.max(), rel=1e-12)

    def test_symmetry(self):
        for d in (3, 5, 8):
            support, probs = threshold_pmf(d, 0.5)
            center = (d - 1) / 2.0
            for s, p in zip(support, probs):
                mirror = center + (center - s)
                idx = np.searchsorted(support, mirror)
                if 0 <= idx < len(support) and support[idx] == mirror:
                    assert p == pytest.approx(probs[idx], rel=1e-9)

    def test_monotone_in_d(self):
        for eps in (0.1, 0.5, 1.0):
            vals = [at_threshold_prob(d, eps) for d in range(1, 51)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_eps(self):
        for d in (1, 5, 20):
            vals = [at_threshold_prob(d, e) for e in (0.1, 0.3, 0.5, 1.0, 2.0)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_frozen_scan_constant(self):
        # the scan that froze AT_THRESHOLD_LOWER_C: min over d in 1..50 and
        # eps in {0.1, 0.5, 1} of at_threshold_prob(d, eps) * sqrt(d + 1/eps^2)
        ratio, d, eps = min(
            (at_threshold_prob(d, eps) * math.sqrt(d + 1.0 / eps ** 2), d, eps)
            for eps in (0.1, 0.5, 1.0)
            for d in range(1, 51)
        )
        assert (d, eps) == (20, 0.1) and ratio == pytest.approx(0.46306562, abs=5e-9)
        assert AT_THRESHOLD_LOWER_C < ratio

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            at_threshold_prob(0, 1.0)
        with pytest.raises(ValueError):
            at_threshold_prob(3, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            threshold_pmf(3, eps)

    @pytest.mark.parametrize("eps,entries", [(1e-17, "6.91e+18"), (1e-6, "6.91e+07"), (5e-324, "inf")])
    def test_support_over_cap_refused(self, eps, entries):
        # the noise support, 2 * 34.5 / eps + 1 entries, is refused before
        # any array is sized, with epsilon and the size in the message
        for call in (threshold_pmf, at_threshold_prob):
            with pytest.raises(ResourceCapError, match=re.escape(f"epsilon = {eps} has {entries} entries")):
                call(3, eps)

    def test_binomial_matches_scipy(self):
        # the binomial part alone: at an epsilon whose noise is 0 with
        # probability 1 - 1e-300, the convolution is the binomial's pmf
        stats = pytest.importorskip("scipy.stats")
        for d in (1, 2, 3, 4, 7, 20, 50, 200, 1100, 1101, 5000):
            support, probs = threshold_pmf(d, 700.0)
            assert support.tolist() == list(range(-1, d + 1))
            assert np.allclose(probs[1:-1], stats.binom.pmf(np.arange(d), d - 1, 0.5), rtol=1e-12,
                               atol=1e-300)

    def test_support_under_cap(self):
        # 2 * ceil(34.5 / 1e-4) + 1 = 690779 noise entries, under the cap
        # of 2^22, and d - 1 more for the binomial
        assert oracles.LAPLACE_SUPPORT_CAP == 1 << 22
        support, probs = threshold_pmf(3, 1e-4)
        assert support.size == 690779 + 2 and probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestExactEmDistribution:
    def test_two_scores(self):
        probs = exact_em_distribution([1.0, 0.0], 2.0, 1.0)
        assert probs[0] == pytest.approx(math.e / (1 + math.e), rel=1e-12)

    def test_uniform(self):
        probs = exact_em_distribution([5.0] * 7, 3.0, 1.0)
        assert np.allclose(probs, 1 / 7)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            exact_em_distribution([1.0, 0.0], eps, 1.0)

    def test_huge_eps_uniform_over_maximizers(self):
        # eps * score / 2 overflows float at eps = 1e308 and score 4; the law
        # is exactly the uniform one over the maximizers, not nan
        assert exact_em_distribution([0.0, 4.0], 1e308, 1.0).tolist() == [0.0, 1.0]
        assert exact_em_distribution([4.0, 0.0, 4.0, 3.0], 1e308, 1.0).tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_eps_zero_uniform(self):
        # a spread beyond float max gave 0 * -inf = nan weights
        assert exact_em_distribution([-1e308, 1e308], 0.0, 1.0).tolist() == [0.5, 0.5]
        scores = gen(3).normal(size=9) * 100
        weights = np.exp(0.0 * (scores - scores.max()))
        assert np.array_equal(exact_em_distribution(scores, 0.0, 1.0), weights / weights.sum())

    def test_sums_to_one(self):
        rng = gen(2)
        for _ in range(20):
            scores = rng.normal(size=int(rng.integers(1, 50))) * 10
            probs = exact_em_distribution(scores, 1.0, 1.0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_utility_bound(self):
        rng = gen(3)
        for _ in range(100):
            size = int(rng.integers(2, 257))
            scores = rng.normal(size=size) * rng.uniform(0.5, 20)
            eps = float(rng.uniform(0.2, 4.0))
            delta = float(rng.uniform(0.5, 2.0))
            probs = exact_em_distribution(scores, eps, delta)
            expected = float(probs @ scores)
            bound = scores.max() - (2 * delta / eps) * (math.log(size) + 1)
            assert expected >= bound - 1e-9

    def test_empty_error(self):
        with pytest.raises(ValueError):
            exact_em_distribution([], 1.0, 1.0)


class TestWilson:
    def test_z_is_the_normal_quantile(self):
        stats = pytest.importorskip("scipy.stats")
        z = stats.norm.ppf(0.5 + oracles.AUDIT_CONFIDENCE / 2.0)
        assert oracles._normal_quantile(0.5 + oracles.AUDIT_CONFIDENCE / 2.0) == z
        # the half-width at p = 1/2 on a large sample is about z / (2 sqrt(n))
        lo, hi = wilson_interval(500_000, 1_000_000)
        assert (hi - lo) / 2 == pytest.approx(z / 2000, rel=1e-5)

    def test_quantile_bit_equal_to_scipy(self):
        # every branch: the center, the tails below and above exp(-32)
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        tails = 10.0 ** rng.uniform(-300, -0.87, 5000)
        ps = np.concatenate([rng.uniform(0, 1, 10_000), tails, 1 - tails[tails > 1e-16]])
        ps = ps[(ps > 0) & (ps < 1)]
        got = np.array([oracles._normal_quantile(float(p)) for p in ps])
        assert np.array_equal(got, stats.norm.ppf(ps))

    def test_confidence_is_read_at_call_time(self, monkeypatch):
        stats = pytest.importorskip("scipy.stats")
        monkeypatch.setattr(oracles, "AUDIT_CONFIDENCE", 0.99)
        lo, hi = wilson_interval(500_000, 1_000_000)
        assert (hi - lo) / 2 == pytest.approx(stats.norm.ppf(0.995) / 2000, rel=1e-5)
        for confidence in (-1.0, 1.0):
            monkeypatch.setattr(oracles, "AUDIT_CONFIDENCE", confidence)
            with pytest.raises(ValueError, match="quantile level"):
                wilson_interval(1, 2)

    def test_contains_proportion(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_zero_hits_positive_upper(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo <= 1e-12 and hi > 0.0


class TestEmpiricalEpsilon:
    def test_identical_inputs(self):
        def mech(bit, g, t):
            return randomized_response(np.full(t, bit), 1.0, g)

        report = empirical_epsilon(mech, 1, 1, 100_000, gen(4))
        assert report.ci_lower <= 0.05

    def test_randomized_response_converges(self):
        def mech(bit, g, t):
            return randomized_response(np.full(t, bit), 1.0, g)

        report = empirical_epsilon(mech, 1, -1, 400_000, gen(5))
        assert report.ci_lower <= 1.0 <= report.ci_upper + 0.05
        assert abs(report.epsilon_hat - 1.0) < 0.1

    def test_interval_brackets_estimate(self):
        def mech(bit, g, t):
            return randomized_response(np.full(t, bit), 0.5, g)

        report = empirical_epsilon(mech, 1, -1, 50_000, gen(6))
        assert report.ci_lower <= report.epsilon_hat <= report.ci_upper

    def test_one_sided_bucket_not_infinite(self):
        def mech(which, g, t):
            # input "a" can emit a symbol input "b" never does
            if which == "a":
                return np.where(g.random(t) < 0.01, 2, 1)
            return np.ones(t, dtype=int)

        report = empirical_epsilon(mech, "a", "b", 20_000, gen(7))
        assert math.isfinite(report.epsilon_hat)
        rows = [r for r in report.buckets if r.lower_bound_only]
        assert rows and rows[0].lower_bound is not None

    def test_unreliable_flagging(self, monkeypatch):
        def mech(bit, g, t):
            return randomized_response(np.full(t, bit), 3.0, g)

        monkeypatch.setattr(oracles, "AUDIT_MIN_HITS", 400)
        report = empirical_epsilon(mech, 1, -1, 500, gen(8))
        assert any(not r.reliable for r in report.buckets)

    def test_bucket_cap(self):
        def mech(which, g, t):
            return g.integers(0, 1000, size=t)

        with pytest.raises(ResourceCapError):
            empirical_epsilon(mech, "a", "b", 5_000, gen(9))


def _counter_counts(out_a, out_b) -> dict:
    """{label: (hits_a, hits_b)} by a Counter over per-row Python values."""

    def label(row):
        return tuple(row.tolist()) if isinstance(row, np.ndarray) else row.item()

    ca, cb = Counter(map(label, out_a)), Counter(map(label, out_b))
    return {k: (ca[k], cb[k]) for k in set(ca) | set(cb)}


def _counter_reference(
    mechanism, input_a, input_b, trials, rng, coarsening_label="identity",
    min_hits=100, max_buckets=64,
) -> AuditReport:
    """empirical_epsilon as it was with per-trial Counter bucketing: the
    reference the array counting must reproduce exactly."""
    g = as_generator(rng)
    counts = _counter_counts(mechanism(input_a, g, trials), mechanism(input_b, g, trials))
    labels = sorted(counts, key=repr)
    if len(labels) > max_buckets:
        raise ResourceCapError("cap")
    rows, best = [], None
    for lab in labels:
        ka, kb = counts[lab]
        reliable = ka >= min_hits and kb >= min_hits
        if ka > 0 and kb > 0:
            log_ratio = abs(math.log((ka / trials) / (kb / trials)))
            rows.append(BucketRow(repr(lab), ka, kb, log_ratio, reliable, False))
            if reliable and (best is None or log_ratio > best[0]):
                best = (log_ratio, ka, kb)
        else:
            hi, lo = (ka, kb) if ka > 0 else (kb, ka)
            lo_hi = wilson_interval(lo, trials)[1]
            hi_lo = wilson_interval(hi, trials)[0]
            bound = math.log(hi_lo / lo_hi) if hi_lo > 0 and lo_hi > 0 else 0.0
            rows.append(BucketRow(repr(lab), ka, kb, None, False, True, max(0.0, bound)))
    if best is None:
        for row in rows:
            if row.log_ratio is not None and (best is None or row.log_ratio > best[0]):
                best = (row.log_ratio, row.hits_a, row.hits_b)
    if best is None:
        return AuditReport(0.0, 0.0, 0.0, trials, coarsening_label, tuple(rows))
    eps_hat, ka, kb = best
    la, ua = wilson_interval(ka, trials)
    lb, ub = wilson_interval(kb, trials)
    raw_lo, raw_hi = math.log(la / ub), math.log(ua / lb)
    ci_lower = 0.0 if raw_lo <= 0.0 <= raw_hi else min(abs(raw_lo), abs(raw_hi))
    ci_upper = max(abs(raw_lo), abs(raw_hi))
    return AuditReport(
        eps_hat, min(ci_lower, eps_hat), max(ci_upper, eps_hat), trials,
        coarsening_label, tuple(rows),
    )


class TestBucketCounts:
    def check(self, out_a, out_b, max_buckets=64):
        labels, ka, kb = _bucket_counts(out_a, out_b, max_buckets)
        got = {lab: (int(a), int(b)) for lab, a, b in zip(labels, ka, kb)}
        assert len(got) == len(labels)
        assert got == _counter_counts(out_a, out_b)
        return got

    def test_one_dimensional(self):
        g = gen(20)
        out_a = randomized_response(np.ones(5_000, dtype=np.int64), 1.0, g)
        out_b = randomized_response(-np.ones(5_000, dtype=np.int64), 1.0, g)
        got = self.check(out_a, out_b)
        assert set(got) == {-1, 1}
        assert all(type(lab) is int for lab in got)

    def test_pm1_int8_rows(self):
        g = gen(21)
        out_a = (2 * (g.random((4_000, 5)) < 0.7) - 1).astype(np.int8)
        out_b = (2 * (g.random((4_000, 5)) < 0.4) - 1).astype(np.int8)
        got = self.check(out_a, out_b)
        assert len(got) == 32
        assert all(type(v) is int for lab in got for v in lab)

    def test_mixed_values_with_one_sided_buckets(self):
        g = gen(22)
        vals = np.array([-3, 0, 7, 100])
        out_a = vals[g.integers(0, 4, size=(3_000, 2))]
        out_b = vals[g.integers(0, 3, size=(3_000, 2))]
        out_b[:5, 1] = 55  # only side b emits 55
        got = self.check(out_a, out_b)
        assert any(kb == 0 for _, kb in got.values())
        assert any(ka == 0 for ka, _ in got.values())

    def test_rare_buckets_late_in_a_side(self):
        # labels found past the first prefixes of the row scatter: one row
        # of side a and the last row of side b are the only ones of their kind
        out_a = np.zeros((100_000, 2), dtype=np.int8)
        out_b = np.ones((100_000, 2), dtype=np.int8)
        out_a[70_001] = (0, 1)
        out_b[-1] = (1, 0)
        got = self.check(out_a, out_b)
        assert got == {(0, 0): (99_999, 0), (0, 1): (1, 0), (1, 1): (0, 99_999), (1, 0): (0, 1)}

    def test_zero_width_rows(self):
        got = self.check(np.empty((10, 0), dtype=np.int8), np.empty((10, 0), dtype=np.int8))
        assert got == {(): (10, 10)}

    def test_cap_on_combined_rows(self):
        rows = (np.arange(128)[:, None] >> np.arange(7)) & 1  # all 128 binary rows
        with pytest.raises(ResourceCapError):
            _bucket_counts(rows, rows[:1], 64)
        assert len(self.check(rows[:, :6], rows[:1, :6])) == 64

    def test_cap_on_one_column(self):
        with pytest.raises(ResourceCapError):
            _bucket_counts(np.arange(65), np.zeros(65, dtype=np.int64), 64)
        assert len(self.check(np.arange(64), np.zeros(64, dtype=np.int64))) == 64


class TestBucketRanking:
    """Both ranking paths of _bucket_counts: the range table and, for
    columns spanning more than RANGE_TABLE_SPAN integers, np.unique."""

    @staticmethod
    def columns():
        g = gen(23)
        yield g.integers(-128, 128, size=(3_000, 1)).astype(np.int8)  # full int8 range
        yield g.integers(-128, 128, size=3_000).astype(np.int8)
        yield np.array([-128, 127], dtype=np.int8)[g.integers(0, 2, size=(500, 3))]
        yield g.integers(0, 256, size=(3_000, 1)).astype(np.uint8)
        yield g.integers(0, 3, size=(3_000, 3)).astype(np.uint8)
        yield g.random((3_000, 4)) < 0.3  # bool
        yield g.random(3_000) < 0.5
        # above 2**63 the intp offsets wrap, and stay exact
        yield np.array([2**64 - 3, 2**64 - 1], dtype=np.uint64)[g.integers(0, 2, size=(2_000, 2))]
        yield np.array([2**64 - 3, 2**63, 2**64 - 1], dtype=np.uint64)[g.integers(0, 3, size=2_000)]
        # +-2**62 spans 2**63 + 1 integers: the np.unique path
        yield np.array([-(2**62), 2**62, 5], dtype=np.int64)[g.integers(0, 3, size=(2_000, 2))]
        yield np.array([-(2**62), 2**62], dtype=np.int64)[g.integers(0, 2, size=2_000)]

    @pytest.mark.parametrize("span", [oracles.RANGE_TABLE_SPAN, 0])
    def test_matches_counter(self, monkeypatch, span):
        monkeypatch.setattr(oracles, "RANGE_TABLE_SPAN", span)
        for out in self.columns():
            half = out.shape[0] // 2
            labels, ka, kb = _bucket_counts(out[:half], out[half:], 256)
            got = {lab: (int(a), int(b)) for lab, a, b in zip(labels, ka, kb)}
            assert len(got) == len(labels)
            ref = _counter_counts(out[:half], out[half:])
            assert got == ref
            # same label types (bool labels stay bool)
            assert sorted(map(repr, got)) == sorted(map(repr, ref))

    def test_table_and_fallback_agree(self, monkeypatch):
        for out in self.columns():
            half = out.shape[0] // 2
            table = _bucket_counts(out[:half], out[half:], 256)
            monkeypatch.setattr(oracles, "RANGE_TABLE_SPAN", 0)
            fallback = _bucket_counts(out[:half], out[half:], 256)
            monkeypatch.undo()
            assert table[0] == fallback[0]
            assert [type(v) for v in table[0]] == [type(v) for v in fallback[0]]
            for a, b in zip(table[1:], fallback[1:]):
                assert np.array_equal(a, b) and a.dtype == b.dtype

    @pytest.mark.parametrize("span", [oracles.RANGE_TABLE_SPAN, 0])
    def test_caps(self, monkeypatch, span):
        monkeypatch.setattr(oracles, "RANGE_TABLE_SPAN", span)
        rows = ((np.arange(128)[:, None] >> np.arange(7)) & 1).astype(np.int8)
        with pytest.raises(ResourceCapError, match="at least 128 buckets, cap is 64"):
            _bucket_counts(rows, rows[:1], 64)
        with pytest.raises(ResourceCapError, match="column has 65 values, bucket cap is 64"):
            _bucket_counts(np.arange(65), np.zeros(65, dtype=np.int64), 64)
        with pytest.raises(ResourceCapError, match="column has 65 values"):
            _bucket_counts(np.zeros((3, 2), dtype=np.int8), np.arange(130).reshape(65, 2), 64)


class TestBucketCountsRandom:
    """_bucket_counts against _counter_counts on seeded random outputs."""

    # each dtype's value pool: full ranges, and values near the dtype's ends
    VALUES = {
        "bool": np.array([False, True]),
        "int8": np.arange(-128, 128, dtype=np.int8),
        "uint8": np.arange(256, dtype=np.uint8),
        "int64": np.array([-(2**62), -5, 0, 3, 2**62 - 1, 2**62, 2**63 - 1], dtype=np.int64),
        "uint64": np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
    }

    @staticmethod
    def sides(g, values, shape):
        """Two sides of up to 1200 rows drawn from one pool of at most 40
        distinct rows; each side draws from its own part of the pool, so
        some buckets are seen on one side only."""
        pool = values[g.integers(0, values.size, size=(int(g.integers(1, 41)),) + shape)]
        cut_a, cut_b = sorted(g.integers(0, pool.shape[0] + 1, size=2).tolist())
        part_a, part_b = pool[: max(cut_b, 1)], pool[cut_a:] if cut_a < pool.shape[0] else pool
        rows_a = part_a[g.integers(0, part_a.shape[0], size=int(g.integers(1, 1200)))]
        rows_b = part_b[g.integers(0, part_b.shape[0], size=int(g.integers(1, 1200)))]
        return rows_a, rows_b

    def check(self, out_a, out_b, max_buckets=64):
        labels, ka, kb = _bucket_counts(out_a, out_b, max_buckets)
        got = {lab: (int(a), int(b)) for lab, a, b in zip(labels, ka, kb)}
        ref = _counter_counts(out_a, out_b)
        assert len(got) == len(labels) and got == ref
        # the same label types: bool stays bool, uint64 stays exact
        assert sorted(map(repr, got)) == sorted(map(repr, ref))
        assert ka.dtype == kb.dtype == np.int64
        return got

    @pytest.mark.parametrize("dtype", sorted(VALUES))
    def test_matches_counter(self, dtype):
        g = gen(24)
        one_sided = 0
        for width in [None] + list(range(9)):
            for _ in range(6):
                shape = () if width is None else (width,)
                got = self.check(*self.sides(g, self.VALUES[dtype], shape))
                one_sided += any(0 in hits for hits in got.values())
        assert one_sided > 0

    def test_compaction(self):
        # eight columns of span 61: the radix space passes RANGE_TABLE_SPAN
        # at the third column, and the codes are compacted on the way
        g = gen(25)
        values = np.array([0, 60], dtype=np.int16)
        compacted = 0
        for _ in range(20):
            out_a, out_b = self.sides(g, values, (8,))
            both = np.concatenate([out_a, out_b])
            spans = both.max(axis=0).astype(int) - both.min(axis=0) + 1
            compacted += math.prod(spans.tolist()) > oracles.RANGE_TABLE_SPAN
            self.check(out_a, out_b)
        assert compacted >= 10
        # 16 distinct rows in a radix space of 61**4 codes
        rows = values[(np.arange(16)[:, None] >> np.arange(8)) & 1]
        assert len(self.check(rows, rows[:3])) == 16


class TestEmpiricalEpsilonMatchesCounter:
    @pytest.mark.parametrize("mechanism", sorted(harness.AUDIT_MECHANISMS))
    def test_builtin_audits(self, mechanism, monkeypatch):
        pairs = []
        real = harness.empirical_epsilon

        def both(mech, input_a, input_b, trials, rng, **kwargs):
            got = real(mech, input_a, input_b, trials, rng, **kwargs)
            pairs.append((got, _counter_reference(mech, input_a, input_b, trials, rng, **kwargs)))
            return got

        monkeypatch.setattr(harness, "empirical_epsilon", both)
        harness.audit(mechanism, 1.0, 3_000, seed=31)
        (got, ref), = pairs
        assert got == ref and got.buckets == ref.buckets

    def test_labels_are_plain_values(self):
        def one_d(bit, g, t):
            return randomized_response(np.full(t, bit), 1.0, g)

        def two_d(bit, g, t):
            return np.stack([np.full(t, -1), randomized_response(np.full(t, bit), 1.0, g)], axis=1)

        report = empirical_epsilon(one_d, 1, -1, 2_000, gen(32))
        assert [r.label for r in report.buckets] == ["-1", "1"]
        report = empirical_epsilon(two_d, 1, -1, 2_000, gen(33))
        assert [r.label for r in report.buckets] == ["(-1, -1)", "(-1, 1)"]

    def test_buckets_in_repr_order(self):
        # repr order, not numeric order, as with the Counter labels
        def mech(bit, g, t):
            return np.where(randomized_response(np.full(t, bit), 1.0, g) > 0, 10, 2)

        report = empirical_epsilon(mech, 1, -1, 2_000, gen(34))
        assert [r.label for r in report.buckets] == ["10", "2"]
        assert report == _counter_reference(mech, 1, -1, 2_000, gen(34))

    def test_output_contract(self):
        with pytest.raises(ValueError, match="integer"):
            empirical_epsilon(lambda x, g, t: g.random(t), 1, 2, 100, gen())
        with pytest.raises(ValueError, match="shape"):
            empirical_epsilon(lambda x, g, t: np.zeros(t - 1, dtype=int), 1, 2, 100, gen())
        with pytest.raises(ValueError, match="differ"):
            empirical_epsilon(lambda x, g, t: np.zeros((t, x), dtype=int), 1, 2, 100, gen())


class TestAdversarialSingleConstraint:
    def test_uniform_mechanism(self):
        def mech(inst, g, t):
            return 2 * g.integers(0, 2, size=(t, inst.n)) - 1

        candidates = [Constraint(scope=(0, 1), b=1), Constraint(scope=(0, 1), b=-1)]
        report = adversarial_single_constraint(
            mech, 4, candidates, 0.5, 50_000, gen(10)
        )
        assert report.satisfaction_prob == pytest.approx(0.5, abs=0.01)
        assert report.passes

    def test_bound_at_eps_zero(self):
        def mech(inst, g, t):
            return 2 * g.integers(0, 2, size=(t, inst.n)) - 1

        candidates = [Constraint(scope=(0, 1), b=1)]
        report = adversarial_single_constraint(mech, 3, candidates, 0.0, 10_000, gen(11))
        assert report.bound == pytest.approx(0.5)

    def test_non_sign_outputs_rejected(self):
        # outputs are scored by eval_value, which takes -1/+1 rows only
        candidates = [Constraint(scope=(0, 1), b=1)]
        with pytest.raises(ValueError, match="-1 or \\+1"):
            adversarial_single_constraint(
                lambda i, g, t: np.zeros((t, 3), dtype=int), 3, candidates, 1.0, 10, gen()
            )

    def test_scope_mismatch_rejected(self):
        candidates = [Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 2), b=1)]
        with pytest.raises(ValueError):
            adversarial_single_constraint(
                lambda i, g, t: np.ones((t, 3)), 3, candidates, 1.0, 10, gen()
            )


class TestPackingFamily:
    def valid_family(self, n=8):
        return PackingFamily(
            n=n,
            supports=((0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6)),
            epsilon=0.5,
        )

    def test_weight_and_degree(self):
        fam = self.valid_family()
        assert fam.weight == pytest.approx(1.0 / (64 * 8 * 0.5))
        assert fam.degree == pytest.approx(1.0 / (128 * 0.5))
        # the unit graph's degrees times the scalar weight
        g = fam.graph(0)
        assert degrees(g).tolist() == [4] * 8
        assert np.allclose(degrees(g) * fam.weight, fam.degree)

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError):
            PackingFamily(
                n=8, supports=((0, 1, 2, 3), (0, 1, 2, 3)), epsilon=0.5
            )

    def test_size_invariant(self):
        with pytest.raises(ValueError):
            PackingFamily(n=8, supports=((0, 1, 2),), epsilon=0.5)

    @pytest.mark.parametrize("eps", [0.0, math.nan, math.inf])
    def test_invalid_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            PackingFamily(n=8, supports=((0, 1, 2, 3),), epsilon=eps)

    def test_overlap_invariant(self):
        # overlap 3 = 3n/8 exactly: must be strict
        with pytest.raises(ValueError):
            PackingFamily(
                n=8, supports=((0, 1, 2, 3), (0, 1, 2, 4)), epsilon=0.5
            )


class TestPackingSeparation:
    def test_vacuous_single_support(self):
        fam = PackingFamily(n=8, supports=((0, 1, 2, 3),), epsilon=0.5)
        assert verify_packing_separation(fam) == (True, None)

    def test_valid_family_passes(self):
        fam = PackingFamily(
            n=8,
            supports=((0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6)),
            epsilon=0.5,
        )
        ok, ce = verify_packing_separation(fam)
        assert ok and ce is None

    def test_agrees_with_direct_enumeration(self):
        fam = PackingFamily(
            n=8, supports=((0, 1, 2, 3), (0, 1, 4, 5)), epsilon=0.5
        )
        n, w = fam.n, fam.weight
        nd = n * fam.degree
        graphs = [fam.graph(i) for i in range(2)]
        violation = False
        for r in range(1 << (n - 1)):
            # vertex n-1 pinned to -1, as in verify_packing_separation
            sides = np.array([1 if (r >> t) & 1 else -1 for t in range(n)], dtype=np.int8)
            vals = [w * eval_value(g, sides) for g in graphs]
            for i in range(2):
                for j in range(2):
                    if i != j and vals[i] > 7 * nd / 16 and vals[j] > 6 * nd / 16:
                        violation = True
        ok, _ = verify_packing_separation(fam)
        assert ok == (not violation)

    def test_cap(self):
        fam = PackingFamily(
            n=32,
            supports=(tuple(range(16)), tuple(range(8)) + tuple(range(16, 24))),
            epsilon=0.5,
        )
        with pytest.raises(ResourceCapError):
            verify_packing_separation(fam)
