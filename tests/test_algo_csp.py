import math

import numpy as np
import pytest

from privcsp.algo_csp import (
    alg1_batch,
    alg2_batch,
    alg3_batch,
    _median_for,
    alg_oddk_batch,
    boost_scale,
    private_boost,
)
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    eval_value,
    lambda_j,
)
from privcsp.dp_mechanisms import RngStream, degree_split_batch
from privcsp.generators import GenSpec, gen_random_kxor
from privcsp.oracles import exact_median_theta


def gen(seed=0):
    return RngStream(seed, 0).generator()


def xor(scope, b=1):
    return Constraint(scope=tuple(scope), b=b)


def cycle_instance(n):
    cons = tuple(xor((i, (i + 1) % n), b=1) for i in range(n))
    return CspInstance(n=n, constraints=cons, kind="kxor")


def batch_advantage(instance, rows):
    prods = np.ones(rows.shape[0], dtype=np.int64)
    total = np.zeros(rows.shape[0])
    for c in instance.constraints:
        prods = rows[:, list(c.scope)].prod(axis=1) * c.b
        total += (1 + prods) / 2 - 0.5
    return total / instance.m


class TestAlg1:
    def test_rejects_triangles(self):
        cons = (xor((0, 1)), xor((1, 2)), xor((0, 2)))
        inst = CspInstance(n=3, constraints=cons, kind="kxor")
        with pytest.raises(ValueError):
            alg1_batch(inst, 1.0, gen(), 1)
        with pytest.raises(ValueError):
            alg1_batch(inst, 1.0, gen(), 4)

    def test_empty_instance_uniform(self):
        inst = CspInstance(n=5, constraints=(), kind="kxor")
        rows = alg1_batch(inst, 1.0, gen(1), 50_000)
        assert np.all(np.abs(rows.mean(axis=0)) < 0.02)

    def test_eps_zero_no_advantage(self):
        # with a fully random response layer the output decouples from
        # the instance, so the mean advantage is 0
        inst = cycle_instance(12)
        rows = alg1_batch(inst, 0.0, gen(2), 100_000)
        adv = batch_advantage(inst, rows)
        se = adv.std() / math.sqrt(adv.size)
        assert abs(adv.mean()) < 3.5 * se

    def test_coordinate_uniformity(self):
        inst = cycle_instance(10)
        rows = alg1_batch(inst, 1.0, gen(3), 100_000)
        sigma = 1.0 / math.sqrt(rows.shape[0])
        assert np.all(np.abs(rows.mean(axis=0)) < 3.8 * sigma)

    def test_positive_advantage(self):
        inst = cycle_instance(16)
        rows = alg1_batch(inst, 1.0, gen(4), 50_000)
        adv = batch_advantage(inst, rows)
        se = adv.std() / math.sqrt(adv.size)
        assert adv.mean() > 3 * se

    def test_loop_matches_batch_mean(self):
        inst = cycle_instance(8)
        trials = 20_000
        loop_vals = np.array(
            [
                eval_value(inst, alg1_batch(inst, 1.0, g, 1)[0])
                for g in (RngStream(5, t).generator() for t in range(trials))
            ]
        )
        rows = alg1_batch(inst, 1.0, gen(6), trials)
        batch_vals = np.array([eval_value(inst, r) for r in rows])
        se = math.hypot(loop_vals.std(), batch_vals.std()) / math.sqrt(trials)
        assert abs(loop_vals.mean() - batch_vals.mean()) < 3.5 * se

    def test_general_predicate_path(self):
        # a non-sign-form predicate exercises the exact-median machinery
        table = (0, 1, 1, 1)
        cons = (
            Constraint(scope=(0, 1), table=table),
            Constraint(scope=(2, 3), table=table),
        )
        inst = CspInstance(n=4, constraints=cons, kind="general")
        vals = np.array(
            [
                eval_value(inst, alg1_batch(inst, 2.0, g, 1)[0])
                for g in (RngStream(7, t).generator() for t in range(20_000))
            ]
        )
        # random assignment satisfies 3/4 of OR constraints; the greedy
        # step should beat that
        se = vals.std() / math.sqrt(vals.size)
        assert vals.mean() > 1.5 + 3 * se

    def test_determinism(self):
        inst = cycle_instance(6)
        a = alg1_batch(inst, 1.0, gen(8), 1)[0]
        b = alg1_batch(inst, 1.0, gen(8), 1)[0]
        assert np.array_equal(a, b)

    def test_negative_eps(self):
        with pytest.raises(ValueError):
            alg1_batch(cycle_instance(4), -1.0, gen(), 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps(self, eps):
        with pytest.raises(ValueError):
            alg1_batch(cycle_instance(4), eps, gen(), 1)
        with pytest.raises(ValueError):
            alg1_batch(cycle_instance(4), eps, gen(), 4)

    def test_huge_eps_keeps_greedy_sign(self):
        # the keep probability is exactly 1.0 from eps ~ 37 on, so eps = 800
        # must run, not overflow, and draw exactly what eps = 40 draws
        inst = cycle_instance(6)
        assert np.array_equal(
            alg1_batch(inst, 800.0, gen(11), 1)[0],
            alg1_batch(inst, 40.0, gen(11), 1)[0],
        )
        assert np.array_equal(
            alg1_batch(inst, 800.0, gen(12), 50), alg1_batch(inst, 40.0, gen(12), 50)
        )

    def test_triangle_scan_once_per_instance(self, monkeypatch):
        import privcsp.csp_core as core

        calls = []
        scan = core._scan_triangle_free

        def counting_scan(constraints):
            calls.append(1)
            return scan(constraints)

        monkeypatch.setattr(core, "_scan_triangle_free", counting_scan)
        inst = cycle_instance(8)
        for t in range(5):
            assert core.is_triangle_free(inst)
            alg1_batch(inst, 1.0, gen(t), 1)
            alg2_batch(inst, 1.0, gen(t), 1)
        assert len(calls) == 1
        # an equal but distinct object scans on its own
        assert core.is_triangle_free(cycle_instance(8)) and len(calls) == 2


class TestMedianMemo:
    @pytest.mark.parametrize(
        "tables",
        [
            [(0, 1, 1, 1)],
            [(0, 1, 1, 1), (0, 1, 1, 1)],
            [(0, 0, 1, 0)],
            [(0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 0, 1)],
        ],
    )
    @pytest.mark.parametrize("pos", [0, 1])
    def test_matches_oracle(self, tables, pos):
        # j = 0 sits at scope position pos of every constraint; the other
        # scope variables are distinct, as on a triangle-free instance
        cons = []
        for t, table in enumerate(tables):
            scope = (0, t + 1) if pos == 0 else (t + 1, 0)
            cons.append(Constraint(scope=scope, table=table))
        cons.append(xor((0, len(tables) + 1)))
        assert _median_for(cons, 0) == exact_median_theta(cons, 0)
        assert _median_for(cons[:-1], 0) == exact_median_theta(cons[:-1], 0)


class TestAlg2:
    def test_runs_and_valid(self):
        inst = gen_random_kxor(GenSpec(n=14, m=10, k=2, seed=0, triangle_free=True))
        x = alg2_batch(inst, 2.0, gen(9), 1)[0]
        assert x.shape == (14,) and set(np.unique(x)) <= {-1, 1}

    def test_rejects_triangles(self):
        # the low-degree candidate runs alg1 on the whole instance, and alg1
        # needs a triangle-free one
        cons = (xor((0, 1)), xor((1, 2)), xor((0, 2)))
        inst = CspInstance(n=3, constraints=cons, kind="kxor")
        with pytest.raises(ValueError, match="triangle-free"):
            alg2_batch(inst, 1.0, gen(), 4)

    def test_rejects_triangles_before_any_draw(self):
        # at eps = 20 the threshold is 0.0625, so every variable of the
        # complete instance is high; the check used to run only in alg1,
        # after the exponential mechanism had hit its cap on 30 variables
        cons = tuple(xor((i, j)) for i in range(30) for j in range(i + 1, 30))
        inst = CspInstance(n=30, constraints=cons, kind="kxor")
        g = gen()
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="alg2 requires a triangle-free instance"):
            alg2_batch(inst, 20.0, g, 1)
        assert g.bit_generator.state == state

    def test_half_value_floor(self):
        inst = gen_random_kxor(GenSpec(n=12, m=8, k=2, seed=1, triangle_free=True))
        vals = np.array(
            [
                eval_value(inst, alg2_batch(inst, 1.0, g, 1)[0])
                for g in (RngStream(10, t).generator() for t in range(5_000))
            ]
        )
        se = vals.std() / math.sqrt(vals.size)
        assert vals.mean() > inst.m / 2 - 3.5 * se

    def test_requires_sign_form(self):
        inst = CspInstance(
            n=2, constraints=(Constraint(scope=(0, 1), table=(0, 1, 1, 1)),),
            kind="general",
        )
        with pytest.raises(ValueError):
            alg2_batch(inst, 1.0, gen(), 1)

    def test_positive_eps_required(self):
        with pytest.raises(ValueError):
            alg2_batch(cycle_instance(4), 0.0, gen(), 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # eps=inf used to fail inside the degree noise, naming neither eps
        # nor the stage
        with pytest.raises(ValueError, match="epsilon must be finite"):
            alg2_batch(cycle_instance(4), eps, gen(), 1)

    @pytest.mark.parametrize("eps", [1e-100, 1e-90])
    def test_eps_whose_threshold_underflows_rejected(self, eps):
        # the threshold 10000/eps^4 used to divide by zero at eps^4 = 0.0
        assert eps ** 4 == 0.0
        with pytest.raises(ValueError, match=r"eps\^4 underflows to 0 at epsilon = "):
            alg2_batch(cycle_instance(4), eps, gen(), 1)

    def test_custom_subroutine_called(self):
        calls = []

        def sub(inst, eps, g, trials):
            calls.append(eps)
            return np.ones((trials, inst.n), dtype=np.int8)

        inst = cycle_instance(6)
        degree_split_batch(inst, 3.0, gen(11), 1, sub, 100.0 / 3.0 ** 2)
        assert calls == [1.0]


class TestPrivateBoost:
    def test_zero_lambda_uniform(self):
        out = private_boost(np.zeros(100_000), 5.0, gen(12))
        assert abs(out.mean()) < 0.02

    def test_tanh_marginal(self):
        scale = 1.5
        for lam in (-1.0, -0.25, 0.5, 1.0):
            target = (1 + math.tanh(scale * lam)) / 2
            out = private_boost(np.full(200_000, lam), scale, gen(13))
            p = np.mean(out == 1)
            sigma = math.sqrt(target * (1 - target) / out.size)
            assert abs(p - target) < 3.8 * sigma

    def test_scalar(self):
        assert private_boost(100.0, 1.0, gen(14)) == 1
        assert private_boost(-100.0, 1.0, gen(15)) == -1

    def test_boost_scale(self):
        assert boost_scale(0.5, 16) == pytest.approx(1.0)

    def test_privacy_factor_closed_form(self):
        # adding/removing one constraint moves the integer score
        # S = lambda * sqrt(m) by at most 1 at scale eps * sqrt(m) / 2:
        # the +1 marginal (1 + tanh(eps S / 2)) / 2 = sigmoid(eps S)
        # changes by a factor at most e^eps
        for eps in (0.1, 0.5, 1.0, 3.0):
            for s_int in range(-10, 10):
                p0 = 0.5 * (1 + math.tanh(eps * s_int / 2))
                p1 = 0.5 * (1 + math.tanh(eps * (s_int + 1) / 2))
                for a, b in ((p0, p1), (1 - p0, 1 - p1)):
                    assert a <= b * math.exp(eps) + 1e-12
                    assert b <= a * math.exp(eps) + 1e-12


class TestLambdaSensitivity:
    def test_swap_bounded(self):
        # swapping one constraint at fixed m moves lambda_j by <= 2/sqrt(m)
        rng = gen(16)
        for _ in range(200):
            n, m, k = 10, 6, 3
            inst = gen_random_kxor(GenSpec(n=n, m=m, k=k, seed=int(rng.integers(1 << 30))))
            cons = list(inst.constraints)
            idx = int(rng.integers(m))
            replacement = xor(
                tuple(sorted(rng.choice(n, size=k, replace=False).tolist())),
                b=int(2 * rng.integers(0, 2) - 1),
            )
            swapped = CspInstance(
                n=n,
                constraints=tuple(cons[:idx] + [replacement] + cons[idx + 1:]),
                kind="kxor",
            )
            y = 2 * rng.integers(0, 2, size=n) - 1
            j = int(rng.integers(n))
            u = {j}
            a = lambda_j(inst, j, u, y)
            b = lambda_j(swapped, j, u, y)
            assert abs(a - b) <= 2.0 / math.sqrt(m) + 1e-12


class TestAlg3:
    def test_runs_and_valid(self):
        inst = gen_random_kxor(GenSpec(n=12, m=20, k=3, seed=2))
        x = alg3_batch(inst, 1.0, gen(17), 1)[0]
        assert x.shape == (12,) and set(np.unique(x)) <= {-1, 1}

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_invalid_eps_rejected(self, eps):
        inst = CspInstance(n=3, constraints=(xor((0, 1)), xor((1, 2))), kind="kxor")
        with pytest.raises(ValueError, match="finite"):
            alg3_batch(inst, eps, gen(), 1)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError):
            alg3_batch(CspInstance(n=3, constraints=(), kind="kxor"), 1.0, gen(), 1)

    def test_duplicate_scopes_rejected(self):
        cons = (xor((0, 1), b=1), xor((0, 1), b=-1))
        inst = CspInstance(n=2, constraints=cons, kind="kxor")
        with pytest.raises(ValueError):
            alg3_batch(inst, 1.0, gen(), 1)

    def test_scale_and_flip_index_validated(self):
        inst = gen_random_kxor(GenSpec(n=8, m=12, k=3, seed=5))
        for kwargs, msg in (
            ({"scale": 0}, "scale 0"),
            ({"flip_index": -1}, "flip_index -1"),
            ({"flip_index": 4}, "flip_index 4"),
        ):
            with pytest.raises(ValueError, match=msg):
                alg3_batch(inst, 1.0, gen(), 1, **kwargs)
        for kwargs in ({"scale": 1}, {"flip_index": 0}, {"flip_index": 3}):
            assert alg3_batch(inst, 1.0, gen(), 2, **kwargs).shape == (2, 8)

    def test_random_flip_coordinate_uniform(self):
        inst = gen_random_kxor(GenSpec(n=8, m=12, k=3, seed=4))
        rows = np.array(
            [
                alg3_batch(inst, 1.0, g, 1)[0]
                for g in (RngStream(19, t).generator() for t in range(40_000))
            ]
        )
        assert np.all(np.abs(rows.mean(axis=0)) < 4.0 / math.sqrt(rows.shape[0]))

    def test_determinism(self):
        inst = gen_random_kxor(GenSpec(n=8, m=12, k=3, seed=6))
        a = alg3_batch(inst, 1.0, gen(21), 1)[0]
        b = alg3_batch(inst, 1.0, gen(21), 1)[0]
        assert np.array_equal(a, b)


class TestAlgOddK:
    def test_even_arity_rejected(self):
        inst = gen_random_kxor(GenSpec(n=8, m=6, k=2, seed=7))
        with pytest.raises(ValueError):
            alg_oddk_batch(inst, 1.0, gen(), 1)

    def test_runs_k3(self):
        inst = gen_random_kxor(GenSpec(n=10, m=15, k=3, seed=8))
        x = alg_oddk_batch(inst, 1.5, gen(22), 1)[0]
        assert x.shape == (10,) and set(np.unique(x)) <= {-1, 1}

    def test_k1_respects_half_floor(self):
        cons = tuple(xor((i,), b=1) for i in range(8))
        inst = CspInstance(n=8, constraints=cons, kind="kxor")
        vals = np.array(
            [
                eval_value(inst, alg_oddk_batch(inst, 1.0, g, 1)[0])
                for g in (RngStream(23, t).generator() for t in range(5_000))
            ]
        )
        se = vals.std() / math.sqrt(vals.size)
        assert vals.mean() > inst.m / 2 - 3.5 * se

    def test_positive_eps_required(self):
        inst = gen_random_kxor(GenSpec(n=6, m=4, k=3, seed=9))
        with pytest.raises(ValueError):
            alg_oddk_batch(inst, 0.0, gen(), 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        inst = gen_random_kxor(GenSpec(n=6, m=4, k=3, seed=9))
        with pytest.raises(ValueError, match="epsilon must be finite"):
            alg_oddk_batch(inst, eps, gen(), 1)

    def test_eps_whose_threshold_underflows_rejected(self):
        # the threshold 100/eps^2 used to divide by zero at eps^2 = 0.0
        inst = gen_random_kxor(GenSpec(n=6, m=4, k=3, seed=9))
        with pytest.raises(ValueError, match=r"eps\^2 underflows to 0 at epsilon = 1e-200"):
            alg_oddk_batch(inst, 1e-200, gen(), 1)
