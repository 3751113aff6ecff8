"""Array-shaped trial code against per-constraint reference copies.

The references below are the per-constraint forms that the array code
replaced: eval_value summing Constraint.evaluate, alg1 with a derivative_q
call and scalar draws per greedy variable, alg3's influence loop,
_two_color_batch with np.add.at, the harness's per-trial evaluation, and
alg6's low-edge subsampling with one scalar draw per edge. The audit
kernels have copies of their float64/int64 forms with nested np.where:
alg1_batch with np.add.at and the stand-in median table,
sample_discrete_laplace, assignment_rows, randomized_response's
np.unique input check, and dp_shearer_batch.
Every comparison is exact (np.array_equal or ==), and the generator state
after a run must match too, so each draw is the same draw.
"""

import functools
import math

import numpy as np
import pytest

from privcsp import algo_csp, harness
from privcsp.algo_csp import (
    _kept_influence,
    _median_for,
    alg1_triangle_free_bounded,
    alg3_dp_advrand,
)
from privcsp.algo_maxcut import (
    _two_color_batch,
    dp_maxcut_general,
    dp_shearer_batch,
    matching_em_cut,
    mutual_choice_matching,
)
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    WeightedGraph,
    all_values,
    as_assignment,
    assignment_rows,
    derivative_q,
    eval_value,
)
from privcsp.dp_mechanisms import (
    RngStream,
    as_generator,
    em_over_assignments,
    exponential_mechanism,
    keep_probability,
    randomized_response,
    sample_discrete_laplace,
    sample_laplace,
)
from privcsp.generators import GenSpec, gen_random_kxor
from privcsp.oracles import exact_median_theta

SEEDS = range(200)


# ------------------------------------------------------------ references


def ref_eval_value(problem, x):
    if isinstance(problem, WeightedGraph):
        sv = as_assignment(x, problem.n)
        if problem.m == 0:
            return 0.0
        u, v, w = problem.edge_arrays()
        return float(w[sv[u] != sv[v]].sum())
    xv = as_assignment(x, problem.n)
    return float(sum(c.evaluate(xv) for c in problem.constraints))


def ref_alg1(instance, epsilon, rng, check=True):
    keep_prob = keep_probability(epsilon)
    if check and not instance._triangle_free:
        raise ValueError("alg1 requires a triangle-free instance")
    gen = as_generator(rng)
    n = instance.n
    greedy = gen.random(n) < 0.5
    x = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    active = {}
    for c in instance.constraints:
        hits = [i for i in c.scope if greedy[i]]
        if len(hits) == 1:
            active.setdefault(hits[0], []).append(c)
    for j in np.flatnonzero(greedy):
        j = int(j)
        cs = active.get(j, [])
        if cs:
            sum_q = 0.0
            for c in cs:
                fixed = {i: int(x[i]) for i in c.scope if i != j}
                sum_q += derivative_q(c, j, fixed)
            theta, gamma = _median_for(cs, j)
        else:
            sum_q, theta, gamma = 0.0, 0.0, 0.5
        if sum_q > theta:
            z = 1
        elif sum_q < theta:
            z = -1
        else:
            z = 1 if gen.random() < gamma else -1
        y = 1 if gen.random() < keep_prob else -1
        x[j] = y * z
    return x


def ref_kept_influence(instance, keep, x):
    kept_set = set(int(j) for j in np.flatnonzero(keep))
    sqrt_m = math.sqrt(instance.m)
    lam = np.zeros(instance.n)
    for c in instance.constraints:
        hits = [i for i in c.scope if i in kept_set]
        if len(hits) != 1:
            continue
        j = hits[0]
        prod = 1
        for i in c.scope:
            if i != j:
                prod *= int(x[i])
        lam[j] += c.b * prod / sqrt_m
    return lam


def ref_two_color_batch(graph, gen, trials):
    n = graph.n
    c1 = (2 * gen.integers(0, 2, size=(trials, n)) - 1).astype(np.int8)
    c2 = (2 * gen.integers(0, 2, size=(trials, n)) - 1).astype(np.int8)
    ell = np.zeros((trials, n), dtype=np.int64)
    if graph.m:
        u, v, _ = graph.edge_arrays()
        same = (c1[:, u] == c1[:, v]).astype(np.int64)
        rows = np.arange(trials)[:, None]
        np.add.at(ell, (rows, u[None, :]), same)
        np.add.at(ell, (rows, v[None, :]), same)
    return c1, c2, ell


def ref_dp_maxcut_general(graph, epsilon, alpha, rng):
    """dp_maxcut_general without its checks, low edges kept one draw at a
    time. Also returns the size of the high set."""
    gen = as_generator(rng)
    n = graph.n
    threshold = 24.0 / epsilon ** (1.0 + alpha)
    noisy = graph.degree_counts() + sample_laplace(12.0 / epsilon, gen, size=n)
    high_mask = noisy > threshold
    high = np.flatnonzero(high_mask)
    s1 = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    if high.size:
        s1[high] = em_over_assignments(graph, high.tolist(), epsilon / 6.0, 1.0, gen)
    rate = epsilon ** (1.0 + alpha) / 70.0
    low_edges = tuple(
        (u, v, w) for u, v, w in graph.edges if not high_mask[u] and not high_mask[v]
    )
    kept = tuple(e for e in low_edges if gen.random() < rate)
    matching = mutual_choice_matching(WeightedGraph(n=n, edges=kept), gen)
    s2 = matching_em_cut(n, matching, gen)
    s3 = np.where(high_mask, 1, -1).astype(np.int8)
    chosen = exponential_mechanism(
        [s1, s2, s3], lambda cand: ref_eval_value(graph, cand), epsilon / 2.0, 1.0, gen
    )
    return np.asarray(chosen, dtype=np.int8), int(high.size)


def ref_run_one_eps(config, problem, view, eps, opt, chash):
    runner = harness.ALGORITHMS[config.algorithm][0]
    values = np.empty(config.trials)
    for t in range(config.trials):
        gen = RngStream(config.seed, t).generator()
        values[t] = ref_eval_value(view, np.asarray(runner(view, eps, config.alpha, gen)))
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return harness.ReportRow(
        algorithm=config.algorithm, eps=eps, alpha=config.alpha, n=problem.n,
        m=problem.m, trials=config.trials, mean_val=mean, se=se, opt=opt,
        ratio=(mean / opt) if opt else None,
        advantage=mean - harness._baseline_value(problem), seed=config.seed,
        config_hash=chash, wall_ms=0.0,
    )


@functools.lru_cache(maxsize=None)
def ref_xor_median_by_count(max_count):
    """The exact-median oracle on q stand-in parities, for every q up to
    max_count; read only."""
    thetas = np.zeros(max_count + 1)
    gammas = np.full(max_count + 1, 0.5)
    for q in range(1, max_count + 1):
        stand_ins = [Constraint(scope=(0, i + 1), b=1) for i in range(q)]
        thetas[q], gammas[q] = exact_median_theta(stand_ins, 0)
    return thetas, gammas


def ref_alg1_batch(instance, epsilon, rng, trials):
    """alg1_batch without its checks: float sums with np.add.at, the
    stand-in median table up to m, and nested np.where."""
    keep_prob = keep_probability(epsilon)
    gen = as_generator(rng)
    n, m = instance.n, instance.m
    greedy = gen.random((trials, n)) < 0.5
    x = (2 * gen.integers(0, 2, size=(trials, n)) - 1).astype(np.int8)
    sum_q = np.zeros((trials, n))
    count = np.zeros((trials, n), dtype=np.int64)
    for c in instance.constraints:
        scope = np.asarray(c.scope)
        gsub = greedy[:, scope]
        rows = np.flatnonzero(gsub.sum(axis=1) == 1)
        if rows.size == 0:
            continue
        jcol = scope[np.argmax(gsub[rows], axis=1)]
        prod_all = x[rows][:, scope].prod(axis=1).astype(np.int64)
        q = 0.5 * c.b * prod_all * x[rows, jcol]
        np.add.at(sum_q, (rows, jcol), q)
        np.add.at(count, (rows, jcol), 1)
    thetas, gammas = ref_xor_median_by_count(m)
    theta = thetas[count]
    gamma = gammas[count]
    tie = gen.random((trials, n)) < gamma
    z = np.where(sum_q > theta, 1, np.where(sum_q < theta, -1, np.where(tie, 1, -1)))
    y = np.where(gen.random((trials, n)) < keep_prob, 1, -1)
    return np.where(greedy, y * z, x).astype(np.int8)


def ref_sample_discrete_laplace(epsilon, rng, size=None):
    gen = as_generator(rng)
    q = np.exp(-epsilon)
    p_zero = (1.0 - q) / (1.0 + q)
    u = gen.random(size=size)
    magnitude = gen.geometric(1.0 - q, size=size)
    if size is None:
        if u < p_zero:
            return 0
        return int(magnitude) if u < p_zero + (1.0 - p_zero) / 2.0 else -int(magnitude)
    out = np.where(
        u < p_zero,
        0,
        np.where(u < p_zero + (1.0 - p_zero) / 2.0, magnitude, -magnitude),
    )
    return out.astype(np.int64)


def ref_assignment_rows(rows, k):
    bits = np.asarray(rows)[..., None] >> np.arange(k)
    return np.where(bits & 1 == 1, 1, -1).astype(np.int8)


def ref_randomized_response(bit, epsilon, rng, domain="pm1"):
    keep_prob = keep_probability(epsilon)
    gen = as_generator(rng)
    arr = np.asarray(bit)
    valid = {-1, 1} if domain == "pm1" else {0, 1}
    if not set(np.unique(arr).tolist()) <= valid:
        raise ValueError(f"input values must lie in {sorted(valid)}")
    keep = gen.random(size=arr.shape) < keep_prob
    flipped = -arr if domain == "pm1" else 1 - arr
    out = np.where(keep, arr, flipped)
    if np.isscalar(bit) or arr.shape == ():
        return int(out)
    return out


def ref_dp_shearer_batch(graph, epsilon, rng, trials):
    gen = as_generator(rng)
    c1, c2, ell = ref_two_color_batch(graph, gen, trials)
    zeta = ref_sample_discrete_laplace(epsilon / 2.0, gen, size=(trials, graph.n))
    take_first = ell - graph.degree_counts() // 2 + zeta <= 0
    return np.where(take_first, c1, c2).astype(np.int8)


def same_result(a, b):
    """Equal values of the same type, and for arrays the same dtype and
    shape."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    return type(a) is type(b) and a == b


# ------------------------------------------------------------- instances


def random_scope(rng, n, k):
    return tuple(int(i) for i in rng.choice(n, size=k, replace=False))


def random_table(rng, k):
    return tuple(int(t) for t in rng.integers(0, 2, size=2 ** k))


def sign_instance(seed, n=9, m=14, arities=(1, 2, 3, 4), kind="kxor"):
    """Sign-form constraints of mixed arity; scopes may overlap."""
    rng = np.random.default_rng(seed)
    cons = tuple(
        Constraint(scope=random_scope(rng, n, int(rng.choice(arities))),
                   b=int(rng.choice([-1, 1])))
        for _ in range(m)
    )
    return CspInstance(n=n, constraints=cons, kind=kind)


def mixed_instance(seed, n=9, m=14):
    """Truth tables (some constant, so derivatives vanish) and parities of
    arity 1-4 in one general instance."""
    rng = np.random.default_rng(seed)
    cons = []
    for _ in range(m):
        k = int(rng.integers(1, 5))
        scope = random_scope(rng, n, k)
        form = rng.integers(0, 3)
        if form == 0:
            cons.append(Constraint(scope=scope, b=int(rng.choice([-1, 1]))))
        elif form == 1:
            cons.append(Constraint(scope=scope, table=random_table(rng, k)))
        else:
            cons.append(Constraint(scope=scope, table=(int(rng.integers(0, 2)),) * 2 ** k))
    return CspInstance(n=n, constraints=tuple(cons), kind="general")


def distinct_sign_instance(seed, n=10, m=16):
    """Mixed-arity parities with distinct scopes, as alg3 requires."""
    rng = np.random.default_rng(seed)
    seen, cons = set(), []
    while len(cons) < m:
        scope = random_scope(rng, n, int(rng.integers(1, 5)))
        if frozenset(scope) not in seen:
            seen.add(frozenset(scope))
            cons.append(Constraint(scope=scope, b=int(rng.choice([-1, 1]))))
    return CspInstance(n=n, constraints=tuple(cons), kind="kxor")


def tie_instance():
    """Arity-1 parities (a point-mass derivative equal to its median) and
    constant tables (derivative 0 = median): every greedy variable ties."""
    return CspInstance(n=6, constraints=(
        Constraint(scope=(0,), b=1),
        Constraint(scope=(1,), b=-1),
        Constraint(scope=(2, 3), table=(1, 1, 1, 1)),
        Constraint(scope=(4, 5), table=(0, 0, 0, 0)),
    ), kind="general")


def random_block(seed, n, trials=7):
    rng = np.random.default_rng(seed)
    return (2 * rng.integers(0, 2, size=(trials, n)) - 1).astype(np.int8)


def weighted_graph(seed, n=12, m=40):
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(m):
        u, v = rng.choice(n, size=2, replace=False).tolist()
        edges.append((u, v, float(rng.uniform(0.1, 3.0))))
    return WeightedGraph(n=n, edges=tuple(edges))


def unit_graph(seed, n=12, m=30):
    rng = np.random.default_rng(seed)
    edges = tuple(
        tuple(rng.choice(n, size=2, replace=False).tolist()) + (1.0,) for _ in range(m)
    )
    return WeightedGraph(n=n, edges=edges)


# ---------------------------------------------------------------- tests


class TestEvalValue:
    @pytest.mark.parametrize("make", [sign_instance, mixed_instance, unit_graph])
    def test_block_matches_per_constraint_sum(self, make):
        for seed in SEEDS:
            problem = make(seed)
            block = random_block(seed, problem.n)
            expect = np.array([ref_eval_value(problem, row) for row in block])
            assert np.array_equal(eval_value(problem, block), expect)
            assert eval_value(problem, block[0]) == expect[0]
            assert isinstance(eval_value(problem, block[0]), float)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_each_sign_arity(self, arity):
        for seed in range(50):
            inst = sign_instance(seed, arities=(arity,))
            block = random_block(seed, inst.n, trials=16)
            expect = [ref_eval_value(inst, row) for row in block]
            assert eval_value(inst, block).tolist() == expect

    def test_row_chunks(self, monkeypatch):
        from privcsp import csp_core

        inst, g = mixed_instance(3), weighted_graph(3)
        blocks = random_block(3, inst.n, 40), random_block(4, g.n, 40)
        whole = eval_value(inst, blocks[0]), eval_value(g, blocks[1])
        monkeypatch.setattr(csp_core, "VALUE_CHUNK_BITS", 5)
        assert np.array_equal(eval_value(inst, blocks[0]), whole[0])
        assert np.array_equal(eval_value(g, blocks[1]), whole[1])

    def test_empty_problems(self):
        inst = CspInstance(n=3, constraints=(), kind="kxor")
        g = WeightedGraph(n=3, edges=())
        block = random_block(0, 3)
        assert eval_value(inst, block).tolist() == [0.0] * 7
        assert eval_value(g, block).tolist() == [0.0] * 7
        assert eval_value(inst, np.zeros((0, 3), dtype=np.int8)).shape == (0,)

    def test_block_validation(self):
        inst = sign_instance(0)
        with pytest.raises(ValueError):
            eval_value(inst, np.zeros((2, inst.n), dtype=np.int8))
        with pytest.raises(ValueError):
            eval_value(inst, np.ones((2, inst.n + 1), dtype=np.int8))
        with pytest.raises(ValueError):
            eval_value(inst, np.ones((2, 2, inst.n), dtype=np.int8))


class TestWeightedOrder:
    """A weighted cut value adds the cut edges' weights in edge order, as
    value_chunks does, so a row of all_values equals eval_value of the
    assignment the row decodes to, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_all_values(self, seed):
        g = weighted_graph(seed)
        table = all_values(g, range(g.n))
        rows = np.random.default_rng(seed).integers(0, 1 << g.n, size=64)
        block = assignment_rows(rows, g.n)
        assert np.array_equal(eval_value(g, block), table[rows])
        assert eval_value(g, block[0]) == table[rows[0]]

    def test_edge_order_sum(self):
        for seed in range(50):
            g = weighted_graph(seed)
            for x in random_block(seed, g.n):
                total = 0.0
                for u, v, w in g.edges:
                    if x[u] != x[v]:
                        total += w
                assert eval_value(g, x) == total


class TestAlg1:
    def run_both(self, inst, eps, seed, check=True):
        g_new = RngStream(seed, 0).generator()
        g_ref = RngStream(seed, 0).generator()
        out = alg1_triangle_free_bounded(inst, eps, g_new, check=check)
        ref = ref_alg1(inst, eps, g_ref, check=check)
        assert np.array_equal(out, ref) and out.dtype == ref.dtype
        assert g_new.bit_generator.state == g_ref.bit_generator.state

    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_triangle_free_kxor(self, eps):
        insts = [gen_random_kxor(GenSpec(n=30, m=12, k=k, seed=k, triangle_free=True))
                 for k in (2, 3)]
        for seed in SEEDS:
            for inst in insts:
                self.run_both(inst, eps, seed)

    def test_truth_tables(self):
        cons = []
        rng = np.random.default_rng(0)
        # disjoint pairs and a path: triangle-free, some shared variables
        for a in range(0, 12, 2):
            cons.append(Constraint(scope=(a, a + 1), table=random_table(rng, 2)))
        for a, b in ((13, 12), (12, 14), (14, 15)):
            cons.append(Constraint(scope=(a, b), table=(0, 1, 1, 1)))
        cons.append(Constraint(scope=(16, 17, 18), table=random_table(rng, 3)))
        cons.append(Constraint(scope=(18, 19), b=-1))
        inst = CspInstance(n=20, constraints=tuple(cons), kind="general")
        for seed in SEEDS:
            self.run_both(inst, 1.0, seed)

    @pytest.mark.parametrize("make", [sign_instance, mixed_instance])
    def test_overlapping_supports_unchecked(self, make):
        for seed in SEEDS:
            self.run_both(make(seed), 1.5, seed, check=False)

    def test_overlapping_or_pair(self):
        # at j = 0 the two OR tables share the fixed variable 1: the exact
        # median is (0, 0), not the disjoint-support (1/2, 1/2)
        inst = CspInstance(n=5, constraints=(
            Constraint(scope=(0, 1), table=(0, 1, 1, 1)),
            Constraint(scope=(1, 0), table=(0, 1, 1, 1)),
            Constraint(scope=(2, 3), table=(0, 1, 1, 1)),
            Constraint(scope=(4, 2), table=(0, 1, 1, 1)),
        ), kind="general")
        for seed in SEEDS:
            self.run_both(inst, 2.0, seed, check=False)

    def test_ties(self):
        inst = tie_instance()
        for seed in SEEDS:
            self.run_both(inst, 1.0, seed, check=False)

    def test_empty_greedy_and_empty_instance(self):
        single = CspInstance(n=1, constraints=(Constraint(scope=(0,), b=1),), kind="kxor")
        empty = CspInstance(n=4, constraints=(), kind="kxor")
        nothing = CspInstance(n=0, constraints=(), kind="kxor")
        for seed in SEEDS:
            for inst in (single, empty, nothing):
                self.run_both(inst, 0.5, seed)


class TestAlg3:
    def test_influence_matches_loop(self):
        # m = 40 is no square, so the terms +-1/sqrt(m) round, and with few
        # kept variables each gathers terms of several arities: any other
        # order of addition shows in the last bits
        for seed in SEEDS:
            inst = distinct_sign_instance(seed, n=12, m=40)
            rng = np.random.default_rng(seed)
            keep = rng.random(inst.n) < rng.choice([0.0, 0.1, 0.2, 0.5, 1.0])
            x = (2 * rng.integers(0, 2, size=inst.n) - 1).astype(np.int8)
            assert np.array_equal(_kept_influence(inst, keep, x),
                                  ref_kept_influence(inst, keep, x))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_outputs_match_loop(self, monkeypatch, eps):
        insts = [distinct_sign_instance(s, n=6, m=8) for s in range(4)]
        runs = []
        for ref in (False, True):
            if ref:
                monkeypatch.setattr(algo_csp, "_kept_influence", ref_kept_influence)
            out = []
            for seed in SEEDS:
                for inst in insts:
                    gen = RngStream(seed, 1).generator()
                    out.append((alg3_dp_advrand(inst, eps, gen), gen.bit_generator.state))
            runs.append(out)
        for (a, sa), (b, sb) in zip(*runs):
            assert np.array_equal(a, b) and sa == sb


class TestTwoColor:
    @pytest.mark.parametrize("trials", [1, 7])
    def test_counts_match_add_at(self, trials):
        graphs = [unit_graph(s) for s in range(20)] + [WeightedGraph(n=5, edges=())]
        for seed in SEEDS:
            g = graphs[seed % len(graphs)]
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = _two_color_batch(g, gen_new, trials)
            ref = ref_two_color_batch(g, gen_ref, trials)
            for a, b in zip(new, ref):
                assert same_result(a, b)
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("eps", [1e-12, 0.5, 2.0, 800.0])
    def test_dp_shearer_batch(self, eps):
        graphs = [unit_graph(s, n=8, m=12) for s in range(10)]
        graphs += [WeightedGraph(n=2, edges=((0, 1, 1.0),)), WeightedGraph(n=3, edges=())]
        for seed in SEEDS:
            g = graphs[seed % len(graphs)]
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_result(dp_shearer_batch(g, eps, gen_new, 9),
                               ref_dp_shearer_batch(g, eps, gen_ref, 9))
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state


class TestAlg1Batch:
    KXOR = [gen_random_kxor(GenSpec(n=30, m=12, k=k, seed=k, triangle_free=True))
            for k in (2, 3)]
    CYCLE = CspInstance(n=8, constraints=tuple(
        Constraint(scope=(i, (i + 1) % 8), b=-1) for i in range(8)), kind="maxcut")
    # the audit's neighbouring pair: one constraint, and none
    PAIR = [CspInstance(n=4, constraints=(Constraint(scope=(0, 1), b=1),), kind="kxor"),
            CspInstance(n=4, constraints=(), kind="kxor")]
    EMPTY = [CspInstance(n=0, constraints=(), kind="kxor")]
    # up to five active constraints on variable 0, with signs of both kinds
    STAR = CspInstance(n=6, constraints=tuple(
        Constraint(scope=(0, i), b=(-1) ** i) for i in range(1, 6)), kind="kxor")

    def run_both(self, inst, eps, seed, check=True, trials=8):
        gen_new, gen_ref = RngStream(seed, 2).generator(), RngStream(seed, 2).generator()
        out = algo_csp.alg1_batch(inst, eps, gen_new, trials, check=check)
        assert same_result(out, ref_alg1_batch(inst, eps, gen_ref, trials))
        assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_matches_reference(self, eps):
        # every instance ties: a greedy variable without active constraints
        # always sits at its median 0, and one with a single constraint
        # ties whenever its derivative is -1/2
        for seed in SEEDS:
            for inst in self.KXOR + [self.CYCLE] + self.PAIR + self.EMPTY:
                self.run_both(inst, eps, seed)
            self.run_both(self.STAR, eps, seed, check=False)

    def test_one_trial_and_zero_trials(self):
        for seed in range(20):
            for trials in (0, 1):
                self.run_both(self.KXOR[0], 1.0, seed, trials=trials)

    def test_closed_form_median_table(self):
        thetas, gammas = algo_csp._xor_median_by_count(60)
        ref_thetas, ref_gammas = ref_xor_median_by_count(60)
        assert thetas.tolist() == ref_thetas.tolist()
        assert gammas.tolist() == ref_gammas.tolist()

    def test_table_only_up_to_largest_count(self, monkeypatch):
        # 120 disjoint parities: no variable has more than one constraint
        inst = CspInstance(n=240, constraints=tuple(
            Constraint(scope=(2 * i, 2 * i + 1), b=1) for i in range(120)), kind="kxor")
        sizes = []
        real = algo_csp._xor_median_by_count
        monkeypatch.setattr(algo_csp, "_xor_median_by_count",
                            lambda q: sizes.append(q) or real(q))
        algo_csp.alg1_batch(inst, 1.0, np.random.default_rng(0), 50)
        algo_csp.alg1_batch(self.STAR, 1.0, np.random.default_rng(0), 1000, check=False)
        assert sizes == [1, 5]


class TestDiscreteLaplace:
    @pytest.mark.parametrize("eps", [1e-12, 1e-3, 0.5, 1.0, 3.0, 40.0])
    def test_matches_nested_where(self, eps):
        for seed in SEEDS:
            for size in (None, (), 5, (3, 4)):
                gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert same_result(sample_discrete_laplace(eps, gen_new, size=size),
                                   ref_sample_discrete_laplace(eps, gen_ref, size=size))
                assert gen_new.bit_generator.state == gen_ref.bit_generator.state


class TestAssignmentRows:
    @pytest.mark.parametrize("k", [0, 1, 24])
    def test_matches_where(self, k):
        for seed in SEEDS:
            rows = np.random.default_rng(seed).integers(0, 1 << k, size=(5, 4))
            for r in (rows, rows[0], int(rows[0, 0]), rows[0, 0]):
                assert same_result(assignment_rows(r, k), ref_assignment_rows(r, k))


class TestRandomizedResponseCheck:
    INPUTS = {
        "pm1": [1, -1, np.array([1, -1, 1], dtype=np.int64),
                np.array([[-1, 1], [1, 1]], dtype=np.int8), np.array([1.0, -1.0])],
        "01": [0, 1, np.array([0, 1, 1], dtype=np.int64), np.array([True, False]),
               np.array([[1, 0]], dtype=np.uint8)],
    }
    INVALID = [2, 0, np.array([1, 0]), np.array([-1, 1, 2]), np.array([0.5]),
               np.array([np.nan]), np.array([True, False])]

    @pytest.mark.parametrize("domain", ["pm1", "01"])
    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_matches_unique_check(self, domain, eps):
        for seed in SEEDS:
            for bit in self.INPUTS[domain]:
                gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert same_result(randomized_response(bit, eps, gen_new, domain),
                                   ref_randomized_response(bit, eps, gen_ref, domain))
                assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("domain", ["pm1", "01"])
    def test_same_rejections(self, domain):
        for bit in self.INVALID:
            outcomes = []
            for fn in (randomized_response, ref_randomized_response):
                try:
                    fn(bit, 1.0, np.random.default_rng(0), domain)
                    outcomes.append(None)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        with pytest.raises(ValueError, match=r"input values must lie in \[-1, 1\]"):
            randomized_response(np.array([0, 1]), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"input values must lie in \[0, 1\]"):
            randomized_response(-1, 1.0, np.random.default_rng(0), "01")


def _without_wall_ms(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


class TestHarness:
    KXOR = gen_random_kxor(GenSpec(n=14, m=8, k=2, seed=3, triangle_free=True))
    K3 = CspInstance(n=9, constraints=tuple(
        Constraint(scope=(3 * i, 3 * i + 1, 3 * i + 2), b=(-1) ** i) for i in range(3)
    ) + (Constraint(scope=(0, 4, 8), b=1),), kind="kxor")
    CYCLE = CspInstance(n=10, constraints=tuple(
        Constraint(scope=(i, (i + 1) % 10), b=-1) for i in range(10)
    ), kind="maxcut")
    CASES = {
        "alg1": (KXOR, (0.5, 2.0)),
        "alg2": (KXOR, (0.5, 2.0)),
        "alg3": (KXOR, (0.0, 1.0)),
        "alg_oddk": (K3, (1.0,)),
        "shearer": (CYCLE, (1.0,)),
        "dp_shearer": (CYCLE, (0.5, 2.0)),
        "alg5": (CYCLE, (1.0,)),
        "alg6": (CYCLE, (0.05, 0.1)),
        "em_baseline": (KXOR, (0.0, 1.0)),
        "random_baseline": (KXOR, (1.0,)),
    }

    def test_every_algorithm_covered(self):
        assert set(self.CASES) == set(harness.ALGORITHMS)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_csv_matches_per_trial_loop(self, monkeypatch, algorithm):
        problem, eps = self.CASES[algorithm]
        config = harness.ExperimentConfig(algorithm=algorithm, eps=eps, trials=40, seed=11)
        new = harness.estimate_ratio(config, problem).csv()
        monkeypatch.setattr(harness, "_run_one_eps", ref_run_one_eps)
        ref = harness.estimate_ratio(config, problem).csv()
        assert _without_wall_ms(new) == _without_wall_ms(ref)


class TestAlg6Subsampling:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("eps,alpha", [(0.1, 0.0), (0.05, 0.0), (0.1, 0.2)])
    def test_outputs_match_scalar_loop(self, eps, alpha):
        high_seeds = 0
        for seed in SEEDS:
            # about 7% of the vertices clear the threshold through noise
            # alone, so many seeds have a nonempty high set; the graph is
            # dense enough that even a large rate keeps some edges
            make = lambda: unit_graph(seed, n=14, m=300)  # noqa: E731
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = dp_maxcut_general(make(), eps, alpha, gen_new)
            ref, high = ref_dp_maxcut_general(make(), eps, alpha, gen_ref)
            assert np.array_equal(new, ref) and new.dtype == ref.dtype
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state
            high_seeds += high > 0
        assert high_seeds >= 50

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_no_edges_and_one_edge(self):
        # no low edges (always for the edgeless graph, and for the single
        # edge whenever noise lifts an endpoint into the high set): the
        # vector draw takes no uniform, like the loop
        cases = [WeightedGraph(n=4, edges=()), WeightedGraph(n=2, edges=((0, 1, 1.0),))]
        for seed in SEEDS:
            for g in cases:
                gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                new = dp_maxcut_general(g, 0.1, 0.0, gen_new)
                ref, _ = ref_dp_maxcut_general(g, 0.1, 0.0, gen_ref)
                assert np.array_equal(new, ref)
                assert gen_new.bit_generator.state == gen_ref.bit_generator.state
