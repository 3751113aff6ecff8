"""Array-shaped trial code against per-constraint and per-trial reference
copies.

The references below are the forms that the array code replaced:
eval_value summing Constraint.evaluate, alg1 with a derivative_q call and
scalar draws per greedy variable, alg3's influence loop and its per-trial
body, _two_color_batch with np.add.at, the harness's per-trial runs on
RngStream(seed, t), and alg6's per-row body: low-edge subsampling with
one scalar draw per edge, the adjacency-list walk of the mutual-choice
matching, a scalar draw loop over the matched edges and a candidate-list
exponential mechanism. g_value and associated_advantage, which read
eval_value, have their per-constraint loops. The audit kernels have
copies of their float64/int64 forms with nested np.where: alg1_batch with
np.add.at and the stand-in median table, sample_discrete_laplace,
assignment_rows, randomized_response's np.unique input check, and
dp_shearer_batch. noisy_above, which draws dp_shearer's and the degree
stage's noisy comparisons, has ref_noisy_above: one uniform per entry
against the two-sided geometric tail computed entry by entry.

Where a kernel reads the same draws as its reference, every comparison is
exact (np.array_equal or ==), and the generator state after a run must
match too, so each draw is the same draw. Where the batch kernels read
other draws than the per-trial forms (alg1 off the sign-form audit path,
alg3, alg6, and every algorithm in the harness), the tests compare output
laws instead: a fixed-seed chi-square test of the kernel's rows against
the exact law where an oracle exists, or against the reference's rows,
with a 4-sigma tolerance. alg6's mutual-choice helper is also compared
exactly with the adjacency walk on the uniforms the kernel draws.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from privcsp import algo_csp, algo_maxcut, dp_mechanisms, harness
from privcsp.algo_csp import (
    _kept_influence,
    alg1_batch,
    alg3_batch,
    private_boost,
)
from privcsp.algo_maxcut import (
    _two_color_batch,
    dp_maxcut_general_batch,
    dp_maxcut_unbounded_batch,
    dp_shearer_batch,
)
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    all_values,
    as_assignment,
    assignment_rows,
    associated_advantage,
    constraint_groups,
    degrees,
    derivative_q,
    eval_value,
    g_value,
    is_triangle_free,
)
from privcsp.dp_mechanisms import (
    RngStream,
    as_generator,
    degree_split_batch,
    em_over_assignments_batch,
    keep_probability,
    randomized_response,
    sample_discrete_laplace,
)
from privcsp.generators import GenSpec, gen_random_kxor
from privcsp.oracles import exact_em_distribution, exact_median_theta

SEEDS = range(200)


# ------------------------------------------------------------ references


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


def ref_eval_value(problem, x):
    if problem.kind == "maxcut":
        sv = as_assignment(x, problem.n)
        if problem.m == 0:
            return 0.0
        u, v = edge_columns(problem)
        return float((sv[u] != sv[v]).sum())
    xv = as_assignment(x, problem.n)
    return float(sum(c.evaluate(xv) for c in problem.constraints))


def ref_g_value(instance, x):
    """g_value's per-constraint parity loop."""
    xv = as_assignment(x, instance.n)
    total = 0
    for c in instance.constraints:
        prod = 1
        for i in c.scope:
            prod *= int(xv[i])
        total += c.b * prod
    return total / np.sqrt(instance.m)


def ref_associated_advantage(instance, x):
    """associated_advantage's per-constraint loop in exact fractions."""
    xv = as_assignment(x, instance.n)
    total = Fraction(0)
    for c in instance.constraints:
        mu = Fraction(1, 2) if c.is_xor else Fraction(sum(c.table), len(c.table))
        total += c.evaluate(xv) - mu
    return float(total / instance.m)


def ref_alg1(instance, epsilon, rng):
    keep_prob = keep_probability(epsilon)
    if not instance._triangle_free:
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
            theta, gamma = ref_median(tuple(cs), j)
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


def ref_fair_signs(gen, shape):
    """fair_signs with each bit read by shifts: entry i is +1 exactly when
    bit 7 - i % 8 of byte i // 8 of the gen.integers(0, 256) uint8 draws is
    set."""
    size = math.prod(shape)
    packed = gen.integers(0, 256, size=(size + 7) // 8, dtype=np.uint8).astype(np.int64)
    bits = (packed[:, None] >> np.arange(7, -1, -1)) & 1
    return (2 * bits.reshape(-1)[:size] - 1).astype(np.int8).reshape(shape)


def ref_two_color_batch(graph, gen, trials):
    n = graph.n
    c1 = ref_fair_signs(gen, (trials, n))
    c2 = ref_fair_signs(gen, (trials, n))
    ell = np.zeros((trials, n), dtype=np.int64)
    if graph.m:
        u, v = edge_columns(graph)
        same = (c1[:, u] == c1[:, v]).astype(np.int64)
        rows = np.arange(trials)[:, None]
        np.add.at(ell, (rows, u[None, :]), same)
        np.add.at(ell, (rows, v[None, :]), same)
    return c1, c2, ell


def ref_mutual_choice(n, edges, draws):
    """The mutual-choice matching on one row's kept edges by adjacency-list
    walk: a vertex with kept neighbours adj picks sorted(adj)[int(draws[x] *
    len(adj))]. Returns the picks (-1 for none) and the matched (x, pick)
    pairs with x < pick, in vertex order."""
    nbrs = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    chosen = [-1] * n
    for x, adj in nbrs.items():
        chosen[x] = sorted(adj)[int(draws[x] * len(adj))]
    pairs = [(x, chosen[x]) for x in sorted(nbrs) if x < chosen[x] and chosen[chosen[x]] == x]
    return chosen, pairs


def ref_matching_em_cut(n, pairs, gen):
    """The factorized matching mechanism with scalar draws: uniform sides,
    then per matched edge a fair orientation and a cut with probability
    e^{2.5/4} / (1 + e^{2.5/4})."""
    sides = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    p_cut = math.exp(2.5 / 4) / (1 + math.exp(2.5 / 4))
    for u, v in pairs:
        a = 1 if gen.random() < 0.5 else -1
        sides[u] = a
        sides[v] = -a if gen.random() < p_cut else a
    return sides


def ref_exponential_mechanism(candidates, scores, epsilon, sensitivity, gen):
    """One candidate of a list by inverse CDF of the exact law on one uniform."""
    cdf = np.cumsum(exact_em_distribution(scores, epsilon, sensitivity))
    return candidates[min(int(np.searchsorted(cdf, gen.random(), side="right")), len(candidates) - 1)]


def ref_dp_maxcut_general(graph, epsilon, alpha, rng):
    """dp_maxcut_general_batch's old per-row body without its checks: low
    edges kept one draw at a time, the adjacency walk, the scalar matching
    mechanism and the candidate-list final selection. Also returns the size
    of the high set."""
    gen = as_generator(rng)
    n = graph.n
    threshold = 24.0 / epsilon ** (1.0 + alpha)
    # degree noise from sample_discrete_laplace: the law tests compare noisy_above's law with it
    noisy = degrees(graph) + sample_discrete_laplace(epsilon / 6.0 / 2, gen, size=n)
    high_mask = noisy > threshold
    high = np.flatnonzero(high_mask)
    s1 = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    if high.size:
        s1[high] = em_over_assignments_batch(graph, high.tolist(), epsilon / 6.0, 1.0, gen, 1)[0]
    rate = epsilon ** (1.0 + alpha) / 70.0
    low_edges = tuple(
        (u, v) for u, v in edge_list(graph) if not high_mask[u] and not high_mask[v]
    )
    kept = tuple(e for e in low_edges if gen.random() < rate)
    _, pairs = ref_mutual_choice(n, kept, gen.random(n))
    s2 = ref_matching_em_cut(n, pairs, gen)
    s3 = np.where(high_mask, 1, -1).astype(np.int8)
    candidates = [s1, s2, s3]
    chosen = ref_exponential_mechanism(
        candidates, [ref_eval_value(graph, c) for c in candidates], epsilon / 2.0, 1.0, gen
    )
    return np.asarray(chosen, dtype=np.int8), int(high.size)


def ref_alg2(instance, epsilon, rng, subroutine, threshold):
    """alg2_batch's one-trial form without its checks, with its own copy of the
    noisy-degree split: literal integer-noise parameter and stage budgets.
    Also returns the size of the high set."""
    gen = as_generator(rng)
    k = max(instance.max_arity, 1)
    high = np.flatnonzero(ref_noisy_above(degrees(instance), threshold, epsilon / 3.0 / k, gen,
                                          instance.n))
    x1 = ref_fair_signs(gen, (instance.n,))
    if high.size:
        x1[high] = em_over_assignments_batch(
            instance, high.tolist(), epsilon / 3.0, 1.0, gen, 1
        )[0]
    x2 = as_assignment(subroutine(instance, epsilon / 3.0, gen), instance.n)
    return (x1 if ref_fair_signs(gen, (1,))[0] > 0 else x2), int(high.size)


def ref_dp_maxcut_unbounded(graph, epsilon, rng):
    """dp_maxcut_unbounded_batch's one-trial form without its checks, with its own copy of the
    noisy-degree split; the integer-noise parameter is epsilon/3/2 (one edge
    moves two degrees)."""
    gen = as_generator(rng)
    high = np.flatnonzero(ref_noisy_above(degrees(graph), 10000.0 / epsilon ** 2,
                                          epsilon / 3.0 / 2, gen, graph.n))
    s1 = ref_fair_signs(gen, (graph.n,))
    if high.size:
        s1[high] = em_over_assignments_batch(graph, high.tolist(), epsilon / 3.0, 1.0, gen, 1)[0]
    s2 = ref_dp_shearer_batch(graph, epsilon / 3.0, gen, 1)[0]
    return s1 if ref_fair_signs(gen, (1,))[0] > 0 else s2


def ref_run_em_baseline(problem, eps, alpha, gen):
    """harness._run_em_baseline with its own view branch and split."""
    if problem.kind == "maxcut":
        deg = degrees(problem)
        n = problem.n
    else:
        deg = degrees(problem)
        n = problem.n
    covered = np.flatnonzero(deg > 0)
    x = ref_fair_signs(gen, (n,))
    if covered.size:
        x[covered] = em_over_assignments_batch(problem, covered.tolist(), eps, 1.0, gen, 1)[0]
    return x


def ref_alg3(instance, epsilon, rng, scale=None, flip_index=None):
    """alg3_batch's per-trial body without its checks: a scalar scale
    and flip index, one boost draw per kept variable, ref_kept_influence."""
    gen = as_generator(rng)
    n, m = instance.n, instance.m
    k = instance.max_arity
    smax = max(1, math.ceil(math.log2(k)) if k > 1 else 1)
    s = scale if scale is not None else int(gen.integers(1, smax + 1))
    keep = gen.random(n) < 2.0 ** (-s)
    x = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    kept = np.flatnonzero(keep)
    lam = ref_kept_influence(instance, keep, x)
    x[kept] = private_boost(lam[kept], epsilon * math.sqrt(m) / 2.0, gen)
    r = flip_index if flip_index is not None else int(gen.integers(0, k + 1))
    eta = math.cos(r * math.pi / k) / 2.0
    flip = gen.random(n) < (1.0 - eta) / 2.0
    x = np.where(keep & flip, -x, x).astype(np.int8)
    if gen.random() < 0.5:
        x = (-x).astype(np.int8)
    return x


def ref_shearer(graph, gen):
    """shearer_batch's one-trial form on ref_two_color_batch."""
    c1, c2, ell = ref_two_color_batch(graph, gen, 1)
    deg = degrees(graph)
    coin = gen.random((1, graph.n)) < 0.5
    take_first = np.where(2 * ell < deg, True, np.where(2 * ell > deg, False, coin))
    return np.where(take_first, c1, c2).astype(np.int8)[0]


def single_run(kernel):
    """kernel's row 0 with one trial, as a per-trial subroutine(inst, eps, gen)."""
    return lambda inst, e, g: kernel(inst, e, g, 1)[0]


# per-trial reference of every ALGORITHMS entry: runner(problem, eps, alpha, gen)
REF_RUNNERS = {
    "alg1": lambda p, e, a, g: ref_alg1(p, e, g),
    "alg2": lambda p, e, a, g: ref_alg2(p, e, g, ref_alg1, 10000.0 / e ** 4)[0],
    "alg3": lambda p, e, a, g: ref_alg3(p, e, g),
    "alg_oddk": lambda p, e, a, g: ref_alg2(p, e, g, ref_alg3, 100.0 / e ** 2)[0],
    "shearer": lambda p, e, a, g: ref_shearer(p, g),
    "dp_shearer": lambda p, e, a, g: ref_dp_shearer_batch(p, e, g, 1)[0],
    "alg5": lambda p, e, a, g: ref_dp_maxcut_unbounded(p, e, g),
    "alg6": lambda p, e, a, g: ref_dp_maxcut_general(p, e, a, g)[0],
    "em_baseline": ref_run_em_baseline,
    "random_baseline": lambda p, e, a, g: (2 * g.integers(0, 2, size=p.n) - 1).astype(np.int8),
}


def ref_rows(algorithm, view, eps, alpha, seed, trials):
    """The per-trial layout: trial t runs the reference on RngStream(seed, t)."""
    runner = REF_RUNNERS[algorithm]
    return np.array([
        runner(view, eps, alpha, RngStream(seed, t).generator()) for t in range(trials)
    ], dtype=np.int8).reshape(trials, view.n)


def ref_run_one_eps(config, problem, eps, opt, baseline, chash):
    values = np.array([
        ref_eval_value(problem, row)
        for row in ref_rows(config.algorithm, problem, eps, config.alpha, config.seed, config.trials)
    ])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return harness.ReportRow(
        algorithm=config.algorithm, eps=eps, alpha=config.alpha, n=problem.n,
        m=problem.m, trials=config.trials, mean_val=mean, se=se, opt=opt,
        ratio=(mean / opt) if opt else None,
        advantage=mean - baseline, seed=config.seed,
        config_hash=chash, wall_ms=0.0,
    )


def exact_alg1_law(instance, epsilon):
    """The exact output law of alg1 over the 2^n assignments,
    index sum((x_j = +1) << j), by enumerating the greedy mask and the
    initial x: given both, the outputs are independent across variables,
    with derivative_q sums and exact_median_theta medians."""
    n = instance.n
    keep = keep_probability(epsilon)
    medians = {}
    law = np.zeros(1 << n)
    for gmask in range(1 << n):
        active = {}
        for c in instance.constraints:
            hits = [i for i in c.scope if (gmask >> i) & 1]
            if len(hits) == 1:
                active.setdefault(hits[0], []).append(c)
        for xmask in range(1 << n):
            x = [1 if (xmask >> i) & 1 else -1 for i in range(n)]
            probs = np.ones(1)
            for j in range(n):
                if not (gmask >> j) & 1:
                    p_plus = float(x[j] > 0)
                else:
                    cs = active.get(j, [])
                    s = sum(derivative_q(c, j, {i: x[i] for i in c.scope if i != j}) for c in cs)
                    key = (tuple(cs), j)
                    if key not in medians:
                        medians[key] = exact_median_theta(cs, j) if cs else (0.0, 0.5)
                    theta, gamma = medians[key]
                    p_z = 1.0 if s > theta else 0.0 if s < theta else gamma
                    p_plus = keep * p_z + (1 - keep) * (1 - p_z)
                # bit j is the last axis added: index bit j set for x_j = +1
                probs = np.concatenate((probs * (1 - p_plus), probs * p_plus))
            law += probs
    return law / 4 ** n


def output_counts(rows, n):
    rows = np.asarray(rows).reshape(len(rows), n)
    codes = ((rows > 0).astype(np.int64) << np.arange(n)).sum(axis=1)
    return np.bincount(codes, minlength=1 << n)


def chi2_bound(df):
    """Mean plus 4 standard deviations of a chi-square law with df degrees."""
    return df + 4 * math.sqrt(2 * df)


def assert_law(rows, law):
    """One-sample chi-square test of the rows against an exact law: no row
    outside its support, and the statistic within 4 sigma."""
    n = int(round(math.log2(law.size)))
    counts = output_counts(rows, n)
    support = law > 1e-15
    assert counts[~support].sum() == 0
    expect = counts.sum() * law[support]
    stat = float(((counts[support] - expect) ** 2 / expect).sum())
    assert stat <= chi2_bound(support.sum() - 1) + 1e-9, stat


def assert_same_law(rows_a, rows_b, n):
    """Two-sample chi-square test (unequal sizes) of two sets of rows on
    the cells either one reaches, within 4 sigma."""
    a, b = output_counts(rows_a, n), output_counts(rows_b, n)
    seen = (a + b) > 0
    a, b = a[seen], b[seen]
    ka, kb = math.sqrt(b.sum() / a.sum()), math.sqrt(a.sum() / b.sum())
    stat = float(((ka * a - kb * b) ** 2 / (a + b)).sum())
    assert stat <= chi2_bound(seen.sum() - 1) + 1e-9, stat


@functools.lru_cache(maxsize=None)
def ref_median(cs, j):
    """exact_median_theta on a tuple of constraints active at j; read
    only."""
    return exact_median_theta(list(cs), j)


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
    stand-in median table up to m, and nested np.where; the tie draws, one
    per cell with an active constraint, in row-major cell order."""
    keep_prob = keep_probability(epsilon)
    gen = as_generator(rng)
    n, m = instance.n, instance.m
    greedy = ref_fair_signs(gen, (trials, n)) > 0
    x = ref_fair_signs(gen, (trials, n))
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
    tie = ref_fair_signs(gen, (trials, n)) > 0
    active = count > 0
    tie[active] = gen.random(int(active.sum())) < gamma[active]
    z = np.where(sum_q > theta, 1, np.where(sum_q < theta, -1, np.where(tie, 1, -1)))
    y = np.where(gen.random((trials, n)) < keep_prob, 1, -1)
    return np.where(greedy, y * z, x).astype(np.int8)


def ref_dense_greedy_medians(instance, greedy, x):
    """alg1's median assembly over every cell of the (trials, n) block, one
    constraint at a time: dense sums of twice derivative_q, counts of the
    active parities of arity >= 2 and of the other active constraints, and
    at each cell with an active constraint ref_median on them (the set bits
    of a dense mask). Returns sum2, theta2, gamma and the two counts."""
    trials, n = greedy.shape
    cons = instance.constraints
    assert len(cons) < 63
    sum2, xors, others = (np.zeros((trials, n), dtype=np.int32) for _ in range(3))
    active = np.zeros((trials, n), dtype=np.int64)
    for i, c in enumerate(cons):
        scope = np.asarray(c.scope)
        rows = np.flatnonzero(greedy[:, scope].sum(axis=1) == 1)
        pos = np.argmax(greedy[rows][:, scope], axis=1)
        j, xs = scope[pos], x[rows][:, scope]
        if c.is_xor:
            # b times the product over the scope without j
            q2 = c.b * xs.prod(axis=1) * x[rows, j]
        else:
            idx = ((xs > 0) << np.arange(c.arity)).sum(axis=1)
            table = np.asarray(c.table)
            q2 = table[idx | (1 << pos)] - table[idx & ~(1 << pos)]
        sum2[rows, j] += q2
        (xors if c.is_xor and c.arity >= 2 else others)[rows, j] += 1
        active[rows, j] |= 1 << i
    theta2, gamma = np.zeros((trials, n), dtype=np.int32), np.full((trials, n), 0.5)
    held = active != 0
    keys = np.stack((active, np.broadcast_to(np.arange(n), (trials, n))), axis=-1)[held]
    distinct, which = np.unique(keys, axis=0, return_inverse=True)
    meds = np.array([ref_median(tuple(c for i, c in enumerate(cons) if mask >> i & 1), j)
                     for mask, j in distinct.tolist()]).reshape(-1, 2)[which.reshape(-1)]
    theta2[held], gamma[held] = 2 * meds[:, 0], meds[:, 1]
    return sum2, theta2, gamma, xors, others


def ref_dense_alg1_batch(instance, epsilon, rng, trials):
    """alg1_batch without its checks, on ref_dense_greedy_medians: a fair
    tie everywhere, redrawn against the dense gamma block where a term
    is."""
    keep_prob = keep_probability(epsilon)
    gen = as_generator(rng)
    n = instance.n
    greedy = ref_fair_signs(gen, (trials, n)) > 0
    x = ref_fair_signs(gen, (trials, n))
    sum2, theta2, gamma, xors, others = ref_dense_greedy_medians(instance, greedy, x)
    tie = ref_fair_signs(gen, (trials, n)) > 0
    held = (xors + others) > 0
    tie[held] = gen.random(int(held.sum())) < gamma[held]
    keep = gen.random((trials, n)) < keep_prob
    z = (sum2 > theta2) | ((sum2 == theta2) & tie)
    return np.where(greedy, np.where(z == keep, 1, -1), x).astype(np.int8)


def ref_sample_discrete_laplace(epsilon, rng, size):
    gen = as_generator(rng)
    q = np.exp(-epsilon)
    p_zero = (1.0 - q) / (1.0 + q)
    u = gen.random(size=size)
    magnitude = gen.geometric(1.0 - q, size=size)
    out = np.where(
        u < p_zero,
        0,
        np.where(u < p_zero + (1.0 - p_zero) / 2.0, magnitude, -magnitude),
    )
    return out.astype(np.int64)


def ref_noisy_above(values, threshold, param, rng, size):
    """value + Z > threshold for integer Laplace noise Z at param, one uniform
    per entry: Z >= m = floor(threshold - value) + 1 has probability
    q^m / (1 + q) for m >= 1 and 1 - q^(1 - m) / (1 + q) for m <= 0, with
    q = e^-param, and the uniform is compared with the smaller side."""
    q = math.exp(-param)
    u = as_generator(rng).random(size)
    values = np.broadcast_to(values, u.shape)
    out = np.empty(u.shape, dtype=bool)
    for i in np.ndindex(u.shape):
        m = math.floor(threshold - int(values[i])) + 1
        out[i] = u[i] < q ** m / (1 + q) if m >= 1 else u[i] >= q ** (1 - m) / (1 + q)
    return out


def ref_assignment_rows(rows, k):
    bits = np.asarray(rows)[..., None] >> np.arange(k)
    return np.where(bits & 1 == 1, 1, -1).astype(np.int8)


def ref_randomized_response(bits, epsilon, rng):
    keep_prob = keep_probability(epsilon)
    gen = as_generator(rng)
    arr = np.asarray(bits)
    if not set(np.unique(arr).tolist()) <= {-1, 1}:
        raise ValueError("input values must lie in [-1, 1]")
    keep = gen.random(size=arr.shape) < keep_prob
    return np.where(keep, arr, -arr)


def ref_dp_shearer_batch(graph, epsilon, rng, trials):
    gen = as_generator(rng)
    c1, c2, ell = ref_two_color_batch(graph, gen, trials)
    take_first = ~ref_noisy_above(ell - degrees(graph) // 2, 0, epsilon / 2.0, gen,
                                  (trials, graph.n))
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


def triangle_free(inst):
    """inst's constraints in order, without each one that would make the
    instance not triangle-free."""
    kept = ()
    for c in inst.constraints:
        if is_triangle_free(CspInstance(n=inst.n, constraints=kept + (c,), kind=inst.kind)):
            kept += (c,)
    return CspInstance(n=inst.n, constraints=kept, kind=inst.kind)


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


def unit_graph(seed, n=12, m=30):
    rng = np.random.default_rng(seed)
    edges = tuple(
        tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(m)
    )
    return cut_graph(n, edges)


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

        inst, g = mixed_instance(3), unit_graph(3)
        blocks = random_block(3, inst.n, 40), random_block(4, g.n, 40)
        whole = eval_value(inst, blocks[0]), eval_value(g, blocks[1])
        monkeypatch.setattr(csp_core, "VALUE_CHUNK_BITS", 5)
        assert np.array_equal(eval_value(inst, blocks[0]), whole[0])
        assert np.array_equal(eval_value(g, blocks[1]), whole[1])

    def test_empty_problems(self):
        inst = CspInstance(n=3, constraints=(), kind="kxor")
        g = cut_graph(3, ())
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


class TestValueEvaluators:
    """g_value and associated_advantage on eval_value, against their
    per-constraint loops: equal as floats, bit for bit."""

    @staticmethod
    def assignments(seed, n):
        return 2 * np.random.default_rng(seed).integers(0, 2, size=(20, n)) - 1

    def test_g_value_matches_parity_loop(self):
        for seed in range(40):
            for inst in (sign_instance(seed), gen_random_kxor(GenSpec(n=12, m=30, k=3, seed=seed))):
                for x in self.assignments(seed, inst.n):
                    assert g_value(inst, x) == ref_g_value(inst, x)

    def test_associated_advantage_matches_fraction_loop(self):
        for seed in range(40):
            for inst in (sign_instance(seed), mixed_instance(seed),
                         gen_random_kxor(GenSpec(n=12, m=30, k=3, seed=seed))):
                for x in self.assignments(seed, inst.n):
                    assert associated_advantage(inst, x) == ref_associated_advantage(inst, x)


class TestAlg1:
    """The alg1 kernel's rows against the exact law (exact_alg1_law) and
    against the per-trial reference ref_alg1; one kernel call per case."""

    TRIALS, REF_TRIALS = 20_000, 2_000

    def check(self, inst, eps, seed):
        rows = algo_csp.alg1_batch(inst, eps, RngStream(seed, 0).generator(), self.TRIALS)
        assert rows.shape == (self.TRIALS, inst.n) and rows.dtype == np.int8
        assert_law(rows, exact_alg1_law(inst, eps))
        ref = [ref_alg1(inst, eps, RngStream(seed, t).generator())
               for t in range(self.REF_TRIALS)]
        assert_same_law(rows, ref, inst.n)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_triangle_free_kxor(self, eps):
        path = CspInstance(n=6, constraints=tuple(
            Constraint(scope=(i, i + 1), b=(-1) ** i) for i in range(5)), kind="kxor")
        # mixed arity: (0,1,2) and (2,3,4) share 2, (2,3,4) and (4,5) share 4
        mixed = CspInstance(n=6, constraints=(
            Constraint(scope=(0, 1, 2), b=1), Constraint(scope=(2, 3, 4), b=-1),
            Constraint(scope=(4, 5), b=1)), kind="kxor")
        for seed, inst in enumerate((path, mixed)):
            self.check(inst, eps, seed)

    def test_truth_tables(self):
        rng = np.random.default_rng(0)
        # a disjoint pair, a path of OR tables and a parity: triangle-free,
        # some variables with two active constraints of different shapes
        inst = CspInstance(n=6, constraints=(
            Constraint(scope=(0, 1), table=random_table(rng, 2)),
            Constraint(scope=(3, 2), table=(0, 1, 1, 1)),
            Constraint(scope=(3, 4), table=(0, 1, 1, 1)),
            Constraint(scope=(4, 5), b=-1),
        ), kind="general")
        self.check(inst, 1.0, 1)

    @pytest.mark.parametrize("make", [sign_instance, mixed_instance])
    def test_random_triangle_free(self, make):
        # random scopes of arity 1-4, parities and (for mixed_instance)
        # random truth tables, several variables in two constraints
        for seed in range(2):
            self.check(triangle_free(make(seed, n=6, m=30)), 1.5, seed)

    def test_ties(self):
        self.check(tie_instance(), 1.0, 3)

    def test_empty_greedy_and_empty_instance(self):
        single = CspInstance(n=1, constraints=(Constraint(scope=(0,), b=1),), kind="kxor")
        empty = CspInstance(n=4, constraints=(), kind="kxor")
        nothing = CspInstance(n=0, constraints=(), kind="kxor")
        for seed, inst in enumerate((single, empty, nothing)):
            self.check(inst, 0.5, seed)


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
            assert np.array_equal(_kept_influence(inst, keep[None], x[None])[0],
                                  ref_kept_influence(inst, keep, x))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_outputs_match_loop(self, eps):
        # the kernel's rows (per-row scale, flip index and sign) against the
        # per-trial body, with scale and flip index drawn and then fixed
        for s, kwargs in enumerate(({}, {"scale": 2, "flip_index": 1})):
            inst = distinct_sign_instance(s, n=5, m=8)
            rows = algo_csp.alg3_batch(inst, eps, RngStream(s, 1).generator(), 20_000, **kwargs)
            ref = [ref_alg3(inst, eps, RngStream(s, t).generator(), **kwargs) for t in range(3_000)]
            assert_same_law(rows, ref, inst.n)


class TestTwoColor:
    @pytest.mark.parametrize("trials", [1, 7])
    def test_counts_match_add_at(self, trials):
        graphs = [unit_graph(s) for s in range(20)] + [cut_graph(5, ())]
        # a star of degree 600: its center counts about 300 same-color edges,
        # above the 255 of the narrowest type
        graphs.append(cut_graph(601, tuple((0, i) for i in range(1, 601))))
        for seed in SEEDS:
            g = graphs[seed % len(graphs)]
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = _two_color_batch(g, gen_new, trials)
            ref = ref_two_color_batch(g, gen_ref, trials)
            for a, b in zip(new, ref):
                assert same_result(a, b)
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    def test_counts_match_incidence_product(self):
        # the same-color indicator times the (m, n) edge-vertex incidence, on
        # graphs with parallel edges and isolated vertices; 63 and 64
        # parallel edges put twice the largest degree on either side of int8
        graphs = [
            cut_graph(6, ((0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (4, 5))),
            cut_graph(4, ((2, 3),)),
            cut_graph(3, ((0, 1),) * 63),
            cut_graph(3, ((0, 1),) * 64),
        ]
        assert [g._adjacency.dtype for g in graphs[2:]] == [np.int8, np.int16]
        for seed in range(50):
            for g in graphs:
                gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                c1, c2, ell = _two_color_batch(g, gen_new, 16)
                ref = ref_two_color_batch(g, gen_ref, 16)
                assert same_result(c1, ref[0]) and same_result(c2, ref[1])
                u, v = edge_columns(g)
                incidence = np.zeros((g.m, g.n), dtype=np.int64)
                incidence[np.arange(g.m), u] = incidence[np.arange(g.m), v] = 1
                assert same_result(ell, (c1[:, u] == c1[:, v]).astype(np.int64) @ incidence)
                assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    def test_offset_matches_subtraction_after(self):
        # the offset taken in the (n, trials) layout equals the subtraction
        # from the returned counts, on the same colourings; dp_shearer's
        # offset d // 2 and any offset in 0..d // 2
        graphs = [unit_graph(s, n=9, m=25) for s in range(10)]
        graphs += [cut_graph(3, ((0, 1),) * 64), cut_graph(4, ())]
        for seed in range(60):
            g = graphs[seed % len(graphs)]
            deg = degrees(g)
            rng = np.random.default_rng(1000 + seed)
            for offset in (deg // 2, rng.integers(0, deg // 2 + 1)):
                gen_a, gen_b = np.random.default_rng(seed), np.random.default_rng(seed)
                c1, c2, ell = _two_color_batch(g, gen_a, 2 + seed % 5, offset)
                ref = _two_color_batch(g, gen_b, 2 + seed % 5)
                assert same_result(c1, ref[0]) and same_result(c2, ref[1])
                assert same_result(ell, ref[2] - offset)
                assert gen_a.bit_generator.state == gen_b.bit_generator.state

    @pytest.mark.parametrize("eps", [1e-12, 0.5, 2.0, 800.0])
    def test_dp_shearer_batch(self, eps):
        graphs = [unit_graph(s, n=8, m=12) for s in range(10)]
        graphs += [cut_graph(2, ((0, 1),)), cut_graph(3, ())]
        for seed in SEEDS:
            g = graphs[seed % len(graphs)]
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_result(dp_shearer_batch(g, eps, gen_new, 9),
                               ref_dp_shearer_batch(g, eps, gen_ref, 9))
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state


class TestAlg1Batch:
    KXOR = [gen_random_kxor(GenSpec(n=30, m=12, k=k, seed=k, triangle_free=True))
            for k in (2, 3)]
    CYCLE = cut_graph(8, tuple((i, (i + 1) % 8) for i in range(8)))
    # the audit's neighbouring pair: one constraint, and none
    PAIR = [CspInstance(n=4, constraints=(Constraint(scope=(0, 1), b=1),), kind="kxor"),
            CspInstance(n=4, constraints=(), kind="kxor")]
    EMPTY = [CspInstance(n=0, constraints=(), kind="kxor")]

    def run_both(self, inst, eps, seed, trials=8):
        gen_new, gen_ref = RngStream(seed, 2).generator(), RngStream(seed, 2).generator()
        out = algo_csp.alg1_batch(inst, eps, gen_new, trials)
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

    def test_one_trial_and_zero_trials(self):
        for seed in range(20):
            for trials in (0, 1):
                self.run_both(self.KXOR[0], 1.0, seed, trials=trials)

    def test_audit_pair_at_audit_scale(self):
        for inst in self.PAIR:
            for seed in range(3):
                self.run_both(inst, 1.0, seed, trials=10_000)

    @staticmethod
    def mixed_triangle_free():
        """Parities and truth tables in one triangle-free instance, with a
        variable in several constraints."""
        for seed in range(100):
            inst = triangle_free(mixed_instance(seed, n=12, m=30))
            forms = {c.is_xor and c.arity >= 2 for c in inst.constraints}
            if forms == {True, False} and max(degrees(inst)) >= 2:
                return inst
        raise AssertionError("no mixed instance found")

    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_mixed_instance_matches_dense_assembly(self, eps):
        inst = self.mixed_triangle_free()
        trials = 10_000
        # the instance has empty cells, parity-only cells, mixed cells and
        # cells with no parity
        g = np.random.default_rng(0)
        greedy = g.random((trials, inst.n)) < 0.5
        x = (2 * g.integers(0, 2, size=(trials, inst.n)) - 1).astype(np.int8)
        _, _, _, xors, others = ref_dense_greedy_medians(inst, greedy, x)
        assert np.any((xors == 0) & (others == 0))
        assert np.any((xors > 0) & (others == 0))
        assert np.any((xors > 0) & (others > 0)) and np.any((xors == 0) & (others > 0))
        for seed in range(3):
            gen_new, gen_ref = RngStream(seed, 2).generator(), RngStream(seed, 2).generator()
            out = algo_csp.alg1_batch(inst, eps, gen_new, trials)
            assert same_result(out, ref_dense_alg1_batch(inst, eps, gen_ref, trials))
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state
        # the sign-form pair of the audit reads the same draws in both references
        for inst in self.PAIR:
            gen_a, gen_b = RngStream(3, 2).generator(), RngStream(3, 2).generator()
            assert same_result(ref_dense_alg1_batch(inst, eps, gen_a, 1_000),
                               ref_alg1_batch(inst, eps, gen_b, 1_000))

    def test_closed_form_median_table(self):
        # q parities of arity >= 2: the law (1, 0, 1), q times
        medians = [algo_csp._median2(((algo_csp._PARITY_LAW, q),) if q else ())
                   for q in range(61)]
        ref_thetas, ref_gammas = ref_xor_median_by_count(60)
        assert [theta2 / 2 for theta2, _ in medians] == ref_thetas.tolist()
        assert [gamma for _, gamma in medians] == ref_gammas.tolist()

    def test_table_only_up_to_largest_count(self, monkeypatch):
        # 120 disjoint parities: no variable has more than one constraint
        inst = CspInstance(n=240, constraints=tuple(
            Constraint(scope=(2 * i, 2 * i + 1), b=1) for i in range(120)), kind="kxor")
        sizes = []
        real = algo_csp._median2
        monkeypatch.setattr(algo_csp, "_median2",
                            lambda multiset: sizes.append([k for _, k in multiset]) or real(multiset))
        algo_csp.alg1_batch(inst, 1.0, np.random.default_rng(0), 50)
        assert sizes == [[1]]
        # on the cycle a variable lies in two constraints, so two is the
        # most; one call per distinct multiset
        algo_csp.alg1_batch(self.CYCLE, 1.0, np.random.default_rng(0), 1000)
        assert sizes == [[1], [1], [2]]


class TestGreedyMedians:
    """_greedy_medians against ref_dense_greedy_medians, whose medians are
    exact_median_theta's on each cell's active constraints: the same cells,
    sums, medians and tie biases, bit for bit and dtype for dtype."""

    @staticmethod
    def check(inst, greedy, x):
        cells, sum2, theta2, gamma = algo_csp._greedy_medians(inst, greedy, x)
        ref_sum2, ref_theta2, ref_gamma, xors, others = ref_dense_greedy_medians(inst, greedy, x)
        assert same_result(cells, np.flatnonzero(xors + others))
        assert same_result(sum2, ref_sum2.reshape(-1)[cells])
        assert same_result(theta2, ref_theta2.reshape(-1)[cells])
        assert same_result(gamma, ref_gamma.reshape(-1)[cells])
        return cells.size

    @staticmethod
    def instance(seed, n=12, m=20):
        """Truth tables and parities of arity 1-3, triangle-free."""
        rng = np.random.default_rng(seed)
        cons = []
        for _ in range(m):
            k = int(rng.integers(1, 4))
            scope = random_scope(rng, n, k)
            if rng.random() < 0.5:
                cons.append(Constraint(scope=scope, b=int(rng.choice([-1, 1]))))
            else:
                cons.append(Constraint(scope=scope, table=random_table(rng, k)))
        return triangle_free(CspInstance(n=n, constraints=tuple(cons)))

    @pytest.mark.parametrize("trials", [1, 7, 300])
    def test_random_mixed_instances(self, trials):
        forms = set()
        for seed in range(30):
            inst = self.instance(seed)
            forms |= {(c.is_xor, c.arity) for c in inst.constraints}
            rng = np.random.default_rng(seed)
            greedy = rng.random((trials, inst.n)) < 0.5
            self.check(inst, greedy, random_block(seed, inst.n, trials))
        assert forms == {(is_xor, k) for is_xor in (True, False) for k in (1, 2, 3)}

    def test_sign_instances(self):
        for inst in TestAlg1Batch.KXOR + [TestAlg1Batch.CYCLE] + TestAlg1Batch.PAIR:
            greedy = np.random.default_rng(1).random((300, inst.n)) < 0.5
            assert self.check(inst, greedy, random_block(1, inst.n, 300)) > 0 or inst.m == 0

    def test_empty_mask_and_empty_instance(self):
        inst = self.instance(0)
        greedy = np.zeros((7, inst.n), dtype=bool)
        assert self.check(inst, greedy, random_block(0, inst.n)) == 0
        for empty in TestAlg1Batch.EMPTY + [CspInstance(n=5, constraints=())]:
            greedy = np.ones((7, empty.n), dtype=bool)
            assert self.check(empty, greedy, random_block(0, empty.n)) == 0


class TestDiscreteLaplace:
    @pytest.mark.parametrize("eps", [1e-12, 1e-3, 0.5, 1.0, 3.0, 40.0])
    def test_matches_nested_where(self, eps):
        for seed in SEEDS:
            for size in ((), 5, (3, 4)):
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
    # the one input domain, +-1; a 0-d input gives a 0-d array
    INPUTS = {
        "pm1": [1, -1, np.array([1, -1, 1], dtype=np.int64),
                np.array([[-1, 1], [1, 1]], dtype=np.int8), np.array([1.0, -1.0])],
    }
    INVALID = [2, 0, np.array([1, 0]), np.array([-1, 1, 2]), np.array([0.5]),
               np.array([np.nan]), np.array([True, False])]

    @pytest.mark.parametrize("domain", sorted(INPUTS))
    @pytest.mark.parametrize("eps", [0.0, 1.0, 800.0])
    def test_matches_unique_check(self, domain, eps):
        for seed in SEEDS:
            for bit in self.INPUTS[domain]:
                gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert same_result(randomized_response(bit, eps, gen_new),
                                   ref_randomized_response(bit, eps, gen_ref))
                assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("domain", sorted(INPUTS))
    def test_same_rejections(self, domain):
        for bit in self.INVALID + self.INPUTS[domain]:
            outcomes = []
            for fn in (randomized_response, ref_randomized_response):
                try:
                    fn(bit, 1.0, np.random.default_rng(0))
                    outcomes.append(None)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        with pytest.raises(ValueError, match=r"input values must lie in \[-1, 1\]"):
            randomized_response(np.array([0, 1]), 1.0, np.random.default_rng(0))


def _without_wall_ms(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


class TestHarness:
    KXOR = gen_random_kxor(GenSpec(n=14, m=8, k=2, seed=3, triangle_free=True))
    K3 = CspInstance(n=9, constraints=tuple(
        Constraint(scope=(3 * i, 3 * i + 1, 3 * i + 2), b=(-1) ** i) for i in range(3)
    ) + (Constraint(scope=(0, 4, 8), b=1),), kind="kxor")
    CYCLE = cut_graph(10, tuple((i, (i + 1) % 10) for i in range(10)))
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
        # the kernel layout against per-trial references on RngStream(seed,
        # t): every column but the statistics is equal, and each mean is
        # within 4 combined standard errors
        problem, eps = self.CASES[algorithm]
        config = harness.ExperimentConfig(algorithm=algorithm, eps=eps, trials=1000, seed=11)
        new = harness.estimate_ratio(config, problem).rows
        monkeypatch.setattr(harness, "_run_one_eps", ref_run_one_eps)
        ref = harness.estimate_ratio(config, problem).rows
        stats = ("mean_val", "se", "ratio", "advantage", "wall_ms")
        for a, b in zip(new, ref, strict=True):
            assert a.__class__ is b.__class__
            for field in a.__dataclass_fields__:
                if field not in stats:
                    assert getattr(a, field) == getattr(b, field), field
            assert abs(a.mean_val - b.mean_val) <= 4 * math.hypot(a.se, b.se) + 1e-12
            assert a.advantage - b.advantage == pytest.approx(a.mean_val - b.mean_val)


class TestKernelLaws:
    """Every ALGORITHMS kernel on a tiny instance: its rows from one call
    against the per-trial reference's rows, and against the exact law where
    an oracle exists. Each case puts its stages to work: eps makes the
    degree splits' high sets vary from run to run."""

    PATH = CspInstance(n=4, constraints=(
        Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 2), b=-1),
        Constraint(scope=(2, 3), b=1)), kind="kxor")
    ODD = CspInstance(n=4, constraints=(
        Constraint(scope=(0, 1, 2), b=1), Constraint(scope=(1, 3), b=-1),
        Constraint(scope=(3,), b=-1)), kind="kxor")
    GRAPH = cut_graph(4, tuple(
        (u, v) for u, v in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))))
    CASES = {
        "alg1": (PATH, 1.0),
        # threshold 10000/15^4 = 0.2 against noise of scale 0.4
        "alg2": (PATH, 15.0),
        "alg3": (ODD, 2.0),
        # threshold 100/8^2 = 1.6 against noise of scale 9/8
        "alg_oddk": (ODD, 8.0),
        "shearer": (GRAPH, 1.0),
        "dp_shearer": (GRAPH, 1.0),
        # threshold 10000/eps^2 = 2: the degree-2 vertices are high half the time
        "alg5": (GRAPH, 100.0 / math.sqrt(2.0)),
        "alg6": (GRAPH, 0.1),
        "em_baseline": (CspInstance(n=4, constraints=(
            Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 2), b=-1)), kind="kxor"), 2.0),
        "random_baseline": (PATH, 1.0),
    }
    TRIALS, REF_TRIALS = 20_000, 3_000

    def test_every_algorithm_covered(self):
        assert set(self.CASES) == set(harness.ALGORITHMS)

    def kernel_rows(self, algorithm, seed=5):
        problem, eps = self.CASES[algorithm]
        kernel = harness.ALGORITHMS[algorithm]
        rows = kernel(problem, eps, 0.0, RngStream(seed, 0).generator(), self.TRIALS)
        assert rows.shape == (self.TRIALS, problem.n) and rows.dtype == np.int8
        return problem, eps, rows

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("algorithm", sorted(CASES))
    def test_matches_per_trial_reference(self, algorithm):
        problem, eps, rows = self.kernel_rows(algorithm)
        ref = ref_rows(algorithm, problem, eps, 0.0, 6, self.REF_TRIALS)
        assert_same_law(rows, ref, problem.n)

    def test_em_baseline_exact_law(self):
        # variables 0-2 follow the exponential mechanism, variable 3 is uniform
        problem, eps, rows = self.kernel_rows("em_baseline")
        em = exact_em_distribution(all_values(problem, [0, 1, 2]), eps, 1.0)
        assert_law(rows, np.concatenate((em, em)) / 2)

    def test_random_baseline_exact_law(self):
        _, _, rows = self.kernel_rows("random_baseline")
        assert_law(rows, np.full(16, 1 / 16))

    def test_alg1_exact_law(self):
        problem, eps, rows = self.kernel_rows("alg1")
        assert_law(rows, exact_alg1_law(problem, eps))

    @pytest.mark.parametrize("eps,threshold", [(3.0, 1.5), (6.0, 0.5)])
    def test_alg2_exact_law(self, eps, threshold):
        # the pipeline with a constant subroutine row, so the law is half a
        # point mass and half the degree split's: P[high set = H] from the
        # two-sided geometric tails of integer noise at eps/(3k), then the
        # exponential mechanism at eps/3 on H
        problem = self.ODD
        n, param, budget = problem.n, eps / 3.0 / problem.max_arity, eps / 3.0
        ones = np.ones(n, dtype=np.int8)

        def constant(inst, e, gen, trials):
            return np.broadcast_to(ones, (trials, n))

        rows = degree_split_batch(
            problem, eps, RngStream(9, 0).generator(), self.TRIALS, constant, threshold)
        # d + Z > T exactly when Z >= m = floor(T - d) + 1
        q, m = math.exp(-param), np.floor(threshold - degrees(problem)) + 1
        p_high = np.where(m >= 1, q ** m / (1 + q), 1 - q ** (1 - m) / (1 + q))
        law = np.zeros(1 << n)
        law[(1 << n) - 1] += 0.5
        for hmask in range(1 << n):
            high = [j for j in range(n) if (hmask >> j) & 1]
            p = np.prod([p_high[j] if (hmask >> j) & 1 else 1 - p_high[j] for j in range(n)])
            em = exact_em_distribution(all_values(problem, high), budget, 1.0) if high else [1.0]
            for r, q in enumerate(em):
                # row r sets high[t] = +1 for bit t; the others are uniform
                fixed = sum(1 << j for t, j in enumerate(high) if (r >> t) & 1)
                for rest in range(1 << n):
                    if rest & hmask == 0:
                        law[fixed | rest] += 0.5 * p * q / 2 ** (n - len(high))
        assert_law(rows, law)


class TestAlg6Subsampling:
    """alg6's matching stage against the old per-row body: the choice
    helper exactly, on the uniforms the kernel draws, and the kernel's
    output law against ref_dp_maxcut_general's."""

    CASES = [(0.1, 0.0), (0.05, 0.0), (0.1, 0.2)]
    TRIALS, REF_TRIALS = 20_000, 3_000

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("eps,alpha", CASES)
    def test_choice_helper_matches_scalar_loop(self, monkeypatch, eps, alpha):
        # about 7% of the vertices clear the threshold through noise alone;
        # the graph is dense enough that even the smallest rate keeps edges
        graph = unit_graph(3, n=14, m=300)
        u, v = edge_columns(graph)
        seen = {}
        real_high, real_choice = dp_mechanisms.noisy_high_mask, algo_maxcut._mutual_choice

        def high_spy(*args):
            seen["high"] = real_high(*args)
            return seen["high"]

        def choice_spy(n, u, v, kept, draws):
            seen["kept"], seen["draws"] = kept, draws
            seen["out"] = real_choice(n, u, v, kept, draws)
            return seen["out"]

        monkeypatch.setattr(dp_mechanisms, "noisy_high_mask", high_spy)
        monkeypatch.setattr(algo_maxcut, "_mutual_choice", choice_spy)
        trials = 2000
        dp_maxcut_general_batch(graph, eps, alpha, RngStream(7, 0).generator(), trials)
        high, kept, draws = seen["high"], seen["kept"], seen["draws"]
        low = ~(high[:, u] | high[:, v])
        assert high.any(axis=1).sum() >= 500
        # kept edges are low, and each low edge is kept at the rate
        assert not (kept & ~low).any()
        rate, cells = eps ** (1.0 + alpha) / 70.0, low.sum()
        assert abs(kept.sum() - rate * cells) < 4 * math.sqrt(rate * cells)
        chosen, rows, lower = seen["out"]
        assert len(rows) >= 100
        for r in range(trials):
            edges = [edge_list(graph)[i] for i in np.flatnonzero(kept[r])]
            ref_chosen, ref_pairs = ref_mutual_choice(graph.n, edges, draws[r])
            assert chosen[r].tolist() == ref_chosen
            assert [(x, ref_chosen[x]) for x in lower[rows == r].tolist()] == ref_pairs

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("eps,alpha", CASES)
    def test_outputs_match_scalar_loop(self, eps, alpha):
        # 300 edges on 5 vertices: high sets vary with the noise, and the
        # low edges keep an edge in about a quarter of the rows
        graph = unit_graph(4, n=5, m=300)
        rows = dp_maxcut_general_batch(graph, eps, alpha, RngStream(8, 0).generator(), self.TRIALS)
        ref = ref_rows("alg6", graph, eps, alpha, 9, self.REF_TRIALS)
        assert_same_law(rows, ref, graph.n)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_no_edges_and_one_edge(self):
        # no edges: every candidate scores 0, so the output is the uniform
        # s1 or s2 with probability 2/3 and the degree partition s3 (+1 on
        # the high vertices) with 1/3, each vertex high with probability
        # P[Z > 24/eps] = P[Z >= 241] = q^241 / (1 + q) for integer noise at
        # eps/12, q = e^(-eps/12)
        n = 4
        rows = dp_maxcut_general_batch(cut_graph(n, ()), 0.1, 0.0,
                                       RngStream(10, 0).generator(), self.TRIALS)
        q = math.exp(-0.1 / 6.0 / 2)
        p = q ** (math.floor(24.0 / 0.1) + 1) / (1 + q)
        pattern = np.array([p ** bin(c).count("1") * (1 - p) ** (n - bin(c).count("1"))
                            for c in range(1 << n)])
        assert_law(rows, 2 / 3 / (1 << n) + pattern / 3)
        # one edge, whose endpoints noise sometimes lifts into the high set
        graph = cut_graph(2, ((0, 1),))
        rows = dp_maxcut_general_batch(graph, 0.1, 0.0, RngStream(11, 0).generator(), self.TRIALS)
        assert_same_law(rows, ref_rows("alg6", graph, 0.1, 0.0, 12, self.REF_TRIALS), 2)


class TestDegreeSplit:
    """The degree-split pipeline (with the alg1 and alg3 kernels as
    subroutines), alg5 and em_baseline on the shared degree-split helpers
    against copies of their own hand-written splits."""

    @pytest.mark.parametrize("eps,threshold", [(1.0, 2.0), (4.0, 2.0), (2.0, -1e9)])
    def test_alg2_alg1_subroutine(self, eps, threshold):
        high_seeds = 0
        for seed in SEEDS:
            # a small threshold puts noise-dependent high sets on most seeds
            make = lambda: gen_random_kxor(  # noqa: E731
                GenSpec(n=14, m=6, k=2 + seed % 2, seed=seed, triangle_free=True))
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = degree_split_batch(make(), eps, gen_new, 1, alg1_batch, threshold)[0]
            ref, high = ref_alg2(make(), eps, gen_ref, single_run(alg1_batch), threshold)
            assert same_result(new, ref)
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state
            high_seeds += high > 0
        assert high_seeds >= 100

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_alg2_alg3_subroutine(self, eps):
        for seed in SEEDS:
            make = lambda: distinct_sign_instance(seed)  # noqa: E731
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = degree_split_batch(make(), eps, gen_new, 1, alg3_batch, 3.0)[0]
            ref, _ = ref_alg2(make(), eps, gen_ref, single_run(alg3_batch), 3.0)
            assert same_result(new, ref)
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("eps", [60.0, 200.0])
    def test_alg5(self, eps):
        # threshold 10000/eps^2 is 2.8 or 0.25 against degrees near 5
        for seed in SEEDS:
            make = lambda: unit_graph(seed, n=12, m=30)  # noqa: E731
            gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            new = dp_maxcut_unbounded_batch(make(), eps, gen_new, 1)[0]
            ref = ref_dp_maxcut_unbounded(make(), eps, gen_ref)
            assert same_result(new, ref)
            assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_em_baseline(self, eps):
        cases = [
            lambda seed: gen_random_kxor(GenSpec(n=12, m=5, k=2, seed=seed, triangle_free=True)),
            lambda seed: unit_graph(seed, n=12, m=10),
            lambda seed: CspInstance(n=5, constraints=(Constraint(scope=(1, 3), b=-1),), kind="kxor"),
            lambda seed: CspInstance(n=4, constraints=(), kind="kxor"),
            lambda seed: cut_graph(3, ()),
        ]
        for seed in SEEDS:
            for make in cases:
                gen_new, gen_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                new = harness._em_baseline_batch(make(seed), eps, 0.0, gen_new, 1)[0]
                ref = ref_run_em_baseline(make(seed), eps, 0.0, gen_ref)
                assert same_result(new, ref)
                assert gen_new.bit_generator.state == gen_ref.bit_generator.state
