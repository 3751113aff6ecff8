"""End-to-end acceptance gate.

Each test checks one release criterion at a pinned tolerance and prints a
single PASS/FAIL line; run with -s to see the summary.
"""

import math

import numpy as np

from privcsp.algo_csp import alg1_batch, boost_scale, private_boost
from privcsp.algo_maxcut import (
    GENERAL_BUDGET_FRACTIONS,
    MATCHING_EM_BUDGET,
    MATCHING_EM_SENSITIVITY,
    _mutual_choice,
    dp_shearer_batch,
    matched_edge_cut_probability,
)
from privcsp.constants import AT_THRESHOLD_LOWER_C
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    constraint_groups,
    lambda_j,
)
from privcsp.dp_mechanisms import (
    UNBOUNDED_BUDGET_FRACTIONS,
    RngStream,
    budget_ledger,
    em_over_assignments_batch,
    randomized_response,
    sample_discrete_laplace,
)
from privcsp.generators import (
    GenSpec,
    gen_hard_family,
    gen_random_kxor,
    gen_triangle_free_graph,
)
from privcsp.harness import AUDIT_MECHANISMS, ExperimentConfig, audit, sweep
from privcsp.oracles import (
    adversarial_single_constraint,
    at_threshold_prob,
    brute_force_opt,
    exact_em_distribution,
    threshold_pmf,
    verify_packing_separation,
)


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def edge_columns(g):
    """A graph's u and v edge columns: the rows of its 2XOR group's scopes."""
    return constraint_groups(g)[0].scopes.T


def gen(seed, stream=0):
    return RngStream(seed, stream).generator()


def report(name: str, ok: bool) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_mechanism_exactness():
    ok = True
    # randomized response keep frequency at three budgets
    for i, eps in enumerate((0.1, 1.0, 3.0)):
        target = math.exp(eps) / (1 + math.exp(eps))
        out = randomized_response(np.ones(400_000, dtype=np.int64), eps, gen(100 + i))
        p = float(np.mean(out == 1))
        sigma = math.sqrt(target * (1 - target) / out.size)
        ok &= abs(p - target) < 3.5 * sigma
    # integer Laplace point masses on -3..3 at one million samples
    eps = 0.8
    x = sample_discrete_laplace(eps, gen(110), size=1_000_000)
    scale = (math.exp(eps) - 1) / (math.exp(eps) + 1)
    for v in range(-3, 4):
        target = scale * math.exp(-eps * abs(v))
        p = float(np.mean(x == v))
        sigma = math.sqrt(target * (1 - target) / x.size)
        ok &= abs(p - target) < 3.8 * sigma
    # exponential mechanism over assignments versus the exact law
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
    rng = gen(111)
    trials = 100_000
    counts = np.zeros(8)
    for _ in range(trials):
        out = em_over_assignments_batch(inst, [0, 1, 2], 2.0, 1.0, rng, 1)[0]
        counts[sum(1 << t for t, v in enumerate(out) if v == 1)] += 1
    tv = 0.5 * float(np.abs(counts / trials - probs).sum())
    ok &= tv <= 0.01
    report("criterion 1: mechanism output laws match closed forms", ok)


def test_criterion_02_em_utility_bound():
    rng = gen(200)
    ok = True
    for _ in range(100):
        size = int(rng.integers(2, 257))
        scores = rng.normal(size=size) * float(rng.uniform(0.5, 25))
        eps = float(rng.uniform(0.1, 5.0))
        delta = float(rng.uniform(0.5, 3.0))
        probs = exact_em_distribution(scores, eps, delta)
        expected = float(probs @ scores)
        bound = float(scores.max()) - (2 * delta / eps) * (math.log(size) + 1)
        ok &= expected >= bound - 1e-9
    report("criterion 2: exponential mechanism utility bound", ok)


def test_criterion_03_threshold_mass_lower_bound():
    ok = True
    for eps in (0.1, 0.5, 1.0):
        for d in range(1, 51):
            bound = AT_THRESHOLD_LOWER_C / math.sqrt(d + 1.0 / eps ** 2)
            ok &= at_threshold_prob(d, eps) >= bound
    # the at-threshold atom is the modal one
    for d in (1, 5, 20, 50):
        support, probs = threshold_pmf(d, 0.5)
        target = math.ceil((d - 1) / 2)
        at = probs[np.searchsorted(support, target)]
        ok &= bool(at >= probs.max() * (1 - 1e-12))
    report("criterion 3: noisy-threshold crossing mass lower bound", ok)


def test_criterion_04_alg1_uniform_marginals_and_advantage():
    n = 20
    cons = tuple(Constraint(scope=(i, (i + 1) % n), b=1) for i in range(n))
    inst = CspInstance(n=n, constraints=cons, kind="kxor")
    trials = 100_000
    rows = alg1_batch(inst, 1.0, gen(400), trials)
    sigma = 1.0 / math.sqrt(trials)
    ok = bool(np.all(np.abs(rows.mean(axis=0)) < 3.5 * sigma))
    adv = np.zeros(trials)
    for c in inst.constraints:
        adv += 0.5 * c.b * rows[:, list(c.scope)].prod(axis=1)
    adv /= inst.m
    se = float(adv.std() / math.sqrt(trials))
    ok &= adv.mean() > 3 * se
    report(
        "criterion 4: greedy rounding keeps uniform marginals with positive advantage",
        ok,
    )


def test_criterion_05_dp_shearer_per_edge_and_trend():
    ok = True
    trials = 100_000
    sigma = 0.5 / math.sqrt(trials)
    for seed, graph in (
        (500, gen_triangle_free_graph("even_cycle", 50)),
        (501, gen_triangle_free_graph("complete_bipartite", 5, 5)),
    ):
        u, v = edge_columns(graph)
        for eps in (0.5, 1.0):
            rows = dp_shearer_batch(graph, eps, gen(seed + int(10 * eps)), trials)
            freqs = (rows[:, u] != rows[:, v]).mean(axis=0)
            ok &= bool(np.all(freqs > 0.5 + 3 * sigma))
    config = ExperimentConfig(
        algorithm="dp_shearer", eps=(0.25, 0.5, 1.0), trials=4_000, seed=502
    )
    rep = sweep(config, gen_triangle_free_graph("even_cycle", 30))
    ok &= rep.spearman_advantage_eps is not None and rep.spearman_advantage_eps > 0
    report("criterion 5: private two-coloring beats 1/2 per edge, monotone in eps", ok)


def test_criterion_06_privacy_audits():
    ok = True
    lines = []
    for mech, trials in (
        ("randomized_response", 1_000_000),
        ("dp_shearer", 1_000_000),
        ("alg1", 1_000_000),
        ("em", 1_000_000),
    ):
        rep, mech_ok = audit(mech, 1.0, trials, seed=600)
        lines.append(f"{mech}: eps_hat={rep.epsilon_hat:.3f} ci_lo={rep.ci_lower:.3f}")
        ok &= mech_ok
    print("\n[acceptance] audit detail: " + "; ".join(lines))
    assert set(AUDIT_MECHANISMS) >= {"randomized_response", "dp_shearer", "alg1", "em"}
    report("criterion 6: empirical epsilon within budget for all audited mechanisms", ok)


def test_criterion_07_single_constraint_hardness_bound():
    eps = 0.5
    trials = 200_000
    bound_slack = 3 * math.sqrt(0.25 / trials)

    def em_mech(inst, g, t):
        from privcsp.dp_mechanisms import em_over_assignments_batch

        return em_over_assignments_batch(inst, list(range(inst.n)), eps, 1.0, g, t)

    candidates = [Constraint(scope=(0, 1), b=1), Constraint(scope=(0, 1), b=-1)]
    rep_em = adversarial_single_constraint(em_mech, 3, candidates, eps, trials, gen(700))
    ok = rep_em.satisfaction_prob <= rep_em.bound + bound_slack

    def cut_mech(inst, g, t):
        graph = cut_graph(inst.n, (c.scope for c in inst.constraints))
        return dp_shearer_batch(graph, eps, g, t)

    cut_candidates = [Constraint(scope=(0, 1), b=-1)]
    rep_cut = adversarial_single_constraint(
        cut_mech, 3, cut_candidates, eps, trials, gen(701)
    )
    ok &= rep_cut.satisfaction_prob <= rep_cut.bound + bound_slack
    expected_bound = 1 - math.exp(-eps) * 0.5
    ok &= abs(rep_em.bound - expected_bound) < 1e-12
    report("criterion 7: adversarial single-constraint satisfaction stays bounded", ok)


def test_criterion_08_hard_family_separation_and_opt():
    ok = True
    for n in (8, 16):
        family, complete = gen_hard_family(n, 0.5, 3, seed=800 + n)
        ok &= complete
        sep_ok, counterexample = verify_packing_separation(family)
        ok &= sep_ok and counterexample is None
        for i in range(len(family.supports)):
            # the optimum cuts all (n/2)^2 unit edges, whose weighted value is
            # the paper's n * degree / 2
            count = brute_force_opt(family.graph(i))[0]
            ok &= count == (n // 2) ** 2
            ok &= math.isclose(family.weight * count, n * family.degree / 2, rel_tol=1e-12)
    report("criterion 8: hard family separates and has the exact optimum", ok)


def test_criterion_09_matching_mechanism_and_budget_ledgers():
    w = math.exp(MATCHING_EM_BUDGET / (2 * MATCHING_EM_SENSITIVITY))
    ok = abs(matched_edge_cut_probability() - w / (1 + w)) < 1e-12
    ok &= sum(UNBOUNDED_BUDGET_FRACTIONS) == 1
    ok &= sum(GENERAL_BUDGET_FRACTIONS) == 1
    for name in ("alg5", "alg6"):
        stages = budget_ledger(name, 0.1)
        ok &= abs(sum(b for _, b in stages) - 0.1) < 1e-15
    # one block of 10 000 rows, each a random subgraph of K6,6 (every
    # random bipartite graph on up to 6 + 6 vertices is one)
    rng = gen(900)
    n, trials = 12, 10_000
    u, v = np.repeat(np.arange(6), 6), 6 + np.tile(np.arange(6), 6)
    kept = rng.random((trials, u.size)) < rng.random((trials, 1))
    chosen, rows, lower = _mutual_choice(n, u, v, kept, rng.random((trials, n)))
    upper = chosen[rows, lower]
    ends = np.concatenate((rows * n + lower, rows * n + upper))
    ok &= rows.size > trials and np.unique(ends).size == ends.size
    # each matched pair is an edge its row keeps
    ok &= bool(kept[rows, 6 * lower + upper - 6].all())
    report("criterion 9: matching mechanism constants, ledgers, and validity", ok)


def test_criterion_10_private_boost_marginals_and_sensitivity():
    ok = True
    trials = 100_000
    for i, scale in enumerate((0.5, 2.0)):
        for j, lam in enumerate((-1.0, -0.5, 0.0, 0.5, 1.0)):
            target = (1 + math.tanh(scale * lam)) / 2
            out = private_boost(np.full(trials, lam), scale, gen(1000 + 10 * i + j))
            p = float(np.mean(out == 1))
            sigma = math.sqrt(max(target * (1 - target), 1e-12) / trials)
            ok &= abs(p - target) < 3.8 * sigma
    # swapping one constraint at fixed m moves the normalized influence
    # by at most 2/sqrt(m)
    rng = gen(1010)
    for _ in range(300):
        n, m, k = 12, 9, 3
        inst = gen_random_kxor(GenSpec(n=n, m=m, k=k, seed=int(rng.integers(1 << 30))))
        cons = list(inst.constraints)
        idx = int(rng.integers(m))
        replacement = Constraint(
            scope=tuple(sorted(rng.choice(n, size=k, replace=False).tolist())),
            b=int(2 * rng.integers(0, 2) - 1),
        )
        swapped = CspInstance(
            n=n,
            constraints=tuple(cons[:idx] + [replacement] + cons[idx + 1:]),
            kind="kxor",
        )
        y = 2 * rng.integers(0, 2, size=n) - 1
        j = int(rng.integers(n))
        a = lambda_j(inst, j, {j}, y)
        b = lambda_j(swapped, j, {j}, y)
        ok &= abs(a - b) <= 2.0 / math.sqrt(m) + 1e-12
    ok &= abs(boost_scale(1.0, 9) - 1.5) < 1e-15
    report("criterion 10: boost marginals follow tanh with bounded sensitivity", ok)
