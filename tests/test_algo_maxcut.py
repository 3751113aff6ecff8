import math

import numpy as np
import pytest

from privcsp import algo_maxcut
from privcsp.algo_maxcut import (
    GENERAL_BUDGET_FRACTIONS,
    MATCHING_EM_BUDGET,
    MATCHING_EM_SENSITIVITY,
    _mutual_choice,
    dp_maxcut_general_batch,
    dp_maxcut_unbounded_batch,
    dp_shearer_batch,
    matched_edge_cut_probability,
    shearer_batch,
)
from privcsp.csp_core import WeightedGraph, eval_value
from privcsp.dp_mechanisms import (
    UNBOUNDED_BUDGET_FRACTIONS,
    RngStream,
    budget_ledger,
    sample_discrete_laplace,
)
from privcsp.generators import gen_triangle_free_graph


def gen(seed=0):
    return RngStream(seed, 0).generator()


def cycle(n):
    return WeightedGraph(n=n, edges=tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def k33():
    return WeightedGraph(
        n=6, edges=tuple((i, 3 + j, 1.0) for i in range(3) for j in range(3))
    )


def mutual_choice(graph, kept, draws):
    """_mutual_choice on a graph's edges: the picks, and each row's matched
    edges as sorted (lower, upper) tuples."""
    u, v, _ = graph.edge_arrays()
    chosen, rows, lower = _mutual_choice(graph.n, u, v, kept, draws)
    edges = [[] for _ in range(draws.shape[0])]
    for r, x in zip(rows.tolist(), lower.tolist()):
        edges[r].append((x, int(chosen[r, x])))
    return chosen, edges


def all_kept(graph, trials, seed):
    """Every edge kept in each of `trials` rows, with fresh choice uniforms."""
    return np.ones((trials, graph.m), dtype=bool), gen(seed).random((trials, graph.n))


def edge_cut_freqs(graph, rows):
    u, v, _ = graph.edge_arrays()
    return (rows[:, u] != rows[:, v]).mean(axis=0)


class TestCutAndLedger:
    def test_cut_validation(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(ValueError):
            eval_value(g, [1, 0])
        assert eval_value(g, np.array([1, -1])) == 1.0

    def test_matching_is_vertex_disjoint(self):
        # 2000 rows, each a random subgraph of a multigraph on 8 vertices
        rng = gen(21)
        n, m, trials = 8, 40, 2000
        u = rng.integers(0, n, size=m)
        v = (u + rng.integers(1, n, size=m)) % n
        kept = rng.random((trials, m)) < rng.random((trials, 1))
        chosen, rows, lower = _mutual_choice(n, u, v, kept, rng.random((trials, n)))
        ends = np.concatenate((rows * n + lower, rows * n + chosen[rows, lower]))
        assert rows.size > trials and np.unique(ends).size == ends.size

    def test_budget_fractions_exact(self):
        assert sum(UNBOUNDED_BUDGET_FRACTIONS) == 1
        assert sum(GENERAL_BUDGET_FRACTIONS) == 1

    def test_ledger_sums_to_epsilon(self):
        for name, eps in (("alg5", 0.7), ("alg6", 0.09)):
            stages = budget_ledger(name, eps)
            assert sum(b for _, b in stages) == pytest.approx(eps, rel=1e-12)
        with pytest.raises(ValueError):
            budget_ledger("shearer", 1.0)

    def test_matched_edge_probability_closed_form(self):
        w = math.exp(MATCHING_EM_BUDGET / (2 * MATCHING_EM_SENSITIVITY))
        assert matched_edge_cut_probability() == pytest.approx(
            w / (1 + w), abs=1e-12
        )


class TestShearerBaseline:
    def test_rejects_weighted(self):
        g = WeightedGraph(n=2, edges=((0, 1, 2.0),))
        with pytest.raises(ValueError):
            shearer_batch(g, gen(), 1)

    def test_isolated_vertex_uniform(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0),))
        rows = shearer_batch(g, gen(1), 100_000)
        assert abs(rows[:, 2].mean()) < 0.015

    def test_single_edge_exact(self):
        # exhaustive over both colorings: distinct first colors force the
        # first coloring (cut), equal first colors force the second
        # (cut with probability 1/2), so Pr[cut] = 3/4 exactly
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        rows = shearer_batch(g, gen(2), 200_000)
        p = float(edge_cut_freqs(g, rows)[0])
        sigma = math.sqrt(0.75 * 0.25 / rows.shape[0])
        assert abs(p - 0.75) < 3.5 * sigma

    def test_per_edge_bound(self):
        for graph in (cycle(6), k33()):
            deg = graph.degree_counts()
            rows = shearer_batch(graph, gen(3), 100_000)
            freqs = edge_cut_freqs(graph, rows)
            sigma = 0.5 / math.sqrt(rows.shape[0])
            for (u, v, _), p in zip(graph.edges, freqs):
                bound = (
                    0.5
                    + 1.0 / (8.0 * math.sqrt(2.0 * deg[u]))
                    + 1.0 / (8.0 * math.sqrt(2.0 * deg[v]))
                )
                assert p > bound - 3.5 * sigma

    def test_single_run_shape(self):
        out = shearer_batch(cycle(4), gen(4), 1)[0]
        assert out.shape == (4,) and set(np.unique(out)) <= {-1, 1}


class TestDpShearer:
    def test_positive_eps_required(self):
        with pytest.raises(ValueError):
            dp_shearer_batch(cycle(4), 0.0, gen(), 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # a one-edge graph at eps=inf used to return an assignment
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(ValueError, match="finite"):
            dp_shearer_batch(g, eps, gen(), 1)
        with pytest.raises(ValueError, match="finite"):
            dp_shearer_batch(g, eps, gen(), 3)

    def test_rejects_weighted(self):
        g = WeightedGraph(n=2, edges=((0, 1, 0.5),))
        with pytest.raises(ValueError):
            dp_shearer_batch(g, 1.0, gen(), 1)

    def test_single_edge_exact(self):
        # closed form from the noisy comparison: with
        # a = Pr[zeta <= 0] = (1 + p0) / 2 and p0 the integer Laplace
        # mass at zero for eps/2, Pr[cut] = 1/4 + a/2
        eps = 1.0
        p0 = (math.exp(eps / 2) - 1) / (math.exp(eps / 2) + 1)
        a = (1 + p0) / 2
        target = 0.25 + a / 2
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        rows = dp_shearer_batch(g, eps, gen(5), 200_000)
        p = float(edge_cut_freqs(g, rows)[0])
        sigma = math.sqrt(target * (1 - target) / rows.shape[0])
        assert abs(p - target) < 3.5 * sigma

    def test_advantage_on_cycles(self):
        for eps in (0.5, 1.0):
            graph = cycle(20)
            rows = dp_shearer_batch(graph, eps, gen(6), 50_000)
            freqs = edge_cut_freqs(graph, rows)
            sigma = 0.5 / math.sqrt(rows.shape[0])
            assert np.all(freqs > 0.5 + 3 * sigma)

    def test_large_eps_matches_baseline_on_odd_degrees(self):
        # on odd-degree graphs zero noise reproduces the baseline rule
        # exactly (no ties exist), so the cut-size laws must agree
        graph = k33()
        trials = 100_000
        base = shearer_batch(graph, gen(7), trials)
        noisy = dp_shearer_batch(graph, 50.0, gen(8), trials)
        u, v, _ = graph.edge_arrays()
        base_sizes = (base[:, u] != base[:, v]).sum(axis=1)
        noisy_sizes = (noisy[:, u] != noisy[:, v]).sum(axis=1)
        hist_a = np.bincount(base_sizes, minlength=10) / trials
        hist_b = np.bincount(noisy_sizes, minlength=10) / trials
        assert 0.5 * np.abs(hist_a - hist_b).sum() <= 0.02

    @pytest.mark.parametrize("eps", [0.5, 2.0])
    def test_take_first_law_at_fixed_colourings(self, monkeypatch, eps):
        # one colouring c1 and c2 = -c1 in every row, so a vertex shows c1
        # exactly when it takes the first colour; its frequency against the
        # sample_discrete_laplace formulation ell - d // 2 + zeta <= 0, zeta
        # at eps/2, at 4 sigma; vertex 6 is isolated
        graph = WeightedGraph(n=7, edges=tuple((a, b, 1.0) for a, b in (
            (0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 5), (1, 2), (3, 5))))
        c1 = np.array([1, 1, -1, -1, 1, 1, -1], dtype=np.int8)
        u, v, _ = graph.edge_arrays()
        same = c1[u] == c1[v]
        ell = np.bincount(u, same, graph.n) + np.bincount(v, same, graph.n)
        trials = 400_000

        def fixed(graph, gen, t, offset=0):
            block = np.broadcast_to(c1, (t, graph.n))
            counts = (ell - offset).astype(np.int64)
            return block.copy(), -block, np.broadcast_to(counts, (t, graph.n)).copy()

        monkeypatch.setattr(algo_maxcut, "_two_color_batch", fixed)
        take_first = (dp_shearer_batch(graph, eps, gen(12), trials) == c1).mean(axis=0)
        zeta = sample_discrete_laplace(eps / 2.0, gen(13), size=(trials, graph.n))
        ref = (ell - graph.degree_counts() // 2 + zeta <= 0).mean(axis=0)
        pooled = (take_first + ref) / 2
        assert np.all(np.abs(take_first - ref) <= 4 * np.sqrt(pooled * (1 - pooled) * 2 / trials))

    def test_determinism(self):
        a = dp_shearer_batch(cycle(6), 1.0, gen(9), 1)[0]
        b = dp_shearer_batch(cycle(6), 1.0, gen(9), 1)[0]
        assert np.array_equal(a, b)


class TestDpMaxcutUnbounded:
    def test_high_part_empty_at_moderate_eps(self):
        # threshold 10000/eps^2 dwarfs any small graph degree
        graph = cycle(12)
        x = dp_maxcut_unbounded_batch(graph, 1.0, gen(10), 1)[0]
        assert x.shape == (12,)

    def test_positive_advantage(self):
        graph = cycle(16)
        vals = np.array(
            [
                eval_value(graph, dp_maxcut_unbounded_batch(graph, 1.0, g, 1)[0])
                for g in (RngStream(11, t).generator() for t in range(20_000))
            ]
        )
        se = vals.std() / math.sqrt(vals.size)
        # fair coin between uniform (m/2) and dp_shearer (> m/2)
        assert vals.mean() > graph.m / 2 + 3 * se

    def test_positive_eps_required(self):
        with pytest.raises(ValueError):
            dp_maxcut_unbounded_batch(cycle(4), 0.0, gen(), 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            dp_maxcut_unbounded_batch(cycle(4), eps, gen(), 1)

    def test_eps_whose_threshold_underflows_rejected(self):
        # the threshold 10000/eps^2 used to divide by zero at eps^2 = 0.0
        with pytest.raises(ValueError, match=r"eps\^2 underflows to 0 at epsilon = 1e-200"):
            dp_maxcut_unbounded_batch(cycle(4), 1e-200, gen(), 1)


class TestMutualChoiceMatching:
    def test_single_edge_forced(self):
        g = WeightedGraph(n=2, edges=((0, 1, 1.0),))
        chosen, edges = mutual_choice(g, *all_kept(g, 5, 12))
        assert edges == [[(0, 1)]] * 5 and np.array_equal(chosen, [[1, 0]] * 5)

    def test_path_halves(self):
        g = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
        trials = 50_000
        _, edges = mutual_choice(g, *all_kept(g, trials, 13))
        assert all(len(row) == 1 for row in edges)
        p = sum(row == [(0, 1)] for row in edges) / trials
        assert abs(p - 0.5) < 3.5 * math.sqrt(0.25 / trials)

    def test_matching_property_random_graphs(self):
        rng = gen(14)
        for _ in range(200):
            n = int(rng.integers(4, 15))
            g = gen_triangle_free_graph(
                "random_bipartite", n // 2, n - n // 2,
                int(rng.integers(1, (n // 2) * (n - n // 2) + 1)),
                seed=int(rng.integers(1 << 30)),
            )
            kept = rng.random((5, g.m)) < 0.5
            _, edges = mutual_choice(g, kept, rng.random((5, g.n)))
            for r, row in enumerate(edges):
                kept_set = {tuple(sorted(g.edges[i][:2])) for i in np.flatnonzero(kept[r])}
                assert set(row) <= kept_set

    @staticmethod
    def loop_reference(graph, draws):
        """The adjacency-list walk the column kernel replaced, on one row of
        choice uniforms."""
        adj = [[] for _ in range(graph.n)]
        for u, v, _ in graph.edges:
            adj[u].append(v)
            adj[v].append(u)
        choices = [int(sorted(a)[int(draws[v] * len(a))]) if a else -1 for v, a in enumerate(adj)]
        edges = [(u, choices[u]) for u in range(graph.n)
                 if choices[u] > u and choices[choices[u]] == u]
        return choices, edges

    def test_matches_adjacency_walk(self):
        # multigraphs with isolated vertices, repeated edges and both
        # orientations, all edges kept in every row, exactly on the same uniforms
        rng = gen(16)
        graphs = [WeightedGraph(n=0, edges=()), WeightedGraph(n=5, edges=()), cycle(6), k33()]
        for _ in range(300):
            n, m = int(rng.integers(2, 12)), int(rng.integers(0, 20))
            u = rng.integers(0, n, size=m)
            graphs.append(WeightedGraph.from_arrays(n, u, (u + rng.integers(1, n, size=m)) % n,
                                                    np.ones(m)))
        for i, g in enumerate(graphs):
            kept, draws = all_kept(g, 3, i)
            chosen, edges = mutual_choice(g, kept, draws)
            assert chosen.dtype == np.int64
            for r in range(3):
                choices, ref_edges = self.loop_reference(g, draws[r])
                assert chosen[r].tolist() == choices and edges[r] == ref_edges

    def test_neighboring_graph_coupling(self):
        # same uniforms, one extra edge: only the endpoints' choices can
        # change, so the matchings differ in at most 4 edges, all touching it
        rng = gen(15)
        trials = 300
        g = gen_triangle_free_graph("random_bipartite", 6, 6, 12, seed=int(rng.integers(1 << 30)))
        present = {tuple(sorted((u, v))) for u, v, _ in g.edges}
        candidates = [(u, 6 + v) for u in range(6) for v in range(6) if (u, 6 + v) not in present]
        extra = candidates[int(rng.integers(len(candidates)))]
        g2 = WeightedGraph(n=12, edges=g.edges + ((extra[0], extra[1], 1.0),))
        kept, draws = all_kept(g2, trials, int(rng.integers(1 << 30)))
        _, m1 = mutual_choice(g, kept[:, :-1], draws)
        _, m2 = mutual_choice(g2, kept, draws)
        assert m1 != m2
        for a, b in zip(m1, m2):
            diff = set(a) ^ set(b)
            assert len(diff) <= 4
            for u, v in diff:
                assert {u, v} & set(extra)


class TestMatchingEmCut:
    """The factorized exponential mechanism of alg6's matching stage, read
    from one kernel block: the final selection is pinned to the matching
    candidate, and every row gets the same matching."""

    @staticmethod
    def matching_rows(monkeypatch, graph, matching, trials, seed):
        def fixed(n, u, v, kept, draws):
            chosen = np.full(draws.shape, -1, dtype=np.int64)
            for a, b in matching:
                chosen[:, a], chosen[:, b] = b, a
            rows = np.repeat(np.arange(trials), len(matching))
            lower = np.tile([min(e) for e in matching], trials).astype(np.intp)
            return chosen, rows, lower

        monkeypatch.setattr(algo_maxcut, "_mutual_choice", fixed)
        monkeypatch.setattr(algo_maxcut, "exponential_mechanism",
                            lambda scores, *args: np.ones(scores.shape[0], dtype=np.int64))
        return dp_maxcut_general_batch(graph, 0.1, 2.0, gen(seed), trials)

    def test_matched_edges_cut_at_target(self, monkeypatch):
        matching = ((0, 1), (2, 3))
        target = matched_edge_cut_probability()
        trials = 100_000
        rows = self.matching_rows(monkeypatch, cycle(4), matching, trials, 16)
        sigma = math.sqrt(target * (1 - target) / trials)
        for u, v in matching:
            p = np.mean(rows[:, u] != rows[:, v])
            assert abs(p - target) < 3.5 * sigma
        # the unmatched middle pair is cut with probability exactly 1/2
        p_mid = np.mean(rows[:, 1] != rows[:, 2])
        assert abs(p_mid - 0.5) < 3.5 * math.sqrt(0.25 / trials)

    def test_unmatched_vertices_uniform(self, monkeypatch):
        rows = self.matching_rows(monkeypatch, WeightedGraph(n=3, edges=()), (), 50_000, 17)
        assert np.all(np.abs(rows.mean(axis=0)) < 0.02)


class TestDpMaxcutGeneral:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            dp_maxcut_general_batch(cycle(4), 0.2, 0.0, gen(), 1)
        with pytest.raises(ValueError):
            dp_maxcut_general_batch(cycle(4), 0.0, 0.0, gen(), 1)
        with pytest.raises(ValueError):
            dp_maxcut_general_batch(cycle(4), 0.05, -1.0, gen(), 1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            dp_maxcut_general_batch(cycle(4), 0.1, alpha, gen(), 1)

    @pytest.mark.parametrize("eps,alpha", [(0.1, 1e308), (0.1, 400.0), (1e-4, 100.0)])
    def test_alpha_whose_rate_underflows_rejected(self, eps, alpha):
        # eps^(1+alpha) is 0.0 here, which the threshold would divide by
        assert eps ** (1.0 + alpha) == 0.0
        with pytest.raises(ValueError, match="alpha"):
            dp_maxcut_general_batch(cycle(4), eps, alpha, gen(), 1)

    def test_runs_without_warning_at_large_alpha(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = dp_maxcut_general_batch(cycle(8), 0.1, 2.0, gen(18), 1)[0]
        assert x.shape == (8,) and set(np.unique(x)) <= {-1, 1}

    def test_warns_when_utility_guarantee_lapses(self):
        with pytest.warns(UserWarning):
            dp_maxcut_general_batch(cycle(8), 0.1, 0.0, gen(19), 1)

    def test_amplification_budget_honored(self):
        # the inner budget amplified by the subsample rate must stay
        # within the matching stage budget for every allowed epsilon
        for eps in (1e-4, 0.01, 0.05, 0.1):
            for alpha in (0.0, 0.5, 2.0):
                rate = eps ** (1.0 + alpha) / 70.0
                amplified = math.log1p(rate * (math.exp(MATCHING_EM_BUDGET) - 1.0))
                assert amplified <= eps / 6.0 + 1e-12

    def test_determinism(self):
        a = dp_maxcut_general_batch(k33(), 0.1, 2.0, gen(20), 1)[0]
        b = dp_maxcut_general_batch(k33(), 0.1, 2.0, gen(20), 1)[0]
        assert np.array_equal(a, b)
