"""Private Max-Cut algorithms on the graph view.

- shearer_baseline: the non-private two-color local rule.
- dp_shearer: its pure-DP version with integer Laplace noise on the
  same-color counts.
- dp_maxcut_unbounded: noisy degree split (Laplace(6/eps): one edge moves
  two degrees), exponential mechanism on the high-degree part, dp_shearer
  on the whole graph, fair coin.
- dp_maxcut_general: degree split, subsampled mutual-choice matching with
  a factorized exponential mechanism, and a final three-way selection.

All algorithms require unweighted graphs and return +-1 sides. Each is
one batch kernel (shearer_batch, dp_shearer_batch,
dp_maxcut_unbounded_batch, dp_maxcut_general_batch) that returns a
(trials, n) int8 block, one independent run per row; the single-run form
is row 0 of the kernel with one trial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .csp_core import WeightedGraph, cut_value, signs_from_bits
from .dp_mechanisms import (
    GENERAL_BUDGET_FRACTIONS,
    UNBOUNDED_BUDGET_FRACTIONS,
    as_generator,
    budget_ledger,
    check_epsilon,
    em_on_part,
    exponential_mechanism,
    noisy_high_mask,
    sample_discrete_laplace,
    stage_budget,
)

MATCHING_EM_BUDGET = 2.5
MATCHING_EM_SENSITIVITY = 2.0

__all__ = [
    "MatchingState",
    "MATCHING_EM_BUDGET",
    "MATCHING_EM_SENSITIVITY",
    "UNBOUNDED_BUDGET_FRACTIONS",
    "GENERAL_BUDGET_FRACTIONS",
    "matched_edge_cut_probability",
    "budget_ledger",
    "shearer_baseline",
    "shearer_batch",
    "dp_shearer",
    "dp_shearer_batch",
    "dp_maxcut_unbounded",
    "dp_maxcut_unbounded_batch",
    "mutual_choice_matching",
    "matching_em_cut",
    "dp_maxcut_general",
    "dp_maxcut_general_batch",
]


@dataclass(frozen=True)
class MatchingState:
    """Per-vertex neighbor choices and the resulting mutual-choice matching."""

    choices: tuple[int, ...]  # chosen neighbor per vertex, -1 for none
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.edges:
            if u in seen or v in seen:
                raise ValueError("matching edges must not share vertices")
            seen.add(u)
            seen.add(v)


def _require_unweighted(graph: WeightedGraph, name: str) -> None:
    if not graph.is_unweighted:
        raise ValueError(f"{name} requires an unweighted graph")


def matched_edge_cut_probability() -> float:
    """Exact per-matching-edge cut probability of the factorized
    exponential mechanism: e^{2.5/4} / (1 + e^{2.5/4})."""
    w = math.exp(MATCHING_EM_BUDGET / (2.0 * MATCHING_EM_SENSITIVITY))
    return w / (1.0 + w)


def _two_color_batch(graph: WeightedGraph, gen: np.random.Generator, trials: int):
    """Common machinery: two uniform colorings and per-vertex counts of
    neighbors sharing the first color."""
    n = graph.n
    c1 = signs_from_bits(gen.integers(0, 2, size=(trials, n)))
    c2 = signs_from_bits(gen.integers(0, 2, size=(trials, n)))
    u, v, _ = graph.edge_arrays()
    same = c1[:, u] == c1[:, v]
    # the (trials, m) same-color indicator times the (m, n) sparse
    # edge-vertex incidence: per vertex, its same-color edges, a count up to
    # its degree, so the smallest unsigned type that holds the largest
    # degree is exact (uint8 reads the bool indicator without a copy)
    dtype = np.min_scalar_type(int(graph.degree_counts().max(initial=0)))
    edges = np.arange(u.size)
    incidence = sparse.csr_array(
        (np.ones(2 * u.size, dtype=dtype), (np.concatenate((edges, edges)), np.concatenate((u, v)))),
        shape=(u.size, n),
    )
    ell = incidence.T @ same.T.view(np.uint8).astype(dtype, copy=False)
    return c1, c2, np.ascontiguousarray(ell.T, dtype=np.int64)


def shearer_batch(graph: WeightedGraph, rng, trials: int) -> np.ndarray:
    """Vectorized shearer_baseline; one independent run per row."""
    _require_unweighted(graph, "shearer_baseline")
    gen = as_generator(rng)
    c1, c2, ell = _two_color_batch(graph, gen, trials)
    deg = graph.degree_counts()
    coin = gen.random((trials, graph.n)) < 0.5
    take_first = np.where(2 * ell < deg, True, np.where(2 * ell > deg, False, coin))
    return np.where(take_first, c1, c2).astype(np.int8)


def shearer_baseline(graph: WeightedGraph, rng) -> np.ndarray:
    """Two-coloring local rule: keep the first color when strictly fewer
    than half the neighbors share it, switch to the second when strictly
    more do, and flip a fair coin on a tie."""
    return shearer_batch(graph, rng, 1)[0]


def dp_shearer_batch(graph: WeightedGraph, epsilon: float, rng, trials: int) -> np.ndarray:
    """Vectorized dp_shearer; one independent run per row."""
    _require_unweighted(graph, "dp_shearer")
    check_epsilon(epsilon, positive=True)
    gen = as_generator(rng)
    c1, c2, ell = _two_color_batch(graph, gen, trials)
    deg = graph.degree_counts()
    zeta = sample_discrete_laplace(epsilon / 2.0, gen, size=(trials, graph.n))
    # ell - ceil((d - 1) / 2) + zeta, in place on the fresh noise array;
    # ceil((d - 1) / 2) equals d // 2 for every nonnegative integer d
    zeta += ell
    zeta -= deg // 2
    take_first = zeta <= 0
    # np.where(take_first, c1, c2) in bool algebra: np.where branches per
    # element and is several times slower on a random mask
    return signs_from_bits((take_first & (c1 > 0)) | (~take_first & (c2 > 0)))


def dp_shearer(graph: WeightedGraph, epsilon: float, rng) -> np.ndarray:
    """Pure-DP variant of the two-coloring rule: the neighbor count is
    compared against ceil((d(v)-1)/2) plus integer Laplace noise at
    epsilon/2, which makes the sensitivity-2 count vector epsilon-DP."""
    return dp_shearer_batch(graph, epsilon, rng, 1)[0]


def dp_maxcut_unbounded_batch(
    graph: WeightedGraph, epsilon: float, rng, trials: int, cap: int = 24
) -> np.ndarray:
    """Unbounded-degree private Max-Cut; one independent run per row of the
    returned (trials, n) int8 block.

    Noisy degrees (Laplace(6/epsilon), as one edge moves two degrees)
    against the threshold 10000/eps^2 select the high-degree part; one
    candidate cut applies the exponential mechanism (budget epsilon/3,
    sensitivity 1) to the induced high-degree subgraph with uniform sides
    elsewhere, the other runs dp_shearer on the whole graph at epsilon/3.
    A fair coin picks the output; each of the three stages spends epsilon/3.
    """
    _require_unweighted(graph, "dp_maxcut_unbounded")
    check_epsilon(epsilon, positive=True)
    gen = as_generator(rng)
    degree_share, em_share, shearer_share = UNBOUNDED_BUDGET_FRACTIONS
    high = noisy_high_mask(graph, epsilon, degree_share, 10000.0 / epsilon ** 2, gen, trials)
    s1 = em_on_part(graph, high, stage_budget(epsilon, em_share), gen, cap)
    s2 = dp_shearer_batch(graph, stage_budget(epsilon, shearer_share), gen, trials)
    return np.where((gen.random(trials) < 0.5)[:, None], s1, s2)


def dp_maxcut_unbounded(
    graph: WeightedGraph, epsilon: float, rng, cap: int = 24
) -> np.ndarray:
    """One run of alg5: row 0 of dp_maxcut_unbounded_batch with one trial."""
    return dp_maxcut_unbounded_batch(graph, epsilon, rng, 1, cap)[0]


def mutual_choice_matching(graph: WeightedGraph, rng) -> MatchingState:
    """Each vertex picks a uniform neighbor (vertex order 0..n-1); an edge
    joins the matching exactly when both endpoints picked each other."""
    gen = as_generator(rng)
    adj = graph.adjacency_lists()
    # one uniform per vertex regardless of degree, so a neighboring graph
    # with coupled randomness changes only the endpoints' choices
    draws = gen.random(graph.n)
    choices = []
    for v in range(graph.n):
        if adj[v]:
            choices.append(int(sorted(adj[v])[int(draws[v] * len(adj[v]))]))
        else:
            choices.append(-1)
    edges = tuple(
        (u, choices[u])
        for u in range(graph.n)
        if choices[u] > u and choices[choices[u]] == u
    )
    return MatchingState(choices=tuple(choices), edges=edges)


def matching_em_cut(n: int, matching: MatchingState, rng) -> np.ndarray:
    """Factorized exponential mechanism over the assignments of a matching.

    Cut value decomposes over matching edges, so the mechanism factorizes:
    each matching edge is cut independently with probability
    e^{2.5/4}/(1+e^{2.5/4}) with a uniform orientation; unmatched vertices
    are uniform. Identical in law to enumerating all assignments with
    weight exp(2.5 * value / 4), without any enumeration cap.
    """
    gen = as_generator(rng)
    sides = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    p_cut = matched_edge_cut_probability()
    for u, v in matching.edges:
        a = 1 if gen.random() < 0.5 else -1
        cut_it = gen.random() < p_cut
        sides[u] = a
        sides[v] = -a if cut_it else a
    return sides


def _check_amplification(rate: float, budget: float) -> None:
    amplified = math.log1p(rate * (math.exp(MATCHING_EM_BUDGET) - 1.0))
    if amplified > budget + 1e-12:
        raise ValueError(
            f"subsampling amplification {amplified:.6g} exceeds stage budget "
            f"{budget:.6g}"
        )


def dp_maxcut_general_batch(
    graph: WeightedGraph,
    epsilon: float,
    alpha: float,
    rng,
    trials: int,
    cap: int = 24,
) -> np.ndarray:
    """General-graph private Max-Cut; one independent run per row of the
    returned (trials, n) int8 block.

    Builds three candidate cuts: an exponential mechanism on the noisy
    high-degree part (budget epsilon/6), a factorized exponential
    mechanism over a mutual-choice matching of edges subsampled at rate
    eps^{1+alpha}/70 within the low part (inner budget 2.5, amplified to
    at most epsilon/6 by subsampling), and the degree partition itself.
    A final exponential mechanism at budget epsilon/2 and sensitivity 1
    selects among them by cut value. The degree split and the first
    candidate are drawn for all rows at once; the matching and the final
    selection run row by row, after them.
    """
    _require_unweighted(graph, "dp_maxcut_general")
    if not (0.0 < epsilon <= 0.1):
        raise ValueError(f"epsilon must lie in (0, 0.1], got {epsilon}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    eps_pow = epsilon ** (1.0 + alpha)
    if eps_pow == 0.0:
        raise ValueError(
            f"alpha = {alpha} is too large: eps^(1+alpha) underflows to 0 "
            f"at eps = {epsilon}"
        )
    degree_share, em_share, matching_share, final_share = GENERAL_BUDGET_FRACTIONS
    rate = eps_pow / 70.0
    _check_amplification(rate, stage_budget(epsilon, matching_share))
    utility_cap = min(0.0106, 1.8 / math.log(10.0 / eps_pow))
    if epsilon ** alpha > utility_cap:
        warnings.warn(
            f"eps^alpha = {epsilon ** alpha:.4g} exceeds {utility_cap:.4g}; "
            "the output stays private but the utility guarantee does not apply",
            stacklevel=2,
        )
    gen = as_generator(rng)
    n = graph.n
    high = noisy_high_mask(graph, epsilon, degree_share, 24.0 / eps_pow, gen, trials)
    s1 = em_on_part(graph, high, stage_budget(epsilon, em_share), gen, cap)
    u, v, _ = graph.edge_arrays()
    out = np.empty((trials, n), dtype=np.int8)
    for t, high_mask in enumerate(high):
        low = np.flatnonzero(~(high_mask[u] | high_mask[v]))
        # one uniform per low edge, in edge order
        kept = tuple(graph.edges[i] for i in low[gen.random(low.size) < rate])
        matching = mutual_choice_matching(WeightedGraph(n=n, edges=kept), gen)
        s2 = matching_em_cut(n, matching, gen)
        s3 = np.where(high_mask, 1, -1).astype(np.int8)
        out[t] = exponential_mechanism(
            [s1[t], s2, s3],
            lambda cand: cut_value(graph, cand),
            stage_budget(epsilon, final_share),
            1.0,
            gen,
        )
    return out


def dp_maxcut_general(
    graph: WeightedGraph,
    epsilon: float,
    alpha: float,
    rng,
    cap: int = 24,
) -> np.ndarray:
    """One run of alg6: row 0 of dp_maxcut_general_batch with one trial."""
    return dp_maxcut_general_batch(graph, epsilon, alpha, rng, 1, cap)[0]
