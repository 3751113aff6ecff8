"""Private Max-Cut algorithms on graphs.

- shearer_batch: the non-private two-color local rule.
- dp_shearer_batch: its pure-DP version with integer Laplace noise on the
  same-color counts (dp_mechanisms.noisy_above).
- dp_maxcut_unbounded_batch (alg5): the degree-split pipeline
  (dp_mechanisms.degree_split_batch) with dp_shearer as its subroutine.
- dp_maxcut_general_batch (alg6): degree split, subsampled mutual-choice
  matching with a factorized exponential mechanism, and a final
  three-way selection, each stage one block draw for all rows.

All algorithms take a graph, a CspInstance of kind 'maxcut', and return
+-1 sides; any other kind is refused before any draw. Each is one batch
kernel, its only entry point, that returns a (trials, n) int8 block, one
independent run per row; a single run is kernel(..., 1)[0].
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .csp_core import CspInstance, constraint_groups, degrees, eval_value, signs_from_bits
from .dp_mechanisms import (
    GENERAL_BUDGET_FRACTIONS,
    as_generator,
    check_alpha,
    check_epsilon,
    degree_split_batch,
    exponential_mechanism,
    fair_signs,
    noisy_above,
    noisy_degree_split,
    stage_budget,
    threshold_power,
)

MATCHING_EM_BUDGET = 2.5
MATCHING_EM_SENSITIVITY = 2.0

__all__ = [
    "MATCHING_EM_BUDGET",
    "MATCHING_EM_SENSITIVITY",
    "GENERAL_BUDGET_FRACTIONS",
    "matched_edge_cut_probability",
    "shearer_batch",
    "dp_shearer_batch",
    "dp_maxcut_unbounded_batch",
    "dp_maxcut_general_batch",
]


def matched_edge_cut_probability() -> float:
    """Exact per-matching-edge cut probability of the factorized
    exponential mechanism: e^{2.5/4} / (1 + e^{2.5/4})."""
    w = math.exp(MATCHING_EM_BUDGET / (2.0 * MATCHING_EM_SENSITIVITY))
    return w / (1.0 + w)


def _edges(graph: CspInstance, kernel: str) -> np.ndarray:
    """The read-only (2, m) rows u and v of a graph's edges; ValueError
    naming the kernel for an instance of any other kind."""
    if graph.kind != "maxcut":
        raise ValueError(f"{kernel} requires a Max-Cut instance, got kind {graph.kind!r}")
    return constraint_groups(graph)[0].scopes.T


def _two_color_batch(graph: CspInstance, gen: np.random.Generator, trials: int, offset=0):
    """Common machinery: two uniform colorings (fair_signs blocks, c1 then
    c2) and per-vertex counts of neighbors sharing the first color, minus
    the per-vertex offset."""
    n = graph.n
    c1 = fair_signs(gen, (trials, n))
    c2 = fair_signs(gen, (trials, n))
    # c1 times the signed adjacency product is a vertex's same-color minus
    # other-color neighbours; the adjacency dtype holds 2 * max degree, so
    # degree plus that difference, twice the same-color count, never wraps,
    # also less twice an offset in 0..degree // 2. The work runs in the
    # product's (n, trials) layout, where the degrees and offsets broadcast
    # along whole rows even when n is tiny
    adjacency = graph._adjacency
    c1_t = c1.T.astype(adjacency.dtype, order="C")
    ell_t = adjacency @ c1_t
    ell_t *= c1_t
    ell_t += (degrees(graph) - 2 * np.asarray(offset))[:, None]
    ell_t //= 2
    return c1, c2, np.ascontiguousarray(ell_t.T, dtype=np.int64)


def _pick(take_first: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """np.where(take_first, c1, c2) for +-1 int8 blocks in bool algebra:
    np.where branches per element and is several times slower on a random
    mask."""
    return signs_from_bits((take_first & (c1 > 0)) | (~take_first & (c2 > 0)))


def shearer_batch(graph: CspInstance, rng, trials: int) -> np.ndarray:
    """Two-coloring local rule; one independent run per row of the returned
    (trials, n) int8 block. Keep the first color when strictly fewer than
    half the neighbors share it, switch to the second when strictly more
    do, and flip a fair coin on a tie. Draws, in order: the two colorings
    and the tie coins, three (trials, n) fair_signs blocks."""
    _edges(graph, "shearer")
    gen = as_generator(rng)
    c1, c2, ell = _two_color_batch(graph, gen, trials)
    deg = degrees(graph)
    coin = fair_signs(gen, (trials, graph.n)) > 0
    ell *= 2
    return _pick((ell < deg) | ((ell == deg) & coin), c1, c2)


def dp_shearer_batch(graph: CspInstance, epsilon: float, rng, trials: int) -> np.ndarray:
    """Pure-DP variant of the two-coloring rule; one independent run per
    row of the returned (trials, n) int8 block. The first color is kept
    unless the same-color count plus integer Laplace noise at epsilon/2
    exceeds ceil((d(v)-1)/2) (noisy_above, one uniform per entry), which
    makes the sensitivity-2 count vector epsilon-DP. Draws, in order: the
    two colorings, (trials, n) fair_signs blocks, then one (trials, n)
    noisy_above block."""
    _edges(graph, "dp_shearer")
    check_epsilon(epsilon, positive=True)
    gen = as_generator(rng)
    # ceil((d - 1) / 2) equals d // 2 for every nonnegative integer d
    c1, c2, ell = _two_color_batch(graph, gen, trials, degrees(graph) // 2)
    return _pick(~noisy_above(ell, 0, epsilon / 2.0, gen, ell.shape), c1, c2)


def dp_maxcut_unbounded_batch(
    graph: CspInstance, epsilon: float, rng, trials: int
) -> np.ndarray:
    """Unbounded-degree private Max-Cut (alg5); one independent run per row
    of the returned (trials, n) int8 block.

    The degree-split pipeline (dp_mechanisms.degree_split_batch): noisy
    degrees (integer Laplace noise at parameter epsilon/6, as one edge
    moves two degrees) against the threshold 10000/eps^2 select the
    high-degree part; one candidate cut applies the exponential mechanism
    (budget epsilon/3, sensitivity 1) to the induced high-degree subgraph
    with uniform sides elsewhere, the other runs dp_shearer on the whole
    graph at epsilon/3. A fair coin picks the output; each of the three
    stages spends epsilon/3.
    """
    _edges(graph, "alg5")
    check_epsilon(epsilon, positive=True)
    threshold = 10000.0 / threshold_power(epsilon, 2, "eps^2")
    return degree_split_batch(graph, epsilon, rng, trials, dp_shearer_batch, threshold)


def _mutual_choice(n: int, u: np.ndarray, v: np.ndarray, kept: np.ndarray,
                   draws: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mutual-choice rule on the edges (u, v) that each row of the
    (trials, m) bool block `kept` keeps, with the (trials, n) uniforms
    `draws`. In each row a vertex with d kept edges picks the
    floor(draws[row, vertex] * d)-th of its kept neighbours in increasing
    order, a neighbour counted once per parallel edge; an edge joins the
    row's matching exactly when its endpoints picked each other.

    Returns the (trials, n) int64 block of picks, -1 for a vertex without a
    kept edge, and the rows and lower endpoints of the matched edges, in
    row-major order; an edge's upper endpoint is its lower endpoint's pick.
    """
    chosen = np.full(draws.shape, -1, dtype=np.int64)
    rows, e = np.nonzero(kept)
    if rows.size == 0:
        return chosen, rows, e
    # every kept edge from both ends, as (row * n + vertex, neighbour), in
    # increasing order; each run of equal keys is one vertex's neighbours
    at = np.concatenate((rows * n + u[e], rows * n + v[e]))
    nbr = np.concatenate((v[e], u[e]))
    order = np.lexsort((nbr, at))
    at, nbr = at[order], nbr[order]
    first = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
    at = at[first]
    deg = np.diff(first, append=nbr.size)
    flat = chosen.reshape(-1)
    flat[at] = nbr[first + (draws.reshape(-1)[at] * deg).astype(np.int64)]
    x, pick = at % n, flat[at]
    lower = at[(x < pick) & (flat[at - x + pick] == x)]
    return chosen, lower // n, lower % n


def _check_amplification(rate: float, budget: float) -> None:
    amplified = math.log1p(rate * (math.exp(MATCHING_EM_BUDGET) - 1.0))
    if amplified > budget + 1e-12:
        raise ValueError(
            f"subsampling amplification {amplified:.6g} exceeds stage budget "
            f"{budget:.6g}"
        )


def dp_maxcut_general_batch(
    graph: CspInstance,
    epsilon: float,
    alpha: float,
    rng,
    trials: int,
) -> np.ndarray:
    """General-graph private Max-Cut (alg6); one independent run per row of
    the returned (trials, n) int8 block.

    Builds three candidate cuts: an exponential mechanism on the noisy
    high-degree part (budget epsilon/6), a factorized exponential
    mechanism over a mutual-choice matching of edges subsampled at rate
    eps^{1+alpha}/70 within the low part (inner budget 2.5, amplified to
    at most epsilon/6 by subsampling), and the degree partition itself.
    A final exponential mechanism at budget epsilon/2 and sensitivity 1
    selects among them by cut value.

    Every stage draws one block for all rows, in this order: the degree
    noise and em_on_part (a fair_signs block, then its exponential
    mechanism draws); one subsampling uniform per (row, edge), the edge
    kept below the rate unless an endpoint is high in that row; one choice
    uniform per (row, vertex) for the mutual-choice matching
    (_mutual_choice); one matching-mechanism uniform per (row, vertex),
    which gives the vertex side +1 below 1/2 (a double, not fair_signs,
    as it also decides matched edges), except that a matched edge's
    lower endpoint takes the side opposite its partner's below
    matched_edge_cut_probability() and the same side otherwise; one
    final-selection uniform per row.
    """
    u, v = _edges(graph, "alg6")
    if not (0.0 < epsilon <= 0.1):
        raise ValueError(f"epsilon must lie in (0, 0.1], got {epsilon}")
    check_alpha(alpha)
    eps_pow = threshold_power(epsilon, 1.0 + alpha, f"eps^(1+alpha) at alpha = {alpha}")
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
    high, s1 = noisy_degree_split(graph, epsilon, degree_share, em_share, 24.0 / eps_pow,
                                  gen, trials)
    kept = gen.random((trials, u.size)) < rate
    kept &= ~(high.take(u, axis=1) | high.take(v, axis=1))
    # one choice uniform per vertex regardless of degree, so a neighbouring
    # graph with coupled randomness changes only the endpoints' choices
    chosen, rows, lower = _mutual_choice(n, u, v, kept, gen.random((trials, n)))
    # the cut value adds over matched edges, so the exponential mechanism
    # over all assignments with weight exp(2.5 * value / 4) factorizes: each
    # matched edge is cut independently, any other vertex is uniform
    w = gen.random((trials, n))
    s2 = signs_from_bits(w < 0.5)
    if rows.size:  # most single runs match no edge; skip the empty scatter
        upper = s2[rows, chosen[rows, lower]]
        s2[rows, lower] = np.where(w[rows, lower] < matched_edge_cut_probability(), -upper, upper)
    # row t of the (trials, 3 * n) concatenation is row t's three candidates
    candidates = np.concatenate((s1, s2, signs_from_bits(high)), axis=1).reshape(trials, 3, n)
    scores = eval_value(graph, candidates.reshape(-1, n)).reshape(trials, 3)
    pick = exponential_mechanism(scores, stage_budget(epsilon, final_share), 1.0, gen)
    return candidates[np.arange(trials), pick]
