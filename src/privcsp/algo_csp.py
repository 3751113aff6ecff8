"""Private CSP algorithms.

Every algorithm is one batch kernel, its only entry point, that returns a
(trials, n) int8 block, one independent run per row; a single run is
kernel(..., 1)[0].

- alg1_batch: greedy signed-majority rounding with randomized response,
  for triangle-free instances.
- alg2_batch: the degree-split pipeline (dp_mechanisms.degree_split_batch)
  with alg1 as its subroutine.
- alg3_batch: scaled keep-set selection, per-variable private boost with a
  tanh marginal, and a Chebyshev-bias coordinate flip.
- alg_oddk_batch: the degree-split pipeline with alg3 as its subroutine,
  for odd arity.
"""

from __future__ import annotations

import math
import weakref
from typing import Sequence

import numpy as np

from .csp_core import (
    Constraint,
    ConstraintGroup,
    CspInstance,
    constraint_groups,
    is_triangle_free,
    signs_from_bits,
)
from .dp_mechanisms import (
    as_generator,
    check_epsilon,
    degree_split_batch,
    fair_signs,
    keep_probability,
    threshold_power,
)
from .oracles import _constraint_q_pmf, exact_median_theta

__all__ = [
    "boost_scale",
    "private_boost",
    "alg1_batch",
    "alg2_batch",
    "alg3_batch",
    "alg_oddk_batch",
]


# Cached (theta, gamma) per multiset of per-constraint derivative pmfs,
# for constraints whose fixed supports (scope minus j) are pairwise
# disjoint: only then is the summed derivative a sum of independent terms
# whose law the multiset fixes. A pmf is named by a small integer id, one
# per distinct pmf, looked up by the constraint's shape (sign or truth
# table, arity, position of j in the scope), which alone fixes the pmf. The
# maps grow with the shapes seen, not with instances or trials.
_MEDIAN_CACHE: dict[tuple[int, ...], tuple[float, float]] = {}
_PMF_IDS: dict[tuple, int] = {}
_SHAPE_PMF_ID: dict[tuple, int] = {}
# Per constraint group (one instance's constraints of one form and arity),
# the pmf id of each constraint at each scope position; dropped with the
# instance.
_GROUP_PMF_IDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# A parity of arity >= 2 has the derivative +-1/2 with equal odds at any
# scope position and for either sign, so all of them share this one's pmf.
_XOR_STAND_IN = Constraint(scope=(0, 1), b=1)


def _pmf_id(c: Constraint, j: int) -> int:
    shape = (c.b, c.table, c.arity, c.scope.index(j))
    pid = _SHAPE_PMF_ID.get(shape)
    if pid is None:
        pmf = tuple(sorted(_constraint_q_pmf(c, j).items()))
        pid = _PMF_IDS.setdefault(pmf, len(_PMF_IDS))
        _SHAPE_PMF_ID[shape] = pid
    return pid


def _median_for(constraints: Sequence[Constraint], j: int) -> tuple[float, float]:
    sig = tuple(sorted(_pmf_id(c, j) for c in constraints))
    hit = _MEDIAN_CACHE.get(sig)
    if hit is None:
        hit = exact_median_theta(list(constraints), j)
        _MEDIAN_CACHE[sig] = hit
    return hit


def _xor_median_by_count(max_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, gamma) arrays indexed by the number q of active sign-form
    constraints of arity >= 2 with disjoint fixed supports, for q up to
    max_count.

    Each such constraint adds +-1/2 with equal odds, so the summed
    derivative is (2 Bin(q, 1/2) - q) / 2. theta is its median, the first
    support value whose cdf reaches 1/2, and gamma = (1/2 - P[> theta]) /
    P[= theta]; both are exact ratios of binomial coefficients, rounded
    once to float, so they equal exact_median_theta on q stand-ins.
    """
    thetas = np.zeros(max_count + 1)
    gammas = np.full(max_count + 1, 0.5)
    for q in range(1, max_count + 1):
        total, cdf, b = 1 << q, 0, -1
        while 2 * cdf < total:
            b += 1
            cdf += math.comb(q, b)
        thetas[q] = (2 * b - q) / 2
        # (1/2 - (total - cdf) / total) / (comb(q, b) / total); int / int is
        # the exact fraction rounded once, as float(Fraction) is
        gammas[q] = (2 * cdf - total) / (2 * math.comb(q, b))
    return thetas, gammas


def _group_pmf_ids(instance: CspInstance, group: ConstraintGroup) -> np.ndarray:
    """_pmf_id of each constraint of a group at each scope position, as a
    (constraints, arity) array; computed once per group."""
    ids = _GROUP_PMF_IDS.get(group)
    if ids is None:
        ids = np.array([
            [_pmf_id(instance.constraints[c], j) for j in scope]
            for c, scope in zip(group.cons.tolist(), group.scopes.tolist())
        ], dtype=np.intp).reshape(group.scopes.shape)
        _GROUP_PMF_IDS[group] = ids
    return ids


def _single_hit_terms(instance: CspInstance, mask: np.ndarray, x: np.ndarray):
    """Yields (group, t, c, pos, j, q2) for each constraint group and
    (trials, n) blocks mask (bool) and x: every pair of a row t and a
    constraint c of the group (its row in the group's arrays) whose scope
    holds exactly one variable j of mask[t], at scope position pos, with
    q2 twice derivative_q of c at j, the other scope variables read from
    x[t] (an integer in -1..1)."""
    for group in constraint_groups(instance):
        hits = mask[:, group.scopes]
        single = hits & (hits.sum(axis=2) == 1)[:, :, None]
        # flat (row, constraint, position) indices; flatnonzero and divmod
        # are several times faster than a 2-D nonzero and an argmax
        tc, pos = np.divmod(np.flatnonzero(single), group.arity)
        t, c = np.divmod(tc, len(group.cons))
        j = group.scopes[c, pos]
        if group.signs is not None:
            # b times the scope product, times x_j (+-1), is b times the
            # product over the scope without j
            q2 = group.signs[c] * group.products(x)[t, c] * x[t, j]
        else:
            idx, rows = group.table_index(x)[t, c], np.arange(c.size)
            tables = group.tables[c]
            q2 = tables[rows, idx | (1 << pos)] - tables[rows, idx & ~(1 << pos)]
        yield group, t, c, pos, j, q2


def _greedy_medians(instance: CspInstance, greedy: np.ndarray, x: np.ndarray):
    """(cells, sum2, theta2, gamma): the sorted flat indices t * n + j of
    the cells (trial t, variable j) of (trials, n) blocks with a constraint
    active at j (its only greedy scope variable in trial t), and at each,
    twice the summed derivative_q, twice its exact median, both exact
    integers in int32, and the median's tie bias. Every other cell has sum
    and median 0 and tie bias 1/2.

    A cell whose active constraints are all parities of arity >= 2 reads
    the closed form _xor_median_by_count at their count; the other cells
    go to _cell_medians.
    """
    n = greedy.shape[1]
    terms = list(_single_hit_terms(instance, greedy, x))
    flat, q2s, is_xor = ([np.zeros(0, dtype=dtype)] for dtype in (np.intp, np.intp, bool))
    for group, t, _, _, j, q2 in terms:
        flat.append(t * n + j)
        q2s.append(q2)
        is_xor.append(np.full(t.size, group.signs is not None and group.arity >= 2))
    flat, q2s, is_xor = (np.concatenate(parts) for parts in (flat, q2s, is_xor))
    if np.all(flat[1:] > flat[:-1]):  # one term per cell, in cell order
        cells, rank = flat, np.arange(flat.size)
    else:
        cells, rank = np.unique(flat, return_inverse=True)

    def total(rank, weights=None):
        return np.bincount(rank, weights=weights, minlength=cells.size).astype(np.int32)

    sum2, xors, others = total(rank, q2s), total(rank[is_xor]), total(rank[~is_xor])
    thetas, gammas = _xor_median_by_count(int(xors.max(initial=0)))
    # twice the median: an integer, as the derivatives are multiples of 1/2
    theta2, gamma = (2 * thetas).astype(np.int32)[xors], gammas[xors]
    mixed = others > 0
    if mixed.any():
        in_mixed = np.where(mixed, np.cumsum(mixed) - 1, -1)
        theta, gamma[mixed] = _cell_medians(instance, terms, in_mixed[rank], cells[mixed])
        theta2[mixed] = 2 * theta
    return cells, sum2, theta2, gamma


def _cell_medians(instance: CspInstance, terms: list, rank: np.ndarray, cells: np.ndarray):
    """(theta, gamma) arrays of the exact median of the summed derivative,
    and its tie bias, at each cell t * n + j of the sorted array `cells`.
    terms are the _single_hit_terms of the greedy mask; rank gives, for
    each of their rows in order, the index in cells of its cell, or -1.
    On a triangle-free instance the active constraints of a cell share
    only j, so their fixed supports are disjoint and the multiset of their
    pmf ids fixes the median: cells with the same multiset share one
    _median_for call."""
    n = instance.n
    xor_id = _pmf_id(_XOR_STAND_IN, 0)
    pids = [np.full(c.size, xor_id) if group.signs is not None and group.arity >= 2
            else _group_pmf_ids(instance, group)[c, pos] for group, _, c, pos, _, _ in terms]
    cons = [group.cons[c] for group, _, c, _, _, _ in terms]
    sel = rank >= 0
    rank, pids, cons = rank[sel], np.concatenate(pids)[sel], np.concatenate(cons)[sel]
    order = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank, np.arange(cells.size + 1), sorter=order)

    def median(k):
        cs = cons[order[bounds[k]:bounds[k + 1]]].tolist()
        return _median_for([instance.constraints[i] for i in cs], int(cells[k] % n))

    ids, id_rank = np.unique(pids, return_inverse=True)
    sigs = np.bincount(rank * ids.size + id_rank, minlength=cells.size * ids.size)
    sigs = sigs.reshape(cells.size, ids.size)
    _, first, sig = np.unique(sigs, axis=0, return_index=True, return_inverse=True)
    meds = np.array([median(k) for k in first.tolist()])[sig.ravel()]
    return meds[:, 0], meds[:, 1]


def alg1_batch(instance: CspInstance, epsilon: float, rng, trials: int) -> np.ndarray:
    """Signed-majority rounding with randomized response on triangle-free
    instances; returns a (trials, n) int8 block, one independent run per
    row. Fixed variables are uniform; each greedy variable follows the sign
    of its summed constraint derivative against an exact median
    (randomized tie bias keeps the sign exactly unbiased), passed through
    randomized response at the full budget. Every output coordinate is
    marginally uniform.

    Draws, in order: three (trials, n) fair_signs blocks, the greedy
    mask, the initial x and a fair default z; one gen.random double per
    cell where a constraint is active, for its tie; the (trials, n) keep
    draw. The fixed scope variables of an active constraint are not greedy,
    so every derivative reads the initial x; _greedy_medians gives the
    cells with their sums and medians, and z there compares the sum with
    the median, a tie going to +1 when its double is below the tie bias.
    """
    keep_prob = keep_probability(epsilon)
    if not is_triangle_free(instance):
        raise ValueError("alg1 requires a triangle-free instance")
    gen = as_generator(rng)
    n = instance.n
    greedy = fair_signs(gen, (trials, n)) > 0
    x = fair_signs(gen, (trials, n))
    cells, sum2, theta2, gamma = _greedy_medians(instance, greedy, x)
    z = fair_signs(gen, (trials, n)) > 0
    # z = +1 when s > theta, or s == theta and the tie draw is below gamma
    z.reshape(-1)[cells] = (sum2 > theta2) | ((sum2 == theta2) & (gen.random(cells.size) < gamma))
    keep = gen.random((trials, n)) < keep_prob
    # y = +1 when keep, and y * z = +1 exactly when the two agree;
    # np.where(greedy, y * z, x) in bool algebra: np.where branches per
    # element and is several times slower on a random mask
    return signs_from_bits((greedy & (z == keep)) | (~greedy & (x > 0)))


def alg2_batch(instance: CspInstance, epsilon: float, rng, trials: int) -> np.ndarray:
    """Unbounded-degree alg2 on a sign-form instance; one independent run
    per row of the returned (trials, n) int8 block.

    The degree-split pipeline (dp_mechanisms.degree_split_batch): degrees
    perturbed with integer Laplace noise at parameter epsilon/(3k) (k the
    max arity, one constraint moving k degrees) against the threshold
    10000/eps^4 select the high set; one candidate applies the exponential
    mechanism (budget epsilon/3, sensitivity 1) to the constraints inside
    the high set, with uniform values elsewhere; the other runs alg1 on
    the whole instance at epsilon/3. A fair coin picks between them. An
    instance that is not triangle-free is refused before any draw.
    """
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg2 requires a sign-form instance")
    if not is_triangle_free(instance):
        raise ValueError("alg2 requires a triangle-free instance")
    check_epsilon(epsilon, positive=True)
    return degree_split_batch(
        instance, epsilon, rng, trials, alg1_batch, 10000.0 / threshold_power(epsilon, 4, "eps^4")
    )


def boost_scale(epsilon: float, m: int) -> float:
    """The tanh steepness used by the private boost: epsilon * sqrt(m) / 2."""
    return epsilon * math.sqrt(m) / 2.0


def private_boost(lambda_value, scale: float, rng):
    """Draws +-1 with Pr[+1] = (1 + tanh(scale * lambda_value)) / 2, taken
    as the logistic 1 / (1 + exp(-2 * scale * lambda_value)): the tanh form
    cancels to 0 from scale * lambda_value ~ -19 on, where this one keeps
    full relative precision."""
    gen = as_generator(rng)
    with np.errstate(over="ignore"):  # exp(inf) = inf gives Pr[+1] = 0
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * scale * np.asarray(lambda_value)))
    out = np.where(gen.random(size=np.shape(lambda_value)) < p_plus, 1, -1)
    if np.isscalar(lambda_value):
        return int(out)
    return out.astype(np.int8)


def _kept_influence(instance: CspInstance, keep: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row t and variable j of (trials, n) blocks, the sum over the
    constraints whose scope holds j and no other variable kept in row t of
    b times the product of x[t] over the rest of the scope, over sqrt(m);
    0 for the others. Terms are added in constraint order, starting from
    0.0."""
    trials, n = keep.shape
    sqrt_m = math.sqrt(instance.m)
    rows, cons, terms = [], [], []
    for group, t, c, _, j, q2 in _single_hit_terms(instance, keep, x):
        rows.append(t * n + j)
        cons.append(group.cons[c])
        # twice derivative_q of a parity: b times the product over the rest
        terms.append(q2 / sqrt_m)
    order = np.argsort(np.concatenate(cons))
    # bincount adds each row's weights in the order given
    return np.bincount(
        np.concatenate(rows)[order], weights=np.concatenate(terms)[order], minlength=trials * n
    ).reshape(trials, n)


def alg3_batch(
    instance: CspInstance,
    epsilon: float,
    rng,
    trials: int,
    *,
    scale: int | None = None,
    flip_index: int | None = None,
) -> np.ndarray:
    """Scaled advantage rounding with a private tanh boost; one independent
    run per row of the returned (trials, n) int8 block.

    Phase 1 keeps each variable with probability 2^-s and fixes the rest
    uniformly; phase 2 boosts each kept variable toward the sign of its
    normalized active-constraint sum; phase 3 flips kept coordinates with
    the Chebyshev bias (1 - cos(r pi / k) / 2) / 2; phase 4 negates the
    whole row with probability 1/2. Each row draws its own scale s, flip
    index r and negation.

    Draws, in order: the scales (unless fixed); the (trials, n) keep
    uniforms; the initial x, a (trials, n) fair_signs block; one boost
    uniform per entry; the flip indices (unless fixed); the (trials, n)
    flip uniforms; the negation, a (trials, 1) fair_signs block.

    scale fixes s for every row (it must be >= 1; None draws it uniformly
    from 1..ceil(log2 k)); flip_index fixes r for every row (it must lie
    in 0..k; None draws it uniformly). Both only pin the law in tests.
    """
    check_epsilon(epsilon)
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg3 requires a sign-form instance")
    if instance.m == 0:
        raise ValueError("alg3 requires at least one constraint")
    instance.require_distinct_scopes()
    k = instance.max_arity
    if scale is not None and scale < 1:
        raise ValueError(f"scale {scale} must be >= 1")
    if flip_index is not None and not 0 <= flip_index <= k:
        raise ValueError(f"flip_index {flip_index} must lie in 0..{k} (the arity)")
    gen = as_generator(rng)
    n, m = instance.n, instance.m
    smax = max(1, math.ceil(math.log2(k)) if k > 1 else 1)
    if scale is not None:
        s = np.full(trials, scale)
    else:
        s = gen.integers(1, smax + 1, size=trials)
    keep = gen.random((trials, n)) < (2.0 ** -s)[:, None]
    x = fair_signs(gen, (trials, n))
    lam = _kept_influence(instance, keep, x)
    x = np.where(keep, private_boost(lam, boost_scale(epsilon, m), gen), x)
    if flip_index is not None:
        r = np.full(trials, flip_index)
    else:
        r = gen.integers(0, k + 1, size=trials)
    eta = np.array([math.cos(i * math.pi / k) / 2.0 for i in range(k + 1)])[r]
    flip = gen.random((trials, n)) < ((1.0 - eta) / 2.0)[:, None]
    x = np.where(keep & flip, -x, x).astype(np.int8)
    x *= fair_signs(gen, (trials, 1))
    return x


def alg_oddk_batch(instance: CspInstance, epsilon: float, rng, trials: int) -> np.ndarray:
    """Odd-arity unbounded-degree alg_oddk; one independent run per row of
    the returned (trials, n) int8 block: the degree-split pipeline
    (dp_mechanisms.degree_split_batch) with the threshold 100/eps^2 and
    alg3 (advantage rounding) as its subroutine at epsilon/3."""
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg_oddk requires a sign-form instance")
    if instance.max_arity % 2 == 0:
        raise ValueError("alg_oddk requires odd arity; use alg2_batch")
    check_epsilon(epsilon, positive=True)
    return degree_split_batch(
        instance, epsilon, rng, trials, alg3_batch, 100.0 / threshold_power(epsilon, 2, "eps^2")
    )
