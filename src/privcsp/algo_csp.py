"""Private CSP algorithms.

Every algorithm is one batch kernel that returns a (trials, n) int8 block,
one independent run per row; the single-run form is row 0 of the kernel
with one trial.

- alg1_batch / alg1_triangle_free_bounded: greedy signed-majority
  rounding with randomized response, for triangle-free instances.
- alg2_batch / alg2_partition_kxor: noisy degree split, exponential
  mechanism on the high-degree part, a low-degree subroutine on the whole
  instance, and a fair coin between the two candidates.
- alg3_batch / alg3_dp_advrand: scaled keep-set selection, per-variable
  private boost with a tanh marginal, and a Chebyshev-bias coordinate
  flip.
- alg_oddk_batch / alg_oddk_unbounded: the odd-arity wrapper combining
  alg2 with alg3.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .csp_core import (
    Constraint,
    ConstraintGroup,
    CspInstance,
    as_assignment,
    constraint_groups,
    eval_value,
    is_triangle_free,
    signs_from_bits,
)
from .dp_mechanisms import (
    UNBOUNDED_BUDGET_FRACTIONS,
    as_generator,
    check_epsilon,
    em_on_part,
    exponential_mechanism,
    keep_probability,
    noisy_high_mask,
    stage_budget,
)
from .oracles import _constraint_q_pmf, exact_median_theta

__all__ = [
    "AdvRandConfig",
    "boost_scale",
    "private_boost",
    "alg1_triangle_free_bounded",
    "alg1_batch",
    "alg2_partition_kxor",
    "alg2_batch",
    "alg3_dp_advrand",
    "alg3_batch",
    "alg_oddk_unbounded",
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
    if len(constraints) > 1:  # one scope never overlaps itself
        fixed = [i for c in constraints for i in c.scope if i != j]
        if len(set(fixed)) < len(fixed):
            # overlapping supports (a non-triangle-free instance run unchecked)
            return exact_median_theta(list(constraints), j)
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


def _greedy_medians(instance: CspInstance, greedy: np.ndarray, x: np.ndarray, check: bool):
    """(sum2, theta2, gamma) per cell (trial t, variable j) of (trials, n)
    blocks, over the constraints active at j in trial t (j is their only
    greedy scope variable): twice the summed derivative_q, twice its exact
    median, both exact integers in int32, and the median's tie bias.

    A cell whose active constraints are all parities of arity >= 2 reads
    the closed form _xor_median_by_count at their count; the other cells
    go to _cell_medians, and so do, with check=False (the instance may
    have triangles), all cells with two or more active constraints, whose
    fixed supports may overlap.
    """
    trials, n = greedy.shape
    terms = list(_single_hit_terms(instance, greedy, x))
    flat, q2s, xor_flat, other_flat = ([np.zeros(0, dtype=np.intp)] for _ in range(4))
    for group, t, _, _, j, q2 in terms:
        flat.append(t * n + j)
        q2s.append(q2)
        (xor_flat if group.signs is not None and group.arity >= 2 else other_flat).append(flat[-1])

    def total(parts, weights=None):
        sums = np.bincount(np.concatenate(parts), weights=weights, minlength=trials * n)
        return sums.astype(np.int32).reshape(trials, n)

    sum2, xors, others = total(flat, np.concatenate(q2s)), total(xor_flat), total(other_flat)
    thetas, gammas = _xor_median_by_count(int(xors.max(initial=0)))
    # twice the median: an integer, as the derivatives are multiples of 1/2
    theta2, gamma = (2 * thetas).astype(np.int32)[xors], gammas[xors]
    general = others > 0 if check else (others > 0) | (xors > 1)
    cells = np.flatnonzero(general)
    if cells.size:
        theta, gamma.flat[cells] = _cell_medians(instance, terms, trials, cells, overlaps=not check)
        theta2.flat[cells] = 2 * theta
    return sum2, theta2, gamma


def _cell_medians(
    instance: CspInstance, terms: list, trials: int, cells: np.ndarray, overlaps: bool
):
    """(theta, gamma) arrays of the exact median of the summed derivative,
    and its tie bias, at each cell t * n + j of the sorted array `cells`,
    each with at least one active constraint (terms are the
    _single_hit_terms of the greedy mask). Cells with the same multiset
    of pmf ids share one _median_for call. With `overlaps`, a cell whose
    active constraints' fixed supports (scope minus j) overlap gets a call
    of its own (one per distinct constraint set and j), which _median_for
    sends to the oracle."""
    n = instance.n
    marked = np.zeros(trials * n, dtype=bool)
    marked[cells] = True
    marked = marked.reshape(trials, n)
    xor_id = _pmf_id(_XOR_STAND_IN, 0)
    parts, fixed = [], []
    for group, t, c, pos, j, _ in terms:
        sel = marked[t, j]
        t, c, pos, j = t[sel], c[sel], pos[sel], j[sel]
        if group.signs is not None and group.arity >= 2:
            pids = np.full(c.size, xor_id)
        else:
            pids = _group_pmf_ids(instance, group)[c, pos]
        rank = np.searchsorted(cells, t * n + j)
        parts.append((rank, pids, group.cons[c]))
        if overlaps:
            scopes = group.scopes[c]
            fixed.append((rank[:, None] * n + scopes)[scopes != j[:, None]])
    rank, pids, cons = (np.concatenate(cols) for cols in zip(*parts))
    order = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank, np.arange(cells.size + 1), sorter=order)
    memo = {}

    def median(k):
        cs = np.sort(cons[order[bounds[k]:bounds[k + 1]]])
        key = (cs.tobytes(), int(cells[k] % n))
        if key not in memo:
            memo[key] = _median_for([instance.constraints[i] for i in cs.tolist()], key[1])
        return memo[key]

    ids, id_rank = np.unique(pids, return_inverse=True)
    sigs = np.bincount(rank * ids.size + id_rank, minlength=cells.size * ids.size)
    sigs = sigs.reshape(cells.size, ids.size)
    if overlaps:
        # a (cell, fixed variable) pair seen twice: the supports overlap, so
        # the median depends on more than the pmfs; such a cell is a group
        # of its own, and the memo shares calls between equal ones
        pairs = np.sort(np.concatenate(fixed))
        overlap = np.unique(pairs[1:][pairs[1:] == pairs[:-1]] // n)
        sigs[overlap, 0] = -1 - overlap
    _, first, sig = np.unique(sigs, axis=0, return_index=True, return_inverse=True)
    meds = np.array([median(k) for k in first.tolist()])[sig.ravel()]
    return meds[:, 0], meds[:, 1]


def alg1_batch(
    instance: CspInstance, epsilon: float, rng, trials: int, check: bool = True
) -> np.ndarray:
    """Signed-majority rounding with randomized response on triangle-free
    instances; returns a (trials, n) int8 block, one independent run per
    row. Fixed variables are uniform; each greedy variable follows the sign
    of its summed constraint derivative against an exact median
    (randomized tie bias keeps the sign exactly unbiased), passed through
    randomized response at the full budget. Every output coordinate is
    marginally uniform.

    Draws, each one (trials, n) array: the greedy mask, the initial x, the
    tie draw and the keep draw. The fixed scope variables of an active
    constraint are not greedy, so every derivative reads the initial x;
    _greedy_medians gives the sums and their medians.
    """
    keep_prob = keep_probability(epsilon)
    if check and not is_triangle_free(instance):
        raise ValueError("alg1 requires a triangle-free instance")
    gen = as_generator(rng)
    n = instance.n
    greedy = gen.random((trials, n)) < 0.5
    x = signs_from_bits(gen.integers(0, 2, size=(trials, n)))
    sum2, theta2, gamma = _greedy_medians(instance, greedy, x, check)
    tie = gen.random((trials, n)) < gamma
    keep = gen.random((trials, n)) < keep_prob
    # z = +1 when s > theta, or s == theta and tie; y = +1 when keep; and
    # y * z = +1 exactly when the two agree
    agree = ((sum2 > theta2) | ((sum2 == theta2) & tie)) == keep
    # np.where(greedy, y * z, x) in bool algebra: np.where branches per
    # element and is several times slower on a random mask
    return signs_from_bits((greedy & agree) | (~greedy & (x > 0)))


def alg1_triangle_free_bounded(
    instance: CspInstance, epsilon: float, rng, check: bool = True
) -> np.ndarray:
    """One run of alg1: row 0 of alg1_batch with one trial."""
    return alg1_batch(instance, epsilon, rng, 1, check)[0]


def alg2_batch(
    instance: CspInstance,
    epsilon: float,
    rng,
    trials: int,
    subroutine: Callable | None = None,
    threshold: float | None = None,
    cap: int = 24,
) -> np.ndarray:
    """Noisy-degree split with an exponential mechanism on the high part;
    one independent run per row of the returned (trials, n) int8 block.

    Degrees are perturbed with Laplace(3k/epsilon) noise; variables above
    the threshold form the high set. One candidate assignment applies the
    exponential mechanism (budget epsilon/3, sensitivity 1) to the
    constraints contained in the high set and uniform values elsewhere;
    the other runs the subroutine on the whole instance at epsilon/3. A
    fair coin picks between them. The subroutine is a batch kernel,
    subroutine(instance, epsilon, gen, trials) -> (trials, n) block;
    alg1_batch by default.
    """
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg2 requires a sign-form instance")
    check_epsilon(epsilon, positive=True)
    gen = as_generator(rng)
    if subroutine is None:
        subroutine = alg1_batch
        if threshold is None:
            threshold = 10000.0 / epsilon ** 4
    elif threshold is None:
        threshold = 100.0 / epsilon ** 2
    degree_share, em_share, sub_share = UNBOUNDED_BUDGET_FRACTIONS
    high = noisy_high_mask(instance, epsilon, degree_share, threshold, gen, trials)
    x1 = em_on_part(instance, high, stage_budget(epsilon, em_share), gen, cap)
    x2 = np.asarray(subroutine(instance, stage_budget(epsilon, sub_share), gen, trials))
    if x2.shape != x1.shape or not np.all(np.abs(x2) == 1):
        raise ValueError(
            f"subroutine must return a {x1.shape} block of -1/+1 entries, got shape {x2.shape}"
        )
    return np.where((gen.random(trials) < 0.5)[:, None], x1, x2).astype(np.int8)


def alg2_partition_kxor(
    instance: CspInstance,
    epsilon: float,
    rng,
    subroutine: Callable | None = None,
    threshold: float | None = None,
    cap: int = 24,
) -> np.ndarray:
    """One run of alg2: row 0 of alg2_batch with one trial. A given
    subroutine is a single run, subroutine(instance, epsilon, gen) -> x."""
    batch = None
    if subroutine is not None:
        def batch(inst, eps, gen, trials):
            return as_assignment(subroutine(inst, eps, gen), inst.n)[None]
    return alg2_batch(instance, epsilon, rng, 1, batch, threshold, cap)[0]


@dataclass(frozen=True)
class AdvRandConfig:
    """Knobs for alg3_dp_advrand.

    scale fixes the keep-probability exponent (None draws it uniformly
    from 1..ceil(log2 k)); flip_index fixes the Chebyshev flip index r in
    0..k (None draws uniformly). global_sign selects the final step:
    'random-flip' negates the assignment with probability 1/2 (the stated
    step), 'argmax' picks the better of {x, -x} (NON-PRIVATE, diagnostic
    only), 'em-pair' spends sign_budget on a two-candidate exponential
    mechanism over {x, -x}. That budget comes on top of epsilon: with
    'em-pair', alg3 is (epsilon + sign_budget)-DP, and no budget ledger
    records the extra stage yet.
    """

    scale: int | None = None
    flip_index: int | None = None
    global_sign: str = "random-flip"
    sign_budget: float = 0.0

    def __post_init__(self) -> None:
        if self.global_sign not in ("random-flip", "argmax", "em-pair"):
            raise ValueError(f"unknown global_sign {self.global_sign!r}")
        if self.global_sign == "em-pair" and not self.sign_budget > 0:
            raise ValueError("em-pair needs a positive sign_budget")
        if self.scale is not None and self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.flip_index is not None and self.flip_index < 0:
            raise ValueError("flip_index must be >= 0")


def boost_scale(epsilon: float, m: int) -> float:
    """The tanh steepness used by the private boost: epsilon * sqrt(m) / 2."""
    return epsilon * math.sqrt(m) / 2.0


def private_boost(lambda_value, scale: float, rng, size=None):
    """Draws +-1 with Pr[+1] = (1 + tanh(scale * lambda_value)) / 2."""
    gen = as_generator(rng)
    p_plus = (1.0 + np.tanh(scale * np.asarray(lambda_value))) / 2.0
    draw = gen.random(size=size if size is not None else np.shape(lambda_value))
    out = np.where(draw < p_plus, 1, -1)
    if np.isscalar(lambda_value) and size is None:
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
    config: AdvRandConfig | None = None,
) -> np.ndarray:
    """Scaled advantage rounding with a private tanh boost; one independent
    run per row of the returned (trials, n) int8 block.

    Phase 1 keeps each variable with probability 2^-s and fixes the rest
    uniformly; phase 2 boosts each kept variable toward the sign of its
    normalized active-constraint sum; phase 3 flips kept coordinates with
    the Chebyshev bias (1 - cos(r pi / k) / 2) / 2; phase 4 applies the
    configured global sign step. Each row draws its own scale s, flip
    index r and global sign.
    """
    check_epsilon(epsilon)
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg3 requires a sign-form instance")
    if instance.m == 0:
        raise ValueError("alg3 requires at least one constraint")
    instance.require_distinct_scopes()
    config = config or AdvRandConfig()
    k = instance.max_arity
    if config.flip_index is not None and config.flip_index > k:
        raise ValueError(f"flip_index {config.flip_index} exceeds arity {k}")
    gen = as_generator(rng)
    n, m = instance.n, instance.m
    smax = max(1, math.ceil(math.log2(k)) if k > 1 else 1)
    if config.scale is not None:
        s = np.full(trials, config.scale)
    else:
        s = gen.integers(1, smax + 1, size=trials)
    keep = gen.random((trials, n)) < (2.0 ** -s)[:, None]
    x = signs_from_bits(gen.integers(0, 2, size=(trials, n)))
    lam = _kept_influence(instance, keep, x)
    x = np.where(keep, private_boost(lam, boost_scale(epsilon, m), gen), x)
    if config.flip_index is not None:
        r = np.full(trials, config.flip_index)
    else:
        r = gen.integers(0, k + 1, size=trials)
    eta = np.array([math.cos(i * math.pi / k) / 2.0 for i in range(k + 1)])[r]
    flip = gen.random((trials, n)) < ((1.0 - eta) / 2.0)[:, None]
    x = np.where(keep & flip, -x, x).astype(np.int8)
    if config.global_sign == "random-flip":
        negate = gen.random(trials) < 0.5
    elif config.global_sign == "argmax":
        negate = eval_value(instance, -x) > eval_value(instance, x)
    else:
        values = np.stack([eval_value(instance, x), eval_value(instance, -x)], axis=1)
        negate = np.array([
            exponential_mechanism((False, True), v, config.sign_budget, 1.0, gen)
            for v in values
        ], dtype=bool)
    return np.where(negate[:, None], -x, x).astype(np.int8)


def alg3_dp_advrand(
    instance: CspInstance,
    epsilon: float,
    rng,
    config: AdvRandConfig | None = None,
) -> np.ndarray:
    """One run of alg3: row 0 of alg3_batch with one trial."""
    return alg3_batch(instance, epsilon, rng, 1, config)[0]


def alg_oddk_batch(
    instance: CspInstance,
    epsilon: float,
    rng,
    trials: int,
    threshold_const: float = 100.0,
    config: AdvRandConfig | None = None,
) -> np.ndarray:
    """Odd-arity unbounded-degree wrapper: the degree-split pipeline with
    the advantage-rounding subroutine and threshold threshold_const/eps^2;
    one independent run per row of the returned (trials, n) int8 block."""
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg_oddk requires a sign-form instance")
    k = instance.max_arity
    if k % 2 == 0:
        raise ValueError("alg_oddk requires odd arity; use alg2_partition_kxor")
    check_epsilon(epsilon, positive=True)

    def subroutine(inst, eps, gen, sub_trials):
        return alg3_batch(inst, eps, gen, sub_trials, config=config)

    return alg2_batch(
        instance,
        epsilon,
        rng,
        trials,
        subroutine=subroutine,
        threshold=threshold_const / epsilon ** 2,
    )


def alg_oddk_unbounded(
    instance: CspInstance,
    epsilon: float,
    rng,
    threshold_const: float = 100.0,
    config: AdvRandConfig | None = None,
) -> np.ndarray:
    """One run of alg_oddk: row 0 of alg_oddk_batch with one trial."""
    return alg_oddk_batch(instance, epsilon, rng, 1, threshold_const, config)[0]
