"""Private CSP algorithms.

Four entry points:

- alg1_triangle_free_bounded: greedy signed-majority rounding with
  randomized response, for triangle-free instances.
- alg2_partition_kxor: noisy degree split, exponential mechanism on the
  high-degree part, a low-degree subroutine on the whole instance, and a
  fair coin between the two candidates.
- alg3_dp_advrand: scaled keep-set selection, per-variable private boost
  with a tanh marginal, and a Chebyshev-bias coordinate flip.
- alg_oddk_unbounded: the odd-arity wrapper combining alg2 with alg3.

A vectorized multi-trial variant of alg1 (alg1_batch) is provided for
Monte-Carlo experiments and audits on sign-form instances.
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
    degrees,
    constraint_groups,
    eval_value,
    is_triangle_free,
    signs_from_bits,
)
from .dp_mechanisms import (
    as_generator,
    check_epsilon,
    em_over_assignments,
    exponential_mechanism,
    keep_probability,
    sample_laplace,
)
from .oracles import _constraint_q_pmf, exact_median_theta

__all__ = [
    "AdvRandConfig",
    "boost_scale",
    "private_boost",
    "alg1_triangle_free_bounded",
    "alg1_batch",
    "alg2_partition_kxor",
    "alg3_dp_advrand",
    "alg_oddk_unbounded",
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


def _single_hits(instance: CspInstance, mask: np.ndarray):
    """Yields (group, rows, positions, variables) for each constraint group:
    the rows whose scope holds exactly one variable of `mask`, that
    variable's scope position, and the variable."""
    for group in constraint_groups(instance):
        hits = mask[group.scopes]
        rows = np.flatnonzero(hits.sum(axis=1) == 1)
        pos = hits[rows].argmax(axis=1)
        yield group, rows, pos, group.scopes[rows, pos]


def _greedy_terms(instance: CspInstance, greedy: np.ndarray, x: np.ndarray):
    """(constraint, variable, derivative, pmf id) of every constraint with
    exactly one greedy scope variable j: its derivative_q at j with the
    other scope variables read from x, and the id of its derivative pmf.
    Also each (j, fixed variable) pair of those constraints, coded j*n + i."""
    parts = []
    for group, rows, pos, j in _single_hits(instance, greedy):
        if group.signs is not None:
            # b times the product over the scope without j: x_j is +-1, so
            # multiplying it in again divides it out
            q = group.signs[rows] * group.products(x)[rows] * x[j] / 2
        else:
            idx = group.table_index(x)[rows]
            tables = group.tables[rows]
            k = np.arange(rows.size)
            q = (tables[k, idx | (1 << pos)] - tables[k, idx & ~(1 << pos)]) / 2
        pids = _group_pmf_ids(instance, group)[rows, pos]
        scopes = group.scopes[rows]
        fixed = (j[:, None] * instance.n + scopes)[scopes != j[:, None]]
        parts.append((group.cons[rows], j, q, pids, fixed))
    if not parts:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0), empty, empty
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _greedy_medians(instance: CspInstance, cons, var, pids, fixed, n: int):
    """(theta, gamma) per variable: _median_for of each variable's active
    constraints, (0, 1/2) without any. Variables whose active constraints
    have the same multiset of pmf ids and pairwise disjoint fixed supports
    share one _median_for call; `fixed` holds the (j, fixed variable) pairs
    from _greedy_terms."""
    theta, gamma = np.zeros(n), np.full(n, 0.5)
    if var.size == 0:
        return theta, gamma

    def median(j):
        cs = [instance.constraints[c] for c in np.sort(cons[var == j])]
        return _median_for(cs, int(j))

    ids, rank = np.unique(pids, return_inverse=True)
    counts = np.bincount(var * ids.size + rank, minlength=n * ids.size).reshape(n, ids.size)
    # a (j, fixed variable) pair seen twice: j's fixed supports overlap
    pairs = np.sort(fixed)
    overlap = np.unique(pairs[1:][pairs[1:] == pairs[:-1]] // n)
    for j in overlap:
        theta[j], gamma[j] = median(j)
    counts[overlap] = 0
    # runs of equal rows of pmf-id counts share a median; zero rows keep (0, 1/2)
    order = np.lexsort(counts.T)
    ranked = counts[order]
    starts = np.flatnonzero(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)])
    for start, stop in zip(starts.tolist(), starts[1:].tolist() + [n]):
        if ranked[start].any():
            js = order[start:stop]
            theta[js], gamma[js] = median(order[start])
    return theta, gamma


def alg1_triangle_free_bounded(
    instance: CspInstance, epsilon: float, rng, check: bool = True
) -> np.ndarray:
    """Signed-majority rounding with randomized response on triangle-free
    instances. Fixed variables are uniform; each greedy variable follows
    the sign of its summed constraint derivative against an exact median
    (randomized tie bias keeps the sign exactly unbiased), passed through
    randomized response at the full budget. Every output coordinate is
    marginally uniform.
    """
    keep_prob = keep_probability(epsilon)
    if check and not is_triangle_free(instance):
        raise ValueError("alg1 requires a triangle-free instance")
    gen = as_generator(rng)
    n = instance.n
    greedy = gen.random(n) < 0.5
    x = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    # the fixed scope variables of an active constraint are not greedy, so
    # every derivative reads the initial x; sums of +-1/2 are exact
    cons, var, q, pids, fixed = _greedy_terms(instance, greedy, x)
    sum_q = np.bincount(var, weights=q, minlength=n)
    theta, gamma = _greedy_medians(instance, cons, var, pids, fixed, n)
    js = np.flatnonzero(greedy)
    s, th = sum_q[js], theta[js]
    tie = (s == th).astype(np.intp)
    # in ascending j: a tie draw on a tie, then the keep draw; one vector
    # draw yields the same doubles as those scalar draws
    first = np.cumsum(1 + tie) - (1 + tie)
    u = gen.random(js.size + int(tie.sum()))
    z = np.where(s > th, 1, np.where(s < th, -1, np.where(u[first] < gamma[js], 1, -1)))
    y = np.where(u[first + tie] < keep_prob, 1, -1)
    x[js] = y * z
    return x


def alg1_batch(
    instance: CspInstance, epsilon: float, rng, trials: int, check: bool = True
) -> np.ndarray:
    """Vectorized alg1 for sign-form instances of arity >= 2; returns a
    (trials, n) int8 matrix of assignments, one independent run per row.

    Draws, each one (trials, n) array: the greedy mask, the initial x, the
    tie draw and the keep draw. Medians come from the closed-form table
    _xor_median_by_count, built up to the largest count of active
    constraints any greedy variable has.
    """
    keep_prob = keep_probability(epsilon)
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg1_batch requires a sign-form instance")
    if any(c.arity < 2 for c in instance.constraints):
        raise ValueError("alg1_batch requires arity >= 2 throughout")
    if check and not is_triangle_free(instance):
        raise ValueError("alg1 requires a triangle-free instance")
    gen = as_generator(rng)
    n = instance.n
    greedy = gen.random((trials, n)) < 0.5
    x = signs_from_bits(gen.integers(0, 2, size=(trials, n)))
    # per variable: twice its summed derivative, and its number of active
    # constraints (those whose only greedy scope variable it is)
    sum2 = np.zeros((trials, n), dtype=np.intp)
    count = np.zeros((trials, n), dtype=np.intp)
    for c in instance.constraints:
        scope = list(c.scope)
        gsub = greedy[:, scope]
        single = gsub.sum(axis=1) == 1
        # b times the product over the scope; times x_j (+-1) it is b times
        # the product over the scope without j
        prod = c.b * x[:, scope].prod(axis=1)
        for p, j in enumerate(scope):
            hit = gsub[:, p] & single
            sum2[:, j] += hit * prod * x[:, j]
            count[:, j] += hit
    thetas, gammas = _xor_median_by_count(int(count.max(initial=0)))
    theta2 = (2 * thetas).astype(np.intp)[count]
    tie = gen.random((trials, n)) < gammas[count]
    keep = gen.random((trials, n)) < keep_prob
    # z = +1 when s > theta, or s == theta and tie; y = +1 when keep; and
    # y * z = +1 exactly when the two agree
    agree = ((sum2 > theta2) | ((sum2 == theta2) & tie)) == keep
    # np.where(greedy, y * z, x) in bool algebra: np.where branches per
    # element and is several times slower on a random mask
    return signs_from_bits((greedy & agree) | (~greedy & (x > 0)))


def alg2_partition_kxor(
    instance: CspInstance,
    epsilon: float,
    rng,
    subroutine: Callable | None = None,
    threshold: float | None = None,
    cap: int = 24,
) -> np.ndarray:
    """Noisy-degree split with an exponential mechanism on the high part.

    Degrees are perturbed with Laplace(3k/epsilon) noise; variables above
    the threshold form the high set. One candidate assignment applies the
    exponential mechanism (budget epsilon/3, sensitivity 1) to the
    constraints contained in the high set and uniform values elsewhere;
    the other runs the subroutine on the whole instance at epsilon/3. A
    fair coin picks between them.
    """
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg2 requires a sign-form instance")
    check_epsilon(epsilon, positive=True)
    gen = as_generator(rng)
    k = max(instance.max_arity, 1)
    if subroutine is None:
        subroutine = alg1_triangle_free_bounded
        if threshold is None:
            threshold = 10000.0 / epsilon ** 4
    elif threshold is None:
        threshold = 100.0 / epsilon ** 2
    noisy = degrees(instance) + sample_laplace(3.0 * k / epsilon, gen, size=instance.n)
    high = np.flatnonzero(noisy > threshold)
    x1 = (2 * gen.integers(0, 2, size=instance.n) - 1).astype(np.int8)
    if high.size:
        x1[high] = em_over_assignments(
            instance, high.tolist(), epsilon / 3.0, 1.0, gen, cap=cap
        )
    x2 = as_assignment(subroutine(instance, epsilon / 3.0, gen), instance.n)
    return x1 if gen.random() < 0.5 else x2


@dataclass(frozen=True)
class AdvRandConfig:
    """Knobs for alg3_dp_advrand.

    scale fixes the keep-probability exponent (None draws it uniformly
    from 1..ceil(log2 k)); flip_index fixes the Chebyshev flip index r in
    0..k (None draws uniformly). global_sign selects the final step:
    'random-flip' negates the assignment with probability 1/2 (the stated
    step), 'argmax' picks the better of {x, -x} (NON-PRIVATE, diagnostic
    only), 'em-pair' spends sign_budget on a two-candidate exponential
    mechanism over {x, -x}.
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
    """Per variable j, the sum over the constraints whose scope holds j and
    no other kept variable of b times the product of x over the rest of
    the scope, over sqrt(m); 0 for the others. Terms are added in
    constraint order, starting from 0.0."""
    sqrt_m = math.sqrt(instance.m)
    cons, var, terms = [], [], []
    for group, rows, _, j in _single_hits(instance, keep):
        # multiplying x_j (+-1) into the scope product again divides it out
        cons.append(group.cons[rows])
        var.append(j)
        terms.append(group.signs[rows] * group.products(x)[rows] * x[j] / sqrt_m)
    order = np.argsort(np.concatenate(cons))
    # bincount adds each variable's weights in the order given
    return np.bincount(
        np.concatenate(var)[order], weights=np.concatenate(terms)[order], minlength=instance.n
    )


def alg3_dp_advrand(
    instance: CspInstance,
    epsilon: float,
    rng,
    config: AdvRandConfig | None = None,
) -> np.ndarray:
    """Scaled advantage rounding with a private tanh boost.

    Phase 1 keeps each variable with probability 2^-s and fixes the rest
    uniformly; phase 2 boosts each kept variable toward the sign of its
    normalized active-constraint sum; phase 3 flips kept coordinates with
    the Chebyshev bias (1 - cos(r pi / k) / 2) / 2; phase 4 applies the
    configured global sign step.
    """
    check_epsilon(epsilon)
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg3 requires a sign-form instance")
    if instance.m == 0:
        raise ValueError("alg3 requires at least one constraint")
    instance.require_distinct_scopes()
    config = config or AdvRandConfig()
    gen = as_generator(rng)
    n, m = instance.n, instance.m
    k = instance.max_arity
    smax = max(1, math.ceil(math.log2(k)) if k > 1 else 1)
    s = config.scale if config.scale is not None else int(gen.integers(1, smax + 1))
    keep = gen.random(n) < 2.0 ** (-s)
    x = (2 * gen.integers(0, 2, size=n) - 1).astype(np.int8)
    scale = boost_scale(epsilon, m)
    kept = np.flatnonzero(keep)
    lam = _kept_influence(instance, keep, x)
    # one vector draw yields the same doubles as one scalar draw per kept j
    x[kept] = private_boost(lam[kept], scale, gen)
    r = (
        config.flip_index
        if config.flip_index is not None
        else int(gen.integers(0, k + 1))
    )
    if r > k:
        raise ValueError(f"flip_index {r} exceeds arity {k}")
    eta = math.cos(r * math.pi / k) / 2.0
    flip = gen.random(n) < (1.0 - eta) / 2.0
    x = np.where(keep & flip, -x, x).astype(np.int8)
    if config.global_sign == "random-flip":
        if gen.random() < 0.5:
            x = (-x).astype(np.int8)
    elif config.global_sign == "argmax":
        if eval_value(instance, -x) > eval_value(instance, x):
            x = (-x).astype(np.int8)
    else:
        x = np.asarray(
            exponential_mechanism(
                [x, (-x).astype(np.int8)],
                lambda cand: eval_value(instance, cand),
                config.sign_budget,
                1.0,
                gen,
            )
        )
    return x


def alg_oddk_unbounded(
    instance: CspInstance,
    epsilon: float,
    rng,
    threshold_const: float = 100.0,
    config: AdvRandConfig | None = None,
) -> np.ndarray:
    """Odd-arity unbounded-degree wrapper: the degree-split pipeline with
    the advantage-rounding subroutine and threshold threshold_const/eps^2."""
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg_oddk requires a sign-form instance")
    k = instance.max_arity
    if k % 2 == 0:
        raise ValueError("alg_oddk requires odd arity; use alg2_partition_kxor")
    check_epsilon(epsilon, positive=True)

    def subroutine(inst, eps, gen):
        return alg3_dp_advrand(inst, eps, gen, config=config)

    return alg2_partition_kxor(
        instance,
        epsilon,
        rng,
        subroutine=subroutine,
        threshold=threshold_const / epsilon ** 2,
    )
