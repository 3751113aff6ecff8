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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .csp_core import (
    Constraint,
    CspInstance,
    as_assignment,
    degrees,
    derivative_q,
    eval_value,
    is_triangle_free,
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
    """(theta, gamma) arrays indexed by the number of active sign-form
    constraints of arity >= 2, via the exact-median oracle on stand-ins."""
    thetas = np.zeros(max_count + 1)
    gammas = np.full(max_count + 1, 0.5)
    for q in range(1, max_count + 1):
        stand_ins = [Constraint(scope=(0, i + 1), b=1) for i in range(q)]
        thetas[q], gammas[q] = _median_for(stand_ins, 0)
    return thetas, gammas


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
    active: dict[int, list[Constraint]] = {}
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


def alg1_batch(
    instance: CspInstance, epsilon: float, rng, trials: int, check: bool = True
) -> np.ndarray:
    """Vectorized alg1 for sign-form instances of arity >= 2; returns a
    (trials, n) matrix of assignments, one independent run per row."""
    keep_prob = keep_probability(epsilon)
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("alg1_batch requires a sign-form instance")
    if any(c.arity < 2 for c in instance.constraints):
        raise ValueError("alg1_batch requires arity >= 2 throughout")
    if check and not is_triangle_free(instance):
        raise ValueError("alg1 requires a triangle-free instance")
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
        # product over scope minus the greedy variable: divide out its +-1 value
        q = 0.5 * c.b * prod_all * x[rows, jcol]
        np.add.at(sum_q, (rows, jcol), q)
        np.add.at(count, (rows, jcol), 1)
    thetas, gammas = _xor_median_by_count(m)
    theta = thetas[count]
    gamma = gammas[count]
    tie = gen.random((trials, n)) < gamma
    z = np.where(sum_q > theta, 1, np.where(sum_q < theta, -1, np.where(tie, 1, -1)))
    y = np.where(gen.random((trials, n)) < keep_prob, 1, -1)
    return np.where(greedy, y * z, x).astype(np.int8)


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
    kept_set = set(int(j) for j in kept)
    sqrt_m = math.sqrt(m)
    lam = np.zeros(n)
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
