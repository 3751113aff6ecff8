"""Private CSP algorithms.

Every algorithm is one batch kernel, its only entry point, that returns a
(trials, n) int8 block, one independent run per row; a single run is
kernel(..., 1)[0].

- alg1_batch: greedy signed-majority rounding with randomized response,
  for triangle-free instances, against exact medians that one cached
  routine (_median2) computes from the laws the constraint groups' arrays
  give.
- alg2_batch: the degree-split pipeline (dp_mechanisms.degree_split_batch)
  with alg1 as its subroutine.
- alg3_batch: scaled keep-set selection, per-variable private boost with a
  tanh marginal, and a Chebyshev-bias coordinate flip.
- alg_oddk_batch: the degree-split pipeline with alg3 as its subroutine,
  for odd arity.

The kernels read an instance's constraint-group arrays only: none builds
its Constraint view or calls privcsp.oracles, so that the oracles
(exact_median_theta among them) stay independent checks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .csp_core import (
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

__all__ = [
    "boost_scale",
    "private_boost",
    "alg1_batch",
    "alg2_batch",
    "alg3_batch",
    "alg_oddk_batch",
]


# A law (neg, zero, pos) gives twice a term's derivative_q the values -1,
# 0 and +1 with odds neg : zero : pos (see _term_laws); it is packed into
# one integer, neg << 42 | zero << 21 | pos, as each count is at most
# 2^ARITY_CAP < 2^21. A parity of arity >= 2 has the law (1, 0, 1) at any
# scope position and for either sign.
_LAW_MASK = (1 << 21) - 1
_PARITY_LAW = 1 << 42 | 1


@functools.lru_cache(maxsize=None)
def _median2(multiset: tuple[tuple[int, int], ...]) -> tuple[int, float]:
    """(theta2, gamma) of a sum of independent terms whose packed laws make
    up multiset, sorted (law, count) pairs, so that one multiset is one
    cache entry: twice the sum's exact median, its first value whose cdf
    reaches 1/2, and the tie bias gamma = (1/2 - P[> median]) / P[= median]
    that makes the three-way comparison exactly unbiased.

    The sum's law over -q..q, for q terms, is the product of the laws as
    integer polynomials, so gamma is a ratio of exact integers rounded once
    to float, as exact_median_theta's float(Fraction) is.
    """
    pmf = [1]
    for law, count in multiset:
        neg, zero, pos = law >> 42, law >> 21 & _LAW_MASK, law & _LAW_MASK
        for _ in range(count):
            pmf = [neg * a + zero * b + pos * c
                   for a, b, c in zip(pmf + [0, 0], [0] + pmf + [0], [0, 0] + pmf)]
    cdf = list(itertools.accumulate(pmf))
    i = bisect.bisect_left(cdf, (cdf[-1] + 1) // 2)  # the first 2 * cdf >= total
    # (1/2 - (total - cdf) / total) / (pmf / total)
    return i - len(pmf) // 2, (2 * cdf[i] - cdf[-1]) / (2 * pmf[i])


def _term_laws(group: ConstraintGroup, c: np.ndarray, pos: np.ndarray, columns: dict):
    """The column in columns, a dict from packed law to column that gains
    each law it lacks, of the law of each term (constraint row c, scope
    position pos) of a group: the counts of twice its derivative_q being
    -1, 0 and +1 over the settings of the other scope variables, divided by
    the largest power of two that divides all three, so that one law has
    one code. A parity group of arity >= 2 has one law, returned as one
    scalar; a parity of arity 1 has the table (b == -1, b == +1)."""
    if group.signs is not None and group.arity >= 2:
        return columns.setdefault(_PARITY_LAW, len(columns))
    if group.tables is not None:
        tables = group.tables[c]
    else:
        tables = np.stack((group.signs[c] < 0, group.signs[c] > 0), axis=1).astype(np.int8)
    # over all 2^arity settings s, each setting of the others is seen twice
    s, bit, rows = np.arange(1 << group.arity), (1 << pos)[:, None], np.arange(c.size)[:, None]
    q2 = tables[rows, s | bit] - tables[rows, s & ~bit]
    laws = np.stack([(q2 == v).sum(axis=1) for v in (-1, 0, 1)], axis=1).astype(np.int64)
    common = np.bitwise_or.reduce(laws, axis=1)
    laws //= (common & -common)[:, None]
    distinct, inverse = np.unique(laws[:, 0] << 42 | laws[:, 1] << 21 | laws[:, 2],
                                  return_inverse=True)
    ids = [columns.setdefault(law, len(columns)) for law in distinct.tolist()]
    return np.array(ids, dtype=np.intp)[inverse]


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

    On a triangle-free instance the active constraints of a cell share
    only j, so their terms are independent and the multiset of their laws
    (_term_laws) fixes the median: a cell's multiset is its count of each
    law, and cells with one multiset share one _median2 call. When one law
    is seen, as on a parity instance, its count names the multiset and
    nothing is sorted.
    """
    n = greedy.shape[1]
    columns: dict[int, int] = {}
    flat, q2s, laws = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int8)], []
    for group, t, c, pos, j, q2 in _single_hit_terms(instance, greedy, x):
        flat.append(t * n + j)
        q2s.append(q2)
        laws.append(_term_laws(group, c, pos, columns))
    sizes = [part.size for part in flat[1:]]
    flat, q2s = np.concatenate(flat), np.concatenate(q2s)
    if np.all(flat[1:] > flat[:-1]):  # one term per cell, in cell order
        cells, rank = flat, np.arange(flat.size)
    else:
        cells, rank = np.unique(flat, return_inverse=True)
    sum2 = np.bincount(rank, weights=q2s, minlength=cells.size).astype(np.int32)
    width = max(len(columns), 1)
    counts, start = np.zeros((cells.size, width), dtype=np.int32), 0
    for law, size in zip(laws, sizes):
        part, start = rank[start:start + size], start + size
        counts += np.bincount(part * width + law, minlength=counts.size).reshape(counts.shape)
    if width == 1:  # the distinct counts, and each cell's rank among them
        seen = np.bincount(counts[:, 0]) > 0
        rows, key = np.flatnonzero(seen)[:, None], (np.cumsum(seen) - 1)[counts[:, 0]]
    else:
        rows, key = np.unique(counts, axis=0, return_inverse=True)
    medians = [_median2(tuple(sorted((law, k) for law, k in zip(columns, row) if k)))
               for row in rows.tolist()]
    key = key.reshape(-1)
    theta2 = np.array([med[0] for med in medians], dtype=np.int32)[key]
    return cells, sum2, theta2, np.array([med[1] for med in medians], dtype=np.float64)[key]


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
