"""Seedable privacy primitives with exact, auditable output laws, and the
stages the algorithms compose them into.

Every mechanism draws from a numpy Generator. RngStream wraps a
(seed, stream) pair that reproduces draws bit-for-bit across runs;
concurrent trials must use distinct stream ids. Every fair coin and
uniform sign the kernels draw comes from fair_signs, one random bit per
entry unpacked from random bytes.

The exponential mechanism has two forms on one CDF function (_em_cdf):
exponential_mechanism draws one candidate index per row of a (trials, k)
score block, and em_over_assignments_batch draws (trials, |active|)
blocks over all sign assignments of a variable set. The one noise
primitive, noisy_above, draws value + Z > threshold for integer Laplace
noise Z as one uniform per entry against the exact tail, for the degree
stage and dp_shearer; sample_discrete_laplace draws Z itself, the law the
primitive is tested against. The noisy-degree split works on (trials, n)
blocks, one run per row: noisy_high_mask (the degree stage) and
em_on_part (the exponential mechanism on each row's part) make up
noisy_degree_split, the one helper that alg6 and degree_split_batch (the
unbounded-degree pipeline of alg2, alg_oddk and alg5) both call. The
share tables give each stage its part of epsilon, budget_ledger lists
them per ALGORITHMS id, and threshold_power rejects an epsilon whose
degree-threshold power underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .csp_core import (
    CspInstance,
    ResourceCapError,
    all_values,
    assignment_rows,
    degrees,
)

EM_ENUMERATION_CAP = 24
# Shares of epsilon of the degree-split algorithms' stages, in stage order;
# each table sums to 1, and every stage spends stage_budget(epsilon, share).
UNBOUNDED_BUDGET_FRACTIONS = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
GENERAL_BUDGET_FRACTIONS = (Fraction(1, 6), Fraction(1, 6), Fraction(1, 6), Fraction(1, 2))
# ALGORITHMS id -> (shares, stage names)
_LEDGERS = {
    "alg2": (UNBOUNDED_BUDGET_FRACTIONS, "degree-noise high-part-em subroutine"),
    "alg_oddk": (UNBOUNDED_BUDGET_FRACTIONS, "degree-noise high-part-em subroutine"),
    "alg5": (UNBOUNDED_BUDGET_FRACTIONS, "degree-noise high-part-em dp-shearer"),
    "alg6": (GENERAL_BUDGET_FRACTIONS, "degree-noise high-part-em matching-em final-selection"),
}

__all__ = [
    "EM_ENUMERATION_CAP",
    "RngStream",
    "as_generator",
    "fair_signs",
    "sample_discrete_laplace",
    "noisy_above",
    "check_epsilon",
    "check_alpha",
    "keep_probability",
    "randomized_response",
    "exponential_mechanism",
    "em_over_assignments_batch",
    "UNBOUNDED_BUDGET_FRACTIONS",
    "GENERAL_BUDGET_FRACTIONS",
    "stage_budget",
    "threshold_power",
    "budget_ledger",
    "noisy_high_mask",
    "em_on_part",
    "noisy_degree_split",
    "degree_split_batch",
]


@dataclass(frozen=True)
class RngStream:
    """Reproducible RNG handle: identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed, self.stream)))
        )


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError(f"expected Generator or RngStream, got {type(rng)!r}")


def fair_signs(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A C-ordered, writeable int8 block of the given shape of iid fair
    +-1 signs: one bit each, unpacked from ceil(size / 8) uint8 draws of
    gen.integers(0, 256), which read 32 random bits per 4 bytes under any
    bit generator (a raw MT19937 word holds only 32)."""
    size = math.prod(shape)
    packed = gen.integers(0, 256, size=-(-size // 8), dtype=np.uint8)
    out = np.unpackbits(packed, count=size).view(np.int8).reshape(shape)
    out *= 2
    out -= 1
    return out


def sample_discrete_laplace(epsilon: float, rng, size) -> np.ndarray:
    """An int64 array of shape size of integer draws, each with mass
    (e^eps - 1)/(e^eps + 1) * e^{-eps|x|}.

    One uniform decides zero versus sign; an unconditional geometric draw
    supplies the magnitude, so every sample consumes exactly two draws: the
    int64 magnitude times the sign (u >= p0) - 2 (u >= mid), 0, 1 or -1. An
    epsilon so small that 1 - e^-eps rounds to 0 (below about 4.5e-17) is
    rejected with a ValueError before any draw.
    """
    q = _laplace_q(epsilon)
    gen = as_generator(rng)
    p_zero = (1.0 - q) / (1.0 + q)
    mid = p_zero + (1.0 - p_zero) / 2.0
    u = gen.random(size=size)
    magnitude = gen.geometric(1.0 - q, size=size)
    # in place on the fresh magnitude array, with an int8 sign
    sign = (u >= p_zero).astype(np.int8)
    sign -= 2 * (u >= mid).astype(np.int8)
    magnitude *= sign
    return magnitude


def _laplace_q(epsilon: float) -> float:
    """e^-epsilon for integer Laplace noise at parameter epsilon; ValueError
    where check_epsilon refuses epsilon or 1 - e^-epsilon rounds to 0."""
    check_epsilon(epsilon, positive=True)
    q = np.exp(-epsilon)
    if 1.0 - q == 0.0:
        raise ValueError(
            f"epsilon = {epsilon} is too small for the discrete-Laplace sampler: "
            "1 - exp(-epsilon) rounds to 0"
        )
    return q


def _small_tail(values, threshold: float, param: float) -> np.ndarray:
    """P[value + Z > threshold] for integer values and Z integer Laplace at
    param where value <= threshold, one minus it elsewhere: with q = e^-param
    and m = floor(threshold) + 1 - value (a float: no threshold overflows),
    P[Z >= m] is q^m / (1 + q) for m >= 1 and 1 - q^(1 - m) / (1 + q) else."""
    q = _laplace_q(param)
    m = np.floor(threshold) + 1.0 - np.asarray(values)
    return np.exp(-param * np.where(m >= 1, m, 1 - m)) / (1.0 + q)


def noisy_above(values, threshold: float, param: float, rng, shape) -> np.ndarray:
    """The bool block of the given shape marking value + Z > threshold, for
    integer values that broadcast to shape and Z iid integer Laplace noise at
    param (sample_discrete_laplace's law, and its parameter floor, checked
    before any draw). One gen.random double per entry is compared with the
    small side of the exact tail (_small_tail), flipped where the value alone
    is above, so a tiny tail is never lost to 1 - tiny rounding. The tail is
    taken once per integer from min(0, values) to max(0, values) and
    gathered, or once per value where that range outnumbers the values."""
    values = np.asarray(values)
    lo, hi = int(values.min(initial=0)), int(values.max(initial=0))
    if hi - lo < values.size:
        # entry k holds value k's tail, and a negative value's entry counts
        # from the end, so the values index the table as they are
        ks = np.concatenate((np.arange(hi + 1), np.arange(lo, 0)))
        small = _small_tail(ks, threshold, param)[values]
    else:
        small = _small_tail(values, threshold, param)
    above = as_generator(rng).random(shape) < small
    above ^= values > threshold
    return above


def check_epsilon(epsilon: float, name: str = "epsilon", positive: bool = False) -> None:
    """Raises ValueError unless epsilon is a finite, nonnegative budget, and
    with `positive` also nonzero. nan compares false everywhere, so a bare
    `epsilon < 0` check lets it (and inf) pass as a valid budget; a bare
    `not epsilon > 0` check lets inf pass."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {epsilon}")
    if positive and epsilon == 0:
        raise ValueError(f"{name} must be positive, got {epsilon}")


def check_alpha(alpha: float) -> None:
    """Raises ValueError unless alpha, alg6's subsampling exponent (rate
    eps^(1+alpha)/70), is finite and nonnegative; check_epsilon's rule."""
    check_epsilon(alpha, "alpha")


def keep_probability(epsilon: float) -> float:
    """Randomized-response keep probability e^eps / (1 + e^eps), computed as
    1 / (1 + e^-eps): the direct form is inf / inf = nan from eps ~ 710 on.

    Rejects negative and non-finite eps (see check_epsilon).
    """
    check_epsilon(epsilon)
    return 1.0 / (1.0 + math.exp(-epsilon))


def randomized_response(bits, epsilon: float, rng) -> np.ndarray:
    """Keeps each entry of a +-1 array with probability
    keep_probability(eps) and negates it otherwise; one uniform per entry.
    Returns an array of the input's shape and dtype.
    """
    keep_prob = keep_probability(epsilon)
    gen = as_generator(rng)
    arr = np.asarray(bits)
    if not np.all((arr == -1) | (arr == 1)):
        raise ValueError("input values must lie in [-1, 1]")
    keep = gen.random(size=arr.shape) < keep_prob
    return np.where(keep, arr, -arr)


def _em_cdf(scores: np.ndarray, epsilon: float, sensitivity: float) -> np.ndarray:
    """Cumulative selection probabilities along the last axis of candidates
    with weight exp(epsilon * score / (2 * sensitivity)), in candidate order.
    The weights are taken of the scores minus their maximum, so no product
    overflows: at any epsilon the maximizers weigh exactly 1, and as epsilon
    grows the law tends to the uniform one over them. At epsilon = 0 every
    weight is 1, also where the spread of a row overflows to inf."""
    if epsilon == 0:
        w = np.ones_like(scores)
    else:
        with np.errstate(over="ignore"):  # a huge epsilon or spread gives a loser exp(-inf) = 0
            w = scores - scores.max(axis=-1, keepdims=True)
            w *= epsilon / (2.0 * sensitivity)
        np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w.cumsum(axis=-1)


def _cdf_count(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of entries <= u of each nondecreasing CDF along the last
    axis of cdf: one (k,) CDF for every u, or one per row of a (trials, k)
    block. With k <= 16 and at least 256 * k uniforms, each column is one
    pass over u, whose per-pass call cost is then amortized; otherwise a
    1-D table is searched with np.searchsorted, a block compared whole."""
    k = cdf.shape[-1]
    if k <= 16 and u.size >= 256 * k:
        idx = np.zeros(u.shape, dtype=np.intp)
        for c in range(k):
            idx += u >= cdf[..., c]
        return idx
    if cdf.ndim == 1:
        return np.searchsorted(cdf, u, side="right")
    return (cdf <= u[:, None]).sum(axis=1)


def exponential_mechanism(scores, epsilon: float, sensitivity: float, rng) -> np.ndarray:
    """Row-wise exponential mechanism over a (trials, k) block of candidate
    scores: the returned (trials,) int64 vector holds one candidate index per
    row, drawn with weight exp(epsilon * score / (2 * sensitivity)) by
    inverse CDF on one gen.random double per row. Ties are broken by that
    uniform, never by candidate index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] == 0:
        raise ValueError(
            f"scores must be a (trials, k) block with k >= 1 candidates, got shape {scores.shape}"
        )
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    check_epsilon(epsilon)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    cdf = _em_cdf(scores, epsilon, sensitivity)
    idx = _cdf_count(cdf, as_generator(rng).random(scores.shape[0]))
    return np.minimum(idx, scores.shape[1] - 1)


def em_over_assignments_batch(
    problem: CspInstance,
    active: Sequence[int],
    budget: float,
    sensitivity: float,
    rng,
    trials: int,
) -> np.ndarray:
    """Exponential mechanism over all sign assignments of `active`, one
    independent draw per row of the returned (trials, |active|) int8 array.

    Scores are values of the sub-problem induced on `active`; the sampled
    weight of assignment a is exp(budget * value(a) / (2 * sensitivity)).
    Column i of a row is the sign of variable active[i]. An empty active
    set returns a (trials, 0) array without consuming randomness; a
    nonempty one reads one gen.random double per row.

    The CDF over the 2^|active| assignments is memoized in one slot on the
    problem object (`problem._em_cdf_memo`), keyed by
    (tuple(active), budget, sensitivity). A repeat call with the same key
    skips the table and draws from the stored CDF: the same `gen.random`
    doubles give the same rows. A call with another key replaces the entry,
    so each instance holds at most one CDF, and it is freed with the
    instance. Instances are immutable, so the entry never goes stale. The
    budget, sensitivity and cap checks run on every call; the cap is
    EM_ENUMERATION_CAP, read at call time.
    """
    check_epsilon(budget, "budget")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    active = list(active)
    if len(active) == 0:
        return np.empty((trials, 0), dtype=np.int8)
    if len(active) > EM_ENUMERATION_CAP:
        raise ResourceCapError(
            f"em_over_assignments_batch: |active| = {len(active)} "
            f"exceeds cap {EM_ENUMERATION_CAP}"
        )
    key = (tuple(active), budget, sensitivity)
    memo = problem._em_cdf_memo
    cdf = memo.get(key)
    if cdf is None:
        memo.clear()
        cdf = memo[key] = _em_cdf(all_values(problem, active), budget, sensitivity)
        cdf.flags.writeable = False
    # inverse CDF on one uniform per row; ties go by the uniform, never by index
    idx = _cdf_count(cdf, as_generator(rng).random(trials))
    return assignment_rows(np.minimum(idx, cdf.shape[0] - 1), len(active))


def stage_budget(epsilon: float, share: Fraction) -> float:
    """Epsilon times the share's numerator, over its denominator: for a unit
    share 1/d exactly epsilon / d, which float(share) * epsilon is not."""
    return epsilon * share.numerator / share.denominator


def threshold_power(epsilon: float, exponent: float, power: str) -> float:
    """epsilon ** exponent, the power a degree threshold divides by. Raises
    ValueError naming epsilon and the power (described by `power`) when it
    underflows to 0, so the threshold never divides by zero."""
    value = epsilon ** exponent
    if value == 0.0:
        raise ValueError(f"{power} underflows to 0 at epsilon = {epsilon}")
    return value


def budget_ledger(algorithm: str, epsilon: float) -> tuple[tuple[str, float], ...]:
    """(stage, budget) pairs of a degree-split algorithm, each budget the one
    it spends; the shares sum to 1, so the budgets total epsilon up to
    rounding."""
    if algorithm not in _LEDGERS:
        raise ValueError(f"no budget ledger for {algorithm!r}")
    shares, names = _LEDGERS[algorithm]
    return tuple((name, stage_budget(epsilon, f)) for name, f in zip(names.split(), shares))


def noisy_high_mask(problem, budget: float, threshold: float, rng, trials: int) -> np.ndarray:
    """Degree stage: the (trials, n) bool mask of the variables whose degree
    plus integer Laplace noise at parameter budget / k exceeds threshold,
    one noisy_above draw per (row, variable) against the exact tail of each
    degree. One constraint moves k degrees by one each (k the max arity, at
    least 1; 2 for every graph), so the noise pmf changes by at most
    e^budget: the geometric mechanism (Ghosh, Roughgarden and Sundararajan
    2009). The float threshold may lie beyond int64 (10000/eps^4).
    """
    return noisy_above(degrees(problem), threshold, _degree_noise(problem, budget), rng,
                       (trials, problem.n))


def _degree_noise(problem, budget: float) -> float:
    return budget / max(problem.max_arity, 1)


def em_on_part(problem, part: np.ndarray, budget: float, rng):
    """A fair_signs block shaped like the (trials, n) bool block part, one
    part per row, with the variables of each row's part replaced by an
    exponential-mechanism draw (budget, sensitivity 1) on them. Rows with
    the same part share one em_over_assignments_batch call, one draw per
    row; empty parts draw only the fair_signs block."""
    gen = as_generator(rng)
    x = fair_signs(gen, part.shape)
    groups: dict[bytes, list[int]] = {}
    for r in np.flatnonzero(part.any(axis=1)).tolist():
        groups.setdefault(part[r].tobytes(), []).append(r)
    for members in groups.values():
        idx = np.flatnonzero(part[members[0]])
        x[np.ix_(members, idx)] = em_over_assignments_batch(
            problem, idx.tolist(), budget, 1.0, gen, len(members)
        )
    return x


def noisy_degree_split(problem, epsilon: float, degree_share: Fraction, em_share: Fraction,
                       threshold: float, rng, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The first two stages of a degree-split kernel, in draw order: the
    (trials, n) bool high mask of noisy_high_mask at stage_budget(epsilon,
    degree_share) against threshold, and the exponential-mechanism
    candidate em_on_part draws on it at stage_budget(epsilon, em_share).
    Returns (high, candidate). An epsilon whose degree noise parameter lies
    below noisy_above's floor is refused, naming epsilon, before any draw."""
    gen = as_generator(rng)
    degree_budget = stage_budget(epsilon, degree_share)
    try:
        high = noisy_high_mask(problem, degree_budget, threshold, gen, trials)
    except ValueError:  # a noise parameter below the sampler's floor
        raise ValueError(
            f"epsilon = {epsilon} is too small for the degree stage: its noise parameter "
            f"{_degree_noise(problem, degree_budget)} is below the discrete-Laplace sampler's "
            "floor (1 - exp(-parameter) rounds to 0)"
        ) from None
    return high, em_on_part(problem, high, stage_budget(epsilon, em_share), gen)


def degree_split_batch(
    problem, epsilon: float, rng, trials: int, subroutine, threshold: float
) -> np.ndarray:
    """The unbounded-degree pipeline; one independent run per row of the
    returned (trials, n) int8 block. Input checks are the caller's.

    The degree stage (noisy_degree_split) marks each row's high part: the
    variables whose noisy degree exceeds threshold. One candidate is
    em_on_part on that part, uniform elsewhere; the other is the batch
    kernel subroutine(problem, budget, gen, trials) -> (trials, n) +-1
    block, run on the whole problem. A fair coin per row, one (trials,)
    fair_signs draw after the stages, picks between them. The three stages
    are handed stage_budget(epsilon, share) for the
    UNBOUNDED_BUDGET_FRACTIONS shares, and draw, in that order.
    """
    gen = as_generator(rng)
    degree_share, em_share, sub_share = UNBOUNDED_BUDGET_FRACTIONS
    _, x1 = noisy_degree_split(problem, epsilon, degree_share, em_share, threshold, gen, trials)
    x2 = np.asarray(subroutine(problem, stage_budget(epsilon, sub_share), gen, trials))
    if x2.shape != x1.shape or not np.all(np.abs(x2) == 1):
        raise ValueError(
            f"subroutine must return a {x1.shape} block of -1/+1 entries, got shape {x2.shape}"
        )
    return np.where((fair_signs(gen, (trials,)) > 0)[:, None], x1, x2).astype(np.int8, copy=False)
