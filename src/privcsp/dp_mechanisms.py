"""Seedable privacy primitives with exact, auditable output laws.

Every mechanism draws from a numpy Generator. RngStream wraps a
(seed, stream) pair that reproduces draws bit-for-bit across runs;
concurrent trials must use distinct stream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csp_core import (
    CspInstance,
    ResourceCapError,
    WeightedGraph,
    all_values,
    assignment_rows,
)

EM_ENUMERATION_CAP = 24

__all__ = [
    "EM_ENUMERATION_CAP",
    "PrivacyBudget",
    "RngStream",
    "as_generator",
    "sample_laplace",
    "sample_discrete_laplace",
    "check_epsilon",
    "keep_probability",
    "randomized_response",
    "exponential_mechanism",
    "em_over_assignments",
    "em_over_assignments_batch",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """A pure-DP budget; epsilon = 0 (perfect privacy) is permitted."""

    epsilon: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def split(self, *fractions) -> tuple[float, ...]:
        """Exact fractional split for budget ledgers; fractions must sum to 1."""
        if sum(fractions) != 1:
            raise ValueError(f"budget fractions {fractions} do not sum to 1")
        return tuple(float(f) * self.epsilon for f in fractions)


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


def sample_laplace(scale: float, rng, size=None):
    """Continuous Laplace draw(s) with the given scale, by inverse CDF."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    gen = as_generator(rng)
    u = gen.uniform(-0.5, 0.5, size=size)
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def sample_discrete_laplace(epsilon: float, rng, size=None):
    """Integer draw(s) with mass (e^eps - 1)/(e^eps + 1) * e^{-eps|x|}.

    One uniform decides zero versus sign; an unconditional geometric draw
    supplies the magnitude, so every sample consumes exactly two draws.
    """
    check_epsilon(epsilon, positive=True)
    gen = as_generator(rng)
    q = np.exp(-epsilon)
    p_zero = (1.0 - q) / (1.0 + q)
    u = gen.random(size=size)
    magnitude = gen.geometric(1.0 - q, size=size)
    if size is None:
        if u < p_zero:
            return 0
        return int(magnitude) if u < p_zero + (1.0 - p_zero) / 2.0 else -int(magnitude)
    out = np.where(
        u < p_zero,
        0,
        np.where(u < p_zero + (1.0 - p_zero) / 2.0, magnitude, -magnitude),
    )
    return out.astype(np.int64)


def check_epsilon(epsilon: float, name: str = "epsilon", positive: bool = False) -> None:
    """Raises ValueError unless epsilon is a finite, nonnegative budget, and
    with `positive` also nonzero. nan compares false everywhere, so a bare
    `epsilon < 0` check lets it (and inf) pass as a valid budget; a bare
    `not epsilon > 0` check lets inf pass."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {epsilon}")
    if positive and epsilon == 0:
        raise ValueError(f"{name} must be positive, got {epsilon}")


def keep_probability(epsilon: float) -> float:
    """Randomized-response keep probability e^eps / (1 + e^eps), computed as
    1 / (1 + e^-eps): the direct form is inf / inf = nan from eps ~ 710 on.

    Rejects negative and non-finite eps (see check_epsilon).
    """
    check_epsilon(epsilon)
    return 1.0 / (1.0 + math.exp(-epsilon))


def randomized_response(bit, epsilon: float, rng, domain: str = "pm1"):
    """Keeps the input with probability keep_probability(eps), flips
    otherwise.

    domain selects the flip target: 'pm1' negates, '01' complements.
    Works elementwise on arrays.
    """
    keep_prob = keep_probability(epsilon)
    if domain not in ("pm1", "01"):
        raise ValueError(f"domain must be 'pm1' or '01', got {domain!r}")
    gen = as_generator(rng)
    arr = np.asarray(bit)
    valid = {-1, 1} if domain == "pm1" else {0, 1}
    if not set(np.unique(arr).tolist()) <= valid:
        raise ValueError(f"input values must lie in {sorted(valid)}")
    keep = gen.random(size=arr.shape) < keep_prob
    flipped = -arr if domain == "pm1" else 1 - arr
    out = np.where(keep, arr, flipped)
    if np.isscalar(bit) or arr.shape == ():
        return int(out)
    return out


def _em_cdf(scores: np.ndarray, epsilon: float, sensitivity: float) -> np.ndarray:
    """Cumulative selection probabilities of candidates with weight
    exp(epsilon * score / (2 * sensitivity)), in candidate order."""
    logw = (epsilon / (2.0 * sensitivity)) * scores
    w = np.exp(logw - logw.max())
    return np.cumsum(w / w.sum())


def _em_draws(cdf: np.ndarray, gen, trials: int) -> np.ndarray:
    """Indices of `trials` independent draws from the law with cumulative
    probabilities `cdf`, by inverse CDF on one uniform each; ties go by
    the uniform, never by index."""
    idx = np.searchsorted(cdf, gen.random(trials), side="right")
    return np.minimum(idx, cdf.shape[0] - 1)


def exponential_mechanism(
    candidates: Sequence,
    score,
    epsilon: float,
    sensitivity: float,
    rng,
):
    """Samples a candidate with weight exp(epsilon * score / (2 * sensitivity)).

    score may be a callable or a sequence of precomputed scores. Ties are
    broken by the sampler's uniform draw, never by candidate index.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set must be nonempty")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    check_epsilon(epsilon)
    if callable(score):
        scores = np.asarray([float(score(c)) for c in candidates])
    else:
        scores = np.asarray([float(s) for s in score])
        if scores.shape[0] != len(candidates):
            raise ValueError("score vector length must match candidate count")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    cdf = _em_cdf(scores, epsilon, sensitivity)
    return candidates[int(_em_draws(cdf, as_generator(rng), 1)[0])]


def em_over_assignments(
    problem: CspInstance | WeightedGraph,
    active: Sequence[int],
    budget: float,
    sensitivity: float,
    rng,
    cap: int = EM_ENUMERATION_CAP,
) -> np.ndarray:
    """Exponential mechanism over all sign assignments of `active`.

    Scores are values of the sub-problem induced on `active`; the sampled
    weight of assignment a is exp(budget * value(a) / (2 * sensitivity)).
    Returns an int8 vector aligned with `active`. An empty active set
    returns an empty vector without consuming randomness. Row 0 of
    em_over_assignments_batch with one trial, so it shares that function's
    CDF memo.
    """
    return em_over_assignments_batch(problem, active, budget, sensitivity, rng, 1, cap)[0]


def em_over_assignments_batch(
    problem: CspInstance | WeightedGraph,
    active: Sequence[int],
    budget: float,
    sensitivity: float,
    rng,
    trials: int,
    cap: int = EM_ENUMERATION_CAP,
) -> np.ndarray:
    """Independent em_over_assignments draws, one per row of the returned
    (trials, |active|) int8 array; the value table is built once.

    The CDF over the 2^|active| assignments is memoized in one slot on the
    problem object (`problem._em_cdf_memo`), keyed by
    (tuple(active), budget, sensitivity). A repeat call with the same key
    skips the table and draws from the stored CDF: the same `gen.random`
    doubles give the same rows. A call with another key replaces the entry,
    so each instance holds at most one CDF, and it is freed with the
    instance. Instances are immutable, so the entry never goes stale. The
    budget, sensitivity and cap checks run on every call.
    """
    check_epsilon(budget, "budget")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    active = list(active)
    if len(active) == 0:
        return np.empty((trials, 0), dtype=np.int8)
    if len(active) > cap:
        raise ResourceCapError(
            f"em_over_assignments: |active| = {len(active)} exceeds cap {cap}"
        )
    key = (tuple(active), budget, sensitivity)
    memo = problem._em_cdf_memo
    cdf = memo.get(key)
    if cdf is None:
        memo.clear()
        cdf = memo[key] = _em_cdf(all_values(problem, active), budget, sensitivity)
        cdf.flags.writeable = False
    idx = _em_draws(cdf, as_generator(rng), trials)
    return assignment_rows(idx, len(active))
