"""Exact and brute-force reference computations.

Everything here is an independent check on the sampled mechanisms and
algorithms: exhaustive optima, exact medians with randomized tie bias,
the binomial-plus-discrete-Laplace at-threshold probability, exact
exponential-mechanism weights, empirical privacy estimation, and the
hard-family separation check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
    assignment_rows,
    derivative_q,
    eval_value,
    mu,
    ValueChunks,
)
from .dp_mechanisms import as_generator, check_epsilon

BRUTE_FORCE_CAP = 26
PACKING_CAP = 24
EM_DISTRIBUTION_CAP = 1 << 20
LAPLACE_SUPPORT_CAP = 1 << 22
# most values (max - min + 1) an audit column's rank table may span, and
# the most codes the audit's bucket codes may span before compaction
RANGE_TABLE_SPAN = 1 << 16
# empirical_epsilon's settings, read at call time: the Wilson intervals'
# confidence, the fewest hits per side of a reliable bucket, and the most
# distinct output rows
AUDIT_CONFIDENCE = 0.95
AUDIT_MIN_HITS = 100
AUDIT_MAX_BUCKETS = 64

__all__ = [
    "AuditReport",
    "BucketRow",
    "AdversarialReport",
    "PackingFamily",
    "brute_force_opt",
    "exact_median_theta",
    "threshold_pmf",
    "at_threshold_prob",
    "exact_em_distribution",
    "wilson_interval",
    "empirical_epsilon",
    "adversarial_single_constraint",
    "verify_packing_separation",
]


def brute_force_opt(problem: CspInstance) -> tuple[float, np.ndarray]:
    """Exact maximum value and a first-found argmax assignment.

    For a Max-Cut instance, the search space is halved by pinning the last vertex to
    side -1 (cut values are invariant under a global flip). Rows are scanned
    in ValueChunks order and the first row with the largest entry wins.
    The argmax runs on the chunks as ValueChunks yields them: integer hit
    counts, each row's value. Refuses n above BRUTE_FORCE_CAP, read at call
    time.
    """
    n = problem.n
    if n > BRUTE_FORCE_CAP:
        raise ResourceCapError(f"brute_force_opt: n = {n} exceeds cap {BRUTE_FORCE_CAP}")
    halve = problem.kind == "maxcut" and n >= 1
    chunks = ValueChunks(problem, range(n), n - 1 if halve else n)
    best, best_row = None, 0
    for start, chunk in chunks:
        idx = int(np.argmax(chunk))
        if best is None or chunk[idx] > best:
            best, best_row = chunk[idx], start + idx
    return float(best), assignment_rows(best_row, n)


def _constraint_q_pmf(c: Constraint, j: int) -> dict[Fraction, Fraction]:
    """Exact pmf of the centered-predicate derivative at j under a uniform
    assignment of the remaining scope variables."""
    others = [i for i in c.scope if i != j]
    if c.is_xor and len(others) >= 1:
        return {Fraction(1, 2): Fraction(1, 2), Fraction(-1, 2): Fraction(1, 2)}
    pmf: dict[Fraction, Fraction] = {}
    weight = Fraction(1, 2 ** len(others))
    for mask in range(2 ** len(others)):
        fixed = {i: 1 if (mask >> bit) & 1 else -1 for bit, i in enumerate(others)}
        # derivative_q is (P(+1) - P(-1)) / 2 of 0/1 values, so it is exact
        q = Fraction(derivative_q(c, j, fixed))
        pmf[q] = pmf.get(q, Fraction(0)) + weight
    return pmf


def _convolve(a: dict[Fraction, Fraction], b: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    out: dict[Fraction, Fraction] = {}
    for va, pa in a.items():
        for vb, pb in b.items():
            key = va + vb
            out[key] = out.get(key, Fraction(0)) + pa * pb
    return out


def exact_median_theta(active_constraints: Sequence[Constraint], j: int) -> tuple[float, float]:
    """Median of the summed derivative at j, plus the tie bias that makes the
    three-way sign comparison exactly unbiased.

    Returns (theta, gamma): compare the realized sum s against theta and
    output +1 if s > theta, -1 if s < theta, and +1 with probability gamma
    on a tie. Then Pr[+1] = 1/2 exactly. An empty active set yields
    (0, 1/2), a fair coin.

    The sum's pmf is the convolution of the per-constraint pmfs over
    uniform fixed variables, so the fixed scopes (scope minus j) must be
    pairwise disjoint, as on a triangle-free instance; overlapping ones
    raise ValueError.
    """
    seen: set[int] = set()
    pmf: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    for c in active_constraints:
        fixed = {i for i in c.scope if i != j}
        if fixed & seen:
            raise ValueError(f"exact_median_theta: the fixed scopes at j = {j} overlap")
        seen |= fixed
        pmf = _convolve(pmf, _constraint_q_pmf(c, j))
    support = sorted(pmf)
    cdf = Fraction(0)
    theta = support[-1]
    for v in support:
        cdf += pmf[v]
        if cdf >= Fraction(1, 2):
            theta = v
            break
    above = sum((p for v, p in pmf.items() if v > theta), Fraction(0))
    at = pmf[theta]
    gamma = (Fraction(1, 2) - above) / at
    assert Fraction(0) <= gamma <= Fraction(1)
    return float(theta), float(gamma)


def _discrete_laplace_pmf(epsilon: float, tail: float = 1e-15) -> tuple[np.ndarray, np.ndarray]:
    """Truncated, renormalized pmf of the integer Laplace law at epsilon.

    Truncates where the two-sided tail mass drops below `tail` and
    redistributes the removed mass proportionally. A support above
    LAPLACE_SUPPORT_CAP entries raises ResourceCapError before allocating.
    """
    q = math.exp(-epsilon)
    half = math.log(2.0 / (tail * (1.0 + q))) / epsilon
    if 2 * half + 1 > LAPLACE_SUPPORT_CAP:
        raise ResourceCapError(
            f"threshold_pmf: the integer Laplace support at epsilon = {epsilon} "
            f"has {2 * half + 1:.3g} entries, above cap {LAPLACE_SUPPORT_CAP}"
        )
    zmax = max(1, math.ceil(half))
    z = np.arange(-zmax, zmax + 1)
    pmf = (1.0 - q) / (1.0 + q) * q ** np.abs(z)
    return z, pmf / pmf.sum()


def threshold_pmf(d: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact pmf of Bin(d-1, 1/2) plus independent integer Laplace noise.

    Returns (support, probabilities) with the noise truncated at total tail
    mass 1e-15 and renormalized.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    check_epsilon(epsilon, positive=True)
    z, zp = _discrete_laplace_pmf(epsilon)
    x = np.arange(d)
    # C(d-1, k) / 2^(d-1), a ratio of exact integers, correctly rounded; the
    # row is symmetric, so its first half is built, by the exact recurrence
    # C(n, k+1) = C(n, k) (n-k) / (k+1), and mirrored
    n, c, den, xp = d - 1, 1, 1 << (d - 1), np.empty(d)
    for k in range((d + 1) // 2):
        xp[k] = xp[n - k] = c / den
        c = c * (n - k) // (k + 1)
    support = np.arange(z[0] + x[0], z[-1] + x[-1] + 1)
    probs = np.convolve(zp, xp)
    assert probs.shape == support.shape
    return support, probs


def at_threshold_prob(d: int, epsilon: float) -> float:
    """Probability that the noisy binomial sits exactly at ceil((d-1)/2)."""
    support, probs = threshold_pmf(d, epsilon)
    target = -(-(d - 1) // 2)
    return float(probs[np.searchsorted(support, target)])


def exact_em_distribution(
    scores: Sequence[float], epsilon: float, sensitivity: float
) -> np.ndarray:
    """Normalized exponential-mechanism weight vector for the given scores.
    As epsilon grows it tends to the uniform law over the maximizers, which
    it gives exactly once every other weight underflows to 0. At epsilon = 0
    it is the uniform law, also where the spread of the scores overflows."""
    s = np.asarray([float(v) for v in scores], dtype=np.float64)
    if s.size == 0:
        raise ValueError("candidate set must be nonempty")
    if s.size > EM_DISTRIBUTION_CAP:
        raise ResourceCapError(f"candidate count {s.size} exceeds cap {EM_DISTRIBUTION_CAP}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    check_epsilon(epsilon)
    if epsilon == 0:
        return np.full(s.size, 1.0 / s.size)
    # weights of the scores minus their maximum: no product overflows, and
    # the maximizers weigh exactly 1 at any epsilon
    with np.errstate(over="ignore"):
        w = np.exp((epsilon / (2.0 * sensitivity)) * (s - s.max()))
    return w / w.sum()


# Cephes' ndtri coefficients: the rational approximations of the normal
# quantile for |p - 1/2| <= 1/2 - exp(-2) (P0, Q0), and in the tails for
# sqrt(-2 log p) below 8 (P1, Q1) and from 8 (P2, Q2); Q's leading 1 is implied
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coefs: Sequence[float], monic: bool = False) -> float:
    acc = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _normal_quantile(p: float) -> float:
    """The standard normal's quantile at p in (0, 1), by Cephes' ndtri (the
    algorithm of scipy.stats.norm.ppf) step for step, so the same double
    comes out; statistics.NormalDist().inv_cdf is one ulp away at 0.975,
    which moves about one Wilson interval in a hundred."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    tail = math.exp(-2.0)
    upper = p > 1.0 - tail
    y = 1.0 - p if upper else p
    if y > tail:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, monic=True))
        return x * 2.50662827463100050242
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p_coefs, q_coefs = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _horner(z, p_coefs) / _horner(z, q_coefs, monic=True)
    return x if upper else -x


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at confidence
    AUDIT_CONFIDENCE."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = _normal_quantile(0.5 + AUDIT_CONFIDENCE / 2.0)
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class BucketRow:
    """Per-bucket audit evidence."""

    label: str
    hits_a: int
    hits_b: int
    log_ratio: float | None
    reliable: bool
    lower_bound_only: bool
    lower_bound: float | None = None


@dataclass(frozen=True)
class AuditReport:
    """Empirical privacy estimate over a bucketed output space."""

    epsilon_hat: float
    ci_lower: float
    ci_upper: float
    trials: int
    coarsening: str
    buckets: tuple[BucketRow, ...] = field(repr=False, default=())

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not self.ci_lower <= self.epsilon_hat <= self.ci_upper:
            raise ValueError("audit interval must bracket the point estimate")


def _bucket_counts(
    out_a: np.ndarray, out_b: np.ndarray, max_buckets: int
) -> tuple[list, np.ndarray, np.ndarray]:
    """Distinct rows of both sides (unsorted labels: plain ints for 1-D
    outputs, tuples of ints for 2-D, bools from bool outputs) and the
    per-side count of each.

    Each row gets one integer code, built in place column by column in
    mixed radix: code * span + (entry - lo), lo and span the range of the
    column over both sides. int64 wraps modulo 2**64, so the codes, in
    0..size-1, are exact also on uint64 columns. A column whose span
    exceeds max_buckets is first ranked among its values: through a
    bincount presence table over its range, or by np.unique when the range
    is wider than RANGE_TABLE_SPAN. Codes that would span more than
    RANGE_TABLE_SPAN values are first ranked the same way. One np.bincount
    per side counts the codes; labels are read from rows holding them.
    """
    sides = [out.reshape(out.shape[0], -1) for out in (out_a, out_b)]
    codes = [np.zeros(side.shape[0], dtype=np.int64) for side in sides]
    size = 1

    def ranks(parts, span):
        # the rank of each entry among the distinct values of parts, in 0..span-1
        present = np.bincount(parts[0], minlength=span) + np.bincount(parts[1], minlength=span)
        lookup = np.cumsum(present > 0) - 1
        return [lookup[part] for part in parts], int(lookup[-1]) + 1

    def over_cap(distinct):
        return ResourceCapError(f"audit produced at least {distinct} buckets, cap is {max_buckets}")

    for j in range(sides[0].shape[1]):
        # uint64 read as int64 wraps, which keeps distinct values distinct
        cols = [side[:, j] for side in sides]
        cols = [col.view(np.int64) if col.dtype == np.uint64 else col for col in cols]
        lo = min(col.min().item() for col in cols)
        span = max(col.max().item() for col in cols) - lo + 1
        if span > max_buckets:
            if span > RANGE_TABLE_SPAN:
                vals = np.unique(np.concatenate(cols))
                cols, span = [np.searchsorted(vals, col) for col in cols], vals.size
            else:
                cols, span = ranks([np.subtract(col, lo, dtype=np.int64) for col in cols], span)
            if span > max_buckets:
                raise ResourceCapError(
                    f"audit output column has {span} values, bucket cap is {max_buckets}"
                )
            lo = 0
        if size * span > RANGE_TABLE_SPAN:
            codes, size = ranks(codes, size)
            if size > max_buckets:
                raise over_cap(size)
        for code, col in zip(codes, cols):
            code *= span
            code += col
            code -= lo
        size *= span
    counts_a, counts_b = (np.bincount(code, minlength=size) for code in codes)
    keep = np.flatnonzero(counts_a + counts_b)
    if keep.size > max_buckets:
        raise over_cap(keep.size)
    # each label from a row of side a that holds its code, else of side b, found
    # by a scatter over a prefix of the side, widened while a label has no row
    reps = np.empty((keep.size,) + out_a.shape[1:], dtype=np.result_type(out_a, out_b))
    row = np.full(size, -1, dtype=np.intp)
    in_a = counts_a[keep] > 0
    for out, code, mine in ((out_a, codes[0], in_a), (out_b, codes[1], ~in_a)):
        wanted, start, stop = keep[mine], 0, int(mine.sum())
        while wanted.size and (start == 0 or (row[wanted] < 0).any()):
            row[code[start:stop]] = np.arange(start, stop)
            start, stop = stop, min(4 * stop, code.size)
        reps[mine] = out[row[wanted]]
    labels = reps.tolist() if out_a.ndim == 1 else [tuple(r) for r in reps.tolist()]
    return labels, counts_a[keep], counts_b[keep]


def _mechanism_output(out, trials: int) -> np.ndarray:
    arr = np.asarray(out)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"audit mechanism must return integer outputs, got {arr.dtype}")
    if arr.ndim not in (1, 2) or arr.shape[0] != trials:
        raise ValueError(
            f"audit mechanism must return shape ({trials},) or ({trials}, d), got {arr.shape}"
        )
    return arr


def empirical_epsilon(
    mechanism: Callable,
    input_a,
    input_b,
    trials: int,
    rng,
    coarsening_label: str = "identity",
) -> AuditReport:
    """Estimates the worst-case output log-likelihood ratio between two inputs.

    `mechanism(input, generator, trials)` must return an integer array of
    shape (trials,) or (trials, d), one output per row; it is called once
    for input_a, then once for input_b, on the same generator. Each
    distinct row is a bucket, labelled by the plain int (1-D) or tuple of
    ints (2-D) it holds; there is no coarsening hook, a mechanism that
    wants coarser buckets maps its rows before returning them. The
    estimate is the max over buckets observed on both sides of
    |ln(p_a / p_b)|, with a confidence interval propagated from per-side
    Wilson intervals of the maximizing bucket. Buckets seen on one side
    only are reported as lower-bound-only evidence, never as an infinite
    estimate; buckets with fewer than AUDIT_MIN_HITS on either side are
    flagged unreliable. More than AUDIT_MAX_BUCKETS distinct rows raise
    ResourceCapError. Both constants, and AUDIT_CONFIDENCE, are read at
    call time. _bucket_counts counts the rows: one integer code per row
    and one np.bincount per side.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    gen = as_generator(rng)
    out_a = _mechanism_output(mechanism(input_a, gen, trials), trials)
    out_b = _mechanism_output(mechanism(input_b, gen, trials), trials)
    if out_a.shape[1:] != out_b.shape[1:]:
        raise ValueError(
            f"audit outputs differ in shape between inputs: {out_a.shape} vs {out_b.shape}"
        )
    labels, hits_a, hits_b = _bucket_counts(out_a, out_b, AUDIT_MAX_BUCKETS)
    order = sorted(range(len(labels)), key=lambda i: repr(labels[i]))
    rows: list[BucketRow] = []
    best: tuple[float, int, int] | None = None
    for i in order:
        label, ka, kb = labels[i], int(hits_a[i]), int(hits_b[i])
        reliable = ka >= AUDIT_MIN_HITS and kb >= AUDIT_MIN_HITS
        if ka > 0 and kb > 0:
            log_ratio = abs(math.log((ka / trials) / (kb / trials)))
            rows.append(BucketRow(repr(label), ka, kb, log_ratio, reliable, False))
            if reliable and (best is None or log_ratio > best[0]):
                best = (log_ratio, ka, kb)
        else:
            hi, lo = (ka, kb) if ka > 0 else (kb, ka)
            lo_hi = wilson_interval(lo, trials)[1]
            hi_lo = wilson_interval(hi, trials)[0]
            bound = math.log(hi_lo / lo_hi) if hi_lo > 0 and lo_hi > 0 else 0.0
            rows.append(
                BucketRow(repr(label), ka, kb, None, False, True, max(0.0, bound))
            )
    if best is None:
        for row in rows:
            if row.log_ratio is not None and (
                best is None or row.log_ratio > best[0]
            ):
                best = (row.log_ratio, row.hits_a, row.hits_b)
    if best is None:
        return AuditReport(0.0, 0.0, 0.0, trials, coarsening_label, tuple(rows))
    eps_hat, ka, kb = best
    la, ua = wilson_interval(ka, trials)
    lb, ub = wilson_interval(kb, trials)
    raw_lo = math.log(la / ub)
    raw_hi = math.log(ua / lb)
    if raw_lo <= 0.0 <= raw_hi:
        ci_lower = 0.0
    else:
        ci_lower = min(abs(raw_lo), abs(raw_hi))
    ci_upper = max(abs(raw_lo), abs(raw_hi))
    ci_lower = min(ci_lower, eps_hat)
    ci_upper = max(ci_upper, eps_hat)
    return AuditReport(eps_hat, ci_lower, ci_upper, trials, coarsening_label, tuple(rows))


@dataclass(frozen=True)
class AdversarialReport:
    """Outcome of the worst-case single-constraint probe."""

    satisfaction_prob: float
    bound: float
    std_error: float
    chosen: Constraint
    empty_instance_mass: float
    passes: bool


def adversarial_single_constraint(
    mechanism: Callable,
    n: int,
    candidates: Sequence[Constraint],
    epsilon: float,
    trials: int,
    rng,
) -> AdversarialReport:
    """Probes a mechanism with its least favorable single-constraint instance.

    Runs the mechanism on the empty kxor instance, measures the output
    mass each candidate constraint would receive on its scope, picks the
    candidate with the least mass, then measures satisfaction probability
    on the one-constraint kxor instance and compares it against
    1 - e^{-epsilon} * (1 - mu) plus three standard errors.

    `mechanism(instance, generator, trials)` must return an array of
    shape (trials, n) with +-1 entries; eval_value rejects any other.
    """
    if not candidates:
        raise ValueError("need at least one candidate constraint")
    scopes = {c.scope for c in candidates}
    if len(scopes) != 1:
        raise ValueError("all candidates must share one scope")
    gen = as_generator(rng)
    empty = CspInstance(n=n, constraints=(), kind="kxor")
    outs = mechanism(empty, gen, trials)
    masses = [
        float(eval_value(CspInstance(n=n, constraints=(c,)), outs).mean()) for c in candidates
    ]
    pick = int(np.argmin(masses))
    chosen = candidates[pick]
    phi = CspInstance(n=n, constraints=(chosen,), kind="kxor")
    p = float(eval_value(phi, mechanism(phi, gen, trials)).mean())
    se = max(math.sqrt(max(p * (1.0 - p), 0.0) / trials), math.sqrt(0.25 / trials) / 10)
    bound = 1.0 - math.exp(-epsilon) * (1.0 - mu(chosen))
    return AdversarialReport(
        satisfaction_prob=p,
        bound=bound,
        std_error=se,
        chosen=chosen,
        empty_instance_mass=masses[pick],
        passes=p <= bound + 3.0 * se,
    )


@dataclass(frozen=True)
class PackingFamily:
    """A family of half-size vertex supports with bounded pairwise overlap.

    Each support S induces the complete bipartite graph between S and its
    complement, graph(i), whose edges the paper weighs `weight` =
    1/(64 n epsilon) each; every vertex then has weighted degree exactly
    `degree` = 1/(128 epsilon). The graph has unit edges, and the weight
    stays a scalar: it scales every value alike.
    """

    n: int
    supports: tuple[tuple[int, ...], ...]
    epsilon: float

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be even and at least 2")
        check_epsilon(self.epsilon, positive=True)
        sets = [frozenset(s) for s in self.supports]
        for i, s in enumerate(sets):
            if len(s) != self.n // 2:
                raise ValueError(f"support {i} has size {len(s)} != n/2")
            if not all(0 <= v < self.n for v in s):
                raise ValueError(f"support {i} out of range")
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                common = len(sets[i] & sets[j])
                if not (self.n / 8 < common < 3 * self.n / 8):
                    raise ValueError(
                        f"supports {i},{j} overlap in {common} vertices, "
                        f"outside ({self.n / 8}, {3 * self.n / 8})"
                    )

    @property
    def weight(self) -> float:
        return 1.0 / (64.0 * self.n * self.epsilon)

    @property
    def degree(self) -> float:
        return 1.0 / (128.0 * self.epsilon)

    def graph(self, index: int) -> CspInstance:
        s = np.array(sorted(set(self.supports[index])), dtype=np.int64)
        rest = np.setdiff1d(np.arange(self.n), s)
        return CspInstance.from_edges(self.n, np.repeat(s, rest.size), np.tile(rest, s.size))


def verify_packing_separation(
    family: PackingFamily,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Exhaustively checks the cross-support value separation.

    For every cut R and every ordered pair of distinct supports (S, T):
    if the S-graph value of R exceeds 7nd/16 then the T-graph value must
    be at most 6nd/16. Returns (True, None) or (False, (R_mask, S, T))
    with the first violation; R_mask encodes membership of vertices
    0..n-2 on the +1 side (vertex n-1 pinned to -1).

    Cut counts are compared as exact integers: with half-size supports,
    value thresholds 7nd/16 and 6nd/16 equal weight * 7n^2/32 and
    weight * 6n^2/32. R masks are uint32 and counts int16: a cut count is
    at most n^2/4 = 144 at PACKING_CAP 24, and 32 times that is 4608.
    Refuses n above PACKING_CAP, read at call time.
    """
    n = family.n
    if n > PACKING_CAP:
        raise ResourceCapError(f"verify_packing_separation: n = {n} exceeds cap {PACKING_CAP}")
    if len(family.supports) < 2:
        return True, None
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    half = n // 2
    r = np.bitwise_count(masks).astype(np.int16)
    # per support, 32 * count > 7n^2 and 32 * count > 6n^2
    over, above = [], []
    for s in family.supports:
        smask = np.uint32(sum(1 << v for v in s if v < n - 1))
        a = np.bitwise_count(masks & smask).astype(np.int16)
        # vertex n-1 is on the -1 side; adjust |S| seen on the +1 side
        cut32 = (a * ((n - half) - (r - a)) + (half - a) * (r - a)) * 32
        over.append(cut32 > 7 * n * n)
        above.append(cut32 > 6 * n * n)
    for i, over_i in enumerate(over):
        if not np.any(over_i):
            continue
        for j, above_j in enumerate(above):
            if i == j:
                continue
            bad = over_i & above_j
            if np.any(bad):
                return False, (int(masks[np.argmax(bad)]), i, j)
    return True, None
