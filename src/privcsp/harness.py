"""Experiment orchestration: ratio estimation, epsilon sweeps, privacy
audits, and hardness verification.

Every ALGORITHMS entry wraps its algorithm's batch kernel, the only entry
point the algorithm has, as kernel(problem, eps, alpha, gen, trials) ->
(trials, n) int8 block, and runs on the problem as it was loaded: a
Max-Cut graph serves the CSP kernels as its own Max-2XOR instance. At
each epsilon the trials fill one
block, one kernel call per chunk of rows_per_chunk rows (about 2^20
entries of the widest per-row array: n variables or m * arity scope
entries), and one eval_value call per chunk evaluates it. All chunks at
one epsilon draw from one fresh RngStream(seed, 0) generator, so every
epsilon reads the same random numbers from the start, and a fixed
(config, seed) reproduces identical results; the CSV determinism
contract covers every column except wall_ms. Row t of a block depends on the trial count (the
chunks split the draws by row count), so a run with more trials does not
extend a run with fewer. `solve` is row 0 of a one-trial kernel call on
RngStream(seed, 0), so it equals `ratio --trials 1` with the same seed.

An instance is validated once per experiment, not once per trial: the
checks the kernels repeat per call (triangle-freeness, degrees, a
graph's adjacency) read data the instance computed on first use.
em_baseline's value table and CDF are built once per (instance, epsilon)
as well: em_over_assignments_batch keeps the last CDF on the instance.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import algo_csp, algo_maxcut
from .csp_core import (
    Constraint,
    CspInstance,
    degrees,
    eval_value,
    instance_to_json,
    mu,
    rows_per_chunk,
)
from .dp_mechanisms import (
    RngStream,
    check_alpha,
    check_epsilon,
    em_on_part,
    em_over_assignments_batch,
    fair_signs,
    randomized_response,
)
from .generators import gen_hard_family
from .oracles import (
    BRUTE_FORCE_CAP,
    AuditReport,
    brute_force_opt,
    empirical_epsilon,
    verify_packing_separation,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "ALGORITHMS",
    "estimate_ratio",
    "sweep",
    "audit",
    "AUDIT_MECHANISMS",
    "verify_hardness",
]


def _em_baseline_batch(problem, eps, alpha, gen, trials):
    """Exponential mechanism (budget eps, sensitivity 1) over the variables
    some constraint touches; the others are uniform."""
    covered = np.broadcast_to(degrees(problem) > 0, (trials, problem.n))
    return em_on_part(problem, covered, eps, gen)


def _random_baseline_batch(problem, eps, alpha, gen, trials):
    return fair_signs(gen, (trials, problem.n))


# id -> kernel(problem, eps, alpha, gen, trials) -> (trials, n) block. The CSP
# kernels (alg1 to alg_oddk and the baselines) take any CspInstance their
# checks admit, a graph included; the graph kernels (shearer to alg6) refuse
# every kind but 'maxcut'.
ALGORITHMS: dict[str, Callable] = {
    "alg1": lambda p, e, a, g, t: algo_csp.alg1_batch(p, e, g, t),
    "alg2": lambda p, e, a, g, t: algo_csp.alg2_batch(p, e, g, t),
    "alg3": lambda p, e, a, g, t: algo_csp.alg3_batch(p, e, g, t),
    "alg_oddk": lambda p, e, a, g, t: algo_csp.alg_oddk_batch(p, e, g, t),
    "shearer": lambda p, e, a, g, t: algo_maxcut.shearer_batch(p, g, t),
    "dp_shearer": lambda p, e, a, g, t: algo_maxcut.dp_shearer_batch(p, e, g, t),
    "alg5": lambda p, e, a, g, t: algo_maxcut.dp_maxcut_unbounded_batch(p, e, g, t),
    "alg6": lambda p, e, a, g, t: algo_maxcut.dp_maxcut_general_batch(p, e, a, g, t),
    "em_baseline": _em_baseline_batch,
    "random_baseline": _random_baseline_batch,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ExperimentConfig field -> (type check, what the field must be)
_CONFIG_TYPES = {
    "algorithm": (lambda v: type(v) is str, "a string"),
    "eps": (lambda v: type(v) in (list, tuple) and all(map(_is_number, v)), "a list of numbers"),
    "trials": (lambda v: type(v) is int, "an integer"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "alpha": (_is_number, "a number"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm, an instance, an epsilon grid.

    A field of the wrong type raises ValueError naming it; eps may be a
    list or a tuple of numbers and is stored as a tuple.
    """

    algorithm: str
    eps: tuple[float, ...]
    trials: int
    seed: int
    alpha: float = 0.0

    def __post_init__(self) -> None:
        for name, (check, kind) in _CONFIG_TYPES.items():
            value = getattr(self, name)
            if not check(value):
                raise ValueError(f"config field {name!r} must be {kind}, got {value!r}")
        object.__setattr__(self, "eps", tuple(self.eps))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.eps) == 0:
            raise ValueError("epsilon grid must be nonempty")
        for e in self.eps:
            check_epsilon(e, name="epsilon grid value")
        check_alpha(self.alpha)

    def config_hash(self, problem) -> str:
        blob = json.dumps(
            {
                "algorithm": self.algorithm,
                "eps": list(self.eps),
                "trials": self.trials,
                "seed": self.seed,
                "alpha": self.alpha,
                "instance": instance_to_json(problem),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    eps: float
    alpha: float
    n: int
    m: int
    trials: int
    mean_val: float
    se: float
    opt: float | None
    ratio: float | None
    advantage: float
    seed: int
    config_hash: str
    wall_ms: float

    def csv(self) -> str:
        """The row's fields in CSV_COLUMNS order: floats to 17 significant
        digits, None as an empty cell."""

        def fmt(x) -> str:
            if x is None:
                return ""
            if isinstance(x, float):
                return f"{x:.17g}"
            return str(x)

        return ",".join(fmt(getattr(self, f.name)) for f in fields(self))


CSV_COLUMNS = ",".join(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    spearman_advantage_eps: float | None = None

    def csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_COLUMNS + "\n")
        for row in self.rows:
            buf.write(row.csv() + "\n")
        if self.spearman_advantage_eps is not None:
            buf.write(f"# spearman(advantage, eps) = "
                      f"{self.spearman_advantage_eps:.17g}\n")
        return buf.getvalue()


def _baseline_value(problem) -> float:
    """Expected value of a uniform assignment: mu times the constraint count,
    0 with no constraints."""
    return mu(problem) * problem.m if problem.m else 0.0


def _run_one_eps(
    config: ExperimentConfig,
    problem,
    eps: float,
    opt: float | None,
    baseline: float,
    chash: str,
) -> ReportRow:
    """Runs the trials at one eps on problem, whose uniform-assignment value
    is baseline."""
    kernel = ALGORITHMS[config.algorithm]
    t0 = time.perf_counter()
    gen = RngStream(config.seed, 0).generator()
    step = rows_per_chunk(problem)
    values = np.concatenate([
        eval_value(problem, kernel(problem, eps, config.alpha, gen, min(step, config.trials - start)))
        for start in range(0, config.trials, step)
    ])
    wall_ms = (time.perf_counter() - t0) * 1000.0
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return ReportRow(
        algorithm=config.algorithm,
        eps=eps,
        alpha=config.alpha,
        n=problem.n,
        m=problem.m,
        trials=config.trials,
        mean_val=mean,
        se=se,
        opt=opt,
        ratio=(mean / opt) if opt else None,
        advantage=mean - baseline,
        seed=config.seed,
        config_hash=chash,
        wall_ms=wall_ms,
    )


def estimate_ratio(config: ExperimentConfig, problem) -> ExperimentReport:
    """Monte-Carlo value estimation over the epsilon grid, with the exact
    optimum and approximation ratio when the instance is small enough."""
    opt: float | None = None
    if problem.n <= BRUTE_FORCE_CAP:
        opt = brute_force_opt(problem)[0]
    chash = config.config_hash(problem)
    baseline = _baseline_value(problem)
    rows = tuple(
        _run_one_eps(config, problem, e, opt, baseline, chash) for e in config.eps
    )
    return ExperimentReport(rows=rows)


def sweep(config: ExperimentConfig, problem) -> ExperimentReport:
    """estimate_ratio plus a monotone-trend summary of advantage vs eps:
    their Spearman correlation (_spearman)."""
    report = estimate_ratio(config, problem)
    spearman = None
    if len(report.rows) >= 2:
        spearman = _spearman([r.eps for r in report.rows], [r.advantage for r in report.rows])
    return ExperimentReport(rows=report.rows, spearman_advantage_eps=spearman)


def _spearman(x, y) -> float:
    """Spearman's rank correlation of two sequences of one length: the
    Pearson correlation (np.corrcoef) of their average ranks, the values
    scipy.stats.spearmanr computes, to the last bit. nan when either
    sequence is constant (as an algorithm that ignores eps gives: it reads
    the same draws at every eps), where the correlation is undefined."""
    if len(set(x)) == 1 or len(set(y)) == 1:
        return math.nan
    return float(np.corrcoef(np.column_stack([_average_ranks(x), _average_ranks(y)]),
                             rowvar=False)[1, 0])


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, ties given the mean of the ranks they span: (number
    below + number at or below + 1) / 2, an exact half-integer."""
    v = np.asarray(values, dtype=np.float64)
    s = np.sort(v)
    return (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2


def _neighboring_delta(a, b) -> int:
    """Number of constraints (edges) by which two instances of one kind
    differ. A parity does not depend on its scope's order, so a sign
    constraint's scope is taken as a set: the edges (1,0) and (0,1) are one."""
    if a.kind != b.kind:
        raise ValueError(f"pair must share a kind, got {a.kind!r} and {b.kind!r}")
    ca, cb = (Counter((frozenset(c.scope) if c.is_xor else c.scope, c.b, c.table)
                      for c in p.constraints) for p in (a, b))
    return sum((ca - cb).values()) + sum((cb - ca).values())


def _audit_randomized_response(epsilon: float, trials: int, rng) -> AuditReport:
    def mech(bit, gen, t):
        return randomized_response(np.full(t, bit, dtype=np.int64), epsilon, gen)

    return empirical_epsilon(
        mech, 1, -1, trials, rng, coarsening_label="identity"
    )


def _audit_dp_shearer(epsilon: float, trials: int, rng) -> AuditReport:
    g_edge = CspInstance(n=2, constraints=(Constraint(scope=(0, 1), b=-1),), kind="maxcut")
    g_none = CspInstance(n=2, constraints=(), kind="maxcut")
    assert _neighboring_delta(g_edge, g_none) == 1

    def mech(graph, gen, t):
        return algo_maxcut.dp_shearer_batch(graph, epsilon, gen, t)

    return empirical_epsilon(
        mech, g_edge, g_none, trials, rng, coarsening_label="full-output"
    )


def _audit_alg1(epsilon: float, trials: int, rng) -> AuditReport:
    inst_a = CspInstance(
        n=4, constraints=(Constraint(scope=(0, 1), b=1),), kind="kxor"
    )
    inst_b = CspInstance(n=4, constraints=(), kind="kxor")
    assert _neighboring_delta(inst_a, inst_b) == 1

    def mech(inst, gen, t):
        return algo_csp.alg1_batch(inst, epsilon, gen, t)

    return empirical_epsilon(
        mech, inst_a, inst_b, trials, rng, coarsening_label="full-output"
    )


def _audit_em(epsilon: float, trials: int, rng) -> AuditReport:
    inst_a = CspInstance(
        n=3,
        constraints=(Constraint(scope=(0, 1), b=1),),
        kind="kxor",
    )
    inst_b = CspInstance(
        n=3,
        constraints=(Constraint(scope=(0, 1), b=1), Constraint(scope=(1, 2), b=1)),
        kind="kxor",
    )
    assert _neighboring_delta(inst_a, inst_b) == 1

    def mech(inst, gen, t):
        return em_over_assignments_batch(inst, [0, 1, 2], epsilon, 1.0, gen, t)

    return empirical_epsilon(
        mech, inst_a, inst_b, trials, rng, coarsening_label="full-output"
    )


AUDIT_MECHANISMS: dict[str, Callable] = {
    "randomized_response": _audit_randomized_response,
    "dp_shearer": _audit_dp_shearer,
    "alg1": _audit_alg1,
    "em": _audit_em,
}


def audit(mechanism: str, epsilon: float, trials: int, seed: int) -> tuple[AuditReport, bool]:
    """Runs the built-in neighboring-pair audit for a mechanism id.

    Returns (report, ok); ok is False when the confidence interval's
    lower bound exceeds the configured epsilon, the privacy-violation
    signal. A nan, infinite or negative epsilon is rejected before any
    trial runs.
    """
    if mechanism not in AUDIT_MECHANISMS:
        raise ValueError(
            f"unknown audit mechanism {mechanism!r}; known: {sorted(AUDIT_MECHANISMS)}"
        )
    check_epsilon(epsilon)
    report = AUDIT_MECHANISMS[mechanism](epsilon, trials, RngStream(seed, 0))
    return report, report.ci_lower <= epsilon


def audit_csv_row(mechanism: str, epsilon: float, report: AuditReport) -> str:
    return (
        f"{mechanism},{epsilon:.17g},{report.trials},{report.epsilon_hat:.17g},"
        f"{report.ci_lower:.17g},{report.ci_upper:.17g},{report.coarsening}"
    )


@dataclass(frozen=True)
class HardnessReport:
    n: int
    epsilon: float
    requested: int
    generated: int
    generation_complete: bool
    separation_ok: bool
    counterexample: tuple[int, int, int] | None
    opt_ok: bool


def verify_hardness(n: int, epsilon: float, size: int, seed: int) -> HardnessReport:
    """Generates the hard family and checks the separation property and
    the exact optimum of each member graph: (n/2)^2 cut edges, the whole
    complete bipartite graph, whose weighted value is n * degree / 2."""
    family, complete = gen_hard_family(n, epsilon, size, seed)
    ok, counterexample = verify_packing_separation(family)
    opt_ok = all(brute_force_opt(family.graph(i))[0] == (n // 2) ** 2
                 for i in range(len(family.supports)))
    return HardnessReport(
        n=n,
        epsilon=epsilon,
        requested=size,
        generated=len(family.supports),
        generation_complete=complete,
        separation_ok=ok,
        counterexample=counterexample,
        opt_ok=opt_ok,
    )
