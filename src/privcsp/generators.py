"""Reproducible instance generators.

Random sign-form CSPs (optionally triangle-free and degree-bounded),
triangle-free graphs, the complete-bipartite hard family, and
single-constraint probe instances. Generation is deterministic under a
fixed spec and seed; infeasible requests fail loudly instead of
silently returning fewer constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csp_core import Constraint, CspInstance, ResourceCapError, is_triangle_free
from .dp_mechanisms import as_generator
from .oracles import PackingFamily

MAX_REJECTIONS = 1_000_000

__all__ = [
    "GenSpec",
    "gen_random_kxor",
    "gen_triangle_free_graph",
    "gen_hard_family",
    "gen_single_constraint",
]


@dataclass(frozen=True)
class GenSpec:
    """Parameters for random sign-form instance generation."""

    n: int
    m: int
    k: int
    seed: int
    triangle_free: bool = False
    max_degree: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0 or self.k < 1:
            raise ValueError("need n >= 1, m >= 0, k >= 1")
        if self.k > self.n:
            raise ValueError(f"arity {self.k} exceeds variable count {self.n}")
        if self.max_degree is not None:
            if self.max_degree < 1:
                raise ValueError("max_degree must be positive")
            if self.m * self.k > self.n * self.max_degree:
                raise ValueError(
                    f"infeasible: {self.m} constraints of arity {self.k} need "
                    f"degree sum {self.m * self.k} > n * D = {self.n * self.max_degree}"
                )
        if self.m > math.comb(self.n, self.k):
            raise ValueError(
                f"infeasible: {self.m} distinct scopes requested, only "
                f"{math.comb(self.n, self.k)} exist"
            )


def gen_random_kxor(spec: GenSpec) -> CspInstance:
    """Random sign-form instance with distinct scopes and uniform signs.

    Scopes are drawn uniformly and rejected on duplication, degree-cap
    violation, or (when requested) loss of triangle-freeness. The
    triangle test reads, per variable, the placed constraints that hold it,
    so a candidate costs O(k) bookkeeping, not O(m). A long rejection
    streak raises ResourceCapError instead of under-delivering. The
    instance is built from its columns (CspInstance.from_groups).
    """
    gen = as_generator(np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed))))
    scopes: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    # per variable, the placed constraints whose scope holds it (its degree
    # is their count), and per constraint, its neighbours in the
    # constraint-intersection graph, for the three-pairwise-intersections check
    holders: list[list[int]] = [[] for _ in range(spec.n)]
    adj: list[set[int]] = []
    rejections = 0
    while len(scopes) < spec.m:
        if rejections > MAX_REJECTIONS:
            raise ResourceCapError(
                f"generator stalled after {MAX_REJECTIONS} rejections with "
                f"{len(scopes)}/{spec.m} constraints placed; spec {spec} "
                "is likely infeasible in practice"
            )
        cand = tuple(sorted(gen.choice(spec.n, size=spec.k, replace=False).tolist()))
        ok = cand not in seen and (
            spec.max_degree is None or all(len(holders[i]) < spec.max_degree for i in cand))
        if ok and spec.triangle_free:
            # one entry per variable the candidate shares with a placed constraint
            met = [c for i in cand for c in holders[i]]
            new_adj = set(met)
            ok = len(new_adj) == len(met) and not any(adj[c] & new_adj for c in new_adj)
        if not ok:
            rejections += 1
            continue
        if spec.triangle_free:
            for c in new_adj:
                adj[c].add(len(scopes))
            adj.append(new_adj)
        for i in cand:
            holders[i].append(len(scopes))
        seen.add(cand)
        scopes.append(cand)
    signs = 2 * gen.integers(0, 2, size=spec.m) - 1
    instance = CspInstance.from_groups(spec.n, "kxor", [(
        np.arange(spec.m), np.array(scopes, dtype=np.intp).reshape(spec.m, spec.k), signs, None)])
    if spec.triangle_free:
        assert is_triangle_free(instance)
    return instance


def gen_triangle_free_graph(kind: str, *args, seed: int = 0) -> CspInstance:
    """Triangle-free graphs.

    kind 'even_cycle' takes (n) with n even >= 4; 'complete_bipartite'
    takes (a, b); 'random_bipartite' takes (a, b, m) and draws m distinct
    cross edges uniformly under the given seed.
    """
    if kind == "even_cycle":
        (n,) = args
        if n < 4 or n % 2 != 0:
            raise ValueError("even_cycle needs an even n >= 4")
        return CspInstance.from_edges(n, np.arange(n), (np.arange(n) + 1) % n)
    if kind == "complete_bipartite":
        a, b = args
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite needs positive part sizes")
        picks = np.arange(a * b)
    elif kind == "random_bipartite":
        a, b, m = args
        if a < 1 or b < 1:
            raise ValueError("random_bipartite needs positive part sizes")
        if m < 0:
            raise ValueError(f"requested {m} edges, a negative edge count")
        if m > a * b:
            raise ValueError(f"requested {m} edges, only {a * b} cross pairs exist")
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        picks = np.sort(gen.choice(a * b, size=m, replace=False))
    else:
        raise ValueError(f"unknown triangle-free graph kind {kind!r}")
    return CspInstance.from_edges(a + b, picks // b, a + picks % b)


def gen_hard_family(
    n: int, epsilon: float, count: int, seed: int, max_retries: int = 10_000
) -> tuple[PackingFamily, bool]:
    """Complete-bipartite hard instances on half-size supports.

    Supports are drawn uniformly among size-n/2 subsets and accepted only
    when every pairwise intersection with previously accepted supports
    lies strictly between n/8 and 3n/8. Returns (family, complete); when
    the retry budget runs out a partial family is returned with
    complete = False.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("need even n >= 8")
    if count < 1:
        raise ValueError("count must be positive")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    supports: list[tuple[int, ...]] = []
    retries = 0
    while len(supports) < count and retries < max_retries:
        cand = tuple(sorted(gen.choice(n, size=n // 2, replace=False).tolist()))
        cset = set(cand)
        ok = all(
            n / 8 < len(cset & set(s)) < 3 * n / 8 for s in supports
        )
        if ok and cand not in supports:
            supports.append(cand)
        else:
            retries += 1
    family = PackingFamily(n=n, supports=tuple(supports), epsilon=epsilon)
    return family, len(supports) == count


def gen_single_constraint(n: int, constraint: Constraint | None) -> CspInstance:
    """A one-constraint kxor probe instance, or the companion empty
    instance when constraint is None."""
    cons = () if constraint is None else (constraint,)
    return CspInstance(n=n, constraints=cons, kind="kxor")
