"""Instance representations, value evaluation and structural predicates.

Variables take values in {-1, +1}. A constraint is either a general
predicate stored as an explicit truth table over its scope, or a parity
(XOR) constraint stored in compact sign form: the predicate
1/2 + (b/2) * prod(x_i for i in scope) which is satisfied exactly when
the scope product equals b.

Max-Cut admits two lossless views: a CspInstance of 2XOR constraints
with b = -1, and a WeightedGraph. Graph algorithms consume the graph
view; CSP algorithms the instance view.

All types are immutable after construction; operations are pure.
Data derived from an instance (a graph's edge columns, degree counts and
unit-weight flag; a CSP instance's degrees, maximum arity, scope
distinctness, triangle-freeness and constraint groups) is computed once
per object, on first use, and returned read-only, so callers that run
many trials on one instance pay for it once.

One evaluator, eval_value, computes values. It takes one assignment (a
float comes back) or a (trials, n) block of assignments (a float64
vector comes back, one value per row). It works on constraint groups:
the constraints of one form (sign or truth table) and one arity, as
arrays of scope indices, signs and tables. A CSP value is the integer
count of satisfied constraints, so it is exact. A cut value adds the cut
edges' weights in edge order, one float addition per edge, as
value_chunks does; unit weights give exact integer counts.

Exact enumeration (all_values, and brute_force_opt in oracles) runs on one
kernel, value_chunks. Over an ordered list `active` of k variables, row r
of the value table is the assignment with active[t] = +1 exactly when bit
t of r is set, else -1. Each constraint inside `active` contributes its
2^arity local table, broadcast over the rows, so no assignment block is
built; working memory is one chunk of 2^VALUE_CHUNK_BITS float64 entries
(8 MiB), plus the result for all_values.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

ARITY_CAP = 20
# A value-table chunk holds 2^VALUE_CHUNK_BITS float64 entries (8 MiB).
# Each constraint's table is spelled out over the lowest VALUE_RUN_BITS
# bits before it is added: numpy adds a broadcast operand fast only along
# a long contiguous axis (2-3x over broadcasting bit by bit).
VALUE_CHUNK_BITS = 20
VALUE_RUN_BITS = 10

__all__ = [
    "ARITY_CAP",
    "ResourceCapError",
    "Constraint",
    "CspInstance",
    "ConstraintGroup",
    "WeightedGraph",
    "as_assignment",
    "eval_value",
    "cut_value",
    "associated_advantage",
    "g_value",
    "mu",
    "is_triangle_free",
    "degrees",
    "constraint_groups",
    "derivative_q",
    "lambda_j",
    "VALUE_CHUNK_BITS",
    "rows_per_chunk",
    "assignment_rows",
    "value_chunks",
    "all_values",
    "graph_to_instance",
    "instance_to_graph",
    "instance_to_json",
    "instance_from_json",
    "load_instance",
    "save_instance",
    "load_edge_list",
]


class ResourceCapError(RuntimeError):
    """An enumeration cap or retry budget was exceeded."""


def as_assignment(x: Sequence[int] | np.ndarray, n: int | None = None) -> np.ndarray:
    """Validates and converts x to an int8 vector of {-1, +1} entries."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"assignment must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"assignment length {arr.shape[0]} != variable count {n}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("assignment entries must be -1 or +1")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class Constraint:
    """A single constraint: ordered scope plus sign form or truth table.

    For sign form, ``b`` is +-1 and ``table`` is None. For a general
    predicate, ``table`` has exactly 2**arity 0/1 entries indexed by
    idx = sum((x[scope[t]] == +1) << t), i.e. scope position 0 is the
    least significant bit.
    """

    scope: tuple[int, ...]
    b: int | None = None
    table: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"scope indices must be distinct: {self.scope}")
        if len(self.scope) == 0:
            raise ValueError("scope must be nonempty")
        if any(i < 0 for i in self.scope):
            raise ValueError(f"scope indices must be nonnegative: {self.scope}")
        if (self.b is None) == (self.table is None):
            raise ValueError("exactly one of b or table must be given")
        if self.b is not None and self.b not in (-1, 1):
            raise ValueError(f"sign b must be -1 or +1, got {self.b}")
        if self.table is not None:
            if self.arity > ARITY_CAP:
                raise ResourceCapError(
                    f"truth-table arity {self.arity} exceeds cap {ARITY_CAP}"
                )
            if len(self.table) != 2 ** self.arity:
                raise ValueError(
                    f"truth table length {len(self.table)} != 2^{self.arity}"
                )
            if any(v not in (0, 1) for v in self.table):
                raise ValueError("truth-table entries must be 0 or 1")

    @property
    def arity(self) -> int:
        return len(self.scope)

    @property
    def is_xor(self) -> bool:
        return self.b is not None

    def evaluate_local(self, values: Sequence[int]) -> int:
        """Returns P(values) in {0, 1} for values aligned with the scope."""
        if len(values) != self.arity:
            raise ValueError(f"expected {self.arity} values, got {len(values)}")
        if self.b is not None:
            prod = 1
            for v in values:
                prod *= v
            return int(prod == self.b)
        idx = 0
        for t, v in enumerate(values):
            if v == 1:
                idx |= 1 << t
        return self.table[idx]

    def evaluate(self, x: np.ndarray) -> int:
        """Returns P(x restricted to the scope) in {0, 1}."""
        return self.evaluate_local([int(x[i]) for i in self.scope])


class ConstraintGroup:
    """An instance's constraints of one form (sign or truth table) and one
    arity, as read-only arrays, one row per constraint in constraint order.

    cons holds the constraints' indices in the instance, scopes their
    variables (one column per scope position), signs the b of each parity
    constraint and tables each truth table (None for the other form).
    The methods take one assignment x or a block of them (last axis the n
    variables) and return one column per constraint.
    """

    def __init__(self, cons: np.ndarray, scopes: np.ndarray,
                 signs: np.ndarray | None, tables: np.ndarray | None) -> None:
        self.cons, self.scopes, self.signs, self.tables = cons, scopes, signs, tables

    @property
    def arity(self) -> int:
        return self.scopes.shape[1]

    def products(self, x: np.ndarray) -> np.ndarray:
        """Product of x over each scope (int8 when x is)."""
        prod = x[..., self.scopes[:, 0]]
        for t in range(1, self.arity):
            prod = prod * x[..., self.scopes[:, t]]
        return prod

    def table_index(self, x: np.ndarray) -> np.ndarray:
        """Truth-table entry of x on each scope: bit t set for x = +1 at
        scope position t."""
        idx = (x[..., self.scopes[:, 0]] > 0).astype(np.intp)
        for t in range(1, self.arity):
            idx |= (x[..., self.scopes[:, t]] > 0).astype(np.intp) << t
        return idx

    def satisfied(self, x: np.ndarray) -> np.ndarray:
        if self.signs is not None:
            return self.products(x) == self.signs
        return self.tables[np.arange(len(self.cons)), self.table_index(x)] == 1


@dataclass(frozen=True)
class CspInstance:
    """A multiset of constraints over n variables.

    kind is one of 'general', 'kxor' (every constraint in sign form) or
    'maxcut' (every constraint a 2XOR with b = -1).
    """

    n: int
    constraints: tuple[Constraint, ...]
    kind: str = "general"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        if self.kind not in ("general", "kxor", "maxcut"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for c in self.constraints:
            if max(c.scope, default=-1) >= self.n:
                raise ValueError(f"scope {c.scope} out of range for n={self.n}")
            if self.kind == "kxor" and not c.is_xor:
                raise ValueError("kxor instances admit sign-form constraints only")
            if self.kind == "maxcut" and not (
                c.is_xor and c.arity == 2 and c.b == -1
            ):
                raise ValueError("maxcut constraints must be 2XOR with b = -1")

    @property
    def m(self) -> int:
        return len(self.constraints)

    @cached_property
    def max_arity(self) -> int:
        return max((c.arity for c in self.constraints), default=0)

    def require_distinct_scopes(self) -> None:
        if not self._distinct_scopes:
            raise ValueError("instance has duplicate scopes")

    @cached_property
    def _distinct_scopes(self) -> bool:
        scopes = {frozenset(c.scope) for c in self.constraints}
        return len(scopes) == len(self.constraints)

    @cached_property
    def _groups(self) -> tuple[ConstraintGroup, ...]:
        members: dict[tuple[bool, int], list[int]] = {}
        for idx, c in enumerate(self.constraints):
            members.setdefault((c.is_xor, c.arity), []).append(idx)
        groups = []
        for (is_xor, arity), idxs in sorted(members.items()):
            cons = [self.constraints[i] for i in idxs]
            signs = tables = None
            if is_xor:
                signs = _read_only(np.array([c.b for c in cons], dtype=np.int8))
            else:
                tables = _read_only(np.array([c.table for c in cons], dtype=np.int8))
            groups.append(ConstraintGroup(
                cons=_read_only(np.array(idxs, dtype=np.intp)),
                scopes=_read_only(np.array([c.scope for c in cons], dtype=np.intp)),
                signs=signs,
                tables=tables,
            ))
        return tuple(groups)

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for c in self.constraints:
            for i in c.scope:
                deg[i] += 1
        return _read_only(deg)

    @cached_property
    def _triangle_free(self) -> bool:
        return _scan_triangle_free(self.constraints)

    @cached_property
    def _em_cdf_memo(self) -> dict:
        """One-entry memo of dp_mechanisms.em_over_assignments_batch."""
        return {}


@dataclass(frozen=True)
class WeightedGraph:
    """An undirected multigraph with positive edge weights, no self-loops."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if not w > 0:
                raise ValueError(f"edge weight must be positive, got {w}")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # __post_init__ checked that every edge is a triple; fromiter over the
        # flat values converts each as asarray does, without its nested
        # sequence discovery (0.6 against 1.7 ms for 5000 edges)
        flat = itertools.chain.from_iterable(self.edges)
        arr = np.fromiter(flat, dtype=np.float64, count=3 * self.m).reshape(-1, 3)
        return (
            _read_only(arr[:, 0].astype(np.int64)),
            _read_only(arr[:, 1].astype(np.int64)),
            _read_only(arr[:, 2].copy()),
        )

    @cached_property
    def _degree_counts(self) -> np.ndarray:
        u, v, _ = self._columns
        deg = np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n)
        return _read_only(deg.astype(np.int64, copy=False))

    @cached_property
    def _unweighted(self) -> bool:
        return bool(np.all(self._columns[2] == 1))

    @cached_property
    def _em_cdf_memo(self) -> dict:
        """One-entry memo of dp_mechanisms.em_over_assignments_batch."""
        return {}

    @property
    def is_unweighted(self) -> bool:
        return self._unweighted

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns the read-only (u, v, w) column arrays; empty arrays for no
        edges."""
        return self._columns

    def degree_counts(self) -> np.ndarray:
        """Read-only incident-edge counts per vertex."""
        return self._degree_counts

    def weighted_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.float64)
        for u, v, w in self.edges:
            deg[u] += w
            deg[v] += w
        return deg

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def has_triangle(self) -> bool:
        neigh = [set() for _ in range(self.n)]
        for u, v, _ in self.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        for u, v, _ in self.edges:
            if neigh[u] & neigh[v]:
                return True
        return False


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def eval_value(problem: CspInstance | WeightedGraph, xs):
    """Number of satisfied constraints (total weight of cut edges) of one
    assignment, as a float, or of each row of a (trials, n) block of
    assignments, as a float64 vector.

    Rows are evaluated rows_per_chunk at a time, so the temporaries of a
    chunk hold about 2^VALUE_CHUNK_BITS (row, scope entry) pairs. On a
    graph each row adds its cut edges' weights in edge order, starting
    from 0.0, as value_chunks does: row r of all_values(g, active) equals the value of
    assignment_rows(r, len(active)) placed on `active` (others -1).
    """
    arr = np.asarray(xs)
    if arr.ndim == 1:
        return float(_block_values(problem, as_assignment(arr, problem.n)[None])[0])
    if arr.ndim != 2:
        raise ValueError(f"assignments must be one row or a 2-D block, got shape {arr.shape}")
    if arr.shape[1] != problem.n:
        raise ValueError(f"assignment length {arr.shape[1]} != variable count {problem.n}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("assignment entries must be -1 or +1")
    block = arr.astype(np.int8, copy=False)
    out = np.empty(block.shape[0])
    step = rows_per_chunk(problem)
    for start in range(0, block.shape[0], step):
        out[start:start + step] = _block_values(problem, block[start:start + step])
    return out


def rows_per_chunk(problem: CspInstance | WeightedGraph) -> int:
    """Rows of a (rows, n) assignment block per chunk, so that a chunk
    holds about 2^VALUE_CHUNK_BITS entries of the widest per-row array the
    value and the kernels build: n variables, or m * arity (row, scope
    entry) pairs, arity 2 on a graph. At least one row."""
    width = problem.m * (2 if isinstance(problem, WeightedGraph) else problem.max_arity)
    return max(1, (1 << VALUE_CHUNK_BITS) // max(1, problem.n, width))


def _block_values(problem: CspInstance | WeightedGraph, block: np.ndarray) -> np.ndarray:
    if isinstance(problem, WeightedGraph):
        if problem.m == 0:
            return np.zeros(block.shape[0])
        u, v, w = problem.edge_arrays()
        cut = block[:, u] != block[:, v]
        if problem.is_unweighted:
            return cut.sum(axis=1).astype(np.float64)
        # a running sum, for the edge-order float additions
        return np.cumsum(np.where(cut, w, 0.0), axis=1)[:, -1]
    count = np.zeros(block.shape[0], dtype=np.int64)
    for group in problem._groups:
        count += group.satisfied(block).sum(axis=1)
    return count.astype(np.float64)


def cut_value(graph: WeightedGraph, sides) -> float:
    """Total weight of edges whose endpoints lie on opposite sides: the
    graph's eval_value."""
    return eval_value(graph, sides)


def associated_advantage(instance: CspInstance, x) -> float:
    """Mean centered constraint value: (value - mu * m) / m, computed exactly
    per constraint so value = (mu + advantage) * m holds."""
    if instance.m == 0:
        raise ValueError("advantage undefined for an empty instance")
    xv = as_assignment(x, instance.n)
    total = Fraction(0)
    for c in instance.constraints:
        total += c.evaluate(xv) - _mu_constraint_exact(c)
    return float(total / instance.m)


def g_value(instance: CspInstance, x) -> float:
    """Normalized parity sum (1/sqrt(m)) * sum_l b_l * prod_{i in scope_l} x_i."""
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError(f"g_value requires a parity instance, got kind {instance.kind!r}")
    if instance.m == 0:
        raise ValueError("g_value undefined for an empty instance")
    xv = as_assignment(x, instance.n)
    total = 0
    for c in instance.constraints:
        prod = 1
        for i in c.scope:
            prod *= int(xv[i])
        total += c.b * prod
    return total / np.sqrt(instance.m)


def _mu_constraint_exact(c: Constraint) -> Fraction:
    if c.is_xor:
        return Fraction(1, 2)
    return Fraction(sum(c.table), len(c.table))


def mu(obj: Constraint | CspInstance) -> float:
    """Exact satisfaction probability under a uniform assignment.

    For an instance, the average over constraints. Truth tables are
    enumerated directly; arity is capped at construction time.
    """
    if isinstance(obj, Constraint):
        return float(_mu_constraint_exact(obj))
    if obj.m == 0:
        raise ValueError("mu undefined for an empty instance")
    return float(sum(_mu_constraint_exact(c) for c in obj.constraints) / obj.m)


def is_triangle_free(instance: CspInstance) -> bool:
    """True iff every pair of constraints shares at most one variable and
    no three constraints pairwise intersect. Scanned once per instance."""
    return instance._triangle_free


def _scan_triangle_free(constraints: Sequence[Constraint]) -> bool:
    scopes = [frozenset(c.scope) for c in constraints]
    m = len(scopes)
    adj: list[set[int]] = [set() for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            common = len(scopes[a] & scopes[b])
            if common > 1:
                return False
            if common == 1:
                adj[a].add(b)
                adj[b].add(a)
    for a in range(m):
        for b in adj[a]:
            if b > a and adj[a] & adj[b]:
                return False
    return True


def constraint_groups(instance: CspInstance) -> tuple[ConstraintGroup, ...]:
    """The instance's constraints grouped by form and arity, computed once
    per instance; together the groups hold every constraint once."""
    return instance._groups


def degrees(problem: CspInstance | WeightedGraph) -> np.ndarray:
    """Read-only per-variable count of constraints whose scope contains the
    variable; for a graph, its degree_counts()."""
    if isinstance(problem, WeightedGraph):
        return problem.degree_counts()
    return problem._degrees


def derivative_q(constraint: Constraint, j: int, fixed: Mapping[int, int]) -> float:
    """Discrete derivative of the centered predicate at variable j.

    Returns (Pbar(fixed, x_j=+1) - Pbar(fixed, x_j=-1)) / 2 where
    Pbar = P - mu(P); the centering cancels in the difference.
    """
    if j not in constraint.scope:
        raise ValueError(f"variable {j} not in scope {constraint.scope}")
    values_plus = []
    values_minus = []
    for i in constraint.scope:
        if i == j:
            values_plus.append(1)
            values_minus.append(-1)
        else:
            if i not in fixed:
                raise ValueError(f"fixed assignment missing scope variable {i}")
            v = fixed[i]
            if v not in (-1, 1):
                raise ValueError(f"fixed value for {i} must be -1 or +1")
            values_plus.append(v)
            values_minus.append(v)
    return (constraint.evaluate_local(values_plus)
            - constraint.evaluate_local(values_minus)) / 2


def lambda_j(
    instance: CspInstance,
    j: int,
    u_set: Iterable[int],
    y: Sequence[int] | np.ndarray,
) -> float:
    """Normalized signed influence of variable j from its active constraints.

    A constraint is active for j when its scope contains j and no other
    member of u_set. Returns (1/sqrt(m)) * sum over active constraints of
    b_l * prod of y over the remaining scope variables; 0 with no active
    constraints.
    """
    u = set(u_set)
    if j not in u:
        raise ValueError(f"variable {j} not in the kept set")
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError("lambda_j requires a parity instance")
    if instance.m == 0:
        raise ValueError("lambda_j undefined for an empty instance")
    yv = np.asarray(y)
    total = 0
    for c in instance.constraints:
        if j not in c.scope:
            continue
        if any(i in u for i in c.scope if i != j):
            continue
        prod = 1
        for i in c.scope:
            if i != j:
                prod *= int(yv[i])
        total += c.b * prod
    return total / np.sqrt(instance.m)


def assignment_rows(rows, k: int) -> np.ndarray:
    """Decodes enumeration row indices into int8 assignments of k active
    variables: entry t is +1 when bit t of the row is set, else -1. A
    scalar row gives shape (k,), an array of rows one assignment per row."""
    rows = np.asarray(rows)
    # bit index first, so each shift runs over all rows in one inner loop
    bits = rows.reshape(1, -1) >> np.arange(k).reshape(k, 1)
    bits &= 1
    return signs_from_bits(bits.T.reshape(rows.shape + (k,)))


def signs_from_bits(bits) -> np.ndarray:
    """+1 where a 0/1 (or bool) array is 1, -1 where it is 0, as a
    C-ordered int8 array. The map runs in place in int8, so no wider
    temporary than the input is made."""
    out = np.asarray(bits).astype(np.int8, order="C")
    out *= 2
    out -= 1
    return out


def _local_tables(
    problem: CspInstance | WeightedGraph, active: Sequence[int]
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(positions in `active`, local value table) for each constraint (edge)
    whose scope lies inside `active`, in constraint order. A table has one
    length-2 axis per scope variable, in scope order; index 1 means +1."""
    pos = {v: t for t, v in enumerate(active)}
    if len(pos) != len(active):
        raise ValueError("active variables must be distinct")
    if isinstance(problem, WeightedGraph):
        return [
            ((pos[u], pos[v]), np.array([[0.0, w], [w, 0.0]]))
            for u, v, w in problem.edges
            if u in pos and v in pos
        ]
    tables = []
    for c in problem.constraints:
        if not all(i in pos for i in c.scope):
            continue
        if c.is_xor:
            prod = np.ones(())
            for _ in c.scope:
                prod = np.multiply.outer(prod, [-1.0, 1.0])
            table = (prod == c.b).astype(np.float64)
        else:
            # flat index bit t is scope position t, the last C-order axis
            table = np.asarray(c.table, dtype=np.float64).reshape((2,) * c.arity).T
        tables.append((tuple(pos[i] for i in c.scope), table))
    return tables


def value_chunks(
    problem: CspInstance | WeightedGraph, active: Sequence[int], bits: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yields (start, values) chunks of the value table over `active`,
    covering rows [0, 2^bits) in order; active positions >= bits stay -1.

    Row r is the assignment with active[t] = +1 exactly when bit t of r is
    set. Each chunk fixes the bits from L = min(bits, VALUE_CHUNK_BITS) up
    and holds one float64 entry per setting of the low L bits. Every
    constraint (edge) inside `active` adds its local table, sliced at the
    chunk's fixed bits and broadcast over the rest, in constraint order.
    """
    tables = _local_tables(problem, list(active))
    low_bits = min(bits, VALUE_CHUNK_BITS)
    run_bits = min(low_bits, VALUE_RUN_BITS)
    for start in range(0, 1 << bits, 1 << low_bits):
        # Fortran order: axis 0 is bits 0..run_bits-1, axis j > 0 is bit
        # run_bits+j-1, and the flat row view is a view
        acc = np.zeros((1 << run_bits,) + (2,) * (low_bits - run_bits), order="F")
        for positions, table in tables:
            index = tuple(
                slice(None) if t < low_bits else (start >> t) & 1 for t in positions
            )
            low = [t for t in positions if t < low_bits]
            shape = [1] * low_bits
            for t in low:
                shape[t] = 2
            local = table[index].transpose(np.argsort(low)).reshape(shape)
            # spell out the run bits, so each add is a contiguous inner loop
            tail = tuple(shape[run_bits:])
            run = np.broadcast_to(local, (2,) * run_bits + tail)
            acc += run.reshape((1 << run_bits,) + tail, order="F")
        yield start, acc.reshape(-1, order="F")


def all_values(
    problem: CspInstance | WeightedGraph, active: Sequence[int]
) -> np.ndarray:
    """Values of the sub-problem induced on `active`, for all 2^|active|
    assignments of the active variables.

    Row r has active[t] = +1 exactly when bit t of r is set, else -1 (see
    assignment_rows). Only constraints (edges) whose scope lies entirely
    inside `active` contribute. Working memory beyond the result is one
    chunk of 2^VALUE_CHUNK_BITS float64 entries.
    """
    active = list(active)
    out = np.empty(1 << len(active), dtype=np.float64)
    for start, values in value_chunks(problem, active, len(active)):
        out[start:start + values.shape[0]] = values
    return out


def graph_to_instance(graph: WeightedGraph) -> CspInstance:
    """Max-Cut graph view to CSP view; requires unit weights."""
    if not graph.is_unweighted:
        raise ValueError("only unweighted graphs convert to a maxcut instance")
    cons = tuple(Constraint(scope=(u, v), b=-1) for u, v, _ in graph.edges)
    return CspInstance(n=graph.n, constraints=cons, kind="maxcut")


def instance_to_graph(instance: CspInstance) -> WeightedGraph:
    """Max-Cut CSP view to graph view."""
    if instance.kind != "maxcut":
        raise ValueError("only maxcut instances convert to a graph")
    edges = tuple((c.scope[0], c.scope[1], 1.0) for c in instance.constraints)
    return WeightedGraph(n=instance.n, edges=edges)


_INSTANCE_FIELDS = {"n", "kind", "constraints", "edges"}
_CONSTRAINT_FIELDS = {"scope", "b", "table"}


def instance_to_json(problem: CspInstance | WeightedGraph) -> str:
    if isinstance(problem, WeightedGraph):
        doc = {
            "n": problem.n,
            "kind": "maxcut",
            "edges": [[u, v, w] for u, v, w in problem.edges],
        }
    else:
        cons = []
        for c in problem.constraints:
            if c.is_xor:
                cons.append({"scope": list(c.scope), "b": c.b})
            else:
                cons.append({"scope": list(c.scope), "table": list(c.table)})
        doc = {"n": problem.n, "kind": problem.kind, "constraints": cons}
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)


def instance_from_json(text: str) -> CspInstance | WeightedGraph:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    unknown = set(doc) - _INSTANCE_FIELDS
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    if "n" not in doc or "kind" not in doc:
        raise ValueError("instance document requires 'n' and 'kind'")
    n, kind = doc["n"], doc["kind"]
    if "edges" in doc:
        if kind != "maxcut":
            raise ValueError("'edges' is only valid for kind 'maxcut'")
        if "constraints" in doc:
            raise ValueError("give either 'constraints' or 'edges', not both")
        edges = tuple((int(u), int(v), float(w)) for u, v, w in doc["edges"])
        return WeightedGraph(n=int(n), edges=edges)
    cons = []
    for entry in doc.get("constraints", []):
        unknown = set(entry) - _CONSTRAINT_FIELDS
        if unknown:
            raise ValueError(f"unknown constraint fields: {sorted(unknown)}")
        scope = tuple(int(i) for i in entry["scope"])
        if "b" in entry and "table" in entry:
            raise ValueError("give either 'b' or 'table', not both")
        if "b" in entry:
            cons.append(Constraint(scope=scope, b=int(entry["b"])))
        elif "table" in entry:
            cons.append(Constraint(scope=scope, table=tuple(int(t) for t in entry["table"])))
        else:
            raise ValueError("constraint requires 'b' or 'table'")
    return CspInstance(n=int(n), constraints=tuple(cons), kind=kind)


def load_instance(path: str) -> CspInstance | WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(problem: CspInstance | WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(problem))
        fh.write("\n")


def load_edge_list(path: str) -> WeightedGraph:
    """Parses the text format: one 'u v [weight]' line per edge, with '#'
    comments and blank lines ignored; vertices 0-indexed."""
    edges: list[tuple[int, int, float]] = []
    max_vertex = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"line {lineno}: expected 'u v [weight]', got {raw!r}")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            edges.append((u, v, w))
            max_vertex = max(max_vertex, u, v)
    return WeightedGraph(n=max_vertex + 1, edges=tuple(edges))
