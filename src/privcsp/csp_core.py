"""Instance representations, value evaluation and structural predicates.

Variables take values in {-1, +1}. A constraint is either a general
predicate stored as an explicit truth table over its scope, or a parity
(XOR) constraint stored in compact sign form: the predicate
1/2 + (b/2) * prod(x_i for i in scope) which is satisfied exactly when
the scope product equals b.

A CspInstance holds general or kxor constraints. A Max-Cut instance is
a WeightedGraph, stored as n and read-only edge columns u, v, w. It is
also Max-2XOR with every b = -1: a graph has kind 'maxcut', arity 2 and,
with unit weights, a constraint view, so graph and CSP algorithms alike
run on it. Both types derive their constraint groups, scope
distinctness, triangle-freeness and exponential-mechanism memo from
their constraints in one shared base class.

instance_from_json reads a graph file that is exactly what
instance_to_json writes (plus at most one final newline) from its bytes
as arrays, and the graph keeps that text as its instance_to_json; every
other text, CSP instances included, takes the general json.loads path.

No object is changed after construction; operations are pure.
Data derived from an instance (a graph's edge triples, unit-weight flag
and constraint view; a CSP instance's maximum arity; either's degrees,
scope distinctness, triangle-freeness, constraint groups and JSON text)
is computed once per object, on first use, and returned read-only, so
callers that run many trials on one instance pay for it once.

One evaluator, eval_value, computes values. It takes one assignment (a
float comes back) or a (trials, n) block of assignments (a float64
vector comes back, one value per row). It works on constraint groups:
the constraints of one form (sign or truth table) and one arity, as
arrays of scope indices, signs and tables. A CSP value is the integer
count of satisfied constraints, so it is exact. A cut value adds the cut
edges' weights in edge order, one float addition per edge, as
ValueChunks does; unit weights give exact integer counts.

Exact enumeration (all_values, and brute_force_opt in oracles) runs on one
kernel, ValueChunks. Over an ordered list `active` of k variables, row r
of the value table is the assignment with active[t] = +1 exactly when bit
t of r is set, else -1. Each constraint inside `active` contributes its
2^arity local table, broadcast over the rows, so no assignment block is
built. When every local table is 0/1 times one weight w (every CSP
instance, and a graph whose edges inside `active` share one weight), a
chunk holds integer hit counts in the smallest unsigned dtype that holds
the number of tables: one byte per row up to 255 tables. A count k maps
to its value through the ordered sum S[0] = 0.0, S[k] = S[k-1] + w, which
is the edge-order float sum bit for bit, since an uncut edge adds 0.0.
Only a graph whose edges inside `active` differ in weight keeps float64
chunks, adding its tables in edge order. Working memory is one chunk of
2^VALUE_CHUNK_BITS entries (1 MiB of uint8 counts, 8 MiB of float64),
plus the result for all_values.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

ARITY_CAP = 20
# A value-table chunk holds 2^VALUE_CHUNK_BITS entries: hit counts in the
# smallest unsigned dtype that holds the number of constraints inside the
# active set (1 MiB in uint8), or float64 values (8 MiB) for a graph whose
# edges there differ in weight.
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
    "ValueChunks",
    "all_values",
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


class _ConstraintData:
    """Data derived from a problem's constraints, computed on first use.
    A subclass supplies n and constraints."""

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
    def _triangle_free(self) -> bool:
        return _scan_triangle_free(self.constraints)

    @cached_property
    def _em_cdf_memo(self) -> dict:
        """One-entry memo of dp_mechanisms.em_over_assignments_batch."""
        return {}


@dataclass(frozen=True)
class CspInstance(_ConstraintData):
    """A multiset of constraints over n variables.

    kind is 'general' or 'kxor' (every constraint in sign form). A Max-Cut
    instance is a WeightedGraph.
    """

    n: int
    constraints: tuple[Constraint, ...]
    kind: str = "general"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        if self.kind == "maxcut":
            raise ValueError("a Max-Cut instance is a WeightedGraph, not a CspInstance")
        if self.kind not in ("general", "kxor"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for c in self.constraints:
            if max(c.scope, default=-1) >= self.n:
                raise ValueError(f"scope {c.scope} out of range for n={self.n}")
            if self.kind == "kxor" and not c.is_xor:
                raise ValueError("kxor instances admit sign-form constraints only")

    @property
    def m(self) -> int:
        return len(self.constraints)

    @cached_property
    def max_arity(self) -> int:
        return max((c.arity for c in self.constraints), default=0)

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for c in self.constraints:
            for i in c.scope:
                deg[i] += 1
        return _read_only(deg)

    @cached_property
    def _json_text(self) -> str:
        """instance_to_json's text."""
        cons = []
        for c in self.constraints:
            if c.is_xor:
                cons.append({"scope": list(c.scope), "b": c.b})
            else:
                cons.append({"scope": list(c.scope), "table": list(c.table)})
        doc = {"n": self.n, "kind": self.kind, "constraints": cons}
        return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class WeightedGraph(_ConstraintData):
    """An undirected multigraph with positive finite weights and no self-loops: n and
    read-only edge columns u, v (int64), w (float64), from integer endpoints and real
    weights (never bool). `edges` is derived from them; == and hash compare by value.

    It is also the Max-2XOR instance of Max-Cut: kind 'maxcut', arity 2 (even with no
    edges), and, for unit weights, `constraints`, one 2XOR with b = -1 per edge."""

    kind = "maxcut"
    max_arity = 2

    def __init__(self, n: int, edges: Iterable) -> None:
        edges = tuple(edges)
        try:
            cols = _triple_columns(edges)
        except OverflowError:
            cols = None
        self.__dict__.update(n=n, _columns=tuple(map(_read_only, _check_edges(n, cols, edges))))

    @classmethod
    def from_arrays(cls, n: int, u, v, w) -> WeightedGraph:
        """The graph with edges (u[i], v[i], w[i]), from copies of 1-D columns
        of one length: u and v of an integer dtype, w of an integer or float one."""
        cols = [np.asarray(a) for a in (u, v, w)]
        if {a.shape for a in cols} != {(cols[0].size,)} or not all(
                a.dtype.kind in k for a, k in zip(cols, ("iu", "iu", "iuf"))):
            raise ValueError("edge columns must be 1-D, of one length, integer, integer and real")
        cols = [a.astype(t) for a, t in zip(cols, (np.int64, np.int64, np.float64))]
        graph = cls.__new__(cls)
        graph.__dict__.update(n=n, _columns=tuple(map(_read_only, _check_edges(n, cols, ()))))
        return graph

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedGraph) and self.n == other.n and all(
            map(np.array_equal, self._columns, other._columns))

    def __hash__(self) -> int:
        return hash((self.n, *(a.tobytes() for a in self._columns)))

    @property
    def m(self) -> int:
        return self._columns[0].size

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(*(a.tolist() for a in self._columns)))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        if not self._unweighted:
            raise ValueError("only unweighted graphs have a Max-2XOR constraint view")
        u, v, _ = self._columns
        return tuple(Constraint(scope=scope, b=-1) for scope in zip(u.tolist(), v.tolist()))

    @cached_property
    def _degrees(self) -> np.ndarray:
        u, v, _ = self._columns
        deg = np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n)
        return _read_only(deg.astype(np.int64, copy=False))

    @cached_property
    def _unweighted(self) -> bool:
        return bool(np.all(self._columns[2] == 1))

    @cached_property
    def _adjacency(self) -> sparse.csr_array:
        # (n, n) adjacency, a parallel edge counted once per copy, in the smallest
        # signed dtype holding twice the largest degree
        u, v, _ = self._columns
        dtype = np.min_scalar_type(-1 - 2 * int(self._degrees.max(initial=0)))
        ends = (np.concatenate((u, v)), np.concatenate((v, u)))
        return sparse.csr_array((np.ones(2 * u.size, dtype), ends), shape=(self.n, self.n))

    @cached_property
    def _json_text(self) -> str:
        """instance_to_json's text, formatted as json.dumps formats ints and finite floats: by %d
        and float.__repr__. _graph_from_text seeds it with the text it read."""
        flat = [None] * (3 * self.m)
        for t, column in enumerate(self._columns):
            flat[t::3] = column.tolist()
        edges = ("[%d,%d,%r]," * self.m)[:-1] % tuple(flat)
        return '{"edges":[%s],"kind":"maxcut","n":%d}' % (edges, self.n)

    @property
    def is_unweighted(self) -> bool:
        return self._unweighted

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns the read-only (u, v, w) column arrays; empty arrays for no
        edges."""
        return self._columns

    def degree_counts(self) -> np.ndarray:
        """Read-only incident-edge counts per vertex."""
        return self._degrees

    def has_triangle(self) -> bool:
        # an edge (x, y) of the adjacency A closes a triangle iff (A @ A)[x, y] > 0
        adj = self._adjacency.astype(np.float64)
        return bool((adj @ adj).multiply(adj).sum() > 0)


_INTS = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})
_REALS = _INTS | {float, *(np.dtype(c).type for c in np.typecodes["Float"])}
_EDGE_TYPE_ERROR = "edge endpoints must be integers and its weight a number, got {}"


def _triple_columns(edges: Sequence):
    """The int64 u, v and float64 w columns of a sequence of (u, v, w) lists or tuples, or
    None if an entry is not one or has a value not of its column's types (_INTS, _REALS)."""
    if not set(map(type, edges)) <= {tuple, list} or set(map(len, edges)) - {3}:
        return None
    flat = list(itertools.chain.from_iterable(edges))
    us, vs, ws = flat[0::3], flat[1::3], flat[2::3]
    if not (set(map(type, us + vs)) <= _INTS and set(map(type, ws)) <= _REALS):
        return None
    return (np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64))


def _check_edges(n: int, cols, edges: Sequence):
    """cols, if every edge has distinct endpoints in [0, n) and a positive finite weight; else
    raises for the first invalid edge, walking edges (cols None) or the one the test found."""
    if not 0 <= n < 2 ** 63:
        raise ValueError(f"vertex count must be nonnegative and below 2^63, got {n}")
    if cols is not None:
        u, v, w = cols
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n) | ~(w > 0) | (w == np.inf)
        if not bad.any():
            return cols
        i = int(bad.argmax())
        edges = (edges[i] if edges else (u[i].item(), v[i].item(), w[i].item()),)
    for edge in edges:
        u, v, w = edge
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not w > 0:
            raise ValueError(f"edge weight must be positive, got {w}")
        if w == math.inf:
            raise ValueError(f"edge weight must be finite, got {w}")
        if _triple_columns([edge]) is None:
            raise ValueError(_EDGE_TYPE_ERROR.format(list(edge)))


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
    from 0.0, as ValueChunks does: row r of all_values(g, active) equals the value of
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
    entry) pairs. At least one row."""
    width = problem.m * problem.max_arity
    return max(1, (1 << VALUE_CHUNK_BITS) // max(1, problem.n, width))


def _block_values(problem: CspInstance | WeightedGraph, block: np.ndarray) -> np.ndarray:
    if isinstance(problem, WeightedGraph):
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


def associated_advantage(instance: CspInstance, x) -> float:
    """Mean centered constraint value: (value - sum of the per-constraint
    mu) / m, in exact fractions, so value = (mu + advantage) * m holds."""
    if instance.m == 0:
        raise ValueError("advantage undefined for an empty instance")
    mu_sum = sum(map(_mu_constraint_exact, instance.constraints), Fraction(0))
    value = int(eval_value(instance, as_assignment(x, instance.n)))
    return float((value - mu_sum) / instance.m)


def g_value(instance: CspInstance, x) -> float:
    """Normalized parity sum (1/sqrt(m)) * sum_l b_l * prod_{i in scope_l} x_i.
    A term is +1 exactly when its constraint is satisfied, so the sum is
    2 * value - m."""
    if instance.kind not in ("kxor", "maxcut"):
        raise ValueError(f"g_value requires a parity instance, got kind {instance.kind!r}")
    if instance.m == 0:
        raise ValueError("g_value undefined for an empty instance")
    xv = as_assignment(x, instance.n)
    return (2 * eval_value(instance, xv) - instance.m) / np.sqrt(instance.m)


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
) -> tuple[list[tuple[tuple[int, ...], np.ndarray]], np.ndarray | None]:
    """(positions in `active`, local table) for each constraint (edge)
    whose scope lies inside `active`, in constraint order, and the
    count-to-value map. A table has one length-2 axis per scope variable,
    in scope order; index 1 means +1.

    When every table is 0/1 times one weight w (every CSP instance, and a
    graph whose edges inside `active` share one weight), the tables hold
    0/1 counts in the smallest unsigned dtype that holds their number,
    one array per distinct table, and the map is
    sums[0] = 0.0, sums[k] = sums[k-1] + w, or None when w = 1, since a
    count then is its value. Otherwise the tables hold float64 values and
    the map is None.
    """
    pos = {v: t for t, v in enumerate(active)}
    if len(pos) != len(active) or not all(0 <= v < problem.n for v in pos):
        raise ValueError(f"active variables must be distinct and in [0, {problem.n})")
    if isinstance(problem, WeightedGraph):
        u, v, ws = problem.edge_arrays()
        where = np.full(problem.n, -1)  # each vertex's position in `active`, -1 outside it
        where[active] = np.arange(len(active))
        keep = (where[u] >= 0) & (where[v] >= 0)
        inside = list(zip(where[u[keep]].tolist(), where[v[keep]].tolist(), ws[keep].tolist()))
        weights = {w for _, _, w in inside}
        if len(weights) > 1:
            return [((a, b), np.array([[0.0, w], [w, 0.0]])) for a, b, w in inside], None
        weight = weights.pop() if weights else 1.0
        cut = np.array([[0, 1], [1, 0]], dtype=np.min_scalar_type(len(inside)))
        tables = [((a, b), cut) for a, b, _ in inside]
    else:
        weight = 1.0
        inside = [c for c in problem.constraints if all(i in pos for i in c.scope)]
        dtype = np.min_scalar_type(len(inside))
        shared: dict[tuple, np.ndarray] = {}
        tables = []
        for c in inside:
            key = (c.arity, c.b, c.table)
            if key not in shared:
                shared[key] = _count_table(c, dtype)
            tables.append((tuple(pos[i] for i in c.scope), shared[key]))
    if weight == 1:
        return tables, None
    # one float addition per hit, in order, as eval_value adds cut weights
    hits = itertools.accumulate(itertools.repeat(float(weight), len(tables)), initial=0.0)
    return tables, np.fromiter(hits, dtype=np.float64, count=len(tables) + 1)


def _count_table(c: Constraint, dtype) -> np.ndarray:
    """The constraint's 0/1 local table in dtype."""
    if c.is_xor:
        # the product is b when the number of -1 signs is even for b = +1,
        # odd for b = -1; the count does not depend on the axis order
        minus = c.arity - np.bitwise_count(np.arange(1 << c.arity))
        return ((minus & 1) == (c.b < 0)).astype(dtype).reshape((2,) * c.arity)
    # flat index bit t is scope position t, the last C-order axis
    return np.asarray(c.table, dtype=dtype).reshape((2,) * c.arity).T


class ValueChunks:
    """The value table of the sub-problem induced on `active`, over rows
    [0, 2^bits), as (start, chunk) pairs in row order; active positions
    >= bits stay -1.

    Row r is the assignment with active[t] = +1 exactly when bit t of r is
    set. Each chunk fixes the bits from L = min(bits, VALUE_CHUNK_BITS) up
    and holds one entry per setting of the low L bits. Every constraint
    (edge) inside `active` adds its local table (see _local_tables), sliced
    at the chunk's fixed bits and broadcast over the rest, in constraint
    order. An entry is the row's hit count, which `sums` maps to its value
    (strictly increasing, so counts order rows as values do), or, when
    `sums` is None, the row's value itself: a float64 value, or a count of
    unit weight. values() maps a chunk or an entry to its values.
    """

    def __init__(
        self, problem: CspInstance | WeightedGraph, active: Sequence[int], bits: int
    ) -> None:
        self.tables, self.sums = _local_tables(problem, list(active))
        self.dtype = self.tables[0][1].dtype if self.tables else np.uint8
        self.bits = bits

    def values(self, counts):
        return counts if self.sums is None else self.sums[counts]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        low_bits = min(self.bits, VALUE_CHUNK_BITS)
        run_bits = min(low_bits, VALUE_RUN_BITS)
        for start in range(0, 1 << self.bits, 1 << low_bits):
            # Fortran order: axis 0 is bits 0..run_bits-1, axis j > 0 is bit
            # run_bits+j-1, and the flat row view is a view
            acc = np.zeros(
                (1 << run_bits,) + (2,) * (low_bits - run_bits), dtype=self.dtype, order="F"
            )
            for positions, table in self.tables:
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
    assignments of the active variables, as float64.

    Row r has active[t] = +1 exactly when bit t of r is set, else -1 (see
    assignment_rows). Only constraints (edges) whose scope lies entirely
    inside `active` contribute. Each chunk of ValueChunks is mapped to
    values once; working memory beyond the result is one chunk and its
    float64 values.
    """
    active = list(active)
    out = np.empty(1 << len(active), dtype=np.float64)
    chunks = ValueChunks(problem, active, len(active))
    for start, chunk in chunks:
        out[start:start + chunk.shape[0]] = chunks.values(chunk)
    return out


_INSTANCE_FIELDS = {"n", "kind", "constraints", "edges"}
_CONSTRAINT_FIELDS = {"scope", "b", "table"}


def instance_to_json(problem: CspInstance | WeightedGraph) -> str:
    """Compact JSON with sorted keys, as json.dumps formats it, formatted
    once per object; a graph's is the text it was read from, if it was."""
    return problem._json_text


def _json_int(value, field: str) -> int:
    """value, if it is a JSON integer (not a bool, a float or a string)."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def instance_from_json(text: str) -> CspInstance | WeightedGraph:
    """Parses instance_to_json's format. n, scope entries, b, table entries
    and edge endpoints must be JSON integers and edge weights JSON numbers:
    anything else (a float, a bool, a string) is rejected, not rounded.

    Text that is exactly instance_to_json of a graph with edges, plus at
    most one final newline, is read as arrays (_graph_from_text); any other
    text goes through json.loads (_instance_from_doc). Both build a graph
    with WeightedGraph.from_arrays, so they accept and reject alike."""
    graph = _graph_from_text(text)
    return _instance_from_doc(text) if graph is None else graph


_GRAPH_HEAD = '{"edges":['
_GRAPH_TAIL = '],"kind":"maxcut","n":'
_INT_DIGITS = 18  # a canonical %d token of at most 18 digits fits int64
_FLOAT_REPR_MAX = 24  # len(repr(x)) of a float64 x is at most 24
_TOKEN_BYTES = b"0123456789.e+-"
_POW10 = 10 ** np.arange(_INT_DIGITS, dtype=np.int64)
# the least canonical value of a token of each length: 0 for one digit, 10^(L-1) for L > 1
_INT_FLOOR = np.array([0, 0, *_POW10[1:]])


def _graph_from_text(text: str) -> WeightedGraph | None:
    """The graph of text that is exactly instance_to_json(graph) for a graph
    with edges, plus at most one final newline; None for any other text.

    The edges are read from the text's bytes (np.frombuffer). The bytes
    between tokens must be "[,,]," repeated, endpoints and n canonical %d
    tokens (digits, no leading zero, at most 18 of them), and each distinct
    weight token t must be repr(float(t)). So the text is the graph's
    instance_to_json, which the graph keeps, and json.loads would read the
    same numbers from it."""
    if not (text.isascii() and text.startswith(_GRAPH_HEAD + "[")):
        return None
    text = text[:-1] if text.endswith("\n") else text
    end = text.rfind(_GRAPH_TAIL)
    n_token = text[end + len(_GRAPH_TAIL):-1]
    if not (end > 0 and text.endswith("}") and n_token.isdigit()
            and len(n_token) <= _INT_DIGITS and (n_token == "0" or n_token[0] != "0")):
        return None
    raw = text[len(_GRAPH_HEAD):].encode("ascii")
    size = end - len(_GRAPH_HEAD)  # of the body, "[u,v,w],...,[u,v,w]"
    skeleton = raw[:size].translate(None, _TOKEN_BYTES)
    m = (len(skeleton) + 1) // 5
    if skeleton != (b"[,,]," * m)[:-1]:
        return None
    # the rest of the text pads the last token's bytes for _float_tokens
    data = np.frombuffer(raw, dtype=np.uint8)
    # the commas, one before the body and one after it: each edge's
    # "[u,v,w]" lies between bounds[3e] and bounds[3e + 3]
    bounds = np.empty(3 * m + 1, dtype=np.intp)
    bounds[0] = -1
    bounds[1:-1] = np.flatnonzero(data[:size] == ord(","))
    bounds[-1] = size
    int_ends = np.concatenate((bounds[1::3], bounds[2::3]))  # u, then v
    int_lengths = int_ends - np.concatenate((bounds[:-1:3] + 2, bounds[1::3] + 1))
    w_starts = bounds[2::3] + 1
    w_lengths = bounds[3::3] - 1 - w_starts
    int_width, w_width = int(int_lengths.max()), int(w_lengths.max())
    if (min(int_lengths.min(), w_lengths.min()) < 1 or int_width > _INT_DIGITS
            or w_width > _FLOAT_REPR_MAX):
        return None
    ids = _int_tokens(data, int_ends, int_lengths, int_width)
    w = _float_tokens(data, w_starts, w_lengths, w_width)
    if ids is None or w is None:
        return None
    graph = WeightedGraph.from_arrays(int(n_token), ids[:m], ids[m:], w)
    graph.__dict__["_json_text"] = text
    return graph


def _int_tokens(data: np.ndarray, ends, lengths, width: int) -> np.ndarray | None:
    """The int64 values of the tokens data[ends - lengths:ends] (lengths 1
    to width), or None if one is not a canonical %d token."""
    back = np.arange(1, width + 1)[:, None]  # row k - 1: each token's k-th byte from its end
    digits = data[ends - back] - 48  # uint8: a byte below "0" wraps above 9
    digits[back > lengths] = 0  # bytes before the token (wrapped to the end of data for the first)
    values = _POW10[:width] @ digits
    if (digits > 9).any() or (values < _INT_FLOOR[lengths]).any():
        return None
    return values


def _float_tokens(data: np.ndarray, starts, lengths, width: int) -> np.ndarray | None:
    """The float64 values of the tokens data[starts:starts + lengths], or
    None if a distinct token t is not repr(float(t))."""
    cols = np.arange(width)[:, None]
    block = data[starts + cols]
    block[cols >= lengths] = 0  # bytes after the token; "S" drops trailing zeros
    tokens = np.ascontiguousarray(block.T).view(f"S{width}").ravel()
    distinct, inverse = np.unique(tokens, return_inverse=True)
    values = []
    for token in distinct.tolist():
        try:
            value = float(token)
        except ValueError:
            return None
        if repr(value) != token.decode():
            return None
        values.append(value)
    return np.array(values)[inverse]


def _instance_from_doc(text: str) -> CspInstance | WeightedGraph:
    """instance_from_json through json.loads, for any text."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    unknown = set(doc) - _INSTANCE_FIELDS
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    if "n" not in doc or "kind" not in doc:
        raise ValueError("instance document requires 'n' and 'kind'")
    n, kind = _json_int(doc["n"], "n"), doc["kind"]
    if "edges" in doc:
        if kind != "maxcut":
            raise ValueError("'edges' is only valid for kind 'maxcut'")
        if "constraints" in doc:
            raise ValueError("give either 'constraints' or 'edges', not both")
        try:
            cols = _triple_columns(doc["edges"])
            if cols is None:  # name the first entry that is not [integer, integer, number]
                bad = next(e for e in doc["edges"] if _triple_columns([e]) is None)
                raise ValueError(_EDGE_TYPE_ERROR.format(bad))
        except OverflowError as exc:
            raise ValueError(f"edge endpoint beyond int64 or weight out of float range: {exc}")
        return WeightedGraph.from_arrays(n, *cols)
    cons = []
    for entry in doc.get("constraints", []):
        if not isinstance(entry, dict):
            raise ValueError(f"constraint must be a JSON object, got {entry!r}")
        unknown = set(entry) - _CONSTRAINT_FIELDS
        if unknown:
            raise ValueError(f"unknown constraint fields: {sorted(unknown)}")
        scope = tuple(_json_int(i, "scope entry") for i in entry["scope"])
        if "b" in entry and "table" in entry:
            raise ValueError("give either 'b' or 'table', not both")
        if "b" in entry:
            cons.append(Constraint(scope=scope, b=_json_int(entry["b"], "b")))
        elif "table" in entry:
            table = tuple(_json_int(t, "table entry") for t in entry["table"])
            cons.append(Constraint(scope=scope, table=table))
        else:
            raise ValueError("constraint requires 'b' or 'table'")
    if kind == "maxcut":
        if not all(c.is_xor and c.arity == 2 and c.b == -1 for c in cons):
            raise ValueError("maxcut constraints must be 2XOR with b = -1")
        return WeightedGraph(n, ((*c.scope, 1.0) for c in cons))
    return CspInstance(n=n, constraints=tuple(cons), kind=kind)


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
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ValueError(
                    f"line {lineno}: endpoints must be integers and the weight a number, got {raw!r}"
                ) from None
            edges.append((u, v, w))
            max_vertex = max(max_vertex, u, v)
    return WeightedGraph(n=max_vertex + 1, edges=edges)
