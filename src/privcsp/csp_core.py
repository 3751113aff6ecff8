"""Instance representations, value evaluation and structural predicates.

Variables take values in {-1, +1}. A constraint is either a general
predicate stored as an explicit truth table over its scope, or a parity
(XOR) constraint stored in compact sign form: the predicate
1/2 + (b/2) * prod(x_i for i in scope) which is satisfied exactly when
the scope product equals b.

There is one instance type, CspInstance: n, a kind and the constraint
groups, the constraints of one form (sign or truth table) and one arity
each, as read-only arrays of constraint indices, scope indices, signs and
tables. A Max-Cut graph is the CspInstance of kind 'maxcut' whose one
group is the 2XOR group with every b = -1, one row (u, v) per edge: every
edge weighs 1, the unit-constraint model of the paper's neighbouring
instances, and a file's weights are checked at load. CSP and graph
algorithms alike run on it; the graph kernels refuse any other kind.

instance_from_json reads a graph file that is exactly what
instance_to_json writes (plus at most one final newline) from its bytes
as arrays (CspInstance.from_edges), and the graph keeps that text as its
instance_to_json; every other text takes the general json.loads path.

No object is changed after construction; operations are pure. An
instance's m and maximum arity are set when it is made; other data
derived from it (its constraint view, degrees, summed mu, scope
distinctness, triangle-freeness, a graph's adjacency, and its JSON text)
is computed once per object, on first use, and returned read-only, so
callers that run many trials on one instance pay for it once. No graph
kernel and no value computation reads the constraint view.

One evaluator, eval_value, computes values. It takes one assignment (a
float comes back) or a (trials, n) block of assignments (a float64
vector comes back, one value per row). It works on the constraint
groups, one at a time. A value is the integer count of satisfied
constraints (cut edges), so it is exact.

Exact enumeration (all_values, and brute_force_opt in oracles) runs on one
kernel, ValueChunks. Over an ordered list `active` of k variables, row r
of the value table is the assignment with active[t] = +1 exactly when bit
t of r is set, else -1. Each constraint inside `active` contributes its
0/1 local table of 2^arity entries, broadcast over the rows, so no
assignment block is built. A chunk holds integer hit counts, each row's
value, in the smallest unsigned dtype that holds the number of tables:
one byte per row up to 255 tables. Working memory is one chunk of
2^VALUE_CHUNK_BITS entries (1 MiB of uint8 counts), plus the result for
all_values.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

ARITY_CAP = 20
# A value-table chunk holds 2^VALUE_CHUNK_BITS entries: hit counts in the
# smallest unsigned dtype that holds the number of constraints inside the
# active set (1 MiB in uint8).
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
        if not all(type(i) is int or isinstance(i, np.integer) for i in self.scope):
            raise ValueError(f"scope indices must be integers: {self.scope}")
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"scope indices must be distinct: {self.scope}")
        if len(self.scope) == 0:
            raise ValueError("scope must be nonempty")
        if not all(0 <= i < 2 ** 63 for i in self.scope):
            raise ValueError(f"scope indices must be nonnegative and below 2^63: {self.scope}")
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
    constraint and tables each truth table (None for the other form); the
    arrays are the ones given, made read-only.
    The methods take one assignment x or a block of them (last axis the n
    variables) and return one column per constraint.
    """

    def __init__(self, cons: np.ndarray, scopes: np.ndarray,
                 signs: np.ndarray | None, tables: np.ndarray | None) -> None:
        self.cons, self.scopes, self.signs, self.tables = (
            None if a is None else _read_only(a) for a in (cons, scopes, signs, tables))
        self.arity = scopes.shape[1]

    def products(self, x: np.ndarray) -> np.ndarray:
        """Product of x over each scope (int8 when x is)."""
        prod = x[..., self.scopes[:, 0]]
        for t in range(1, self.arity):
            prod *= x[..., self.scopes[:, t]]
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


class CspInstance:
    """A multiset of constraints over n variables, held as its constraint
    groups (see ConstraintGroup). No instance changes after construction,
    and == and hash compare by value.

    kind is 'general', 'kxor' (every constraint in sign form) or 'maxcut': a
    Max-Cut graph, Max-2XOR with every b = -1, whose one group is that 2XOR
    group, also with no edges, so its max arity is 2. CspInstance(n,
    constraints, kind) groups a constraint tuple, which seeds the
    `constraints` view; from_edges builds a graph from two edge columns, and
    its view is derived on first use.
    """

    def __init__(self, n: int, constraints: Iterable[Constraint], kind: str = "general") -> None:
        constraints = tuple(constraints)
        if kind == "maxcut" and not all(c.is_xor and c.arity == 2 and c.b == -1
                                        for c in constraints):
            raise ValueError("maxcut constraints must be 2XOR with b = -1")
        if kind == "kxor" and not all(c.is_xor for c in constraints):
            raise ValueError("kxor instances admit sign-form constraints only")
        members: dict[tuple[bool, int], list[int]] = {(True, 2): []} if kind == "maxcut" else {}
        for idx, c in enumerate(constraints):
            members.setdefault((c.is_xor, c.arity), []).append(idx)
        groups = []
        for (is_xor, arity), idxs in sorted(members.items()):
            cons = [constraints[i] for i in idxs]
            signs = tables = None
            if is_xor:
                signs = np.array([c.b for c in cons], dtype=np.int8)
            else:
                tables = np.array([c.table for c in cons], dtype=np.int8)
            groups.append(ConstraintGroup(
                np.array(idxs, dtype=np.intp),
                np.array([c.scope for c in cons], dtype=np.intp).reshape(-1, arity), signs, tables))
        self._set(n, kind, groups)
        self.__dict__["constraints"] = constraints

    @classmethod
    def from_edges(cls, n: int, u, v) -> CspInstance:
        """The Max-Cut instance on n vertices with edges (u[i], v[i]), from
        copies of two 1-D integer columns of one length."""
        cols = [np.asarray(a) for a in (u, v)]
        if {a.shape for a in cols} != {(cols[0].size,)} or not all(
                a.dtype.kind in "iu" for a in cols):
            raise ValueError("edge columns must be 1-D, of one length and integer")
        m = cols[0].size
        # the scopes in Fortran order, so that each column, u and v, is contiguous
        group = ConstraintGroup(np.arange(m), np.array(cols, dtype=np.intp).T,
                                np.full(m, -1, dtype=np.int8), None)
        instance = cls.__new__(cls)
        instance._set(n, "maxcut", [group])
        return instance

    def _set(self, n: int, kind: str, groups: list[ConstraintGroup]) -> None:
        if not 0 <= n < 2 ** 63:
            raise ValueError(f"variable count must be nonnegative and below 2^63, got {n}")
        if kind not in ("general", "kxor", "maxcut"):
            raise ValueError(f"unknown kind {kind!r}")
        _check_scopes(n, kind, groups)
        self.__dict__.update(n=n, kind=kind, _groups=tuple(groups),
                             m=sum(len(group.cons) for group in groups),
                             max_arity=max((group.arity for group in groups), default=0))

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"CspInstance is immutable; cannot set {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"CspInstance is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        return self._value == getattr(other, "_value", None)

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"CspInstance(n={self.n}, m={self.m}, kind={self.kind!r})"

    @cached_property
    def _value(self) -> tuple:
        """n, kind and every group's arrays, as bytes: equal exactly for
        instances with equal constraint tuples."""
        return (self.n, self.kind, *(
            (g.arity, *(None if a is None else a.tobytes()
                        for a in (g.cons, g.scopes, g.signs, g.tables)))
            for g in self._groups))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """One Constraint per row of the groups, in constraint order."""
        out: list = [None] * self.m
        for g in self._groups:
            forms = ({"b": b} for b in g.signs.tolist()) if g.signs is not None else (
                {"table": tuple(t)} for t in g.tables.tolist())
            for c, scope, form in zip(g.cons.tolist(), g.scopes.tolist(), forms):
                out[c] = Constraint(scope=tuple(scope), **form)
        return tuple(out)

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for g in self._groups:
            deg += np.bincount(g.scopes.ravel(order="K"), minlength=self.n)
        return _read_only(deg)

    @cached_property
    def _mu_sum(self) -> Fraction:
        """The exact sum over the constraints of each one's mu: a parity is
        satisfied by half of its 2^arity local assignments."""
        return sum((Fraction(
            len(g.cons) << (g.arity - 1) if g.tables is None else int(g.tables.sum()),
            1 << g.arity) for g in self._groups), Fraction(0))

    def require_distinct_scopes(self) -> None:
        if not self._distinct_scopes:
            raise ValueError("instance has duplicate scopes")

    @cached_property
    def _distinct_scopes(self) -> bool:
        scopes = {frozenset(c.scope) for c in self.constraints}
        return len(scopes) == len(self.constraints)

    @cached_property
    def _triangle_free(self) -> bool:
        return _scan_triangle_free(self.constraints)

    @cached_property
    def _em_cdf_memo(self) -> dict:
        """One-entry memo of dp_mechanisms.em_over_assignments_batch."""
        return {}

    @cached_property
    def _json_text(self) -> str:
        """instance_to_json's text, from the groups' arrays (so numpy integers
        in a Constraint are written as the integers they are). A graph's edges
        are each [u,v,1.0] as json.dumps formats it, ids by %d;
        _graph_from_text seeds it with the text it read."""
        if self.kind == "maxcut":
            edges = ("[%d,%d,1.0]," * self.m)[:-1] % tuple(self._groups[0].scopes.ravel().tolist())
            return '{"edges":[%s],"kind":"maxcut","n":%d}' % (edges, self.n)
        cons: list = [None] * self.m
        for g in self._groups:
            key, forms = (("b", g.signs.tolist()) if g.signs is not None
                          else ("table", g.tables.tolist()))
            for c, scope, form in zip(g.cons.tolist(), g.scopes.tolist(), forms):
                cons[c] = {"scope": scope, key: form}
        doc = {"n": self.n, "kind": self.kind, "constraints": cons}
        return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)

    @cached_property
    def _adjacency(self) -> sparse.csr_array:
        # a graph's (n, n) adjacency, a parallel edge counted once per copy, in
        # the smallest signed dtype holding twice the largest degree
        if self.kind != "maxcut":
            raise ValueError(f"an adjacency needs a Max-Cut instance, got kind {self.kind!r}")
        u, v = self._groups[0].scopes.T
        dtype = np.min_scalar_type(-1 - 2 * int(self._degrees.max(initial=0)))
        ends = (np.concatenate((u, v)), np.concatenate((v, u)))
        return sparse.csr_array((np.ones(2 * u.size, dtype), ends), shape=(self.n, self.n))

    def has_triangle(self) -> bool:
        # an edge (x, y) of the adjacency A closes a triangle iff (A @ A)[x, y] > 0
        adj = self._adjacency.astype(np.float64)
        return bool((adj @ adj).multiply(adj).sum() > 0)


def _check_scopes(n: int, kind: str, groups: list[ConstraintGroup]) -> None:
    """Raises for the first constraint, in constraint order, whose scope holds
    an index outside [0, n) or one index twice; for a graph, the first edge
    that is a self-loop or out of range (_check_edge). A Constraint's
    indices are distinct, so only a graph's edge columns can repeat one."""
    first = None
    for g in groups:
        s = g.scopes
        loops = s[:, 0] == s[:, 1] if kind == "maxcut" else np.zeros(len(s), dtype=bool)
        # whole-array extremes first: one pass each in the common, valid case
        if loops.any() or s.size and (s.min() < 0 or s.max() >= n):
            row = int((((s < 0) | (s >= n)).any(axis=1) | loops).argmax())
            if first is None or g.cons[row] < first[0]:
                first = (g.cons[row], g.scopes[row].tolist())
    if first is None:
        return
    scope = first[1]
    if kind == "maxcut":
        _check_edge(n, *scope)
    raise ValueError(f"scope {tuple(scope)} out of range for n={n}")


def _check_edge(n: int, u, v) -> None:
    """Raises ValueError naming (u, v) unless it is an edge of an n-vertex
    graph: a self-loop first, then an endpoint outside [0, n)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def eval_value(problem: CspInstance, xs):
    """Number of satisfied constraints (cut edges) of one assignment, as a
    float, or of each row of a (trials, n) block of assignments, as a
    float64 vector.

    Rows are evaluated rows_per_chunk at a time, so the temporaries of a
    chunk hold about 2^VALUE_CHUNK_BITS (row, scope entry) pairs. Row r of
    all_values(problem, active) equals the value of
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


def rows_per_chunk(problem: CspInstance) -> int:
    """Rows of a (rows, n) assignment block per chunk, so that a chunk
    holds about 2^VALUE_CHUNK_BITS entries of the widest per-row array the
    value and the kernels build: n variables, or m * arity (row, scope
    entry) pairs. At least one row."""
    width = problem.m * problem.max_arity
    return max(1, (1 << VALUE_CHUNK_BITS) // max(1, problem.n, width))


def _block_values(problem: CspInstance, block: np.ndarray) -> np.ndarray:
    # float64 holds every count exactly
    count = np.zeros(block.shape[0])
    for group in problem._groups:
        count += group.satisfied(block).sum(axis=1)
    return count


def associated_advantage(instance: CspInstance, x) -> float:
    """Mean centered constraint value: (value - sum of the per-constraint
    mu) / m, in exact fractions, so value = (mu + advantage) * m holds."""
    if instance.m == 0:
        raise ValueError("advantage undefined for an empty instance")
    value = int(eval_value(instance, as_assignment(x, instance.n)))
    return float((value - instance._mu_sum) / instance.m)


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


def mu(obj: Constraint | CspInstance) -> float:
    """Exact satisfaction probability under a uniform assignment.

    For an instance, the average over constraints, in exact fractions from
    its groups. Truth tables are enumerated directly; arity is capped at
    construction time.
    """
    if isinstance(obj, Constraint):
        return 0.5 if obj.is_xor else sum(obj.table) / len(obj.table)
    if obj.m == 0:
        raise ValueError("mu undefined for an empty instance")
    return float(obj._mu_sum / obj.m)


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


def degrees(problem: CspInstance) -> np.ndarray:
    """Read-only int64 per-variable count of constraints whose scope
    contains the variable (a graph's vertex degrees, a parallel edge counted
    once per copy), computed once per instance."""
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
    problem: CspInstance, active: Sequence[int]
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """(positions in `active`, local table) for each constraint (edge)
    whose scope lies inside `active`, group by group (see ConstraintGroup),
    in constraint order within a group. A table has one length-2 axis per
    scope variable, in scope order, where index 1 means +1; it holds 0/1
    counts in the smallest unsigned dtype that holds the number of tables,
    one array per distinct table.
    """
    pos = {v: t for t, v in enumerate(active)}
    if len(pos) != len(active) or not all(0 <= v < problem.n for v in pos):
        raise ValueError(f"active variables must be distinct and in [0, {problem.n})")
    where = np.full(problem.n, -1)  # each variable's position in `active`, -1 outside it
    where[active] = np.arange(len(active))
    inside = []
    for group in problem._groups:
        at = where[group.scopes]
        keep = (at >= 0).all(axis=1)
        forms = group.tables if group.signs is None else group.signs
        inside.append((group.arity, at[keep], forms[keep], group.signs is not None))
    dtype = np.min_scalar_type(sum(len(at) for _, at, _, _ in inside))
    tables = []
    for arity, at, forms, is_xor in inside:
        if is_xor:  # sign -1 or +1, as table False (0) or True (1)
            distinct, which = (-1, 1), forms > 0
        else:
            distinct, which = np.unique(forms, axis=0, return_inverse=True)
            distinct = map(tuple, distinct.tolist())
        shared = [_count_table(arity, form, dtype) for form in distinct]
        tables += zip(zip(*at.T.tolist()), map(shared.__getitem__, which.reshape(-1).tolist()))
    return tables


@functools.lru_cache(maxsize=256)
def _count_table(arity: int, form: int | tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The read-only 0/1 local table in dtype of a constraint of this arity
    and form, the sign b of a parity or a truth table; a few tables serve
    most calls, so they are kept."""
    if type(form) is int:
        # the product is b when the number of -1 signs is even for b = +1,
        # odd for b = -1; the count does not depend on the axis order
        minus = arity - np.bitwise_count(np.arange(1 << arity))
        return _read_only(((minus & 1) == (form < 0)).astype(dtype).reshape((2,) * arity))
    # flat index bit t is scope position t, the last C-order axis
    return _read_only(np.asarray(form, dtype=dtype).reshape((2,) * arity).T)


class ValueChunks:
    """The value table of the sub-problem induced on `active`, over rows
    [0, 2^bits), as (start, chunk) pairs in row order; active positions
    >= bits stay -1.

    Row r is the assignment with active[t] = +1 exactly when bit t of r is
    set. Each chunk fixes the bits from L = min(bits, VALUE_CHUNK_BITS) up
    and holds one entry per setting of the low L bits. Every constraint
    (edge) inside `active` adds its local table (see _local_tables), sliced
    at the chunk's fixed bits and broadcast over the rest, in
    _local_tables's order. An entry is the row's hit count, its value.
    """

    def __init__(
        self, problem: CspInstance, active: Sequence[int], bits: int
    ) -> None:
        self.tables = _local_tables(problem, list(active))
        self.dtype = self.tables[0][1].dtype if self.tables else np.uint8
        self.bits = bits

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
    problem: CspInstance, active: Sequence[int]
) -> np.ndarray:
    """Values of the sub-problem induced on `active`, for all 2^|active|
    assignments of the active variables, as float64.

    Row r has active[t] = +1 exactly when bit t of r is set, else -1 (see
    assignment_rows). Only constraints (edges) whose scope lies entirely
    inside `active` contribute. Working memory beyond the result is one
    chunk of ValueChunks.
    """
    active = list(active)
    out = np.empty(1 << len(active), dtype=np.float64)
    for start, chunk in ValueChunks(problem, active, len(active)):
        out[start:start + chunk.shape[0]] = chunk
    return out


_INSTANCE_FIELDS = {"n", "kind", "constraints", "edges"}
_CONSTRAINT_FIELDS = {"scope", "b", "table"}


def instance_to_json(problem: CspInstance) -> str:
    """Compact JSON with sorted keys, as json.dumps formats it, formatted
    once per object; a graph's is the text it was read from, if it was."""
    return problem._json_text


def _json_int(value, field: str) -> int:
    """value, if it is a JSON integer (not a bool, a float or a string)."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _json_list(value, field: str) -> list:
    """value, if it is a JSON array."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def instance_from_json(text: str) -> CspInstance:
    """Parses instance_to_json's format. n, scope entries, b, table entries
    and edge endpoints must be JSON integers, anything else (a float, a
    bool, a string) is rejected, not rounded; each edge is [u, v, w] with w
    a JSON number equal to 1 (1, 1.0 or 1e0, never true or "1"), any other
    weight is rejected naming the edge. A field of the wrong JSON type, or a
    missing one, raises ValueError naming it.

    Text that is exactly instance_to_json of a graph with edges, plus at
    most one final newline, is read as arrays (_graph_from_text); any other
    text goes through json.loads (_instance_from_doc). Both build the graph
    from its (u, v) columns, so they accept and reject alike."""
    graph = _graph_from_text(text)
    return _instance_from_doc(text) if graph is None else graph


_GRAPH_HEAD = '{"edges":['
_GRAPH_TAIL = '],"kind":"maxcut","n":'
_INT_DIGITS = 18  # a canonical %d token of at most 18 digits fits int64
_POW10 = 10 ** np.arange(_INT_DIGITS, dtype=np.int64)
# the least canonical value of a token of each length: 0 for one digit, 10^(L-1) for L > 1
_INT_FLOOR = np.array([0, 0, *_POW10[1:]])


def _graph_from_text(text: str) -> CspInstance | None:
    """The graph of text that is exactly instance_to_json(graph) for a graph
    with edges, plus at most one final newline; None for any other text.

    Every edge's weight token must be the bytes 1.0, so the body with each
    ",1.0]" cut to "]" is "[u,v],...,[u,v]" with one cut per edge. Its
    endpoints are read from its bytes (np.frombuffer): the bytes between
    them must be "[,]," repeated, endpoints and n canonical %d tokens
    (digits, no leading zero, at most 18 of them). So the text is the
    graph's instance_to_json, which the graph keeps, and json.loads would
    read the same numbers from it."""
    if not (text.isascii() and text.startswith(_GRAPH_HEAD + "[")):
        return None
    text = text[:-1] if text.endswith("\n") else text
    end = text.rfind(_GRAPH_TAIL)
    n_token = text[end + len(_GRAPH_TAIL):-1]
    if not (end > 0 and text.endswith("}") and n_token.isdigit()
            and len(n_token) <= _INT_DIGITS and (n_token == "0" or n_token[0] != "0")):
        return None
    body = text[len(_GRAPH_HEAD):end].encode("ascii")  # "[u,v,1.0],...,[u,v,1.0]"
    pairs = body.replace(b",1.0]", b"]")
    skeleton = pairs.translate(None, b"0123456789")
    m = (len(skeleton) + 1) // 4
    if skeleton != (b"[,]," * m)[:-1] or len(body) - len(pairs) != 4 * m:
        return None
    data = np.frombuffer(pairs, dtype=np.uint8)
    # the commas, one before the pairs and one after them: edge e's "[u,v]"
    # lies between bounds[2e] and bounds[2e + 2], its inner comma at bounds[2e + 1]
    bounds = np.empty(2 * m + 1, dtype=np.intp)
    bounds[0] = -1
    bounds[1:-1] = np.flatnonzero(data == ord(","))
    bounds[-1] = data.size
    ends = np.concatenate((bounds[1::2], bounds[2::2] - 1))  # u, then v
    lengths = ends - np.concatenate((bounds[:-1:2] + 2, bounds[1::2] + 1))
    width = int(lengths.max())
    if lengths.min() < 1 or width > _INT_DIGITS:
        return None
    ids = _int_tokens(data, ends, lengths, width)
    if ids is None:
        return None
    graph = CspInstance.from_edges(int(n_token), ids[:m], ids[m:])
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


def _instance_from_doc(text: str) -> CspInstance:
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
        edges = _json_list(doc["edges"], "'edges'")
        for edge in edges:
            if not (type(edge) is list and len(edge) == 3):
                raise ValueError(f"edge must be a list [u, v, 1], got {edge!r}")
            if not (type(edge[2]) in (int, float) and edge[2] == 1):
                raise ValueError(f"edge weight must be 1, got {edge}")
        return CspInstance.from_edges(n, *_edge_columns(n, [edge[:2] for edge in edges]))
    cons = []
    for entry in _json_list(doc.get("constraints", []), "'constraints'"):
        if not isinstance(entry, dict):
            raise ValueError(f"constraint must be a JSON object, got {entry!r}")
        unknown = set(entry) - _CONSTRAINT_FIELDS
        if unknown:
            raise ValueError(f"unknown constraint fields: {sorted(unknown)}")
        if "scope" not in entry:
            raise ValueError("constraint requires 'scope'")
        scope = tuple(_json_int(i, "scope entry") for i in _json_list(entry["scope"], "'scope'"))
        if "b" in entry and "table" in entry:
            raise ValueError("give either 'b' or 'table', not both")
        if "b" in entry:
            cons.append(Constraint(scope=scope, b=_json_int(entry["b"], "b")))
        elif "table" in entry:
            table = tuple(_json_int(t, "table entry") for t in _json_list(entry["table"], "'table'"))
            cons.append(Constraint(scope=scope, table=table))
        else:
            raise ValueError("constraint requires 'b' or 'table'")
    return CspInstance(n=n, constraints=tuple(cons), kind=kind)


def _edge_columns(n: int, pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """The int64 u and v columns of a document's [u, v] endpoint pairs.
    Unless every endpoint is a JSON integer in [0, n), raises for the first
    pair that is not an edge (_check_edge, comparing numbers as they are,
    so a nan names its edge) or, where that passes, not two integers."""
    flat = [a for pair in pairs for a in pair]
    if set(map(type, flat)) <= {int} and 0 <= min(flat, default=0) and max(flat, default=-1) < n:
        return np.array(flat[0::2], dtype=np.int64), np.array(flat[1::2], dtype=np.int64)
    for u, v in pairs:
        if {type(u), type(v)} <= {int, float}:
            _check_edge(n, u, v)
        if not type(u) is type(v) is int:
            raise ValueError(f"edge endpoints must be integers, got {[u, v]}")


def load_instance(path: str) -> CspInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(problem: CspInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(problem))
        fh.write("\n")


def load_edge_list(path: str) -> CspInstance:
    """Parses the text format: one 'u v' or 'u v 1' line per edge (a weight
    token is any number equal to 1), with '#' comments and blank lines
    ignored; vertices 0-indexed, n one more than the largest. A negative
    endpoint, one that int64 cannot count past, or any other weight is
    rejected naming its line."""
    ends: list[int] = []
    max_vertex = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"line {lineno}: expected 'u v [1]', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                unit = len(parts) == 2 or float(parts[2]) == 1
            except ValueError:
                raise ValueError(
                    f"line {lineno}: endpoints must be integers and the weight a number, got {raw!r}"
                ) from None
            if not unit:
                raise ValueError(f"line {lineno}: edge weight must be 1, got {raw!r}")
            if not (0 <= min(u, v) and max(u, v) < 2 ** 63 - 1):
                raise ValueError(f"line {lineno}: endpoints must lie in [0, 2^63 - 1), got {raw!r}")
            ends += (u, v)
            max_vertex = max(max_vertex, u, v)
    return CspInstance.from_edges(max_vertex + 1, *np.array(ends, dtype=np.int64).reshape(-1, 2).T)
