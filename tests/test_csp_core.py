import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcsp import csp_core
from privcsp.csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
    all_values,
    as_assignment,
    associated_advantage,
    assignment_rows,
    constraint_groups,
    degrees,
    derivative_q,
    eval_value,
    g_value,
    instance_from_json,
    instance_to_json,
    is_triangle_free,
    lambda_j,
    load_edge_list,
    load_instance,
    mu,
    save_instance,
)
from privcsp.generators import gen_triangle_free_graph
from privcsp.harness import ExperimentConfig


def xor(scope, b=1):
    return Constraint(scope=tuple(scope), b=b)


def all_rows(k):
    """Every +-1 assignment of k variables, in enumeration order: entry t
    of row r is +1 exactly when bit t of r is set."""
    return [np.array([1 if (r >> t) & 1 else -1 for t in range(k)]) for r in range(1 << k)]


# WeightedGraph, the Max-Cut type merged into CspInstance, or an isinstance
# test that picks a path by instance type (the name of what is tested, or the
# type it is tested against)
INSTANCE_TYPE_TEST = re.compile(
    r"WeightedGraph|isinstance\((problem|graph|instance|inst|a|b|other)\b|isinstance\([^)]*CspInstance")


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def edge_list(g):
    """A graph's edges, as (u, v) tuples in edge order."""
    return tuple(c.scope for c in g.constraints)


def edge_columns(g):
    """A graph's u and v edge columns: the rows of its 2XOR group's scopes."""
    return constraint_groups(g)[0].scopes.T


def rand_instance(rng, n=8, m=6, k=3, kind="kxor"):
    cons = []
    for _ in range(m):
        scope = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        cons.append(Constraint(scope=scope, b=int(2 * rng.integers(0, 2) - 1)))
    return CspInstance(n=n, constraints=tuple(cons), kind=kind)


class TestConstraint:
    def test_scope_must_be_distinct(self):
        with pytest.raises(ValueError):
            Constraint(scope=(1, 1), b=1)

    def test_exactly_one_form(self):
        with pytest.raises(ValueError):
            Constraint(scope=(0, 1), b=1, table=(0, 1, 1, 0))
        with pytest.raises(ValueError):
            Constraint(scope=(0, 1))

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            Constraint(scope=(0, 1), table=(1, 0, 1))

    def test_arity_cap(self):
        with pytest.raises(ResourceCapError):
            Constraint(scope=tuple(range(21)), table=tuple([1] * 2 ** 21))

    def test_xor_evaluation(self):
        c = xor((1, 2), b=1)
        assert c.evaluate(np.array([1, 1, 1], dtype=np.int8)) == 1
        assert c.evaluate(np.array([1, 1, -1], dtype=np.int8)) == 0

    def test_table_bit_order(self):
        # index bit t corresponds to scope position t being +1
        table = [0] * 4
        table[0b01] = 1  # scope[0] = +1, scope[1] = -1
        c = Constraint(scope=(0, 1), table=tuple(table))
        assert c.evaluate_local([1, -1]) == 1
        assert c.evaluate_local([-1, 1]) == 0


class TestEvalValue:
    def test_satisfied_xor(self):
        inst = CspInstance(n=3, constraints=(xor((1, 2), b=1),), kind="kxor")
        assert eval_value(inst, [1, 1, 1]) == 1

    def test_empty_instance(self):
        inst = CspInstance(n=3, constraints=(), kind="kxor")
        assert eval_value(inst, [1, -1, 1]) == 0

    def test_maxcut_path(self):
        g = cut_graph(3, ((0, 1), (1, 2)))
        assert eval_value(g, [1, -1, 1]) == 2

    def test_length_mismatch(self):
        inst = CspInstance(n=3, constraints=(), kind="kxor")
        with pytest.raises(ValueError):
            eval_value(inst, [1, 1])

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            as_assignment([1, 0, 1])


def counted_values(problem, xs):
    """Each row's value counted in Python, one Constraint at a time."""
    return np.array([sum(c.evaluate_local([int(x[i]) for i in c.scope]) for c in problem.constraints)
                     for x in xs], dtype=np.float64)


def random_constraint(rng, n, arity, form):
    """A constraint on `arity` distinct variables in random order, in sign
    form or as a random truth table."""
    scope = tuple(rng.choice(n, size=arity, replace=False).tolist())
    if form == "sign":
        return Constraint(scope=scope, b=int(rng.choice([-1, 1])))
    return Constraint(scope=scope, table=tuple(rng.integers(0, 2, 2 ** arity).tolist()))


def random_block(rng, rows, n, dtype=np.int8):
    return np.where(rng.random((rows, n)) < 0.5, -1, 1).astype(dtype)


class TestBlockEvaluator:
    """eval_value's variable-major evaluator against a Python count."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 50])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("form", ["sign", "table"])
    def test_one_group(self, form, arity, rows):
        rng = np.random.default_rng(100 * arity + rows)
        inst = CspInstance(n=9, constraints=[random_constraint(rng, 9, arity, form) for _ in range(13)],
                           kind="kxor" if form == "sign" else "general")
        assert len(constraint_groups(inst)) == 1
        xs = random_block(rng, rows, 9)
        assert np.array_equal(eval_value(inst, xs), counted_values(inst, xs))
        assert eval_value(inst, xs[0]) == counted_values(inst, xs[:1])[0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rows", [1, 3, 17])
    def test_mixed_groups(self, seed, rows):
        # sign and table groups of arity 1 to 3 in one instance, constraints
        # of one scope repeated, in int8, int64 and float blocks
        rng = np.random.default_rng(seed)
        cons = [random_constraint(rng, 7, int(rng.integers(1, 4)), ("sign", "table")[int(rng.integers(2))])
                for _ in range(20)]
        inst = CspInstance(n=7, constraints=cons + cons[:3])
        assert len(constraint_groups(inst)) > 2
        xs = random_block(rng, rows, 7)
        expect = counted_values(inst, xs)
        for dtype in (np.int8, np.int64, np.float64):
            assert np.array_equal(eval_value(inst, xs.astype(dtype)), expect)

    @pytest.mark.parametrize("rows", [1, 3, 40])
    def test_maxcut(self, rows):
        rng = np.random.default_rng(rows)
        g = gen_triangle_free_graph("random_bipartite", 12, 12, 60, seed=rows)
        xs = random_block(rng, rows, g.n)
        cut = [sum(x[u] != x[v] for u, v in edge_list(g)) for x in xs]
        assert eval_value(g, xs).tolist() == cut == counted_values(g, xs).tolist()

    @pytest.mark.parametrize("problem", [
        CspInstance(n=4, constraints=()),
        CspInstance(n=4, constraints=(), kind="kxor"),
        cut_graph(4, ()),
        CspInstance(n=0, constraints=()),
    ])
    def test_zero_constraints(self, problem):
        for rows in (1, 5):
            values = eval_value(problem, -np.ones((rows, problem.n), dtype=np.int8))
            assert values.dtype == np.float64 and values.tolist() == [0.0] * rows
        assert eval_value(problem, -np.ones(problem.n)) == 0.0

    def test_blocks_cross_rows_per_chunk(self, monkeypatch):
        rng = np.random.default_rng(5)
        inst = CspInstance(n=8, constraints=[
            random_constraint(rng, 8, arity, form) for arity in (1, 2, 3) for form in ("sign", "table")
            for _ in range(4)])
        xs = random_block(rng, 23, 8)
        whole = eval_value(inst, xs)
        # 2^6 entries per chunk over m * max arity = 72: one row a chunk;
        # 2^9 over 72: 7 rows a chunk, the last chunk partial
        for bits, step in ((6, 1), (9, 7)):
            monkeypatch.setattr(csp_core, "VALUE_CHUNK_BITS", bits)
            assert csp_core.rows_per_chunk(inst) == step
            assert np.array_equal(eval_value(inst, xs), whole)
        assert np.array_equal(whole, counted_values(inst, xs))

    def test_group_sums_beyond_int16(self):
        # 70000 parallel edges: the signed sum over the group is +-70000, which
        # no int8 or int16 accumulator holds
        g = CspInstance.from_edges(2, np.zeros(70_000, np.intp), np.ones(70_000, np.intp))
        xs = np.array([[1, -1], [1, 1], [-1, 1]], dtype=np.int8)
        assert eval_value(g, xs).tolist() == [70_000.0, 0.0, 70_000.0]

    @pytest.mark.parametrize("bad", [0, 2, -2, 0.5, 127])
    def test_non_pm1_refused(self, bad):
        inst = CspInstance(n=3, constraints=(xor((0, 1)),), kind="kxor")
        block = np.ones((4, 3))
        block[2, 1] = bad
        for xs in (block, block[2], block.astype(np.int64) if float(bad).is_integer() else block):
            with pytest.raises(ValueError, match=r"^assignment entries must be -1 or \+1$"):
                eval_value(inst, xs)


class TestAdvantage:
    def test_single_2xor(self):
        inst = CspInstance(n=3, constraints=(xor((1, 2), b=1),), kind="kxor")
        assert associated_advantage(inst, [1, 1, 1]) == 0.5

    def test_centered_average_is_zero(self):
        rng = np.random.default_rng(0)
        inst = rand_instance(rng, n=6, m=5, k=2)
        total = sum(associated_advantage(inst, row) for row in all_rows(6))
        assert abs(total) < 1e-9

    def test_maxcut_single_edge(self):
        g = cut_graph(2, ((0, 1),))
        assert associated_advantage(g, [1, -1]) == 0.5

    def test_empty_raises(self):
        inst = CspInstance(n=2, constraints=(), kind="kxor")
        with pytest.raises(ValueError):
            associated_advantage(inst, [1, 1])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_value_identity(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, n=7, m=int(rng.integers(1, 9)), k=2)
        x = 2 * rng.integers(0, 2, size=7) - 1
        lhs = eval_value(inst, x)
        rhs = (mu(inst) + associated_advantage(inst, x)) * inst.m
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGValue:
    def test_single_satisfied(self):
        inst = CspInstance(n=2, constraints=(xor((0, 1), b=1),), kind="kxor")
        assert g_value(inst, [1, 1]) == 1.0

    def test_odd_k_antisymmetry(self):
        rng = np.random.default_rng(1)
        inst = rand_instance(rng, n=8, m=6, k=3)
        x = 2 * rng.integers(0, 2, size=8) - 1
        assert g_value(inst, -x) == pytest.approx(-g_value(inst, x))

    def test_unit_second_moment(self):
        rng = np.random.default_rng(2)
        # distinct scopes required for orthogonality of the parity terms
        scopes = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        cons = tuple(
            Constraint(scope=s, b=int(2 * rng.integers(0, 2) - 1)) for s in scopes
        )
        inst = CspInstance(n=5, constraints=cons, kind="kxor")
        total = 0.0
        for row in all_rows(5):
            total += g_value(inst, row) ** 2
        assert total / 2 ** 5 == pytest.approx(1.0)

    def test_kind_error(self):
        c = Constraint(scope=(0, 1), table=(1, 0, 0, 1))
        inst = CspInstance(n=2, constraints=(c,), kind="general")
        with pytest.raises(ValueError):
            g_value(inst, [1, 1])


class TestMu:
    def test_xor_half(self):
        assert mu(xor((0, 1, 2), b=-1)) == 0.5

    def test_always_true(self):
        assert mu(Constraint(scope=(0,), table=(1, 1))) == 1.0

    def test_and_quarter(self):
        # AND of two +1 literals: satisfied only at (+1, +1) = index 0b11
        table = [0, 0, 0, 1]
        assert mu(Constraint(scope=(0, 1), table=tuple(table))) == 0.25

    def test_instance_average(self):
        cons = (xor((0, 1)), Constraint(scope=(2,), table=(1, 1)))
        inst = CspInstance(n=3, constraints=cons, kind="general")
        assert mu(inst) == 0.75


def brute_force_triangle_free(instance):
    scopes = [set(c.scope) for c in instance.constraints]
    for a, b in itertools.combinations(range(len(scopes)), 2):
        if len(scopes[a] & scopes[b]) > 1:
            return False
    for a, b, c in itertools.combinations(range(len(scopes)), 3):
        if scopes[a] & scopes[b] and scopes[b] & scopes[c] and scopes[a] & scopes[c]:
            return False
    return True


class TestTriangleFree:
    def test_hyper_triangle(self):
        cons = (xor((1, 2)), xor((2, 3)), xor((1, 3)))
        inst = CspInstance(n=4, constraints=cons, kind="kxor")
        assert not is_triangle_free(inst)

    def test_shared_pair(self):
        cons = (xor((1, 2, 3)), xor((2, 3, 4)))
        inst = CspInstance(n=5, constraints=cons, kind="kxor")
        assert not is_triangle_free(inst)

    def test_disjoint_scopes(self):
        cons = (xor((0, 1)), xor((2, 3)), xor((4, 5)))
        inst = CspInstance(n=6, constraints=cons, kind="kxor")
        assert is_triangle_free(inst)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 31))
        inst = rand_instance(rng, n=10, m=m, k=int(rng.integers(2, 4)))
        assert is_triangle_free(inst) == brute_force_triangle_free(inst)


    def test_array_check_matches_scan(self):
        """The array check (_triangle_free_groups) equals the reference scan
        on seeded random instances of arity 1 to 3, with repeated and
        permuted scopes, truth-table groups and Max-Cut multigraphs with
        parallel edges, and on the empty instance and K3,3."""
        rng = np.random.default_rng(24)
        k33 = cut_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        instances = [CspInstance(n=0, constraints=(), kind="kxor"), cut_graph(0, ()), cut_graph(4, ()),
                     k33, CspInstance(n=6, constraints=k33.constraints, kind="kxor")]
        for t in range(3000):
            n = int(rng.integers(2, 10))
            if t % 3 == 0:  # a multigraph on few vertices: parallel edges are common
                m = int(rng.integers(0, 9))
                u = rng.integers(0, n, size=m)
                instances.append(CspInstance.from_edges(n, u, (u + rng.integers(1, n, size=m)) % n))
                continue
            cons = []
            for _ in range(int(rng.integers(0, 9))):
                if cons and rng.random() < 0.15:  # a repeated scope, maybe permuted
                    scope = tuple(rng.permutation(cons[int(rng.integers(len(cons)))].scope).tolist())
                else:
                    scope = tuple(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                             replace=False).tolist())
                if t % 3 == 2 and rng.random() < 0.5:
                    cons.append(Constraint(scope=scope, table=tuple(
                        rng.integers(0, 2, 2 ** len(scope)).tolist())))
                else:
                    cons.append(xor(scope, b=int(rng.choice([-1, 1]))))
            instances.append(CspInstance(n=n, constraints=cons, kind="general" if t % 3 == 2 else "kxor"))
        verdicts = [csp_core._triangle_free_groups(constraint_groups(inst), degrees(inst))
                    for inst in instances]
        assert verdicts == [csp_core._scan_triangle_free(inst.constraints) for inst in instances]
        assert verdicts[:5] == [True, True, True, False, False]
        assert 500 < sum(verdicts) < len(verdicts) - 500  # both verdicts are common


class TestDegrees:
    def test_single_constraint(self):
        inst = CspInstance(n=5, constraints=(xor((1, 2, 3), b=1),), kind="kxor")
        assert degrees(inst).tolist() == [0, 1, 1, 1, 0]

    def test_cycle_degrees(self):
        g = cut_graph(4, tuple((i, (i + 1) % 4) for i in range(4)))
        assert degrees(g).tolist() == [2, 2, 2, 2]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_degree_sum(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 10))
        inst = rand_instance(rng, n=8, m=m, k=k)
        assert degrees(inst).sum() == k * m


class TestDerivativeQ:
    def test_2xor(self):
        c = xor((5, 3), b=1)
        assert derivative_q(c, 5, {3: 1}) == 0.5
        assert derivative_q(c, 5, {3: -1}) == -0.5

    def test_independent_variable(self):
        # table ignores scope position 0: value depends on position 1 only
        table = (0, 0, 1, 1)
        c = Constraint(scope=(0, 1), table=table)
        assert derivative_q(c, 0, {1: 1}) == 0.0

    def test_xor_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            scope = tuple(range(k))
            c = xor(scope, b=int(2 * rng.integers(0, 2) - 1))
            j = int(rng.integers(0, k))
            fixed = {i: int(2 * rng.integers(0, 2) - 1) for i in scope if i != j}
            assert abs(derivative_q(c, j, fixed)) == 0.5

    def test_missing_fixed(self):
        with pytest.raises(ValueError):
            derivative_q(xor((0, 1, 2)), 0, {1: 1})

    def test_j_not_in_scope(self):
        with pytest.raises(ValueError):
            derivative_q(xor((0, 1)), 2, {0: 1, 1: 1})


class TestLambdaJ:
    def test_no_active(self):
        inst = CspInstance(n=4, constraints=(xor((0, 1)),), kind="kxor")
        # both scope variables kept: no constraint is active for 0
        assert lambda_j(inst, 0, {0, 1}, [1, 1, 1, 1]) == 0.0

    def test_single_active(self):
        inst = CspInstance(n=3, constraints=(xor((0, 1, 2), b=1),), kind="kxor")
        assert lambda_j(inst, 0, {0}, [1, 1, 1]) == 1.0

    def test_contribution_magnitude(self):
        cons = (xor((0, 1)), xor((0, 2)), xor((1, 2)))
        inst = CspInstance(n=3, constraints=cons, kind="kxor")
        base = lambda_j(inst, 0, {0}, [1, 1, 1])
        flipped = lambda_j(inst, 0, {0}, [1, -1, 1])
        # flipping one fixed variable moves one active term by 2/sqrt(m)
        assert abs(base - flipped) == pytest.approx(2.0 / np.sqrt(3))

    def test_j_must_be_kept(self):
        inst = CspInstance(n=3, constraints=(xor((0, 1)),), kind="kxor")
        with pytest.raises(ValueError):
            lambda_j(inst, 0, {1}, [1, 1, 1])


class TestEnumeration:
    def test_all_values_matches_eval(self):
        rng = np.random.default_rng(4)
        inst = rand_instance(rng, n=6, m=7, k=2)
        vals = all_values(inst, list(range(6)))
        for r, row in enumerate(all_rows(6)):
            assert vals[r] == eval_value(inst, row)

    def test_induced_subproblem_only(self):
        g = cut_graph(4, ((0, 1), (1, 2), (2, 3)))
        vals = all_values(g, [0, 1])
        # only the (0,1) edge lies inside the active set
        assert vals.max() == 1.0 and vals.min() == 0.0


def mixed_instance(seed, n=9, m=14):
    """Sign-form and truth-table constraints of arity 1 to 4."""
    rng = np.random.default_rng(seed)
    cons = []
    for _ in range(m):
        k = int(rng.integers(1, 5))
        scope = tuple(rng.choice(n, size=k, replace=False).tolist())
        if rng.random() < 0.5:
            cons.append(Constraint(scope=scope, b=int(2 * rng.integers(0, 2) - 1)))
        else:
            cons.append(Constraint(scope=scope, table=tuple(rng.integers(0, 2, 2 ** k).tolist())))
    return CspInstance(n=n, constraints=tuple(cons))


def multigraph(seed, n=8, m=16):
    """Random edges, the first one repeated at the end."""
    rng = np.random.default_rng(seed)
    edges = [tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(m)]
    return cut_graph(n, (*edges, edges[0]))


def reference_values(problem, active):
    """Per-row values of the sub-problem induced on `active`: eval_value for
    a CSP; for a graph, its cut edges inside `active`, counted one by one."""
    inside = set(active)
    vals = []
    for row in all_rows(len(active)):
        x = np.full(problem.n, -1)
        x[list(active)] = row
        if problem.kind == "maxcut":
            vals.append(sum(u in inside and v in inside and x[u] != x[v] for u, v in edge_list(problem)))
        else:
            sub = CspInstance(n=problem.n, constraints=tuple(
                c for c in problem.constraints if inside.issuperset(c.scope)))
            vals.append(eval_value(sub, x))
    return np.array(vals, dtype=np.float64)


class TestValueKernel:
    # permuted, non-sorted active sets; the partial ones leave constraints
    # straddling the boundary, which must not count
    ACTIVE = ([4, 0, 7, 2, 8, 1, 5], [8, 7, 6, 5, 4, 3, 2, 1, 0], [3], [6, 1])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("active", ACTIVE)
    def test_mixed_constraints_match_reference(self, seed, active):
        inst = mixed_instance(seed)
        assert np.array_equal(all_values(inst, active), reference_values(inst, active))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("active", [[5, 0, 3, 7, 1], [7, 6, 5, 4, 3, 2, 1, 0]])
    def test_multigraph_matches_reference(self, seed, active):
        g = multigraph(seed)
        assert np.array_equal(all_values(g, active), reference_values(g, active))

    def test_straddling_constraints_excluded(self):
        inst = CspInstance(n=3, constraints=(
            Constraint(scope=(0, 1), b=1),
            Constraint(scope=(2,), table=(1, 1)),
        ))
        # only the (0, 1) parity lies inside; rows 0 and 3 satisfy it
        assert all_values(inst, [1, 0]).tolist() == [1.0, 0.0, 0.0, 1.0]
        assert all_values(inst, [1, 2]).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_empty_and_single_variable(self):
        inst = CspInstance(n=2, constraints=(
            Constraint(scope=(0,), table=(0, 1)),
            Constraint(scope=(0,), b=-1),
            Constraint(scope=(0, 1), b=1),
        ))
        assert all_values(inst, []).tolist() == [0.0]
        assert all_values(inst, [0]).tolist() == [1.0, 1.0]
        assert all_values(cut_graph(2, ((0, 1),)), [1]).tolist() == [0.0, 0.0]

    # (chunk bits, run bits): several chunks, and runs shorter than a chunk
    @pytest.mark.parametrize("chunk_bits, run_bits", [(20, 2), (3, 0), (3, 2), (1, 1), (0, 0)])
    def test_multi_chunk(self, monkeypatch, chunk_bits, run_bits):
        inst, g = mixed_instance(7), multigraph(7)
        inst_active, g_active = [8, 2, 6, 0, 4, 1, 7], [6, 2, 7, 0, 3, 5]
        whole = (all_values(inst, inst_active), all_values(g, g_active))
        monkeypatch.setattr(csp_core, "VALUE_CHUNK_BITS", chunk_bits)
        monkeypatch.setattr(csp_core, "VALUE_RUN_BITS", run_bits)
        assert np.array_equal(all_values(inst, inst_active), whole[0])
        assert np.array_equal(all_values(inst, inst_active), reference_values(inst, inst_active))
        assert np.array_equal(all_values(g, g_active), whole[1])
        assert np.array_equal(all_values(g, g_active), reference_values(g, g_active))

    def test_chunks_cover_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(csp_core, "VALUE_CHUNK_BITS", 2)
        monkeypatch.setattr(csp_core, "VALUE_RUN_BITS", 1)
        inst = mixed_instance(3)
        chunks = list(csp_core.ValueChunks(inst, range(6), 5))
        assert [start for start, _ in chunks] == [0, 4, 8, 12, 16, 20, 24, 28]
        # position 5 is pinned to -1: the first half of the 6-bit table
        joined = np.concatenate([vals for _, vals in chunks])
        assert np.array_equal(joined, all_values(inst, range(6))[:32])

    def test_duplicate_active_rejected(self):
        with pytest.raises(ValueError):
            all_values(mixed_instance(0), [1, 2, 1])

    @pytest.mark.parametrize("active", [[0, 9], [-1, 2]])
    def test_out_of_range_active_rejected(self, active):
        for problem in (mixed_instance(0), multigraph(0, n=9)):
            with pytest.raises(ValueError, match=r"distinct and in \[0, 9\)"):
                all_values(problem, active)

    def test_assignment_rows(self):
        assert assignment_rows(6, 4).tolist() == [-1, 1, 1, -1]
        rows = assignment_rows(np.arange(8), 3)
        assert rows.dtype == np.int8
        assert np.array_equal(rows, np.array(all_rows(3)))


class TestCountPath:
    @pytest.mark.parametrize("count, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_count_dtype_edge(self, count, dtype):
        # every constraint inside the active set holds on the all-+1 row,
        # which so counts `count` hits: one byte would wrap 256 to 0; the
        # two constraints on variable 3 straddle the active set
        rng = np.random.default_rng(count)
        cons = [Constraint(scope=(3, 0), b=1), Constraint(scope=(1, 3), b=-1)]
        for _ in range(count):
            k = int(rng.integers(1, 4))
            scope = tuple(rng.choice(3, size=k, replace=False).tolist())
            if rng.random() < 0.5:
                cons.append(Constraint(scope=scope, b=1))
            else:
                table = rng.integers(0, 2, 2 ** k).tolist()
                cons.append(Constraint(scope=scope, table=tuple(table[:-1]) + (1,)))
        inst = CspInstance(n=4, constraints=tuple(cons))
        active = [2, 0, 1]
        values = all_values(inst, active)
        assert values[7] == count
        assert np.array_equal(values, reference_values(inst, active))
        assert [c.dtype for _, c in csp_core.ValueChunks(inst, active, 3)] == [dtype]

    def test_graph_chunks_count_cut_edges(self):
        # a multigraph's uint8 counts are its values, parallel edges counted
        # once per copy
        g = multigraph(0, n=9, m=30)
        rows = assignment_rows(np.arange(1 << g.n), g.n)
        assert np.array_equal(all_values(g, range(g.n)), eval_value(g, rows))
        assert [c.dtype for _, c in csp_core.ValueChunks(g, range(g.n), g.n)] == [np.uint8]


def edge_walk_tables(g, active):
    """The edge-by-edge selection that csp_core._local_tables replaced."""
    pos = {v: t for t, v in enumerate(active)}
    inside = [(pos[u], pos[v]) for u, v in edge_list(g) if u in pos and v in pos]
    cut = np.array([[0, 1], [1, 0]], dtype=np.min_scalar_type(len(inside)))
    return [(ends, cut) for ends in inside]


class TestGraphTables:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("graph", [
        multigraph, lambda seed: multigraph(seed, n=9, m=30),
        lambda seed: gen_triangle_free_graph("random_bipartite", 4, 5, 12, seed=seed)])
    def test_match_edge_walk(self, seed, graph):
        g = graph(seed)
        rng = np.random.default_rng(seed)
        for size in (0, 1, 3, 5, g.n):
            active = rng.permutation(g.n)[:size].tolist()  # random and unsorted
            tables = csp_core._local_tables(g, active)
            ref_tables = edge_walk_tables(g, active)
            assert [t for t, _ in tables] == [t for t, _ in ref_tables]
            for (_, a), (_, b) in zip(tables, ref_tables):
                assert a.dtype == b.dtype and np.array_equal(a, b)


# instance documents with a value that is not a JSON integer, and the
# field the refusal names
NON_INTEGRAL_DOCS = [
    ({"n": 3.9, "kind": "kxor", "constraints": []}, "n must be"),
    ({"n": True, "kind": "kxor", "constraints": []}, "n must be"),
    ({"n": "3", "kind": "kxor", "constraints": []}, "n must be"),
    ({"n": 3, "kind": "kxor", "constraints": [{"scope": [0, 1.7], "b": 1}]}, "scope entry"),
    ({"n": 3, "kind": "kxor", "constraints": [{"scope": [0, True], "b": 1}]}, "scope entry"),
    ({"n": 3, "kind": "kxor", "constraints": [{"scope": [0, 1], "b": 1.5}]}, "b must be"),
    ({"n": 3, "kind": "kxor", "constraints": [{"scope": [0, 1], "b": True}]}, "b must be"),
    ({"n": 3, "kind": "kxor", "constraints": [{"scope": [0, 1], "b": 1.0}]}, "b must be"),
    ({"n": 2, "kind": "general", "constraints": [{"scope": [0], "table": [0.6, 1]}]},
     "table entry"),
    ({"n": 2, "kind": "general", "constraints": [{"scope": [0], "table": [False, 1]}]},
     "table entry"),
    ({"n": 3, "kind": "kxor", "constraints": [[0, 1]]}, "constraint must be"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, 1.9, 1.0]]}, "edge endpoints"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, True, 1.0]]}, "edge endpoints"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, 1, "1.0"]]}, "edge weight must be 1"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, 1, False]]}, "edge weight must be 1"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, 1, math.inf]]}, "edge weight must be 1"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, 1, math.nan]]}, "edge weight must be 1"),
    ({"n": 3, "kind": "maxcut", "edges": [[0, 1, 10 ** 400]]}, "edge weight must be 1"),
]


class TestSerialization:
    def test_roundtrip_instance(self):
        rng = np.random.default_rng(5)
        inst = rand_instance(rng, n=6, m=4, k=2)
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_instance_json_from_groups(self):
        """A CSP instance's text, read from its groups, is json.dumps of its
        constraints in constraint order; numpy integers in a Constraint are
        written as the integers they are (json.dumps refused them)."""
        for inst in (mixed_instance(3), rand_instance(np.random.default_rng(1))):
            cons = [{"scope": list(c.scope), **({"b": c.b} if c.is_xor else {"table": list(c.table)})}
                    for c in inst.constraints]
            doc = {"n": inst.n, "kind": inst.kind, "constraints": cons}
            assert instance_to_json(inst) == json.dumps(doc, separators=(",", ":"), sort_keys=True)
        inst = CspInstance(n=3, constraints=(Constraint(scope=(np.int64(0), 2), b=np.int8(-1)),),
                           kind="kxor")
        assert instance_to_json(inst) == '{"constraints":[{"b":-1,"scope":[0,2]}],"kind":"kxor","n":3}'
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_roundtrip_graph(self):
        g = cut_graph(3, ((0, 1), (1, 2), (0, 1)))
        again = instance_from_json(instance_to_json(g))
        assert again == g

    @staticmethod
    def dumps_reference(g):
        """The list comprehension and json.dumps that instance_to_json
        replaced for graphs."""
        doc = {"n": g.n, "kind": "maxcut", "edges": [[u, v, 1.0] for u, v in edge_list(g)]}
        return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)

    @pytest.mark.parametrize("weight", [1.0, 0.1, 2.5, 1e-300, 1e300, 3, "mixed"])
    def test_graph_json_matches_json_dumps(self, weight):
        """A graph's text is json.dumps of its edges with weight 1.0; json.dumps
        of the same edges with any other weight is refused, naming edge 0."""
        rng = np.random.default_rng(5)
        for n, m in ((2, 1), (9, 30), (600, 2000)):
            u = rng.integers(0, n - 1, size=m)
            v = (u + rng.integers(1, n, size=m)) % n
            g = CspInstance.from_edges(n, u, v)
            text = instance_to_json(g)
            assert text == self.dumps_reference(g)
            assert instance_from_json(text) == g
            w = rng.uniform(1e-3, 1e3, size=m).tolist() if weight == "mixed" else [weight] * m
            doc = {"n": n, "kind": "maxcut", "edges": [[a, b, c] for (a, b), c in zip(edge_list(g), w)]}
            other = json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)
            if weight == 1.0:
                assert other == text
            else:
                message = f"edge weight must be 1, got {doc['edges'][0]}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    instance_from_json(other)
        assert instance_to_json(cut_graph(3, ())) == self.dumps_reference(
            cut_graph(3, ()))

    @staticmethod
    def outcome(read, text):
        """read(text) as ("graph", n, columns, their dtypes), or the type
        and message of what it raised."""
        try:
            g = read(text)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
        cols = edge_columns(g)
        return "graph", g.n, [a.tolist() for a in cols], [a.dtype for a in cols]

    @staticmethod
    def canonical_text(n, u, v, w):
        """json.dumps of the columns as instance_to_json formats a graph, with
        no check that they form a graph or that w is 1."""
        doc = {"n": n, "kind": "maxcut",
               "edges": [[int(a), int(b), float(c)] for a, b, c in zip(u, v, w)]}
        return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)

    @pytest.mark.parametrize("weight", [
        1.0, 0.1, 2.5, 1e-300, 1e300, 1e-05, -0.0, "mixed", "mixed with 1.0 and 1e300", "bip1000"])
    def test_array_reader_matches_json_path(self, weight):
        """On instance_to_json's text of random graphs, with weight w in place
        of 1.0, the array reader gives the graph (or raises the error)
        json.loads does, and keeps the text; a weight other than 1 is refused
        alike, naming the first edge that has one."""
        rng = np.random.default_rng(6)
        shapes = [(500, 500, 5000)] if weight == "bip1000" else [(1, 1, 1), (5, 4, 30), (300, 300, 2000)]
        for a, b, m in shapes:
            u = rng.integers(0, a, size=m)
            v = a + rng.integers(0, b, size=m)
            if weight == "bip1000":
                w = np.ones(m)
            elif weight == "mixed":
                w = rng.uniform(1e-3, 1e3, size=m)
            elif weight == "mixed with 1.0 and 1e300":
                w = rng.choice([1.0, 1e300, 0.1, 7.0], size=m)
            else:
                w = np.full(m, weight)
            text = self.canonical_text(a + b, u, v, w)
            for tail in ("", "\n"):
                reference = self.outcome(csp_core._instance_from_doc, text + tail)
                assert self.outcome(instance_from_json, text + tail) == reference
                graph = csp_core._graph_from_text(text + tail)
                if np.all(w == 1):
                    assert self.outcome(lambda t: graph, text + tail) == reference
                    assert instance_to_json(graph) == text
                else:
                    # a weight token other than 1.0 leaves the text to the JSON path
                    first = int(np.flatnonzero(w != 1)[0])
                    bad = [int(u[first]), int(v[first]), float(w[first])]
                    assert graph is None
                    assert reference == (ValueError, f"edge weight must be 1, got {bad}")

    @pytest.mark.parametrize("text, error", [
        ('{"edges":[[0,999999999999999998,1.0]],"kind":"maxcut","n":999999999999999999}', None),
        ('{"edges":[[0,1,2.2250738585072014e-308]],"kind":"maxcut","n":2}',
         "edge weight must be 1, got [0, 1, 2.2250738585072014e-308]"),
        ('{"edges":[[0,1,-1.0000000000000001e-100]],"kind":"maxcut","n":2}',
         "edge weight must be 1, got [0, 1, -1.0000000000000001e-100]"),
        # every weight is checked before the endpoints
        ('{"edges":[[0,10,1.0],[9,0,3.0]],"kind":"maxcut","n":10}',
         "edge weight must be 1, got [9, 0, 3.0]"),
        ('{"edges":[[0,1,1.0]],"kind":"maxcut","n":0}', "edge (0,1) out of range for n=0"),
        ('{"edges":[[0,1,1.0],[2,2,1.0]],"kind":"maxcut","n":3}', "self-loop at vertex 2"),
    ])
    def test_array_reader_edge_cases(self, text, error):
        # 18-digit ids are read as arrays, and what from_arrays rejects raises
        # as it does on the JSON path; a weight token other than 1.0 leaves
        # the text to the JSON path
        reference = self.outcome(csp_core._instance_from_doc, text)
        assert self.outcome(instance_from_json, text) == reference
        if error is not None and error.startswith("edge weight"):
            assert csp_core._graph_from_text(text) is None
        else:
            assert self.outcome(csp_core._graph_from_text, text) == reference
        assert reference[0] == "graph" if error is None else reference == (ValueError, error)

    @pytest.mark.parametrize("text", [
        '{"edges":[],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,2]],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,1e5]],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,1.0]],"kind":"maxcut","n":3}\n\n',
        '{"edges":[[0,1,1.0]], "kind":"maxcut","n":3}',
        '{"n":3,"kind":"maxcut","edges":[[0,1,1.0]]}',
        '{"edges":[[-1,1,1.0]],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,1.0]],"kind":"maxcut","n":03}',
        '{"edges":[[0,1000000000000000000,1.0]],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,1.0]],"kind":"maxcut","n":1000000000000000000}',
        '{"edges":[[0,1,1.00000000000000000000000]],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,NaN]],"kind":"maxcut","n":3}',
        '{"edges":[[0,1,1.0]],"kind":"maxcut","n":3,"kind":"maxcut","n":3}',
    ])
    def test_other_text_takes_the_json_path(self, text):
        assert csp_core._graph_from_text(text) is None
        assert self.outcome(instance_from_json, text) == self.outcome(csp_core._instance_from_doc, text)

    @pytest.mark.parametrize("tail", ["", "\n"])
    def test_array_reader_on_single_byte_mutants(self, tail):
        """Every deletion of one byte and every substitution of one byte from
        "0-9 [ ] , . e - +" and space: the array reader declines the text or
        reads the graph json.loads reads, and instance_from_json raises what
        the JSON path alone raises."""
        text = ('{"edges":[[0,1,1.0],[1,12,1.0],[3,0,1.0],[10,11,1.0],[7,5,1.0],[2,9,1.0]],'
                '"kind":"maxcut","n":99}' + tail)
        mutants = {text[:i] + text[i + 1:] for i in range(len(text))}
        mutants |= {text[:i] + c + text[i + 1:] for i in range(len(text)) for c in "0123456789[],.e-+ "}
        read = 0
        for mutant in sorted(mutants - {text}):
            reference = self.outcome(csp_core._instance_from_doc, mutant)
            try:
                graph = csp_core._graph_from_text(mutant)
            except ValueError as exc:
                assert reference == (ValueError, str(exc)), mutant
            else:
                if graph is not None:
                    read += 1
                    assert self.outcome(lambda t: graph, mutant) == reference, mutant
                    assert instance_to_json(graph) == mutant.removesuffix("\n")
            assert self.outcome(instance_from_json, mutant) == reference, mutant
        assert read > 100  # digit substitutions in ids

    @pytest.mark.parametrize("graph", [
        gen_triangle_free_graph("random_bipartite", 40, 40, 260, seed=3),
        gen_triangle_free_graph("random_bipartite", 500, 500, 5000, seed=4),
        gen_triangle_free_graph("even_cycle", 6),
        CspInstance.from_edges(7, np.arange(6), np.arange(1, 7)),
    ])
    def test_loaded_graph_keeps_its_text(self, tmp_path, graph):
        """A graph file read back and saved again is the same bytes, and the
        text the reader keeps is what the formatter gives without it."""
        path, again = tmp_path / "g.json", tmp_path / "again.json"
        save_instance(graph, str(path))
        loaded = load_instance(str(path))
        assert loaded.__dict__["_json_text"] == path.read_text()[:-1]
        assert CspInstance._json_text.func(loaded) == instance_to_json(loaded)
        save_instance(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_unknown_field_rejected(self):
        doc = {"n": 2, "kind": "kxor", "constraints": [], "extra": 1}
        with pytest.raises(ValueError):
            instance_from_json(json.dumps(doc))

    def test_unknown_constraint_field_rejected(self):
        doc = {
            "n": 2,
            "kind": "kxor",
            "constraints": [{"scope": [0, 1], "b": 1, "note": "x"}],
        }
        with pytest.raises(ValueError):
            instance_from_json(json.dumps(doc))

    def test_edges_require_maxcut(self):
        doc = {"n": 2, "kind": "kxor", "edges": [[0, 1, 1.0]]}
        with pytest.raises(ValueError):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc, field", NON_INTEGRAL_DOCS)
    def test_non_integral_values_rejected(self, doc, field):
        with pytest.raises(ValueError, match=field):
            instance_from_json(json.dumps(doc))

    def test_integer_weights_read_as_float(self):
        # a JSON integer 1 is the unit weight, written back as 1.0
        g = instance_from_json('{"n": 2, "kind": "maxcut", "edges": [[0, 1, 1]]}')
        assert edge_list(g) == ((0, 1),)
        assert instance_to_json(g) == '{"edges":[[0,1,1.0]],"kind":"maxcut","n":2}'

    @pytest.mark.parametrize("token, accepted", [
        ("1.0", True), ("1", True), ("1e0", True), ("1.00", True), ("2.0", False),
        ("0.5", False), ("-1.0", False), ("true", False), ('"1"', False),
    ])
    def test_weight_tokens_alike_on_both_paths(self, token, accepted):
        """A weight token is accepted exactly when it is a JSON number equal
        to 1, by the array reader and the JSON path alike; a refusal names
        the first edge that has it, and an accepted file gets the canonical
        text, so the canonical config_hash."""
        text = '{"edges":[[0,1,1.0],[1,2,%s],[2,0,%s]],"kind":"maxcut","n":3}' % (token, token)
        for tail in ("", "\n"):
            reference = self.outcome(csp_core._instance_from_doc, text + tail)
            assert self.outcome(instance_from_json, text + tail) == reference
            assert csp_core._graph_from_text(text + tail) is None or token == "1.0"
            if accepted:
                g = instance_from_json(text + tail)
                canonical = '{"edges":[[0,1,1.0],[1,2,1.0],[2,0,1.0]],"kind":"maxcut","n":3}'
                assert g == instance_from_json(canonical) and instance_to_json(g) == canonical
                config = ExperimentConfig(algorithm="dp_shearer", eps=(1.0,), trials=5, seed=0)
                assert config.config_hash(g) == config.config_hash(instance_from_json(canonical))
            else:
                bad = [1, 2, json.loads(token)]
                assert reference == (ValueError, f"edge weight must be 1, got {bad}")

    @pytest.mark.parametrize("line", ["0 1.9", "0 true", "0 1 x"])
    def test_edge_list_rejects_non_integral(self, tmp_path, line):
        p = tmp_path / "g.edges"
        p.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match="line 2: endpoints must be integers"):
            load_edge_list(str(p))

    def test_edge_list_rejects_infinite_weight(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 inf\n")
        with pytest.raises(ValueError, match=r"^line 1: edge weight must be 1, got '0 1 inf\\n'$"):
            load_edge_list(str(p))

    @pytest.mark.parametrize("line", ["0 1 2", "0 1 nan", "0 1 -1", "0 1 0"])
    def test_edge_list_rejects_other_weights(self, tmp_path, line):
        p = tmp_path / "g.edges"
        p.write_text(f"# comment\n0 1\n{line}\n")
        with pytest.raises(ValueError, match=f"^line 3: edge weight must be 1, got '{line}\\\\n'$"):
            load_edge_list(str(p))

    def test_edge_list(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# comment\n0 1\n1 2 1\n2 0 1.0\n\n")
        g = load_edge_list(str(p))
        assert g.n == 3 and edge_list(g) == ((0, 1), (1, 2), (2, 0))

    def test_constraint_form_maxcut_loads_as_graph(self):
        doc = {"n": 3, "kind": "maxcut", "constraints": [
            {"scope": [1, 2], "b": -1}, {"scope": [0, 1], "b": -1}, {"scope": [1, 2], "b": -1}]}
        g = instance_from_json(json.dumps(doc))
        assert g == cut_graph(3, ((1, 2), (0, 1), (1, 2)))
        # it saves in edge form
        assert instance_to_json(g) == '{"edges":[[1,2,1.0],[0,1,1.0],[1,2,1.0]],"kind":"maxcut","n":3}'
        assert instance_from_json('{"n": 4, "kind": "maxcut"}') == cut_graph(4, ())

    @pytest.mark.parametrize("constraint", [
        {"scope": [0, 1], "b": 1}, {"scope": [0, 1, 2], "b": -1}, {"scope": [0], "b": -1},
        {"scope": [0, 1], "table": [0, 1, 1, 0]},
    ])
    def test_constraint_form_maxcut_requires_cut_constraints(self, constraint):
        doc = {"n": 3, "kind": "maxcut", "constraints": [{"scope": [1, 2], "b": -1}, constraint]}
        with pytest.raises(ValueError, match="^maxcut constraints must be 2XOR with b = -1$"):
            instance_from_json(json.dumps(doc))

    def test_constraint_form_maxcut_range_checked(self):
        doc = {"n": 2, "kind": "maxcut", "constraints": [{"scope": [0, 2], "b": -1}]}
        with pytest.raises(ValueError, match="out of range for n=2"):
            instance_from_json(json.dumps(doc))

    def test_graph_constraints_are_its_edges(self):
        g = CspInstance.from_edges(4, [2, 1, 2], [0, 3, 0])
        assert g.constraints == tuple(
            Constraint(scope=s, b=-1) for s in ((2, 0), (1, 3), (2, 0)))
        assert g.constraints is g.constraints
        assert (g.kind, g.max_arity, g.m) == ("maxcut", 2, 3)
        assert cut_graph(3, ()).max_arity == 2
        assert cut_graph(3, ()).constraints == ()


class TestColumnarReader:
    """kxor and general documents are read into columns (_doc_columns); the
    Constraint walk, the reference, runs only when a check fails. Both give
    an equal instance with the same constraints view, text and config_hash,
    or raise the same error."""

    CONFIG = ExperimentConfig(algorithm="alg3", eps=(1.0,), trials=5, seed=0)

    @classmethod
    def outcome(cls, read, text):
        try:
            inst = read(text)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
        return inst, inst.constraints, instance_to_json(inst), cls.CONFIG.config_hash(inst)

    @classmethod
    def walk(cls, text):
        """The outcome of the JSON path with the columnar reader switched off."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csp_core, "_doc_columns", lambda kind, entries: None)
            return cls.outcome(csp_core._instance_from_doc, text)

    @staticmethod
    def random_doc(rng):
        """A kxor or general document, corrupted at one place half the time."""
        n, kind = int(rng.integers(1, 10)), str(rng.choice(["kxor", "general"]))
        cons = []
        for _ in range(int(rng.integers(0, 8))):
            scope = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False).tolist()
            if kind == "general" and rng.random() < 0.4:
                cons.append({"scope": scope, "table": rng.integers(0, 2, 2 ** len(scope)).tolist()})
            else:
                cons.append({"b": int(rng.choice([-1, 1])), "scope": scope})
        doc = {"n": n, "kind": kind, "constraints": cons}
        if cons and rng.random() < 0.5:
            c = cons[int(rng.integers(len(cons)))]
            key = "table" if "table" in c else "b"
            fault = [
                lambda: c["scope"].append(c["scope"][0]), lambda: c["scope"].append(n),
                lambda: c["scope"].append(-1), lambda: c["scope"].clear(),
                lambda: c["scope"].append(2 ** 70), lambda: c.update(scope=tuple(c["scope"])),
                lambda: c["scope"].append(float(n + 1)), lambda: c.update({key: 0}),
                lambda: c.update(b=0), lambda: c.update(b=2), lambda: c.update(extra=1),
                lambda: c.pop("scope"), lambda: c.pop(key), lambda: c.update(table=[0, 1]),
                lambda: c.update({key: [1] * 2 ** len(c["scope"])}), lambda: doc.update(n=2 ** 64),
                lambda: doc.update(n=-1), lambda: doc.update(kind="maxcut"), lambda: cons.append(7),
                lambda: c.update(table=[2] * 2 ** len(c["scope"])),
            ]
            fault[int(rng.integers(len(fault)))]()
        return doc

    def test_matches_walk_on_random_documents(self):
        rng = np.random.default_rng(14)
        read = 0
        for _ in range(1500):
            text = json.dumps(self.random_doc(rng))
            reference = self.walk(text)
            assert self.outcome(instance_from_json, text) == reference, text
            read += type(reference[0]) is CspInstance
        assert 500 < read < 1400

    @pytest.mark.parametrize("doc", [doc for doc, _ in NON_INTEGRAL_DOCS] + [
        {"n": 2, "kind": "kxor", "constraints": [], "extra": 1},
        {"n": 2, "kind": "kxor", "constraints": [{"scope": [0, 1], "b": 1, "note": "x"}]},
        {"n": 3, "kind": "kxor", "constraints": [{"scope": [0, 1], "table": [0, 1, 1, 0]}]},
        {"n": 3, "kind": "general", "constraints": [{"scope": [0, 1], "b": 1, "table": [0, 1, 1, 0]}]},
        {"n": 3, "kind": "general", "constraints": [{"scope": [0, 3], "b": 1}, {"scope": [1, 1], "b": 1}]},
        {"n": 3, "kind": "kxor", "constraints": {"scope": [0, 1], "b": 1}},
        {"n": 3, "kind": "xor", "constraints": [{"scope": [0, 1], "b": 1}]},
        {"n": 3, "kind": "kxor", "constraints": [{"scope": [0], "b": -1}, {"scope": [0, 1, 2], "b": 1}]},
        {"n": 3, "kind": "kxor", "constraints": [{"scope": [0], "b": -1}, {"scope": 5, "b": 1}]},
        {"n": 3, "kind": "kxor", "constraints": [{"scope": None, "b": 1}]},
        {"n": 3, "kind": "general", "constraints": [{"scope": [0], "table": [0, 2]}]},
        {"n": 21, "kind": "general", "constraints": [{"scope": list(range(21)), "table": [0] * 2 ** 21}]},
    ])
    def test_matches_walk_on_fixed_documents(self, doc):
        for text in (json.dumps(doc), json.dumps(doc, separators=(",", ":"), sort_keys=True)):
            assert self.outcome(instance_from_json, text) == self.walk(text)

    @pytest.mark.parametrize("tail", ["", "\n"])
    def test_matches_walk_on_single_byte_mutants(self, tail):
        """Every deletion of one byte of a saved kxor file, and every
        substitution of one byte from "0-9 [ ] { } , : - b" and a quote."""
        text = ('{"constraints":[{"b":1,"scope":[0,12,4]},{"b":-1,"scope":[3,5,11]},'
                '{"b":1,"scope":[10,7,9]}],"kind":"kxor","n":13}' + tail)
        mutants = {text[:i] + text[i + 1:] for i in range(len(text))}
        mutants |= {text[:i] + c + text[i + 1:] for i in range(len(text)) for c in '0123456789[]{},:-b"'}
        read = 0
        for mutant in sorted(mutants):
            reference = self.walk(mutant)
            assert self.outcome(instance_from_json, mutant) == reference, mutant
            read += type(reference[0]) is CspInstance
        assert read > 50  # digit substitutions in ids and signs

    def test_from_groups_checks_scopes(self):
        """from_groups, unlike the tuple constructor, may be given a scope that
        repeats an index; the first faulty constraint is named."""
        def kxor(scopes):
            return CspInstance.from_groups(4, "kxor", [(np.arange(len(scopes)), np.array(scopes),
                                                        np.ones(len(scopes)), None)])
        with pytest.raises(ValueError, match=r"^scope indices must be distinct: \(1, 2, 1\)$"):
            kxor([[0, 1, 2], [1, 2, 1], [0, 5, 1]])
        with pytest.raises(ValueError, match=r"^scope \(0, 5, 1\) out of range for n=4$"):
            kxor([[0, 1, 2], [0, 5, 1], [1, 2, 1]])
        assert kxor([[0, 1, 2], [3, 2, 1]]) == CspInstance(
            n=4, constraints=(xor((0, 1, 2)), xor((3, 2, 1))), kind="kxor")

    def test_reads_saved_files(self, tmp_path):
        """Saved kxor instances of arity 1 to 3, with up to 18-digit indices,
        mixed arities, an empty instance and a general one load equal, and
        their text formatted from the groups is the saved text."""
        big = 10 ** 17
        cases = [rand_instance(np.random.default_rng(s), n=40, m=30, k=k)
                 for s, k in ((1, 1), (2, 2), (3, 3))]
        cases += [CspInstance(n=big + 1, constraints=(xor((big, 0), b=-1),), kind="kxor"),
                  CspInstance(n=4, constraints=(xor((0,)), xor((1, 2))), kind="kxor"),
                  CspInstance(n=4, constraints=(), kind="kxor"),
                  mixed_instance(2)]
        for inst in cases:
            path = tmp_path / "inst.json"
            save_instance(inst, str(path))
            text = path.read_text()
            loaded = load_instance(str(path))
            assert loaded == inst and self.outcome(instance_from_json, text) == self.walk(text)
            assert instance_to_json(loaded) == text[:-1]


class TestGraphValidation:
    def test_self_loop(self):
        with pytest.raises(ValueError):
            cut_graph(2, ((1, 1),))

    def test_nonpositive_weight(self):
        # a weight is checked where a file is read, and 0 is not 1
        with pytest.raises(ValueError, match=r"^edge weight must be 1, got \[0, 1, 0.0\]$"):
            instance_from_json('{"edges":[[0,1,0.0]],"kind":"maxcut","n":2}')

    @staticmethod
    def loop_check(n, edges):
        """The edge-by-edge check the column check must agree with."""
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")

    @classmethod
    def file_check(cls, n, edges):
        """A file's edges [u, v, w]: every weight, then the (u, v) pairs."""
        for edge in edges:
            if not edge[2] == 1:
                raise ValueError(f"edge weight must be 1, got {list(edge)}")
        cls.loop_check(n, [edge[:2] for edge in edges])

    @pytest.mark.parametrize("edges,message", [
        (((0, 1, 1.0), (2, 2, 1.0), (0, 9, 1.0)), "self-loop at vertex 2"),
        (((0, 1, 1.0), (0, 3, 1.0), (2, 2, 1.0)), r"edge \(0,3\) out of range for n=3"),
        (((-1, 1, 1.0),), r"edge \(-1,1\) out of range for n=3"),
        (((0, 1, 1.0), (1, 2, -0.5), (1, 1, 1.0)), r"edge weight must be 1, got \[1, 2, -0.5\]"),
        (((0, 1, 0),), r"edge weight must be 1, got \[0, 1, 0\]"),
        (((0, 1, float("nan")),), r"edge weight must be 1, got \[0, 1, nan\]"),
        (((float("nan"), 1, 1.0),), r"edge \(nan,1\) out of range for n=3"),
        (((2 ** 70, 1, 1.0),), r"edge \(1180591620717411303424,1\) out of range for n=3"),
        (((0, 1, 1.0), (1, 2, math.inf)), r"edge weight must be 1, got \[1, 2, inf\]"),
        (((0, 3, 1.0), (1, 1, 2.0)), r"edge weight must be 1, got \[1, 1, 2.0\]"),
    ])
    def test_first_offending_edge_named(self, edges, message):
        """A file names the first edge whose weight is not 1, else the first
        invalid (u, v) pair, which the columnar constructor names alike on
        integer endpoints."""
        text = json.dumps({"n": 3, "kind": "maxcut", "edges": [list(e) for e in edges]})
        with pytest.raises(ValueError, match=f"^{message}$"):
            instance_from_json(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.file_check(3, edges)
        pairs = [edge[:2] for edge in edges]
        if all(edge[2] == 1 for edge in edges) and all(
                type(a) is int and abs(a) < 2 ** 63 for pair in pairs for a in pair):
            u, v = np.array(pairs, dtype=np.int64).T
            with pytest.raises(ValueError, match=f"^{message}$"):
                CspInstance.from_edges(3, u, v)

    @pytest.mark.parametrize("edges", [
        (("0", "1"),), ((None, 1),), ((0, 1, 1.0),), ((0,),),
        ((0, 1), (0, 1, 2, 9), (1, 2)), ((0, [1]),), (5,), ((0, 1 + 0j),),
        ((0, 1), (1, "x")),
    ])
    def test_other_rejections_unchanged(self, edges):
        """Entries that are not [u, v, 1] lists of two integers, where the
        reference loop raised TypeError or an unpacking error, are refused by
        the document reader with a ValueError naming the first such entry: a
        malformed one first, else one with non-integer endpoints."""
        entries = [[*e, 1.0] if isinstance(e, tuple) else e for e in edges]
        text = json.dumps({"n": 3, "kind": "maxcut", "edges": entries}, default=repr)
        read = json.loads(text)["edges"]
        malformed = [e for e in read if not (type(e) is list and len(e) == 3)]
        if malformed:
            expected = f"edge must be a list [u, v, 1], got {malformed[0]!r}"
        else:
            first = next(e for e in read if not all(type(a) is int for a in e[:2]))
            expected = f"edge endpoints must be integers, got {first[:2]}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            instance_from_json(text)

    def test_accepted_edges_and_columns(self):
        cases = [((0, 1), (1, 2)), ((0, 2),), ((np.int64(0), np.int64(2)),), ([1, 0], (2, 1)), ()]
        for edges in cases:
            g = cut_graph(3, edges)
            arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            u, v = edge_columns(g)
            assert u.dtype == v.dtype == np.int64
            assert u.tolist() == arr[:, 0].tolist() and v.tolist() == arr[:, 1].tolist()
            assert instance_from_json(instance_to_json(g)) == g
        # two ids that float64 rounds to one value stay two ids
        g = cut_graph(2 ** 60, ((2 ** 53, 2 ** 53 + 1),))
        assert [a.tolist() for a in edge_columns(g)] == [[2 ** 53], [2 ** 53 + 1]]
        assert instance_from_json(instance_to_json(g)) == g

    @pytest.mark.parametrize("edges", [
        ((True, False),), ((0.5, 1),), ((0, 1), (np.float64(1), 2)), ((np.int64(0), np.bool_(True)),),
    ])
    def test_non_integer_endpoints_rejected(self, edges):
        entries = [[a.item() if isinstance(a, np.generic) else a for a in e] + [1.0] for e in edges]
        with pytest.raises(ValueError, match="^edge endpoints must be integers, got"):
            instance_from_json(json.dumps({"n": 3, "kind": "maxcut", "edges": entries}))
        with pytest.raises(ValueError, match="^scope indices must be integers: "):
            cut_graph(3, edges)

    def test_kind_invariants(self):
        with pytest.raises(ValueError, match="^maxcut constraints must be 2XOR with b = -1$"):
            CspInstance(n=2, constraints=(xor((0, 1), b=1),), kind="maxcut")
        one_edge = CspInstance(n=2, constraints=(xor((0, 1), b=-1),), kind="maxcut")
        assert one_edge == CspInstance.from_edges(2, [0], [1])
        assert CspInstance(n=2, constraints=(), kind="maxcut").max_arity == 2
        with pytest.raises(ValueError, match="^unknown kind 'graph'$"):
            CspInstance(n=2, constraints=(), kind="graph")
        c = Constraint(scope=(0, 1), table=(1, 0, 0, 1))
        with pytest.raises(ValueError):
            CspInstance(n=2, constraints=(c,), kind="kxor")


class TestDerivedDataOncePerObject:
    def graph(self):
        return cut_graph(4, ((0, 1), (1, 2), (2, 3)))

    def test_edge_arrays_read_only_and_shared(self):
        g = self.graph()
        scopes = constraint_groups(g)[0].scopes
        u, v = edge_columns(g)
        for arr in (scopes, u, v):
            with pytest.raises(ValueError):
                arr[0] = 3
        assert constraint_groups(g)[0].scopes is scopes
        assert u.tolist() == [0, 1, 2] and v.tolist() == [1, 2, 3]

    def test_empty_graph_arrays(self):
        g = cut_graph(3, ())
        u, v = edge_columns(g)
        assert u.shape == v.shape == (0,)
        assert u.dtype == v.dtype == np.int64
        assert degrees(g).tolist() == [0, 0, 0]

    def test_degree_counts_read_only_and_shared(self):
        g = self.graph()
        deg = degrees(g)
        with pytest.raises(ValueError):
            deg[0] = 7
        assert degrees(g) is deg
        assert deg.dtype == np.int64 and deg.tolist() == [1, 2, 2, 1]

    def test_graph_frozen_and_compared_by_value(self):
        g = self.graph()
        for name in ("n", "kind", "_groups", "constraints"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
        h = CspInstance.from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
        assert g == h and hash(g) == hash(h) and g != cut_graph(5, edge_list(g))

    @pytest.mark.parametrize("u, v", [
        ([0, 1], [1.0, 2.0]), ([0, 1], [1]), ([[0, 1]], [[1, 2]]), ([True], [False])])
    def test_from_arrays_refuses_other_columns(self, u, v):
        with pytest.raises(ValueError, match="^edge columns must be 1-D, of one length and integer$"):
            CspInstance.from_edges(3, np.array(u), np.array(v))

    def test_triangles_match_neighbour_sets(self):
        rng = np.random.default_rng(0)
        graphs = [multigraph(3), multigraph(4, n=9, m=30), cut_graph(3, ()),
                  cut_graph(3, ((0, 1), (2, 1), (0, 2)))]
        graphs += [CspInstance.from_edges(8, u, (u + rng.integers(1, 8, 7)) % 8)
                   for u in rng.integers(0, 8, size=(40, 7))]
        for g in graphs:
            neigh = [set() for _ in range(g.n)]
            for u, v in edge_list(g):
                neigh[u].add(v)
                neigh[v].add(u)
            assert g.has_triangle() == any(neigh[u] & neigh[v] for u, v in edge_list(g))
        assert graphs[3].has_triangle() and not graphs[2].has_triangle()

    def test_degree_counts_multigraph(self):
        g = cut_graph(3, ((0, 1), (1, 0), (1, 2)))
        assert degrees(g).tolist() == [2, 3, 1]

    def test_instance_degrees_read_only_and_shared(self):
        inst = CspInstance(n=4, constraints=(xor((0, 1)), xor((1, 2, 3))), kind="kxor")
        deg = degrees(inst)
        with pytest.raises(ValueError):
            deg[0] = 5
        assert degrees(inst) is deg

    def test_max_arity_computed_once(self):
        inst = CspInstance(n=4, constraints=(xor((0, 1)), xor((1, 2, 3))), kind="kxor")
        assert inst.max_arity == 3
        # a second read returns the stored value, not a new scan
        object.__setattr__(inst, "constraints", ())
        assert inst.max_arity == 3
        assert CspInstance(n=2, constraints=(), kind="kxor").max_arity == 0

    def test_distinct_scopes_checked_once(self):
        dup = CspInstance(n=3, constraints=(xor((0, 1)), xor((1, 0), b=-1)), kind="kxor")
        with pytest.raises(ValueError, match="^instance has duplicate scopes$"):
            dup.require_distinct_scopes()
        object.__setattr__(dup, "constraints", ())
        with pytest.raises(ValueError, match="^instance has duplicate scopes$"):
            dup.require_distinct_scopes()
        ok = CspInstance(n=3, constraints=(xor((0, 1)), xor((1, 2))), kind="kxor")
        ok.require_distinct_scopes()
        object.__setattr__(ok, "constraints", (xor((0, 1)), xor((0, 1))))
        ok.require_distinct_scopes()

    def test_constraint_groups_read_only_and_shared(self):
        inst = CspInstance(n=5, constraints=(
            xor((0, 1)),
            Constraint(scope=(2,), table=(0, 1)),
            xor((1, 2, 3), b=-1),
            xor((3, 4)),
            Constraint(scope=(4,), table=(1, 0)),
        ), kind="general")
        groups = constraint_groups(inst)
        assert constraint_groups(inst) is groups
        assert sorted(i for g in groups for i in g.cons.tolist()) == [0, 1, 2, 3, 4]
        for g in groups:
            for arr in (g.cons, g.scopes):
                with pytest.raises(ValueError):
                    arr[0] = 0
            for i, scope, row in zip(g.cons, g.scopes, range(len(g.cons))):
                c = inst.constraints[i]
                assert tuple(scope) == c.scope
                if c.is_xor:
                    assert g.signs[row] == c.b and g.tables is None
                else:
                    assert tuple(g.tables[row]) == c.table and g.signs is None


def test_one_instance_type_in_src():
    """Every kind is a CspInstance on one path: no module names the merged
    Max-Cut type or branches on an instance's type."""
    src = Path(csp_core.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if INSTANCE_TYPE_TEST.search(line)
    ]
    assert found == []
    # the pattern finds the forms the merge removed, and leaves other tests alone
    for line in ("if isinstance(problem, WeightedGraph):",
                 "halve = isinstance(problem, WeightedGraph) and n >= 1",
                 "if isinstance(a, WeightedGraph) != isinstance(b, WeightedGraph):",
                 "if not isinstance(problem, CspInstance) else problem.kind",
                 "def brute_force_opt(problem: CspInstance | WeightedGraph):"):
        assert INSTANCE_TYPE_TEST.search(line), line
    for line in ("if isinstance(obj, Constraint):", "if not isinstance(doc, dict):",
                 "if isinstance(rng, np.random.Generator):"):
        assert not INSTANCE_TYPE_TEST.search(line), line
