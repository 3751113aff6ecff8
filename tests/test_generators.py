import json

import numpy as np
import pytest

from privcsp.csp_core import (
    Constraint,
    CspInstance,
    degrees,
    instance_to_json,
    is_triangle_free,
)
from privcsp.generators import (
    GenSpec,
    gen_hard_family,
    gen_random_kxor,
    gen_single_constraint,
    gen_triangle_free_graph,
)
from privcsp.oracles import brute_force_opt, verify_packing_separation


def cut_graph(n, edges):
    """The Max-Cut instance on n vertices with these (u, v) edges."""
    return CspInstance(n=n, constraints=tuple(Constraint(scope=tuple(e), b=-1) for e in edges),
                       kind="maxcut")


def edge_list(g):
    """A graph's edges, as (u, v) tuples in edge order."""
    return tuple(c.scope for c in g.constraints)


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n=0, m=1, k=1, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=4, m=1, k=5, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=4, m=10, k=2, seed=0)  # only C(4,2) = 6 scopes exist
        with pytest.raises(ValueError):
            GenSpec(n=4, m=4, k=2, seed=0, max_degree=1)


class TestGenRandomKxor:
    def test_postconditions(self):
        spec = GenSpec(n=30, m=10, k=3, seed=0, triangle_free=True, max_degree=4)
        inst = gen_random_kxor(spec)
        assert inst.m == 10 and inst.n == 30
        assert is_triangle_free(inst)
        assert degrees(inst).max() <= 4
        scopes = [c.scope for c in inst.constraints]
        assert len(set(scopes)) == len(scopes)
        assert all(c.b in (-1, 1) for c in inst.constraints)

    def test_determinism(self):
        spec = GenSpec(n=12, m=8, k=2, seed=7)
        a = instance_to_json(gen_random_kxor(spec))
        b = instance_to_json(gen_random_kxor(spec))
        assert a == b

    def test_seeds_differ(self):
        a = gen_random_kxor(GenSpec(n=12, m=8, k=2, seed=1))
        b = gen_random_kxor(GenSpec(n=12, m=8, k=2, seed=2))
        assert instance_to_json(a) != instance_to_json(b)

    def test_stall_raises(self):
        # n = k forces a single possible scope; asking for two must stall
        # on the triangle-free overlap rule long before MAX_REJECTIONS
        spec = GenSpec(n=6, m=15, k=2, seed=0, triangle_free=True)
        with pytest.raises(RuntimeError):
            gen_random_kxor(spec)

    def test_empty(self):
        inst = gen_random_kxor(GenSpec(n=5, m=0, k=2, seed=0))
        assert inst.m == 0


class TestGenTriangleFreeGraph:
    def test_even_cycle(self):
        g = gen_triangle_free_graph("even_cycle", 6)
        assert g.n == 6 and g.m == 6 and not g.has_triangle()
        with pytest.raises(ValueError):
            gen_triangle_free_graph("even_cycle", 5)

    def test_complete_bipartite(self):
        g = gen_triangle_free_graph("complete_bipartite", 3, 4)
        assert g.n == 7 and g.m == 12 and not g.has_triangle()

    def test_random_bipartite(self):
        g = gen_triangle_free_graph("random_bipartite", 5, 5, 12, seed=3)
        assert g.n == 10 and g.m == 12 and not g.has_triangle()
        edges = {(u, v) for u, v in edge_list(g)}
        assert len(edges) == 12
        assert all(u < 5 <= v for u, v in edges)
        with pytest.raises(ValueError):
            gen_triangle_free_graph("random_bipartite", 2, 2, 5)

    def test_negative_edge_count_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(np.random, "Generator", no_draw)
        with pytest.raises(ValueError, match="^requested -1 edges, a negative edge count$"):
            gen_triangle_free_graph("random_bipartite", 2, 2, -1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_triangle_free_graph("petersen", 10)

    def test_determinism(self):
        a = gen_triangle_free_graph("random_bipartite", 4, 4, 8, seed=9)
        b = gen_triangle_free_graph("random_bipartite", 4, 4, 8, seed=9)
        assert edge_list(a) == edge_list(b)

    @staticmethod
    def tuple_reference(kind, *args, seed=0):
        """The per-edge tuple construction the column generators replaced."""
        if kind == "even_cycle":
            (n,) = args
            return n, tuple((i, (i + 1) % n) for i in range(n))
        a, b, *rest = args
        if kind == "complete_bipartite":
            return a + b, tuple((i, a + j) for i in range(a) for j in range(b))
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        picks = gen.choice(a * b, size=rest[0], replace=False)
        return a + b, tuple((int(p) // b, a + int(p) % b) for p in sorted(picks))

    @pytest.mark.parametrize("kind, args, seed", [
        ("even_cycle", (4,), 0), ("even_cycle", (50,), 0), ("complete_bipartite", (1, 1), 0),
        ("complete_bipartite", (3, 7), 0), ("random_bipartite", (5, 5, 12), 3),
        ("random_bipartite", (500, 500, 5000), 1),
    ])
    def test_matches_tuple_construction_and_json(self, kind, args, seed):
        g = gen_triangle_free_graph(kind, *args, seed=seed)
        n, edges = self.tuple_reference(kind, *args, seed=seed)
        assert g == cut_graph(n, edges) and edge_list(g) == edges
        doc = {"n": n, "kind": "maxcut", "edges": [[u, v, 1.0] for u, v in edges]}
        assert instance_to_json(g) == json.dumps(doc, separators=(",", ":"), sort_keys=True)


class TestGenHardFamily:
    def test_invariants(self):
        family, complete = gen_hard_family(16, 0.5, 4, seed=0)
        assert complete and len(family.supports) == 4
        for s in family.supports:
            assert len(s) == 8
        for i, s in enumerate(family.supports):
            for t in family.supports[i + 1:]:
                assert 2 < len(set(s) & set(t)) < 6

    def test_separation_and_exact_opt(self):
        family, complete = gen_hard_family(8, 0.5, 3, seed=1)
        assert complete
        ok, counterexample = verify_packing_separation(family)
        assert ok and counterexample is None
        for i in range(len(family.supports)):
            count, _ = brute_force_opt(family.graph(i))
            # complete bipartite on equal halves: the optimum cuts all
            # (n/2)^2 unit edges, of weighted value n * degree / 2
            assert count == (8 // 2) ** 2
            assert family.weight * count == pytest.approx(8 * family.degree / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_hard_family(7, 0.5, 2, seed=0)
        with pytest.raises(ValueError):
            gen_hard_family(8, 0.5, 0, seed=0)

    def test_partial_family_flagged(self):
        # n = 8 admits few mutually overlapping supports; an absurd count
        # must come back incomplete rather than loop forever
        family, complete = gen_hard_family(8, 0.5, 500, seed=2, max_retries=2_000)
        assert not complete and len(family.supports) < 500

    def test_graph_json_matches_json_dumps(self):
        family, _ = gen_hard_family(16, 0.3, 3, seed=4)
        for i in range(len(family.supports)):
            g = family.graph(i)
            doc = {"n": g.n, "kind": "maxcut", "edges": [[u, v, 1.0] for u, v in edge_list(g)]}
            assert instance_to_json(g) == json.dumps(doc, separators=(",", ":"), sort_keys=True)

    def test_determinism(self):
        a, _ = gen_hard_family(12, 0.5, 3, seed=5)
        b, _ = gen_hard_family(12, 0.5, 3, seed=5)
        assert a.supports == b.supports


class TestGenSingleConstraint:
    def test_probe_and_empty(self):
        from privcsp.csp_core import Constraint

        c = Constraint(scope=(0, 1), b=-1)
        inst = gen_single_constraint(4, c)
        assert inst.m == 1 and inst.constraints[0] == c
        empty = gen_single_constraint(4, None)
        assert empty.m == 0 and empty.n == 4
