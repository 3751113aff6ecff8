import hashlib
import json

import numpy as np
import pytest

from privcsp.csp_core import (
    Constraint,
    CspInstance,
    ResourceCapError,
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


def has_triangle(g):
    """Whether some edge of graph g closes a triangle: its ends share a
    neighbour."""
    neigh = [set() for _ in range(g.n)]
    for u, v in edge_list(g):
        neigh[u].add(v)
        neigh[v].add(u)
    return any(neigh[u] & neigh[v] for u, v in edge_list(g))


# sha256 of instance_to_json(gen_random_kxor(GenSpec(n, m, k, seed,
# triangle_free, max_degree))): the benchmark's xor2, xor3, xor22 and xor16
# at instance sets 0-3 (xor16 at the first seed whose instance covers every
# variable), k = 1 and k = 3 specs with and without a degree cap, and specs
# that reject many candidates. The bytes are fixed: a change to the
# generator's bookkeeping may not move a draw or an accept/reject decision.
PINNED_KXOR = [
    ((240, 120, 2, 0, True, 2), "c7e5bb69c5418a0686766584591ad8376ab8fbe510dc2951bb4ec113ca84e954"),
    ((90, 30, 3, 0, True, None), "41ddc5edeebc3d5e4046c0a6183c9e07dfc23670fdee9988e4bb1721b5a11015"),
    ((22, 18, 2, 0, True, None), "b33abc0540795e806d2d6e1f257fa1b01e855397c98ad04fd6d7739a153a609d"),
    ((16, 14, 2, 4, False, None), "4a89bda28be40d6c00bcea417b1204a525f5632cff51c1ee017afd8e51e60356"),
    ((240, 120, 2, 1, True, 2), "8af0c9f6cec4c1c867b6be49705eaad125833866d5f224f575bb9cd5f4b50737"),
    ((90, 30, 3, 1, True, None), "11bfee564a7d08117a8b556e54e86cfc13ff5677fc481c6f8c9d30511861f07f"),
    ((22, 18, 2, 1, True, None), "51720c2a8a62719ef29aef42e8a3470aaa169cb7006675909353c2303517b4b4"),
    ((16, 14, 2, 1009, False, None), "8d44dfbd6fd9699b37c93aea213c35b4f4507f686630001946a2b8ce7936a262"),
    ((240, 120, 2, 2, True, 2), "6b24fd4bc0060dad71de3c7643ecb36db69c01146c9011664328dda1820b6a86"),
    ((90, 30, 3, 2, True, None), "78bb9bbe6be3788f26f5238ef98fa14e628ff5ea5eea5a9ccfee73d58b418ae3"),
    ((22, 18, 2, 2, True, None), "05dc197884b62fa02c62fd9e26f6367f727f0b6a9b6c21d52ea154857fbd33fe"),
    ((16, 14, 2, 2014, False, None), "590d9482a08bcc8aba19f3b91e31d5d5507eaf3da18adcf407a5089576fc17cf"),
    ((240, 120, 2, 3, True, 2), "bed4605df895aa8fdafc6006948b7a6cf3c7f901d56f246f67cb1f8cdc1aec9c"),
    ((90, 30, 3, 3, True, None), "ffadd8550c909911f09621cc5bafff122f5f4dbf68660cb61449c9ddf4dacc07"),
    ((22, 18, 2, 3, True, None), "7cfc472aaee01228e418cf866d0c3123ecf6cf2cb1dc19e6e1a14c9acf692909"),
    ((16, 14, 2, 3006, False, None), "1db752b426f2e00ffb36908a82cb039cc05c1fc335c111cadcf0a5639df87ae6"),
    ((40, 25, 1, 3, False, None), "88720cf1bcb353197bd179a8921eea8efc559f2d9db6e7c4d609e3ffebeea526"),
    ((40, 25, 1, 3, False, 1), "88720cf1bcb353197bd179a8921eea8efc559f2d9db6e7c4d609e3ffebeea526"),
    ((60, 30, 3, 3, False, None), "1bacf090e815187649afe0858dcb1c586275de52a66ba89e53df9f4f75f3c04f"),
    ((60, 30, 3, 3, False, 2), "859fcc34266853856caaa2e8198cbbe9fdad17ce1edc652549a7d285c2e07b31"),
    ((40, 25, 1, 3, True, None), "88720cf1bcb353197bd179a8921eea8efc559f2d9db6e7c4d609e3ffebeea526"),
    ((40, 25, 1, 3, True, 1), "88720cf1bcb353197bd179a8921eea8efc559f2d9db6e7c4d609e3ffebeea526"),
    ((60, 30, 3, 3, True, None), "859fcc34266853856caaa2e8198cbbe9fdad17ce1edc652549a7d285c2e07b31"),
    ((60, 30, 3, 3, True, 2), "859fcc34266853856caaa2e8198cbbe9fdad17ce1edc652549a7d285c2e07b31"),
    ((40, 25, 1, 11, False, None), "ab55460813361a0112bcc7e2d5e530c12fe1f565430f8d3f4b3ad1a518a30b2e"),
    ((40, 25, 1, 11, False, 1), "ab55460813361a0112bcc7e2d5e530c12fe1f565430f8d3f4b3ad1a518a30b2e"),
    ((60, 30, 3, 11, False, None), "7fb2f2a64b5ba1ceab05b5811fcc1035d40781b63e4d0f3cb3be749cb78a2772"),
    ((60, 30, 3, 11, False, 2), "04e85a817588b6b0c0931cff3fefa28637cd41b9432f2a64d6b6ea5891237c89"),
    ((40, 25, 1, 11, True, None), "ab55460813361a0112bcc7e2d5e530c12fe1f565430f8d3f4b3ad1a518a30b2e"),
    ((40, 25, 1, 11, True, 1), "ab55460813361a0112bcc7e2d5e530c12fe1f565430f8d3f4b3ad1a518a30b2e"),
    ((60, 30, 3, 11, True, None), "ab8bc2fb047bc7cf46929c0b40147191f3f3f2ed63dbb128d2e17ad1bfd14ed4"),
    ((60, 30, 3, 11, True, 2), "ab8bc2fb047bc7cf46929c0b40147191f3f3f2ed63dbb128d2e17ad1bfd14ed4"),
    ((60, 38, 3, 5, True, None), "2a03864c05c963bb054e78a5fb114b7890ad5314b8c5eba492700284f1696b9a"),
    ((30, 40, 2, 5, False, 3), "d1b542d302319b8edf320eb6168d5c0113a3cdb2000ffe933e57497a04a89301"),
    ((30, 25, 2, 5, True, 2), "ea45f69200c0b589ebc1d147b3f6b816f6a48ffee395aac0ad3528a2463f361b"),
    ((12, 60, 2, 5, False, None), "77b18d3bf750dc24bab6c16344cec6ab713a7e2180954fd6f002a16aa3f5a012"),
]


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

    def test_stall_raises(self, monkeypatch):
        # three pairs that pairwise meet (a triangle, or three at one
        # variable) are not triangle-free, so at most 6 of the 15 pairs of 6
        # variables fit: every candidate is rejected from then on, and the
        # rejection budget, lowered here from 10^6 so that the test does not
        # draw 10^6 candidates, raises the cap
        monkeypatch.setattr("privcsp.generators.MAX_REJECTIONS", 50)
        spec = GenSpec(n=6, m=15, k=2, seed=0, triangle_free=True)
        with pytest.raises(ResourceCapError,
                           match=r"^generator stalled after 50 rejections with \d+/15 constraints "
                                 r"placed; spec GenSpec\(n=6, m=15, k=2, seed=0, .*\) is likely "
                                 r"infeasible in practice$"):
            gen_random_kxor(spec)

    def test_empty(self):
        inst = gen_random_kxor(GenSpec(n=5, m=0, k=2, seed=0))
        assert inst.m == 0
        assert inst == CspInstance(n=5, constraints=(), kind="kxor")

    @pytest.mark.parametrize("spec, sha", PINNED_KXOR)
    def test_output_pinned(self, spec, sha):
        """The generator's bytes are pinned, and its instance, built from
        columns, equals the tuple constructor's on its constraints."""
        n, m, k, seed, triangle_free, max_degree = spec
        inst = gen_random_kxor(GenSpec(n=n, m=m, k=k, seed=seed, triangle_free=triangle_free,
                                       max_degree=max_degree))
        text = instance_to_json(inst)
        assert hashlib.sha256(text.encode()).hexdigest() == sha
        reference = CspInstance(n=n, constraints=inst.constraints, kind="kxor")
        assert inst == reference and instance_to_json(reference) == text


class TestGenTriangleFreeGraph:
    def test_even_cycle(self):
        g = gen_triangle_free_graph("even_cycle", 6)
        assert g.n == 6 and g.m == 6 and not has_triangle(g)
        assert has_triangle(cut_graph(3, ((0, 1), (1, 2), (2, 0))))
        with pytest.raises(ValueError):
            gen_triangle_free_graph("even_cycle", 5)

    def test_complete_bipartite(self):
        g = gen_triangle_free_graph("complete_bipartite", 3, 4)
        assert g.n == 7 and g.m == 12 and not has_triangle(g)

    def test_random_bipartite(self):
        g = gen_triangle_free_graph("random_bipartite", 5, 5, 12, seed=3)
        assert g.n == 10 and g.m == 12 and not has_triangle(g)
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
