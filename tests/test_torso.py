import pytest

from conftest import random_digraph, subsets_upto, symmetric, with_loops_and_repeats
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, Instance, reachable_from
from dmwc.oracle import brute_force_mwc
from dmwc.pipeline import verify_solution
from dmwc.rng import SplitMix64
from dmwc.shadows import shadow
from dmwc.torso import reduce_instance, torso
from dmwc.undirected import solve_undirected


def _torso_graph(g, kept):
    return Digraph(g.vertex_count, torso(g, kept), g.infinite)


def test_torso_identity_on_full_vertex_set():
    for seed in range(10):
        g = random_digraph(seed, 6, 0.35, 0.2)
        tg = _torso_graph(g, range(6))
        assert tg.vertex_count == g.vertex_count
        assert set(tg.edges) == set(g.edges)
        assert tg.infinite == g.infinite


def test_torso_contracts_paths():
    chain = Digraph(3, [(0, 1), (1, 2)])
    assert torso(chain, {0, 2}) == {(0, 2)}


def test_torso_hub_fan_without_a1():
    fx = hub_fan(3, 2)
    g = fx.instance.graph
    kept = set(g.vertices()) - {fx.a(1)}
    old_edges = {(u, v) for u, v in g.edges if fx.a(1) not in (u, v)}
    bridged = {
        (u, t)
        for u in (fx.b(1), fx.c(1, 2), fx.c(1, 3))
        for t in (fx.t(1), fx.t(2))
    }
    assert torso(g, kept) == old_edges | bridged


def test_torso_contains_induced_subgraph():
    for seed in range(15):
        g = random_digraph(seed, 7, 0.3)
        rng = SplitMix64(seed)
        kept = {v for v in range(7) if rng.coin()}
        arcs = torso(g, kept)
        assert all(a in kept and b in kept and a != b for a, b in arcs)
        for u, v in g.edges:
            if u in kept and v in kept and u != v:
                assert (u, v) in arcs


def test_torso_validates_range():
    for bad in ({5}, {3}, {-1}, {0, 7}):
        with pytest.raises(ValueError, match="out of range"):
            torso(Digraph(3), bad)


def test_torso_preserves_separation():
    for seed in range(30):
        g = random_digraph(seed, 5, 0.4)
        for kept in subsets_upto(range(5), 5):
            if len(kept) < 2:
                continue
            tg = _torso_graph(g, kept)
            for s in subsets_upto(kept, 2):
                for a in kept - s:
                    reach_g = reachable_from(g, {a}, s) & kept
                    assert reachable_from(tg, {a}, s) == reach_g, (seed, kept, s, a)


def test_reduce_instance_noop():
    fx = hub_fan(3, 2)
    red = reduce_instance(fx.instance, ())
    assert red.graph == symmetric(fx.instance.graph)
    assert red.terminals == fx.instance.terminals
    assert red.budget == fx.instance.budget


def test_reduce_instance_rejects_terminals():
    fx = hub_fan(3, 2)
    with pytest.raises(ValueError):
        reduce_instance(fx.instance, {fx.t(1)})


def test_reduce_instance_rejects_out_of_range_ids():
    inst = hub_fan(3, 2).instance
    for bad in ({99}, {-1}, {99, -1}, {inst.graph.vertex_count}):
        with pytest.raises(ValueError, match="out of range"):
            reduce_instance(inst, bad)


def test_reduce_instance_drops_hub_layer():
    fx = hub_fan(3, 2)
    z = {fx.b(i) for i in (1, 2, 3)} | {
        fx.c(i, j) for i, j in ((1, 2), (1, 3), (2, 3))
    }
    g = reduce_instance(fx.instance, z).graph
    assert g.vertex_count == fx.instance.graph.vertex_count  # z stays, isolated
    expect = {(fx.a(i), fx.t(j)) for i in (1, 2, 3) for j in (1, 2)}
    assert set(g.edges) == expect | {(b, a) for a, b in expect}


def _instance_with_z(seed, n):
    """A graph with self-loops and repeated edges, terminals {0, 1}, and a
    removed set z that draws from the undeletable non-terminals too."""
    base = random_digraph(seed, n, 0.18, 0.2)
    g = with_loops_and_repeats(Digraph(n, base.edges, base.infinite | {0, 1}))
    inst = Instance(g, frozenset({0, 1}), 2 + seed % 3)
    rng = SplitMix64(seed + 555)
    z = frozenset(v for v in range(2, n) if rng.unit() < 0.4)
    return inst, z


def test_reduce_instance_matches_definition():
    undeletable_in_z = 0
    for seed in range(60):
        inst, z = _instance_with_z(seed, 5 + seed % 4)
        g = inst.graph
        undeletable_in_z += bool(z & g.infinite)
        red = reduce_instance(inst, z)
        kept = frozenset(g.vertices()) - z

        def bridged(a, b):
            # an a->b path whose interior lies in z
            return b in reachable_from(g, {a}, kept - {a, b})

        expect = {
            (a, b)
            for a in kept
            for b in kept
            if a != b and (bridged(a, b) or bridged(b, a))
        }
        assert set(red.graph.edges) == expect, seed
        assert len(red.graph.edges) == len(expect)  # one arc per direction
        assert all(not red.graph.succ[v] and not red.graph.pred[v] for v in z)
        assert red.graph.vertex_count == g.vertex_count
        assert red.graph.infinite == g.infinite
        assert red.terminals == inst.terminals and red.budget == inst.budget
    assert undeletable_in_z >= 10


def test_reduced_instance_solves_like_brute_force():
    nonempty_cuts = 0
    for seed in range(60):
        inst, z = _instance_with_z(seed, 6 + seed % 7)  # n = 6..12
        red = reduce_instance(inst, z)
        got = solve_undirected(red)
        assert got == brute_force_mwc(red), seed
        assert got is None or not got & z, seed
        nonempty_cuts += bool(got)
    assert nonempty_cuts >= 10


def test_reduced_solutions_verify_on_input():
    for seed in range(40):
        g = Digraph(7, random_digraph(seed, 7, 0.3).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        rng = SplitMix64(seed + 99)
        z = frozenset(v for v in range(2, 7) if rng.coin())
        sol = brute_force_mwc(reduce_instance(inst, z))
        if sol is not None:
            assert verify_solution(inst, sol), (seed, z, sol)


def test_shadow_elimination():
    # a solution whose shadow sits inside the removed set leaves no shadow
    # among the kept vertices of the torso
    for seed in range(60):
        g = Digraph(7, random_digraph(seed, 7, 0.3).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        sol = brute_force_mwc(inst)
        if sol is None:
            continue
        rep = shadow(g, inst.terminals, sol)
        z = rep.forward | rep.reverse
        if z & sol:
            continue
        tg = _torso_graph(g, frozenset(g.vertices()) - z)
        in_torso = shadow(tg, inst.terminals, sol)
        assert (in_torso.forward | in_torso.reverse) <= z, (seed, sol, z)
