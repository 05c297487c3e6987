from itertools import combinations

import pytest

from conftest import random_digraph, small_instances
from dmwc.fixtures import hub_fan, two_cycle
from dmwc.graph import Digraph, Instance, reachable_from, reverse
from dmwc.oracle import brute_force_mwc, generate_instance
from dmwc.pipeline import (
    allow_terminal_deletion,
    solve_edge,
    solve_multicut_k2,
    solve_vertex,
    verify_solution,
)


def test_verify_solution():
    inst = two_cycle(2)
    assert verify_solution(inst, {2, 3})
    assert not verify_solution(inst, {0, 3})  # contains a terminal
    assert not verify_solution(inst, set())  # t1 still reaches t2
    assert not verify_solution(two_cycle(1), {2, 3})  # over budget
    assert not verify_solution(inst, {9})  # out of range


def test_two_cycle_end_to_end():
    assert solve_vertex(two_cycle(2)).vertices == frozenset({2, 3})
    assert solve_vertex(two_cycle(1)) is None


def test_hub_fan_budget_zero():
    fx = hub_fan(3, 2, budget=0)
    sol = solve_vertex(fx.instance)
    assert sol.vertices == frozenset()  # terminals are mutual sinks


def test_agrees_with_brute_force():
    for i, inst in enumerate(small_instances(150)):
        got = solve_vertex(inst)
        want = brute_force_mwc(inst)
        assert (got is None) == (want is None), i
        if got is not None:
            assert verify_solution(inst, got.vertices)


def test_failed_verification_raises(monkeypatch):
    from dmwc import pipeline

    monkeypatch.setattr(pipeline, "verify_solution", lambda inst, s: False)
    with pytest.raises(RuntimeError, match="failed verification"):
        solve_vertex(two_cycle(2))
    with pytest.raises(RuntimeError, match="failed verification"):
        solve_vertex(two_cycle(2), mode="randomized", seed=1)


def test_failed_reduction_check_raises(monkeypatch):
    from dmwc import pipeline

    # an empty cut from the vertex solver leaves both instances connected
    monkeypatch.setattr(
        pipeline, "solve_vertex", lambda *a, **k: pipeline.Solution(vertices=frozenset())
    )
    joined = Instance(Digraph(3, [(0, 2), (2, 1)], {0, 1}), frozenset({0, 1}), 1)
    with pytest.raises(RuntimeError, match="edge cut"):
        solve_edge(joined)
    with pytest.raises(RuntimeError, match="multicut"):
        solve_multicut_k2(Digraph(4, [(0, 1), (2, 3)]), [(0, 1), (2, 3)], 1)


def test_randomized_mode_is_sound_and_seed_stable():
    inst = two_cycle(2)
    for seed in range(10):
        sol = solve_vertex(inst, mode="randomized", seed=seed)
        if sol is not None:
            assert verify_solution(inst, sol.vertices)
        again = solve_vertex(inst, mode="randomized", seed=seed)
        assert (sol is None) == (again is None)
        if sol is not None:
            assert sol.vertices == again.vertices
    with pytest.raises(ValueError):
        solve_vertex(inst, mode="bogus")


def test_reversal_symmetry():
    for inst in small_instances(60, seed0=500):
        rev = Instance(reverse(inst.graph), inst.terminals, inst.budget)
        assert (solve_vertex(inst) is None) == (solve_vertex(rev) is None)


def test_deterministic_output_is_stable():
    for inst in small_instances(20, seed0=900):
        a = solve_vertex(inst)
        b = solve_vertex(inst)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.vertices == b.vertices


def test_allow_terminal_deletion_structure():
    inst = two_cycle(2)
    tf = allow_terminal_deletion(inst)
    g, g2 = inst.graph, tf.instance.graph
    assert g2.vertex_count == g.vertex_count + 2
    assert len(g2.edges) == len(g.edges) + 4
    assert tf.instance.terminals == frozenset(tf.new_terminal_of.values())
    # the old terminals became deletable
    assert not inst.terminals & g2.infinite
    for t, t2 in tf.new_terminal_of.items():
        assert (t, t2) in g2.edges and (t2, t) in g2.edges


def test_allow_terminal_deletion_solves_by_cutting_a_terminal():
    # t1 -> t2 direct edge is only breakable by deleting a terminal
    g = Digraph(2, [(0, 1)], {0, 1})
    inst = Instance(g, frozenset({0, 1}), 1)
    assert brute_force_mwc(inst) is None
    tf = allow_terminal_deletion(inst)
    sol = solve_vertex(tf.instance)
    assert sol is not None
    assert sol.vertices <= inst.terminals  # deletes an original terminal


def _brute_edge(g, terminals, p):
    idx = range(len(g.edges))
    for size in range(min(p, len(g.edges)) + 1):
        for combo in combinations(idx, size):
            gone = set(combo)
            h = Digraph(
                g.vertex_count,
                [e for i, e in enumerate(g.edges) if i not in gone],
                g.infinite,
            )
            if all(
                not reachable_from(h, {t}) & (terminals - {t}) for t in terminals
            ):
                return combo
    return None


def test_edge_variant_examples():
    g = Digraph(3, [(0, 2), (2, 1)], {0, 1})
    inst = Instance(g, frozenset({0, 1}), 1)
    sol = solve_edge(inst)
    assert sol is not None and len(sol.edges) == 1
    assert sol.edges[0] in (0, 1)

    apart = Instance(Digraph(2, [], {0, 1}), frozenset({0, 1}), 0)
    assert solve_edge(apart).edges == ()

    joined = Instance(Digraph(2, [(0, 1)], {0, 1}), frozenset({0, 1}), 0)
    assert solve_edge(joined) is None


def test_edge_variant_agrees_with_brute_force():
    for i in range(60):
        inst = generate_instance(3000 + i, 3 + i % 3, 0.3, 2, i % 2)
        got = solve_edge(inst)
        want = _brute_edge(inst.graph, inst.terminals, inst.budget)
        assert (got is None) == (want is None), i


def _brute_multicut(g, pairs, p):
    pool = sorted(set(g.vertices()) - g.infinite)
    for size in range(min(p, len(pool)) + 1):
        for combo in combinations(pool, size):
            s = frozenset(combo)
            if all(
                a in s or b in s or b not in reachable_from(g, {a}, s - {a})
                for a, b in pairs
            ):
                return s
    return None


def test_multicut_examples():
    # two disjoint length-2 request paths with protected endpoints
    g = Digraph(6, [(0, 4), (4, 1), (2, 5), (5, 3)], {0, 1, 2, 3})
    sol = solve_multicut_k2(g, [(0, 1), (2, 3)], 2)
    assert sol.vertices == frozenset({4, 5})
    # deletable endpoints open up cheaper-by-lex cuts; any verified one is fine
    loose = solve_multicut_k2(Digraph(6, [(0, 4), (4, 1), (2, 5), (5, 3)]), [(0, 1), (2, 3)], 2)
    assert loose is not None

    idle = Digraph(4, [])
    assert solve_multicut_k2(idle, [(0, 1), (2, 3)], 0).vertices == frozenset()

    hard = Digraph(2, [(0, 1)], {0, 1})
    assert solve_multicut_k2(hard, [(0, 1), (1, 0)], 5) is None

    with pytest.raises(ValueError):
        solve_multicut_k2(idle, [(0, 1)], 1)


def test_multicut_agrees_with_brute_force():
    for i in range(60):
        g = random_digraph(4000 + i, 5 + i % 2, 0.25)
        pairs = [(0, 1), (2, 3)]
        p = i % 3
        got = solve_multicut_k2(g, pairs, p)
        want = _brute_multicut(g, pairs, p)
        assert (got is None) == (want is None), i
