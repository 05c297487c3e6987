import inspect
import sys

import pytest

from conftest import (
    brute_edge,
    brute_multicut,
    random_digraph,
    small_instances,
    with_loops_and_repeats,
)
from dmwc.fixtures import hub_fan, two_cycle
from dmwc.graph import Digraph, Instance, connected_terminal, reachable_from, reverse
from dmwc.oracle import brute_force_mwc, generate_instance
from dmwc.pipeline import (
    solve_edge,
    solve_multicut_k2,
    solve_vertex,
    verify_edge_cut,
    verify_multicut,
    verify_solution,
)


def test_verify_solution():
    inst = two_cycle(2)
    assert verify_solution(inst, {2, 3})
    assert not verify_solution(inst, {0, 3})  # contains a terminal
    assert not verify_solution(inst, set())  # t1 still reaches t2
    assert not verify_solution(two_cycle(1), {2, 3})  # over budget
    assert not verify_solution(inst, {9})  # out of range


def test_verify_edge_cut():
    inst = Instance(Digraph(3, [(0, 2), (2, 1), (0, 1)], {0, 1}), frozenset({0, 1}), 2)
    assert verify_edge_cut(inst, [0, 2])
    assert verify_edge_cut(inst, [1, 2, 2])  # repeats count once
    assert not verify_edge_cut(inst, [0])  # 0 -> 1 survives
    assert not verify_edge_cut(inst, [0, 1, 2])  # over budget
    assert not verify_edge_cut(inst, [2, 3])  # no edge 3


def test_verify_multicut():
    # 4 lies on both request paths but is undeletable
    g = Digraph(6, [(0, 4), (4, 1), (2, 4), (4, 3), (0, 5), (5, 1)], {4})
    pairs = [(0, 1), (2, 3)]
    assert verify_multicut(g, pairs, 2, {0, 2})
    assert verify_multicut(g, pairs, 2, {1, 3})  # endpoints may be cut
    assert not verify_multicut(g, pairs, 2, {4})
    assert not verify_multicut(g, pairs, 2, {4, 5})
    assert not verify_multicut(g, pairs, 1, {0, 2})  # over budget
    assert not verify_multicut(g, pairs, 2, {0, 9})  # out of range


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


def test_solve_path_needs_no_shadow_or_importance_check(monkeypatch):
    # the reference predicates may move or go; no solver may depend on them
    from dmwc import shadows

    def forbidden(*args):
        raise AssertionError("called on the solve path")

    banned = [
        obj for attr, obj in vars(shadows).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == shadows.__name__
    ]
    assert {f.__name__ for f in banned} >= {"shadow", "is_important", "is_minimal_separator"}
    for name, module in list(sys.modules.items()):
        if name == "dmwc" or name.startswith("dmwc."):
            for attr, obj in list(vars(module).items()):
                if any(obj is f for f in banned):
                    monkeypatch.setattr(module, attr, forbidden)
    assert solve_vertex(hub_fan(3, 2).instance) is not None
    for seed in (0, 5):  # a NO walks every family, a YES stops at its cut
        inst = generate_instance(seed, 20, 2.5 / 20, 2, 2)
        got = solve_vertex(inst)
        assert (got is None) == (brute_force_mwc(inst) is None), seed
    edge = generate_instance(3, 6, 0.3, 2, 1)
    assert (solve_edge(edge) is None) == (brute_edge(edge.graph, edge.terminals, 1) is None)
    mc = random_digraph(4003, 6, 0.25)
    got = solve_multicut_k2(mc, [(0, 1), (2, 3)], 2)
    assert (got is None) == (brute_multicut(mc, [(0, 1), (2, 3)], 2) is None)


def test_failed_verification_raises(monkeypatch):
    from dmwc import pipeline

    monkeypatch.setattr(pipeline, "verify_solution", lambda inst, s: False)
    with pytest.raises(RuntimeError, match="failed verification"):
        solve_vertex(two_cycle(2))


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


def test_each_combined_choice_is_attempted_once_in_family_order(monkeypatch):
    from dmwc import pipeline
    from dmwc.sampling import deterministic_sets

    attempted = []
    attempt = pipeline._attempt

    def recording(inst, z):
        attempted.append(z)
        return attempt(inst, z)

    monkeypatch.setattr(pipeline, "_attempt", recording)
    answers = set()
    for inst in small_instances(30, seed0=300):
        attempted.clear()
        got = solve_vertex(inst)
        g = inst.graph
        if connected_terminal(g, inst.terminals, g.deletable()) is not None:
            # terminals joined through undeletable vertices: NO up front
            assert got is None and attempted == []
            answers.add("joined")
            continue
        answers.add(got is None)
        order = list(dict.fromkeys(
            z1 | z2
            for z1 in deterministic_sets(inst)
            for z2 in deterministic_sets(pipeline._second_stage(inst, z1))
        ))
        # a NO tries every distinct choice; a YES stops at the one that solved
        assert attempted == (order if got is None else order[:len(attempted)])
    assert answers == {"joined", True, False}


def test_terminals_joined_through_undeletable_vertices_are_no_up_front(monkeypatch):
    # generate_instance(11, 40, ...) has the edge 13 -> 38 between its terminals
    from dmwc import pipeline

    def unreachable(*args):
        raise AssertionError("a candidate family was built")

    monkeypatch.setattr(pipeline, "deterministic_sets", unreachable)
    for p in (3, 4):
        inst = generate_instance(11, 40, 2.5 / 40, 2, p)
        assert solve_vertex(inst) is None


def test_deterministic_is_the_only_mode():
    # the keyword stays for callers that name the mode; no other value runs
    inst = two_cycle(2)
    edge = Instance(Digraph(3, [(0, 2), (2, 1)], {0, 1}), frozenset({0, 1}), 1)
    mc = Digraph(4, [(0, 1), (2, 3)])
    for mode in ("randomized", "bogus"):
        with pytest.raises(ValueError, match="unknown mode"):
            solve_vertex(inst, mode=mode)
        with pytest.raises(ValueError, match="unknown mode"):
            solve_edge(edge, mode=mode)
        with pytest.raises(ValueError, match="unknown mode"):
            solve_multicut_k2(mc, [(0, 1), (2, 3)], 2, mode=mode)
    assert solve_vertex(inst, mode="deterministic") == solve_vertex(inst)
    assert solve_edge(edge, mode="deterministic") == solve_edge(edge)
    got = solve_multicut_k2(mc, [(0, 1), (2, 3)], 2, mode="deterministic")
    assert got == solve_multicut_k2(mc, [(0, 1), (2, 3)], 2)
    assert got is not None


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
        want = brute_edge(inst.graph, inst.terminals, inst.budget)
        assert (got is None) == (want is None), i


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
        want = brute_multicut(g, pairs, p)
        assert (got is None) == (want is None), i


def test_loops_and_repeated_edges_keep_every_answer():
    # self-loops and parallel edges are legal in every file kind; each kind
    # must still agree with its brute force, on YES and on walked NO answers
    def answer(got, joined):
        return "yes" if got is not None else "joined no" if joined else "no"

    vertex = set()
    for inst in small_instances(80, seed0=300, max_n=9, max_p=2):
        g = with_loops_and_repeats(inst.graph)
        inst = Instance(g, inst.terminals, inst.budget)
        got = solve_vertex(inst)
        assert (got is None) == (brute_force_mwc(inst) is None), inst
        joined = connected_terminal(g, inst.terminals, g.deletable()) is not None
        vertex.add(answer(got, joined))
    edge = set()
    for inst in small_instances(80, seed0=700, max_n=7, max_p=2):
        g = with_loops_and_repeats(inst.graph)
        got = solve_edge(Instance(g, inst.terminals, inst.budget))
        assert (got is None) == (brute_edge(g, inst.terminals, inst.budget) is None), inst
        edge.add(answer(got, False))  # every path crosses a cuttable edge
    multicut = set()
    for i in range(80):
        g = with_loops_and_repeats(
            random_digraph(9500 + i, 4 + i % 5, 0.25, 0.1 if i % 4 == 0 else 0.0)
        )
        pairs, p = [(0, 1), (2, 3)], i % 3
        got = solve_multicut_k2(g, pairs, p)
        assert (got is None) == (brute_multicut(g, pairs, p) is None), i
        joined = any(
            {a, b} <= g.infinite and b in reachable_from(g, {a}, g.deletable())
            for a, b in pairs
        )
        multicut.add(answer(got, joined))
    assert vertex == {"yes", "no", "joined no"}
    assert edge == multicut == {"yes", "no"}
