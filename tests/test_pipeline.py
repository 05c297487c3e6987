import inspect
import sys

import pytest

from conftest import (
    bound_decides,
    brute_edge,
    brute_multicut,
    family_of,
    first_candidate,
    random_digraph,
    small_instances,
    terminal_lambdas,
    walked_nos,
    with_loops_and_repeats,
)
from dmwc.fixtures import hub_fan, two_cycle
from dmwc.graph import Digraph, Instance, reverse
from dmwc.oracle import brute_force_mwc, generate_instance
from dmwc.pipeline import (
    _attempt,
    solve_edge,
    solve_multicut_k2,
    solve_vertex,
    verify_edge_cut,
    verify_multicut,
    verify_solution,
)


@pytest.fixture
def built(monkeypatch):
    """Arguments of every candidate family the solver builds, in order."""
    from dmwc import sampling

    calls = []
    real = sampling.deterministic_sets

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sampling, "deterministic_sets", counting)
    return calls


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
    from dmwc.sampling import _second_stage

    attempted = []
    attempt = pipeline._attempt

    def recording(inst, z):
        attempted.append(z)
        return attempt(inst, z)

    monkeypatch.setattr(pipeline, "_attempt", recording)
    answers = set()
    # the packing decides every NO of small_instances; the extra seeds are
    # walked NOs
    walked = [generate_instance(3277, 7, 0.3, 2, 2), *walked_nos()]
    for inst in small_instances(60, seed0=300) + walked:
        attempted.clear()
        got = solve_vertex(inst)
        if bound_decides(inst):
            # the packing of terminal paths passes the budget: NO up front
            assert got is None and attempted == []
            answers.add("bound")
            continue
        answers.add(got is None)
        order = list(dict.fromkeys(
            z1 | z2
            for z1 in family_of(inst)
            for z2 in family_of(_second_stage(inst, z1))
        ))
        # a NO tries every distinct choice; a YES stops at the one that solved
        assert attempted == (order if got is None else order[:len(attempted)])
    assert answers == {"bound", True, False}


def test_terminals_joined_through_undeletable_vertices_are_no_up_front(monkeypatch):
    # generate_instance(11, 40, ...) has the edge 13 -> 38 between its terminals
    from dmwc import sampling

    def unreachable(*args):
        raise AssertionError("a candidate family was built")

    monkeypatch.setattr(sampling, "deterministic_sets", unreachable)
    for p in (3, 4):
        inst = generate_instance(11, 40, 2.5 / 40, 2, p)
        assert solve_vertex(inst) is None


def test_lambda_above_budget_is_no_up_front(monkeypatch):
    # every multiway cut separates t from T - t, so lambda_t > p is a NO
    from dmwc import sampling

    def unreachable(*args):
        raise AssertionError("a candidate family was built")

    monkeypatch.setattr(sampling, "deterministic_sets", unreachable)
    inst = generate_instance(18, 40, 2.5 / 40, 2, 3)
    assert terminal_lambdas(inst) == [1, 4]
    assert solve_vertex(inst) is None
    # the subdivided graph's lambda_t is the minimum t-(T - t) edge cut
    edge = generate_instance(0, 8, 2.5 / 8, 2, 1)
    assert brute_edge(edge.graph, edge.terminals, 1) is None
    assert solve_edge(edge) is None
    # undeletable endpoints 0 and 1 with two disjoint paths between them: the
    # gadget's source reaches 0, and lambda = 2 > 1
    mc = Digraph(6, [(0, 4), (4, 1), (0, 5), (5, 1)], {0, 1})
    assert brute_multicut(mc, [(0, 1), (2, 3)], 1) is None
    assert solve_multicut_k2(mc, [(0, 1), (2, 3)], 1) is None


def test_packing_above_budget_is_no_up_front(monkeypatch):
    # every lambda_t <= p, but the packing of terminal paths passes p
    from dmwc import sampling

    def unreachable(*args):
        raise AssertionError("a candidate family was built")

    monkeypatch.setattr(sampling, "deterministic_sets", unreachable)
    for seed, n, p in ((0, 45, 2), (25, 40, 3)):
        inst = generate_instance(seed, n, 2.5 / n, 2, p)
        assert terminal_lambdas(inst) == [2, 2]
        assert solve_vertex(inst) is None
    # an edge two-cycle; its subdivision has one path each way, and each
    # avoids the other's subdivision vertex
    two = Instance(Digraph(2, [(0, 1), (1, 0)], {0, 1}), {0, 1}, 1)
    subdivided = Digraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)], {0, 1})
    assert terminal_lambdas(Instance(subdivided, {0, 1}, 1)) == [1, 1]
    assert brute_edge(two.graph, two.terminals, 1) is None
    assert solve_edge(two) is None
    # two request pairs on disjoint edges: the gadget's s = 4 and t = 5 each
    # have one path, through the other pair's endpoints
    mc = Digraph(4, [(0, 1), (2, 3)])
    gadget = Digraph(6, [(0, 1), (2, 3), (4, 0), (1, 5), (5, 2), (3, 4)], {4, 5})
    assert terminal_lambdas(Instance(gadget, {4, 5}, 1)) == [1, 1]
    assert brute_multicut(mc, [(0, 1), (2, 3)], 1) is None
    assert solve_multicut_k2(mc, [(0, 1), (2, 3)], 1) is None


def test_packing_never_answers_no_when_a_cut_exists():
    # q terminal paths, no two sharing a deletable vertex, force q cut vertices
    from dmwc.pipeline import _packing_exceeds

    decided = cuts = 0
    for i in range(1600):
        n, p = 5 + i % 6, i % 4
        inst = generate_instance(7000 + i, n, 0.1 + 0.05 * (i % 5), 2 + i % 2, p,
                                 0.2 if i % 3 == 0 else 0.0)
        exceeds = _packing_exceeds(inst)
        if brute_force_mwc(inst) is not None:
            assert not exceeds, i
            cuts += 1
        decided += exceeds
    assert decided > 900 and cuts > 500


def test_walked_no_and_single_terminal_still_run_the_families(built):
    inst = generate_instance(3277, 7, 0.3, 2, 2)
    # every lambda_t <= p and their sum passes p, but no order of the packing does
    assert terminal_lambdas(inst) == [2, 2] and not bound_decides(inst)
    assert brute_force_mwc(inst) is None
    assert solve_vertex(inst) is None and built
    assert len(walked_nos()) == 10
    for inst in walked_nos():
        built.clear()
        assert solve_vertex(inst) is None and built
    # one terminal: no t-(T - t) flow to run, and nothing to cut
    lone = Instance(Digraph(3, [(0, 1), (1, 2)], {0}), {0}, 0)
    assert terminal_lambdas(lone) == []
    assert solve_vertex(lone).vertices == frozenset()


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


def test_multicut_gadget_vertex_in_a_cut_is_a_solver_bug(monkeypatch):
    # the gadget's fresh terminal n is undeletable, so a cut holding it can
    # only come from a solver bug: it must fail verification, not be dropped
    from dmwc import pipeline

    g = Digraph(6, [(0, 4), (4, 1), (2, 5), (5, 3)], {0, 1, 2, 3})
    real = pipeline.solve_vertex

    def leaky(inst, **kwargs):
        sol = real(inst, **kwargs)
        return pipeline.Solution(vertices=sol.vertices | {g.vertex_count})

    assert solve_multicut_k2(g, [(0, 1), (2, 3)], 3).vertices == frozenset({4, 5})
    monkeypatch.setattr(pipeline, "solve_vertex", leaky)
    with pytest.raises(RuntimeError, match=r"multicut \[4, 5, 6\] failed verification"):
        solve_multicut_k2(g, [(0, 1), (2, 3)], 3)


def test_multicut_agrees_with_brute_force():
    for i in range(60):
        g = random_digraph(4000 + i, 5 + i % 2, 0.25)
        pairs = [(0, 1), (2, 3)]
        p = i % 3
        got = solve_multicut_k2(g, pairs, p)
        want = brute_multicut(g, pairs, p)
        assert (got is None) == (want is None), i


@pytest.mark.parametrize("bound", [True, False], ids=["bound", "walk-only"])
def test_loops_and_repeated_edges_keep_every_answer(built, monkeypatch, bound):
    # self-loops and parallel edges are legal in every file kind; each kind
    # must still agree with its brute force, on YES, on NO by the packing of
    # terminal paths and on NO after walking the candidate families.  With
    # the packing off the walk alone must answer the NOs it would decide.
    # Each kind's last instance is a walked NO, which the small corpora lack
    if not bound:
        monkeypatch.setattr("dmwc.pipeline._packing_exceeds", lambda inst: False)

    def answer(got):
        return "yes" if got is not None else "walked no" if built else "bound no"

    vertex = set()
    walked = generate_instance(3277, 7, 0.3, 2, 2)
    for inst in small_instances(80, seed0=300, max_n=9, max_p=2) + [walked]:
        g = with_loops_and_repeats(inst.graph)
        inst = Instance(g, inst.terminals, inst.budget)
        built.clear()
        got = solve_vertex(inst)
        assert (got is None) == (brute_force_mwc(inst) is None), inst
        # nothing is built exactly when the packing decides or z0 answers
        z0_answers = _attempt(inst, first_candidate(inst)) is not None
        assert (not built) == ((bound and bound_decides(inst)) or z0_answers), inst
        vertex.add(answer(got))
    edge = set()
    walked = generate_instance(2875, 8, 0.25, 2, 2)
    for inst in small_instances(80, seed0=700, max_n=7, max_p=2) + [walked]:
        g = with_loops_and_repeats(inst.graph)
        built.clear()
        got = solve_edge(Instance(g, inst.terminals, inst.budget))
        assert (got is None) == (brute_edge(g, inst.terminals, inst.budget) is None), inst
        edge.add(answer(got))
    multicut = set()
    cases = [
        (random_digraph(9500 + i, 4 + i % 5, 0.25, 0.1 if i % 4 == 0 else 0.0), i % 3)
        for i in range(80)
    ]
    for i, (g, p) in enumerate(cases + [(random_digraph(721, 5, 0.3), 1)]):
        g = with_loops_and_repeats(g)
        pairs = [(0, 1), (2, 3)]
        built.clear()
        got = solve_multicut_k2(g, pairs, p)
        assert (got is None) == (brute_multicut(g, pairs, p) is None), i
        multicut.add(answer(got))
    kinds = {"yes", "walked no", "bound no"} if bound else {"yes", "walked no"}
    assert vertex == edge == multicut == kinds
