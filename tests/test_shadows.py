import pytest

from conftest import family_of, random_digraph, subsets_upto, symmetric
from dmwc.fixtures import hub_fan, two_cycle
from dmwc.graph import Digraph, Instance, reachable_from, reverse
from dmwc.oracle import brute_force_mwc, generate_instance
from dmwc.sampling import _second_stage
from dmwc.separators import build_collection
from dmwc.shadows import is_important, is_shadowless, is_thin, shadow


def test_shadow_hub_fan():
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    report = shadow(g, terms, {fx.a(1), fx.a(2)})
    assert report.reverse == {fx.b(1), fx.b(2), fx.c(1, 2)}
    assert report.exact_reverse == {fx.c(1, 2)}
    empty = shadow(g, terms, set())
    non_terms = frozenset(g.vertices()) - terms
    assert empty.forward == non_terms  # terminals are sinks
    assert empty.reverse == frozenset()


def test_shadow_validates():
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    with pytest.raises(ValueError):
        shadow(g, terms, {fx.t(1)})
    extra_inf = Digraph(g.vertex_count, g.edges, terms | {fx.a(1)})
    with pytest.raises(ValueError):
        shadow(extra_inf, terms, {fx.a(1)})


def test_shadow_all_empty_on_mutually_cyclic_graph():
    # terminals sit on a cycle through every vertex in both directions
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (2, 1), (3, 2), (0, 3)], {0, 2})
    report = shadow(g, {0, 2}, set())
    assert report.forward == report.reverse == frozenset()
    assert is_shadowless(g, {0, 2}, set())


def test_shadow_duality_under_reversal():
    for seed in range(30):
        g = random_digraph(seed, 7, 0.3)
        g = Digraph(7, g.edges, {0, 1})
        terms = frozenset({0, 1})
        for s in subsets_upto(set(range(2, 7)), 2):
            a = shadow(g, terms, s)
            b = shadow(reverse(g), terms, s)
            assert a.reverse == b.forward and a.forward == b.reverse
            assert a.exact_reverse == b.exact_forward
            assert a.exact_forward == b.exact_reverse


def test_shadow_matches_reachability_definition():
    # reverse: cannot reach T in g - s; forward: T cannot reach it in g - s
    for seed in range(30):
        g = Digraph(7, random_digraph(seed, 7, 0.3).edges, {0, 1})
        terms = frozenset({0, 1})
        for s in subsets_upto(set(range(2, 7)), 2):
            rest = frozenset(g.vertices()) - s
            rep = shadow(g, terms, s)
            assert rep.reverse == {
                v for v in rest if not reachable_from(g, {v}, s) & terms
            }
            assert rep.forward == rest - reachable_from(g, terms, s)


def test_shadow_disjointness_invariants():
    for seed in range(30):
        g = random_digraph(seed, 7, 0.3)
        g = Digraph(7, g.edges, {0, 1})
        terms = frozenset({0, 1})
        for s in subsets_upto(set(range(2, 7)), 2):
            rep = shadow(g, terms, s)
            assert rep.exact_reverse <= rep.reverse
            assert rep.exact_forward <= rep.forward
            assert not s & (rep.forward | rep.reverse)
            assert not terms & (rep.forward | rep.reverse)


def test_thin():
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    assert is_thin(g, terms, {fx.a(1), fx.a(2)})
    assert not is_thin(g, terms, {fx.a(1), fx.b(1)})  # b1 only escapes via a1
    assert is_thin(g, terms, set())


def test_shadowless():
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    assert not is_shadowless(g, terms, set())
    two = two_cycle()
    assert is_shadowless(two.graph, two.terminals, set())
    # disjoint one-terminal cycles: every vertex reaches and is reached by T
    g2 = Digraph(4, [(0, 2), (2, 0), (1, 3), (3, 1)], {0, 1})
    assert is_shadowless(g2, {0, 1}, set())


def test_exact_shadow_membership_bound():
    # each vertex lies in the exact reverse shadow of at most 4^p members
    for seed in range(12):
        g = Digraph(8, random_digraph(seed, 8, 0.3).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        counts = dict.fromkeys(range(8), 0)
        for members in build_collection(inst):
            for z in shadow(g, inst.terminals, members).exact_reverse:
                counts[z] += 1
        assert all(c <= 4**2 for c in counts.values())


def _transfer_instances():
    for seed in range(12):
        g = Digraph(7, random_digraph(seed, 7, 0.35).edges, {0, 1})
        yield Instance(g, frozenset({0, 1}), 2)
        # undeletable non-terminals
        h = random_digraph(seed, 8, 0.35, 0.25)
        yield Instance(Digraph(8, h.edges, h.infinite | {0, 1}), frozenset({0, 1}), 2)
    for seed in range(20):
        inst = generate_instance(seed, 14, 0.18, 2 + seed % 2, 3, 0.15)
        yield inst
        for z1 in family_of(inst)[:3]:
            yield _second_stage(inst, z1)


def test_importance_transfer_to_exact_shadow_vertices():
    # a member's exact reverse shadow is its witness list: the member is
    # important for every vertex it is a minimal separator for
    for i, inst in enumerate(_transfer_instances()):
        g, terms = inst.graph, inst.terminals
        for members, witnesses in build_collection(inst).items():
            rep = shadow(g, terms, members)
            assert rep.exact_reverse == frozenset(witnesses), i
            for v in rep.exact_reverse:
                assert is_important(g, {v}, terms, members), i


def test_minimal_solutions_are_thin():
    for seed in range(40):
        g = Digraph(7, random_digraph(seed, 7, 0.3).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 3)
        pool = sorted(g.deletable - inst.terminals)
        feasible = [
            s
            for s in subsets_upto(pool, 3)
            if not any(
                reachable_from(g, {t}, s) & (inst.terminals - {t})
                for t in inst.terminals
            )
        ]
        for s in feasible:
            if any(t < s for t in feasible):
                continue  # not inclusion-minimal
            assert is_thin(g, inst.terminals, s)


def test_shadowless_solution_survives_undirected():
    for seed in range(40):
        g = Digraph(7, random_digraph(seed, 7, 0.25).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 3)
        und = symmetric(g)
        sol = brute_force_mwc(inst)
        if sol is None or not is_shadowless(g, inst.terminals, sol):
            continue
        for t in inst.terminals:
            assert not reachable_from(und, {t}, sol) & (inst.terminals - {t})
