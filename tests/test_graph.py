from itertools import combinations, permutations

import pytest

from conftest import random_digraph, subsets_upto, with_loops_and_repeats
from dmwc.fixtures import hub_fan
from dmwc import graph
from dmwc.graph import Digraph, Instance, min_vertex_separator, reachable_from, reverse
from dmwc.rng import SplitMix64
from dmwc.shadows import neighborhood_weight, out_neighborhood, reaches_into


def test_construction_validates():
    with pytest.raises(ValueError):
        Digraph(-1)
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(2, [], [5])


def test_instance_validates():
    g = Digraph(3, [(0, 1)], {0})
    with pytest.raises(ValueError):
        Instance(g, frozenset(), 1)
    with pytest.raises(ValueError):
        Instance(g, frozenset({1}), 1)  # terminal not distinguished
    with pytest.raises(ValueError):
        Instance(g, frozenset({0}), -1)
    Instance(g, frozenset({0}), 0)


def test_reachable_hub_fan():
    fx = hub_fan(3, 2)
    g = fx.instance.graph
    c12 = fx.c(1, 2)
    expect = {c12, fx.a(1), fx.a(2), fx.t(1), fx.t(2)}
    assert reachable_from(g, {c12}) == expect
    assert reachable_from(g, {c12}, {fx.a(1), fx.a(2)}) == {c12}


def test_reachable_sinks_and_errors():
    g = Digraph(4, [(0, 1), (1, 2)])
    assert reachable_from(g, {3}) == {3}  # sink stays put
    with pytest.raises(ValueError):
        reachable_from(g, {9})
    with pytest.raises(ValueError):
        reachable_from(g, {0}, {0})


def test_reachable_monotone_in_removed():
    for seed in range(40):
        g = random_digraph(seed, 8, 0.3)
        rng = SplitMix64(seed + 1000)
        src = {rng.below(8)}
        small = frozenset(v for v in range(8) if v not in src and rng.coin())
        big = small | frozenset(
            v for v in range(8) if v not in src and rng.coin()
        )
        assert reachable_from(g, src, big) <= reachable_from(g, src, small)


def test_reaches_into_mirrors_reachable():
    for seed in range(30):
        g = random_digraph(seed, 7, 0.3)
        for v in range(7):
            assert reaches_into(g, {v}) == reachable_from(reverse(g), {v})


def test_out_neighborhood():
    fx = hub_fan(3, 2)
    g = fx.instance.graph
    assert out_neighborhood(g, {fx.c(1, 2)}) == {fx.a(1), fx.a(2)}
    assert out_neighborhood(g, ()) == frozenset()
    assert out_neighborhood(g, {fx.a(1), fx.b(1)}) == {fx.t(1), fx.t(2)}


def test_reverse():
    g = Digraph(2, [(0, 1)])
    assert reverse(g).edges == ((1, 0),)
    for seed in range(20):
        h = random_digraph(seed, 6, 0.4, 0.2)
        assert reverse(reverse(h)) == h
    fx = hub_fan(3, 2)
    rev = reverse(fx.instance.graph)
    assert (fx.t(1), fx.a(2)) in rev.edges
    assert (fx.a(1), fx.b(1)) in rev.edges
    assert (fx.a(1), fx.c(1, 2)) in rev.edges


def test_min_separator_path_prefers_max_reach():
    # x=0 -> a=1 -> b=2 -> y=3; both {a} and {b} are minimum, {b} sees more
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)], {0, 3})
    lam, s_star = min_vertex_separator(g, {0}, {3})
    assert (lam, s_star) == (1, frozenset({2}))


def test_min_separator_hub_fan():
    fx = hub_fan(3, 2)
    g = fx.instance.graph
    lam, s_star = min_vertex_separator(g, {fx.c(1, 2)}, {fx.t(1), fx.t(2)})
    assert (lam, s_star) == (2, frozenset({fx.a(1), fx.a(2)}))


def test_min_separator_disconnected_and_infeasible():
    g = Digraph(4, [(0, 1)], {0, 2})
    assert min_vertex_separator(g, {2}, {3}) == (0, frozenset())
    direct = Digraph(2, [(0, 1)], {0, 1})
    assert min_vertex_separator(direct, {0}, {1}) is None


def test_min_separator_validates():
    g = Digraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        min_vertex_separator(g, set(), {1})
    with pytest.raises(ValueError):
        min_vertex_separator(g, {0}, {0})


def test_min_separator_flow_is_bounded(monkeypatch):
    # with the up-front no-finite-cut check blinded, the x -> u -> y path
    # through undeletable u carries unbounded flow; the loop must fail, not spin
    monkeypatch.setattr(graph, "reachable_from", lambda *args: frozenset())
    g = Digraph(3, [(0, 1), (1, 2)], {1})
    with pytest.raises(RuntimeError, match="max-flow exceeded"):
        min_vertex_separator(g, {0}, {2})


def _is_sep(g, x, y, s):
    if s & (x | y | g.infinite):
        return False
    return not reachable_from(g, x, s) & y


def test_min_separator_matches_brute_force():
    for seed in range(60):
        plain = random_digraph(seed, 6, 0.3, 0.15)
        for g in (plain, with_loops_and_repeats(plain)):
            for x, y in permutations(range(6), 2):
                xs, ys = frozenset({x}), frozenset({y})
                pool = sorted(set(range(6)) - xs - ys - g.infinite)
                best = None
                for size in range(len(pool) + 1):
                    hits = [
                        frozenset(c)
                        for c in combinations(pool, size)
                        if _is_sep(g, xs, ys, frozenset(c))
                    ]
                    if hits:
                        best = hits
                        break
                found = min_vertex_separator(g, xs, ys)
                if best is None:
                    assert found is None
                    continue
                lam, s_star = found
                assert lam == len(best[0])
                assert s_star in best
                # s_star has the unique inclusion-maximal reach
                reach = reachable_from(g, xs, s_star)
                others = [
                    s for s in best if s != s_star
                ]
                for s in others:
                    assert reachable_from(g, xs, s) < reach


def test_min_separator_value_matches_networkx():
    nx = pytest.importorskip("networkx")
    outcomes = set()
    for seed in range(60):
        n = 20 + seed * 40 // 59  # 20..60
        g = random_digraph(seed, n, 2.5 / n, 0.2)
        xs = frozenset(range(1 + seed % 2))
        ys = frozenset({n - 1, n - 2 - seed % 3})
        cuttable = g.deletable() - xs - ys
        # networkx rejects paths of unbounded capacity, so n + 1 stands in
        # for infinity: it exceeds every finite separator
        big = n + 1
        net = nx.DiGraph()
        for v in range(n):
            net.add_edge(("in", v), ("out", v), capacity=1 if v in cuttable else big)
        for u, v in g.edges:
            net.add_edge(("out", u), ("in", v), capacity=big)
        for v in xs:
            net.add_edge("source", ("in", v), capacity=big)
        for v in ys:
            net.add_edge(("out", v), "sink", capacity=big)
        value = nx.maximum_flow_value(net, "source", "sink")
        found = min_vertex_separator(g, xs, ys)
        if value >= big:
            assert found is None, seed
        else:
            assert found is not None and found[0] == value, seed
        outcomes.add(found is None)
    assert outcomes == {True, False}


def test_submodularity_of_weighted_out_neighborhood():
    rng = SplitMix64(17)
    for trial in range(400):
        g = random_digraph(trial, 7, 0.35, 0.2)
        a = frozenset(v for v in range(7) if rng.coin())
        b = frozenset(v for v in range(7) if rng.coin())
        w = 8  # larger than n, stands in for infinity
        lhs = neighborhood_weight(g, a, w) + neighborhood_weight(g, b, w)
        rhs = neighborhood_weight(g, a | b, w) + neighborhood_weight(g, a & b, w)
        assert lhs >= rhs


def test_separator_closure_under_neighborhood_of_reach():
    # the out-neighborhoods of unions/intersections of reach sets separate too
    for seed in range(25):
        g = random_digraph(seed, 6, 0.3)
        for x in range(6):
            for y in range(6):
                if x == y:
                    continue
                xs, ys = frozenset({x}), frozenset({y})
                pool = sorted(set(range(6)) - xs - ys)
                seps = [
                    s for s in subsets_upto(pool, 2) if _is_sep(g, xs, ys, s)
                ]
                for s1 in seps[:6]:
                    for s2 in seps[:6]:
                        r1 = reachable_from(g, xs, s1)
                        r2 = reachable_from(g, xs, s2)
                        for region in (r1 | r2, r1 & r2):
                            cand = out_neighborhood(g, region)
                            assert _is_sep(g, xs, ys, cand)
