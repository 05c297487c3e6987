import ast
from itertools import combinations, permutations
from pathlib import Path

import pytest

from conftest import random_digraph, subsets_upto, with_loops_and_repeats
from dmwc.fixtures import hub_fan
from dmwc import graph
from dmwc.graph import Digraph, Instance, min_vertex_separator, reachable_from, reverse
from dmwc.rng import SplitMix64
from dmwc.shadows import neighborhood_weight, out_neighborhood


def test_construction_validates():
    with pytest.raises(ValueError):
        Digraph(-1)
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(2, [], [5])
    # ids are stored as given, so 0.5 is not truncated to vertex 0
    for edge in [(0.5, 1), (1, 1.0), ("0", 1)]:
        with pytest.raises(TypeError):
            Digraph(2, [edge])
    for infinite in [[0.5, 1], [1.0], ["0"]]:
        with pytest.raises(TypeError):
            Digraph(3, [(0, 2), (2, 1)], infinite)


def test_instance_validates():
    g = Digraph(3, [(0, 1)], {0})
    with pytest.raises(ValueError):
        Instance(g, frozenset(), 1)
    with pytest.raises(ValueError):
        Instance(g, frozenset({1}), 1)  # terminal not distinguished
    for t in (3, -1):  # out of range: no such vertex can be distinguished
        with pytest.raises(ValueError, match="in-range distinguished"):
            Instance(g, frozenset({0, t}), 1)
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
    terms = frozenset({0, 2})
    assert graph.connected_terminal(g, terms, ()) == 0
    assert graph.connected_terminal(g, terms, {1}) is None
    # out-of-range ids, and a terminal inside removed even after a terminal
    # that reaches another, raise
    for terminals, removed in (({0, 9}, ()), (terms, {9}), ({0, 2, 3}, {3})):
        with pytest.raises(ValueError):
            graph.connected_terminal(g, frozenset(terminals), removed)


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


def test_out_neighborhood():
    fx = hub_fan(3, 2)
    g = fx.instance.graph
    assert out_neighborhood(g, {fx.c(1, 2)}) == {fx.a(1), fx.a(2)}
    assert out_neighborhood(g, ()) == frozenset()
    assert out_neighborhood(g, {fx.a(1), fx.b(1)}) == {fx.t(1), fx.t(2)}


def test_reverse():
    g = Digraph(2, [(0, 1)])
    assert reverse(g).edges == ((1, 0),)
    assert repr(reverse(Digraph(3, [(0, 1)], {2, 0}))) == "Digraph(n=3, m=1, infinite=[0, 2])"
    for seed in range(20):
        h = random_digraph(seed, 6, 0.4, 0.2)
        assert reverse(reverse(h)) == h
        assert hash(reverse(reverse(h))) == hash(h)
    fx = hub_fan(3, 2)
    rev = reverse(fx.instance.graph)
    assert (fx.t(1), fx.a(2)) in rev.edges
    assert (fx.a(1), fx.b(1)) in rev.edges
    assert (fx.a(1), fx.c(1, 2)) in rev.edges


def test_min_separator_path_prefers_max_reach():
    # x=0 -> a=1 -> b=2 -> y=3; both {a} and {b} are minimum, {b} sees more
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)], {0, 3})
    s_star = min_vertex_separator(g, {0}, {3}, 1)
    assert (len(s_star), s_star) == (1, frozenset({2}))


def test_min_separator_hub_fan():
    fx = hub_fan(3, 2)
    g = fx.instance.graph
    s_star = min_vertex_separator(g, {fx.c(1, 2)}, {fx.t(1), fx.t(2)}, 2)
    assert (len(s_star), s_star) == (2, frozenset({fx.a(1), fx.a(2)}))


def test_min_separator_disconnected_and_infeasible():
    g = Digraph(4, [(0, 1)], {0, 2})
    assert min_vertex_separator(g, {2}, {3}, 0) == frozenset()
    direct = Digraph(2, [(0, 1)], {0, 1})
    assert min_vertex_separator(direct, {0}, {1}, 2) is None


def test_min_separator_validates():
    g = Digraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        min_vertex_separator(g, set(), {1}, 1)
    with pytest.raises(ValueError):
        min_vertex_separator(g, {0}, {0}, 1)


def test_min_separator_flow_is_bounded(monkeypatch):
    # with the up-front no-finite-cut check blinded, the x -> u -> y path
    # through undeletable u carries unbounded flow; the budget must end the
    # loop with None, neither spinning nor raising
    monkeypatch.setattr(graph, "_reach", lambda *args: frozenset())
    g = Digraph(3, [(0, 1), (1, 2)], {1})
    assert min_vertex_separator(g, {0}, {2}, len(g.deletable)) is None


def test_min_separator_cancels_flow():
    # the shortest path x -> a -> d -> y is found first; the unit from c must
    # then cancel a -> d and send a's unit on through a2 or f1.  A cancelled
    # arc left loaded would let e's unit run d -> a -> (the other branch)
    x, a, a2, b, c, c2, d, e1, e2, f1, f2, f3, y = range(13)
    g = Digraph(13, [
        (x, a), (a, d), (d, y), (a, a2), (a2, b), (b, y), (x, c), (c, c2), (c2, d),
        (x, e1), (e1, e2), (e2, d), (a, f1), (f1, f2), (f2, f3), (f3, y),
    ], {x, y})
    assert min_vertex_separator(g, {x}, {y}, len(g.deletable)) == frozenset({a, d})
    assert min_vertex_separator(g, {x}, {y}, 1) is None


def test_no_assert_in_sources():
    # `python -O` strips assert statements, so no check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(graph.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_sep(g, x, y, s):
    if s & (x | y | g.infinite):
        return False
    return not reachable_from(g, x, s) & y


def _check_min_separator(g, xs, ys, gone=frozenset()):
    """Compare min_vertex_separator at every budget p from -1 to lambda + 1
    with an exhaustive search over the separators of g minus `gone`; return
    lambda, or None when only undeletable vertices could separate."""
    pool = sorted(g.deletable - xs - ys - gone)
    for size in range(len(pool) + 1):
        best = [
            frozenset(c)
            for c in combinations(pool, size)
            if not reachable_from(g, xs, gone | frozenset(c)) & ys
        ]
        if best:
            break
    if not best:
        for p in range(-1, len(pool) + 2):
            assert min_vertex_separator(g, xs, ys, p, gone) is None
        return None
    lam = len(best[0])
    s_star = min_vertex_separator(g, xs, ys, lam, gone)
    assert s_star in best
    # s_star has the unique inclusion-maximal reach
    reach = reachable_from(g, xs, s_star | gone)
    for s in best:
        if s != s_star:
            assert reachable_from(g, xs, s | gone) < reach
    for p in range(-1, lam + 2):
        assert min_vertex_separator(g, xs, ys, p, gone) == (s_star if lam <= p else None)
    return lam


def test_min_separator_matches_brute_force():
    for seed in range(60):
        plain = random_digraph(seed, 6, 0.3, 0.15)
        for g in (plain, with_loops_and_repeats(plain)):
            for x, y in permutations(range(6), 2):
                _check_min_separator(g, frozenset({x}), frozenset({y}))


def _sets_and_hubs(seeds, sizes):
    """For each seed: a source set xs, terminal set ys and removed set, with
    the seeded digraph on n = sizes[seed % len(sizes)] vertices and its hub
    version, each also with loops and repeats, as (g, xs, ys, gone, via_hub).
    In the hub graph every x-y path leaves x through the undeletable hub."""
    for seed in seeds:
        n = sizes[seed % len(sizes)]
        rng = SplitMix64(seed + 500)
        order = rng.sample(n, n)
        kx, ky = 1 + rng.below(3), 1 + rng.below(2)
        xs, ys = frozenset(order[:kx]), frozenset(order[kx:kx + ky])
        hub, rest = order[kx + ky], order[kx + ky + 1:]
        gone = frozenset(v for v in rest if rng.below(4) == 0)
        drawn = random_digraph(seed, n, 0.3, 0.15)
        # no x -> y edge, which no separator could cut
        plain = Digraph(
            n, [(u, v) for u, v in drawn.edges if u not in xs or v not in ys], drawn.infinite
        )
        kept = [(u, v) for u, v in plain.edges if u not in xs and u != hub]
        hubbed = Digraph(
            n,
            kept + [(u, hub) for u in xs] + [(hub, v) for v in rest]
            + [(v, min(ys)) for v in rest],
            plain.infinite | {hub},
        )
        for g, via_hub in ((plain, False), (with_loops_and_repeats(plain), False),
                           (hubbed, True), (with_loops_and_repeats(hubbed), True)):
            yield g, xs, ys, gone, via_hub


def test_min_separator_matches_brute_force_on_sets_and_hubs():
    # the inputs _impsep passes: a pushed source side and a terminal set of
    # several vertices, and a removed set.  The hub carries all lambda units
    hub_units = 0
    for g, xs, ys, gone, via_hub in _sets_and_hubs(range(120), (7, 8)):
        lam = _check_min_separator(g, xs, ys, gone)
        hub_units += via_hub and lam is not None and lam >= 2
    assert hub_units >= 50  # 102 of the 240 hub cases


def test_min_separator_minus_a_cut_vertex():
    # the fact behind _impsep's unrolled cut branches: deleting any v of the
    # max-reach minimum separator S* leaves S* - {v} as the max-reach minimum
    # separator, at every budget that admits it
    checked = 0
    for g, xs, ys, gone, _ in _sets_and_hubs(range(200, 320), (7, 8, 9)):
        s_star = min_vertex_separator(g, xs, ys, g.vertex_count, gone)
        if not s_star:
            continue
        lam = len(s_star)
        for v in s_star:
            for p in (lam, lam + 1):
                assert min_vertex_separator(g, xs, ys, p - 1, gone | {v}) == s_star - {v}
        checked += lam >= 2
    assert checked >= 150  # 166 of the 480 cases


def test_min_separator_value_matches_networkx():
    # networkx's flow is the reference for lambda, and its residual network
    # for the max-reach separator: the nodes that can still reach the sink
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.flow import edmonds_karp

    outcomes = set()
    for seed in range(90):
        # sparse graphs at n = 20..60, then dense ones, where augmenting
        # paths have to cancel flow
        n, degree = (20 + seed * 40 // 59, 2.5) if seed < 60 else (12 + seed % 5, 5.0)
        g = random_digraph(seed, n, degree / n, 0.2)
        xs = frozenset(range(1 + seed % 2))
        ys = frozenset({n - 1, n - 2 - seed % 3})
        rng = SplitMix64(seed + 900)
        gone = frozenset(v for v in range(n) if v not in xs | ys and rng.below(8) == 0)
        cuttable = g.deletable - xs - ys - gone
        # networkx rejects paths of unbounded capacity, so n + 1 stands in
        # for infinity: it exceeds every finite separator
        big = n + 1
        net = nx.DiGraph()
        for v in set(range(n)) - gone:
            net.add_edge(("in", v), ("out", v), capacity=1 if v in cuttable else big)
        for u, v in g.edges:
            if u not in gone and v not in gone:
                net.add_edge(("out", u), ("in", v), capacity=big)
        for v in xs:
            net.add_edge("source", ("in", v), capacity=big)
        for v in ys:
            net.add_edge(("out", v), "sink", capacity=big)
        res = edmonds_karp(net, "source", "sink")
        value = res.graph["flow_value"]
        found = min_vertex_separator(g, xs, ys, len(g.deletable), gone)
        if value >= big:
            assert found is None, seed
        else:
            residual = nx.DiGraph(
                (a, b) for a, b, d in res.edges(data=True) if d["capacity"] > d["flow"]
            )
            residual.add_node("sink")
            can_reach = nx.ancestors(residual, "sink")
            expect = frozenset(
                v for v in cuttable if ("in", v) not in can_reach and ("out", v) in can_reach
            )
            assert found == expect and len(found) == value, seed
            # the budget stops the flow one unit short, or lets it end at lambda
            assert min_vertex_separator(g, xs, ys, value - 1, gone) is None, seed
            assert min_vertex_separator(g, xs, ys, value, gone) == found, seed
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
