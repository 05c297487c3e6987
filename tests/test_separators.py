from itertools import permutations

import pytest

from conftest import minus, random_digraph, with_loops_and_repeats
from dmwc import separators
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, Instance, min_vertex_separator, reachable_from
from dmwc.oracle import brute_force_important, generate_instance
from dmwc.rng import SplitMix64
from dmwc.undirected import solve_undirected, underlying_undirected
from dmwc.separators import (
    build_collection,
    enumerate_important,
    is_important,
    is_minimal_separator,
)

PATH = Digraph(4, [(0, 1), (1, 2), (2, 3)], {0, 3})  # x=0, a=1, b=2, y=3


def test_minimality():
    assert not is_minimal_separator(PATH, {0}, {3}, {1, 2})
    assert is_minimal_separator(PATH, {0}, {3}, {1})
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    assert is_minimal_separator(g, {fx.c(1, 2)}, terms, {fx.a(1), fx.a(2)})
    # a2 lies on no b1-to-terminal path, so the pair is not minimal for b1
    assert not is_minimal_separator(g, {fx.b(1)}, terms, {fx.a(1), fx.a(2)})
    assert not is_minimal_separator(g, {fx.b(1)}, terms, {fx.t(1)})  # not a separator


def test_importance():
    assert not is_important(PATH, {0}, {3}, {1})
    assert is_important(PATH, {0}, {3}, {2})
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    assert is_important(g, {fx.c(1, 2)}, terms, {fx.a(1), fx.a(2)})
    disconnected = Digraph(3, [(0, 1)])
    assert is_important(disconnected, {1}, {2}, set())
    assert not is_important(PATH, {0}, {3}, {0})  # overlaps the source


def test_enumerate_examples():
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    got = enumerate_important(g, {fx.c(1, 2)}, terms, 2)
    assert [s.members for s in got] == [frozenset({fx.a(1), fx.a(2)})]
    got = enumerate_important(g, {fx.b(1)}, terms, 2)
    assert [s.members for s in got] == [frozenset({fx.a(1)})]
    path = Digraph(3, [(0, 1), (1, 2)], {0, 2})
    got = enumerate_important(path, {0}, {2}, 1)
    assert [s.members for s in got] == [frozenset({1})]


def test_enumerate_edge_cases():
    g = Digraph(3, [(0, 1)])
    assert [s.members for s in enumerate_important(g, {1}, {2}, 3)] == [frozenset()]
    tight = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], {0, 3})
    assert enumerate_important(tight, {0}, {3}, 1) == []  # minimum cut is 2
    direct = Digraph(2, [(0, 1)], {0, 1})
    assert enumerate_important(direct, {0}, {1}, 5) == []
    with pytest.raises(ValueError):
        enumerate_important(g, {0}, {0}, 1)
    with pytest.raises(ValueError):
        enumerate_important(g, {1}, {2}, -1)


def test_enumerate_matches_brute_force():
    for seed in range(40):
        g = random_digraph(seed, 7, 0.3, 0.15)
        for x in range(7):
            for y in range(7):
                if x == y:
                    continue
                for p in (1, 3):
                    fast = {s.members for s in enumerate_important(g, {x}, {y}, p)}
                    slow = {s.members for s in brute_force_important(g, {x}, {y}, p)}
                    assert fast == slow, (seed, x, y, p)


def test_one_flow_per_recursion_node(monkeypatch):
    # the filter and the root need no max-flow beyond the recursion's own
    flows, nodes = [], []
    real_flow, real_impsep = separators.min_vertex_separator, separators._impsep

    def flow(*args):
        flows.append(args)
        return real_flow(*args)

    def impsep(*args):
        nodes.append(args)
        return real_impsep(*args)

    monkeypatch.setattr(separators, "min_vertex_separator", flow)
    monkeypatch.setattr(separators, "_impsep", impsep)
    fx = hub_fan(3, 2)
    g, terms = fx.instance.graph, fx.instance.terminals
    cases = [(g, {v}, terms, 2) for v in sorted(set(g.vertices()) - terms)]
    for seed in range(10):
        h = random_digraph(seed, 8, 0.3, 0.15)
        cases += [(h, {x}, {(x + 1) % 8}, 1 + x % 3) for x in range(8)]
    for case in cases:
        enumerate_important(*case)
    assert len(nodes) > len(cases)
    assert len(flows) == len(nodes)


def test_removed_set_matches_graph_minus_it():
    # every call with removed=R equals the same call on G - R built by hand
    rng, cases = SplitMix64(5), []
    for seed in range(30):
        g = with_loops_and_repeats(random_digraph(seed, 7, 0.3, 0.25))
        for x, y in permutations(range(7), 2):
            removed = frozenset(
                v for v in range(7) if v not in (x, y) and rng.unit() < 0.25
            )
            h = minus(g, removed)
            assert min_vertex_separator(g, {x}, {y}, removed) == min_vertex_separator(
                h, {x}, {y}
            )
            for p in (1, 2):
                cases.append((g, h, x, y, p, removed))
    # larger cases where the dominance filter goes wrong if it measures reach
    # through removed vertices
    for seed, x, y, removed in ((26, 1, 2, {5, 9}), (50, 0, 5, {2})):
        g = with_loops_and_repeats(random_digraph(seed, 10, 0.35, 0.2))
        cases.append((g, minus(g, removed), x, y, 3, frozenset(removed)))
    for g, h, x, y, p, removed in cases:
        fast = enumerate_important(g, {x}, {y}, p, removed)
        assert fast == enumerate_important(h, {x}, {y}, p)
        slow = brute_force_important(h, {x}, {y}, p)
        assert {s.members for s in fast} == {s.members for s in slow}


def test_removed_set_validates():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)], {0, 3})
    for bad in ({0}, {3}, {0, 1}, {4}, {-1}):
        with pytest.raises(ValueError):
            min_vertex_separator(g, {0}, {3}, bad)
        with pytest.raises(ValueError):
            enumerate_important(g, {0}, {3}, 2, bad)


def test_removed_sets_build_no_graphs(monkeypatch):
    # enumeration and the undirected solver work on g minus a removed set and
    # never construct a Digraph of their own
    insts = [generate_instance(seed, 12, 0.15, 3, 3, 0.1) for seed in range(6)]
    cases = [Instance(underlying_undirected(i.graph), i.terminals, i.budget) for i in insts]
    built = []
    real_init = Digraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Digraph, "__init__", counting_init)
    cuts = []
    for inst in cases:
        g, terms = inst.graph, inst.terminals
        for v in sorted(set(g.vertices()) - terms):
            enumerate_important(g, {v}, terms, inst.budget)
        cuts.append(solve_undirected(inst))
    assert built == []
    assert any(cuts)  # some solve recursed below a non-empty cut so far


def test_count_bound():
    for seed in range(40):
        g = random_digraph(seed, 8, 0.3)
        for x in range(8):
            for y in range(8):
                if x == y:
                    continue
                found = min_vertex_separator(g, {x}, {y})
                if found is None:
                    continue
                lam = found[0]
                for p in range(4):
                    count = len(enumerate_important(g, {x}, {y}, p))
                    if p >= lam:
                        assert count <= min(4**p, 2 ** (2 * p - lam))
                    else:
                        assert count == 0


def test_deleted_pivot_property():
    # removing any member leaves an important separator in the smaller graph
    for seed in range(25):
        g = random_digraph(seed, 7, 0.3)
        for x in range(7):
            for y in range(7):
                if x == y:
                    continue
                for sep in enumerate_important(g, {x}, {y}, 2):
                    for v in sep.members:
                        h = minus(g, {v})
                        assert is_important(h, {x}, {y}, sep.members - {v})


def test_reach_containment():
    for seed in range(25):
        g = random_digraph(seed, 7, 0.3)
        for x in range(7):
            for y in range(7):
                if x == y:
                    continue
                found = min_vertex_separator(g, {x}, {y})
                if found is None:
                    continue
                base = reachable_from(g, {x}, found[1])
                for sep in enumerate_important(g, {x}, {y}, 2):
                    assert base <= reachable_from(g, {x}, sep.members)


def test_superset_source_stability():
    from dmwc.separators import is_separator

    for seed in range(25):
        g = random_digraph(seed, 6, 0.3)
        for x in range(6):
            for y in range(6):
                if x == y:
                    continue
                for sep in enumerate_important(g, {x}, {y}, 2):
                    grown = reachable_from(g, {x}, sep.members) - sep.members
                    if y in grown or not is_separator(g, grown, {y}, sep.members):
                        continue
                    assert is_important(g, grown, {y}, sep.members)


def test_build_collection_hub_fan():
    fx = hub_fan(3, 2)
    sets = build_collection(fx.instance).member_sets()
    a1, a2, a3 = fx.a(1), fx.a(2), fx.a(3)
    assert sets == [
        frozenset({a1}),
        frozenset({a2}),
        frozenset({a3}),
        frozenset({a1, a2}),
        frozenset({a1, a3}),
        frozenset({a2, a3}),
    ]


def test_build_collection_witnesses_retained():
    fx = hub_fan(3, 2)
    coll = build_collection(fx.instance)
    by_members = {e.members: e.witnesses for e in coll.entries}
    # b1 is the only vertex whose sole escape route is a1
    assert by_members[frozenset({fx.a(1)})] == (fx.b(1),)
    # {a1,a2} is witnessed by the shared hub c12
    assert fx.c(1, 2) in by_members[frozenset({fx.a(1), fx.a(2)})]


def test_build_collection_edge_cases():
    g = Digraph(2, [(0, 1)], {0, 1})
    inst = Instance(g, frozenset({0, 1}), 2)
    assert len(build_collection(inst)) == 0  # every vertex is a terminal
    for seed in range(10):
        base = random_digraph(seed, 7, 0.3)
        g2 = Digraph(7, base.edges, {0, 1})
        inst = Instance(g2, frozenset({0, 1}), 2)
        assert len(build_collection(inst)) <= 4**2 * 7
