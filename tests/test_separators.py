from itertools import permutations

import pytest

from conftest import family_of, minus, random_digraph, symmetric, with_loops_and_repeats
from dmwc import separators
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, Instance, min_vertex_separator, reachable_from
from dmwc.oracle import brute_force_important, generate_instance
from dmwc.rng import SplitMix64
from dmwc.sampling import _second_stage
from dmwc.undirected import solve_undirected
from dmwc.separators import build_collection, enumerate_important
from dmwc.shadows import is_important, is_minimal_separator, is_separator

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
    assert got == [frozenset({fx.a(1), fx.a(2)})]
    got = enumerate_important(g, {fx.b(1)}, terms, 2)
    assert got == [frozenset({fx.a(1)})]
    path = Digraph(3, [(0, 1), (1, 2)], {0, 2})
    got = enumerate_important(path, {0}, {2}, 1)
    assert got == [frozenset({1})]


def test_enumerate_edge_cases():
    g = Digraph(3, [(0, 1)])
    assert enumerate_important(g, {1}, {2}, 3) == [frozenset()]
    tight = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], {0, 3})
    assert enumerate_important(tight, {0}, {3}, 1) == []  # minimum cut is 2
    direct = Digraph(2, [(0, 1)], {0, 1})
    assert enumerate_important(direct, {0}, {1}, 5) == []
    with pytest.raises(ValueError):
        enumerate_important(g, {0}, {0}, 1)
    with pytest.raises(ValueError):
        enumerate_important(g, {1}, {2}, -1)


def test_enumerate_matches_brute_force(monkeypatch):
    for seed in range(40):
        g = random_digraph(seed, 7, 0.3, 0.15)
        for x in range(7):
            for y in range(7):
                if x == y:
                    continue
                for p in (1, 3):
                    fast = set(enumerate_important(g, {x}, {y}, p))
                    slow = set(brute_force_important(g, {x}, {y}, p))
                    assert fast == slow, (seed, x, y, p)
    # source pairs, removed sets and budgets up to 4, so that a recursion node
    # cuts three or more pivots of its separator in turn before a push
    cut_sizes, real_flow = [], separators.min_vertex_separator

    def flow(*args):
        s_star = real_flow(*args)
        cut_sizes.append(len(s_star or ()))
        return s_star

    monkeypatch.setattr(separators, "min_vertex_separator", flow)
    rng = SplitMix64(28)
    for seed in range(80):
        n = 8 + seed % 2
        order = rng.sample(n, n)
        xs, ys = frozenset(order[:2]), frozenset(order[2:3 + seed % 2])
        removed = frozenset(v for v in order[4:] if rng.below(5) == 0)
        drawn = random_digraph(seed + 700, n, 0.5, 0.1)
        # no x -> y edge, which no separator could cut
        g = Digraph(
            n, [(u, v) for u, v in drawn.edges if u not in xs or v not in ys], drawn.infinite
        )
        if seed % 2:
            g = with_loops_and_repeats(g)
        h = minus(g, removed)
        for p in range(1, 5):
            fast = enumerate_important(g, xs, ys, p, removed)
            assert set(fast) == set(brute_force_important(h, xs, ys, p)), (seed, p)
            # the reach the recursion returns with each candidate is its own
            nodes = len(cut_sizes)
            for s, reach in separators._impsep(g, xs, ys, p, removed, 2 * p + 1).items():
                assert reach == reachable_from(g, xs, s | removed), (seed, p, s)
            del cut_sizes[nodes:]  # so each node counts once below
    assert sum(size >= 3 for size in cut_sizes) >= 40  # 48 nodes


def test_recursion_stops_at_its_depth_bound(monkeypatch):
    # a flow that returns the same separator at every node never runs out of
    # budget, so only the depth guard ends the pushes
    monkeypatch.setattr(separators, "min_vertex_separator", lambda *args: frozenset({1}))
    with pytest.raises(RuntimeError, match="exceeded depth bound"):
        enumerate_important(PATH, {0}, {3}, 1)


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
    for g, x, y, p in cases:
        start = len(flows)
        enumerate_important(g, x, y, p)
        # a cut branch keeps its parent's sources and so runs no flow: only
        # the root flows on the caller's sources, every push on a superset
        sources = [frozenset(args[1]) for args in flows[start:]]
        assert sources[0] == frozenset(x)
        assert all(s > sources[0] for s in sources[1:])
    assert len(nodes) > len(cases)
    assert len(flows) == len(nodes)
    # each node hands its own budget to its flow
    assert all(flow[3] == node[3] for flow, node in zip(flows, nodes))


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
            cap = len(g.deletable)
            assert min_vertex_separator(g, {x}, {y}, cap, removed) == min_vertex_separator(
                h, {x}, {y}, cap
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
        assert set(fast) == set(slow)


def test_removed_set_validates():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)], {0, 3})
    for bad in ({0}, {3}, {0, 1}, {4}, {-1}):
        with pytest.raises(ValueError):
            min_vertex_separator(g, {0}, {3}, 2, bad)
        with pytest.raises(ValueError):
            enumerate_important(g, {0}, {3}, 2, bad)


def test_removed_sets_build_no_graphs(monkeypatch):
    # enumeration and the undirected solver work on g minus a removed set and
    # never construct a Digraph of their own
    insts = [generate_instance(seed, 12, 0.15, 3, 3, 0.1) for seed in range(6)]
    cases = [Instance(symmetric(i.graph), i.terminals, i.budget) for i in insts]
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
                found = min_vertex_separator(g, {x}, {y}, len(g.deletable))
                if found is None:
                    continue
                lam = len(found)
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
                    for v in sep:
                        h = minus(g, {v})
                        assert is_important(h, {x}, {y}, sep - {v})


def test_reach_containment():
    for seed in range(25):
        g = random_digraph(seed, 7, 0.3)
        for x in range(7):
            for y in range(7):
                if x == y:
                    continue
                found = min_vertex_separator(g, {x}, {y}, len(g.deletable))
                if found is None:
                    continue
                base = reachable_from(g, {x}, found)
                for sep in enumerate_important(g, {x}, {y}, 2):
                    assert base <= reachable_from(g, {x}, sep)


def test_superset_source_stability():
    for seed in range(25):
        g = random_digraph(seed, 6, 0.3)
        for x in range(6):
            for y in range(6):
                if x == y:
                    continue
                for sep in enumerate_important(g, {x}, {y}, 2):
                    grown = reachable_from(g, {x}, sep) - sep
                    if y in grown or not is_separator(g, grown, {y}, sep):
                        continue
                    assert is_important(g, grown, {y}, sep)


def test_build_collection_hub_fan():
    fx = hub_fan(3, 2)
    sets = list(build_collection(fx.instance))
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
    by_members = build_collection(fx.instance)
    # b1 is the only vertex whose sole escape route is a1
    assert by_members[frozenset({fx.a(1)})] == frozenset({fx.b(1)})
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


def test_reused_inner_collection_equals_a_fresh_build(monkeypatch):
    # the vertex instances that solve_edge and solve_multicut_k2 build
    from dmwc import pipeline

    gadgets = []
    monkeypatch.setattr(pipeline, "solve_vertex", lambda inst, **kw: gadgets.append(inst))
    for s in range(6):
        pipeline.solve_edge(generate_instance(s, 5 + s % 3, 0.3, 2, 1 + s % 2))
        g = random_digraph(4100 + s, 7 + s % 3, 0.25)
        pipeline.solve_multicut_k2(g, [(0, 1), (2, 3)], 1 + s % 2)
    monkeypatch.undo()
    # at seeds 51 and 55 a rule that also re-enumerates the witnesses whose
    # max-flow recursion met an added vertex does more than the one below
    shapes = [(s, 20 + 3 * s % 11, 2 + s % 2, 0.1 * (s % 3 == 0)) for s in range(60)]
    vertex = [generate_instance(s, n, 2.5 / n, 2, p, inf) for s, n, p, inf in shapes]
    sources = []
    real = separators.enumerate_important
    monkeypatch.setattr(
        separators, "enumerate_important",
        lambda g, x, *rest: sources.append(min(x)) or real(g, x, *rest),
    )
    reused = changed = 0
    for inst in vertex + gadgets:
        base = None
        for z1 in family_of(inst):
            inner = _second_stage(inst, z1)
            sources.clear()
            got = build_collection(inner, base)
            if base is None:
                base = (inner, got)
            else:
                # exactly the witnesses of base separators that meet the added
                # undeletables are enumerated again, each once
                old, collection = base
                added = inner.graph.infinite - old.graph.infinite
                redo = set().union(*[ws for s, ws in collection.items() if s & added])
                assert sorted(sources) == sorted(redo)
                reused += len(set(inner.graph.vertices()) - inst.terminals - redo)
                changed += sum(
                    [s for s, ws in got.items() if v in ws]
                    != [s for s, ws in collection.items() if v in ws]
                    for v in redo
                )
            assert list(got.items()) == list(build_collection(inner).items())
    # some witnesses came from the base, and some that were enumerated again
    # really changed, so the base separators decide which is which
    assert reused and changed


def test_reuse_rejects_an_inner_build_that_does_not_extend_the_base():
    inst = generate_instance(1, 14, 2.5 / 14, 2, 2)
    z1_0, z1 = family_of(inst)[:2]  # z1_0 is a proper subset of z1
    inner = _second_stage(inst, z1)
    base = (inner, build_collection(inner))
    with pytest.raises(RuntimeError, match="more undeletables"):
        build_collection(_second_stage(inst, z1_0), base)
    other_budget = Instance(_second_stage(inst, z1).graph, inst.terminals, 3)
    with pytest.raises(RuntimeError, match="more undeletables"):
        build_collection(other_budget, base)


def test_a_reused_build_leaves_its_base_unchanged():
    changed = 0
    for s in range(20):
        inst = generate_instance(s, 20 + 3 * s % 11, 2.5 / 20, 2, 2 + s % 2)
        z1_0, *later = family_of(inst)
        first = _second_stage(inst, z1_0)
        collection = build_collection(first)
        kept = list(collection.items())
        for z1 in later:
            got = build_collection(_second_stage(inst, z1), (first, collection))
            changed += got != collection
            assert list(collection.items()) == kept
            assert first == _second_stage(inst, z1_0)
    # some later builds differ from the base, so they did not return it as is
    assert changed
