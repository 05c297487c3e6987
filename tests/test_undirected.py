from conftest import random_digraph
from dmwc.graph import Digraph, Instance, reachable_from
from dmwc.oracle import brute_force_mwc
from dmwc.undirected import solve_undirected, underlying_undirected


def test_underlying_undirected_basics():
    g = Digraph(2, [(0, 1)])
    und = underlying_undirected(g)
    assert set(und.edges) == {(0, 1), (1, 0)}
    assert underlying_undirected(und) == und  # idempotent
    for seed in range(10):
        h = random_digraph(seed, 6, 0.35, 0.2)
        sym = underlying_undirected(h)
        assert sym.infinite == h.infinite
        assert all((v, u) in sym.edges for u, v in sym.edges)


def _symmetric_instance(seed, n, density, k, p):
    g = underlying_undirected(random_digraph(seed, n, density))
    terms = frozenset(range(k))
    return Instance(Digraph(n, g.edges, terms), terms, p)


def _feasible(inst, s):
    if s is None or len(s) > inst.budget or s & inst.graph.infinite:
        return False
    return all(
        not reachable_from(inst.graph, {t}, s) & (inst.terminals - {t})
        for t in inst.terminals
    )


def test_star_center_is_the_cut():
    center = 3
    g = underlying_undirected(
        Digraph(4, [(center, 0), (center, 1), (center, 2)], {0, 1, 2})
    )
    inst = Instance(g, frozenset({0, 1, 2}), 1)
    assert solve_undirected(inst) == frozenset({center})


def test_budget_zero_cases():
    path = underlying_undirected(Digraph(3, [(0, 2), (2, 1)], {0, 1}))
    inst = Instance(path, frozenset({0, 1}), 0)
    assert solve_undirected(inst) is None
    apart = Digraph(2, [], {0, 1})
    assert solve_undirected(Instance(apart, frozenset({0, 1}), 0)) == frozenset()


def test_matches_exhaustive_search():
    for seed in range(80):
        inst = _symmetric_instance(seed, 4 + seed % 6, 0.2 + 0.05 * (seed % 4), 2 + seed % 2, seed % 4)
        got = solve_undirected(inst)
        assert got == brute_force_mwc(inst), seed
        assert got is None or _feasible(inst, got), seed


def test_respects_distinguished_vertices():
    for seed in range(40):
        g = underlying_undirected(random_digraph(seed, 7, 0.3))
        g = Digraph(7, g.edges, {0, 1, 2})  # one protected non-terminal: 2
        inst = Instance(g, frozenset({0, 1}), 3)
        got = solve_undirected(inst)
        if got is not None:
            assert not got & g.infinite


def test_budget_monotone():
    for seed in range(30):
        inst = _symmetric_instance(seed, 7, 0.3, 2, 1)
        if solve_undirected(inst) is not None:
            bigger = Instance(inst.graph, inst.terminals, 2)
            assert solve_undirected(bigger) is not None

