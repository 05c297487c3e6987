from conftest import random_digraph, symmetric
from dmwc.graph import Digraph, Instance, reachable_from
from dmwc.oracle import brute_force_mwc
from dmwc.undirected import solve_undirected


def _symmetric_instance(seed, n, density, k, p):
    g = symmetric(random_digraph(seed, n, density))
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
    g = symmetric(
        Digraph(4, [(center, 0), (center, 1), (center, 2)], {0, 1, 2})
    )
    inst = Instance(g, frozenset({0, 1, 2}), 1)
    assert solve_undirected(inst) == frozenset({center})


def test_budget_zero_cases():
    path = symmetric(Digraph(3, [(0, 2), (2, 1)], {0, 1}))
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
        g = symmetric(random_digraph(seed, 7, 0.3))
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

