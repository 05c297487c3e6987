import pytest

from conftest import random_digraph, symmetric
from dmwc.graph import Digraph, Instance, reachable_from
from dmwc.oracle import brute_force_mwc
from dmwc.rng import SplitMix64
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


# Seeds where the returned cut, the canonically least cut the branching
# reaches, is not brute force's lexicographically least minimum cut, which
# the branching never reaches: (returned, brute force).
_UNREACHED = {
    False: {264: ({5, 9}, {2, 8}), 297: ({2, 7}, {2, 4}), 528: ({5, 6, 8}, {3, 5, 8})},
    True: {
        129: ({3, 8, 9}, {3, 7, 9}), 198: ({3, 4, 6}, {2, 4, 5}),
        264: ({5, 9}, {2, 8}), 297: ({2, 7}, {2, 4}),
        448: ({4, 7, 8}, {3, 4, 8}), 489: ({4, 5, 6}, {3, 4, 6}),
        517: ({5, 6}, {3, 5}), 528: ({5, 6, 8}, {3, 5, 8}),
        589: ({3, 5, 6, 8}, {3, 5, 6, 7}), 597: ({6}, {5}),
    },
}


@pytest.mark.parametrize("apart", [False, True], ids=["joined", "apart"])
def test_four_terminals_and_undeletable_non_terminals_match_brute_force(apart):
    # k = 2..4 terminals, and each non-terminal undeletable with odds 1/6;
    # an edge that joins two terminals makes a NO with no branching, so with
    # such edges kept (joined) no k = 4 seed is a YES, and with them dropped
    # (apart) 12 k = 4 YES seeds have an undeletable non-terminal
    differ = {}
    four_with_extra = 0
    for s in range(600):
        n, k = 6 + s % 5, 2 + s % 3
        g = symmetric(random_digraph(10_000 + s, n, 0.25 + 0.05 * (s % 4)))
        rng = SplitMix64(s)
        terms = frozenset(range(k))
        extra = {v for v in range(k, n) if rng.below(6) == 0}
        edges = [(u, v) for u, v in g.edges if not (apart and {u, v} <= terms)]
        inst = Instance(Digraph(n, edges, terms | extra), terms, s % 5)
        got, want = solve_undirected(inst), brute_force_mwc(inst)
        assert (got is None) == (want is None), s
        if got is None:
            continue
        assert _feasible(inst, got), s
        assert len(got) == len(want), s
        if got != want:
            differ[s] = (set(got), set(want))
        four_with_extra += k == 4 and bool(extra)
    assert differ == _UNREACHED[apart]
    assert four_with_extra == (12 if apart else 0)


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

