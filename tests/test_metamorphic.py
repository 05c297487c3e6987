"""Metamorphic checks above brute-force size: feasibility must not depend on
vertex names or on which way every edge points, and it must be monotone in
the budget.  Answers must not depend on the order of the edge list.  Every
returned cut must pass the checker."""

from functools import lru_cache

from dmwc.graph import Digraph, Instance, min_vertex_separator, reverse
from dmwc.oracle import generate_instance
from dmwc.pipeline import solve_vertex, verify_solution
from dmwc.rng import SplitMix64
from dmwc.torso import torso


@lru_cache(maxsize=1)
def _corpus():
    """12 seeded instances, n = 20..24 at p = 2, each with its answer."""
    out = []
    for i in range(12):
        n = 20 + i % 5
        inst = generate_instance(100 + i, n, 2.5 / n, 2 + i % 2, 2, 0.1 * (i % 2))
        out.append((inst, _solve(inst)))
    return tuple(out)


def _solve(inst):
    sol = solve_vertex(inst)
    if sol is None:
        return None
    assert verify_solution(inst, sol.vertices)
    return sol.vertices


def _relabel(inst, seed):
    g = inst.graph
    pi = SplitMix64(seed).sample(g.vertex_count, g.vertex_count)
    h = Digraph(
        g.vertex_count, [(pi[u], pi[v]) for u, v in g.edges], {pi[v] for v in g.infinite}
    )
    return Instance(h, frozenset(pi[t] for t in inst.terminals), inst.budget)


def _shuffle(inst, seed):
    g = inst.graph
    order = SplitMix64(seed).sample(len(g.edges), len(g.edges))
    h = Digraph(g.vertex_count, [g.edges[i] for i in order], g.infinite)
    return Instance(h, inst.terminals, inst.budget)


def _adjacency(g):
    return list(g.succ)


def test_answers_survive_edge_permutation():
    # adjacency tuples follow the edge order, so a shuffle reorders them
    reordered = 0
    for i, (inst, cut) in enumerate(_corpus()):
        g, terms = inst.graph, inst.terminals
        shuffled = _shuffle(inst, 700 + i)
        h = shuffled.graph
        reordered += _adjacency(h) != _adjacency(g)
        assert _solve(shuffled) == cut, i
        for t in sorted(terms):
            assert min_vertex_separator(
                h, {t}, terms - {t}, len(h.deletable)
            ) == min_vertex_separator(g, {t}, terms - {t}, len(g.deletable)), i
        kept = terms | {v for v in g.vertices() if v % 3}
        assert torso(h, kept) == torso(g, kept), i
    assert reordered == len(_corpus())


def test_corpus_has_both_answers():
    assert {cut is None for _, cut in _corpus()} == {True, False}


def test_feasibility_survives_relabelling():
    for i, (inst, cut) in enumerate(_corpus()):
        assert (_solve(_relabel(inst, 500 + i)) is None) == (cut is None), i


def test_feasibility_survives_reversal():
    for i, (inst, cut) in enumerate(_corpus()):
        rev = Instance(reverse(inst.graph), inst.terminals, inst.budget)
        assert (_solve(rev) is None) == (cut is None), i


def test_feasibility_is_monotone_in_the_budget():
    for i, (inst, cut) in enumerate(_corpus()):
        # YES at p stays YES at p + 1; NO at p stays NO at p - 1
        p = inst.budget + 1 if cut is not None else inst.budget - 1
        again = _solve(Instance(inst.graph, inst.terminals, p))
        assert (again is None) == (cut is None), i
