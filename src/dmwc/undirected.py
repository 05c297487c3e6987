"""Undirected multiway cut with undeletable vertices, solved by branching on
important terminal separators over the symmetric digraph."""

from __future__ import annotations

from .graph import Digraph, Instance, reachable_from
from .separators import enumerate_important


def underlying_undirected(g: Digraph) -> Digraph:
    """Symmetric closure: every edge is replaced by the pair of orientations.
    Idempotent; multiplicities collapse to one per direction."""
    arcs: set[tuple[int, int]] = set()
    for u, v in g.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return Digraph(g.vertex_count, sorted(arcs), g.infinite)


def _connected_terminal(
    g: Digraph, terminals: frozenset[int], removed: frozenset[int]
) -> int | None:
    """Smallest terminal still reaching another one in g minus `removed`, or None."""
    for t in sorted(terminals):
        if reachable_from(g, {t}, removed) & (terminals - {t}):
            return t
    return None


def solve_undirected(inst: Instance) -> frozenset[int] | None:
    """A vertex multiway cut of size <= budget avoiding distinguished
    vertices, or None if no such cut exists.

    Branches on the important t-(T minus t) separators of a still-connected
    terminal t; some optimum cut always contains one of them, so exploring
    every branch is complete.  Returns the lexicographically smallest cut of
    minimum size among those found, which makes the output deterministic.
    """
    g, terminals, budget = inst.graph, inst.terminals, inst.budget
    best: list[frozenset[int] | None] = [None]

    def better(s: frozenset[int]) -> bool:
        cur = best[0]
        return cur is None or (len(s), sorted(s)) < (len(cur), sorted(cur))

    def rec(acc: frozenset[int]) -> None:
        # the state is the cut so far: g minus acc, with budget - |acc| left
        if best[0] is not None and len(acc) > len(best[0]):
            return
        t = _connected_terminal(g, terminals, acc)
        if t is None:
            if better(acc):
                best[0] = acc
            return
        if len(acc) == budget:
            return
        for sep in enumerate_important(g, {t}, terminals - {t}, budget - len(acc), acc):
            rec(acc | sep.members)

    rec(frozenset())
    return best[0]
