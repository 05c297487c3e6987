"""Undirected multiway cut with undeletable vertices, solved by branching on
important terminal separators over the symmetric digraph."""

from __future__ import annotations

from .graph import Instance, connected_terminal
from .separators import enumerate_important


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
        t = connected_terminal(g, terminals, acc)
        if t is None:
            if better(acc):
                best[0] = acc
            return
        if len(acc) == budget:
            return
        for sep in enumerate_important(g, {t}, terminals - {t}, budget - len(acc), acc):
            rec(acc | sep)

    rec(frozenset())
    return best[0]
