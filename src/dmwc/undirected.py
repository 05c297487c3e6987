"""Undirected multiway cut with undeletable vertices, solved by branching on
important terminal separators over the symmetric digraph."""

from __future__ import annotations

from .graph import Instance, connected_terminal
from .separators import canonical_order, enumerate_important


def solve_undirected(inst: Instance) -> frozenset[int] | None:
    """A vertex multiway cut of size <= budget avoiding distinguished
    vertices, or None if no such cut exists.

    Branches on the important t-(T minus t) separators of a still-connected
    terminal t; some optimum cut always contains one of them, so exploring
    every branch is complete.  Returns the lexicographically smallest cut of
    minimum size among those found, which makes the output deterministic.
    """
    g, terminals, budget = inst.graph, inst.terminals, inst.budget
    best: frozenset[int] | None = None

    def rec(acc: frozenset[int]) -> None:
        # the state is the cut so far: g minus acc, with budget - |acc| left
        nonlocal best
        if best is not None and len(acc) > len(best):
            return
        t = connected_terminal(g, terminals, acc)
        if t is None:
            if best is None or canonical_order(acc) < canonical_order(best):
                best = acc
            return
        if len(acc) == budget:
            return
        for sep in enumerate_important(g, {t}, terminals - {t}, budget - len(acc), acc):
            rec(acc | sep)

    rec(frozenset())
    return best
