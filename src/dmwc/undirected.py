"""Undirected multiway cut with undeletable vertices, solved by branching on
important terminal separators over the symmetric digraph."""

from __future__ import annotations

from typing import Iterator

from .graph import Instance, connected_terminal
from .separators import canonical_order, enumerate_important


def solve_undirected(inst: Instance) -> frozenset[int] | None:
    """A vertex multiway cut of size <= budget avoiding distinguished
    vertices, or None if no such cut exists.

    Branches on the important t-(T minus t) separators of a still-connected
    terminal t; some optimum cut always contains one of them, so exploring
    every branch is complete.  Only the cuts the branching reaches compete:
    the result is the canonically least of them (smallest, then
    lexicographically smallest), which makes the output deterministic but
    need not be the lexicographically least minimum cut of the graph.
    """
    g, terminals, budget = inst.graph, inst.terminals, inst.budget

    def cuts(acc: frozenset[int]) -> Iterator[frozenset[int]]:
        # the state is the cut so far: g minus acc, with budget - |acc| left
        t = connected_terminal(g, terminals, acc)
        if t is None:
            yield acc
        elif len(acc) < budget:
            for sep in enumerate_important(g, {t}, terminals - {t}, budget - len(acc), acc):
                yield from cuts(acc | sep)

    return min(cuts(frozenset()), key=canonical_order, default=None)
