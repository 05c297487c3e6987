"""Torso of a digraph on a vertex subset, and the instance reduction that
removes a candidate set by taking the symmetric torso on its complement.
Both work on the input graph's own vertex ids, so a cut of the reduced
instance is already a vertex set of the input and needs no mapping back."""

from __future__ import annotations

from typing import Iterable

from .graph import Digraph, Instance, _check_ids


def torso(g: Digraph, c: Iterable[int]) -> set[tuple[int, int]]:
    """Arcs (a, b) of the torso of g on `c`, in g's ids: a != b, both in c,
    and g has an a->b path whose internal vertices avoid c.  Edge
    multiplicity collapses to one arc and self-loops are dropped (separation
    never needs either).
    """
    kept = _check_ids(g, c)
    succ = g.succ
    arcs: set[tuple[int, int]] = set()
    for a in kept:
        # one search from a that only passes through vertices outside c
        seen = {a}
        stack = [a]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    if w in kept:
                        arcs.add((a, w))
                    else:
                        stack.append(w)
    return arcs


def reduce_instance(inst: Instance, z: Iterable[int]) -> Instance:
    """Remove `z` by taking the torso on its complement, with every torso arc
    in both orientations.  The graph keeps g's vertex count and infinite set,
    and the vertices of z stay in it without arcs; terminals and budget carry
    over."""
    g = inst.graph
    zs = _check_ids(g, z)
    if zs & inst.terminals:
        raise ValueError("removed set must not meet the terminals")
    arcs = torso(g, frozenset(g.vertices()) - zs)
    arcs |= {(b, a) for a, b in arcs}
    return Instance(
        Digraph(g.vertex_count, arcs, g.infinite), inst.terminals, inst.budget
    )
