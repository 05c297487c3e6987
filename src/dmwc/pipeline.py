"""End-to-end solver for directed multiway cut, plus the edge/vertex and
two-pair multicut reductions.

The solver branches over deterministic candidate removal sets: an outer
family for the original graph, and for each outer choice an inner family for
the reversed graph where the chosen vertices have been made undeletable.
Each combined choice z is removed by the torso reduction: one symmetric graph
on the input's own vertex ids, with z left isolated.  The undirected
sub-solver's cut of it needs no mapping back; the first answer (in family
order) wins.  Distinct combined choices are attempted once and memoized,
since the reduced instance depends only on their union.

The inner instances of one solve differ only in their undeletable set, so
the inner build for the first outer choice z1_0 is kept as the base
(`separators.InnerBase`) and every later inner build re-enumerates only the
witnesses whose max-flow recursion met a vertex of z1 - z1_0; the
`separators` module docstring proves that the others keep their important
separators.  The base is valid because every later z1 contains z1_0: the
outer family's first set W is empty, and each z1 is the union of the shadows
of the collection members inside its W, so it contains the shadow of the
empty member whenever there is one.  A z1 that does not contain z1_0 would
be a solver bug and raises RuntimeError.

Every answer is re-checked on the input instance before it is returned.  A
failed check can only be a solver bug, so it raises RuntimeError rather than
being reported as no solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable

from .graph import Digraph, Instance, connected_terminal, reachable_from
from .sampling import deterministic_sets
from .separators import InnerBase
from .torso import reduce_instance
from .undirected import solve_undirected


@dataclass(frozen=True)
class Solution:
    """A feasible cut, re-checked on the input instance: vertex ids in the
    original graph, or edge indices for the edge variant."""

    vertices: frozenset[int] | None = None
    edges: tuple[int, ...] | None = None


def verify_solution(inst: Instance, s: Iterable[int]) -> bool:
    """s is a multicut of every ordered terminal pair: disjoint from the
    distinguished vertices, within budget, and no terminal reaches another."""
    return verify_multicut(inst.graph, permutations(inst.terminals, 2), inst.budget, s)


def verify_edge_cut(inst: Instance, edges: Iterable[int]) -> bool:
    """`edges` are indices into graph.edges, within budget, and deleting them
    disconnects every ordered terminal pair."""
    g = inst.graph
    cut = frozenset(edges)
    if len(cut) > inst.budget or not cut <= frozenset(range(len(g.edges))):
        return False
    rest = Digraph(
        g.vertex_count, [e for i, e in enumerate(g.edges) if i not in cut], g.infinite
    )
    return verify_solution(Instance(rest, inst.terminals, inst.budget), ())


def verify_multicut(
    g: Digraph, pairs: Iterable[tuple[int, int]], budget: int, s: Iterable[int]
) -> bool:
    """s is disjoint from the distinguished vertices, within budget, and each
    pair (a, b) has a or b in s or no a-b path avoiding s."""
    cut = frozenset(s)
    if cut & g.infinite or len(cut) > budget:
        return False
    if not cut <= frozenset(g.vertices()):
        return False
    return all(
        a in cut or b in cut or b not in reachable_from(g, {a}, cut)
        for a, b in pairs
    )


def _attempt(inst: Instance, z: frozenset[int]) -> Solution | None:
    cut = solve_undirected(reduce_instance(inst, z))
    if cut is None:
        return None
    if not verify_solution(inst, cut):
        raise RuntimeError(f"cut {sorted(cut)} failed verification")
    return Solution(vertices=cut)


def _second_stage(inst: Instance, z1: frozenset[int]) -> Instance:
    g2 = Digraph(
        inst.graph.vertex_count,
        [(v, u) for u, v in inst.graph.edges],
        inst.graph.infinite | z1,
    )
    return Instance(g2, inst.terminals, inst.budget)


def solve_vertex(
    inst: Instance,
    *,
    mode: str = "deterministic",
) -> Solution | None:
    """Feasible vertex multiway cut of size <= budget, or None.

    Branches over both candidate families, so None means no cut exists.  It
    first answers None when a terminal reaches another through undeletable
    vertices alone, since no cut can meet that path.  `mode` is kept only for
    callers that name the mode; "deterministic" is its one value, any other
    raises ValueError, and a later benchmark change may drop it.
    """
    if mode != "deterministic":
        raise ValueError(f"unknown mode {mode!r}")
    if connected_terminal(inst.graph, inst.terminals, inst.graph.deletable()) is not None:
        return None
    tried: set[frozenset[int]] = set()
    base = InnerBase()  # filled by the first inner build, read by the others
    for z1 in deterministic_sets(inst):
        # the inner family depends on z1 through the enlarged undeletable set
        for z2 in deterministic_sets(_second_stage(inst, z1), base):
            z = z1 | z2
            if z not in tried:
                tried.add(z)
                sol = _attempt(inst, z)
                if sol is not None:
                    return sol
    return None


def solve_edge(
    inst: Instance, *, mode: str = "deterministic"
) -> Solution | None:
    """Edge multiway cut of size <= budget, as indices into graph.edges.

    Reduces to the vertex problem by subdivision: edge e = (u, v) becomes the
    path u -> n+e -> v through a fresh deletable vertex, and every original
    vertex is undeletable, so a vertex cut consists of subdivision vertices
    only and maps back to edges.
    """
    g = inst.graph
    n = g.vertex_count
    edges = [a for e, (u, v) in enumerate(g.edges) for a in ((u, n + e), (n + e, v))]
    gv = Digraph(n + len(g.edges), edges, range(n))
    sol = solve_vertex(Instance(gv, inst.terminals, inst.budget), mode=mode)
    if sol is None:
        return None
    cut = tuple(sorted(v - n for v in sol.vertices))
    if not verify_edge_cut(inst, cut):
        raise RuntimeError(f"edge cut {list(cut)} failed verification")
    return Solution(edges=cut)


def solve_multicut_k2(
    g: Digraph,
    pairs: list[tuple[int, int]],
    p: int,
    *,
    mode: str = "deterministic",
) -> Solution | None:
    """Two-pair directed multicut via a four-edge gadget: fresh terminals s, t
    with s->s1, t1->t, t->s2, t2->s, so an s_i->t_i path survives exactly when
    an s->t or t->s path survives.  Pair endpoints stay deletable unless the
    caller marked them distinguished."""
    if len(pairs) != 2:
        raise ValueError("exactly two request pairs required")
    (s1, t1), (s2, t2) = pairs
    n = g.vertex_count
    s, t = n, n + 1
    edges = list(g.edges) + [(s, s1), (t1, t), (t, s2), (t2, s)]
    g2 = Digraph(n + 2, edges, g.infinite | {s, t})
    sol = solve_vertex(Instance(g2, frozenset({s, t}), p), mode=mode)
    if sol is None:
        return None
    cut = frozenset(v for v in sol.vertices if v < n)
    if not verify_multicut(g, pairs, p, cut):
        raise RuntimeError(f"multicut {sorted(cut)} failed verification")
    return Solution(vertices=cut)
