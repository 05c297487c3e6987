"""End-to-end solver for directed multiway cut, plus the edge/vertex and
two-pair multicut reductions.

The solver walks the deterministic candidate sets of `sampling.candidates`:
an outer family for the original graph, and for each outer choice an inner
family for the reversed graph where the chosen vertices have been made
undeletable.  Each distinct combined choice z is removed by the torso
reduction: one symmetric graph on the input's own vertex ids, with z left
isolated.  The undirected sub-solver's cut of it needs no mapping back; the
first answer (in family order) wins.  The first choice is read off the graph
and tried before any family is built.

Before any family is built, a greedy packing of terminal paths answers NO
when it holds q > budget paths, each from a terminal t to T - t, no two of
which share a deletable vertex: a multiway cut holds a deletable vertex of
every such path, so it has at least q vertices.  The packing is an integral
solution of the dual of the path LP of Garg, Vazirani and Yannakakis (ICALP
1994).  In one terminal order, each terminal adds the paths of a max-flow
t -> T - t in G minus the deletable vertices that the earlier flows carried.
The first flow of every order is lambda_t, the size of a minimum t-(T - t)
separator, and a t-(T - t) path through undeletable vertices alone, which no
cut can hit, is a NO at once.  Later flows run in subgraphs, so their values
are at most lambda_t; when the lambda_t sum to at most the budget, no order
can pass it and the packing stops there.  Otherwise it tries the 2k
rotations of the sorted terminals and of their reverse, which are all k!
orders for k <= 3 and keep the number of flows polynomial for larger k.

Every answer is re-checked on the input instance before it is returned.  A
failed check can only be a solver bug, so it raises RuntimeError rather than
being reported as no solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Digraph, Instance, _max_flow, connected_terminal, reachable_from
from .sampling import candidates
from .torso import reduce_instance
from .undirected import solve_undirected


@dataclass(frozen=True)
class Solution:
    """A feasible cut, re-checked on the input instance: vertex ids in the
    original graph, or edge indices for the edge variant."""

    vertices: frozenset[int] | None = None
    edges: tuple[int, ...] | None = None


def verify_solution(inst: Instance, s: Iterable[int]) -> bool:
    """s is a multiway cut: deletable vertices only, within budget, and no
    terminal reaches another."""
    g, cut = inst.graph, frozenset(s)
    if not cut <= g.deletable or len(cut) > inst.budget:
        return False
    return connected_terminal(g, inst.terminals, cut) is None


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
    """s holds deletable vertices of g only, is within budget, and each pair
    (a, b) has a or b in s or no a-b path avoiding s."""
    cut = frozenset(s)
    if not cut <= g.deletable or len(cut) > budget:
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


def _packing_exceeds(inst: Instance) -> bool:
    """A greedy packing holds more than budget terminal paths, no two of
    which share a deletable vertex, so no cut exists (the module docstring
    gives the packing and the orders it tries)."""
    g, ts, p = inst.graph, inst.terminals, inst.budget
    first = {}
    for t in sorted(ts):
        found = _max_flow(g, frozenset({t}), ts - {t}, p, frozenset())
        if found is None:
            return True
        first[t] = found
    if sum(len(sep) for sep, _ in first.values()) <= p:
        return False
    ring = sorted(ts)
    orders = dict.fromkeys(
        tuple(r[i:] + r[:i]) for r in (ring, ring[::-1]) for i in range(len(r))
    )
    for order in orders:
        total, gone = 0, frozenset()
        for i, t in enumerate(order):
            found = _max_flow(g, frozenset({t}), ts - {t}, p - total, gone) if i else first[t]
            if found is None:
                return True
            sep, through = found
            total += len(sep)
            gone |= {v for v in g.deletable if through[v]}
    return False


def solve_vertex(inst: Instance, *, mode: str = "deterministic") -> Solution | None:
    """Feasible vertex multiway cut of size <= budget, or None.

    Walks every candidate of `sampling.candidates`, so None means no cut
    exists.  It first answers None when a greedy packing holds more than
    budget terminal paths, no two of which share a deletable vertex: q such
    paths are a certificate that every cut has at least q vertices (the
    module docstring gives the packing).
    `mode` stays for callers that name it; any value but "deterministic" raises.
    """
    if mode != "deterministic":
        raise ValueError(f"unknown mode {mode!r}")
    if _packing_exceeds(inst):
        return None
    for z in candidates(inst):
        sol = _attempt(inst, z)
        if sol is not None:
            return sol
    return None


def solve_edge(inst: Instance, *, mode: str = "deterministic") -> Solution | None:
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
    if not verify_multicut(g, pairs, p, sol.vertices):
        raise RuntimeError(f"multicut {sorted(sol.vertices)} failed verification")
    return sol
