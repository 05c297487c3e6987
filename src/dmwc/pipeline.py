"""End-to-end solver for directed multiway cut, plus the edge/vertex and
two-pair multicut reductions.

The deterministic solver branches over candidate removal sets: an outer
family for the original graph, and for each outer choice an inner family for
the reversed graph where the chosen vertices have been made undeletable.
Each combined choice is removed via the torso reduction and handed to the
undirected sub-solver; the first answer (in family order) wins.  Distinct
combined choices are attempted once and memoized, since the reduced instance
depends only on their union.

Every answer is re-checked on the input instance before it is returned.  A
failed check can only be a solver bug, so it raises RuntimeError rather than
being reported as no solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Digraph, Instance, reachable_from, reverse
from .rng import SplitMix64
from .sampling import deterministic_sets, random_set
from .torso import reduce_instance
from .undirected import solve_undirected, underlying_undirected


@dataclass(frozen=True)
class Solution:
    """A feasible cut, re-checked on the input instance: vertex ids in the
    original graph, or edge indices for the edge variant."""

    vertices: frozenset[int] | None = None
    edges: tuple[int, ...] | None = None


def verify_solution(inst: Instance, s: Iterable[int]) -> bool:
    """s is disjoint from the distinguished vertices, within budget, and no
    ordered terminal pair stays connected."""
    ss = frozenset(s)
    g = inst.graph
    if ss & g.infinite or len(ss) > inst.budget:
        return False
    if not ss <= frozenset(g.vertices()):
        return False
    for t in inst.terminals:
        if reachable_from(g, {t}, ss) & (inst.terminals - {t}):
            return False
    return True


def _attempt(inst: Instance, z: frozenset[int]) -> Solution | None:
    red = reduce_instance(inst, z)
    und = Instance(
        underlying_undirected(red.instance.graph),
        red.instance.terminals,
        inst.budget,
    )
    s = solve_undirected(und)
    if s is None:
        return None
    lifted = red.lift(s)
    if not verify_solution(inst, lifted):
        raise RuntimeError(f"lifted cut {sorted(lifted)} failed verification")
    return Solution(vertices=lifted)


def _second_stage(inst: Instance, z1: frozenset[int]) -> Instance:
    g2 = Digraph(
        inst.graph.vertex_count,
        [(v, u) for u, v in inst.graph.edges],
        inst.graph.infinite | z1,
    )
    return Instance(g2, inst.terminals, inst.budget)


def solve_vertex(
    inst: Instance,
    mode: str = "deterministic",
    seed: int = 0,
) -> Solution | None:
    """Feasible vertex multiway cut of size <= budget, or None.

    Deterministic mode branches over both candidate families and is complete.
    Randomized mode performs a single seeded pass (one draw per stage) and
    may report None on a yes-instance; it exists for experimentation.
    """
    if mode == "randomized":
        stream = SplitMix64(seed)
        z1 = random_set(inst, stream.next_u64())
        z2 = random_set(_second_stage(inst, z1), stream.next_u64())
        return _attempt(inst, z1 | z2)
    if mode != "deterministic":
        raise ValueError(f"unknown mode {mode!r}")

    tried: dict[frozenset[int], Solution | None] = {}
    for z1 in deterministic_sets(inst):
        # the inner family depends on z1 through the enlarged undeletable set
        for z2 in deterministic_sets(_second_stage(inst, z1)):
            z = z1 | z2
            if z not in tried:
                tried[z] = _attempt(inst, z)
            if tried[z] is not None:
                return tried[z]
    return None


@dataclass(frozen=True)
class TerminalFreeInstance:
    """Instance where the old terminals became deletable; each new terminal
    t' is tied to its old terminal by a 2-cycle.  A cut using old terminal t
    in the original problem corresponds to a cut using t here."""

    instance: Instance
    new_terminal_of: dict[int, int]  # old terminal -> fresh terminal id


def allow_terminal_deletion(inst: Instance) -> TerminalFreeInstance:
    g = inst.graph
    old_terms = sorted(inst.terminals)
    n = g.vertex_count
    fresh = {t: n + i for i, t in enumerate(old_terms)}
    edges = list(g.edges)
    for t in old_terms:
        edges.append((t, fresh[t]))
        edges.append((fresh[t], t))
    infinite = (g.infinite - inst.terminals) | set(fresh.values())
    g2 = Digraph(n + len(old_terms), edges, infinite)
    new_terms = frozenset(fresh.values())
    return TerminalFreeInstance(Instance(g2, new_terms, inst.budget), fresh)


def solve_edge(
    inst: Instance, mode: str = "deterministic", seed: int = 0
) -> Solution | None:
    """Edge multiway cut of size <= budget, as indices into graph.edges.

    Reduces to the vertex problem: every non-terminal gets budget+1
    interchangeable copies, every edge becomes a hub vertex wired from the
    tail's copies to the head's copies, and only terminals are undeletable.
    A vertex cut then only ever profits from hub vertices, which map back to
    edges.
    """
    g, terms, p = inst.graph, inst.terminals, inst.budget
    next_id = 0

    def alloc() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    copies = {
        u: [alloc() for _ in range(1 if u in terms else p + 1)] for u in g.vertices()
    }
    hub = [alloc() for _ in g.edges]
    edges: list[tuple[int, int]] = []
    for e, (u, v) in enumerate(g.edges):
        for x in copies[u]:
            edges.append((x, hub[e]))
        for y in copies[v]:
            edges.append((hub[e], y))
    new_terms = frozenset(copies[t][0] for t in terms)
    gv = Digraph(next_id, edges, new_terms)
    sol = solve_vertex(Instance(gv, new_terms, p), mode=mode, seed=seed)
    if sol is None:
        return None
    hub_index = {h: e for e, h in enumerate(hub)}
    cut = tuple(sorted(hub_index[v] for v in sol.vertices if v in hub_index))
    # dropping any stray copy vertices keeps the cut valid: a surviving path
    # could always route around them through an untouched copy
    remaining = [e for i, e in enumerate(g.edges) if i not in set(cut)]
    residue = Digraph(g.vertex_count, remaining, g.infinite)
    ok = all(
        not reachable_from(residue, {t}) & (terms - {t}) for t in terms
    ) and len(cut) <= p
    if not ok:
        raise RuntimeError(f"edge cut {list(cut)} failed verification")
    return Solution(edges=cut)


def solve_multicut_k2(
    g: Digraph,
    pairs: list[tuple[int, int]],
    p: int,
    mode: str = "deterministic",
    seed: int = 0,
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
    sol = solve_vertex(Instance(g2, frozenset({s, t}), p), mode=mode, seed=seed)
    if sol is None:
        return None
    cut = frozenset(v for v in sol.vertices if v < n)
    ok = len(cut) <= p and all(
        b not in reachable_from(g, {a}, cut - {a}) or a in cut or b in cut
        for a, b in pairs
    )
    if not ok:
        raise RuntimeError(f"multicut {sorted(cut)} failed verification")
    return Solution(vertices=cut)
