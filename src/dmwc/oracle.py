"""Brute-force oracles and the seeded instance generator.

The oracles work definitionally by subset enumeration and exist to
cross-check the real solver and the important-separator enumeration at small
scale.  They refuse graphs above a size cap.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .graph import Digraph, Instance, connected_terminal, reachable_from
from .rng import SplitMix64
from .separators import canonical_order
from .shadows import is_minimal_separator

DEFAULT_CAP = 20


def brute_force_mwc(inst: Instance) -> frozenset[int] | None:
    """Minimum feasible cut if its size is within budget, else None.

    Ties break lexicographically (combinations are emitted in sorted order).
    """
    g = inst.graph
    if g.vertex_count > DEFAULT_CAP:
        raise ValueError(f"brute force capped at {DEFAULT_CAP} vertices")
    pool = sorted(g.deletable)
    for size in range(min(inst.budget, len(pool)) + 1):
        for combo in combinations(pool, size):
            s = frozenset(combo)
            if connected_terminal(g, inst.terminals, s) is None:
                return s
    return None


def brute_force_important(
    g: Digraph,
    x: Iterable[int],
    y: Iterable[int],
    p: int,
) -> list[frozenset[int]]:
    """All important x-y separators of size <= p, straight from the
    definition: minimal separators not dominated by any same-or-smaller
    separator with strictly larger reach."""
    if g.vertex_count > DEFAULT_CAP:
        raise ValueError(f"brute force capped at {DEFAULT_CAP} vertices")
    xs, ys = frozenset(x), frozenset(y)
    pool = sorted(g.deletable - xs - ys)
    seps: list[tuple[frozenset[int], frozenset[int]]] = []
    for size in range(min(p, len(pool)) + 1):
        for combo in combinations(pool, size):
            s = frozenset(combo)
            reach = reachable_from(g, xs, s)
            if not reach & ys:
                seps.append((s, reach))
    out = []
    for s, reach in seps:
        if not is_minimal_separator(g, xs, ys, s):
            continue
        dominated = any(
            len(s2) <= len(s) and reach < reach2 for s2, reach2 in seps
        )
        if not dominated:
            out.append(s)
    return sorted(out, key=canonical_order)


def generate_instance(
    seed: int,
    n: int,
    edge_density: float,
    k: int,
    p: int,
    infinite_fraction: float = 0.0,
) -> Instance:
    """Seed-deterministic random instance; terminals are always distinguished,
    self-loops are never generated."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge_density must be in [0, 1]")
    if not 0.0 <= infinite_fraction <= 1.0:
        raise ValueError("infinite_fraction must be in [0, 1]")
    if p < 0:
        raise ValueError("budget must be non-negative")
    rng = SplitMix64(seed)
    terminals = frozenset(rng.sample(n, k))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.unit() < edge_density
    ]
    infinite = set(terminals)
    for v in range(n):
        if v not in terminals and rng.unit() < infinite_fraction:
            infinite.add(v)
    return Instance(Digraph(n, edges, infinite), terminals, p)
