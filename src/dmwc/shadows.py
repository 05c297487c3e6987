"""Reference predicates, written straight from their definitions:
out-neighbourhoods, separators, minimality, importance, shadows and
thinness.  Nothing on the solve path calls them; they back the CLI's
`shadow` command and the tests that check the solver's shortcuts.

The reverse shadow of S holds the vertices that S cuts off from reaching T;
the forward shadow holds the vertices T can no longer reach.  A vertex is in
the exact variant only when S is additionally a minimal separator for it,
i.e. every member of S is doing work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Digraph, _check_ids, min_vertex_separator, reachable_from, reverse


def out_neighborhood(g: Digraph, a: Iterable[int]) -> frozenset[int]:
    """N+(a): vertices outside `a` with an in-edge from `a`."""
    aset = _check_ids(g, a)
    out: set[int] = set()
    for u in aset:
        out.update(g.succ[u])
    return frozenset(out - aset)


def neighborhood_weight(g: Digraph, a: Iterable[int], infinite_weight: int) -> int:
    """Weighted |N+(a)| with undeletable vertices counted at `infinite_weight`."""
    total = 0
    for v in out_neighborhood(g, a):
        total += infinite_weight if v in g.infinite else 1
    return total


def is_separator(
    g: Digraph, x: Iterable[int], y: Iterable[int], s: Iterable[int]
) -> bool:
    xs, ys, ss = frozenset(x), frozenset(y), frozenset(s)
    if ss & (xs | ys | g.infinite):
        return False
    return not reachable_from(g, xs, ss) & ys


def is_minimal_separator(
    g: Digraph, x: Iterable[int], y: Iterable[int], s: Iterable[int]
) -> bool:
    """True iff s separates and dropping any single vertex restores a path."""
    xs, ys, ss = frozenset(x), frozenset(y), frozenset(s)
    if not is_separator(g, xs, ys, ss):
        return False
    for v in ss:
        if not reachable_from(g, xs, ss - {v}) & ys:
            return False
    return True


def is_important(
    g: Digraph, x: Iterable[int], y: Iterable[int], s: Iterable[int]
) -> bool:
    """True iff s is the unique minimum separator between its own
    reach from x and y.  For a minimal separator this is equivalent to no
    same-or-smaller separator having strictly larger reach."""
    xs, ys, ss = frozenset(x), frozenset(y), frozenset(s)
    if not is_separator(g, xs, ys, ss):
        return False
    return min_vertex_separator(g, reachable_from(g, xs, ss), ys, len(ss)) == ss


@dataclass(frozen=True)
class ShadowReport:
    forward: frozenset[int]
    reverse: frozenset[int]
    exact_forward: frozenset[int]
    exact_reverse: frozenset[int]


def shadow(g: Digraph, t: Iterable[int], s: Iterable[int]) -> ShadowReport:
    ts, ss = frozenset(t), frozenset(s)
    if ss & ts:
        raise ValueError("shadow set must be disjoint from the terminals")
    if ss & g.infinite:
        raise ValueError("shadow set must be disjoint from distinguished vertices")
    grev = reverse(g)
    can_reach_t = reachable_from(grev, ts, ss)
    reached_by_t = reachable_from(g, ts, ss)
    everything = frozenset(g.vertices())
    rev = everything - can_reach_t - ss
    fwd = everything - reached_by_t - ss
    exact_rev = frozenset(v for v in rev if is_minimal_separator(g, {v}, ts, ss))
    exact_fwd = frozenset(v for v in fwd if is_minimal_separator(grev, {v}, ts, ss))
    return ShadowReport(fwd, rev, exact_fwd, exact_rev)


def is_thin(g: Digraph, t: Iterable[int], s: Iterable[int]) -> bool:
    """True iff no member of s is cut off from t by the remaining members."""
    ts, ss = frozenset(t), frozenset(s)
    for v in ss:
        if not reachable_from(g, {v}, ss - {v}) & ts:
            return False
    return True


def is_shadowless(g: Digraph, t: Iterable[int], s: Iterable[int]) -> bool:
    report = shadow(g, t, s)
    return not report.forward and not report.reverse
