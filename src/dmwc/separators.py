"""Enumeration of important separators and the per-witness collection.

The enumeration follows the branch-on-a-min-cut-vertex recursion: compute the
max-reach minimum separator, pick its smallest vertex v, and recurse once with
v added to the removed set (budget minus one; g itself is never copied) and
once with the source side pushed past v.
The recursion over-approximates, so a candidate is dropped when another
candidate of no larger size reaches every vertex it reaches from x.  This is
exact: the recursion returns every important separator of size at most p,
and every separator is dominated by an important one of no larger size, so
each non-minimal or non-important candidate loses to some candidate, while
an important one never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Digraph, Instance, min_vertex_separator, reachable_from


@dataclass(frozen=True)
class Separator:
    """A vertex separator together with the source/target pair it certifies."""

    members: frozenset[int]
    source: frozenset[int]
    target: frozenset[int]


@dataclass(frozen=True)
class ImportantEntry:
    members: frozenset[int]
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class ImportantCollection:
    """Important witness-T separators, deduplicated on members."""

    entries: tuple[ImportantEntry, ...]

    def member_sets(self) -> list[frozenset[int]]:
        return [e.members for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def canonical_order(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


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
    reach = reachable_from(g, xs, ss)
    found = min_vertex_separator(g, reach, ys)
    if found is None:
        return False
    lam, s_star = found
    return lam == len(ss) and s_star == ss


def enumerate_important(
    g: Digraph, x: Iterable[int], y: Iterable[int], p: int, removed: Iterable[int] = ()
) -> list[Separator]:
    """All important x-y separators of size at most p in g minus `removed`,
    canonically ordered.

    Returns [empty separator] when x cannot reach y and [] when even the
    minimum separator exceeds p (or only infinite vertices could separate).
    """
    xs, ys, gone = frozenset(x), frozenset(y), frozenset(removed)
    if xs & ys:
        raise ValueError("x and y must be disjoint")
    if p < 0:
        raise ValueError("budget must be non-negative")
    candidates = _impsep(g, xs, ys, p, gone, 2 * p + 1)
    reach = {s: reachable_from(g, xs, s | gone) for s in candidates}
    return [
        Separator(s, xs, ys)
        for s in sorted(candidates, key=canonical_order)
        if not any(
            t != s and len(t) <= len(s) and reach[t] >= reach[s] for t in candidates
        )
    ]


def _impsep(
    g: Digraph, x: frozenset[int], y: frozenset[int], p: int, gone: frozenset[int],
    guard: int,
) -> set[frozenset[int]]:
    if guard < 0:
        raise RuntimeError("important-separator recursion exceeded depth bound")
    found = min_vertex_separator(g, x, y, gone)
    if found is None:
        return set()
    lam, s_star = found
    if lam > p:
        return set()
    if lam == 0:
        return {frozenset()}
    v = min(s_star)  # fixed pivot for reproducible enumeration order
    out: set[frozenset[int]] = set()
    if p >= 1:
        for s in _impsep(g, x, y, p - 1, gone | {v}, guard - 1):
            out.add(s | {v})
    pushed = reachable_from(g, x, s_star | gone) | {v}
    out |= _impsep(g, pushed, y, p, gone, guard - 1)
    return out


def build_collection(inst: Instance) -> ImportantCollection:
    """Important v-T separators of size <= budget over all witnesses v not in T.

    Distinguished non-terminal vertices are valid witnesses too: a v-T
    separator never contains v itself, so nothing stops an undeletable v
    from being separated from T.
    """
    g = inst.graph
    terms = inst.terminals
    acc: dict[frozenset[int], list[int]] = {}
    for v in sorted(set(g.vertices()) - terms):
        for sep in enumerate_important(g, {v}, terms, inst.budget):
            acc.setdefault(sep.members, []).append(v)
    entries = tuple(
        ImportantEntry(members, tuple(acc[members]))
        for members in sorted(acc, key=canonical_order)
    )
    return ImportantCollection(entries)
