"""Enumeration of important separators and the per-witness collection.

A separator is a frozenset of vertex ids.  Lists and collections are in
canonical order: by size, then by sorted members.

The enumeration follows the branch-on-a-min-cut-vertex recursion: compute the
max-reach minimum separator, pick its smallest vertex v, and recurse once with
v added to the removed set (budget minus one; g itself is never copied) and
once with the source side pushed past v.
The recursion over-approximates, so a candidate is dropped when another
candidate of no larger size reaches every vertex it reaches from x.  This is
exact: the recursion returns every important separator of size at most p,
and every separator is dominated by an important one of no larger size, so
each non-minimal or non-important candidate loses to some candidate, while
an important one never does.  The definitional checks (`is_important`,
`is_minimal_separator`) live in `shadows` as references for the tests.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Digraph, Instance, _reach, min_vertex_separator


def canonical_order(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def enumerate_important(
    g: Digraph, x: Iterable[int], y: Iterable[int], p: int, removed: Iterable[int] = ()
) -> list[frozenset[int]]:
    """All important x-y separators of size at most p in g minus `removed`,
    canonically ordered.

    Returns [empty separator] when x cannot reach y and [] when even the
    minimum separator exceeds p (or only infinite vertices could separate).
    """
    xs, ys, gone = frozenset(x), frozenset(y), frozenset(removed)
    if p < 0:
        raise ValueError("budget must be non-negative")
    candidates = _impsep(g, xs, ys, p, gone, 2 * p + 1)
    # candidates exist only after the first flow call has checked xs and gone
    reach = {s: _reach(g, xs, s | gone) for s in candidates}
    return [
        s for s in sorted(candidates, key=canonical_order)
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
    s_star = min_vertex_separator(g, x, y, gone)
    if s_star is None or len(s_star) > p:
        return set()
    if not s_star:
        return {frozenset()}
    v = min(s_star)  # fixed pivot for reproducible enumeration order
    # 1 <= |s_star| <= p here, so the branch that cuts v has budget p - 1 >= 0
    out = {s | {v} for s in _impsep(g, x, y, p - 1, gone | {v}, guard - 1)}
    pushed = _reach(g, x, s_star | gone) | {v}
    out |= _impsep(g, pushed, y, p, gone, guard - 1)
    return out


def build_collection(inst: Instance) -> dict[frozenset[int], frozenset[int]]:
    """Important v-T separators of size <= budget over all witnesses v not in
    T: each separator, in canonical order, with the set of witnesses it is
    important for, which is its exact reverse shadow (`sampling` says why).

    Distinguished non-terminal vertices are valid witnesses too: a v-T
    separator never contains v itself, so nothing stops an undeletable v
    from being separated from T.
    """
    g = inst.graph
    terms = inst.terminals
    acc: dict[frozenset[int], set[int]] = {}
    for v in sorted(set(g.vertices()) - terms):
        for sep in enumerate_important(g, {v}, terms, inst.budget):
            acc.setdefault(sep, set()).add(v)
    return {s: frozenset(acc[s]) for s in sorted(acc, key=canonical_order)}
