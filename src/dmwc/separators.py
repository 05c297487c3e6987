"""Enumeration of important separators and the per-witness collection.

A separator is a frozenset of vertex ids.  Lists and collections are in
canonical order: by size, then by sorted members.

The enumeration follows the branch-on-a-min-cut-vertex recursion: compute the
max-reach minimum separator of at most p vertices, pick its smallest vertex v,
and recurse once with v added to the removed set (budget minus one; g itself
is never copied) and once with the source side pushed past v.
The recursion over-approximates, so a candidate is dropped when another
candidate of no larger size reaches every vertex it reaches from x.  This is
exact: the recursion returns every important separator of size at most p,
and every separator is dominated by an important one of no larger size, so
each non-minimal or non-important candidate loses to some candidate, while
an important one never does.  The definitional checks (`is_important`,
`is_minimal_separator`) live in `shadows` as references for the tests.

`build_collection` can reuse an earlier build of the same graph, terminals
and budget under a smaller undeletable set U0 (an `InnerBase`).  Call `met`
the union of the max-reach minimum separators S, 1 <= |S| <= p, that a
witness's recursion computed under U0.  Under a larger set U, a recursion
node whose S avoids U - U0 computes the same S (Marx, TCS 2006): lambda
cannot drop, since fewer vertices are cuttable; S is still a separator of
size lambda, so it is still minimum; and every minimum separator under U is
one under U0, so S still has the largest reach.  A node without such an S
(empty, or none of at most p vertices) keeps that outcome, as lambda cannot drop.
The pivot, the pushed source side and the dominance filter read only S, the
removed set and the graph's arcs, which U does not change.  So a witness whose
`met` avoids U - U0 keeps its important separators, and only the others
are enumerated again.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Digraph, Instance, _reach, min_vertex_separator


def canonical_order(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def enumerate_important(
    g: Digraph, x: Iterable[int], y: Iterable[int], p: int, removed: Iterable[int] = (),
    *, met: set[int] | None = None,
) -> list[frozenset[int]]:
    """All important x-y separators of size at most p in g minus `removed`,
    canonically ordered.

    Returns [empty separator] when x cannot reach y and [] when even the
    minimum separator exceeds p (or only infinite vertices could separate).
    A `met` set, when given, gains every vertex of every max-reach minimum
    separator S with 1 <= |S| <= p that the recursion computed; the result
    does not depend on it.
    """
    xs, ys, gone = frozenset(x), frozenset(y), frozenset(removed)
    if p < 0:
        raise ValueError("budget must be non-negative")
    candidates = _impsep(g, xs, ys, p, gone, 2 * p + 1, met)
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
    guard: int, met: set[int] | None,
) -> set[frozenset[int]]:
    if guard < 0:
        raise RuntimeError("important-separator recursion exceeded depth bound")
    s_star = min_vertex_separator(g, x, y, p, gone)
    if s_star is None:
        return set()
    if not s_star:
        return {frozenset()}
    if met is not None:
        met |= s_star
    v = min(s_star)  # fixed pivot for reproducible enumeration order
    # 1 <= |s_star| <= p here, so the branch that cuts v has budget p - 1 >= 0
    out = {s | {v} for s in _impsep(g, x, y, p - 1, gone | {v}, guard - 1, met)}
    pushed = _reach(g, x, s_star | gone) | {v}
    out |= _impsep(g, pushed, y, p, gone, guard - 1, met)
    return out


class InnerBase:
    """The first build that `build_collection` is handed with this record:
    its instance and, per witness, the important separators and `met` (the
    module docstring says why `met` decides what a later build may reuse).
    Every later build must be of the same graph, terminals and budget with
    an undeletable set that contains the first one's."""

    __slots__ = ("instance", "witnesses")

    def __init__(self) -> None:
        self.instance: Instance | None = None
        self.witnesses: dict[int, tuple[list[frozenset[int]], frozenset[int]]] = {}


def build_collection(
    inst: Instance, base: InnerBase | None = None
) -> dict[frozenset[int], frozenset[int]]:
    """Important v-T separators of size <= budget over all witnesses v not in
    T: each separator, in canonical order, with the set of witnesses it is
    important for, which is its exact reverse shadow (`sampling` says why).

    Distinguished non-terminal vertices are valid witnesses too: a v-T
    separator never contains v itself, so nothing stops an undeletable v
    from being separated from T.

    An empty `base` records this build.  A filled one supplies every witness
    whose `met` avoids the vertices this instance made undeletable beyond the
    base's; the others are enumerated again.  The result is the same as
    without `base`.  An instance that is not the base's with a larger
    undeletable set raises RuntimeError.
    """
    g = inst.graph
    terms = inst.terminals
    kept: dict[int, list[frozenset[int]]] = {}  # witnesses the base supplies
    if base is not None and base.instance is not None:
        old = base.instance
        if (
            (old.terminals, old.budget, old.graph.vertex_count, old.graph.edges)
            != (terms, inst.budget, g.vertex_count, g.edges)
            or not old.graph.infinite <= g.infinite
        ):
            raise RuntimeError("inner build is not the base with more undeletables")
        added = g.infinite - old.graph.infinite
        kept = {v: seps for v, (seps, met) in base.witnesses.items() if not met & added}
    record = base is not None and base.instance is None
    acc: dict[frozenset[int], set[int]] = {}
    for v in sorted(set(g.vertices()) - terms):
        seps = kept.get(v)
        if seps is None:
            met: set[int] = set()
            seps = enumerate_important(g, {v}, terms, inst.budget, met=met)
            if record:
                base.witnesses[v] = (seps, frozenset(met))
        for sep in seps:
            acc.setdefault(sep, set()).add(v)
    if record:
        base.instance = inst
    return {s: frozenset(acc[s]) for s in sorted(acc, key=canonical_order)}
