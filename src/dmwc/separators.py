"""Enumeration of important separators and the per-witness collection.

A separator is a frozenset of vertex ids.  Lists and collections are in
canonical order: by size, then by sorted members.

The enumeration follows the branch-on-a-min-cut-vertex recursion: compute the
max-reach minimum separator S* of at most p vertices in G, g minus the removed
set, keep S*, and for the i-th v of sorted(S*), from 0, recurse with the
sources pushed past v, budget p - i and the i vertices before v also removed.
That is the recursion that cuts or pushes min(S*), with its cut branches
unrolled: S* - {v} is the max-reach minimum separator of G - v, as a smaller
one plus v would beat |S*|, and a minimum T of G - v gives the minimum T + v
of G, whose reach (T's in G - v) lies in R(S*), which is S* - {v}'s in G - v.
The recursion over-approximates, so a candidate is dropped when another
candidate of no larger size reaches every vertex it reaches from x.  This is
exact: the recursion returns every important separator of size at most p,
and every separator is dominated by an important one of no larger size
(Marx, TCS 2006; Cygan et al., Parameterized Algorithms, ch. 8), so each
non-minimal or non-important candidate loses to some candidate, while an
important one never does.  The definitional checks (`is_important`,
`is_minimal_separator`) live in `shadows` as references for the tests.

The filter runs no search: each node returns its candidates with the
reaches it computed.  R(S), the set that the caller's sources x reach in G
minus S, depends only on S.  A node searches once, from its own sources
past S*, and its push child for v gets the sources R(S*) + v.  Every
separator S that the child's subtree returns avoids those sources, the
pivots before v and the removed set, and x reaches all of R(S*) + v inside
that set (v has an in-neighbour in R(S*), as S* is minimal).  So the
child's sources and x reach the same vertices once S and those pivots are
removed, and by induction the reach computed for S is R of the candidate
that the node returns, S plus those pivots.

`build_collection` can reuse an earlier build, the base, of the same graph,
terminals and budget under a smaller undeletable set U0.  Let U be the
larger set, A = U - U0, and fix a witness v none of whose important v-T
separators of at most p vertices under U0 meets A.  Each of them avoids U,
so it is still a separator, and still important, as U only removes
competitors.  An important S' under U is a separator under U0, so by that
lemma some important S* under U0 has |S*| <= |S'| and R(S*) containing
R(S'), where R is the set v reaches.  S* avoids A, so it is a separator
under U, and S' being important gives R(S*) = R(S'); a minimal separator is
the out-neighbourhood of its reach, so S* = S'.  An empty list (lambda > p)
stays empty, as fewer vertices are cuttable, and [empty separator] stays, as
the arcs are the same.  So v keeps its separators, and only the witnesses
of base separators that meet A are enumerated again.
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
    reach = _impsep(g, xs, ys, p, gone, 2 * p + 1)
    return [
        s for s in sorted(reach, key=canonical_order)
        if not any(t != s and len(t) <= len(s) and reach[t] >= reach[s] for t in reach)
    ]


def _impsep(
    g: Digraph, x: frozenset[int], y: frozenset[int], p: int, gone: frozenset[int],
    guard: int,
) -> dict[frozenset[int], frozenset[int]]:
    if guard < 0:
        raise RuntimeError("important-separator recursion exceeded depth bound")
    s_star = min_vertex_separator(g, x, y, p, gone)
    if s_star is None:
        return {}
    reach = _reach(g.succ, x, s_star | gone)
    out = {s_star: reach}
    cut = frozenset()
    for i, v in enumerate(sorted(s_star)):
        sub = _impsep(g, reach | {v}, y, p - i, gone | cut, guard - i - 1)
        out |= {s | cut: r for s, r in sub.items()}
        cut |= {v}
    return out


def build_collection(
    inst: Instance,
    base: tuple[Instance, dict[frozenset[int], frozenset[int]]] | None = None,
) -> dict[frozenset[int], frozenset[int]]:
    """Important v-T separators of size <= budget over all witnesses v not in
    T: each separator, in canonical order, with the set of witnesses it is
    important for, which is its exact reverse shadow (`sampling` says why).

    Distinguished non-terminal vertices are valid witnesses too: a v-T
    separator never contains v itself, so nothing stops an undeletable v
    from being separated from T.

    `base` is an earlier build, as its instance and the collection it
    returned.  It supplies every witness none of whose base separators meets
    the vertices this instance made undeletable beyond the base's; the
    others are enumerated again.  The result is the same as without `base`,
    and `base` is only read.  An instance that is not the base's with a
    larger undeletable set raises RuntimeError.
    """
    g = inst.graph
    terms = inst.terminals
    todo = set(g.vertices()) - terms
    acc: dict[frozenset[int], set[int]] = {}
    if base is not None:
        old, collection = base
        if (
            (old.terminals, old.budget, old.graph.vertex_count, old.graph.edges)
            != (terms, inst.budget, g.vertex_count, g.edges)
            or not old.graph.infinite <= g.infinite
        ):
            raise RuntimeError("inner build is not the base with more undeletables")
        added = g.infinite - old.graph.infinite
        todo = set().union(*[ws for s, ws in collection.items() if s & added])
        acc = {s: set(ws - todo) for s, ws in collection.items()}
    for v in sorted(todo):
        for sep in enumerate_important(g, {v}, terms, inst.budget):
            acc.setdefault(sep, set()).add(v)
    return {s: frozenset(acc[s]) for s in sorted(acc, key=canonical_order) if acc[s]}
