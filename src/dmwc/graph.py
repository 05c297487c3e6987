"""Directed multigraph core: reachability, the multiway-cut check and the
unit-vertex-capacity minimum separator with inclusion-maximal reach.

Vertices are dense integers 0..n-1, stored as given: an edge endpoint or
undeletable vertex that is not an integer raises TypeError, and one outside
0..n-1 raises ValueError.  A distinguished ("infinite weight") vertex can
never be part of a separator; terminals are always distinguished.  Graphs
are immutable after construction and all operations are pure, so they are
safe to share between workers.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterable


class Digraph:
    """Immutable directed multigraph with a set of undeletable vertices, read
    through plain attributes.  `edges` keeps input order.  `succ[v]` and
    `pred[v]` are tuples of v's out- and in-neighbours; each lists a neighbour
    once, in first-edge order, which is not part of the contract: no result
    depends on it.  `deletable` is the frozenset of vertices outside
    `infinite`, the only vertices a cut may hold."""

    __slots__ = ("vertex_count", "edges", "infinite", "succ", "pred", "deletable")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]] = (),
        infinite: Iterable[int] = (),
    ) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        self.infinite = frozenset(infinite)
        for v in self.infinite:
            if not 0 <= operator.index(v) < vertex_count:
                raise ValueError(f"infinite vertex {v} out of range")
        self.edges = tuple(edges)
        succ: list[dict[int, None]] = [{} for _ in range(vertex_count)]
        pred: list[dict[int, None]] = [{} for _ in range(vertex_count)]
        for u, v in self.edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            succ[u][v] = None
            pred[v][u] = None
        self.succ = tuple(map(tuple, succ))
        self.pred = tuple(map(tuple, pred))
        self.deletable = frozenset(range(vertex_count)) - self.infinite

    def vertices(self) -> range:
        return range(self.vertex_count)

    def _key(self):
        return (self.vertex_count, tuple(sorted(self.edges)), self.infinite)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Digraph(n={self.vertex_count}, m={len(self.edges)}, "
            f"infinite={sorted(self.infinite)})"
        )


def reverse(g: Digraph) -> Digraph:
    """Flip the orientation of every edge; multiplicities are preserved."""
    return Digraph(g.vertex_count, [(v, u) for u, v in g.edges], g.infinite)


@dataclass(frozen=True)
class Instance:
    """A directed multiway-cut instance: graph, terminal set and budget."""

    graph: Digraph
    terminals: frozenset[int]
    budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if not self.terminals:
            raise ValueError("at least one terminal required")
        if not self.terminals <= self.graph.infinite:  # infinite is range-checked
            raise ValueError("terminals must be in-range distinguished (infinite) vertices")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


def _check_ids(g: Digraph, vs: Iterable[int]) -> frozenset[int]:
    out = frozenset(vs)
    for v in out:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range")
    return out


def reachable_from(
    g: Digraph, sources: Iterable[int], removed: Iterable[int] = ()
) -> frozenset[int]:
    """Vertices reachable from `sources` in g minus `removed`, sources included."""
    return _reach(g.succ, *_check_sources(g, sources, removed))


def _check_sources(
    g: Digraph, sources: Iterable[int], removed: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    src, gone = _check_ids(g, sources), _check_ids(g, removed)
    if src & gone:
        raise ValueError("sources and removed must be disjoint")
    return src, gone


def _reach(
    adj: tuple[tuple[int, ...], ...], src: frozenset[int], gone: frozenset[int]
) -> frozenset[int]:
    """`reachable_from` without its checks, along `adj`: a graph's `succ`, or
    its `pred` for the vertices that reach `src`.  The caller has already
    checked the ids."""
    seen = set(src)
    queue = deque(src)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen and w not in gone:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def connected_terminal(
    g: Digraph, terminals: frozenset[int], removed: Iterable[int]
) -> int | None:
    """Smallest terminal still reaching another one in g minus `removed`, or
    None when `removed` is a multiway cut."""
    terms, gone = _check_sources(g, terminals, removed)
    for t in sorted(terms):
        if _reach(g.succ, frozenset({t}), gone) & (terms - {t}):
            return t
    return None


def min_vertex_separator(
    g: Digraph, x: Iterable[int], y: Iterable[int], p: int, removed: Iterable[int] = ()
) -> frozenset[int] | None:
    """Max-reach minimum x-y separator in g minus `removed`, if it has at most p vertices.

    Realized by max-flow on the in/out node-splitting network, kept implicit:
    node 2v is v_in, node 2v+1 is v_out, and the search reads g's own
    adjacency.  The split arc v_in -> v_out has capacity one when v is
    cuttable (deletable and outside x, y and `removed`) and is unbounded
    otherwise; the edge arc u_out -> w_in of each edge is unbounded; reverse
    arcs have capacity zero.  The flow is two counts: through[v], the units
    on v's split arc (0 or 1 when v is cuttable), and arc[u, w], the units on
    the edge arc u_out -> w_in (never negative).  The residual arcs are:

    - v_in -> v_out while v is not cuttable or through[v] == 0;
    - v_out -> v_in while through[v] > 0;
    - u_out -> w_in for every successor w of u that is not u and not removed;
    - w_in -> u_out while arc[u, w] > 0.

    Removed vertices are never entered, so they never carry flow or join the
    separator, and self-loops lie on no path.  Each augmenting path is found
    by a search backward along residual arcs from the sinks y_in to a source
    x_out.  The loop returns None once the value passes p, after at most
    p + 1 searches, and otherwise ends at a search that finds no source,
    which sees exactly the nodes with a residual path into the sink side.
    It needs no bound but p: a first search rules out an x-to-y path through
    undeletable vertices alone, so the cuttable vertices separate x from y
    and lambda <= |cuttable|.  The unique max-reach minimum separator is the
    set of cuttable v whose v_out it saw and whose v_in it did not.

    Returns the separator, whose size is lambda, or None when no separator of
    at most p vertices exists: lambda > p, p < 0, or an x-to-y path through
    undeletable vertices alone.
    """
    xs = _check_ids(g, x)
    ys = _check_ids(g, y)
    gone = _check_ids(g, removed)
    if not xs or not ys:
        raise ValueError("x and y must be non-empty")
    if xs & ys or gone & (xs | ys):
        raise ValueError("x, y and removed must be pairwise disjoint")
    found = _max_flow(g, xs, ys, p, gone)
    return None if found is None else found[0]


def _max_flow(
    g: Digraph, xs: frozenset[int], ys: frozenset[int], p: int, gone: frozenset[int]
) -> tuple[frozenset[int], list[int]] | None:
    """`min_vertex_separator` without its checks, which also returns the flow:
    None, or (separator, through) where through[v] is the flow on v's split
    arc.  The deletable vertices with through[v] > 0 carry the lambda paths,
    no two of which share one.  An empty `ys` gives (empty set, all zeros),
    as there is no sink to reach."""
    cuttable = g.deletable.difference(xs, ys, gone)
    # settle "no finite separator" in one search, not the loop's p + 1
    if _reach(g.succ, xs, cuttable | gone) & ys:
        return None

    succ, pred = g.succ, g.pred
    through = [0] * g.vertex_count
    arc: dict[tuple[int, int], int] = {}
    value = 0
    while value <= p:
        # nxt[a] is the node after a on a residual path into the sink side:
        # -1 at a sink, -2 while a is unseen
        nxt = [-2] * (2 * g.vertex_count)
        queue = [2 * v for v in ys]
        for b in queue:
            nxt[b] = -1
        hit = -1
        for b in queue:
            v = b >> 1
            if b & 1:
                if nxt[b - 1] == -2 and (not through[v] or v not in cuttable):
                    nxt[b - 1] = b
                    queue.append(b - 1)
                if through[v]:  # v_out is no source, so its arcs carry through[v]
                    for w in succ[v]:
                        if nxt[2 * w] == -2 and arc.get((v, w)):
                            nxt[2 * w] = b
                            queue.append(2 * w)
            else:
                if through[v] and nxt[b + 1] == -2:
                    nxt[b + 1] = b
                    queue.append(b + 1)
                for u in pred[v]:
                    a = 2 * u + 1
                    if nxt[a] == -2 and u != v and u not in gone:
                        nxt[a] = b
                        if u in xs:
                            hit = a
                            break
                        queue.append(a)
                if hit >= 0:
                    break
        if hit < 0:
            break
        a = hit
        while (b := nxt[a]) >= 0:
            if a ^ 1 == b:
                through[a >> 1] += 1 if b & 1 else -1
            elif a & 1:
                arc[a >> 1, b >> 1] = arc.get((a >> 1, b >> 1), 0) + 1
            else:
                arc[b >> 1, a >> 1] -= 1
            a = b
        value += 1
    else:  # lambda > p: no separator of at most p vertices
        return None

    separator = frozenset(
        v for v in cuttable if nxt[2 * v] == -2 and nxt[2 * v + 1] != -2
    )
    if len(separator) != value:
        raise RuntimeError("cut extraction disagrees with flow value")
    return separator, through
