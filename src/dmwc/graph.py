"""Directed multigraph core: reachability, the multiway-cut check and the
unit-vertex-capacity minimum separator with inclusion-maximal reach.

Vertices are dense integers 0..n-1.  A distinguished ("infinite weight")
vertex can never be part of a separator; terminals are always distinguished.
Graphs are immutable after construction and all operations are pure, so they
are safe to share between workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Iterable, Iterator


class Digraph:
    """Immutable directed multigraph with a set of undeletable vertices."""

    __slots__ = ("vertex_count", "edges", "infinite", "_succ", "_pred")

    def __init__(
        self,
        vertex_count: int,
        edges: Iterable[tuple[int, int]] = (),
        infinite: Iterable[int] = (),
    ) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = int(vertex_count)
        self.edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in self.edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
        self.infinite = frozenset(int(v) for v in infinite)
        for v in self.infinite:
            if not 0 <= v < vertex_count:
                raise ValueError(f"infinite vertex {v} out of range")
        succ: list[set[int]] = [set() for _ in range(vertex_count)]
        pred: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in self.edges:
            succ[u].add(v)
            pred[v].add(u)
        self._succ = tuple(tuple(sorted(s)) for s in succ)
        self._pred = tuple(tuple(sorted(s)) for s in pred)

    def successors(self, v: int) -> tuple[int, ...]:
        return self._succ[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._pred[v]

    def vertices(self) -> range:
        return range(self.vertex_count)

    def deletable(self) -> frozenset[int]:
        return frozenset(self.vertices()) - self.infinite

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
        if not self.terminals <= frozenset(self.graph.vertices()):
            raise ValueError("terminal id out of range")
        if not self.terminals <= self.graph.infinite:
            raise ValueError("terminals must be distinguished (infinite) vertices")
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
    src = _check_ids(g, sources)
    gone = _check_ids(g, removed)
    if src & gone:
        raise ValueError("sources and removed must be disjoint")
    seen = set(src)
    queue = deque(src)
    while queue:
        u = queue.popleft()
        for w in g.successors(u):
            if w not in seen and w not in gone:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def connected_terminal(
    g: Digraph, terminals: frozenset[int], removed: Iterable[int]
) -> int | None:
    """Smallest terminal still reaching another one in g minus `removed`, or
    None when `removed` is a multiway cut."""
    for t in sorted(terminals):
        if reachable_from(g, {t}, removed) & (terminals - {t}):
            return t
    return None


def min_vertex_separator(
    g: Digraph, x: Iterable[int], y: Iterable[int], removed: Iterable[int] = ()
) -> tuple[int, frozenset[int]] | None:
    """Minimum x-y separator in g minus `removed` with inclusion-maximal reach from x.

    Realized by max-flow on the in/out node-splitting network, kept implicit:
    node 2v is v_in, node 2v+1 is v_out, and their arcs come from g's
    adjacency.  The split arc v_in -> v_out has capacity one for a deletable
    vertex outside x, y and `removed`; every other forward arc is unbounded,
    and reverse arcs have capacity zero.  Removed vertices have no arcs at
    all, so they never carry flow or join the separator.  Once no x-y path
    runs through undeletable vertices alone the maximum flow is finite, so
    adding one unit per augmenting path ends after lambda paths; a flow
    above the number of unit arcs would mean that check and the capacities
    disagree, and raises RuntimeError instead of looping.  The unique
    max-reach minimum separator is read off the residual graph: it consists
    of the saturated split arcs on the boundary of the set of nodes that
    cannot reach the sink side.  Self-loops lie on no path and are skipped.

    Returns (lambda, separator), or None when no finite separator exists
    (an x-to-y path through only undeletable vertices).
    """
    xs = _check_ids(g, x)
    ys = _check_ids(g, y)
    gone = _check_ids(g, removed)
    if not xs or not ys:
        raise ValueError("x and y must be non-empty")
    if xs & ys or gone & (xs | ys):
        raise ValueError("x, y and removed must be pairwise disjoint")
    cuttable = g.deletable() - xs - ys - gone
    if reachable_from(g, xs, cuttable | gone) & ys:
        return None

    succ, pred = g.successors, g.predecessors

    def neighbours(a: int) -> Iterator[int]:
        # a ^ 1 is the other half of v; v_out leads to the in-nodes of v's
        # successors, v_in is entered from the out-nodes of v's predecessors
        v, side = a >> 1, a & 1
        yield a ^ 1
        for w in succ(v) if side else pred(v):
            if w != v and w not in gone:
                yield 2 * w + 1 - side

    flow: dict[tuple[int, int], int] = {}  # net flow, flow[b, a] == -flow[a, b]

    def residual(a: int, b: int) -> float:
        if b == a ^ 1:  # split arc, forward from v_in only
            cap = 0 if a & 1 else 1 if a >> 1 in cuttable else inf
        else:  # edge arc, forward from u_out only
            cap = inf if a & 1 else 0
        return cap - flow.get((a, b), 0)

    sources = {2 * v + 1 for v in xs}
    sinks = {2 * v for v in ys}
    value = 0
    while True:
        parent: dict[int, int] = {s: s for s in sources}
        queue = deque(sources)
        hit = -1
        while queue:
            a = queue.popleft()
            if a in sinks:
                hit = a
                break
            for b in neighbours(a):
                if b not in parent and residual(a, b) > 0:
                    parent[b] = a
                    queue.append(b)
        if hit < 0:
            break
        b = hit
        while parent[b] != b:
            a = parent[b]
            flow[a, b] = flow.get((a, b), 0) + 1
            flow[b, a] = flow.get((b, a), 0) - 1
            b = a
        value += 1
        if value > len(cuttable):  # a finite flow saturates distinct unit arcs
            raise RuntimeError("max-flow exceeded the number of deletable vertices")

    # Nodes with a residual path into the sink side; their complement is the
    # inclusion-maximal source side.
    can_reach: set[int] = set(sinks)
    queue = deque(sinks)
    while queue:
        b = queue.popleft()
        for a in neighbours(b):
            if a not in can_reach and residual(a, b) > 0:
                can_reach.add(a)
                queue.append(a)

    separator = frozenset(
        v for v in cuttable if 2 * v not in can_reach and 2 * v + 1 in can_reach
    )
    assert len(separator) == value, "cut extraction disagrees with flow value"
    return value, separator
