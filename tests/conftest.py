"""Shared corpus helpers for the test suite."""

from functools import cache
from itertools import combinations

from dmwc.graph import Digraph, min_vertex_separator, reachable_from, reverse
from dmwc.oracle import brute_force_mwc, generate_instance
from dmwc.pipeline import _packing_exceeds
from dmwc.rng import SplitMix64
from dmwc.sampling import deterministic_sets
from dmwc.separators import build_collection


def random_digraph(seed, n, density, inf_frac=0.0):
    """Seeded plain digraph without the instance wrapper."""
    rng = SplitMix64(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.unit() < density
    ]
    infinite = [v for v in range(n) if rng.unit() < inf_frac]
    return Digraph(n, edges, infinite)


def minus(g, removed):
    """g minus `removed`, built by hand: same ids, edges touching a removed
    vertex dropped, removed vertices no longer undeletable."""
    gone = frozenset(removed)
    return Digraph(
        g.vertex_count,
        [(u, v) for u, v in g.edges if u not in gone and v not in gone],
        g.infinite - gone,
    )


def symmetric(g):
    """g with every edge in both orientations; multiplicities collapse to one
    per direction."""
    arcs = set(g.edges) | {(v, u) for u, v in g.edges}
    return Digraph(g.vertex_count, sorted(arcs), g.infinite)


def with_loops_and_repeats(g):
    """g plus a self-loop on every even vertex and a repeat of every other edge."""
    extra = [(v, v) for v in range(0, g.vertex_count, 2)] + list(g.edges[::2])
    return Digraph(g.vertex_count, g.edges + tuple(extra), g.infinite)


def small_instances(count, seed0=0, max_n=9, max_p=2):
    """Deterministic mixed corpus weighted toward tiny graphs."""
    out = []
    for i in range(count):
        n = 4 + (i * 7 + seed0) % (max_n - 3)
        k = 2 + i % 2
        p = i % (max_p + 1)
        density = 0.15 + 0.05 * (i % 5)
        inf_frac = 0.0 if i % 3 else 0.15
        out.append(generate_instance(seed0 + i, n, density, min(k, n), p, inf_frac))
    return out


def terminal_lambdas(inst):
    """lambda_t for each terminal t in sorted order: the size of a minimum
    t-(T - t) vertex separator, or None when a t-(T - t) path runs through
    undeletable vertices alone.  Empty for a single terminal."""
    ts = inst.terminals
    if len(ts) == 1:
        return []
    g = inst.graph
    cuts = [min_vertex_separator(g, {t}, ts - {t}, len(g.deletable)) for t in sorted(ts)]
    return [None if c is None else len(c) for c in cuts]


def bound_decides(inst):
    """The packing answers NO up front: some lambda_t is None, or a greedy
    packing holds more than budget terminal paths, no two of which share a
    deletable vertex (`dmwc.pipeline._packing_exceeds`)."""
    return _packing_exceeds(inst)


@cache
def walked_nos():
    """The seeded generator instances (n = 6..10, k = p = 2, seeds below
    3000) that the packing leaves to the walk and that have no cut: the
    walk alone must answer NO on each."""
    shapes = (generate_instance(s, 6 + s % 5, 0.3, 2, 2) for s in range(3000))
    return tuple(
        inst for inst in shapes
        if not _packing_exceeds(inst) and brute_force_mwc(inst) is None
    )


def first_candidate(inst):
    """The walk's first candidate z0: every vertex that does not both reach a
    terminal and get reached from one."""
    g, ts = inst.graph, inst.terminals
    both = reachable_from(reverse(g), ts) & reachable_from(g, ts)
    return frozenset(g.vertices()) - both


def family_of(inst):
    """The candidate family of one instance, from a fresh collection build."""
    return deterministic_sets(build_collection(inst), inst.budget)


def subsets_upto(pool, size):
    for s in range(size + 1):
        for combo in combinations(sorted(pool), s):
            yield frozenset(combo)


def brute_edge(g, terminals, p):
    """A smallest tuple of at most p edge indices whose deletion disconnects
    every ordered terminal pair, or None."""
    for size in range(min(p, len(g.edges)) + 1):
        for combo in combinations(range(len(g.edges)), size):
            gone = set(combo)
            h = Digraph(
                g.vertex_count,
                [e for i, e in enumerate(g.edges) if i not in gone],
                g.infinite,
            )
            if all(
                not reachable_from(h, {t}) & (terminals - {t}) for t in terminals
            ):
                return combo
    return None


def brute_multicut(g, pairs, p):
    """A smallest set of at most p deletable vertices that cuts every request
    pair (an endpoint in the set counts as cut), or None."""
    pool = sorted(set(g.vertices()) - g.infinite)
    for s in subsets_upto(pool, p):
        if all(
            a in s or b in s or b not in reachable_from(g, {a}, s - {a})
            for a, b in pairs
        ):
            return s
    return None
