"""Shared corpus helpers for the test suite."""

from itertools import combinations

from dmwc.graph import Digraph
from dmwc.oracle import generate_instance
from dmwc.rng import SplitMix64


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


def subsets_upto(pool, size):
    for s in range(size + 1):
        for combo in combinations(sorted(pool), s):
            yield frozenset(combo)
