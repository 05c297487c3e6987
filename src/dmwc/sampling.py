"""Candidate sets: the deterministic family over exact reverse shadows, and
the two-stage walk over it.

The family reads the shadows of `build_collection`, which maps each important
witness-T separator S of size at most p (a collection member) to its witness
set, and that set is the exact reverse shadow of S: the vertices v for
which S is an important v-T separator.  Every witness is in the exact
shadow, since an important separator is minimal.  Conversely, let S be
important for a witness u and a minimal v-T separator.  Every vertex of S
has an in-neighbour that v reaches, and the max-flow paths from u's side go
on from S to T through vertices that v cannot reach without S (else v would
reach T).  So the flow can be rerouted at S through v's side; the residual
graph beyond S stays the same, S is still the max-reach minimum cut, and so
it is important for v.

The family only needs, for each cut S of at most p deletable vertices, the
union of the shadows of the members contained in S.  The members inside S
are exactly the members inside W, the union of those members, and
|W| <= |S| <= p.  So walking the unions of members that have at most p
vertices, rather than every small S, reaches every selection the coverage
guarantee needs.

`candidates` walks two stages: an outer family for the original graph, and
for each outer choice z1, built only when the walk reaches it, an inner
family for the reversed graph with z1 made undeletable.  The inner build for
the first z1, z1_0, is the base of every later one (the `separators` module
docstring says what a build reuses from its base).  That is valid because
every later z1 contains z1_0: the outer family's first set W is empty, and
each z1 is the union of the shadows of the collection members inside its W,
so it contains the shadow of the empty member whenever there is one.  A z1
that does not contain z1_0 would be a solver bug, and `build_collection`
raises RuntimeError for it.

The first choice z0 = z1_0 | z2_0 needs no build.  The empty set is an
important v-T separator exactly when v reaches no terminal (a flow of 0),
so z1_0 is the set of vertices that reach no terminal.  The inner graph is
reversed, and undeletables do not change reachability, so z2_0 is the set
that no terminal reaches.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Digraph, Instance, _reach
from .separators import build_collection, canonical_order


def deterministic_sets(
    shadows: dict[frozenset[int], frozenset[int]], budget: int
) -> tuple[frozenset[int], ...]:
    """Deterministic candidate family covering every (thin S, Y) pair, from
    the `build_collection` result `shadows` of an instance with this budget.

    The sets W are the closure of {emptyset} under union with a collection
    member, kept to at most `budget` vertices; the module docstring says why
    they suffice.  They are visited in canonical (size, then lexicographic)
    order and each distinct union of the shadows of the members inside W is
    kept at its first W.  A walk over every deletable S of at most `budget`
    vertices in that order gives the same output: the W of any S holds the
    same members and is a subset of S, so it comes no later.
    """
    # after each member, closure holds every union of members so far with at
    # most budget vertices: one that takes this member joins it to a union of
    # the others, which is no larger, so that union is already in closure
    closure = {frozenset()}
    for members in shadows:
        closure |= {u for w in closure if len(u := w | members) <= budget}
    return tuple(dict.fromkeys(
        frozenset().union(*[z for m, z in shadows.items() if m <= w])
        for w in sorted(closure, key=canonical_order)
    ))


def _second_stage(inst: Instance, z1: frozenset[int]) -> Instance:
    g = inst.graph
    g2 = Digraph(g.vertex_count, [(v, u) for u, v in g.edges], g.infinite | z1)
    return Instance(g2, inst.terminals, inst.budget)


def candidates(inst: Instance) -> Iterator[frozenset[int]]:
    """Each distinct combined choice z1 | z2 once, in family order: the torso
    reduction depends only on the union.  The first, z0, is read off the
    graph before any collection is built.  The module docstring gives the
    walk, its reuse and why z0 is its first choice."""
    g, terms, none = inst.graph, inst.terminals, frozenset()
    z0 = frozenset(g.vertices()) - (_reach(g.pred, terms, none) & _reach(g.succ, terms, none))
    yield z0
    # each tried z as an int with bit v set, far smaller than a frozenset
    tried = {sum(1 << v for v in z0)}
    base = None
    for z1 in deterministic_sets(build_collection(inst), inst.budget):
        inner = _second_stage(inst, z1)
        shadows = build_collection(inner, base)
        base = base or (inner, shadows)
        for z2 in deterministic_sets(shadows, inst.budget):
            z = z1 | z2
            if (bits := sum(1 << v for v in z)) not in tried:
                tried.add(bits)
                yield z
