"""Candidate-set sampling: the randomized draw over exact reverse shadows and
its deterministic replacement.

Both modes read the same shadows: `build_collection` maps each important
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

The randomized draw flips one fair coin per distinct shadow, in canonical
order, and returns the union of the heads.

The deterministic family only needs, for each cut S of at most p deletable
vertices, the union of the shadows of the members contained in S.  The
members inside S are exactly the members inside W, the union of those
members, and |W| <= |S| <= p.  So walking the unions of members that have at
most p vertices, rather than every small S, reaches every selection the
coverage guarantee needs.
"""

from __future__ import annotations

from .graph import Instance
from .rng import SplitMix64
from .separators import InnerBase, build_collection, canonical_order


def random_set(inst: Instance, seed: int) -> frozenset[int]:
    """Union of a fair-coin selection of exact reverse shadows."""
    rng = SplitMix64(seed)
    shadows = sorted(set(build_collection(inst).values()), key=canonical_order)
    return frozenset().union(*[z for z in shadows if rng.coin()])


def deterministic_sets(
    inst: Instance, base: InnerBase | None = None
) -> tuple[frozenset[int], ...]:
    """Deterministic candidate family covering every (thin S, Y) pair.

    The sets W are the closure of {emptyset} under union with a collection
    member, kept to at most p vertices; the module docstring says why they
    suffice.  They are visited in canonical (size, then lexicographic) order
    and each distinct union of the shadows of the members inside W is kept at
    its first W.  A walk over every deletable S of at most p vertices in that
    order gives the same output: the W of any S holds the same members and
    is a subset of S, so it comes no later.  `base` goes to
    `build_collection`, and the family does not depend on it.
    """
    shadows = build_collection(inst, base)
    # after each member, closure holds every union of members so far with at
    # most p vertices: one that takes this member joins it to a union of the
    # others, which is no larger, so that union is already in closure
    closure = {frozenset()}
    for members in shadows:
        closure |= {u for w in closure if len(u := w | members) <= inst.budget}
    return tuple(dict.fromkeys(
        frozenset().union(*[z for m, z in shadows.items() if m <= w])
        for w in sorted(closure, key=canonical_order)
    ))
