"""Candidate-set sampling: the randomized draw over exact reverse shadows and
its deterministic replacement.

Both modes share the same universe: the distinct exact reverse shadows of the
important witness-T separators of size at most p (the collection members).
The exact reverse shadow of a member S is its witness list: the vertices v
for which S is an important v-T separator.  Every witness is in the exact
shadow, since an important separator is minimal.  Conversely, let S be
important for a witness u and a minimal v-T separator.  Every vertex of S
has an in-neighbour that v reaches, and the max-flow paths from u's side go
on from S to T through vertices that v cannot reach without S (else v would
reach T).  So the flow can be rerouted at S through v's side; the residual
graph beyond S stays the same, S is still the max-reach minimum cut, and so
it is important for v.

The randomized draw picks each shadow with a fair coin and returns the union.

The deterministic family only needs, for each cut S of at most p deletable
vertices, the union of the shadows of the members contained in S.  The
members inside S are exactly the members inside W, the union of those
members, and |W| <= |S| <= p.  So walking the unions of members that have at
most p vertices, rather than every small S, reaches every selection the
coverage guarantee needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Instance
from .rng import SplitMix64
from .separators import build_collection, canonical_order


def _member_shadows(
    inst: Instance,
) -> tuple[tuple[frozenset[int], ...], list[tuple[frozenset[int], int]]]:
    """The shadow universe in canonical order, and each collection member
    paired with the universe index of its exact reverse shadow.  One
    collection build per family; a member's exact reverse shadow is the set
    of its witnesses (the module docstring says why)."""
    shadows = {m: frozenset(w) for m, w in build_collection(inst).items()}
    universe = tuple(sorted(set(shadows.values()), key=canonical_order))
    index_of = {z: i for i, z in enumerate(universe)}
    return universe, [(m, index_of[z]) for m, z in shadows.items()]


@dataclass(frozen=True)
class RandomDraw:
    """A randomized selection with enough provenance to replay it."""

    z: frozenset[int]
    universe: tuple[frozenset[int], ...]
    coins: tuple[bool, ...]
    seed: int


def random_draw(inst: Instance, seed: int) -> RandomDraw:
    universe = _member_shadows(inst)[0]
    rng = SplitMix64(seed)
    coins = tuple(rng.coin() for _ in universe)
    z: set[int] = set()
    for picked, members in zip(coins, universe):
        if picked:
            z |= members
    return RandomDraw(frozenset(z), universe, coins, seed)


def random_set(inst: Instance, seed: int) -> frozenset[int]:
    """Union of a fair-coin selection of exact reverse shadows."""
    return random_draw(inst, seed).z


@dataclass(frozen=True)
class CandidateFamily:
    """Ordered candidate sets, each with the sorted universe indices whose
    shadows it is the union of."""

    candidates: tuple[frozenset[int], ...]
    provenance: tuple[tuple[int, ...], ...]
    universe: tuple[frozenset[int], ...]

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)


def deterministic_sets(inst: Instance) -> CandidateFamily:
    """Deterministic candidate family covering every (thin S, Y) pair.

    The sets W are the closure of {emptyset} under union with a collection
    member, kept to at most p vertices; the module docstring says why they
    suffice.  They are visited in canonical (size, then lexicographic) order
    and each distinct selection is emitted at its first W, with the sorted
    universe indices it unites.  A walk over every deletable S of at most p
    vertices in that order gives the same output: the W of any S holds the
    same members and is a subset of S, so it comes no later.
    """
    universe, member_shadows = _member_shadows(inst)
    closure = {frozenset()}
    frontier = list(closure)
    while frontier:
        grown = []
        for w in frontier:
            for members, _ in member_shadows:
                u = w | members
                if len(u) <= inst.budget and u not in closure:
                    closure.add(u)
                    grown.append(u)
        frontier = grown

    candidates: list[frozenset[int]] = []
    provenance: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for w in sorted(closure, key=canonical_order):
        picked = sorted({i for members, i in member_shadows if members <= w})
        z = frozenset().union(*(universe[i] for i in picked))
        if z not in seen:
            seen.add(z)
            candidates.append(z)
            provenance.append(tuple(picked))
    return CandidateFamily(tuple(candidates), tuple(provenance), universe)
