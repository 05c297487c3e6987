from itertools import combinations

from conftest import random_digraph, subsets_upto
from dmwc import sampling
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, Instance
from dmwc.oracle import generate_instance
from dmwc.pipeline import _second_stage
from dmwc.sampling import deterministic_sets, random_draw, random_set, shadow_universe
from dmwc.separators import build_collection, canonical_order
from dmwc.shadows import is_thin, shadow


def test_random_set_trivial_cases():
    g = Digraph(2, [(0, 1)], {0, 1})
    inst = Instance(g, frozenset({0, 1}), 2)
    assert random_set(inst, 0) == frozenset()  # no non-terminal witnesses
    fx = hub_fan(3, 2)
    for seed in range(20):
        z = random_set(fx.instance, seed)
        assert not z & fx.instance.terminals


def test_random_draw_replays_from_provenance():
    fx = hub_fan(3, 2)
    for seed in range(10):
        draw = random_draw(fx.instance, seed)
        redo = frozenset()
        for picked, members in zip(draw.coins, draw.universe):
            if picked:
                redo |= members
        assert draw.z == redo
        assert random_set(fx.instance, seed) == draw.z
    # seeds are the only source of variation
    assert random_draw(fx.instance, 4).z == random_draw(fx.instance, 4).z


def test_shadow_universe_hub_fan():
    fx = hub_fan(3, 2)
    universe = shadow_universe(fx.instance)
    # singletons {a_i} shade {b_i}; pairs {a_i,a_j} shade exactly {c_ij}
    expected = {
        frozenset({fx.b(i)}) for i in (1, 2, 3)
    } | {
        frozenset({fx.c(i, j)}) for i, j in ((1, 2), (1, 3), (2, 3))
    }
    assert set(universe) == expected


def test_deterministic_family_trivial_cases():
    g = Digraph(2, [(0, 1)], {0, 1})
    inst = Instance(g, frozenset({0, 1}), 2)
    family = deterministic_sets(inst)
    assert list(family) == [frozenset()]
    fx = hub_fan(3, 2)
    for z in deterministic_sets(fx.instance):
        assert not z & fx.instance.terminals


def test_deterministic_family_hits_required_selection():
    fx = hub_fan(3, 2, budget=1)
    family = deterministic_sets(fx.instance)
    assert any(
        fx.b(1) in z and fx.a(1) not in z for z in family
    )  # pair S={a1}, Y={b1}


def test_candidates_are_shadow_unions():
    fx = hub_fan(3, 2)
    family = deterministic_sets(fx.instance)
    for z, picked in zip(family.candidates, family.provenance):
        redo = frozenset()
        for i in picked:
            redo |= family.universe[i]
        assert z == redo


def test_deterministic_family_is_stable():
    fx = hub_fan(3, 2)
    a = deterministic_sets(fx.instance)
    b = deterministic_sets(fx.instance)
    assert a.candidates == b.candidates
    assert a.provenance == b.provenance
    assert all(list(picked) == sorted(set(picked)) for picked in a.provenance)


def _reference_family(inst):
    """The walk over every deletable W of at most p vertices, in canonical
    order, that the union closure replaces: (candidates, provenance,
    universe)."""
    g = inst.graph
    members = build_collection(inst).member_sets()
    shadows = [shadow(g, inst.terminals, m).exact_reverse for m in members]
    universe = sorted(set(shadows), key=canonical_order)
    index_of = {z: i for i, z in enumerate(universe)}
    member_shadows = [(m, index_of[z]) for m, z in zip(members, shadows)]
    deletable = sorted(g.deletable() - inst.terminals)
    candidates, provenance, seen = [], [], set()
    for size in range(min(inst.budget, len(deletable)) + 1):
        for w in combinations(deletable, size):
            wset = frozenset(w)
            picked = tuple(sorted({i for m, i in member_shadows if m <= wset}))
            z = frozenset().union(*(universe[i] for i in picked))
            if z not in seen:
                seen.add(z)
                candidates.append(z)
                provenance.append(picked)
    return tuple(candidates), tuple(provenance), tuple(universe)


def test_union_closure_matches_reference_walk():
    for i in range(200):
        n = 6 + (i * 7) % 15
        inst = generate_instance(
            7000 + i, n, 2.5 / n + 0.05 * (i % 3), 2 + i % 2, i % 4, 0.1 * (i % 2)
        )
        family = deterministic_sets(inst)
        got = (family.candidates, family.provenance, family.universe)
        assert got == _reference_family(inst), i
        inner = _second_stage(inst, family.candidates[-1])
        family = deterministic_sets(inner)
        got = (family.candidates, family.provenance, family.universe)
        assert got == _reference_family(inner), (i, "second stage")


def test_one_collection_build_per_family(monkeypatch):
    calls = []

    def counting(inst):
        calls.append(inst)
        return build_collection(inst)

    monkeypatch.setattr(sampling, "build_collection", counting)
    fx = hub_fan(3, 2)
    family = deterministic_sets(fx.instance)
    assert len(calls) == 1
    assert len(family) > 1


def _coverage_pairs(inst):
    """Brute-force (thin S, Y) pairs the family must cover."""
    g = inst.graph
    coll = build_collection(inst).entries
    pool = sorted(g.deletable() - inst.terminals)
    for s in subsets_upto(pool, inst.budget):
        if not is_thin(g, inst.terminals, s):
            continue
        y = frozenset(
            w for e in coll if e.members <= s for w in e.witnesses
        )
        yield s, y


def test_deterministic_coverage_on_random_instances():
    for seed in range(12):
        g = Digraph(7, random_digraph(seed, 7, 0.3).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        family = list(deterministic_sets(inst))
        for s, y in _coverage_pairs(inst):
            assert any(not s & z and y <= z for z in family), (seed, s, y)


def test_randomized_coverage_has_positive_frequency():
    fx = hub_fan(3, 2, budget=1)
    inst = fx.instance
    s, y = frozenset({fx.a(1)}), frozenset({fx.b(1)})
    trials = 4 * 2 ** (2**1 + 1 * 4**1)  # ample at this scale
    hits = sum(
        1
        for seed in range(trials)
        if not s & random_set(inst, seed) and y <= random_set(inst, seed)
    )
    assert hits > 0


def test_exact_shadows_in_universe_match_direct_computation():
    for seed in range(8):
        g = Digraph(7, random_digraph(seed, 7, 0.35).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        direct = {
            shadow(g, inst.terminals, members).exact_reverse
            for members in build_collection(inst).member_sets()
        }
        assert set(shadow_universe(inst)) == direct
