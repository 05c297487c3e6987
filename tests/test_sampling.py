import tracemalloc
from itertools import combinations

import pytest

from conftest import (
    family_of, first_candidate, random_digraph, subsets_upto, with_loops_and_repeats,
)
from dmwc import sampling
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, Instance
from dmwc.oracle import generate_instance
from dmwc.pipeline import solve_vertex
from dmwc.sampling import _second_stage, candidates, deterministic_sets
from dmwc.separators import build_collection
from dmwc.shadows import is_thin, shadow


def test_shadow_universe_hub_fan():
    fx = hub_fan(3, 2)
    universe = set(build_collection(fx.instance).values())
    # singletons {a_i} shade {b_i}; pairs {a_i,a_j} shade exactly {c_ij}
    expected = {
        frozenset({fx.b(i)}) for i in (1, 2, 3)
    } | {
        frozenset({fx.c(i, j)}) for i, j in ((1, 2), (1, 3), (2, 3))
    }
    assert universe == expected


def test_deterministic_family_trivial_cases():
    g = Digraph(2, [(0, 1)], {0, 1})
    inst = Instance(g, frozenset({0, 1}), 2)
    family = family_of(inst)
    assert list(family) == [frozenset()]
    fx = hub_fan(3, 2)
    for z in family_of(fx.instance):
        assert not z & fx.instance.terminals


def test_deterministic_family_hits_required_selection():
    fx = hub_fan(3, 2, budget=1)
    family = family_of(fx.instance)
    assert any(
        fx.b(1) in z and fx.a(1) not in z for z in family
    )  # pair S={a1}, Y={b1}


def test_candidates_are_shadow_unions():
    fx = hub_fan(3, 2)
    shadows = set(build_collection(fx.instance).values())
    for z in family_of(fx.instance):
        assert z == frozenset().union(*[y for y in shadows if y <= z])


def test_deterministic_family_is_stable():
    fx = hub_fan(3, 2)
    a = family_of(fx.instance)
    b = family_of(fx.instance)
    assert a == b
    assert len(set(a)) == len(a)


def _reference_family(inst):
    """The walk over every deletable W of at most p vertices, in canonical
    order, that the union closure replaces: each distinct union of the exact
    reverse shadows (from their definition) of the members inside W, kept at
    its first W."""
    g = inst.graph
    members = list(build_collection(inst))
    shadows = [shadow(g, inst.terminals, m).exact_reverse for m in members]
    deletable = sorted(g.deletable - inst.terminals)
    candidates, seen = [], set()
    for size in range(min(inst.budget, len(deletable)) + 1):
        for w in combinations(deletable, size):
            wset = frozenset(w)
            z = frozenset().union(
                *(y for m, y in zip(members, shadows) if m <= wset)
            )
            if z not in seen:
                seen.add(z)
                candidates.append(z)
    return tuple(candidates)


def test_union_closure_matches_reference_walk():
    for i in range(200):
        n = 6 + (i * 7) % 15
        inst = generate_instance(
            7000 + i, n, 2.5 / n + 0.05 * (i % 3), 2 + i % 2, i % 4, 0.1 * (i % 2)
        )
        family = family_of(inst)
        assert family == _reference_family(inst), i
        inner = _second_stage(inst, family[-1])
        assert family_of(inner) == _reference_family(inner), (i, "second stage")


def _count_builds(monkeypatch):
    """Instances of every collection build and z1 of every inner instance
    that the walk makes, in order."""
    builds, reached = [], []
    real_stage = sampling._second_stage

    def counting_build(inst, base=None):
        builds.append(inst)
        return build_collection(inst, base)

    def counting_stage(inst, z1):
        reached.append(z1)
        return real_stage(inst, z1)

    monkeypatch.setattr(sampling, "build_collection", counting_build)
    monkeypatch.setattr(sampling, "_second_stage", counting_stage)
    return builds, reached


def test_one_collection_build_per_family(monkeypatch):
    builds, _ = _count_builds(monkeypatch)
    families = []
    real = sampling.deterministic_sets

    def counting(shadows, budget):
        families.append(shadows)
        return real(shadows, budget)

    monkeypatch.setattr(sampling, "deterministic_sets", counting)
    walk = list(candidates(generate_instance(17, 20, 2.5 / 20, 2, 2)))
    assert len(builds) == len(families) > 1
    assert len(walk) > 1


def test_a_yes_builds_only_the_inner_families_it_reaches(monkeypatch):
    # the walk stops at the candidate that solves the instance: no build when
    # z0 solves it (hub_fan), else one build for the outer family, then one
    # per z1 reached, never one per outer z1
    cases = [hub_fan(3, 2).instance, generate_instance(17, 20, 2.5 / 20, 2, 2)]
    outer = [family_of(inst) for inst in cases]
    builds, reached = _count_builds(monkeypatch)
    for inst, z1s, stop, built in zip(cases, outer, (0, 5), (0, 6)):
        builds.clear()
        reached.clear()
        assert solve_vertex(inst) is not None
        assert reached == list(z1s[:stop]) and len(z1s) > stop
        assert len(builds) == built


def _walk_that_builds_first(inst):
    """The walk with every collection built up front: the outer family, then
    each z1's inner family on the first inner build as its base, each
    distinct z1 | z2 once."""
    tried, base, out = set(), None, []
    for z1 in deterministic_sets(build_collection(inst), inst.budget):
        inner = _second_stage(inst, z1)
        shadows = build_collection(inner, base)
        base = base or (inner, shadows)
        for z2 in deterministic_sets(shadows, inst.budget):
            if (z := z1 | z2) not in tried:
                tried.add(z)
                out.append(z)
    return out


def test_walk_matches_the_walk_that_builds_first():
    # candidate for candidate the walk is the one that builds every
    # collection first, and its first candidate is V - (A & B): A reaches a
    # terminal, B is reached from one
    nonempty = longer = 0
    for i in range(200):
        n = 4 + i % 8
        inst = generate_instance(
            9100 + i, n, 0.15 + 0.05 * (i % 4), min(1 + i % 3, n), i % 4,
            0.2 if i % 4 == 3 else 0.0,
        )
        if i % 3 == 0:
            inst = Instance(with_loops_and_repeats(inst.graph), inst.terminals, inst.budget)
        walk = list(candidates(inst))
        assert walk == _walk_that_builds_first(inst), i
        assert walk[0] == first_candidate(inst), i
        nonempty += bool(walk[0])
        longer += len(walk) > 1
    assert nonempty >= 100 and longer >= 50


def test_the_walk_memo_stays_small():
    # the memo keeps each tried z as an int with bit v set; this walk's traced
    # peak was 0.95 MB with those ints and 4.84 MB with a frozenset per z, so
    # the bound is 2.1 times the first and under half the second
    inst = generate_instance(26, 40, 3.0 / 40, 3, 4)
    tracemalloc.start()
    try:
        count = sum(1 for _ in candidates(inst))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 8187
    assert peak < 2_000_000, peak


def test_a_yes_that_z0_solves_builds_nothing(monkeypatch):
    def no_build(inst, base=None):
        raise AssertionError("build_collection called")

    monkeypatch.setattr(sampling, "build_collection", no_build)
    fx = hub_fan(3, 2)
    assert solve_vertex(fx.instance) is not None
    with pytest.raises(AssertionError, match="build_collection called"):
        list(candidates(fx.instance))


def _coverage_pairs(inst):
    """Brute-force (thin S, Y) pairs the family must cover."""
    g = inst.graph
    coll = build_collection(inst)
    pool = sorted(g.deletable - inst.terminals)
    for s in subsets_upto(pool, inst.budget):
        if not is_thin(g, inst.terminals, s):
            continue
        y = frozenset(
            w for members, ws in coll.items() if members <= s for w in ws
        )
        yield s, y


def test_deterministic_coverage_on_random_instances():
    for seed in range(12):
        g = Digraph(7, random_digraph(seed, 7, 0.3).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        family = family_of(inst)
        for s, y in _coverage_pairs(inst):
            assert any(not s & z and y <= z for z in family), (seed, s, y)


def test_exact_shadows_in_universe_match_direct_computation():
    for seed in range(8):
        g = Digraph(7, random_digraph(seed, 7, 0.35).edges, {0, 1})
        inst = Instance(g, frozenset({0, 1}), 2)
        direct = {
            shadow(g, inst.terminals, members).exact_reverse
            for members in build_collection(inst)
        }
        assert set(build_collection(inst).values()) == direct
