from itertools import combinations

from conftest import random_digraph, subsets_upto
from dmwc import sampling
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, Instance
from dmwc.oracle import generate_instance
from dmwc.pipeline import _second_stage
from dmwc.sampling import deterministic_sets
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
    shadows = set(build_collection(fx.instance).values())
    for z in deterministic_sets(fx.instance):
        assert z == frozenset().union(*[y for y in shadows if y <= z])


def test_deterministic_family_is_stable():
    fx = hub_fan(3, 2)
    a = deterministic_sets(fx.instance)
    b = deterministic_sets(fx.instance)
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
    deletable = sorted(g.deletable() - inst.terminals)
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
        family = deterministic_sets(inst)
        assert family == _reference_family(inst), i
        inner = _second_stage(inst, family[-1])
        assert deterministic_sets(inner) == _reference_family(inner), (i, "second stage")


def test_one_collection_build_per_family(monkeypatch):
    calls = []

    def counting(inst, base=None):
        calls.append(inst)
        return build_collection(inst, base)

    monkeypatch.setattr(sampling, "build_collection", counting)
    fx = hub_fan(3, 2)
    family = deterministic_sets(fx.instance)
    assert len(calls) == 1
    assert len(family) > 1


def _coverage_pairs(inst):
    """Brute-force (thin S, Y) pairs the family must cover."""
    g = inst.graph
    coll = build_collection(inst)
    pool = sorted(g.deletable() - inst.terminals)
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
        family = list(deterministic_sets(inst))
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
