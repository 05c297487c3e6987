"""Acceptance gate: one test per release criterion, each reporting a pass/fail
line on the terminal even when pytest captures output."""

from functools import lru_cache

from conftest import (
    brute_edge,
    brute_multicut,
    random_digraph,
    small_instances,
    subsets_upto,
)
from dmwc.fixtures import hub_fan
from dmwc.graph import Digraph, min_vertex_separator, reachable_from
from dmwc.oracle import (
    brute_force_important,
    brute_force_mwc,
    generate_instance,
)
from dmwc.pipeline import solve_edge, solve_multicut_k2, solve_vertex, verify_solution
from dmwc.rng import SplitMix64
from dmwc.sampling import deterministic_sets
from dmwc.separators import build_collection, enumerate_important
from dmwc.shadows import is_thin, neighborhood_weight, shadow
from dmwc.torso import torso

MAX_P = 3


def _report(capsys, name, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


@lru_cache(maxsize=1)
def _separator_corpus():
    """200 seeded digraphs (n <= 10) with, per ordered vertex pair, the
    minimum-separator size and the important separators up to size 3."""
    corpus = []
    for i in range(200):
        n = 4 + i % 7
        g = random_digraph(i, n, 0.2 + 0.05 * (i % 4), 0.1 if i % 5 == 0 else 0.0)
        pairs = []
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                found = min_vertex_separator(g, {x}, {y})
                lam = None if found is None else len(found)
                seps = set(enumerate_important(g, {x}, {y}, MAX_P))
                pairs.append((x, y, lam, seps))
        corpus.append((g, pairs))
    return corpus


@lru_cache(maxsize=1)
def _solver_corpus():
    return tuple(small_instances(500))


def test_criterion_01_important_separator_count_bound(capsys):
    ok = True
    for g, pairs in _separator_corpus():
        for x, y, lam, seps in pairs:
            if lam is None:
                ok = ok and not seps
                continue
            for p in range(MAX_P + 1):
                count = sum(1 for s in seps if len(s) <= p)
                bound = 0 if p < lam else min(4**p, 2 ** (2 * p - lam))
                ok = ok and count <= bound
    _report(capsys, "criterion 1: important-separator count bound", ok)


def test_criterion_02_enumeration_matches_brute_force(capsys):
    mismatches = 0
    for g, pairs in _separator_corpus():
        for x, y, lam, seps in pairs:
            slow = set(brute_force_important(g, {x}, {y}, MAX_P))
            if seps != slow:
                mismatches += 1
    _report(capsys, "criterion 2: enumeration equals brute force", mismatches == 0)


def test_criterion_03_hub_fan_fixture(capsys):
    fx = hub_fan(3, 2, budget=2)
    a1, a2, a3 = fx.a(1), fx.a(2), fx.a(3)
    sets = set(build_collection(fx.instance))
    expect = {
        frozenset({a1}),
        frozenset({a2}),
        frozenset({a3}),
        frozenset({a1, a2}),
        frozenset({a1, a3}),
        frozenset({a2, a3}),
    }
    rep = shadow(fx.instance.graph, fx.instance.terminals, {a1, a2})
    ok = (
        sets == expect
        and rep.reverse == {fx.b(1), fx.b(2), fx.c(1, 2)}
        and rep.exact_reverse == {fx.c(1, 2)}
    )
    _report(capsys, "criterion 3: hub-fan fixture values", ok)


def test_criterion_04_torso_preserves_separation(capsys):
    ok = True
    for seed in range(100):
        g = random_digraph(seed, 5, 0.35)
        rng = SplitMix64(seed + 7777)
        for kept in subsets_upto(range(5), 5):
            if len(kept) < 2:
                continue
            tg = Digraph(g.vertex_count, torso(g, kept), g.infinite)
            samples = [frozenset()] + [
                frozenset(v for v in kept if rng.coin()) for _ in range(3)
            ]
            for s in samples:
                for a in kept - s:
                    in_g = reachable_from(g, {a}, s) & kept
                    ok = ok and reachable_from(tg, {a}, s) == in_g
    _report(capsys, "criterion 4: torso preserves separation", ok)


def test_criterion_05_submodularity(capsys):
    rng = SplitMix64(99)
    violations = 0
    for trial in range(10_000):
        n = 5 + trial % 4
        g = random_digraph(trial, n, 0.3, 0.15)
        a = frozenset(v for v in range(n) if rng.coin())
        b = frozenset(v for v in range(n) if rng.coin())
        w = n + 1
        lhs = neighborhood_weight(g, a, w) + neighborhood_weight(g, b, w)
        rhs = neighborhood_weight(g, a | b, w) + neighborhood_weight(g, a & b, w)
        if lhs < rhs:
            violations += 1
    _report(capsys, "criterion 5: out-neighborhood submodularity", violations == 0)


def test_criterion_06_deterministic_sampling_coverage(capsys):
    ok = True
    for i in range(50):
        inst = generate_instance(6000 + i, 5 + i % 5, 0.2 + 0.04 * (i % 4), 2, i % 3)
        g = inst.graph
        collection = build_collection(inst)
        family = list(deterministic_sets(inst))
        pool = sorted(g.deletable() - inst.terminals)
        for s in subsets_upto(pool, inst.budget):
            if not is_thin(g, inst.terminals, s):
                continue
            y = frozenset(
                w for members, ws in collection.items() if members <= s for w in ws
            )
            ok = ok and any(not s & z and y <= z for z in family)
    _report(capsys, "criterion 6: deterministic sampling coverage", ok)


def test_criterion_07_end_to_end_equivalence(capsys):
    ok = True
    for inst in _solver_corpus():
        got = solve_vertex(inst)
        want = brute_force_mwc(inst)
        ok = ok and (got is None) == (want is None)
        if got is not None:
            ok = ok and verify_solution(inst, got.vertices)
    _report(capsys, "criterion 7: solver agrees with brute force", ok)


def test_criterion_08_reductions_match_brute_force(capsys):
    ok = True
    for i in range(200):
        inst = generate_instance(8000 + i, 3 + i % 5, 0.25 + 0.05 * (i % 3), 2, i % 3)
        got = solve_edge(inst)
        want = brute_edge(inst.graph, inst.terminals, inst.budget) is not None
        ok = ok and (got is not None) == want
    for i in range(200):
        g = random_digraph(9000 + i, 4 + i % 5, 0.25, 0.1 if i % 4 == 0 else 0.0)
        pairs = [(0, 1), (2, 3)]
        p = i % 3
        got = solve_multicut_k2(g, pairs, p)
        want = brute_multicut(g, pairs, p) is not None
        ok = ok and (got is not None) == want
    _report(capsys, "criterion 8: edge and two-pair reductions", ok)


def test_criterion_09_minimal_solutions_are_thin(capsys):
    ok = True
    for inst in _solver_corpus()[:150]:
        g = inst.graph
        pool = sorted(g.deletable() - inst.terminals)
        feasible = [
            s
            for s in subsets_upto(pool, inst.budget)
            if verify_solution(inst, s)
        ]
        for s in feasible:
            if any(t < s for t in feasible):
                continue
            ok = ok and is_thin(g, inst.terminals, s)
    _report(capsys, "criterion 9: inclusion-minimal cuts are thin", ok)


def test_criterion_10_determinism(capsys):
    ok = True
    for inst in _solver_corpus()[:60]:
        a = repr(solve_vertex(inst))
        b = repr(solve_vertex(inst))
        ok = ok and a == b
    _report(capsys, "criterion 10: repeated runs are byte-identical", ok)
