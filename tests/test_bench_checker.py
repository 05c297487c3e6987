"""Differential check above brute-force size: the bench's own checker, which
shares no code with dmwc, must accept every deterministic answer of each
file kind, NO included (it proves a NO by exhaustive search)."""

import importlib.util
import sys
from pathlib import Path

from conftest import bound_decides
from dmwc.fileformat import ProblemFile, from_instance, serialize
from dmwc.graph import Digraph
from dmwc.oracle import generate_instance
from dmwc.pipeline import solve_edge, solve_multicut_k2, solve_vertex

CHECK = Path(__file__).resolve().parent.parent / "bench" / "check.py"

# generate_instance(s, n, 2.5/n, 2, p) for n = 30 + 5s mod 11 and p = 2 + s mod 2;
# the packing of terminal paths decides seeds 0, 2, 4, 6, 8, 14, 16, 18-21 and
# 23, and seed 5 is a walked NO that takes 0.15 s
SEEDS = tuple(range(24))
# the same shapes with a fifth of the other vertices undeletable: the packing
# decides seeds 0, 2, 4-6, 8, 14-21 and 23, and seed 147 is a walked NO that
# takes 0.17 s
UNDELETABLE_SEEDS = tuple(range(24)) + (147,)
# reference size, generate_instance(s, n, 2.5/n, 2, 2) for n = 45 + 5s mod 16:
# the packing decides seeds 0-6, 8-10 and 18-20, seed 43 is a walked NO that
# takes 0.12 s, and seed 15 is YES in 0.2 s
REFERENCE_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 43)
# edge files at n = 14 + s mod 7: the packing decides all 20 NOs, and no seed
# takes more than 0.04 s to solve
REFERENCE_EDGE_SEEDS = range(24)


def _load_checker():
    spec = importlib.util.spec_from_file_location("bench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _corpus_shape(s):
    return 30 + (s * 5) % 11, 2 + s % 2


def _vertex_answers(seeds, infinite_fraction, shape=_corpus_shape):
    check = _load_checker()
    kinds = set()
    for s in seeds:
        n, p = shape(s)
        inst = generate_instance(s, n, 2.5 / n, 2, p, infinite_fraction)
        if infinite_fraction:  # the fraction must leave non-terminal undeletables
            assert inst.graph.infinite > inst.terminals, s
        sol = solve_vertex(inst)
        answer = None if sol is None else tuple(sorted(sol.vertices))
        prob = check.read_problem(serialize(from_instance(inst)))
        assert check.check_answer(prob, answer) is None, s
        bound = bound_decides(inst)
        kinds.add("yes" if sol is not None else "bound no" if bound else "walked no")
    return kinds


def test_checker_accepts_every_answer():
    assert _vertex_answers(SEEDS, 0.0) == {"yes", "walked no", "bound no"}


def test_checker_accepts_answers_with_undeletable_vertices():
    assert _vertex_answers(UNDELETABLE_SEEDS, 0.2) == {"yes", "walked no", "bound no"}


def test_checker_accepts_answers_at_reference_size():
    kinds = _vertex_answers(REFERENCE_SEEDS, 0.0, lambda s: (45 + (s * 5) % 16, 2))
    assert kinds == {"yes", "walked no", "bound no"}


def test_checker_accepts_edge_answers():
    check = _load_checker()
    kinds = set()
    for s in range(20):
        n, p = 8 + s % 5, 1 + s % 2
        inst = generate_instance(s, n, 2.5 / n, 2 + (s // 2) % 2, p)
        sol = solve_edge(inst)
        answer = None if sol is None else sol.edges
        prob = check.read_problem(serialize(from_instance(inst, "edge")))
        assert check.check_answer(prob, answer) is None, s
        kinds.add("no" if sol is None else "yes")
    assert kinds == {"yes", "no"}


def test_checker_accepts_edge_answers_at_reference_size():
    check = _load_checker()
    kinds = set()
    for s in REFERENCE_EDGE_SEEDS:
        n, p = 14 + s % 7, 1 + s % 2
        inst = generate_instance(s, n, 2.5 / n, 2 + (s // 2) % 2, p)
        sol = solve_edge(inst)
        answer = None if sol is None else sol.edges
        prob = check.read_problem(serialize(from_instance(inst, "edge")))
        assert check.check_answer(prob, answer) is None, s
        kinds.add("no" if sol is None else "yes")
    assert kinds == {"yes", "no"}


def _multicut2_answers(shape):
    # built as the reductions corpus builds them: the generator's four
    # terminals, sorted, make the two pairs, and no vertex is undeletable
    check = _load_checker()
    kinds = set()
    for s in range(20):
        n, p = shape(s)
        inst = generate_instance(s, n, 2.5 / n, 4, p)
        a, b, c, d = sorted(inst.terminals)
        g = Digraph(n, inst.graph.edges)
        sol = solve_multicut_k2(g, [(a, b), (c, d)], p)
        answer = None if sol is None else tuple(sorted(sol.vertices))
        pf = ProblemFile("multicut2", g, p, pairs=((a, b), (c, d)))
        assert check.check_answer(check.read_problem(serialize(pf)), answer) is None, s
        kinds.add("no" if sol is None else "yes")
    return kinds


def test_checker_accepts_multicut2_answers():
    assert _multicut2_answers(lambda s: (12 + (s * 3) % 9, 1 + s % 2)) == {"yes", "no"}


def test_checker_accepts_multicut2_answers_above_brute_force_size():
    # n = 21..30; the packing decides 6 of the 7 NOs, and the walk decides
    # seed 10
    assert _multicut2_answers(lambda s: (21 + (s * 3) % 10, 1 + s % 2)) == {"yes", "no"}
