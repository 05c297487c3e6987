"""Differential check above brute-force size: the bench's own checker, which
shares no code with dmwc, must accept every deterministic answer, NO
included (it proves a NO by exhaustive search)."""

import importlib.util
import sys
from pathlib import Path

from dmwc.fileformat import from_instance, serialize
from dmwc.graph import connected_terminal
from dmwc.oracle import generate_instance
from dmwc.pipeline import solve_vertex

CHECK = Path(__file__).resolve().parent.parent / "bench" / "check.py"

# generate_instance(s, n, 2.5/n, 2, p) for n = 30 + 5s mod 11 and p = 2 + s mod 2;
# seeds 2, 4, 5, 6, 8, 16, 19 and 23 are NO too but take 0.25-1.6 s each to
# solve, so they are left out to keep this test near half a second
SEEDS = (0, 1, 3, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 20, 21, 22)


def _load_checker():
    spec = importlib.util.spec_from_file_location("bench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_checker_accepts_every_answer():
    check = _load_checker()
    kinds = set()
    for s in SEEDS:
        n, p = 30 + (s * 5) % 11, 2 + s % 2
        inst = generate_instance(s, n, 2.5 / n, 2, p)
        sol = solve_vertex(inst)
        answer = None if sol is None else tuple(sorted(sol.vertices))
        prob = check.read_problem(serialize(from_instance(inst)))
        assert check.check_answer(prob, answer) is None, s
        g = inst.graph
        joined = connected_terminal(g, inst.terminals, g.deletable()) is not None
        kinds.add("yes" if sol is not None else "joined no" if joined else "no")
    assert kinds == {"yes", "no", "joined no"}
