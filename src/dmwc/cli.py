"""Command-line interface.

Exit codes: 0 = solved / feasible / verified, 1 = no solution (or a solution
file that fails `verify`), 2 = input error, 4 = solver bug: an answer failed
its own re-verification (nothing is printed to stdout).  The machine-readable
result goes to stdout ("SOLUTION k v1 ... vk" or "NO"); human-readable notes
go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .fileformat import FormatError, ProblemFile, parse, serialize
from .fixtures import named_fixture
from .graph import Instance
from .oracle import generate_instance
from .pipeline import (
    Solution,
    solve_edge,
    solve_multicut_k2,
    solve_vertex,
    verify_edge_cut,
    verify_multicut,
    verify_solution,
)
from .separators import enumerate_important
from .shadows import shadow


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmwc")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance", help="instance file, or - for stdin")
    solve.add_argument("--budget", type=int, default=None, help="override the file budget")
    solve.add_argument("--min-budget-search", action="store_true",
                       help="report a solution at the minimum feasible budget")
    solve.add_argument("--mode", choices=("deterministic", "randomized"),
                       default="deterministic")
    solve.add_argument("--seed", type=int, default=None,
                       help="seed for randomized mode (default: DMWC_SEED or 0)")

    seps = sub.add_parser("enumerate-seps", help="list important separators")
    seps.add_argument("instance")
    seps.add_argument("--source", required=True, help="comma-separated vertex ids")
    seps.add_argument("--target", required=True, help="comma-separated vertex ids")
    seps.add_argument("--budget", type=int, required=True)

    shad = sub.add_parser("shadow", help="shadow report of a vertex set")
    shad.add_argument("instance")
    shad.add_argument("--set", dest="vertex_set", required=True,
                      help="comma-separated vertex ids")

    gen = sub.add_parser("gen", help="emit a generated instance file")
    gen.add_argument("--fixture", default=None,
                     help="named fixture, e.g. remark2:r=3,k=2")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--density", type=float, default=0.25)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--infinite-fraction", type=float, default=0.0)

    ver = sub.add_parser("verify", help="check a solution file against an instance")
    ver.add_argument("instance")
    ver.add_argument("--solution", required=True, help="file with ids or a SOLUTION line")
    return parser


def _read_problem(path: str) -> ProblemFile:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, encoding="utf-8") as f:
        return parse(f.read())


def _parse_ids(raw: str) -> frozenset[int]:
    raw = raw.strip()
    if not raw:
        return frozenset()
    return frozenset(int(tok) for tok in raw.replace(",", " ").split())


def _print_solution(sol: Solution) -> None:
    items = sorted(sol.vertices) if sol.vertices is not None else list(sol.edges or ())
    print(f"SOLUTION {len(items)} " + " ".join(str(v) for v in items) if items
          else "SOLUTION 0")


def _solve_file(pf: ProblemFile, budget: int, mode: str, seed: int) -> Solution | None:
    if pf.kind == "vertex":
        inst = Instance(pf.graph, frozenset(pf.terminals), budget)
        return solve_vertex(inst, mode=mode, seed=seed)
    if pf.kind == "edge":
        inst = Instance(pf.graph, frozenset(pf.terminals), budget)
        return solve_edge(inst, mode=mode, seed=seed)
    return solve_multicut_k2(pf.graph, list(pf.pairs), budget, mode=mode, seed=seed)


def _cmd_solve(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    seed = args.seed if args.seed is not None else _env_int("DMWC_SEED", 0)
    budget = args.budget if args.budget is not None else pf.budget
    if budget < 0:
        print("error: budget must be non-negative", file=sys.stderr)
        return 2
    if args.min_budget_search and args.mode != "deterministic":
        # bisection needs feasibility to be monotone in the budget, which a
        # single randomized pass is not
        print("error: --min-budget-search requires --mode deterministic", file=sys.stderr)
        return 2
    sol = _solve_file(pf, budget, args.mode, seed)
    if sol is None:
        print("NO")
        return 1
    if args.min_budget_search:
        # deterministic feasibility is monotone in the budget, so bisect
        # below the hit
        lo, hi = 0, budget  # hi is known feasible
        best = sol
        while lo < hi:
            mid = (lo + hi) // 2
            trial = _solve_file(pf, mid, args.mode, seed)
            if trial is None:
                lo = mid + 1
            else:
                best, hi = trial, mid
        print(f"minimum feasible budget: {hi}", file=sys.stderr)
        sol = best
    _print_solution(sol)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    source = _parse_ids(args.source)
    target = _parse_ids(args.target)
    if not source or not target or source & target:
        print("error: source and target must be non-empty and disjoint", file=sys.stderr)
        return 2
    for sep in enumerate_important(pf.graph, source, target, args.budget):
        members = sorted(sep.members)
        print(f"SEP {len(members)} " + " ".join(map(str, members)) if members
              else "SEP 0")
    return 0


def _cmd_shadow(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    s = _parse_ids(args.vertex_set)
    terminals = frozenset(pf.terminals)
    if pf.kind == "multicut2":
        print("error: shadow needs a terminal-based instance", file=sys.stderr)
        return 2
    try:
        report = shadow(pf.graph, terminals, s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for label, vs in (
        ("FORWARD", report.forward),
        ("REVERSE", report.reverse),
        ("EXACT-FORWARD", report.exact_forward),
        ("EXACT-REVERSE", report.exact_reverse),
    ):
        ordered = sorted(vs)
        print(f"{label} {len(ordered)}" + ("" if not ordered else " " + " ".join(map(str, ordered))))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.fixture is not None:
        inst = named_fixture(args.fixture)
    else:
        seed = args.seed if args.seed is not None else _env_int("DMWC_SEED", 0)
        inst = generate_instance(
            seed, args.n, args.density, args.k, args.p, args.infinite_fraction
        )
    pf = ProblemFile(
        "vertex", inst.graph, inst.budget, tuple(sorted(inst.terminals))
    )
    sys.stdout.write(serialize(pf))
    return 0


def _read_solution_ids(path: str) -> list[int]:
    with open(path, encoding="utf-8") as f:
        tokens = f.read().split()
    if tokens and tokens[0] == "SOLUTION":
        count, tokens = tokens[1:2], tokens[2:]
        if not count or not count[0].isdecimal() or int(count[0]) != len(tokens):
            raise ValueError(f"SOLUTION line must give the count of its {len(tokens)} id(s)")
    return [int(t) for t in tokens]


def _cmd_verify(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    try:
        ids = _read_solution_ids(args.solution)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if pf.kind == "vertex":
        ok = verify_solution(pf.to_instance(), ids)
    elif pf.kind == "edge":
        ok = verify_edge_cut(pf.to_instance(), ids)
    else:
        ok = verify_multicut(pf.graph, pf.pairs, pf.budget, ids)
    print("OK" if ok else "INVALID")
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "solve":
            try:
                return _cmd_solve(args)
            except RuntimeError as exc:  # an answer failed re-verification
                print(f"error: {exc}", file=sys.stderr)
                return 4
        if args.command == "enumerate-seps":
            return _cmd_enumerate(args)
        if args.command == "shadow":
            return _cmd_shadow(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_verify(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
