"""Command-line interface.

Exit codes: 0 = solved / feasible / verified, 1 = no solution (or a solution
file that fails `verify`), 2 = input error, 4 = solver bug in any subcommand:
an answer failed its own re-verification or an internal check of the solver
(max-flow, cut extraction, recursion depth) failed; nothing is printed to
stdout.  The machine-readable result goes to stdout ("SOLUTION k v1 ... vk"
or "NO"); human-readable notes go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from .fileformat import (
    MAX_VERTICES, ProblemFile, from_instance, parse, serialize,
)
from .fixtures import named_fixture
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
    solve.set_defaults(run=_cmd_solve)

    seps = sub.add_parser("enumerate-seps", help="list important separators")
    seps.add_argument("instance")
    seps.add_argument("--source", required=True, help="comma-separated vertex ids")
    seps.add_argument("--target", required=True, help="comma-separated vertex ids")
    seps.add_argument("--budget", type=int, required=True)
    seps.set_defaults(run=_cmd_enumerate)

    shad = sub.add_parser("shadow", help="shadow report of a vertex set")
    shad.add_argument("instance")
    shad.add_argument("--set", dest="vertex_set", required=True,
                      help="comma-separated vertex ids")
    shad.set_defaults(run=_cmd_shadow)

    gen = sub.add_parser("gen", help="emit a generated instance file")
    gen.add_argument("--fixture", default=None,
                     help="named fixture, e.g. remark2:r=3,k=2")
    gen.add_argument("--seed", type=int, default=None, help="default: DMWC_SEED or 0")
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--density", type=float, default=0.25)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--infinite-fraction", type=float, default=0.0)
    gen.set_defaults(run=_cmd_gen)

    ver = sub.add_parser("verify", help="check a solution file against an instance")
    ver.add_argument("instance")
    ver.add_argument("--solution", required=True, help="file with ids or a SOLUTION line")
    ver.set_defaults(run=_cmd_verify)
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


def _print_ids(label: str, ids: Sequence[int]) -> None:
    print(" ".join([label, str(len(ids)), *map(str, ids)]))


def _solve_file(pf: ProblemFile, budget: int) -> Solution | None:
    if pf.kind == "multicut2":
        return solve_multicut_k2(pf.graph, list(pf.pairs), budget)
    solve = solve_vertex if pf.kind == "vertex" else solve_edge
    return solve(dataclasses.replace(pf, budget=budget).to_instance())


def _cmd_solve(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    budget = args.budget if args.budget is not None else pf.budget
    sol = _solve_file(pf, budget)
    if sol is None:
        print("NO")
        return 1
    if args.min_budget_search:
        # feasibility is monotone in the budget, so bisect below the hit
        lo, hi = 0, budget  # hi is known feasible
        best = sol
        while lo < hi:
            mid = (lo + hi) // 2
            trial = _solve_file(pf, mid)
            if trial is None:
                lo = mid + 1
            else:
                best, hi = trial, mid
        print(f"minimum feasible budget: {hi}", file=sys.stderr)
        sol = best
    _print_ids("SOLUTION", sorted(sol.vertices if sol.edges is None else sol.edges))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    source = _parse_ids(args.source)
    target = _parse_ids(args.target)
    for sep in enumerate_important(pf.graph, source, target, args.budget):
        _print_ids("SEP", sorted(sep))
    return 0


def _cmd_shadow(args: argparse.Namespace) -> int:
    pf = _read_problem(args.instance)
    s = _parse_ids(args.vertex_set)
    inst = pf.to_instance()
    report = shadow(inst.graph, inst.terminals, s)
    for label, vs in (
        ("FORWARD", report.forward),
        ("REVERSE", report.reverse),
        ("EXACT-FORWARD", report.exact_forward),
        ("EXACT-REVERSE", report.exact_reverse),
    ):
        _print_ids(label, sorted(vs))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.fixture is not None:
        inst = named_fixture(args.fixture)
    else:
        if args.n > MAX_VERTICES:  # parse would reject the file anyway
            print(f"error: --n {args.n} exceeds the limit {MAX_VERTICES}", file=sys.stderr)
            return 2
        seed = args.seed if args.seed is not None else _env_int("DMWC_SEED", 0)
        inst = generate_instance(
            seed, args.n, args.density, args.k, args.p, args.infinite_fraction
        )
    sys.stdout.write(serialize(from_instance(inst)))
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
    ids = _read_solution_ids(args.solution)
    if len(set(ids)) != len(ids):  # a cut names each vertex or edge once
        ok = False
    elif pf.kind == "vertex":
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
        return args.run(args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a solver check failed: a bug, never "no solution"
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
