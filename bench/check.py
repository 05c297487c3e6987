"""Independent answer checker for dmwc instance files.

Standard library only, and it imports nothing from `dmwc`: it has its own
reader for the file format, its own reachability and its own exact search, so
a fault in the solver cannot hide in shared code.

A YES answer (a cut) is checked directly: size within the budget, ids in
range and distinct, no undeletable vertex in a vertex cut, and a BFS per
request confirms that nothing stays connected.  A NO answer is checked by an
exhaustive search for a cut of size at most the budget.  The search branches
on the deletable elements of one surviving request path; the pruning
argument is in `bench/README.md` ("Exhaustive search").

    python3 bench/check.py --selftest     # checker self-test, exits 1 on a fault
"""

from __future__ import annotations

import random
import sys
from collections import deque
from itertools import combinations
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Problem:
    """One parsed instance file."""

    kind: str  # "vertex", "edge" or "multicut2"
    n: int
    budget: int
    terminals: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    undeletable: frozenset[int]
    edges: tuple[tuple[int, int], ...]

    def requests(self) -> list[tuple[int, int]]:
        """Ordered (source, target) pairs that a cut must disconnect."""
        if self.kind == "multicut2":
            return list(self.pairs)
        return [(s, t) for s in self.terminals for t in self.terminals if s != t]

    def out_arcs(self) -> list[list[tuple[int, int]]]:
        """Per vertex, the (head, edge index) of every out-edge."""
        arcs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            arcs[u].append((v, i))
        return arcs


def read_problem(text: str) -> Problem:
    """Read the line format: `dmwc KIND`, `n`, `p`, `t`, `pair`, `inf`, `e`."""
    kind = None
    n = budget = None
    terminals: list[int] = []
    pairs: list[tuple[int, int]] = []
    inf: list[int] = []
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        key = words[0]
        if key == "dmwc":
            kind = words[1]
            continue
        args = [int(w) for w in words[1:]]
        if key == "n":
            n = args[0]
        elif key == "p":
            budget = args[0]
        elif key == "t":
            terminals.append(args[0])
        elif key == "pair":
            pairs.append((args[0], args[1]))
        elif key == "inf":
            inf.append(args[0])
        elif key == "e":
            edges.append((args[0], args[1]))
        else:
            raise ValueError(f"unknown directive {key!r}")
    if kind not in ("vertex", "edge", "multicut2") or n is None or budget is None:
        raise ValueError("incomplete instance header")
    undeletable = set(inf)
    if kind != "multicut2":
        undeletable |= set(terminals)
    return Problem(
        kind, n, budget, tuple(sorted(set(terminals))), tuple(pairs),
        frozenset(undeletable), tuple(edges),
    )


def surviving_path(
    prob: Problem,
    arcs: list[list[tuple[int, int]]],
    gone_vertices: frozenset[int],
    gone_edges: frozenset[int],
) -> tuple[list[int], list[int]] | None:
    """A shortest path (vertices, edge indices) of the first request that is
    still connected after the removals, or None when every request is cut.

    A multicut2 request whose endpoint was removed counts as cut.
    """
    for s, t in prob.requests():
        if s in gone_vertices or t in gone_vertices:
            continue
        came: dict[int, tuple[int, int]] = {s: (-1, -1)}
        queue = deque([s])
        while queue and t not in came:
            u = queue.popleft()
            for w, i in arcs[u]:
                if w not in came and w not in gone_vertices and i not in gone_edges:
                    came[w] = (u, i)
                    queue.append(w)
        if t in came:
            verts, idxs = [t], []
            while verts[-1] != s:
                u, i = came[verts[-1]]
                verts.append(u)
                idxs.append(i)
            return verts[::-1], idxs[::-1]
    return None


def find_cut(prob: Problem, budget: int) -> tuple[int, ...] | None:
    """A cut of at most `budget` elements (vertex ids, or edge indices for
    the edge kind), or None when none exists.  Exhaustive: see the module
    docstring for the branching rule."""
    arcs = prob.out_arcs()
    edge_kind = prob.kind == "edge"
    failed: set[frozenset[int]] = set()

    def search(cut: frozenset[int], left: int) -> frozenset[int] | None:
        if cut in failed:
            return None
        if edge_kind:
            path = surviving_path(prob, arcs, frozenset(), cut)
        else:
            path = surviving_path(prob, arcs, cut, frozenset())
        if path is None:
            return cut
        if left > 0:
            verts, idxs = path
            choices = idxs if edge_kind else [v for v in verts if v not in prob.undeletable]
            for c in choices:
                found = search(cut | {c}, left - 1)
                if found is not None:
                    return found
        failed.add(cut)
        return None

    found = search(frozenset(), budget)
    return None if found is None else tuple(sorted(found))


def min_cut_size(prob: Problem, limit: int) -> int | None:
    """Size of a smallest cut if it is at most `limit`, else None."""
    for size in range(limit + 1):
        if find_cut(prob, size) is not None:
            return size
    return None


def check_cut(prob: Problem, cut: tuple[int, ...]) -> str | None:
    """None when `cut` is a valid YES answer, else the reason it is not."""
    if len(set(cut)) != len(cut):
        return "repeated element"
    if len(cut) > prob.budget:
        return f"size {len(cut)} exceeds budget {prob.budget}"
    if prob.kind == "edge":
        if any(not 0 <= i < len(prob.edges) for i in cut):
            return "edge index out of range"
        gone_vertices, gone_edges = frozenset(), frozenset(cut)
    else:
        if any(not 0 <= v < prob.n for v in cut):
            return "vertex id out of range"
        if set(cut) & prob.undeletable:
            return "cut contains an undeletable vertex"
        gone_vertices, gone_edges = frozenset(cut), frozenset()
    path = surviving_path(prob, prob.out_arcs(), gone_vertices, gone_edges)
    if path is not None:
        return f"request {path[0][0]}->{path[0][-1]} stays connected"
    return None


def check_answer(prob: Problem, answer: tuple[int, ...] | None) -> str | None:
    """None when the answer (a cut, or None for NO) is right, else why not."""
    if answer is not None:
        return check_cut(prob, answer)
    witness = find_cut(prob, prob.budget)
    if witness is not None:
        return f"false NO: {list(witness)} is a cut within budget"
    return None


# ---------------------------------------------------------------- self-test


def _random_text(seed: int, kind: str) -> str:
    """A small random instance, made without dmwc.  No edge joins two
    terminals directly, though a path through an `inf` vertex may."""
    rand = random.Random(seed)
    n = rand.randint(5, 8)
    ends = {0, 1, 2} if kind != "multicut2" else set()
    lines = [f"dmwc {kind}", f"n {n}", "p 1"]
    if kind == "multicut2":
        lines += ["pair 0 1", "pair 2 3"]
    else:
        lines += ["t 0", "t 1", "t 2"]
        if rand.random() < 0.5:
            lines.append(f"inf {n - 1}")
    for u in range(n):
        for v in range(n):
            if u != v and not {u, v} <= ends and rand.random() < 0.25:
                lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _brute_min(prob: Problem) -> int | None:
    """Smallest cut size by plain subset enumeration (no pruning), or None
    when an all-undeletable path joins some request."""
    if prob.kind == "edge":
        pool = list(range(len(prob.edges)))
    else:
        pool = [v for v in range(prob.n) if v not in prob.undeletable]
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            if check_cut(replace(prob, budget=size), combo) is None:
                return size
    return None


def selftest(instances: int = 60) -> list[str]:
    """Faults found in the checker itself; empty when it behaves."""
    faults: list[str] = []
    two_cycle = "dmwc vertex\nn 4\np 2\nt 0\nt 1\ne 0 2\ne 2 1\ne 1 3\ne 3 0\n"
    prob = read_problem(two_cycle)
    if check_answer(prob, (2, 3)) is not None:
        faults.append("two-cycle: the cut {2, 3} was rejected")
    for partial in [(2,), (3,)]:
        if check_answer(prob, partial) is None:
            faults.append(f"two-cycle: the partial cut {partial} was accepted")
    for bad, why in [((0,), "through a terminal"), ((2, 2, 3), "with a repeat"),
                     ((2, 3, 4), "with an id out of range")]:
        if check_answer(replace(prob, budget=3), bad) is None:
            faults.append(f"two-cycle: the cut {bad} {why} was accepted")
    if check_answer(replace(prob, budget=1), (2, 3)) is None:
        faults.append("two-cycle: a cut over budget was accepted")
    if check_answer(prob, None) is None:
        faults.append("two-cycle: a false NO at p=2 was accepted")
    if check_answer(replace(prob, budget=1), None) is not None:
        faults.append("two-cycle: a true NO at p=1 was rejected")

    for seed in range(instances):
        kind = ("vertex", "edge", "multicut2")[seed % 3]
        prob = read_problem(_random_text(seed, kind))
        exact = _brute_min(prob)
        if exact is None:
            if find_cut(prob, prob.n) is not None:
                faults.append(f"seed {seed} ({kind}): a cut found where none exists")
            continue
        size = min_cut_size(prob, exact)
        if size != exact:
            faults.append(f"seed {seed} ({kind}): search says {size}, enumeration {exact}")
            continue
        at = replace(prob, budget=exact)
        cut = find_cut(at, exact)
        if cut is None or check_answer(at, cut) is not None:
            faults.append(f"seed {seed} ({kind}): minimum cut {cut} rejected")
            continue
        for drop in cut:  # a minimum cut has no valid proper subset
            if check_answer(at, tuple(x for x in cut if x != drop)) is None:
                faults.append(f"seed {seed} ({kind}): cut without {drop} accepted")
        if check_answer(at, None) is None:
            faults.append(f"seed {seed} ({kind}): false NO at p={exact} accepted")
        # an undeletable vertex, or an edge index out of range, spoils a cut
        bad = len(prob.edges) if prob.kind == "edge" else min(prob.undeletable, default=None)
        if bad is not None and check_answer(replace(prob, budget=exact + 1), cut + (bad,)) is None:
            faults.append(f"seed {seed} ({kind}): cut with bad element {bad} accepted")
        if exact > 0 and check_answer(replace(prob, budget=exact - 1), None) is not None:
            faults.append(f"seed {seed} ({kind}): true NO at p={exact - 1} rejected")
    return faults


def main(argv: list[str]) -> int:
    if argv != ["--selftest"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    faults = selftest()
    for fault in faults:
        print("FAULT", fault)
    print("checker self-test:", "FAIL" if faults else "ok")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
