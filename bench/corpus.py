"""Seeded corpora of instance files, one per workload.

A workload is a list of strata.  Each stratum asks for `count` instances of
one file kind, cycling through its vertex counts and budgets, all of one
answer class: "no" (no cut of size <= p), "yes" (a cut of size 1..p), or the
two halves of "yes": "yes-undirected" (a cut of size <= p exists even with
every edge made two-way) and "yes-directed" (it does not).  Candidates come
from `dmwc.generate_instance` under generator seeds derived from the workload
seed, and the benchmark's own exact search (`check.find_cut`) sorts them
into classes.  So each seed gives the same make-up of sizes, budgets and
classes, and only the graphs differ; the selection never looks at how the
solver behaves.

Candidates are skipped when their class is not the one asked for, when the
terminals are already separated (the empty cut would be the answer), or, for
the vertex kind, when an edge joins two terminals directly (no vertex cut
exists then at any budget, so the budget plays no part).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import check


@dataclass(frozen=True)
class Stratum:
    kind: str                  # "vertex", "edge" or "multicut2"
    sizes: tuple[int, ...]     # vertex counts, used in turn
    budgets: tuple[int, ...]   # budgets p, used in turn
    degree: float              # expected out-degree; edge density is degree/n
    terminals: int             # terminals (4 endpoints for multicut2)
    answer: str                # "no", "yes", "yes-undirected" or "yes-directed"
    count: int


WORKLOADS: dict[str, tuple[Stratum, ...]] = {
    # The ROADMAP corpus shape (density 2.5/n) at sizes where a round takes
    # seconds: max-flow under build_collection dominates, the W walk is small.
    "vertex-sparse": (
        Stratum("vertex", (32, 40, 48, 56), (2,), 2.5, 2, "yes-undirected", 12),
        Stratum("vertex", (16, 18), (2,), 2.5, 2, "yes-directed", 20),
        Stratum("vertex", (14, 16), (2,), 2.5, 3, "no", 80),
    ),
    # Dense graphs (density 0.22-0.36) with budgets 6-7: the walk over
    # subsets W in deterministic_sets takes a far larger share than on
    # sparse graphs.
    "vertex-dense": (
        Stratum("vertex", (16, 18), (6, 7), 4.5, 2, "yes-undirected", 14),
        Stratum("vertex", (20,), (7,), 4.5, 2, "yes-undirected", 2),
        Stratum("vertex", (14,), (6,), 5.0, 3, "no", 56),
    ),
    # The edge gadget (p+1 copies of each vertex) and the two-pair multicut
    # gadget; neither appears in the vertex workloads.
    "reductions": (
        Stratum("edge", (6,), (2,), 2.5, 2, "yes", 16),
        Stratum("edge", (9, 10), (1,), 2.5, 3, "yes", 16),
        Stratum("edge", (6,), (2,), 2.5, 2, "no", 12),
        Stratum("edge", (9, 10), (1,), 2.5, 3, "no", 16),
        Stratum("multicut2", (24, 30), (2,), 2.5, 4, "yes", 16),
        Stratum("multicut2", (24,), (1,), 2.5, 4, "no", 12),
    ),
}

MAX_ATTEMPTS = 2000  # per instance slot; exceeding it is a corpus-design fault


@dataclass(frozen=True)
class Spec:
    """Everything needed to rebuild one instance file."""

    kind: str
    gen_seed: int
    n: int
    density: float
    terminals: int
    budget: int
    answer: str


def derived_seed(*parts: object) -> int:
    digest = hashlib.blake2b("/".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def problem_file(dmwc, spec: Spec):
    """The dmwc ProblemFile for `spec`, built with the library's generator."""
    inst = dmwc.oracle.generate_instance(
        spec.gen_seed, spec.n, spec.density, spec.terminals, spec.budget)
    if spec.kind == "multicut2":
        a, b, c, d = sorted(inst.terminals)
        graph = dmwc.graph.Digraph(spec.n, inst.graph.edges)
        return dmwc.fileformat.ProblemFile(
            "multicut2", graph, spec.budget, pairs=((a, b), (c, d)))
    return dmwc.fileformat.from_instance(inst, spec.kind)


def _wanted(spec: Spec, text: str) -> bool:
    prob = check.read_problem(text)
    if prob.kind == "vertex":
        terms = set(prob.terminals)
        if any(u in terms and v in terms for u, v in prob.edges):
            return False
    cut = check.find_cut(prob, prob.budget)
    if spec.answer == "no":
        return cut is None
    if not cut:
        return False
    if spec.answer == "yes":
        return True
    both_ways = replace(prob, edges=prob.edges + tuple((v, u) for u, v in prob.edges))
    undirected = check.find_cut(both_ways, prob.budget) is not None
    return undirected == (spec.answer == "yes-undirected")


def select(dmwc, workload: str, seed: int) -> list[Spec]:
    """The corpus for (workload, seed), as rebuildable specs."""
    specs = []
    for s, stratum in enumerate(WORKLOADS[workload]):
        for i in range(stratum.count):
            n = stratum.sizes[i % len(stratum.sizes)]
            budget = stratum.budgets[i % len(stratum.budgets)]
            for attempt in range(MAX_ATTEMPTS):
                spec = Spec(stratum.kind, derived_seed(workload, seed, s, i, attempt),
                            n, stratum.degree / n, stratum.terminals, budget,
                            stratum.answer)
                text = dmwc.fileformat.serialize(problem_file(dmwc, spec))
                if _wanted(spec, text):
                    specs.append(spec)
                    break
            else:
                raise RuntimeError(f"{workload}: stratum {s} slot {i} found no instance")
    return specs


def build(dmwc, specs: list[Spec]) -> list[str]:
    """The instance files of a corpus, serialized by the library."""
    return [dmwc.fileformat.serialize(problem_file(dmwc, spec)) for spec in specs]
