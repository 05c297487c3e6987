"""Line-oriented instance file format.

    # comments run to end of line
    dmwc vertex|edge|multicut2
    n <count>
    p <budget>
    t <id>            (one per terminal; vertex and edge kinds)
    pair <s> <t>      (exactly two request pairs; multicut2 kind)
    inf <id>          (extra distinguished vertex)
    e <u> <v>         (one per edge, multiplicity by repetition)

For the vertex and edge kinds the terminals are implicitly distinguished;
`inf` lines add further undeletable vertices.  Serialization is canonical
(header, n, p, sorted terminals/pairs, sorted extra inf, edges in stored
order), so parse and serialize round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import Digraph, Instance

KINDS = ("vertex", "edge", "multicut2")
# Largest accepted `n`.  Building the graph allocates two adjacency sets per
# vertex (about 430 bytes) whatever the edge count, so a bare `n` line must
# not be able to demand unbounded memory.
MAX_VERTICES = 100_000
_TOKEN = re.compile(r"\S+")
_TWO_PAIRS = "multicut2 files need exactly two 'pair' lines"


class FormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    graph: Digraph
    budget: int
    terminals: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()

    def to_instance(self) -> Instance:
        if self.kind == "multicut2":
            raise ValueError("multicut2 files do not describe a terminal instance")
        return Instance(self.graph, frozenset(self.terminals), self.budget)


def from_instance(inst: Instance, kind: str = "vertex") -> ProblemFile:
    if kind not in ("vertex", "edge"):
        raise ValueError(f"unsupported kind {kind!r}")
    return ProblemFile(
        kind, inst.graph, inst.budget, tuple(sorted(inst.terminals))
    )


def _int_token(token: str, line_no: int, column: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", line_no, column)


def parse(text: str) -> ProblemFile:
    kind: str | None = None
    n: int | None = None
    budget: int | None = None
    terminals: list[int] = []
    pairs: list[tuple[int, int]] = []
    extra_inf: list[int] = []
    edges: list[tuple[int, int]] = []
    # every vertex id with its (line, column), range-checked once n is known
    placed: list[tuple[int, int, int]] = []

    def vertex_id(token: str, line_no: int, column: int) -> int:
        v = _int_token(token, line_no, column)
        placed.append((v, line_no, column))
        return v

    for line_no, raw in enumerate(text.splitlines(), start=1):
        found = list(_TOKEN.finditer(raw.split("#", 1)[0]))
        if not found:
            continue
        tokens = [m.group() for m in found]
        columns = [m.start() + 1 for m in found]
        key, args = tokens[0], tokens[1:]

        def need(count: int) -> None:
            if len(args) != count:
                raise FormatError(
                    f"directive {key!r} takes {count} argument(s), got {len(args)}",
                    line_no,
                    columns[0],
                )

        if kind is None:
            if key != "dmwc":
                raise FormatError("file must start with a 'dmwc <kind>' header", line_no, columns[0])
            need(1)
            if args[0] not in KINDS:
                raise FormatError(f"unknown problem kind {args[0]!r}", line_no, columns[1])
            kind = args[0]
            continue
        if key == "dmwc":
            raise FormatError("duplicate 'dmwc' header", line_no, columns[0])
        if key == "n":
            need(1)
            if n is not None:
                raise FormatError("duplicate 'n' line", line_no, columns[0])
            n = _int_token(args[0], line_no, columns[1])
            if n < 0:
                raise FormatError("vertex count must be non-negative", line_no, columns[1])
            if n > MAX_VERTICES:
                raise FormatError(
                    f"vertex count {n} exceeds the limit {MAX_VERTICES}", line_no, columns[1]
                )
        elif key == "p":
            need(1)
            if budget is not None:
                raise FormatError("duplicate 'p' line", line_no, columns[0])
            budget = _int_token(args[0], line_no, columns[1])
            if budget < 0:
                raise FormatError("budget must be non-negative", line_no, columns[1])
        elif key == "t":
            need(1)
            if kind == "multicut2":
                raise FormatError("'t' lines are not valid in multicut2 files", line_no, columns[0])
            terminals.append(vertex_id(args[0], line_no, columns[1]))
        elif key == "pair":
            need(2)
            if kind != "multicut2":
                raise FormatError("'pair' lines require the multicut2 kind", line_no, columns[0])
            if len(pairs) == 2:
                raise FormatError(_TWO_PAIRS, line_no, columns[0])
            pairs.append(
                (
                    vertex_id(args[0], line_no, columns[1]),
                    vertex_id(args[1], line_no, columns[2]),
                )
            )
        elif key == "inf":
            need(1)
            extra_inf.append(vertex_id(args[0], line_no, columns[1]))
        elif key == "e":
            need(2)
            edges.append(
                (
                    vertex_id(args[0], line_no, columns[1]),
                    vertex_id(args[1], line_no, columns[2]),
                )
            )
        else:
            raise FormatError(f"unknown directive {key!r}", line_no, columns[0])

    if kind is None:
        raise FormatError("missing 'dmwc <kind>' header", 1)
    if n is None:
        raise FormatError("missing 'n' line", 1)
    if budget is None:
        raise FormatError("missing 'p' line", 1)
    if kind == "multicut2":
        if len(pairs) != 2:
            raise FormatError(_TWO_PAIRS, 1)
    elif not terminals:
        raise FormatError(f"{kind} files need 't' lines", 1)

    infinite = set(extra_inf)
    if kind != "multicut2":
        infinite |= set(terminals)
    for v, line_no, column in placed:
        if not 0 <= v < n:
            raise FormatError(f"vertex id {v} out of range 0..{n - 1}", line_no, column)
    graph = Digraph(n, edges, infinite)
    return ProblemFile(
        kind,
        graph,
        budget,
        tuple(sorted(set(terminals))),
        tuple(pairs),
    )


def serialize(pf: ProblemFile) -> str:
    lines = [f"dmwc {pf.kind}", f"n {pf.graph.vertex_count}", f"p {pf.budget}"]
    if pf.kind == "multicut2":
        for a, b in pf.pairs:
            lines.append(f"pair {a} {b}")
        extra = sorted(pf.graph.infinite)
    else:
        for t in pf.terminals:
            lines.append(f"t {t}")
        extra = sorted(pf.graph.infinite - set(pf.terminals))
    for v in extra:
        lines.append(f"inf {v}")
    for u, v in pf.graph.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"
