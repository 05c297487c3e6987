"""Line-oriented instance file format.

    # comments run to end of line
    dmwc vertex|edge|multicut2
    n <count>
    p <budget>
    t <id>            (one per terminal; vertex and edge kinds)
    pair <s> <t>      (exactly two request pairs; multicut2 kind)
    inf <id>          (extra distinguished vertex)
    e <u> <v>         (one per edge, multiplicity by repetition)

Lines end at LF, CR LF or CR only.  Every integer, here and in CLI options, is
ASCII digits after at most one '-'.  Parsing tracks no positions: a token's line
and column are worked out only for a `FormatError`.
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
# Largest accepted `n`.  Building the graph allocates two adjacency dicts per
# vertex (about 160 bytes at peak) whatever the edge count, so a bare `n` line
# must not be able to demand unbounded memory.
MAX_VERTICES = 100_000
_TOKEN = re.compile(r"\S+")
# argument count of each directive; a key outside it is an unknown directive
_ARITY = {"dmwc": 1, "n": 1, "p": 1, "t": 1, "pair": 2, "inf": 1, "e": 2}
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


def _integer(token: str) -> int:
    """ASCII digits after at most one '-'; int() also takes '1_0', '+1', '\u0663'."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def _error(message: str, line_no: int, line: str, index: int) -> FormatError:
    """The error at the index-th token of a line, whose column is found only here."""
    return FormatError(message, line_no, [m.start() for m in _TOKEN.finditer(line)][index] + 1)


def parse(text: str) -> ProblemFile:
    kind: str | None = None
    n: int | None = None
    budget: int | None = None
    terminals: list[int] = []
    pairs: list[tuple[int, int]] = []
    extra_inf: list[int] = []
    edges: list[tuple[int, int]] = []
    lists = {"t": terminals, "inf": extra_inf, "pair": pairs, "e": edges}
    # (line number, line, ids) per line naming vertex ids, checked once n is known
    placed: list[tuple[int, str, list[int]]] = []

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        key, args = tokens[0], tokens[1:]
        count = _ARITY.get(key)
        fault = None
        if kind is None and key != "dmwc":
            fault = "file must start with a 'dmwc <kind>' header"
        elif kind is not None and key == "dmwc":
            fault = "duplicate 'dmwc' header"
        elif count is None:
            fault = f"unknown directive {key!r}"
        elif len(args) != count:
            fault = f"directive {key!r} takes {count} argument(s), got {len(args)}"
        elif key == "n" and n is not None or key == "p" and budget is not None:
            fault = f"duplicate {key!r} line"
        elif key == "t" and kind == "multicut2":
            fault = "'t' lines are not valid in multicut2 files"
        elif key == "pair" and kind != "multicut2":
            fault = "'pair' lines require the multicut2 kind"
        elif key == "pair" and len(pairs) == 2:
            fault = _TWO_PAIRS
        if fault is not None:
            raise _error(fault, line_no, line, 0)

        if key == "dmwc":
            if args[0] not in KINDS:
                raise _error(f"unknown problem kind {args[0]!r}", line_no, line, 1)
            kind = args[0]
            continue
        ids = []
        for index, token in enumerate(args, start=1):
            try:
                ids.append(_integer(token))
            except ValueError:
                raise _error(f"expected an integer, got {token!r}", line_no, line, index)
        if key == "n":
            n = ids[0]
        elif key == "p":
            budget = ids[0]
        else:
            placed.append((line_no, line, ids))
            lists[key].append(ids[0] if count == 1 else tuple(ids))
        if key == "n" and n < 0:
            raise _error("vertex count must be non-negative", line_no, line, 1)
        if key == "n" and n > MAX_VERTICES:
            raise _error(f"vertex count {n} exceeds the limit {MAX_VERTICES}", line_no, line, 1)
        if key == "p" and budget < 0:
            raise _error("budget must be non-negative", line_no, line, 1)

    for value, what in ((kind, "'dmwc <kind>' header"), (n, "'n' line"), (budget, "'p' line")):
        if value is None:
            raise FormatError(f"missing {what}", 1)
    if kind == "multicut2" and len(pairs) != 2:
        raise FormatError(_TWO_PAIRS, 1)
    if kind != "multicut2" and not terminals:
        raise FormatError(f"{kind} files need 't' lines", 1)

    for line_no, line, ids in placed:
        for index, v in enumerate(ids, start=1):
            if not 0 <= v < n:
                raise _error(f"vertex id {v} out of range 0..{n - 1}", line_no, line, index)
    # terminals are undeletable; multicut2 files have none
    graph = Digraph(n, edges, extra_inf + terminals)
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
