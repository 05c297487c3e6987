"""Span tracer that wraps dmwc's layer functions from outside the program.

Modules bind each other's functions by name (`from .sampling import
deterministic_sets`), so a wrapper has to replace the name in every module
that holds it, not only in the module that defines it.  `Tracer.install`
does that for every public function of each layer module, and wraps
`Digraph.__init__` on the class.  Spans (name, start, end, parent) are kept
in flat arrays in memory and written out by `Tracer.write`.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("graph", "separators", "shadows", "sampling", "torso", "undirected",
          "pipeline", "fileformat")
# Predicates whose True share is reported as a pass ratio.
PREDICATES = ("separators.is_important",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.passed = array("b")  # 1 where a predicate span returned True
        self.stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, passed = self.stack, self.passed
        predicate = name in PREDICATES

        def traced(*args, **kwargs):
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            passed.append(0)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if predicate and result:
                passed[span] = 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer in every dmwc module
        that binds it, and `Digraph.__init__`.  The wrappers are made on the
        first call and reused, so span names keep their ids."""
        if not self._patches:
            self._patches = self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"dmwc.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dmwc" and not mod_name.startswith("dmwc."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((module, attr, obj, hit[1]))
        digraph = sys.modules["dmwc.graph"].Digraph
        init = digraph.__init__
        patches.append((digraph, "__init__", init, self._wrap("graph.digraph_init", init)))
        return patches

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, first: int, last: int) -> dict[str, tuple[int, float, int]]:
        """Per span name, (calls, self seconds, True results) over
        spans[first:last].

        Self time is the span's duration minus the durations of its direct
        children, which lie inside it.
        """
        child = [0.0] * (last - first)
        start, end, parent = self.start, self.end, self.parent
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        calls: Counter[int] = Counter()
        self_s: Counter[int] = Counter()
        passed: Counter[int] = Counter()
        for i in range(first, last):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i - first]
            passed[k] += self.passed[i]
        return {self.names[k]: (calls[k], self_s[k], passed[k]) for k in calls}

    def write(self, path) -> None:
        """Write every span as `index name start end parent`, tab-separated."""
        with open(path, "w") as out:
            out.write("span\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.7f}"
                          f"\t{self.end[i]:.7f}\t{self.parent[i]}\n")
