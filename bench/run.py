"""Seeded solve benchmark for dmwc.

    python3 bench/run.py --workload vertex-sparse --seed 1 --seconds 30 --trace 0

Builds the workload's corpus from the seed, then solves the whole corpus in
rounds for about `--seconds`, each operation parsing an instance file with
`dmwc.fileformat.parse` and solving it in deterministic mode.
Every answer is then checked by `check.py`, which shares no code with dmwc.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics from a traced run with `--trace 1`.  Everything runs in
this one process, with no extra threads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9


def import_fresh():
    """Import dmwc from this checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "dmwc" or m.startswith("dmwc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dmwc = importlib.import_module("dmwc")
    if Path(dmwc.__file__).resolve().parent != SRC / "dmwc":
        raise ImportError(f"dmwc imported from {dmwc.__file__}, not from {SRC}")
    for layer in ("fileformat", "graph", "oracle", "pipeline"):
        importlib.import_module(f"dmwc.{layer}")
    return dmwc


def solve_text(dmwc, text: str) -> tuple[int, ...] | None:
    """One operation: parse the file and solve it; None means NO.  Names are
    looked up on the modules at call time, so the tracer's wrappers apply."""
    pf = dmwc.fileformat.parse(text)
    pipeline = dmwc.pipeline
    if pf.kind == "vertex":
        sol = pipeline.solve_vertex(pf.to_instance(), mode="deterministic")
        return None if sol is None else tuple(sorted(sol.vertices))
    if pf.kind == "edge":
        sol = pipeline.solve_edge(pf.to_instance(), mode="deterministic")
        return None if sol is None else tuple(sol.edges)
    sol = pipeline.solve_multicut_k2(pf.graph, list(pf.pairs), pf.budget,
                                     mode="deterministic")
    return None if sol is None else tuple(sorted(sol.vertices))


class Round:
    """Timings and answers of one pass over the whole corpus."""

    def __init__(self) -> None:
        self.answers: list[object] = []
        self.yes_s = self.no_s = 0.0
        self.cpu_s = 0.0

    @property
    def corpus_s(self) -> float:
        return self.yes_s + self.no_s

    def solve(self, dmwc, text: str) -> None:
        start = perf_counter()
        try:
            answer = solve_text(dmwc, text)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            answer = exc
        took = perf_counter() - start
        if answer is None:
            self.no_s += took
        else:
            self.yes_s += took
        self.answers.append(answer)


def plain_round(dmwc, texts: list[str]) -> Round:
    rnd = Round()
    cpu0 = os.times()
    for text in texts:
        rnd.solve(dmwc, text)
    cpu1 = os.times()
    rnd.cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])
    return rnd


def paired_rounds(dmwc, texts: list[str], tracer: Tracer) -> tuple[Round, Round]:
    """An untraced and a traced round, interleaved file by file, so that a
    change in machine speed falls on both alike and their ratio is the
    tracing overhead."""
    plain, traced = Round(), Round()
    for text in texts:
        plain.solve(dmwc, text)
        tracer.install()
        try:
            traced.solve(dmwc, text)
        finally:
            tracer.uninstall()
    return plain, traced


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(texts: list[str], rounds: list[Round]) -> tuple[int, int, list[str]]:
    """Failed and wrong attempts over all rounds, and a note per fault.

    An attempt fails when it raised, or when its answer is wrong: the answer
    differs from the first round's answer to the same file (deterministic
    mode must repeat), or the checker rejects it.
    """
    failed = wrong = 0
    notes: list[str] = []
    for i, text in enumerate(texts):
        prob = check.read_problem(text)
        verdict: dict[object, str | None] = {}
        first = rounds[0].answers[i]
        for r, rnd in enumerate(rounds):
            answer = rnd.answers[i]
            if isinstance(answer, Exception):
                why = f"raised {answer!r}"
            elif r and answer != first:
                why = f"answer {answer} differs from first round's {first}"
            else:
                if answer not in verdict:
                    verdict[answer] = check.check_answer(prob, answer)
                why = verdict[answer]
            if why is not None:
                failed += 1
                wrong += not isinstance(answer, Exception)
                notes.append(f"instance {i} round {r}: {why}")
    return failed, wrong, notes


def digest(texts: list[str], answers: list[object]) -> str:
    h = hashlib.sha256()
    for text, answer in zip(texts, answers):
        h.update(text.encode())
        h.update(repr(answer).encode())
    return h.hexdigest()[:16]


def layer_metrics(tracer: Tracer, spans: list[tuple[int, int]],
                  plain: list[Round], traced: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer figures: counts from the first traced round (deterministic
    mode repeats them exactly), self seconds as medians over traced rounds."""
    sums = [tracer.summary(a, b) for a, b in spans]

    def calls(name: str) -> int:
        return sums[0].get(name, (0, 0.0, 0))[0]

    def self_s(name: str) -> float:
        return statistics.median(s.get(name, (0, 0.0, 0))[1] for s in sums)

    out: dict[str, tuple[float, str]] = {}
    for name in ("graph.min_vertex_separator", "graph.digraph_init",
                 "separators.build_collection", "shadows.shadow"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["separators.enumerate_important.calls"] = (
        calls("separators.enumerate_important"), "count")
    important = calls("separators.is_important")
    out["separators.is_important.calls"] = (important, "count")
    out["separators.is_important.pass_ratio"] = (
        sums[0]["separators.is_important"][2] / important if important else 0.0,
        "ratio")
    for name in ("sampling.deterministic_sets", "pipeline.verify_solution",
                 "torso.reduce_instance", "undirected.solve_undirected",
                 "fileformat.parse"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    families = calls("sampling.deterministic_sets")
    out["sampling.builds_per_family"] = (
        calls("separators.build_collection") / families if families else 0.0, "ratio")
    out["pipeline.attempts"] = (calls("torso.reduce_instance"), "count")
    out["trace.overhead_ratio"] = (
        statistics.median(r.corpus_s for r in traced)
        / statistics.median(r.corpus_s for r in plain), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dmwc" / "__init__.py").is_file():
        print(f"error: no dmwc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    dmwc = import_fresh()
    specs = corpus.select(dmwc, args.workload, args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        dmwc = import_fresh()
        texts = corpus.build(dmwc, specs)
        setup_times.append(perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    spans: list[tuple[int, int]] = []
    # Whole rounds only.  Another round (or traced pair) starts while it is
    # expected to end within --seconds; at least two rounds always run, so
    # every file is solved twice and the repeat can be compared.
    began = perf_counter()
    while True:
        step = perf_counter()
        if tracer is None:
            plain.append(plain_round(dmwc, texts))
        else:
            first = len(tracer)
            pair = paired_rounds(dmwc, texts, tracer)
            plain.append(pair[0])
            traced.append(pair[1])
            spans.append((first, len(tracer)))
        now = perf_counter()
        if len(plain) + len(traced) >= 2 and now + (now - step) - began > args.seconds:
            break
    rounds = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, wrong, notes = judge(texts, rounds)
    for note in notes[:20]:
        print("FAILED", note)
    yes = sum(a is not None for a in rounds[0].answers)
    print(f"workload {args.workload} seed {args.seed}: {len(texts)} instances "
          f"({yes} YES, {len(texts) - yes} NO), {len(plain)} plain and "
          f"{len(traced)} traced rounds, answer digest {digest(texts, rounds[0].answers)}")

    if tracer is None:
        metrics = {
            "corpus_s": (statistics.median(r.corpus_s for r in plain), "s"),
            "yes_s": (statistics.median(r.yes_s for r in plain), "s"),
            "no_s": (statistics.median(r.no_s for r in plain), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in plain), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for name in ("corpus_s", "yes_s", "no_s", "cpu_s"):
            q1, med, q3 = quartiles([getattr(r, name) for r in plain])
            print(f"  {name:12s} median {med:.4f} s  quartiles {q1:.4f} .. {q3:.4f}")
        print("  rounds' corpus_s:", " ".join(f"{r.corpus_s:.3f}" for r in plain))
    else:
        metrics = layer_metrics(tracer, spans, plain, traced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.tsv")
        print(f"  traced corpus_s {statistics.median(r.corpus_s for r in traced):.4f} s, "
              f"untraced {statistics.median(r.corpus_s for r in plain):.4f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:.6g} {unit}")

    print(json.dumps({
        "correct": not wrong,
        "attempted": len(texts) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
