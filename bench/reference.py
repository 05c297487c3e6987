"""Re-measure the ROADMAP baseline table; not part of any workload.

    python3 bench/reference.py

Solves `generate_instance(11, n, 2.5/n, 2, p)` in deterministic mode for
(n, p) in (40, 3), (40, 4), (60, 2), (60, 3), one solve each, and checks each
answer with check.py.  Takes a few minutes.
"""

from __future__ import annotations

import os
import platform
import sys
from time import perf_counter

import run

ROWS = ((40, 3), (40, 4), (60, 2), (60, 3))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    dmwc = run.import_fresh()
    print(f"python {platform.python_version()}, {os.cpu_count()} cores")
    print("| n | p | answer | time |")
    print("|---|---|--------|------|")
    status = 0
    for n, p in ROWS:
        inst = dmwc.oracle.generate_instance(11, n, 2.5 / n, 2, p)
        text = dmwc.fileformat.serialize(dmwc.fileformat.from_instance(inst))
        t0 = perf_counter()
        answer = run.solve_text(dmwc, text)
        took = perf_counter() - t0
        why = run.check.check_answer(run.check.read_problem(text), answer)
        shown = "NO" if answer is None else f"cut {list(answer)}"
        print(f"| {n} | {p} | {shown} | {took:.1f} s |", flush=True)
        if why is not None:
            print(f"  checker rejects the answer: {why}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
