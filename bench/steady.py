"""Steadiness check: run each workload under several seeds, one run at a
time, and print each metric's median, quartiles and spread.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads vertex-dense --seeds 1-5 --trace 1

The spread is (q3 - q1) / median over the runs, with the quartiles that
`statistics.quantiles(values, n=4)` gives.  These figures are the evidence
for the bounds in BENCHMARK.json.  Run length defaults to its `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            shares.add((result["failed"], result["attempted"]))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
            if not result["correct"]:
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {len(args.seeds)} seeds, (failed, attempted) seen: {sorted(shares)}")
        print(f"  {'metric':44s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:44s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f}  {units[name]}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
