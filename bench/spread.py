"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload relate --seeds 1-10 [--seconds 20]

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
``BENCHMARK.json``.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range 'a-b' or a list 'a,b,c'")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"], **row}), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{'metric':14s} {'median':>10s} {'iqr/median':>10s} {'bound':>6s}")
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{k:14s} {med:10.4f} {spread:10.3f} {bounds.get(k, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
