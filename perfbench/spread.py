"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads greedy-traced,llm-cassette \
        --seeds 1-10 [--seconds 55] [--trace 0] [--out spread.json]

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile distance as a share of the median; that spread is what the
bounds in BENCHMARK.json are held against. It also prints the share of
failed records and the wall time of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=root, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        results[workload] = runs
        mean_wall = statistics.mean(r["wall_s"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, mean wall {mean_wall:.1f} s")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            print(f"{name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
        print(flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
