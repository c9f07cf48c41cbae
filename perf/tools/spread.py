#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs BENCHMARK.json's command on every workload with ten seeds and prints, per metric, the
median and the interquartile range as a share of the median, beside the metric's bound.
A benchmark is steady when every spread is below a third of its bound.

    python3 perf/tools/spread.py [--seeds 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for name in names:
        values = {metric: [] for metric in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
            walls.append(time.monotonic() - started)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        print(f"{name}  (wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s)")
        for metric, samples in values.items():
            q1, _, q3 = statistics.quantiles(samples, n=4)
            mid = statistics.median(samples)
            spread = (q3 - q1) / mid
            share = spread / bounds[metric]
            worst = max(worst, share if metric != "setup_s" else 0.0)
            print(f"  {metric:24} median {mid:12.4f}  spread {spread:7.4f}  bound {bounds[metric]:.2f}"
                  f"  ({share:4.0%} of bound)")
        sys.stdout.flush()
    print(f"largest spread / bound outside setup_s: {worst:.0%}")


if __name__ == "__main__":
    main()
