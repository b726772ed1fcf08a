"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload desk --seeds 10 [--first-seed 1]

Runs the benchmark once per seed (untraced, ``run_seconds`` from
BENCHMARK.json), then prints for each end-to-end metric its median and
the distance between the first and third quartiles as a share of the
median, next to the metric's bound.  A spread under a third of the bound
is marked ok.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}"
              f" in {wall:.1f} s", flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        mark = "ok" if share < bounds[name] / 3 else "WIDE"
        print(f"{name:14s} median {med:12.6g}  spread {share:7.4f}  bound {bounds[name]:.2f}  {mark}  "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
