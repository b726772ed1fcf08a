"""Time ``solve_avoidance`` of a parent revision and of the working tree on
the benchmark's desk instances, and write BENCH_avoidance.json.

    python3 bench/avoidance.py --parent REV [--seeds 1-10] [--repeats 7] \
        [--rounds 3] [--out BENCH_avoidance.json]

For each seed the instances are the desk workload's 400 avoidance
instances, drawn from ``random.Random(seed)`` after the desk reductions,
with the generator of ``perfbench/workloads.py``.

Each side runs in fresh processes on its own copy of the tree (made as
``bench/desk_tail.py`` makes it: the parent's with ``git archive``, the
working tree's files copied), the two sides alternating for ``--rounds``
rounds.  An instance's time is the fastest of its ``--repeats`` calls in a
process; a side's time per solve is the median over the instances, then
the median over the rounds.  The machine-independent counter is the number
of scan steps, i.e. the calls to ``DiophInstance.satisfied_by`` that one
solve makes, counted in an untimed pass.  Both sides must return the same
answers; otherwise nothing is written and the exit code is 1.  Keys of an
existing output file that this script does not write (such as end-to-end
benchmark figures) are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def desk_instances(seeds) -> list:
    """(equalities, avoidances) of the desk avoidance operations, seed by seed."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import (
        AVOIDANCE_INSTANCES,
        REDUCTION_ORDERS,
        REDUCTIONS_PER_ORDER,
        avoidance_instance,
        random_multigraph_map,
    )

    instances = []
    for seed in seeds:
        rng = random.Random(seed)
        for n in REDUCTION_ORDERS:
            for _ in range(REDUCTIONS_PER_ORDER):
                random_multigraph_map(rng, n)
        instances += [avoidance_instance(rng) for _ in range(AVOIDANCE_INSTANCES)]
    return instances


def measure(seeds, repeats: int) -> dict:
    """Answers, scan steps and the median time per solve in microseconds,
    on whichever ``triplepack`` is importable."""
    from triplepack.dioph import DiophInstance, solve_avoidance

    insts = [DiophInstance(*inst) for inst in desk_instances(seeds)]
    times = []
    for inst in insts:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            solve_avoidance(inst)
            best = min(best, time.perf_counter() - start)
        times.append(best)

    steps = 0
    check = DiophInstance.satisfied_by

    def counted(self, x):
        nonlocal steps
        steps += 1
        return check(self, x)

    DiophInstance.satisfied_by = counted
    try:
        answers = [solve_avoidance(inst) for inst in insts]
    finally:
        DiophInstance.satisfied_by = check
    return {"us": statistics.median(times) * 1e6, "steps": steps, "answers": answers}


def run_side(src: Path, seeds: str, repeats: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", "--seeds", seeds, "--repeats", str(repeats)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--seeds", default="1-10", help="desk seeds, as A-B")
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--out", default=str(REPO / "BENCH_avoidance.json"))
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        json.dump(measure(seed_range(args.seeds), args.repeats), sys.stdout)
        return 0
    if not args.parent:
        p.error("--parent is required")

    from desk_tail import extract_tree

    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", args.parent],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: extract_tree(rev, Path(tmp) / side) / "src"
                 for side, rev in (("parent", sha), ("change", None))}
        runs = {side: [] for side in sides}
        for r in range(args.rounds):
            # alternate which side runs first
            for side in sorted(sides, reverse=r % 2 == 1):
                runs[side].append(run_side(sides[side], args.seeds, args.repeats))

    answers = {json.dumps(run["answers"]) for side in sides for run in runs[side]}
    if len(answers) != 1:
        print("the sides return different answers", file=sys.stderr)
        return 1
    result = {}
    for side in sides:
        steps = {run["steps"] for run in runs[side]}
        result[side] = {
            "us_per_solve": round(statistics.median(run["us"] for run in runs[side]), 3),
            "us_per_solve_rounds": [round(run["us"], 3) for run in runs[side]],
            "scan_steps": steps.pop(),
        }
    solves = len(runs["parent"][0]["answers"])
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update({
        "topic": "avoidance solver: one CRT fold and one bounded scan (same answers)",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}, one process, one thread",
        "micro_command": "python3 bench/avoidance.py "
        f"--parent {args.parent} --seeds {args.seeds} --repeats {args.repeats} --rounds {args.rounds}",
        "micro": {
            "parent": sha,
            "seeds": args.seeds,
            "solves": solves,
            "method": "per instance: fastest of the repeats in a fresh process; per side: "
            "median over the instances, then median over the rounds; sides alternate "
            "which runs first; scan steps are satisfied_by calls in an untimed pass",
            **result,
            "speedup": round(result["parent"]["us_per_solve"] / result["change"]["us_per_solve"], 2),
            "answers_equal": True,
            "answers_sha256": hashlib.sha256(answers.pop().encode()).hexdigest(),
        },
    })
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{solves} solves: parent {result['parent']['us_per_solve']} us, change "
          f"{result['change']['us_per_solve']} us ({data['micro']['speedup']}x); scan steps "
          f"{result['parent']['scan_steps']} -> {result['change']['scan_steps']}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
