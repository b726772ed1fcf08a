"""Time the greedy clique reduction of a parent revision and of the working
tree on the benchmark's 72 desk graphs, and write BENCH_clique_reduction.json.

    python3 bench/clique_reduction.py --parent REV [--seed 1] [--repeats 15] \
        [--rounds 3] [--out BENCH_clique_reduction.json]

The graphs are criterion 9's generator (each pair present with probability
1/4 at multiplicity 1..3), two of each order 5..40, drawn from
``random.Random(seed)`` in the order ``perfbench/workloads.py`` draws its
desk reductions; each is reduced with q = 3, lam = 1, lam' = 3.

Each side runs in fresh processes on its own copy of the tree (made as
``bench/desk_tail.py`` makes it: the parent's with ``git archive``, the
working tree's files copied), the two sides alternating for ``--rounds``
rounds.  A graph's time is the median of its ``--repeats`` calls in a
round, then the median over the rounds.  The machine-independent counters
of every graph (cliques removed, stalls, appearance total) must be equal
on both sides; otherwise nothing is written and the exit code is 1.  Keys
of an existing output file that this script does not write (such as
end-to-end benchmark figures) are kept.
"""

from __future__ import annotations

import argparse
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
ORDERS = range(5, 41)
PER_ORDER = 2


def desk_graphs(seed: int) -> list:
    """(n, mult_map) of the desk reductions for ``seed``."""
    rng = random.Random(seed)
    graphs = []
    for n in ORDERS:
        for _ in range(PER_ORDER):
            mult = {}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.25:
                        mult[(u, v)] = rng.randint(1, 3)
            graphs.append((n, mult))
    return graphs


def measure(seed: int, repeats: int) -> list:
    """Per graph: counters and the median time in ms of ``repeats`` calls,
    on whichever ``triplepack`` is importable."""
    from triplepack.decomp import clique_reduction
    from triplepack.multigraph import Multigraph

    rows = []
    for n, mult in desk_graphs(seed):
        g = Multigraph(n, mult_map=mult)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            trace = clique_reduction(g, 3, 1, 3)
            times.append(time.perf_counter() - start)
        rows.append({
            "n": n,
            "pairs": len(mult),
            "cliques": len(trace.cliques),
            "stalls": len(trace.stalls),
            "appearance_total": sum(trace.appearance.values()),
            "ms": statistics.median(times) * 1e3,
        })
    return rows


def run_side(src: Path, seed: int, repeats: int) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", "--seed", str(seed), "--repeats", str(repeats)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=15)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--out", default=str(REPO / "BENCH_clique_reduction.json"))
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        json.dump(measure(args.seed, args.repeats), sys.stdout)
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
                runs[side].append(run_side(sides[side], args.seed, args.repeats))

    counters = ("n", "pairs", "cliques", "stalls", "appearance_total")
    graphs = []
    for rows in zip(*runs["parent"], *runs["change"]):
        keyed = [tuple(row[c] for c in counters) for row in rows]
        if len(set(keyed)) != 1:
            print(f"counters differ between the sides: {sorted(set(keyed))}", file=sys.stderr)
            return 1
        half = len(rows) // 2
        graphs.append({
            **{c: rows[0][c] for c in counters},
            "parent_ms": round(statistics.median(r["ms"] for r in rows[:half]), 4),
            "change_ms": round(statistics.median(r["ms"] for r in rows[half:]), 4),
        })

    total = {side: round(sum(g[f"{side}_ms"] for g in graphs), 3) for side in sides}
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update({
        "topic": "bitset kernel for the greedy clique reduction (same ReductionTrace)",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}, one process, one thread",
        "micro_command": "python3 bench/clique_reduction.py "
        f"--parent {args.parent} --seed {args.seed} --repeats {args.repeats} --rounds {args.rounds}",
        "micro": {
            "parent": sha,
            "seed": args.seed,
            "method": "per graph: median of the repeats in a round, then median over "
            "the rounds; sides alternate which runs first; counters equal on both sides",
            "total_ms": {**total, "ratio": round(total["parent"] / total["change"], 2)},
            "counters_equal": True,
            "graphs": graphs,
        },
    })
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{len(graphs)} reductions: parent {total['parent']} ms, change {total['change']} ms "
          f"({data['micro']['total_ms']['ratio']}x); wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
