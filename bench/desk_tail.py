"""Time the desk operations around the benchmark's p95 latency for a parent
revision and the working tree, and write BENCH_desk_tail.json.

    python3 bench/desk_tail.py --parent REV [--seed 1] [--repeats 9] \
        [--rounds 3] [--e2e desk,sweep,cli] [--e2e-pairs 10] \
        [--e2e-first-seed 1201] [--out BENCH_desk_tail.json]

The operations are those of the desk workload of ``perfbench/workloads.py``
for ``--seed``: its 72 clique reductions, its criterion-2/3 grids
(``find_triangle_decomposition`` on lam*K_n, ``search_simple_gdd`` on the
gadget grid), its two small ``max_packing`` calls and its 400 avoidance
solves.  Its eight slowest operations (``max_packing`` at (9,4), (9,5) and
(10,5), the five leave proofs: milliseconds to seconds each) are not timed
and count as slower than every timed one, so the timed operations hold
every desk rank from 9 on.  The desk's p95 is the benchmark's nearest-rank
percentile over all 634 operations (its 32nd slowest), and the band is
desk ranks 11..45.

Each side runs in fresh processes on its own copy of the tree in a
temporary directory (the parent's extracted with ``git archive``, the
working tree's files that git tracks or would track copied as they are),
the two sides alternating for ``--rounds`` rounds.  An operation's time is
the fastest of its ``--repeats`` calls in a process, divided by the host's
slowdown as the benchmark measures it (the fastest of three runs of its
reference loop, just before the calls, over the loop's quiet-host time),
then the median over the rounds: the host's speed drifts by up to 2x
within a minute.  The machine-independent counters of every
operation (cliques, stalls and appearance total of a reduction; status,
nodes and a digest of the triangles of a search; value and nodes of a
packing; the answer of a solve) must be equal on both sides, otherwise
nothing is written and the exit code is 1.

With ``--e2e-pairs N`` the script also runs ``perfbench/run.py --trace 0``
for each listed workload in both trees, N pairs of runs on seeds from
``--e2e-first-seed``, the side that runs first alternating, and records
each end-to-end metric's median and quartiles per side and the number of
pairs the change wins.  Keys of an existing output file that this script
does not write are kept.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# the desk's operations that are not timed, each slower than the band
UNTIMED = {("max_packing", (9, 4, 3)), ("max_packing", (9, 5, 3)), ("max_packing", (10, 5, 3))}
UNTIMED_FNS = {"search_leave_nonexistence"}
BAND = (11, 45)  # desk ranks, slowest first


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


def describe(fn: str, args: tuple) -> str:
    if fn == "clique_reduction":
        return f"clique_reduction n={args[0].n} pairs={len(args[0].mult_map)}"
    if fn == "find_triangle_decomposition":
        return f"find_triangle_decomposition {args[0].base}K_{args[0].n}"
    if fn == "solve_avoidance":
        return "solve_avoidance"
    return f"{fn}{args}"


def counters(fn: str, res) -> list:
    if fn == "clique_reduction":
        return [len(res.cliques), len(res.stalls), sum(res.appearance.values())]
    if fn == "find_triangle_decomposition":
        return [res.status.value, res.nodes, digest(res.cliques)]
    if fn == "search_simple_gdd":
        status, inst, nodes = res
        return [status.value, nodes, digest(inst and inst.blocks)]
    if fn == "max_packing":
        return [res.status.value, res.value, res.nodes_explored]
    return [res]


def measure(seed: int, repeats: int) -> list:
    """Per timed desk operation: its label, counters and the fastest time
    in ms of ``repeats`` calls, host-corrected, on whichever ``triplepack``
    is importable."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from run import REFERENCE_QUIET_S
    from workloads import Desk, load_api, reference_loop

    api = load_api()
    with tempfile.TemporaryDirectory() as tmp:
        tasks = Desk(api, seed, tmp).tasks
    # as the benchmark does: long-lived objects out of the collector's view
    gc.collect()
    gc.freeze()
    rows = []
    for task in tasks:
        if task.fn in UNTIMED_FNS or (task.fn, task.args) in UNTIMED:
            continue
        fn = getattr(api, task.fn)
        reference = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            reference.append(time.perf_counter() - start)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            res = fn(*task.args)
            times.append(time.perf_counter() - start)
        rows.append({
            "fn": task.fn,
            "op": describe(task.fn, task.args),
            "counters": counters(task.fn, res),
            "ms": min(times) / min(reference) * REFERENCE_QUIET_S * 1e3,
        })
    return rows


def run_side(tree: Path, seed: int, repeats: int) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", "--seed", str(seed), "--repeats", str(repeats)],
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def extract_tree(rev: str | None, into: Path) -> Path:
    """A copy of revision ``rev``, or of the working tree when it is None."""
    into.mkdir()
    if rev is None:
        listed = subprocess.run(
            ["git", "-C", str(REPO), "ls-files", "-co", "--exclude-standard"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        files = "\0".join(f for f in listed if (REPO / f).is_file())
        archive = subprocess.run(
            ["tar", "-c", "-C", str(REPO), "--null", "-T", "-"],
            input=files.encode(), capture_output=True, check=True,
        ).stdout
    else:
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", rev], capture_output=True, check=True
        ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def tail_report(ms: list, labels: list) -> dict:
    """The desk's p95 and its band from the timed operations' times."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from run import tail

    untimed = len(UNTIMED) + 5  # the five leave proofs
    pct, p95 = tail(ms + [float("inf")] * untimed)
    ranked = sorted(zip(ms, labels), reverse=True)
    lo, hi = BAND
    band = ranked[lo - 1 - untimed : hi - untimed]
    return {
        "percentile": pct,
        "p95_ms": round(p95, 4),
        "band_ms": round(sum(t for t, _ in band), 3),
        "band": [{"rank": lo + i, "op": op, "ms": round(t, 4)} for i, (t, op) in enumerate(band)],
    }


def e2e_runs(trees: dict, workload: str, seeds: range) -> dict:
    """Pairs of ``perfbench/run.py`` runs, the side that goes first alternating."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {side: [] for side in trees}
    passes = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        for side in sorted(trees, reverse=i % 2 == 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True, check=True,
            )
            runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
            passes[side].append(int(re.search(r": (\d+) passes of", proc.stdout).group(1)))
            print(f"{workload} seed {seed} {side}: op_tail_ms "
                  f"{runs[side][-1]['metrics']['op_tail_ms']['value']:.4f}", flush=True)

    def quartiles(vals):
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}

    metrics = {}
    for name, direction in better.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in trees}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {
            "better": direction,
            **{side: quartiles(vals[side]) for side in trees},
            "change_wins": wins,
            "pairs": [[round(p, 6), round(c, 6)] for p, c in zip(vals["parent"], vals["change"])],
        }
    return {
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "pairs": len(seeds),
        "correct": all(r["correct"] for side in trees for r in runs[side]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in trees},
        "passes": passes,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--e2e", default="desk", help="workloads for --e2e-pairs, comma-separated")
    p.add_argument("--e2e-pairs", type=int, default=0)
    p.add_argument("--e2e-first-seed", type=int, default=1201)
    p.add_argument("--out", default=str(REPO / "BENCH_desk_tail.json"))
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        json.dump(measure(args.seed, args.repeats), sys.stdout)
        return 0
    if not args.parent:
        p.error("--parent is required")

    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", args.parent],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract_tree(sha, Path(tmp) / "parent"),
                 "change": extract_tree(None, Path(tmp) / "change")}
        runs = {side: [] for side in trees}
        for r in range(args.rounds):
            # alternate which side runs first
            for side in sorted(trees, reverse=r % 2 == 1):
                runs[side].append(run_side(trees[side], args.seed, args.repeats))
        e2e = {}
        if args.e2e_pairs:
            seeds = range(args.e2e_first_seed, args.e2e_first_seed + args.e2e_pairs)
            for workload in args.e2e.split(","):
                command = (f"python3 bench/desk_tail.py --parent {args.parent} --e2e {workload} "
                           f"--e2e-pairs {args.e2e_pairs} --e2e-first-seed {args.e2e_first_seed}")
                e2e[workload] = {"command": command, **e2e_runs(trees, workload, seeds)}

    first = runs["parent"][0]
    labels = [row["op"] for row in first]
    keyed = {
        json.dumps([(row["op"], row["counters"]) for row in run])
        for side in trees
        for run in runs[side]
    }
    if len(keyed) != 1:
        print("counters differ between the sides or the rounds", file=sys.stderr)
        return 1
    per_op = {
        side: [statistics.median(run[i]["ms"] for run in runs[side]) for i in range(len(first))]
        for side in trees
    }
    kinds = {}
    for row, pm, cm in zip(first, per_op["parent"], per_op["change"]):
        count, p_ms, c_ms = kinds.get(row["fn"], (0, 0.0, 0.0))
        kinds[row["fn"]] = (count + 1, p_ms + pm, c_ms + cm)
    tails = {side: tail_report(per_op[side], labels) for side in trees}

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update({
        "topic": "small exact searches: set-up, stall records and verification (same results)",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}, one process, one thread",
        "micro_command": f"python3 bench/desk_tail.py --parent {args.parent} --seed {args.seed} "
        f"--repeats {args.repeats} --rounds {args.rounds}",
        "micro": {
            "parent": sha,
            "seed": args.seed,
            "method": "per operation: fastest of the repeats in a fresh process over the host "
            "slowdown the benchmark's reference loop shows just before, then median over the "
            "rounds; sides alternate which runs first; the desk's 8 slowest operations "
            "untimed and ranked above the rest",
            "operations_timed": len(labels),
            "counters_equal": True,
            "counters_sha256": hashlib.sha256(keyed.pop().encode()).hexdigest(),
            "by_kind_ms": {
                kind: {"ops": c, "parent": round(pm, 3), "change": round(cm, 3)}
                for kind, (c, pm, cm) in sorted(kinds.items())
            },
            "p95_ms": {side: tails[side]["p95_ms"] for side in trees},
            "band_ms": {side: tails[side]["band_ms"] for side in trees},
            "band": {side: tails[side]["band"] for side in trees},
        },
    })
    if e2e:
        data["end_to_end"] = {**data.get("end_to_end", {}), **e2e}
    out.write_text(json.dumps(data, indent=1) + "\n")
    p95 = data["micro"]["p95_ms"]
    print(f"{len(labels)} operations: p95 parent {p95['parent']} ms, change {p95['change']} ms; "
          f"band {tails['parent']['band_ms']} -> {tails['change']['band_ms']} ms; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
