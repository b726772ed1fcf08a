"""Compare a parent revision with the working tree on one layer of the
benchmark, and write the figures into a BENCH_<topic>.json file.

    python3 bench/compare.py --layer desk|sweep|cli --parent REV [--seed 1] \
        [--repeats 5] [--rounds 6] [--e2e-pairs N] [--e2e-first-seed 1201] \
        [--out BENCH_<topic>.json]

The layers are the benchmark's three workloads, and each takes its inputs
from ``perfbench/workloads.py`` for ``--seed``:

- ``desk``: the operations of ``Desk(...).tasks`` (clique reductions,
  the criterion-2/3 search grids, two small ``max_packing`` calls and the
  avoidance solves).  Its slowest tasks (``max_packing`` at (9,4), (9,5)
  and (10,5), and the leave proofs: milliseconds to seconds each) are not
  run; they count as slower than every timed one in the desk's p50/p95.
- ``sweep``: the certificate of each ``sweep_items`` (n, k), made and
  re-checked as ``Sweep.certify`` does (construct, check, write JSON,
  read it back, re-check).
- ``cli``: each command of ``Cli(...).script``, plus a bare
  ``import triplepack.cli``, in a fresh interpreter with
  PYTHONDONTWRITEBYTECODE=1, as a shell user meets it.

Each side runs in fresh processes on its own copy of the tree (the
parent's extracted with ``git archive``, the working tree's files that git
tracks or would track copied as they are), the side that goes first
alternating from round to round (an even number of rounds lets each side
go first equally often).  A process first runs every operation
once, untimed, for its answer and its work counters, then times each
operation ``--repeats`` times.  An operation's time is the fastest of its
repeats over the host's slowdown, then the median over the ``--rounds``
rounds: the host's speed drifts by up to 2x within a minute.  The
slowdown is the fastest of three runs of a probe, timed just before the
operation, over the probe's quiet-host time.  The desk and the sweep probe
with the benchmark's reference loop; the cli probes with a bare
interpreter start (``python3 -c pass`` in the commands' environment),
whose time also follows the cost of starting a process, which a loop in
the measuring process does not see.

Answers gate the comparison, as the workload accepts them: each
operation's status (search or packing status, certificate or refusal,
a command's exit code) and the verdict of the workload's own check on
its result must be equal on both sides and in every round, otherwise
nothing is written and the exit code is 1.  The digest of the answer the
check read (the triangles, the certificate JSON, a command's output) is
only reported, because a change may pick another valid answer; so are
the work counters: search nodes, pairs handed to ``Multigraph``,
``satisfied_by`` scan steps, cliques, stalls and appearance total of a
reduction, and the package and standard-library modules a command loads
(``-X importtime``).

With ``--e2e-pairs N`` the script also runs ``perfbench/run.py --trace 0``
on the layer's workload in both trees, N pairs of runs on seeds from
``--e2e-first-seed``, the side that runs first alternating, each run
forked from a small shell so that its ``peak_rss_mb`` is its own, and records
each end-to-end metric's median and quartiles per side and the number of
pairs the change wins.  Keys of an existing output file that this run does
not write are kept, so one file can hold all three layers.
"""

from __future__ import annotations

import argparse
import contextlib
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
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
UNTIMED_PACKINGS = {(9, 4, 3), (9, 5, 3), (10, 5, 3)}  # each slower than any timed desk task
UNTIMED_FNS = {"search_leave_nonexistence"}
SLOWEST = 10
WATCHED = ("dataclasses", "inspect")  # stdlib modules the package should not need
# a bare interpreter start's lower quartile on a quiet host: 2-vCPU KVM
# guest, CPython 3.11.7, PYTHONPATH set, 30 starts
BARE_START_QUIET_S = 0.075


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def perfbench():
    """The ``workloads`` and ``run`` modules of this checkout's perfbench."""
    path = str(REPO / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import run
    import workloads

    return workloads, run


# ---------------------------------------------------------------------------
# the layers: (kind, label, call, describe) per operation; describe() runs
# the operation once, untimed, and gives its answer as the workload
# accepts it ([status, verdict of the workload's check]), the digest of
# what the check read, and its own work counters; an operation without a
# call is not run
# ---------------------------------------------------------------------------


def verdict(errs) -> str:
    return "; ".join(errs) or "ok"


def desk_result(workloads, task, call) -> tuple:
    res = call()
    errs, text, _gap = workloads.checked(task.check, res)
    status, work = "done", {}
    if task.fn == "clique_reduction":
        work = {"cliques": len(res.cliques), "stalls": len(res.stalls),
                "appearance": sum(res.appearance.values())}
    elif task.fn == "find_triangle_decomposition":
        status, work = res.status.value, {"nodes": res.nodes}
    elif task.fn == "search_simple_gdd":
        status, work = res[0].value, {"nodes": res[2]}
    elif task.fn == "max_packing":
        status, work = res.status.value, {"nodes": res.nodes_explored}
    # solve_avoidance: its work is the scan steps
    return [status, verdict(errs)], digest(text), work


def desk_label(fn: str, args: tuple) -> str:
    if fn == "clique_reduction":
        return f"clique_reduction n={args[0].n} pairs={len(args[0].mult_map)}"
    if fn == "find_triangle_decomposition":
        return f"find_triangle_decomposition {args[0].base}K_{args[0].n}"
    if fn == "solve_avoidance":
        return f"solve_avoidance {args[0].equalities} {args[0].avoidances}"
    return f"{fn}{args}"


def desk_ops(workloads, api, seed: int, tmp: str):
    for task in workloads.Desk(api, seed, tmp).tasks:
        label = desk_label(task.fn, task.args)
        if task.fn in UNTIMED_FNS or (task.fn == "max_packing" and task.args in UNTIMED_PACKINGS):
            yield task.fn, label, None, None
            continue
        call = partial(getattr(api, task.fn), *task.args)
        yield task.fn, label, call, partial(desk_result, workloads, task, call)


def sweep_ops(workloads, api, seed: int, tmp: str):
    sweep = workloads.Sweep(api, seed, tmp)

    def describe(n, k):
        res = sweep.certify(n, k)
        if res is None:  # a documented refusal: its reason and min_n are the status
            try:
                api.achieved_lower_bound(n, k)
            except api.TriplepackError as exc:
                status = f"refused {type(exc).__name__} (min_n {getattr(exc, 'min_n', None)})"
                return [status, "ok"], digest(str(exc)), {}
        errs, text, _gap = workloads.checked(sweep.check, n, k, res)
        return ["certificate", verdict(errs)], digest(text), {}

    for n, k in sweep.items:
        case = api.classify(n, k)[0].value
        yield case, f"certificate n={n} k={k}", partial(sweep.certify, n, k), partial(describe, n, k)


def fresh(args, tmp: str, importtime=False):
    """``python3 ARGS`` in a fresh interpreter in ``tmp``, on whichever
    ``triplepack`` is importable, as a shell user starts the CLI."""
    import triplepack

    env = {**os.environ, "PYTHONPATH": str(Path(triplepack.__file__).parent.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *(["-X", "importtime"] if importtime else []), *args],
                          cwd=tmp, env=env, capture_output=True, text=True, timeout=300)


def cli_ops(workloads, api, seed: int, tmp: str):
    def describe(args, check):
        proc = fresh(args, tmp, importtime=True)
        names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line}
        stdlib = {name for name in names if name.split(".")[0] in sys.stdlib_module_names}
        work = {"package_modules": sum(name.split(".")[0] == "triplepack" for name in names),
                "stdlib_modules": len(stdlib), **{m: int(m in stdlib) for m in WATCHED}}
        errs, answer = [], ""
        if check is not None and proc.returncode in (0, 1):
            errs, answer, _gap = workloads.checked(check, proc.stdout)
        return [f"exit {proc.returncode}", verdict(errs)], digest(answer), work

    script = workloads.Cli(api, seed, tmp).script
    for argv, check in [(None, None), *script]:
        args = ["-c", "import triplepack.cli"] if argv is None else ["-m", "triplepack.cli", *argv]
        label = "import" if argv is None else " ".join(os.path.basename(a) for a in argv)
        yield label.split()[0], label, partial(fresh, args, tmp), partial(describe, args, check)


LAYERS = {"desk": desk_ops, "sweep": sweep_ops, "cli": cli_ops}


def host_probe(layer: str, workloads, run, tmp: str) -> tuple:
    """The probe that the layer's times are corrected with, and its
    quiet-host time in seconds."""
    if layer == "cli":
        return partial(fresh, ["-c", "pass"], tmp), BARE_START_QUIET_S
    return workloads.reference_loop, run.REFERENCE_QUIET_S


@contextlib.contextmanager
def counting(api):
    """Count the pairs handed to Multigraph and the calls of
    DiophInstance.satisfied_by while the block runs."""
    counts = {"pairs": 0, "scan_steps": 0}
    post_init, satisfied_by = api.Multigraph.__post_init__, api.DiophInstance.satisfied_by

    def counted_init(self):
        counts["pairs"] += len(self.mult_map)
        post_init(self)

    def counted_check(self, x):
        counts["scan_steps"] += 1
        return satisfied_by(self, x)

    api.Multigraph.__post_init__, api.DiophInstance.satisfied_by = counted_init, counted_check
    try:
        yield counts
    finally:
        api.Multigraph.__post_init__, api.DiophInstance.satisfied_by = post_init, satisfied_by


def measure(layer: str, seed: int, repeats: int) -> list:
    """Per operation of the layer: kind, label, answer, digest, work
    counters and host-corrected time in ms (None when not run), on
    whichever ``triplepack`` is importable."""
    sys.dont_write_bytecode = True  # leave no caches under perfbench/
    workloads, run = perfbench()
    api = workloads.load_api()
    with tempfile.TemporaryDirectory() as tmp:
        ops = list(LAYERS[layer](workloads, api, seed, tmp))
        probe, quiet_s = host_probe(layer, workloads, run, tmp)
        rows = []
        for kind, label, call, describe in ops:  # untimed: fills caches too
            answer, answer_digest, work = None, None, {}
            if call is not None:
                with counting(api) as counts:
                    answer, answer_digest, work = describe()
                work = {**{name: c for name, c in counts.items() if c}, **work}
            rows.append({"kind": kind, "op": label, "answer": answer, "digest": answer_digest,
                         "work": work, "ms": None})
        # as the benchmark does: long-lived objects out of the collector's view
        gc.collect()
        gc.freeze()
        for row, (_kind, _label, call, _describe) in zip(rows, ops):
            if call is None:
                continue
            probe_s = []
            for _ in range(3):
                start = time.perf_counter()
                probe()
                probe_s.append(time.perf_counter() - start)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
            row["ms"] = best / min(probe_s) * quiet_s * 1e3
    return rows


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def run_side(tree: Path, layer: str, seed: int, repeats: int) -> list:
    """The rows of ``measure`` in a fresh process on ``tree``'s package."""
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", "--layer", layer, "--seed", str(seed),
         "--repeats", str(repeats)],
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"measuring {tree} failed:\n{proc.stderr[-2000:]}")
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


def summarize(rows: list, sides) -> dict:
    """Operation count, total ms per side and work totals per side."""
    out = {"ops": len(rows)}
    for side in sides:
        out[f"{side}_ms"] = round(sum(r[f"{side}_ms"] for r in rows), 3)
    for side in sides:
        totals = {}
        for row in rows:
            for name, value in row[f"{side}_work"].items():
                totals[name] = totals.get(name, 0) + value
        out[f"{side}_work"] = totals
    return out


class AnswersDiffer(Exception):
    pass


def compare(runs: dict) -> dict:
    """The report of the rounds of both sides.  Raises AnswersDiffer,
    naming the operations, unless every round of both sides gave the same
    answers (status and check verdict).  The operations whose answer
    digests differ between the sides' first rounds are listed, not gated.
    Operations that were not run count as slower than every timed one in
    the tail."""
    keyed = [[(r["op"], r["answer"]) for r in run] for side in runs for run in runs[side]]
    if any(k != keyed[0] for k in keyed):
        differ = {op for k in keyed for (op, a), (_, b) in zip(k, keyed[0]) if a != b}
        raise AnswersDiffer(", ".join(sorted(differ)[:10]) or "the operations differ")
    first = {side: runs[side][0] for side in runs}
    rows = []
    for i, row in enumerate(first["parent"]):
        out = {"kind": row["kind"], "op": row["op"]}
        for side in runs:
            times = [run[i]["ms"] for run in runs[side]]
            out[f"{side}_ms"] = None if None in times else round(statistics.median(times), 4)
        for side in runs:
            out[f"{side}_work"] = first[side][i]["work"]
        rows.append(out)
    timed = [r for r in rows if r["parent_ms"] is not None]
    untimed = len(rows) - len(timed)

    _workloads, run = perfbench()
    tails = {}
    for side in runs:
        ms = [r[f"{side}_ms"] for r in timed] + [float("inf")] * untimed
        pct, value = run.tail(ms)
        tails[side] = {"p50_ms": round(statistics.median(ms), 4), f"p{pct}_ms": round(value, 4)}
    total = summarize(timed, runs)
    return {
        "answers_equal": True,
        "answers_sha256": hashlib.sha256(json.dumps(keyed[0]).encode()).hexdigest(),
        "untimed_ops": untimed,
        "total": {**total, "ratio": round(total["parent_ms"] / total["change_ms"], 3)},
        "work_differs": [r["op"] for r in rows if r["parent_work"] != r["change_work"]],
        "digests_differ": [p["op"] for p, c in zip(first["parent"], first["change"])
                           if p["digest"] != c["digest"]],
        "tail": tails,
        "by_kind": {kind: summarize([r for r in timed if r["kind"] == kind], runs)
                    for kind in sorted({r["kind"] for r in timed})},
        "slowest": sorted(timed, key=lambda r: -r["parent_ms"])[:SLOWEST],
        "ops": rows,
    }


def launch(args: list, cwd=None) -> subprocess.CompletedProcess:
    """Run ``args`` in a process that a shell forks, and wait for it.

    Linux carries ``ru_maxrss`` across fork and exec, so a process started
    straight from this one would report this one's peak memory as its own
    whenever that is higher.  Forked from a small shell, it starts from
    the shell's; ``exit $?`` keeps the shell from exec-ing it in place.
    """
    return subprocess.run(["/bin/sh", "-c", '"$0" "$@"; exit $?', *args],
                          cwd=cwd, capture_output=True, text=True, check=True)


def e2e_runs(trees: dict, workload: str, seeds: range) -> dict:
    """Pairs of ``perfbench/run.py`` runs, the side that goes first alternating."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {side: [] for side in trees}
    passes = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        for side in sorted(trees, reverse=i % 2 == 1):
            proc = launch([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                          cwd=trees[side])
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
    p.add_argument("--layer", required=True, choices=sorted(LAYERS))
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--e2e-pairs", type=int, default=0)
    p.add_argument("--e2e-first-seed", type=int, default=1201)
    p.add_argument("--out", help="JSON file to write (default: print the report)")
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        json.dump(measure(args.layer, args.seed, args.repeats), sys.stdout)
        return 0
    if not args.parent:
        p.error("--parent is required")

    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", args.parent],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    command = (f"python3 bench/compare.py --layer {args.layer} --parent {args.parent} "
               f"--seed {args.seed} --repeats {args.repeats} --rounds {args.rounds}")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract_tree(sha, Path(tmp) / "parent"),
                 "change": extract_tree(None, Path(tmp) / "change")}
        runs = {side: [] for side in trees}
        for r in range(args.rounds):
            for side in sorted(trees, reverse=r % 2 == 1):  # alternate which side runs first
                runs[side].append(run_side(trees[side], args.layer, args.seed, args.repeats))
        try:
            report = compare(runs)
        except AnswersDiffer as exc:
            print(f"answers differ between the sides or the rounds: {exc}", file=sys.stderr)
            return 1
        e2e = {}
        if args.e2e_pairs:
            seeds = range(args.e2e_first_seed, args.e2e_first_seed + args.e2e_pairs)
            e2e = {"command": f"{command} --e2e-pairs {args.e2e_pairs} "
                   f"--e2e-first-seed {args.e2e_first_seed}",
                   **e2e_runs(trees, args.layer, seeds)}

    layer = {"command": command, "parent": sha, "seed": args.seed, "repeats": args.repeats,
             "rounds": args.rounds, **report}
    total, tails = report["total"], report["tail"]
    print(f"{args.layer}: {total['ops']} operations, answers equal; total "
          f"{total['parent_ms']} -> {total['change_ms']} ms ({total['ratio']}x); "
          f"tail {tails['parent']} -> {tails['change']}; "
          f"{len(report['work_differs'])} operations with other work counters, "
          f"{len(report['digests_differ'])} with other answer digests", file=sys.stderr)
    if not args.out:
        json.dump({"layer": layer, "end_to_end": e2e}, sys.stdout, indent=1)
        return 0
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["hardware"] = (f"{platform.machine()}, {os.cpu_count()} CPUs, "
                        f"{platform.python_implementation()} {platform.python_version()}, "
                        "one process at a time")
    data.setdefault("layers", {})[args.layer] = layer
    if e2e:
        data.setdefault("end_to_end", {})[args.layer] = e2e
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
