"""Time each command of the benchmark's cli script in fresh processes, for a
parent revision and for the working tree, and write BENCH_cold_start.json.

    python3 bench/cold_start.py --parent REV [--seed 1] [--rounds 10] \
        [--e2e cli,sweep,desk] [--e2e-pairs 10] [--e2e-first-seed 1201] \
        [--out BENCH_cold_start.json]

The commands and their seeded input files are those of the cli workload in
``perfbench/workloads.py`` (class ``Cli``), plus a bare
``import triplepack.cli``, the benchmark's set-up sample.  Each side runs
from its own copy of the tree (made as ``bench/desk_tail.py`` makes it:
the parent's with ``git archive``, the working tree's files copied) and
its own scratch directory, in fresh interpreters with
PYTHONDONTWRITEBYTECODE=1, as a shell user meets it: every process compiles
the modules it imports.  The sides alternate command by command, and which
side goes first alternates from round to round.

A first, untimed round runs every command under ``-X importtime``; the
package modules it lists, and the standard-library modules (whether
``dataclasses`` and ``inspect`` are among them in particular), are the
machine-independent counters, and each answer is re-checked with the
workload's own check.  The answers must be
equal on both sides; otherwise nothing is written and the exit code is 1.
A command's time is the median of its ``--rounds`` timed runs.

With ``--e2e-pairs N`` the script then runs ``perfbench/run.py --trace 0``
pairs for each listed workload on copies of both trees, as
``bench/desk_tail.py`` does, and records every end-to-end metric.  Keys of
an existing output file that this script does not write are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
IMPORT_ONLY = ("-c", "import triplepack.cli")
WATCHED = ("dataclasses", "inspect")  # stdlib modules the package should not need


def cli_script(seed: int, tmp: str) -> list:
    """(argv, check) of the cli workload for ``seed``, its input files
    written under ``tmp``; the checks come from the working tree's package."""
    sys.dont_write_bytecode = True  # leave no caches under perfbench/ or src/
    for path in (REPO / "perfbench", REPO / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads.Cli(workloads.load_api(), seed, tmp).script


def python_args(argv) -> list:
    return list(IMPORT_ONLY) if argv is None else ["-m", "triplepack.cli", *argv]


def run(src: Path, tmp: str, args: list) -> tuple:
    """(seconds, process) of one fresh interpreter on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tmp, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, proc


def imported(importtime_stderr: str) -> tuple:
    """The triplepack modules and the standard-library modules an
    ``-X importtime`` listing names."""
    names = {line.rsplit("|", 1)[-1].strip() for line in importtime_stderr.splitlines() if "|" in line}
    return (
        sorted(name for name in names if name.split(".")[0] == "triplepack"),
        sorted(name for name in names if name.split(".")[0] in sys.stdlib_module_names),
    )


def first_round(src: Path, tmp: str, script: list) -> list:
    """Per command: (modules, stdlib modules, status, answer) from one untimed run."""
    import workloads

    rows = []
    for argv, check in script:
        _, proc = run(src, tmp, ["-X", "importtime", *python_args(argv)])
        status, answer = "ok", ""
        if proc.returncode not in (0, 1):
            status = f"exit {proc.returncode}"
        elif check is not None:
            errs, answer, _gap = workloads.checked(check, proc.stdout)
            if errs or proc.returncode:
                status = "; ".join(errs) or "exit 1"
        rows.append((*imported(proc.stderr), status, answer))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--e2e", default="cli", help="workloads for --e2e-pairs, comma-separated")
    p.add_argument("--e2e-pairs", type=int, default=0)
    p.add_argument("--e2e-first-seed", type=int, default=1201)
    p.add_argument("--out", default=str(REPO / "BENCH_cold_start.json"))
    args = p.parse_args(argv)

    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", args.parent],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    from desk_tail import e2e_runs, extract_tree

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {side: extract_tree(rev, tmp / side) / "src"
                 for side, rev in (("parent", sha), ("change", None))}
        work, scripts = {}, {}
        for side in sides:
            work[side] = str(tmp / f"{side}-work")
            os.mkdir(work[side])
            scripts[side] = [(None, None), *cli_script(args.seed, work[side])]
        checked = {side: first_round(sides[side], work[side], scripts[side]) for side in sides}
        seconds = {side: [[] for _ in scripts[side]] for side in sides}
        for r in range(args.rounds):
            for i in range(len(scripts["parent"])):
                # alternate which side runs first
                for side in sorted(sides, reverse=r % 2 == 1):
                    took, _ = run(sides[side], work[side], python_args(scripts[side][i][0]))
                    seconds[side][i].append(took)
        labels = [
            " ".join(IMPORT_ONLY[1:]) if argv is None
            else " ".join(os.path.basename(a) if a.startswith(work["change"]) else a for a in argv)
            for argv, _ in scripts["change"]
        ]

    commands = []
    for i, label in enumerate(labels):
        (p_mods, p_std, p_status, p_answer), (c_mods, c_std, c_status, c_answer) = (
            checked["parent"][i], checked["change"][i]
        )
        if (p_status, p_answer) != (c_status, c_answer):
            print(f"answers differ between the sides on {label!r}: {p_status!r} vs {c_status!r}", file=sys.stderr)
            return 1
        commands.append({
            "command": label,
            "status": c_status,
            "parent_modules": p_mods,
            "change_modules": c_mods,
            "parent_stdlib": len(p_std),
            "change_stdlib": len(c_std),
            "stdlib_dropped": sorted(set(p_std) - set(c_std)),
            "stdlib_added": sorted(set(c_std) - set(p_std)),
            "parent_loads": [m for m in WATCHED if m in p_std],
            "change_loads": [m for m in WATCHED if m in c_std],
            "parent_ms": round(statistics.median(seconds["parent"][i]) * 1e3, 2),
            "change_ms": round(statistics.median(seconds["change"][i]) * 1e3, 2),
        })

    script_rows = commands[1:]  # without the bare import
    total = {side: round(sum(c[f"{side}_ms"] for c in script_rows), 1) for side in sides}
    modules = {side: sum(len(c[f"{side}_modules"]) for c in script_rows) for side in sides}
    stdlib = {side: sum(c[f"{side}_stdlib"] for c in script_rows) for side in sides}
    loading = {
        m: {side: sum(m in c[f"{side}_loads"] for c in script_rows) for side in sides}
        for m in WATCHED
    }
    e2e = {}
    if args.e2e_pairs:
        seeds = range(args.e2e_first_seed, args.e2e_first_seed + args.e2e_pairs)
        with tempfile.TemporaryDirectory() as tmp:
            trees = {"parent": extract_tree(sha, Path(tmp) / "parent"),
                     "change": extract_tree(None, Path(tmp) / "change")}
            for workload in args.e2e.split(","):
                command = (f"python3 bench/cold_start.py --parent {args.parent} --e2e {workload} "
                           f"--e2e-pairs {args.e2e_pairs} --e2e-first-seed {args.e2e_first_seed}")
                e2e[workload] = {"command": command, **e2e_runs(trees, workload, seeds)}
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update({
        "topic": "cold start without dataclasses: namedtuple records and a __slots__ Multigraph",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}, one process at a time",
        "micro_command": f"python3 bench/cold_start.py --parent {args.parent} "
        f"--seed {args.seed} --rounds {args.rounds}",
        "micro": {
            "parent": sha,
            "seed": args.seed,
            "rounds": args.rounds,
            "method": "fresh interpreters with PYTHONDONTWRITEBYTECODE=1, each side on its own "
            "src/; sides alternate per command and which runs first per round; a command's "
            "time is the median wall time over the rounds (not host-corrected); modules are "
            "the triplepack and standard-library modules listed by -X importtime in an "
            "untimed first round, whose answers were re-checked and equal on both sides",
            "script_total_ms": {**total, "ratio": round(total["parent"] / total["change"], 2)},
            "script_modules_loaded": modules,
            "script_stdlib_modules_loaded": stdlib,
            "script_commands_loading": loading,
            "commands": commands,
        },
    })
    if e2e:
        data["end_to_end"] = {**data.get("end_to_end", {}), **e2e}
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{len(script_rows)} commands: parent {total['parent']} ms, change {total['change']} ms; "
          f"modules loaded {modules['parent']} -> {modules['change']}, "
          f"stdlib {stdlib['parent']} -> {stdlib['change']}; "
          f"import {commands[0]['parent_ms']} -> {commands[0]['change_ms']} ms; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
