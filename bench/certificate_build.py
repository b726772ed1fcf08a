"""Time the certificate build of a parent revision and of the working tree
on the benchmark's sweep items, and write BENCH_certificate_build.json.

    python3 bench/certificate_build.py --parent REV [--seed 1] [--repeats 5] \
        [--rounds 5] [--out BENCH_certificate_build.json]

The items are the sweep's (n, k) for ``--seed`` (``sweep_items`` of
``perfbench/workloads.py``, about 130 certificates, k = 5..9).  Each is
timed twice: the construction alone (``achieved_lower_bound``), and the
whole pipeline the sweep times (construct, check the leave conditions,
write JSON, read it back, ``verify_certificate``).

Each round starts one fresh worker process per side on its own copy of
the tree (made as ``bench/desk_tail.py`` makes it: the parent's with
``git archive``, the working tree's files copied).  A worker first makes
one untimed pass: it fills the constructors' caches, hashes each
certificate's bytes (or its refusal) and counts the pairs handed to
``Multigraph`` over the pipeline, a counter that does not depend on the
machine; then, as ``perfbench/run.py`` does, it freezes the objects alive
out of the garbage collector's view.  The two workers then time each
certificate in turn, ``--repeats`` times each, the side that goes first
alternating, so that both sides see the same host, whose speed can drift
by tens of percent within seconds.  A certificate's time is the fastest
of its repeats in a round, then the median over the rounds.

The file reports the 13 slowest certificates (a tenth of the sweep, the
ones that set its p90) by the parent's pipeline time, and each case, with
the median and the total of their times.  The certificate bytes must hash
equal on both sides; otherwise nothing is written and the exit code is 1.
Keys of an existing output file that this script does not write (such as
end-to-end benchmark figures) are kept.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
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
SLOWEST = 13


def sweep(seed: int) -> list:
    """(n, k) of the sweep items for ``seed``."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import sweep_items

    from triplepack.params import classify

    return sweep_items(seed, classify)


def pipeline(n: int, k: int) -> str:
    """The sweep's operation: the JSON text of the checked certificate,
    or the constructor's refusal (type, min_n and message)."""
    from triplepack import jsonio
    from triplepack.errors import TriplepackError
    from triplepack.leave import achieved_lower_bound, verify_certificate

    try:
        _xi, cert = achieved_lower_bound(n, k)
    except TriplepackError as exc:
        return f"{type(exc).__name__} (min_n {getattr(exc, 'min_n', None)}): {exc}"
    held = cert.conditions().all_pass()
    text = jsonio.dumps(jsonio.certificate_to_dict(cert))
    back = jsonio.certificate_from_dict(json.loads(text))
    if not (held and verify_certificate(back)):
        raise AssertionError(f"{(n, k)}: the certificate does not check")
    return text


def construct(n: int, k: int) -> None:
    from triplepack.errors import TriplepackError
    from triplepack.leave import achieved_lower_bound

    try:
        achieved_lower_bound(n, k)
    except TriplepackError:
        pass


def describe(n: int, k: int) -> dict:
    """Case, sha256 of the bytes or of the refusal, and pairs handed to
    Multigraph over the pipeline, from one untimed run."""
    from triplepack.multigraph import Multigraph
    from triplepack.params import classify

    post_init = Multigraph.__post_init__
    pairs = 0

    def counted(self):
        nonlocal pairs
        pairs += len(self.mult_map)
        post_init(self)

    Multigraph.__post_init__ = counted
    try:
        text = pipeline(n, k)
    finally:
        Multigraph.__post_init__ = post_init
    digest = hashlib.sha256(text.encode()).hexdigest()
    return {"n": n, "k": k, "case": classify(n, k)[0].value, "sha256": digest, "pairs": pairs}


def serve(seed: int) -> None:
    """Worker loop on whichever ``triplepack`` is importable: the request
    "describe" gets the description of every sweep item, an item's index
    the construct and pipeline times of that item in ms."""
    items = sweep(seed)
    for line in sys.stdin:
        if line.strip() == "describe":
            reply = [describe(n, k) for n, k in items]
            gc.collect()
            gc.freeze()
        else:
            n, k = items[int(line)]
            start = time.perf_counter()
            construct(n, k)
            mid = time.perf_counter()
            pipeline(n, k)
            end = time.perf_counter()
            reply = [(mid - start) * 1e3, (end - mid) * 1e3]
        print(json.dumps(reply), flush=True)


class Worker:
    def __init__(self, src: Path, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", "--seed", str(seed)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request):
        self.proc.stdin.write(f"{request}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def run_round(sides: dict, seed: int, repeats: int, first: int) -> dict:
    """side -> per item: its description plus the fastest construct and
    pipeline times of ``repeats`` interleaved runs."""
    workers = {}
    try:
        for side, src in sides.items():
            workers[side] = Worker(src, seed)
        rows = {side: w.ask("describe") for side, w in workers.items()}
        order = list(sides)
        for i in range(len(rows[order[0]])):
            times = {side: [] for side in sides}
            for rep in range(repeats):
                for side in order[::-1] if (first + i + rep) % 2 else order:
                    times[side].append(workers[side].ask(i))
            for side in sides:
                rows[side][i]["construct_ms"] = min(t[0] for t in times[side])
                rows[side][i]["pipeline_ms"] = min(t[1] for t in times[side])
    finally:
        for w in workers.values():
            w.close()
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision to compare against")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--out", default=str(REPO / "BENCH_certificate_build.json"))
    p.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.serve:
        serve(args.seed)
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
        runs = [run_round(sides, args.seed, args.repeats, r) for r in range(args.rounds)]

    items = []
    for i, row in enumerate(runs[0]["parent"]):
        if len({run[side][i]["sha256"] for run in runs for side in sides}) != 1:
            print(f"certificate bytes differ between the sides at {(row['n'], row['k'])}",
                  file=sys.stderr)
            return 1
        item = {key: row[key] for key in ("n", "k", "case")}
        for side in sides:
            item[f"{side}_pairs"] = runs[0][side][i]["pairs"]
            for what in ("construct", "pipeline"):
                item[f"{side}_{what}_ms"] = round(
                    statistics.median(run[side][i][f"{what}_ms"] for run in runs), 4
                )
        items.append(item)

    def summary(chosen) -> dict:
        out = {"count": len(chosen)}
        for side in sides:
            out[f"{side}_pairs"] = sum(i[f"{side}_pairs"] for i in chosen)
            for what in ("construct", "pipeline"):
                times = [i[f"{side}_{what}_ms"] for i in chosen]
                out[f"{side}_{what}_ms"] = round(statistics.median(times), 4)
                out[f"{side}_{what}_ms_total"] = round(sum(times), 3)
        return out

    slowest = sorted(items, key=lambda i: -i["parent_pipeline_ms"])[:SLOWEST]
    cases = {case: summary([i for i in items if i["case"] == case])
             for case in sorted({i["case"] for i in items})}
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update({
        "topic": "r-case leave built once from a bucket-level Havel-Hakimi; "
        "canonical Multigraph maps copied after one comparison per pair (same bytes)",
        "hardware": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}, one thread per side",
        "micro_command": "python3 bench/certificate_build.py "
        f"--parent {args.parent} --seed {args.seed} --repeats {args.repeats} --rounds {args.rounds}",
        "micro": {
            "parent": sha,
            "seed": args.seed,
            "method": "per certificate: fastest of the repeats in a round, the two sides "
            "interleaved run by run, then median over the rounds; certificate bytes hash "
            "equal on both sides; pairs = pairs handed to Multigraph over one pipeline run",
            "bytes_equal": True,
            "all": summary(items),
            "slowest_13": {"summary": summary(slowest), "items": slowest},
            "cases": cases,
        },
    })
    out.write_text(json.dumps(data, indent=1) + "\n")
    a, s = data["micro"]["all"], data["micro"]["slowest_13"]["summary"]
    print(f"{len(items)} certificates, bytes equal; slowest {SLOWEST} total pipeline "
          f"{s['parent_pipeline_ms_total']} -> {s['change_pipeline_ms_total']} ms, construct "
          f"{s['parent_construct_ms_total']} -> {s['change_construct_ms_total']} ms; pairs "
          f"{a['parent_pairs']} -> {a['change_pairs']}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
