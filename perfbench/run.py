"""triplepack benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload sweep|desk|cli --seed N --seconds S --trace 0|1

Run from the root of a triplepack checkout; the package is imported from
its ``src/`` directory, so there is nothing to build.  One client in one
process and one thread runs whole passes of the workload's batch until S
seconds have passed (and at least the workload's minimum number of
passes), checks every answer, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, their times corrected
for the host's speed as a reference loop measures it; with ``--trace 1``
the run wraps the package's cross-module calls and prints the per-layer
ones instead.  See perfbench/README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Cli, load_api

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "out_kb": "KB",
    "gap_sum": "count",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.sympy_s": "s",
    "cli.self_s": "s",
    "params.calls": "count",
    "params.self_s": "s",
    "multigraph.calls": "count",
    "multigraph.self_s": "s",
    "multigraph.realize_s": "s",
    "multigraph.build_s": "s",
    "multigraph.degrees_calls": "count",
    "multigraph.pairs_built": "count",
    "leave.calls": "count",
    "leave.self_s": "s",
    "leave.refused": "count",
    "gdd.calls": "count",
    "gdd.self_s": "s",
    "gdd.search_nodes": "count",
    "decomp.calls": "count",
    "decomp.self_s": "s",
    "decomp.nodes": "count",
    "decomp.nodes_per_s": "1/s",
    "decomp.found_ratio": "frac",
    "oracle.packing_self_s": "s",
    "oracle.packing_nodes": "count",
    "oracle.packing_nodes_per_s": "1/s",
    "oracle.leave_self_s": "s",
    "oracle.bricks_tested": "count",
    "oracle.brick_decomp_s": "s",
    "dioph.calls": "count",
    "dioph.self_s": "s",
    "jsonio.calls": "count",
    "jsonio.dump_s": "s",
    "jsonio.load_s": "s",
    "jsonio.bytes": "bytes",
    "trace.overhead_frac": "frac",
}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# the reference loop's (workloads.reference_loop) median time on a quiet
# host: 2-vCPU Xeon KVM guest, Python 3.11, where its lower quartile
# measured 144 us
REFERENCE_QUIET_S = 1.4e-4
SETUP_REPEATS = 9


def python_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_python(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=python_env(), cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def setup_sample() -> float:
    """Wall time of a fresh interpreter running ``import triplepack.cli``."""
    start = time.perf_counter()
    proc = fresh_python("-c", "import triplepack.cli")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import triplepack.cli failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def import_seconds() -> tuple:
    """(package, sympy) cumulative import times from ``-X importtime``,
    medians of three fresh interpreters."""
    totals, sympys = [], []
    for _ in range(3):
        err = fresh_python("-X", "importtime", "-c", "import triplepack.cli").stderr
        total = sympy = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2]
            if not name.startswith("  ") and name.strip().startswith("triplepack"):
                total += cumulative
            if name.strip() == "sympy" and not sympy:
                sympy = cumulative
        totals.append(total / 1e6)
        sympys.append(sympy / 1e6)
    return statistics.median(totals), statistics.median(sympys)


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest listed percentile with at least
    ten samples above it, by the nearest-rank rule; the slowest sample
    (percentile 100) when there are too few samples for any."""
    lat = sorted(latencies)
    for p in TAIL_PERCENTILES:
        if len(lat) * (100 - p) / 100 >= 10:
            return p, lat[max(0, math.ceil(p / 100 * len(lat)) - 1)]
    return 100, lat[-1]


def run_passes(wl, seconds: float, min_passes: int) -> tuple:
    """(passes, host slowdown of each pass, set-up samples): passes of the
    workload's batch until they have taken ``seconds`` (and at least
    ``min_passes`` of them).  The SETUP_REPEATS set-up samples are taken
    between passes, spread evenly over the run; each is paired with the
    slowdown of the pass before it."""
    fresh_python("-c", "import triplepack.cli")  # writes the bytecode caches; not timed
    passes, slowdowns, setups = [], [], []
    spent = 0.0
    while len(passes) < min_passes or spent < seconds:
        mark = len(wl.host.samples)
        start = time.perf_counter()
        passes.append(wl.run_pass())
        spent += time.perf_counter() - start
        slowdowns.append(host_slowdown(wl.host.samples[mark:]))
        if len(setups) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * spent / seconds)):
            setups.append((slowdowns[-1], setup_sample()))
    while len(setups) < SETUP_REPEATS:
        setups.append((slowdowns[-1], setup_sample()))
    return passes, slowdowns, setups


def busy_seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def typical_latencies(passes, slowdowns) -> list:
    """Each operation of the batch at the median of its repeats, each
    repeat divided by the host slowdown of its pass.  Every pass runs the
    same batch in the same order, so operation i of one pass repeats
    operation i of the others."""
    return [
        statistics.median(p[i].seconds / slow for p, slow in zip(passes, slowdowns))
        for i in range(len(passes[0]))
    ]


def host_slowdown(samples) -> float:
    """How many times slower than quiet the host ran while ``samples`` of
    the reference loop's time were taken: their median over its
    quiet-host time."""
    return statistics.median(samples) / REFERENCE_QUIET_S


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(wl, passes, slowdowns, setups) -> dict:
    """The end-to-end metrics, every time divided by the host slowdown;
    the figures as measured are printed next to them."""
    ops = [op for p in passes for op in p]
    lat = typical_latencies(passes, slowdowns)
    raw = typical_latencies(passes, [1.0] * len(passes))
    pct, tail_s = tail(lat)
    failed = sum(op.status != "ok" for op in ops)
    print(f"{wl.name}: {len(passes)} passes of {len(lat)} operations, {failed} of {len(ops)} failed; "
          f"op_tail_ms is p{pct} of {len(lat)} operations")
    print(f"  host slowdown per pass {min(slowdowns):.3f}..{max(slowdowns):.3f} "
          f"({len(wl.host.samples)} reference samples); as measured: "
          f"setup {statistics.median(t for _, t in setups):.4f} s, op p50 {1e3 * statistics.median(raw):.4f} ms, "
          f"tail {1e3 * tail(raw)[1]:.4f} ms, {len(raw) / sum(raw):.4f} ops/s")
    kinds = {}
    for op, seconds in zip(passes[0], raw):
        count, busy = kinds.get(op.kind, (0, 0.0))
        kinds[op.kind] = (count + 1, busy + seconds)
    for kind, (count, busy) in sorted(kinds.items()):
        print(f"  {kind}: {count} operations, {busy:.4f} s per pass as measured")
    return {
        "setup_s": statistics.median(t / slow for slow, t in setups),
        "ok_frac": 1 - failed / len(ops),
        "peak_rss_mb": peak_rss_mb(wl.uses_children),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "out_kb": sum(op.out_bytes for op in ops) / len(ops) / 1024,
        "gap_sum": sum(op.gap for op in passes[0]),
    }


def traced(wl, api, seconds: float, seed: int) -> tuple:
    """Untraced and traced passes, alternating, so that a slow stretch of
    the machine does not land on one side only, after one discarded pass
    that fills caches and the heap.  The per-layer figures come from the
    traced passes, per pass."""
    from spans import Tracer, layer_metrics

    wl.run_pass()
    tracer = Tracer()
    plain, observed = [], []
    start = time.perf_counter()
    while not observed or time.perf_counter() - start < seconds:
        if len(observed) == len(plain):
            plain.append(wl.run_pass())
            continue
        tracer.install(api.modules, api)
        wl.quiet = tracer.pause
        try:
            observed.append(wl.run_pass())
        finally:
            tracer.restore()
            wl.quiet = contextlib.nullcontext
    metrics = layer_metrics(tracer.spans, tracer.counters, len(observed))
    ratio = statistics.median(map(busy_seconds, observed)) / statistics.median(map(busy_seconds, plain))
    metrics["trace.overhead_frac"] = ratio - 1
    metrics["import.total_s"], metrics["import.sympy_s"] = import_seconds()
    spans_path = OUT / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write(spans_path)
    print(f"{wl.name}: {len(observed)} traced passes, {len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    return plain + observed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "desk", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triplepack" / "__init__.py").is_file():
        print(f"error: no triplepack sources under {SRC}; run from a triplepack checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import triplepack

    if Path(triplepack.__file__).resolve().parent != SRC / "triplepack":
        print(f"error: imported triplepack from {triplepack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        api = load_api()
        cls = WORKLOADS[args.workload]
        if cls is Cli:
            wl = Cli(api, args.seed, str(tmp), in_process=bool(args.trace))
        else:
            wl = cls(api, args.seed, str(tmp))
        wl.warm()
        # Move the benchmark's own long-lived objects (imported modules,
        # sympy, the inputs) out of the collector's view: otherwise a full
        # collection scans them all and lands on whichever operation
        # crosses the threshold, a cost that moves with the seed's order.
        gc.collect()
        gc.freeze()
        if args.trace:
            passes, metrics = traced(wl, api, args.seconds, args.seed)
            units = PER_LAYER
        else:
            passes, slowdowns, setups = run_passes(wl, args.seconds, wl.min_passes)
            metrics = end_to_end(wl, passes, slowdowns, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [op for p in passes for op in p]
    bad = [op for op in ops if op.status != "ok"]
    for op in bad[:5]:
        print(f"failed ({op.status}): {op.detail[:300]}", file=sys.stderr)
    result = {
        # "wrong" answers make the run incorrect; operations that gave no
        # answer (see Op.status) are counted in "failed"
        "correct": not any(op.status == "wrong" for op in ops),
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
