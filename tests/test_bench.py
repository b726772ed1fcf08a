"""Smoke test of the bench harness: each layer's measuring step, run twice
on this tree with one repeat, gives rows with answers the workload's
checks accept, answer digests and work counters, and the same answers
both times; and each end-to-end run reports its own peak memory."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "bench" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

# work counters that every operation of a kind reports, and those that
# some operation of each layer reports (a counter that reads 0 is left out)
KIND_COUNTERS = {
    "clique_reduction": {"cliques", "stalls", "appearance"},
    "find_triangle_decomposition": {"nodes"},
    "search_simple_gdd": {"nodes"},
    "max_packing": {"nodes"},
    "import": {"package_modules", "stdlib_modules", "dataclasses", "inspect"},
}
LAYER_COUNTERS = {"desk": {"pairs", "scan_steps"}, "sweep": {"pairs"}, "cli": {"package_modules"}}


@pytest.mark.parametrize("layer", sorted(compare.LAYERS))
def test_measure_twice(layer):
    first, second = (compare.run_side(ROOT, layer, seed=1, repeats=1) for _ in range(2))
    assert [(r["op"], r["answer"]) for r in first] == [(r["op"], r["answer"]) for r in second]
    timed = [r for r in first if r["ms"] is not None]
    assert timed and all(r["answer"][1] == "ok" and r["ms"] > 0 for r in timed)
    assert all(len(r["digest"]) == 16 for r in timed)
    for row in timed:
        assert KIND_COUNTERS.get(row["kind"], set()) <= row["work"].keys(), row
    assert LAYER_COUNTERS[layer] <= {name for r in timed for name in r["work"]}
    if layer == "cli":
        assert all(r["answer"][0] == "exit 0" and r["work"]["package_modules"] >= 4 for r in timed)
    if layer == "desk":
        # the slowest desk tasks are kept as rows but not run
        assert len(first) - len(timed) == 8


def test_answers_gate_the_report():
    rows = [{"kind": "k", "op": "a", "answer": ["found", "ok"], "digest": "x",
             "work": {"nodes": 3}, "ms": 1.0}]
    other = [{**rows[0], "digest": "y", "work": {"nodes": 4}, "ms": 2.0}]
    report = compare.compare({"parent": [rows], "change": [other]})
    # another valid answer and other work counters are reported, not gated
    assert report["work_differs"] == report["digests_differ"] == ["a"]
    assert report["total"]["ratio"] == 0.5
    for answer in (["none-found", "ok"], ["found", "triangles do not decompose the graph"]):
        wrong = [{**rows[0], "answer": answer}]
        with pytest.raises(compare.AnswersDiffer, match="a"):
            compare.compare({"parent": [rows], "change": [wrong]})


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss survives fork and exec on Linux")
def test_each_run_reports_its_own_peak_memory():
    probe = [sys.executable, "-c",
             "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]
    ballast = b"x" * (64 << 20)  # this process's peak is now above 64 MB
    direct = int(subprocess.run(probe, capture_output=True, text=True, check=True).stdout)
    launched = int(compare.launch(probe).stdout)
    del ballast
    # ru_maxrss is in KiB: started straight from here, the probe reads this
    # process's peak; through the launcher, its own (a bare interpreter)
    assert direct > 64 << 10
    assert launched < 32 << 10
