"""Self-tests of the benchmark: seeded inputs, the answer checks, and the
span arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return workloads.load_api()


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs(api, tmp_path):
    assert workloads.sweep_items(3, api.classify) == workloads.sweep_items(3, api.classify)
    assert workloads.sweep_items(3, api.classify) != workloads.sweep_items(4, api.classify)

    def desk_inputs(seed):
        return [(t.kind, t.fn, repr(t.args)) for t in workloads.Desk(api, seed, str(tmp_path)).tasks]

    assert desk_inputs(3) == desk_inputs(3)
    assert desk_inputs(3) != desk_inputs(4)

    def cli_inputs(seed, name):
        tmp = tmp_path / f"{name}-{seed}"
        tmp.mkdir()
        workloads.Cli(api, seed, str(tmp))
        return (tmp / "d.json").read_text(), (tmp / "g.json").read_text()

    first, again, other = cli_inputs(3, "a"), cli_inputs(3, "b"), cli_inputs(4, "c")
    assert first == again != other


def test_sweep_keeps_the_case_mix(api):
    items = workloads.sweep_items(7, api.classify)
    lo, hi = workloads.SWEEP_N
    share = workloads.SWEEP_SHARE
    for k in workloads.SWEEP_K:
        period = k * (k - 1) * (k - 2)
        ns = [n for n, kk in items if kk == k]
        assert len({n % period for n in ns}) == len(ns)
        assert all(lo <= n <= hi for n in ns)
        every = Counter(api.classify(c + period * (c < lo), k)[0] for c in range(period))
        kept = Counter(api.classify(n, k)[0] for n in ns)
        assert kept == Counter({case: -(-count // share) for case, count in every.items()})


@pytest.fixture(scope="module")
def certificate(api):
    # p-case with explicit simple-GDD evidence blocks
    _xi, cert = api.achieved_lower_bound(68, 5)
    d = json.loads(api.dumps(api.certificate_to_dict(cert)))
    return d, api.upper_bound(68, 5)


def _tamper_edge(d):
    d["graph"]["edges"][0][2] += 3


def _tamper_xi(d):
    d["xi"] += 1


def _tamper_drop_edge(d):
    d["graph"]["edges"].pop()


def _tamper_block(d):
    item = next(e for e in d["evidence"] if e.get("blocks"))
    item["blocks"][0] = [0, 1, 2] if item["blocks"][0] != [0, 1, 2] else [0, 1, 3]


def _tamper_mult_residue(d):
    # edge total unchanged, but two multiplicities leave their residue class
    d["graph"]["edges"][0][2] += 1
    d["graph"]["edges"][1][2] -= 1


@pytest.mark.parametrize(
    "tamper", [_tamper_edge, _tamper_xi, _tamper_drop_edge, _tamper_block, _tamper_mult_residue]
)
def test_certificate_check_rejects_tampering(certificate, tamper):
    d, upper = certificate
    assert checks.certificate_errors(d, upper) == []
    bad = json.loads(json.dumps(d))
    tamper(bad)
    assert checks.certificate_errors(bad, upper)


def test_certificate_check_rejects_xi_above_bound(certificate):
    d, upper = certificate
    assert "xi above the upper bound" in checks.certificate_errors(d, d["xi"] - 1)


def test_sweep_check_rejects_changed_output(api, tmp_path):
    sweep = workloads.Sweep(api, 1, str(tmp_path))
    res = sweep.certify(68, 5)
    sweep.upper[(68, 5)] = api.upper_bound(68, 5)
    assert sweep.check(68, 5, res)[0] == []
    changed = list(res)
    changed[2] = res[2].replace('"xi": ', '"xi": 1')
    assert sweep.check(68, 5, tuple(changed))[0] == ["output differs from the checked one"]


def test_packing_check_rejects_wrong_value(api, tmp_path):
    desk = workloads.Desk(api, 1, str(tmp_path))
    task = desk.tasks[0]
    assert task.fn == "max_packing" and task.args == (8, 4, 3)
    rep = api.max_packing(8, 4, 3)
    assert task.check(rep)[0] == []
    short = type(rep)(rep.status, 13, rep.witness[:13], rep.nodes_explored)
    assert task.check(short)[0]
    doubled = type(rep)(rep.status, 14, rep.witness[:13] + rep.witness[:1], rep.nodes_explored)
    assert task.check(doubled)[0]


def test_small_checks_reject_broken_answers():
    assert checks.avoidance_errors([(5, 2)], [(7, (3,))], 2, 70) == []
    assert checks.avoidance_errors([(5, 2)], [(7, (2,))], 2, 70)
    assert checks.avoidance_errors([(5, 2)], [], 8, 70)
    triangle = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert checks.triangles_decompose(triangle, [(2, 1, 0)])
    assert not checks.triangles_decompose(triangle, [])
    assert checks.reduction_errors(3, triangle, [(0, 1, 2)], {}) == []
    assert checks.reduction_errors(3, triangle, [(0, 1, 2)], {(0, 1): 1})
    assert checks.gdd_blocks_ok(1, 3, 1, [(0, 1, 2)])
    assert not checks.gdd_blocks_ok(2, 3, 1, [(0, 1, 2)])


def test_self_time_on_synthetic_tree():
    tree = [
        ["leave.achieved_lower_bound", 0.0, 10.0, -1],
        ["multigraph.overlay", 1.0, 4.0, 0],
        ["multigraph.degrees", 2.0, 3.0, 1],
        ["params.classify", 5.0, 9.0, 0],
        ["multigraph.overlay", 9.5, 10.0, 0],
    ]
    assert spans.self_times(tree) == [2.5, 2.0, 1.0, 4.0, 0.5]
    assert spans.inclusive_time(tree, {"multigraph.overlay", "multigraph.degrees"}) == 3.5
    layers = spans.layer_metrics(tree, Counter(), passes=2)
    assert layers["leave.self_s"] == 1.25
    assert layers["multigraph.self_s"] == 1.75
    assert layers["params.self_s"] == 2.0
    assert layers["multigraph.build_s"] == 1.75
    assert layers["multigraph.calls"] == 1.5 and layers["multigraph.degrees_calls"] == 0.5


def test_tracer_restores_every_binding(api):
    from triplepack import leave, multigraph

    before = (leave.overlay, multigraph.Multigraph.degrees, api.max_packing)
    tracer = spans.Tracer()
    tracer.install(api.modules, api)
    try:
        api.achieved_lower_bound(75, 5)
        names = {s[0] for s in tracer.spans}
        assert {"leave.achieved_lower_bound", "multigraph.overlay", "multigraph.degrees"} <= names
    finally:
        tracer.restore()
    assert (leave.overlay, multigraph.Multigraph.degrees, api.max_packing) == before


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(44))) == (75, 32)
    assert run.tail(list(range(1230)))[0] == 99
    assert run.tail(list(range(11))) == (100, 10)


def test_typical_latencies_take_each_operation_at_its_median_corrected_repeat():
    def op(seconds):
        return workloads.Op("x", seconds, "ok")

    passes = [[op(3.0), op(1.0)], [op(2.0), op(4.0)], [op(5.0), op(1.5)]]
    assert run.typical_latencies(passes, [1.0, 1.0, 1.0]) == [3.0, 1.5]
    # each repeat is divided by the host slowdown of its pass
    assert run.typical_latencies(passes, [1.0, 2.0, 5.0]) == [1.0, 1.0]


def test_host_speed_samples_at_most_once_per_interval():
    host = workloads.HostSpeed()
    for _ in range(20):
        host.probe()
    assert len(host.samples) == 1 and host.samples[0] > 0
    assert run.host_slowdown([run.REFERENCE_QUIET_S * 2] * 3) == 2.0
