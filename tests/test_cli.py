"""Command-line surface: subcommands, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from triplepack import jsonio
from triplepack.cli import BAD_INPUT, BUDGET, FAIL, OK, main
from triplepack.leave import achieved_lower_bound
from triplepack.multigraph import complete
from triplepack.params import johnson_bound, packing_number_k4


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_k4_achieved_matches_formula(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "4", "--n", "6..12",
                           "--format", "json")
        assert code == OK
        rows = json.loads(out)["bounds"]
        assert [r["n"] for r in rows] == list(range(6, 13))
        for r in rows:
            assert r["johnson"] == johnson_bound(r["n"], 4, 3)
            assert r["achieved"] == packing_number_k4(r["n"])
            assert r["achieved"] <= r["upper"]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "5", "--n", "9")
        assert code == OK
        assert "r-nonzero" in out or "9" in out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        code, _, _ = run(capsys, "bounds", "--k", "4", "--n", "8",
                         "--format", "json", "--out", str(path))
        assert code == OK
        assert json.loads(path.read_text())["bounds"][0]["n"] == 8


class TestClassify:
    def test_range(self, capsys):
        code, out, _ = run(capsys, "classify", "--k", "5", "--n", "6..20")
        assert code == OK
        # one line per n > k, plus the header
        assert len(out.strip().splitlines()) == 1 + len(range(6, 21))


class TestConstructAndVerify:
    def test_certificate_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "construct", "--n", "9", "--k", "5",
                         "--out", str(path))
        assert code == OK
        code, out, _ = run(capsys, "verify", str(path))
        assert code == OK and "certificate: ok" in out

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--n", "9", "--k", "5", "--out", str(path))
        data = json.loads(path.read_text())
        data["xi"] += 1
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == FAIL and "FAILED" in out

    def test_replaced_evidence_block_fails(self, tmp_path, capsys):
        # (11, 5) carries an explicit simple-GDD witness; swapping one of
        # its blocks for another triple leaves the leave conditions intact
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--n", "11", "--k", "5", "--out", str(path))
        data = json.loads(path.read_text())
        blocks = data["evidence"][0]["blocks"]
        blocks[0] = next(list(b) for b in combinations(range(11), 3)
                         if list(b) not in blocks)
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == FAIL and "certificate: FAILED" in out

    @pytest.mark.parametrize("tamper", [
        {"case": "design"},
        {"case": "p-nonzero"},
        {"case": "r-nonzero"},
        {"evidence": []},
        {"evidence": [{"kind": "dehon", "params": [4, 100], "copies": 99}]},
        {"evidence": [{"kind": "reduction", "params": [74, 1, 3], "copies": 1}]},
        {"evidence": [{"kind": "dehon", "params": [0, 3], "copies": 4}]},
        {"evidence": [{"kind": "simple-gdd", "params": [9, 3], "copies": 4}]},
    ], ids=["design", "p-nonzero", "r-nonzero", "no-evidence", "dehon-refused",
            "reduction", "parameter-refused", "wrong-arity"])
    def test_relabelled_case_or_replaced_evidence_fails(self, tmp_path, capsys, tamper):
        # the leave conditions of (74, 5) still hold; its case label or
        # evidence no longer matches (74, 5)
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--n", "74", "--k", "5", "--out", str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()), **tamper}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == FAIL and out.strip() == "certificate: FAILED"

    def test_construct_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "construct", "--n", "74", "--k", "5", "--out", str(a))
        run(capsys, "construct", "--n", "74", "--k", "5", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_construct_failure_exit(self, capsys):
        # (13, 5) is rejected by the multiplicity guard
        code, _, err = run(capsys, "construct", "--n", "13", "--k", "5")
        assert code == FAIL and "failed" in err


class TestDecompose:
    def test_found(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps(jsonio.multigraph_to_dict(complete(7, 1))))
        code, out, _ = run(capsys, "decompose", "--input", str(path))
        assert code == OK
        tris = json.loads(out)["triangles"]
        assert len(tris) == 7 and all(len(t) == 3 for t in tris)

    def test_none_found(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps(jsonio.multigraph_to_dict(complete(4, 1))))
        code, out, _ = run(capsys, "decompose", "--input", str(path))
        assert code == FAIL and json.loads(out)["status"] == "none-found"

    def test_budget_exit(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps(jsonio.multigraph_to_dict(complete(13, 1))))
        code, out, _ = run(capsys, "decompose", "--input", str(path),
                           "--budget", "2")
        assert code == BUDGET and json.loads(out)["status"] == "budget-exceeded"


    @pytest.mark.parametrize("kind, payload", [
        ("certificate", jsonio.certificate_to_dict(achieved_lower_bound(11, 5)[1])),
        ("gdd", {"groups": [[0], [1], [2]], "lambda": 1, "blocks": [[0, 1, 2]]}),
        ("packing", {"n": 7, "k": 3, "t": 2, "lambda": 1, "blocks": [[0, 1, 2]]}),
        ("dioph", {"equalities": [[4, 1]]}),
        ("decomposition", {"status": "found", "triangles": [[0, 1, 2]],
                           "graph": {"n": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}}),
    ], ids=["certificate", "gdd", "packing", "dioph", "decomposition"])
    def test_other_artifacts_are_refused(self, tmp_path, capsys, kind, payload):
        # a certificate used to read as the empty graph on its n
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "decompose", "--input", str(path))
        assert code == BAD_INPUT and out == ""
        assert err == f"error: expected a multigraph, got a {kind}\n"

    def decomposed(self, tmp_path, capsys, graph):
        """The path of `decompose --out` on ``graph``, and its payload."""
        path, out = tmp_path / "g.json", tmp_path / "d.json"
        path.write_text(jsonio.dumps(jsonio.multigraph_to_dict(graph)))
        run(capsys, "decompose", "--input", str(path), "--out", str(out))
        return out, json.loads(out.read_text())

    def test_found_decomposition_verifies(self, tmp_path, capsys):
        # decompose output used to read as an unrecognized artifact (exit 2)
        out, payload = self.decomposed(tmp_path, capsys, complete(7, 1))
        assert payload["graph"] == jsonio.multigraph_to_dict(complete(7, 1))
        assert run(capsys, "verify", str(out)) == (OK, "decomposition: ok\n", "")

    def test_tampered_decomposition_fails(self, tmp_path, capsys):
        out, payload = self.decomposed(tmp_path, capsys, complete(7, 1))
        a, b, _ = payload["triangles"][0]
        payload["triangles"][0] = [a, b, 6 if 6 not in (a, b) else 5]
        out.write_text(json.dumps(payload))
        assert run(capsys, "verify", str(out)) == (FAIL, "decomposition: FAILED\n", "")

    def test_verify_refuses_a_decomposition_not_found(self, tmp_path, capsys):
        out, payload = self.decomposed(tmp_path, capsys, complete(4, 1))
        assert payload["status"] == "none-found"
        code, stdout, err = run(capsys, "verify", str(out))
        assert code == BAD_INPUT and stdout == ""
        assert err == "error: a 'none-found' decomposition carries no claim to verify\n"

    def test_verify_refuses_a_bare_multigraph(self, tmp_path, capsys):
        # a graph carries no claim: verify used to print "multigraph: ok"
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps(jsonio.multigraph_to_dict(complete(7, 1))))
        code, out, err = run(capsys, "verify", str(path))
        assert code == BAD_INPUT and out == ""
        assert err.startswith("error:") and "decompose" in err


class TestGdd:
    def test_predicates(self, capsys):
        code, out, _ = run(capsys, "gdd", "--g", "2", "--u", "3", "--lam", "1")
        assert code == OK
        row = json.loads(out)
        assert row["simple_gdd_exists"] and row["lgdd_exists"]

    def test_ts_field_when_g_is_1(self, capsys):
        code, out, _ = run(capsys, "gdd", "--g", "1", "--u", "7", "--lam", "1")
        assert code == OK
        row = json.loads(out)
        assert row["simple_ts_exists"] and not row["lgdd_exists"]

    def test_search_witness_round_trips(self, tmp_path, capsys):
        path = tmp_path / "gdd.json"
        code, _, _ = run(capsys, "gdd", "--g", "2", "--u", "3", "--lam", "1",
                         "--search", "--out", str(path))
        assert code == OK
        data = json.loads(path.read_text())
        assert data["search"] == "found"
        wit = tmp_path / "wit.json"
        wit.write_text(json.dumps(data["witness"]))
        code, out, _ = run(capsys, "verify", str(wit))
        assert code == OK and "gdd: ok" in out

    def test_search_none_fails(self, capsys):
        # lambda above the transverse-pair capacity g(u-2)
        code, out, _ = run(capsys, "gdd", "--g", "2", "--u", "3", "--lam", "3",
                           "--search")
        assert code == FAIL and json.loads(out)["search"] == "none-found"


class TestDioph:
    def test_solution_validates(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            {"equalities": [[4, 1], [9, 2]], "avoidances": [[5, [0, 3]]]}
        ))
        code, out, _ = run(capsys, "dioph", "--input", str(path))
        assert code == OK
        x = json.loads(out)["solution"]
        assert x % 4 == 1 and x % 9 == 2 and x % 5 not in (0, 3)

    def test_out_round_trips_through_verify(self, tmp_path, capsys):
        src, out = tmp_path / "d.json", tmp_path / "sol.json"
        inst = {"equalities": [[4, 1], [9, 2]], "avoidances": [[5, [0, 3]]]}
        src.write_text(json.dumps(inst))
        code, _, _ = run(capsys, "dioph", "--input", str(src), "--out", str(out))
        assert code == OK
        data = json.loads(out.read_text())
        assert {k: data[k] for k in inst} == inst and "solution" in data
        code, printed, _ = run(capsys, "verify", str(out))
        assert code == OK and printed.strip() == "dioph: ok"

    def test_tampered_solution_fails_verify(self, tmp_path, capsys):
        src, out = tmp_path / "d.json", tmp_path / "sol.json"
        src.write_text(json.dumps({"equalities": [[4, 1], [9, 2]]}))
        run(capsys, "dioph", "--input", str(src), "--out", str(out))
        data = json.loads(out.read_text())
        data["solution"] += 1
        out.write_text(json.dumps(data))
        code, printed, _ = run(capsys, "verify", str(out))
        assert code == FAIL and printed.strip() == "dioph: FAILED"

    def test_bare_instance_fails_verify(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"equalities": [[4, 1], [9, 2]]}))
        code, printed, _ = run(capsys, "verify", str(path))
        assert code == FAIL and printed.strip() == "dioph: FAILED"

    def test_modulus_above_primality_bound(self, tmp_path, capsys):
        # 2**89 - 1 is prime, above the bound below which Miller-Rabin with
        # the bases 2..41 proves primality; moduli need only be coprime
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"equalities": [[2**89 - 1, 1]]}))
        code, out, _ = run(capsys, "dioph", "--input", str(path))
        assert code == OK and json.loads(out)["solution"] == 1
        path.write_text(json.dumps({"equalities": [[6, 1], [9, 4]]}))
        code, _, err = run(capsys, "dioph", "--input", str(path))
        assert code == BAD_INPUT and "not coprime" in err


class TestBrute:
    def test_fano(self, capsys):
        code, out, _ = run(capsys, "brute", "--n", "7", "--k", "3", "--t", "2")
        assert code == OK
        data = json.loads(out)
        assert data["status"] == "optimal" and data["value"] == 7
        wit = {"n": 7, "k": 3, "t": 2, "lambda": 1, "blocks": data["blocks"]}
        assert jsonio.identify(wit) == "packing"

    def test_budget_exit(self, capsys):
        code, out, _ = run(capsys, "brute", "--n", "13", "--k", "4",
                           "--budget", "5")
        assert code == BUDGET

    def test_out_round_trips_through_verify(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        code, _, _ = run(capsys, "brute", "--n", "9", "--k", "4",
                         "--out", str(path))
        assert code == OK
        data = json.loads(path.read_text())
        assert data["status"] == "optimal" and data["value"] == 18
        assert data["lambda"] == 1 and len(data["blocks"]) == 18
        code, out, _ = run(capsys, "verify", str(path))
        assert code == OK and out.strip() == "packing: ok"


class TestBadInput:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "bounds", "--wat", "1")[0] == BAD_INPUT

    def test_missing_file(self, capsys):
        assert run(capsys, "decompose", "--input", "/no/such.json")[0] == BAD_INPUT

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run(capsys, "decompose", "--input", str(path))[0] == BAD_INPUT

    def test_help_exits_clean(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_malformed_range(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "5", "--n", "x..9")
        assert code == BAD_INPUT and err.startswith("error:")

    @pytest.mark.parametrize("command, payload", [
        ("dioph", {"equalities": [[4, "x"]]}),
        ("dioph", {"equalities": [[4, 1, 2]]}),
        ("dioph", {"avoidances": [[7, None]]}),
        ("decompose", {"n": 4, "edges": [[0, 1]]}),
        ("decompose", {"n": 4, "edges": [5]}),
        ("verify", {"n": 7, "k": 3, "t": 2, "lambda": "one", "blocks": []}),
        ("verify", 5),
        # a pair listed twice, in the same or the reverse orientation
        ("verify", {"n": 3, "edges": [[0, 1, 2], [0, 1, 3]]}),
        ("verify", {"n": 3, "edges": [[1, 0, 2], [0, 1, 3]]}),
    ])
    def test_malformed_json_values(self, tmp_path, capsys, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        argv = [str(path)] if command == "verify" else ["--input", str(path)]
        code, _, err = run(capsys, command, *argv)
        assert code == BAD_INPUT and err.startswith("error:")

    # numbers that are not integers are refused, never truncated
    @pytest.mark.parametrize("command, payload", [
        ("verify", {"n": 7, "k": 3, "t": 2, "lambda": 1.9, "blocks": []}),
        ("verify", {"n": 7, "k": 3, "t": 2, "lambda": 1, "blocks": [[0, 1, 2.7]]}),
        ("dioph", {"equalities": [[4, 1.5]]}),
        ("verify", {"n": 3, "edges": [[0, 1, True]]}),
    ], ids=["lambda-float", "block-float", "dioph-float", "edge-bool"])
    def test_non_integer_numbers(self, tmp_path, capsys, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        argv = [str(path)] if command == "verify" else ["--input", str(path)]
        code, out, err = run(capsys, command, *argv)
        assert code == BAD_INPUT and err.startswith("error:") and "ok" not in out


def _malformed_inputs(tmp_path):
    cert = jsonio.certificate_to_dict(achieved_lower_bound(9, 5)[1])
    files = {
        "params": {**cert, "params": [1, 2]},
        "graph": {**cert, "graph": [1]},
        "list": [1, 2],
        "huge": {"n": 2**70, "base": 1},
        "k2": {**cert, "k": 2},
        "k3": {**cert, "k": 3},
    }
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))


@pytest.mark.parametrize("env, argv", [
    ({"TRIPLEPACK_BUDGET": "abc"}, ["brute", "--n", "7", "--k", "3", "--t", "2"]),
    ({}, ["verify", "params.json"]),
    ({}, ["verify", "graph.json"]),
    ({}, ["decompose", "--input", "list.json"]),
    ({}, ["verify", "."]),
    # integers too large to size a list
    ({}, ["construct", "--n", "100000000000000000000", "--k", "5"]),
    # outside n > k >= 4, as bounds and verify refuse it
    ({}, ["construct", "--n", "5", "--k", "5"]),
    ({}, ["construct", "--n", "10", "--k", "3"]),
    ({}, ["bounds", "--k", "5", "--n", "99999999999999999999999"]),
    ({}, ["verify", "huge.json"]),
    # certificates outside n > k >= 4
    ({}, ["verify", "k2.json"]),
    ({}, ["verify", "k3.json"]),
    # refused after the first row is known
    ({}, ["classify", "--k", "2", "--n", "5"]),
], ids=["budget-env", "params-list", "graph-list", "decompose-list", "directory",
        "construct-huge-n", "construct-n-equals-k", "construct-k3", "bounds-huge-n",
        "verify-huge-n", "verify-k2", "verify-k3",
        "classify-k2"])
def test_malformed_input_exits_2_without_traceback(tmp_path, env, argv):
    _malformed_inputs(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "triplepack.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), **env},
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == BAD_INPUT and proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_oversized_gadget_witness_fails_fast(tmp_path):
    # a 10^6-vertex gadget would be built before its one block is checked
    cert = jsonio.certificate_to_dict(achieved_lower_bound(11, 5)[1])
    item = cert["evidence"][0]
    item.update(params=[1000, 1000, 1], blocks=item["blocks"][:1])
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "triplepack.cli", "verify", "cert.json"],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == FAIL and proc.stdout.strip() == "certificate: FAILED"


@pytest.mark.parametrize("env, argv", [
    ({}, ["brute", "--n", "9", "--k", "4", "--budget", "-5"]),
    ({}, ["gdd", "--g", "2", "--u", "3", "--lam", "2", "--search", "--budget", "-1"]),
    ({}, ["decompose", "--input", "g.json", "--budget", "-1"]),
    ({"TRIPLEPACK_BUDGET": "-1"}, ["brute", "--n", "9", "--k", "4"]),
], ids=["brute", "gdd", "decompose", "env"])
def test_negative_budget_is_a_usage_error(tmp_path, env, argv):
    (tmp_path / "g.json").write_text(json.dumps(jsonio.multigraph_to_dict(complete(7, 1))))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "triplepack.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), **env},
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == BAD_INPUT and proc.stdout == ""
    assert "usage:" in proc.stderr and "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_budget_env_is_read_only_by_commands_with_a_budget(capsys, monkeypatch):
    monkeypatch.setenv("TRIPLEPACK_BUDGET", "abc")
    assert run(capsys, "classify", "--k", "5", "--n", "8..9")[0] == OK
    monkeypatch.setenv("TRIPLEPACK_BUDGET", "")
    code, out, _ = run(capsys, "brute", "--n", "7", "--k", "3", "--t", "2")
    assert code == OK and json.loads(out)["status"] == "optimal"
    monkeypatch.setenv("TRIPLEPACK_BUDGET", "5")
    assert run(capsys, "brute", "--n", "9", "--k", "4")[0] == BUDGET
