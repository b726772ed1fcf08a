"""Group divisible designs: predicates, search and juxtaposition."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triplepack.decomp as decomp_mod
import triplepack.gdd as gdd_mod
from triplepack.decomp import (
    SearchStatus,
    _juxtaposed_blocks,
    dehon_conditions,
    verify_decomposition,
)
from triplepack.errors import InvalidParameterError
from triplepack.gdd import (
    GddInstance,
    gadget_multigraph,
    lgdd_exists,
    search_simple_gdd,
    simple_gdd_exists,
    simple_ts_exists,
    verify_gdd,
)


class TestPredicates:
    def test_simple_ts(self):
        assert simple_ts_exists(7, 1)
        assert not simple_ts_exists(8, 1)
        assert simple_ts_exists(9, 1)
        assert not simple_ts_exists(7, 6)  # lam > u - 2

    def test_simple_ts_equals_the_closed_formula(self):
        # the formula simple_ts_exists carried before it became Dehon's
        # conditions on lam*K_u, kept here as the reference
        def reference(u, lam):
            return (
                1 <= lam <= u - 2
                and lam * (u - 1) % 2 == 0
                and lam * u * (u - 1) % 6 == 0
            )

        for u in range(1, 13):
            for lam in range(-1, 12):
                assert simple_ts_exists(u, lam) == reference(u, lam), (u, lam)
        for u in (0, -3):
            with pytest.raises(InvalidParameterError):
                simple_ts_exists(u, 1)

    def test_one_body_for_the_three_triple_system_predicates(self):
        # the three formulas as they stood before they shared one body,
        # kept here as the reference: each name gives the same value, or
        # raises the same exception type, over u in 0..30, lam in -1..30
        def old_dehon(n, lam):
            if n < 3 or lam < 1:
                raise InvalidParameterError(f"need n >= 3, lam >= 1, got {(n, lam)}")
            return lam * (n - 1) % 2 == 0 and lam * n * (n - 1) % 3 == 0 and lam <= n - 2

        def old_simple_ts(u, lam):
            if u < 1:
                raise InvalidParameterError("need u >= 1")
            return u >= 3 and lam >= 1 and old_dehon(u, lam)

        def old_simple_gdd_1(u, lam):
            g = 1
            if u < 1 or lam < 1:
                raise InvalidParameterError("need g, u, lam >= 1")
            return (
                lam * g * (u - 1) % 2 == 0
                and lam * g * g * u * (u - 1) % 3 == 0
                and u >= 3
                and 1 <= lam <= g * (u - 2)
            )

        def outcome(fn, *args):
            try:
                return fn(*args)
            except Exception as exc:
                return type(exc)

        pairs = [
            (dehon_conditions, old_dehon),
            (simple_ts_exists, old_simple_ts),
            (lambda u, lam: simple_gdd_exists(1, u, lam), old_simple_gdd_1),
        ]
        for u in range(0, 31):
            for lam in range(-1, 31):
                for new, old in pairs:
                    assert outcome(new, u, lam) == outcome(old, u, lam), (old.__name__, u, lam)

    def test_lgdd_exception(self):
        assert not lgdd_exists(1, 7, 1)  # the lone exception
        assert lgdd_exists(1, 9, 1)

    def test_simple_gdd(self):
        assert simple_gdd_exists(2, 3, 2)
        assert not simple_gdd_exists(2, 3, 3)  # parity: lam*g*(u-1) odd
        assert not simple_gdd_exists(1, 7, 6)  # lam above g(u-2)

    def test_block_count(self):
        # a (3, lam)-GDD(g^u) has lam * g^2 * u(u-1) / 6 blocks
        for g, u, lam, count in [(1, 7, 1, 7), (2, 3, 2, 8)]:
            status, inst, _ = search_simple_gdd(g, u, lam)
            assert status is SearchStatus.FOUND and len(inst.blocks) == count
        assert not simple_gdd_exists(1, 5, 1)  # 20/6 blocks is no count


class TestShapes:
    def test_shape_order(self):
        groups = ((0, 1), (2, 3), (4, 5))
        assert GddInstance(groups, (), 1).v == 6
        assert not verify_gdd(GddInstance(((0, 1),), (), 1))  # a single group is not a GDD

    def test_gadget_multigraph(self):
        g = gadget_multigraph(2, 3, 2)
        assert g.n == 6
        assert g.mult(0, 1) == 0       # same group
        assert g.mult(0, 2) == 2       # cross
        assert g.edge_count() == 2 * (4 * 3)


class TestSearch:
    def test_fano_as_gdd(self):
        status, inst, _ = search_simple_gdd(1, 7, 1)
        assert status is SearchStatus.FOUND
        assert verify_gdd(inst)
        assert len(inst.blocks) == 7

    def test_search_matches_predicate_grid(self):
        for g in range(1, 5):
            for u in range(2, 11):
                if g * u > 10 or u < 3:
                    continue
                for lam in range(1, 9):
                    status, inst, _ = search_simple_gdd(g, u, lam)
                    assert (status is SearchStatus.FOUND) == simple_gdd_exists(
                        g, u, lam
                    ), (g, u, lam)
                    if inst is not None:
                        assert verify_gdd(inst)
                        assert verify_decomposition(
                            gadget_multigraph(g, u, lam), inst.blocks
                        )

    def test_negative_budget_refused(self):
        with pytest.raises(InvalidParameterError):
            search_simple_gdd(2, 3, 2, budget=-1)
        # budget 0 is valid; this gadget's mirror search needs no node
        status, inst, nodes = search_simple_gdd(2, 3, 2, budget=0)
        assert status is SearchStatus.FOUND and nodes == 0

    def test_search_cap(self):
        with pytest.raises(InvalidParameterError):
            search_simple_gdd(4, 4, 1)

    def test_juxtaposed_disjoint_designs(self):
        # two disjoint index-1 designs on the same groups add up to index 2
        groups = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
        blocks, _nodes = _juxtaposed_blocks(groups, 2, None)
        assert len(blocks) == len(set(blocks)) == 2 * 20
        union = GddInstance(groups=groups, blocks=blocks, lam=2)
        assert verify_gdd(union)
        status, inst, _nodes = search_simple_gdd(2, 6, 2)
        assert status is SearchStatus.FOUND and inst == union

    def test_juxtaposition_beyond_capacity(self):
        # two index-1 designs of 2^3 use all 8 transverse triples, so a
        # third disjoint one does not exist
        groups = ((0, 1), (2, 3), (4, 5))
        assert len(_juxtaposed_blocks(groups, 2, None)[0]) == 8
        assert _juxtaposed_blocks(groups, 3, None)[0] is None

    def test_juxtapose_rejects_overlap(self):
        # a design laid over itself repeats every block: not a simple GDD
        status, inst, _ = search_simple_gdd(1, 7, 1)
        assert status is SearchStatus.FOUND
        twice = inst._replace(blocks=tuple(sorted(inst.blocks * 2)), lam=2)
        assert not verify_gdd(twice)

    def test_hard_index_found(self):
        # (3,5)-GDD(2^6): slow for plain backtracking, fast by
        # complementing three disjoint index-1 designs
        status, inst, _nodes = search_simple_gdd(2, 6, 5)
        assert status is SearchStatus.FOUND
        assert verify_gdd(inst)
        assert verify_decomposition(gadget_multigraph(2, 6, 5), inst.blocks)

    def test_found_design_verified_once(self, monkeypatch):
        # only the returned design is checked, not the designs it is made of
        calls = []
        check = decomp_mod.verify_decomposition

        def counted(g, cliques):
            calls.append((g.n, g.edge_count()))
            return check(g, cliques)

        for module in (gdd_mod, decomp_mod):
            monkeypatch.setattr(module, "verify_decomposition", counted)
        assert search_simple_gdd(2, 6, 5)[0] is SearchStatus.FOUND
        assert calls == [(12, 300)]

    def test_index_at_and_above_capacity(self):
        # lam = cap: all transverse triples; above it, none exists
        cap = 2 * (3 - 2)
        status, inst, _nodes = search_simple_gdd(2, 3, cap)
        assert status is SearchStatus.FOUND and verify_gdd(inst)
        assert search_simple_gdd(2, 3, cap + 1) == (SearchStatus.NONE, None, 0)


def test_search_postcondition_survives_optimize_flag():
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import triplepack.gdd as gdd\n"
        "from triplepack.errors import TriplepackError\n"
        "assert 0, 'assert statements are stripped'\n"
        "gdd.verify_gdd = lambda *a, **kw: False\n"
        "try:\n"
        "    gdd.search_simple_gdd(1, 7, 1)\n"
        "    print('accepted')\n"
        "except TriplepackError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"]


class TestVerifyGdd:
    def test_rejects_within_group_pair(self):
        inst = GddInstance(
            groups=((0, 1), (2, 3)),
            blocks=((0, 1, 2),),
            lam=1,
        )
        assert not verify_gdd(inst)

    def test_rejects_point_outside_the_groups(self):
        status, good, _ = search_simple_gdd(2, 3, 1)
        assert status is SearchStatus.FOUND and verify_gdd(good)
        a, b, _c = good.blocks[-1]
        for phantom in (6, -1):
            bad = GddInstance(
                groups=good.groups, blocks=good.blocks[:-1] + ((a, b, phantom),), lam=1
            )
            assert not verify_gdd(bad)

    def test_cli_reads_a_point_outside_the_groups_as_failed(self, tmp_path, capsys):
        from triplepack.cli import FAIL, main

        path = tmp_path / "gdd.json"
        path.write_text(json.dumps({
            "groups": [[0, 1], [2, 3], [4, 5]],
            "lambda": 1,
            "blocks": [[0, 2, 4], [0, 3, 5], [1, 2, 5], [1, 3, 9]],
        }))
        code = main(["verify", str(path)])
        assert code == FAIL and capsys.readouterr().out.strip() == "gdd: FAILED"

    def test_rejects_repeated_block(self):
        status, good, _ = search_simple_gdd(2, 3, 2)
        doubled = GddInstance(
            groups=good.groups, blocks=good.blocks + good.blocks[:1], lam=good.lam
        )
        assert not verify_gdd(doubled)
