"""Exact packing oracle and the leave-nonexistence search."""

import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from triplepack import oracle
from triplepack.errors import InvalidParameterError, WrongCaseError
from triplepack.multigraph import Multigraph
from triplepack.oracle import (
    BlockCollection,
    ReportStatus,
    max_packing,
    search_leave_nonexistence,
    verify_packing,
)
from triplepack.params import johnson_bound, packing_number_k4


class TestVerifyPacking:
    def test_accepts_valid(self):
        bc = BlockCollection(6, 3, 2, 1, ((0, 1, 2), (3, 4, 5), (0, 3, 4)))
        assert not verify_packing(bc)  # (3,4) covered twice
        bc = BlockCollection(6, 3, 2, 1, ((0, 1, 2), (3, 4, 5), (0, 3, 5)))
        assert not verify_packing(bc)  # (3,5) covered twice
        bc = BlockCollection(6, 3, 2, 1, ((0, 1, 2), (0, 3, 4), (1, 3, 5)))
        assert verify_packing(bc)

    def test_rejects_malformed_block(self):
        assert not verify_packing(BlockCollection(5, 3, 2, 1, ((0, 1, 1),)))
        assert not verify_packing(BlockCollection(5, 3, 2, 1, ((0, 1, 9),)))

    @pytest.mark.parametrize("n, k, t, lam, blocks", [
        (5, 3, 3, -1, ()),
        (-4, 3, 3, 1, ()),
        (5, 3, 4, 1, ((0, 1, 2), (0, 1, 2))),
        (2, 3, 2, 1, ()),
        (5, 3, 0, 1, ()),
    ], ids=["lam-neg", "n-neg", "t-above-k", "k-above-n", "t-zero"])
    def test_refuses_parameters_outside_the_max_packing_range(self, n, k, t, lam, blocks):
        # no claim is made outside n >= k >= t >= 1, lam >= 0, so none is
        # called ok: an empty or repeated block list would pass vacuously
        with pytest.raises(InvalidParameterError):
            verify_packing(BlockCollection(n, k, t, lam, blocks))


class TestMaxPacking:
    def test_fano(self):
        rep = max_packing(7, 3, 2)
        assert rep.status is ReportStatus.OPTIMAL and rep.value == 7
        assert verify_packing(BlockCollection(7, 3, 2, 1, rep.witness))

    def test_k4_agreement_small(self):
        # the k = 4 closed formula, reproduced by exhaustive search
        for n in range(4, 9):
            rep = max_packing(n, 4, 3)
            assert rep.status is ReportStatus.OPTIMAL
            assert rep.value == packing_number_k4(n), n

    def test_witness_meeting_johnson_is_optimal(self):
        rep = max_packing(9, 4, 3)
        assert rep.value == 18 == johnson_bound(9, 4, 3)
        assert rep.status is ReportStatus.OPTIMAL

    def test_frozen_9_5(self):
        # far below J(9,5,3) = 7: desk-scale reality of the small-n gap
        rep = max_packing(9, 5, 3)
        assert rep.status is ReportStatus.OPTIMAL and rep.value == 3

    def test_budget(self):
        rep = max_packing(13, 4, 3, budget=10)
        assert rep.status is ReportStatus.BUDGET

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            max_packing(3, 4, 3)

    def test_negative_budget_refused(self):
        with pytest.raises(InvalidParameterError):
            max_packing(9, 4, budget=-1)
        # budget 0 is valid: BUDGET on the first node
        rep = max_packing(9, 4, budget=0)
        assert (rep.status, rep.nodes_explored) == (ReportStatus.BUDGET, 1)

    # (status, value, nodes_explored); a budget is shared by the targets in
    # turn, and BUDGET is reported on the node past it
    @pytest.mark.parametrize("args, budget, status, value, nodes", [
        ((9, 4), None, "optimal", 18, 10_924),
        ((9, 5), None, "optimal", 3, 6_057),
        ((10, 5), None, "optimal", 6, 284_304),
        ((10, 4), None, "optimal", 30, 48),
        ((9, 5), 1000, "budget-exceeded", None, 1_001),
        ((13, 4), 5000, "budget-exceeded", None, 5_001),
    ])
    def test_frozen_reports(self, args, budget, status, value, nodes):
        rep = max_packing(*args, budget=budget)
        assert (rep.status.value, rep.value, rep.nodes_explored) == (status, value, nodes)

    def test_witness_check_survives_optimize_flag(self):
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import triplepack.oracle as oracle\n"
            "from triplepack.errors import TriplepackError\n"
            "assert 0, 'assert statements are stripped'\n"
            "oracle.verify_packing = lambda bc: False\n"
            "try:\n"
            "    oracle.max_packing(7, 3, 2)\n"
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

    def test_search_depth_takes_no_python_frames(self):
        # (16,4) and (20,6) go deeper than 100 levels, and one Python frame
        # per level raised RecursionError there, as it did at (37,8) and
        # (31,4) under the default limit
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import sys\n"
            "sys.setrecursionlimit(100)\n"
            "from triplepack.oracle import max_packing\n"
            "for n, k, budget in [(9, 4, None), (16, 4, None), (20, 6, 2000)]:\n"
            "    rep = max_packing(n, k, budget=budget)\n"
            "    print(rep.status.value, rep.value, rep.nodes_explored)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "optimal 18 10924", "optimal 140 140", "budget-exceeded None 2001"]


def reference_decide_packing(n, k, t, target, budget):
    """``oracle._decide_packing`` as it was before it built its index keys
    without sorting and left to the scan and the filter the t-subsets they
    clear: the same search, with every key sorted and every t-subset of
    every candidate block checked."""
    total = comb(n, t)
    leave_budget = total - target * comb(k, t)
    if leave_budget < 0:
        return False, None, 0
    subsets = list(combinations(range(n), t))
    index = {s: i for i, s in enumerate(subsets)}
    covered = [False] * total
    chosen = []
    nodes = 0

    def cover_block(block, flag):
        for sub in combinations(block, t):
            covered[index[sub]] = flag

    def recurse(pos, leave, blocks_left):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            return None
        while pos < total and covered[pos]:
            pos += 1
        if blocks_left == 0:
            uncovered = (total - pos) - sum(covered[pos:])
            return uncovered <= leave
        if pos == total:
            return False
        tau = subsets[pos]
        top = tau[-1]
        ext = [
            v
            for v in range(top + 1, n)
            if all(not covered[index[tuple(sorted(s + (v,)))]]
                   for s in combinations(tau, t - 1))
        ]
        for extra in combinations(ext, k - t):
            block = tau + extra
            if any(
                covered[index[sub]] for sub in combinations(block, t)
            ):
                continue
            cover_block(block, True)
            chosen.append(block)
            res = recurse(pos, leave, blocks_left - 1)
            if res:
                return res
            chosen.pop()
            cover_block(block, False)
            if res is None:
                return None
        if leave > 0:
            covered[pos] = True
            res = recurse(pos + 1, leave - 1, blocks_left)
            covered[pos] = False
            return res
        return False

    if target == 0:
        return True, (), 0
    first = tuple(range(k))
    cover_block(first, True)
    chosen.append(first)
    res = recurse(0, leave_budget, target - 1)
    if res is True:
        return True, tuple(chosen), nodes
    return res, None, nodes


def walk_targets(n, k, t, budget):
    """(found, cases) of both searches at each target from J + 1 down to
    the first found, asserting they agree."""
    found, cases = set(), 0
    for target in range(johnson_bound(n, k, t) + 1, -1, -1):
        expected = reference_decide_packing(n, k, t, target, budget)
        assert oracle._decide_packing(n, k, t, target, budget) == expected, (
            n, k, t, target, budget)
        found.add(expected[0])
        cases += 1
        if expected[0]:
            break
    return found, cases


def test_decide_packing_walks_the_reference_tree():
    # every n <= 8, k, t >= 1 and budget None or 50, each target from
    # J + 1 down to the first found
    found, cases = set(), 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for t in range(1, k + 1):
                for budget in (None, 50):
                    more, count = walk_targets(n, k, t, budget)
                    found |= more
                    cases += count
    assert cases == 542 and found == {True, False, None}


@pytest.mark.parametrize("n, k, t", [(11, 6, 3), (12, 7, 4), (13, 7, 3)])
def test_decide_packing_walks_the_reference_tree_past_two_extra_points(n, k, t):
    # two blocks of a packing at n <= 8 with k - t >= 3 share t points, so
    # only larger n test the subsets with three extra points: here a block
    # test that skips them walks another tree
    walk_targets(n, k, t, budget=2000)


@pytest.mark.parametrize("n, k, t", [(9, 5, 3), (10, 5, 3), (10, 6, 3), (9, 5, 2)])
def test_decide_packing_walks_the_reference_tree_where_no_block_fits(n, k, t):
    # most t-subsets here have fewer than k - t points above their largest,
    # so no block has one as its minimal t-subset, and the search leaves
    # it uncovered without running its filter
    no_room = sum(n - 1 - s[-1] < k - t for s in combinations(range(n), t))
    assert 2 * no_room > comb(n, t)
    walk_targets(n, k, t, budget=5000)


def reference_bricks_of_weight(w, deg_unit, unit, prune=True):
    """``oracle._bricks_of_weight`` as it was before its fill ran on an
    explicit stack: the same enumeration, as one recursive generator per
    matrix cell and the row-end checks as generator expressions."""
    for v in range(3, w + 1):
        for deltas in oracle._partitions_fixed_length(w, v):
            if any(deg_unit * d % unit for d in deltas):
                continue
            rows = [deg_unit * d // unit for d in deltas]
            cap = (v - 2) // unit
            if cap < 1 or any(r > cap * (v - 1) for r in rows):
                continue
            mat = [[0] * v for _ in range(v)]
            rem = list(rows)
            vcap = [(r - 1) // unit for r in rows]

            def fill(x, y):
                if x == v:
                    if oracle._connected(v, mat):
                        yield tuple(tuple(r) for r in mat)
                    return
                if y == v:
                    if rem[x] != 0:
                        return
                    row_x = mat[x]
                    for yy in range(x):
                        m = mat[yy][x]
                        if m and unit * m > sum(
                            1 for z in range(v) if row_x[z] and mat[yy][z]
                        ):
                            return
                    if prune and any(
                        deltas[i] == deltas[i + 1]
                        and oracle._prefix_swap_smaller(v, mat, x, i)
                        for i in range(x)
                    ):
                        return
                    future = v - x - 2
                    if any(rem[z] > cap * future for z in range(x + 1, v)):
                        return
                    if sum(rem[x + 1 :]) % 2 != 0:
                        return
                    yield from fill(x + 1, x + 2)
                    return
                if rem[x] > cap * (v - y):
                    return
                hi = min(cap, vcap[x], vcap[y], rem[x], rem[y])
                for m in range(hi, -1, -1):
                    mat[x][y] = mat[y][x] = m
                    rem[x] -= m
                    rem[y] -= m
                    yield from fill(x, y + 1)
                    rem[x] += m
                    rem[y] += m
                    mat[x][y] = mat[y][x] = 0

            yield from fill(0, 1)


@pytest.mark.parametrize("n, k, t", [(9, 4, 1), (10, 6, 1), (9, 3, 3), (10, 4, 4), (9, 5, 5)])
def test_decide_packing_walks_the_reference_tree_at_the_start_offset_edges(n, k, t):
    # the filter reads h + (v,) at start[h] + v: with t = 1 the one head
    # is (), and with k = t a head may end at n - 1, where no h + (v,)
    # exists and the filter must not run
    walk_targets(n, k, t, budget=2000)


class TestBricks:
    # unit 1 stops at w = 6 and unit 3 at w = 9, as the pruning test below
    # does, except that pruned unit 3 goes on to w = 10: below it yields
    # one brick, at w = 5, and at w = 10 two; unit 1 yields 240 bricks
    # pruned and 26,320 unpruned at w = 6
    @pytest.mark.parametrize("unit, weights, prune", [
        (1, range(3, 7), True), (1, range(3, 7), False),
        (3, range(3, 11), True), (3, range(3, 10), False),
    ])
    def test_fill_yields_the_reference_sequence(self, unit, weights, prune):
        for w in weights:
            assert list(oracle._bricks_of_weight(w, 12, unit, prune)) == list(
                reference_bricks_of_weight(w, 12, unit, prune)), (w, unit, prune)

    def test_pruned_counts_at_unit_1(self):
        # symmetry breaking keeps 240 of the 26,320 weight-6 matrices
        assert sum(1 for _ in oracle._bricks_of_weight(6, 12, 1)) == 240
        assert sum(1 for _ in oracle._bricks_of_weight(5, 12, 1)) == 1

    def test_pruned_counts_at_unit_3(self):
        counts = {w: sum(1 for _ in oracle._bricks_of_weight(w, 12, 3)) for w in range(3, 10)}
        assert counts == {3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0, 9: 0}

    # unit 1 stops at w = 6: at w = 7 the pruned search is far slower than
    # the unpruned one
    @pytest.mark.parametrize("unit, weights", [(3, range(3, 10)), (1, range(3, 7))])
    def test_pruning_finds_the_same_weights(self, unit, weights):
        found = {
            prune: list(oracle._decomposable_brick_weights(weights, 12, unit, prune=prune)[0])
            for prune in (True, False)
        }
        assert found[True] == found[False] == ([5] if unit == 3 else [5, 6])

    def test_degree_unit_comes_from_the_caller(self):
        # k = 6: every degree is a multiple of (k-1)(k-2) = 20, multiplicities
        # of k - 2 = 4 (or of 1, relaxed); weight 6 is 4K6 at either unit
        bricks = {
            (w, unit): list(oracle._bricks_of_weight(w, 20, unit))
            for w, unit in ((6, 1), (6, 4), (7, 4), (8, 4), (9, 4))
        }
        for (w, unit), mats in bricks.items():
            for mat in mats:
                assert all(sum(row) * unit % 20 == 0 for row in mat), (w, unit, mat)
        k6 = tuple(tuple(0 if i == j else 4 for j in range(6)) for i in range(6))
        assert bricks[6, 1] == [k6]
        assert bricks[6, 4] == [tuple(tuple(m // 4 for m in row) for row in k6)]


class TestLeaveNonexistence:
    def test_wrong_case(self):
        with pytest.raises(WrongCaseError):
            search_leave_nonexistence(9, 5)

    @pytest.mark.parametrize("xi, relax", [(30, True), (30, False), (25, True), (20, True)])
    def test_total_weight_above_n_refused(self, xi, relax):
        # xi = 30 leaves weight 32 on 14 vertices: bricks heavier than 14
        # are never enumerated, so the search refuses instead of answering
        with pytest.raises(InvalidParameterError):
            search_leave_nonexistence(14, 5, xi_target=xi, relax=relax)

    def test_unreachable_weight_is_immediate(self):
        # xi = J leaves total weight 2, below any brick: none-exists
        rep = search_leave_nonexistence(14, 5, xi_target=johnson_bound(14, 5, 3))
        assert rep.status is ReportStatus.NONE_EXISTS

    def test_relaxed_witness_small_target(self):
        # xi = 35 leaves weight 7: relaxed mode finds 2K7 quickly; the
        # full J - 2 run lives in the acceptance suite
        rep = search_leave_nonexistence(14, 5, xi_target=35, relax=True)
        assert rep.status is ReportStatus.WITNESS_FOUND
        total = sum(2 * g.edge_count() for g in rep.witness)
        assert total == 14 * 13 * 12 - 5 * 4 * 3 * 35
        assert sum(g.n for g in rep.witness) <= 14

    @pytest.mark.parametrize("args, enumerated, status, value, witness", [
        ((14, 5, 35, False, True), [3, 4, 7], "none-exists", 35, []),
        ((14, 5, 35, False, False), [3, 4, 7], "none-exists", 35, []),
        ((38, 5, 842, False, True), [3, 4, 5, 8], "none-exists", 842, []),
        ((38, 5, 842, False, False), [3, 4, 5, 8], "none-exists", 842, []),
        ((14, 5, None, True, True), [], "witness-found", 34,
         [{"n": 5, "edges": [], "base": 3}, {"n": 7, "edges": [], "base": 2}]),
    ])
    def test_skips_weights_that_cannot_reach_the_total(
        self, monkeypatch, args, enumerated, status, value, witness
    ):
        # total weights 7 and 8: w = total - 1, total - 2 can be in no
        # multiset of bricks (each weighs >= 3) and are never enumerated;
        # the relaxed (14, 5) run is settled by lam*K_m coins alone
        from triplepack import oracle
        from triplepack.jsonio import multigraph_to_dict

        seen = []
        bricks = oracle._bricks_of_weight

        def record(w, *a, **kw):
            seen.append(w)
            return bricks(w, *a, **kw)

        monkeypatch.setattr(oracle, "_bricks_of_weight", record)
        rep = search_leave_nonexistence(*args)
        assert sorted(set(seen)) == enumerated
        assert rep.status.value == status and rep.value == value
        assert [multigraph_to_dict(g) for g in rep.witness or ()] == witness

    def test_witness_pieces_decompose(self):
        from triplepack.decomp import SearchStatus, find_triangle_decomposition

        rep = search_leave_nonexistence(14, 5, xi_target=35, relax=True)
        for g in rep.witness:
            res = find_triangle_decomposition(g)
            assert res.status is SearchStatus.FOUND
