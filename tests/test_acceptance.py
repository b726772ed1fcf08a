"""Acceptance gate: nine end-to-end criteria, one printed line each.

The pass/fail lines bypass pytest's capture so they always appear on
the terminal.  The slowest item is criterion 5, whose exhaustive half
takes about 3.5 minutes (203 s on a 2-vCPU x86_64 VM, CPython 3.11).
"""

import random
import sys

import pytest

from triplepack.decomp import (
    SearchStatus,
    clique_reduction,
    dehon_conditions,
    find_triangle_decomposition,
    verify_decomposition,
)
from triplepack.dioph import DiophInstance, solve_avoidance
from triplepack.errors import NTooSmallError, ParameterSearchExhaustedError
from triplepack.gdd import (
    gadget_multigraph,
    lgdd_exists,
    search_simple_gdd,
    simple_gdd_exists,
)
from triplepack.leave import achieved_lower_bound, construct_q_leave
from triplepack.multigraph import Multigraph, complete, is_q2_divisible
from triplepack.oracle import (
    BlockCollection,
    ReportStatus,
    max_packing,
    search_leave_nonexistence,
    verify_packing,
)
from triplepack.params import (
    CaseLabel,
    classify,
    johnson_bound,
    packing_number_k4,
    upper_bound,
)


def _criterion(num: int, body, capfd) -> None:
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"criterion {num}: FAIL", file=sys.stderr)
        raise
    with capfd.disabled():
        print(f"criterion {num}: PASS", file=sys.stderr)


def test_criterion_1_k4_closed_formula(capfd):
    def body():
        for n in range(4, 9):
            rep = max_packing(n, 4, 3)
            assert rep.status is ReportStatus.OPTIMAL
            assert rep.value == packing_number_k4(n), n
        for n in (9, 10):
            rep = max_packing(n, 4, 3)
            assert rep.status is ReportStatus.OPTIMAL
            assert rep.value == johnson_bound(n, 4, 3) == packing_number_k4(n)
            assert verify_packing(BlockCollection(n, 4, 3, 1, rep.witness))

    _criterion(1, body, capfd)


def test_criterion_2_triangle_decomposition_vs_predicate(capfd):
    def body():
        for n in range(3, 10):
            for lam in range(1, 9):
                res = find_triangle_decomposition(complete(n, lam))
                found = res.status is SearchStatus.FOUND
                assert found == dehon_conditions(n, lam), (n, lam)

    _criterion(2, body, capfd)


def test_criterion_3_simple_gdd_search_vs_predicate(capfd):
    def body():
        for u in range(3, 11):
            for g in range(1, 11):
                if g * u > 10:
                    continue
                for lam in range(1, 9):
                    status, inst, _nodes = search_simple_gdd(g, u, lam)
                    found = status is SearchStatus.FOUND
                    assert found == simple_gdd_exists(g, u, lam), (g, u, lam)
                    if inst is not None:
                        assert verify_decomposition(
                            gadget_multigraph(g, u, lam), inst.blocks
                        ), (g, u, lam)

    _criterion(3, body, capfd)


def test_criterion_4_lgdd_exception(capfd):
    def body():
        assert not lgdd_exists(1, 7, 1)
        assert lgdd_exists(1, 9, 1)

    _criterion(4, body, capfd)


@pytest.mark.slow
def test_criterion_5_exhaustive_nonexistence_14_5(capfd):
    def body():
        rep = search_leave_nonexistence(14, 5)
        assert rep.status is ReportStatus.NONE_EXISTS
        assert rep.value == johnson_bound(14, 5, 3) - 2 == 34
        relaxed = search_leave_nonexistence(14, 5, relax=True)
        assert relaxed.status is ReportStatus.WITNESS_FOUND
        total = sum(2 * g.edge_count() for g in relaxed.witness)
        assert total == 14 * 13 * 12 - 5 * 4 * 3 * 34
        assert sum(g.n for g in relaxed.witness) <= 14

    _criterion(5, body, capfd)


def test_criterion_6_construction_soundness_sweep(capfd):
    def body():
        checked = 0
        for k in range(5, 10):
            for n in range(k + 2, 2001):
                try:
                    xi, cert = achieved_lower_bound(n, k)
                except (NTooSmallError, ParameterSearchExhaustedError):
                    continue
                rep = cert.conditions()
                assert rep.edge_total and rep.degrees, (n, k)
                assert rep.mults and rep.mult_cap, (n, k)
                assert xi == cert.xi <= upper_bound(n, k), (n, k)
                checked += 1
        assert checked > 5000

    _criterion(6, body, capfd)


def test_criterion_7_equality_family(capfd):
    def body():
        for k in (5, 7, 8):
            period = k * (k - 1) * (k - 2)
            hit = None
            # one full residue period settles existence exactly
            for n in range(k + 2, k + 2 + period):
                label, data = classify(n, k)
                if label is CaseLabel.Q_NONZERO and data.q_beta == k - 2:
                    hit = n
                    break
            if hit is None:
                # the q = k - 2 class is empty for k = 8 (only q = 4
                # arises); the scan above is the exhaustive proof
                assert k == 8
                continue
            try:
                cert = construct_q_leave(hit, k)
            except NTooSmallError as exc:
                cert = construct_q_leave(exc.min_n, k)
            assert cert.xi == johnson_bound(cert.n, k, 3) - 3
            assert cert.xi == upper_bound(cert.n, k)
            assert cert.conditions().all_pass()

    _criterion(7, body, capfd)


def test_criterion_8_avoidance_solver_random(capfd):
    def body():
        rng = random.Random(20250825)
        prime_powers = [4, 8, 16, 32, 5, 25, 7, 49, 9, 27, 11, 13, 17,
                        19, 23, 29, 31, 37, 41, 43, 47]
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        base_of = {m: min(p for p in primes if m % p == 0)
                   for m in prime_powers}
        done = 0
        while done < 1000:
            pool = list(prime_powers)
            rng.shuffle(pool)
            used = set()
            eqs, avs = [], []
            n_eq, n_av = rng.randint(0, 3), rng.randint(0, 4)
            for m in pool:
                if base_of[m] in used:
                    continue
                if len(eqs) < n_eq:
                    used.add(base_of[m])
                    eqs.append((m, rng.randrange(m)))
                elif len(avs) < n_av and m >= 4:
                    used.add(base_of[m])
                    count = rng.randint(1, min(3, m - 1))
                    avs.append((m, tuple(rng.sample(range(m), count))))
            if not eqs and not avs:
                continue
            inst = DiophInstance(equalities=tuple(eqs), avoidances=tuple(avs))
            x = solve_avoidance(inst)
            assert inst.satisfied_by(x)
            forbidden = sum(len(f) for _, f in inst.avoidances)
            n_prime = 1
            for m, _ in eqs:
                n_prime *= m
            for q, _ in avs:
                if q < forbidden + 1:
                    n_prime *= q
            assert x <= n_prime * (forbidden + 2)
            # the scan both confirms feasibility and cannot be beaten to
            # a contradiction: the first hit is at most x
            first = next(y for y in range(1, x + 1) if inst.satisfied_by(y))
            assert first <= x
            done += 1

    _criterion(8, body, capfd)


def test_criterion_9_reduction_trace_properties(capfd):
    def body():
        rng = random.Random(99)
        done = 0
        while done < 200:
            n = rng.randint(5, 40)
            mult_map = {}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.25:
                        mult_map[(u, v)] = rng.randint(1, 3)
            g = Multigraph(n, mult_map=mult_map)
            before = is_q2_divisible(g, 3)
            trace = clique_reduction(g, 3, 1, 3)
            # distinctness
            assert len(set(trace.cliques)) == len(trace.cliques)
            # exact replay with validity at removal time
            rem = dict.fromkeys(
                ((u, v) for u in range(n) for v in range(u + 1, n)), 0
            )
            rem.update(mult_map)
            for c in trace.cliques:
                assert len(set(c)) == 3
                for i in range(3):
                    for j in range(i + 1, 3):
                        a, b = sorted((c[i], c[j]))
                        rem[(a, b)] -= 1
                        assert rem[(a, b)] >= 0, "clique invalid at removal"
            assert all(rem[p] == trace.residual.mult(*p) for p in rem)
            # triangle removal preserves (3,2)-divisibility
            assert is_q2_divisible(trace.residual, 3) == before
            done += 1

    _criterion(9, body, capfd)
