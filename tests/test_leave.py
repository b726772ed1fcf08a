"""Leave constructions and the lower bounds they certify."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from triplepack import jsonio, leave
from triplepack.errors import (
    InvalidParameterError,
    NTooSmallError,
    TriplepackError,
    WrongCaseError,
)
from triplepack.leave import (
    _excess_multigraph,
    achieved_lower_bound,
    construct_p_leave,
    construct_q_leave,
    construct_r_leave,
    verify_certificate,
)
from triplepack.multigraph import Multigraph, complete, realize_degree_sequence
from triplepack.params import CaseLabel, classify, johnson_bound, upper_bound


def scale(g: Multigraph, lam: int) -> Multigraph:
    """Reference: every multiplicity times lam."""
    return Multigraph(
        g.n, base=g.base * lam, mult_map={p: m * lam for p, m in g.mult_map.items()}
    )


def overlay(g: Multigraph, h: Multigraph) -> Multigraph:
    """Reference: the pointwise sum of two graphs on one vertex set."""
    pairs = set(g.mult_map) | set(h.mult_map)
    return Multigraph(
        g.n,
        base=g.base + h.base,
        mult_map={p: g.mult_map.get(p, g.base) + h.mult_map.get(p, h.base) for p in pairs},
    )


class TestDesign:
    def test_empty_leave(self):
        # (8, 4) is a design: empty leave, xi = J
        cert = construct_q_leave(8, 4)
        assert cert.xi == johnson_bound(8, 4, 3) == 14
        assert cert.graph.edge_count() == 0
        assert cert.conditions().all_pass()


class TestCaseR:
    def test_wrong_case_rejected(self):
        with pytest.raises(WrongCaseError):
            construct_r_leave(14, 5)

    def test_frozen_9_5(self):
        # gamma = 0, gamma0 = 4: the excess cannot sit on one simple-graph
        # vertex, so xi = J - 1 is certified (J itself is impossible here)
        cert = construct_r_leave(9, 5)
        assert cert.xi == johnson_bound(9, 5, 3) - 1 == 6
        assert cert.conditions().all_pass()
        assert cert.parameters["qhat"] == 6

    def test_no_erdos_gallai_run_on_a_graphic_sequence(self, monkeypatch):
        # Havel–Hakimi decides realizability; Erdős–Gallai only looks for
        # the smallest workable n of a refused class
        import triplepack.leave as leave_mod
        import triplepack.multigraph as mg

        calls = []
        feasible = mg.erdos_gallai_feasible

        def counted(seq):
            calls.append(len(seq))
            return feasible(seq)

        monkeypatch.setattr(mg, "erdos_gallai_feasible", counted)
        monkeypatch.setattr(leave_mod, "erdos_gallai_feasible", counted)
        for n, k in ((1999, 5), (12, 5), (1000, 8)):
            calls.clear()
            construct_r_leave(n, k)
            assert calls == [], (n, k)
        with pytest.raises(NTooSmallError):
            construct_r_leave(7, 5)
        assert calls == [67]

    def test_infeasible_sequence_min_n(self):
        # the degree sequence is not graphical at these n; the smallest
        # workable n of the residue class is unchanged
        for n, k, min_n in ((7, 5, 67), (8, 6, 128), (9, 7, 219), (18, 7, 228)):
            with pytest.raises(NTooSmallError, match="degree sequence") as exc:
                construct_r_leave(n, k)
            assert exc.value.min_n == min_n

    def test_13_5_multiplicity_guard(self):
        # qhat = 2 forces a pair at multiplicity 14 > n - 2 = 11, which
        # can never decompose; the constructor refuses and points at the
        # first n in the class where the layout fits
        with pytest.raises(NTooSmallError) as exc:
            construct_r_leave(13, 5)
        assert exc.value.min_n == 73
        cert = construct_r_leave(73, 5)
        assert cert.xi == johnson_bound(73, 5, 3)
        assert cert.conditions().all_pass()

    def test_too_small_reports_residue_class(self):
        with pytest.raises(NTooSmallError) as exc:
            construct_r_leave(7, 5)
        min_n = exc.value.min_n
        assert min_n is not None and min_n % 60 == 7 % 60
        cert = construct_r_leave(min_n, 5)
        assert cert.conditions().all_pass()

    def test_generic_case(self):
        cert = construct_r_leave(12, 5)
        assert cert.conditions().all_pass()
        assert cert.xi <= upper_bound(12, 5)

    def test_sigma_capped_by_n_minus_2(self):
        # every emitted case-(i) certificate respects the hard necessity
        # that a pair has at most n - 2 distinct common neighbors
        for n in range(6, 120):
            try:
                cert = construct_r_leave(n, 5)
            except (NTooSmallError, WrongCaseError):
                continue
            assert cert.sigma <= n - 2, n

    @pytest.mark.parametrize("k", range(5, 10))
    def test_fused_build_equals_overlay_of_scaled_parts(self, k):
        # the leave is built in one step as (k-2)G' + rK_n; it must equal
        # the three-step overlay(scale(G', k-2), complete(n, r)) in every
        # r-case residue class, at the smallest workable n of the class
        period = k * (k - 1) * (k - 2)
        classes = 0
        for c in range(period):
            n = c if c > k else c + period
            if classify(n, k)[0] is not CaseLabel.R_NONZERO:
                continue
            while True:
                try:
                    cert = construct_r_leave(n, k)
                    break
                except NTooSmallError as exc:
                    n = exc.min_n or n + period
            p = cert.parameters
            if "qhat" in p:
                g_prime = _excess_multigraph(n, p["qhat"], k - 1)
            else:
                g_prime = realize_degree_sequence([p["gamma0"]] + [p["gamma"]] * (n - 1))
            staged = overlay(scale(g_prime, k - 2), complete(n, p["r"]))
            assert cert.graph.base == staged.base == p["r"], (n, k)
            assert cert.graph.mult_map == staged.mult_map, (n, k)
            classes += 1
        assert classes > period // 2


class TestCaseQ:
    def test_wrong_case_rejected(self):
        with pytest.raises(WrongCaseError):
            construct_q_leave(9, 5)

    def test_14_5_too_small(self):
        with pytest.raises(NTooSmallError) as exc:
            construct_q_leave(14, 5)
        assert exc.value.min_n == 74

    def test_frozen_74_5(self):
        cert = construct_q_leave(74, 5)
        assert cert.xi == 6468
        p = cert.parameters
        assert (p["q"], p["l"], p["t"], p["c"], p["deficit"]) == (2, 2, 4, 2, 14)
        assert cert.conditions().all_pass()

    def test_deficit_bounded(self):
        # worst known deficit of the minimal-t solution is 4k - 6,
        # attained at k = 7, q = 2 (parity forces c = 2, t = k - 1)
        found = None
        for n in range(8, 3000):
            label, data = classify(n, 7)
            if label is CaseLabel.Q_NONZERO and data.q_beta == 2:
                found = n
                break
        assert found is not None
        try:
            cert = construct_q_leave(found, 7)
        except NTooSmallError as exc:
            cert = construct_q_leave(exc.min_n, 7)
        assert cert.parameters["deficit"] == 4 * 7 - 6
        assert cert.conditions().all_pass()

    def test_equality_family_k5(self):
        # q = k - 2 gives t = c = 1 and deficit 3: xi meets the proven
        # upper bound J - 3 exactly
        for n in range(7, 500):
            label, data = classify(n, 5)
            if label is CaseLabel.Q_NONZERO and data.q_beta == 3:
                try:
                    cert = construct_q_leave(n, 5)
                except NTooSmallError as exc:
                    cert = construct_q_leave(exc.min_n, 5)
                assert cert.xi == upper_bound(cert.n, 5)
                return
        raise AssertionError("no q = k - 2 class found")


class TestCaseP:
    def test_wrong_case_rejected(self):
        with pytest.raises(WrongCaseError):
            construct_p_leave(14, 5)

    def test_frozen_11_5(self):
        cert = construct_p_leave(11, 5)
        assert cert.xi == 11
        assert cert.conditions().all_pass()
        assert cert.xi <= upper_bound(11, 5) == 13

    def test_evidence_blocks_verify(self):
        from triplepack.decomp import verify_decomposition
        from triplepack.gdd import gadget_multigraph

        cert = construct_p_leave(11, 5)
        assert cert.evidence
        for item in cert.evidence:
            if item.kind == "simple-gdd" and item.blocks:
                g, u, lam = item.params
                assert verify_decomposition(
                    gadget_multigraph(g, u, lam), item.blocks
                )

    def test_emitted_witnesses_pinned(self):
        # every gadget type that carries blocks in a P-case certificate for
        # k = 5..9, n < 400, and the sha256 of the repr of its blocks in
        # type order: a change of search route that picks other witnesses
        # changes certificate bytes, and must show here
        types = set()
        for k in range(5, 10):
            for n in range(k + 1, 400):
                if classify(n, k)[0] is CaseLabel.P_NONZERO:
                    try:
                        cert = construct_p_leave(n, k)
                    except TriplepackError:
                        continue
                    types |= {e.params for e in cert.evidence if e.blocks}
        assert sorted(types) == [
            (1, 7, 3), (1, 9, 4), (1, 9, 6), (1, 10, 4), (1, 10, 6), (1, 11, 3),
            (2, 4, 3), (2, 5, 6), (2, 6, 3), (2, 6, 5), (2, 6, 7),
            (3, 3, 3), (3, 4, 4), (3, 4, 6), (4, 3, 4),
        ]
        blocks = [leave._gadget_witness(*t) for t in sorted(types)]
        assert hashlib.sha256(repr(blocks).encode()).hexdigest() == (
            "a035d4b2b7d7185dc3f1281b0bd673bdac291b6f5283cfc98a63b4b735f9b6d4"
        )

    def test_large_n_fast_and_sound(self):
        cert = construct_p_leave(1902, 7)
        assert cert.conditions().all_pass()
        assert cert.xi <= upper_bound(1902, 7)


class TestDispatch:
    def test_routes_by_case(self):
        for n, k in ((9, 5), (74, 5), (11, 5), (8, 4)):
            xi, cert = achieved_lower_bound(n, k)
            assert cert.n == n and cert.k == k
            assert xi == cert.xi <= upper_bound(n, k)
            assert cert.conditions().all_pass()

    def test_sigma_is_constant_scale(self):
        # multiplicity cap depends on k only, never on n
        for n in (74, 134, 194):
            _, cert = achieved_lower_bound(n, 5)
            assert cert.sigma == 3


# sha256 of jsonio.dumps(certificate_to_dict(...)): one certificate per
# constructor branch, frozen so that a refactor cannot change the bytes
FROZEN_CERTIFICATES = {
    "r": (100, 7, "37036aa47735763861f6c9ccad43ed8887db1f00f1504ec06c8c6be24f2e8e20"),
    "r-qhat-1": (9, 5, "ec53c11cd702479369afa82d831c518e8b74bba4f6a39a5373eda58f6ba7f830"),
    "r-qhat": (27, 5, "4ed5e969a14f5f0843fb7f7405e3001ed877cce06731e3419dc67045ef5f8c7e"),
    "design": (17, 5, "b4c4f7c19361866288e4a56f49255afd577c1bfa7495c746a95695e52f83573d"),
    "q": (74, 5, "7295663fbdd74375bbb6c1cb58ec4b0b0a702ffb4eec46294dd6855909651e3d"),
    "p-blocks": (11, 5, "85828ba08b97a2fdc5956cdb7b1bb737811f2b2be26bafff2ca69ee3d58d157e"),
    "p": (20, 5, "079a4da5b7be42e428bed2d972da5243ac0cb1134405121557861159ce4103d6"),
}


class TestVerifyCertificate:
    @pytest.mark.parametrize("branch", sorted(FROZEN_CERTIFICATES))
    def test_frozen_bytes(self, branch):
        n, k, digest = FROZEN_CERTIFICATES[branch]
        _, cert = achieved_lower_bound(n, k)
        text = jsonio.dumps(jsonio.certificate_to_dict(cert))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert verify_certificate(cert)
        assert verify_certificate(jsonio.certificate_from_dict(json.loads(text)))

    def test_constructors_refuse_above_upper_bound(self, monkeypatch):
        # the leave conditions still hold; only the bound check can refuse
        monkeypatch.setattr(leave, "upper_bound", lambda n, k: -1)
        for build, n in ((construct_r_leave, 9), (construct_q_leave, 74),
                         (construct_p_leave, 11)):
            with pytest.raises(TriplepackError, match="verify_certificate"):
                build(n, 5)

    def test_replaced_witness_block_fails(self):
        cert = construct_p_leave(11, 5)
        item = cert.evidence[0]
        assert item.kind == "simple-gdd" and item.blocks
        used = {tuple(sorted(b)) for b in item.blocks}
        other = next(b for b in combinations(range(11), 3) if b not in used)
        tampered = item._replace(blocks=(other,) + item.blocks[1:])
        assert cert.conditions().all_pass()
        assert not verify_certificate(cert._replace(evidence=(tampered,)))

    @pytest.mark.parametrize("n, k, evidence", [
        (100, 7, ()),
        (100, 7, (("reduction", (100, 2, 5), 1),)),
        (100, 7, (("reduction", (100, 3, 5), 2),)),
        (100, 7, (("reduction", (100, 3, 5), 1),) * 2),
        (100, 7, (("dehon", (100, 5), 1),)),
        (74, 5, (("dehon", (9, 3), 3),)),  # a copy short of the edges
        (74, 5, (("empty", (), 0),)),
        (74, 5, (("dehon", (9, 3, 1), 4),)),
        (74, 5, (("dehon", (9, 3), 4), ("dehon", (7, 3), 0))),
        (74, 5, (("dehon", (9, 3), -4), ("dehon", (9, 3), 8))),
        (74, 5, (("dehon", (9, 3), 4), ("empty", (1,), 0))),
        (20, 5, (("dehon", (9, 3), 5),)),  # the 540 edges on 45 > 20 vertices
        (20, 5, (("simple-gdd", (2, 10, 0), 1),)),
        (17, 5, ()),
    ], ids=["r-none", "r-wrong-r", "r-two-copies", "r-twice", "r-dehon",
            "q-copy-short", "q-empty", "q-wrong-arity", "q-zero-copies", "q-negative-copies",
            "q-empty-with-params", "p-above-n", "p-refused", "design-none"])
    def test_evidence_must_match_the_construction(self, n, k, evidence):
        cert = achieved_lower_bound(n, k)[1]
        tampered = cert._replace(evidence=tuple(leave.EvidenceItem(*e) for e in evidence))
        assert tampered.conditions().all_pass()
        assert not verify_certificate(tampered)

    @pytest.mark.parametrize("n, k", [(100, 7), (74, 5), (17, 5), (20, 5)])
    def test_relabelled_case_fails(self, n, k):
        cert = achieved_lower_bound(n, k)[1]
        assert cert.case is classify(n, k)[0] and verify_certificate(cert)
        for label in CaseLabel:
            if label is not cert.case:
                assert not verify_certificate(cert._replace(case=label))

    def test_pair_above_n_minus_2_fails_the_cap(self):
        # (8, 4), xi = 13, one pair at 12 > n - 2 = 6: edge total
        # 2 * 12 = 8*7*6 - 24 * 13, degrees 12 = 0 (mod 6) and multiplicity
        # 12 = n - 2 (mod 2) all hold; only the cap refuses it
        cert = construct_q_leave(8, 4)
        tampered = cert._replace(xi=13, graph=Multigraph(8, mult_map={(0, 1): 12}))
        rep = tampered.conditions()
        assert rep.edge_total and rep.degrees and rep.mults and not rep.mult_cap
        assert tampered.sigma == 12
        assert not verify_certificate(tampered)

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_below_4_refused(self, k):
        # k = 2 used to divide by k - 2 inside the leave conditions
        cert = achieved_lower_bound(9, 5)[1]
        with pytest.raises(InvalidParameterError, match="n > k >= 4"):
            verify_certificate(cert._replace(k=k))

    @pytest.mark.parametrize("params, blocks", [
        ((1000, 1000, 1), 1),  # the gadget has more vertices than n = 11
        ((1, 11, 10**6), 1),  # C(11, 2) 10^6 / 3 blocks needed, one given
        ((1, 11, 3), 54),  # one block of the 55 dropped
    ], ids=["order-above-n", "huge-index", "block-dropped"])
    def test_witness_of_the_wrong_size_fails_before_the_gadget_is_built(
        self, monkeypatch, params, blocks
    ):
        cert = construct_p_leave(11, 5)
        item = cert.evidence[0]
        assert (item.params, len(item.blocks)) == ((1, 11, 3), 55)
        tampered = item._replace(params=params, blocks=item.blocks[:blocks])
        monkeypatch.setattr(leave, "gadget_multigraph", None)  # never called
        assert not verify_certificate(cert._replace(evidence=(tampered,)))


def test_constructor_checks_survive_optimize_flag():
    src = Path(__file__).resolve().parent.parent / "src"
    # "assert 0" proves the flag took effect; with the leave-condition
    # check broken, each constructor must still refuse its certificate
    script = (
        "import triplepack.leave as leave\n"
        "from triplepack.errors import TriplepackError\n"
        "from triplepack.multigraph import LeaveConditionReport\n"
        "assert 0, 'assert statements are stripped'\n"
        "leave.check_leave_conditions = lambda *a: LeaveConditionReport(True, True, True, False)\n"
        "for build, n, k in ((leave.construct_r_leave, 12, 5),\n"
        "                    (leave.construct_q_leave, 74, 5),\n"
        "                    (leave.construct_p_leave, 11, 5)):\n"
        "    try:\n"
        "        build(n, k)\n"
        "        print('accepted')\n"
        "    except TriplepackError:\n"
        "        print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3
