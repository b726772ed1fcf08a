"""Triangle decomposition engine, Dehon predicate, clique reduction."""

import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from triplepack import decomp, gdd
from triplepack.decomp import (
    ReductionTrace,
    SearchStatus,
    StallEvent,
    clique_reduction,
    decompose_via_reduction,
    dehon_conditions,
    find_triangle_decomposition,
    verify_decomposition,
)
from triplepack.errors import InvalidParameterError
from triplepack.gdd import gadget_multigraph, search_simple_gdd
from triplepack.multigraph import Multigraph, complete


class TestDehon:
    def test_classics(self):
        assert dehon_conditions(7, 1)      # Steiner triple system
        assert dehon_conditions(9, 1)
        assert not dehon_conditions(8, 1)  # no STS(8)
        assert not dehon_conditions(6, 1)
        assert dehon_conditions(6, 4)
        assert not dehon_conditions(5, 4)  # lam > n - 2
        assert dehon_conditions(4, 2)

    def test_lam_cap_is_distinctness(self):
        # lam = n - 1 would need a repeated triangle somewhere
        for n in range(4, 12):
            assert not dehon_conditions(n, n - 1)


class TestVerify:
    def test_accepts_fano(self):
        res = find_triangle_decomposition(complete(7, 1))
        assert res.status is SearchStatus.FOUND
        assert len(res.cliques) == 7
        assert verify_decomposition(complete(7, 1), res.cliques)

    def test_rejects_duplicate_triangle(self):
        g = complete(3, 2)
        assert not verify_decomposition(g, ((0, 1, 2), (0, 1, 2)))

    def test_rejects_wrong_cover(self):
        assert not verify_decomposition(complete(4, 1), ((0, 1, 2),))

    @pytest.mark.parametrize("phantom", [99, -1, 4, 2.5, True])
    def test_rejects_vertices_the_graph_does_not_have(self, phantom):
        # four edges, and the covers of the real pairs match them; the
        # phantom pairs used to go unnoticed
        g = Multigraph(4, mult_map={(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 3): 1})
        assert verify_decomposition(g, [(0, 1, 2), (2, 3)])
        assert not verify_decomposition(g, [(0, 1, 2), (2, 3, phantom)])

    def test_rejects_a_cover_of_phantom_pairs_alone(self):
        # three pairs of non-vertices would match the edge count of K_3
        assert not verify_decomposition(complete(3, 1), [(0.5, 1.5, 2.5)])

    @pytest.mark.parametrize("point", ["a", None, (1,)])
    def test_points_that_do_not_compare_with_ints_are_rejected(self, point):
        # they used to raise TypeError from the sort
        assert not verify_decomposition(complete(3, 1), [(0, point, 1)])
        assert not verify_decomposition(complete(3, 1), [(point,)])

    @pytest.mark.parametrize("run", [
        lambda: search_simple_gdd(1, 10, 6),
        lambda: find_triangle_decomposition(complete(9, 4)),
        lambda: search_simple_gdd(2, 6, 1),
        lambda: decompose_via_reduction(complete(7, 2), 3, 2, 2),
        lambda: find_triangle_decomposition(complete(9, 3)),
        lambda: search_simple_gdd(1, 9, 4),
    ], ids=["gdd-search", "mirror", "gdd-direct", "reduction", "juxtaposed", "gdd-juxtaposed"])
    def test_a_mirrored_answer_is_verified_once(self, monkeypatch, run):
        # each emitted claim is checked once, on the graph it claims to
        # decompose: a design by verify_gdd, a reduction's cliques with its
        # residual's triangles on g.  The answer on the complementary
        # multiplicity and the residual's own answer are intermediates
        seen = []
        real = decomp.verify_decomposition

        def counting(g, cliques):
            seen.append(g)
            return real(g, cliques)

        monkeypatch.setattr(decomp, "verify_decomposition", counting)
        monkeypatch.setattr(gdd, "verify_decomposition", counting)
        assert run() is not None
        assert len(seen) == 1

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=7),
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda p: p[0] < p[1]),
            st.integers(0, 2),
            max_size=10,
        ),
        st.lists(st.lists(st.integers(-1, 7), min_size=2, max_size=4), max_size=6),
    )
    def test_matches_a_count_over_every_pair(self, n, raw, cliques):
        g = Multigraph(n, mult_map={p: m for p, m in raw.items() if p[1] < n})
        keys = [tuple(sorted(c)) for c in cliques]
        cover = {}
        for key in keys:
            for p in combinations(key, 2):
                cover[p] = cover.get(p, 0) + 1
        expected = (
            len(set(keys)) == len(keys)
            and all(len(set(k)) == len(k) and 0 <= k[0] and k[-1] < n for k in keys)
            and all(
                cover.get((u, v), 0) == g.mult(u, v)
                for u in range(n)
                for v in range(u + 1, n)
            )
        )
        assert verify_decomposition(g, cliques) == expected


class TestEngine:
    def test_empty_graph(self):
        res = find_triangle_decomposition(Multigraph(5))
        assert res.status is SearchStatus.FOUND and res.cliques == ()

    def test_negative_budget_refused(self):
        # refused before any shortcut: empty, parity, search
        for g in (Multigraph(5), complete(4, 1), complete(7, 1)):
            with pytest.raises(InvalidParameterError):
                find_triangle_decomposition(g, budget=-1)
        res = find_triangle_decomposition(complete(7, 1), budget=0)
        assert res.status is SearchStatus.BUDGET and res.nodes == 1

    def test_parity_shortcut(self):
        # odd degrees: exhaustive NONE with zero nodes
        res = find_triangle_decomposition(complete(4, 1))
        assert res.status is SearchStatus.NONE
        assert res.nodes == 0

    def test_triangle_multiplicity_two(self):
        # 2K3 needs two distinct triangles on 3 vertices: impossible
        res = find_triangle_decomposition(complete(3, 2))
        assert res.status is SearchStatus.NONE

    def test_k5_lambda3_via_complement(self):
        # 3K5: multiplicity 3 = cap, handled by complementation
        res = find_triangle_decomposition(complete(5, 3))
        assert res.status is SearchStatus.FOUND
        assert verify_decomposition(complete(5, 3), res.cliques)
        assert len(res.cliques) == 10

    def test_forbidden_triples_respected(self):
        g = complete(7, 1)
        first = find_triangle_decomposition(g)
        banned = first.cliques[:1]
        res = find_triangle_decomposition(g, forbidden=banned)
        if res.status is SearchStatus.FOUND:
            assert banned[0] not in res.cliques

    def test_budget_reported(self):
        res = find_triangle_decomposition(complete(9, 3), budget=1)
        assert res.status in (SearchStatus.BUDGET, SearchStatus.FOUND)
        if res.status is SearchStatus.BUDGET:
            assert res.cliques is None

    def test_dehon_grid_small(self):
        for n in range(3, 8):
            for lam in range(1, 6):
                res = find_triangle_decomposition(complete(n, lam))
                assert (res.status is SearchStatus.FOUND) == dehon_conditions(
                    n, lam
                ), (n, lam)

    def test_search_depth_takes_no_python_frames(self):
        # one branching pair per triangle, each once a nested Python
        # frame: 150 overflowed a limit of 100, as 1,100 overflowed the
        # default limit
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import sys\n"
            "sys.setrecursionlimit(100)\n"
            "from triplepack.decomp import find_triangle_decomposition\n"
            "from triplepack.multigraph import Multigraph\n"
            "pairs = {(x, y): 1 for i in range(0, 450, 3)\n"
            "         for x, y in ((i, i + 1), (i, i + 2), (i + 1, i + 2))}\n"
            "res = find_triangle_decomposition(Multigraph(450, base=0, mult_map=pairs))\n"
            "print(res.status.value, len(res.cliques), res.nodes)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["found", "150", "150"]


class TestCliqueReduction:
    def g(self):
        # 2K5 has pairs above lam = 1 everywhere
        return complete(5, 2)

    def test_trace_replays(self):
        trace = clique_reduction(self.g(), 3, 1, 2)
        # replay: removing the cliques from the input yields the residual
        rem = {}
        g = self.g()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                rem[(u, v)] = g.mult(u, v)
        for c in trace.cliques:
            for i in range(3):
                for j in range(i + 1, 3):
                    a, b = sorted((c[i], c[j]))
                    rem[(a, b)] -= 1
                    assert rem[(a, b)] >= 0
        assert all(
            rem[p] == trace.residual.mult(*p) for p in rem
        )

    def test_cliques_distinct(self):
        trace = clique_reduction(self.g(), 3, 1, 2)
        assert len(set(trace.cliques)) == len(trace.cliques)

    def test_gamma_lists_high_pairs(self):
        trace = clique_reduction(self.g(), 3, 1, 2)
        for x, nbrs in trace.gamma.items():
            assert all(self.g().mult(x, y) > 1 for y in nbrs)

    def test_rejects_mult_above_lam_prime(self):
        with pytest.raises(InvalidParameterError):
            clique_reduction(complete(4, 3), 3, 1, 2)

    def test_custom_order_validated(self):
        with pytest.raises(InvalidParameterError):
            clique_reduction(self.g(), 3, 1, 2, vertex_order=(0, 1))

    def test_decompose_via_reduction_found(self):
        # lam' = lam = 2: nothing to reduce, the exact engine finds 2K7
        res = decompose_via_reduction(complete(7, 2), 3, 2, 2)
        assert res.status is SearchStatus.FOUND
        assert verify_decomposition(complete(7, 2), res.cliques)

    def test_reduction_may_stall_greedily(self):
        # clearing multiplicity-2 pairs of 2K7 greedily can paint the
        # residual into a corner: INCONCLUSIVE, never a false NONE
        res = decompose_via_reduction(complete(7, 2), 3, 1, 2)
        assert res.status in (SearchStatus.FOUND, SearchStatus.INCONCLUSIVE)

    def test_decompose_via_reduction_none_only_when_exhaustive(self):
        # lam' = lam: nothing to reduce, residual search is authoritative
        res = decompose_via_reduction(complete(4, 1), 3, 1, 1)
        assert res.status is SearchStatus.NONE

    def test_negative_budget_refused_before_any_reduction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decomp, "clique_reduction", lambda *a, **kw: calls.append(a))
        with pytest.raises(InvalidParameterError):
            decompose_via_reduction(complete(9, 2), 3, 1, 2, budget=-1)
        assert calls == []

    def test_inconclusive_after_nonempty_reduction(self):
        res = decompose_via_reduction(complete(3, 2), 3, 1, 2)
        assert res.status in (SearchStatus.INCONCLUSIVE, SearchStatus.NONE)

    def test_q_not_3_rejected(self):
        with pytest.raises(InvalidParameterError):
            decompose_via_reduction(complete(5, 2), 4, 1, 2)


# ---------------------------------------------------------------------------
# the bitset kernel walks the same search tree as a plain dict-based search
# ---------------------------------------------------------------------------


def _reference_search(g, forbidden, budget):
    """Dict-based pair-driven search, kept here only as the reference the
    bitset kernel must match node for node.  Same contract as
    ``decomp._triangle_search``: (status, triples, nodes)."""
    active = g.active_vertices()
    rem = {}
    for i, u in enumerate(active):
        for v in active[i + 1 :]:
            rem[(u, v)] = g.mult(u, v)
    chosen = {tuple(sorted(t)) for t in forbidden}
    nodes = 0

    def pair(a, b):
        return (a, b) if a < b else (b, a)

    def search():
        nonlocal nodes
        best = None
        for (u, v), need in rem.items():
            if not need:
                continue
            cands = [
                w
                for w in active
                if w != u
                and w != v
                and rem.get(pair(u, w), 0) >= 1
                and rem.get(pair(v, w), 0) >= 1
                and tuple(sorted((u, v, w))) not in chosen
            ]
            if need > len(cands):
                return SearchStatus.NONE, None
            width = comb(len(cands), need)
            if best is None or width < best[0]:
                best = (width, (u, v), need, cands)
                if width == 1:
                    break
        if best is None:
            return SearchStatus.FOUND, []
        _, (u, v), need, cands = best
        for subset in combinations(cands, need):
            nodes += 1
            if budget is not None and nodes > budget:
                return SearchStatus.BUDGET, None
            triples = [tuple(sorted((u, v, w))) for w in subset]
            rem[(u, v)] = 0
            for w in subset:
                rem[pair(u, w)] -= 1
                rem[pair(v, w)] -= 1
            chosen.update(triples)
            status, rest = search()
            chosen.difference_update(triples)
            rem[(u, v)] = need
            for w in subset:
                rem[pair(u, w)] += 1
                rem[pair(v, w)] += 1
            if status is SearchStatus.FOUND:
                return status, triples + rest
            if status is SearchStatus.BUDGET:
                return status, None
        return SearchStatus.NONE, None

    status, triples = search()
    return status, triples, nodes


def _both(monkeypatch, g, **kw):
    """(kernel answer, reference answer) of find_triangle_decomposition,
    each as (status, cliques, nodes)."""
    got = find_triangle_decomposition(g, **kw)
    with monkeypatch.context() as m:
        m.setattr(decomp, "_triangle_search", _reference_search)
        want = find_triangle_decomposition(g, **kw)
    return (got.status, got.cliques, got.nodes), (want.status, want.cliques, want.nodes)


class TestKernelMatchesReference:
    def test_complete_grid(self, monkeypatch):
        for n in range(3, 10):
            for lam in range(1, 9):
                got, want = _both(monkeypatch, complete(n, lam))
                assert got == want, (n, lam)

    def test_gdd_grid(self, monkeypatch):
        for u in range(3, 11):
            for g in range(1, 11):
                if g * u > 10:
                    continue
                for lam in range(1, 9):
                    got, want = _both(monkeypatch, gadget_multigraph(g, u, lam))
                    assert got == want, (g, u, lam)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sets(st.integers(0, n - 1), min_size=3, max_size=3), max_size=3 * n),
                st.lists(
                    st.lists(st.integers(0, n - 1), min_size=3, max_size=3), max_size=6
                ),
            )
        ),
        st.one_of(st.none(), st.integers(0, 300)),
    )
    def test_random_multigraphs(self, data, budget):
        # sums of triangles pass the parity and edge-count shortcuts, so
        # most examples reach the search
        n, triangles, forbidden = data
        mults = {}
        for t in triangles:
            for p in combinations(sorted(t), 2):
                mults[p] = mults.get(p, 0) + 1
        assume(max(mults.values(), default=0) <= 3)
        g = Multigraph(n, mult_map=mults)
        got = find_triangle_decomposition(g, budget=budget, forbidden=forbidden)
        # monkeypatch is function-scoped, so patch by hand under Hypothesis
        kernel = decomp._triangle_search
        decomp._triangle_search = _reference_search
        try:
            want = find_triangle_decomposition(g, budget=budget, forbidden=forbidden)
        finally:
            decomp._triangle_search = kernel
        assert (got.status, got.cliques, got.nodes) == (want.status, want.cliques, want.nodes)

    def test_3k9_pinned(self):
        # the kernel itself; the public search takes the juxtaposition
        # route on 3K_9 (TestJuxtaposition)
        status, triples, nodes = decomp._triangle_search(complete(9, 3), (), None)
        assert status is SearchStatus.FOUND and nodes == 17390
        assert verify_decomposition(complete(9, 3), triples)
        status, _triples, nodes = decomp._triangle_search(complete(9, 3), (), 1000)
        assert status is SearchStatus.BUDGET and nodes == 1001

    def test_fano_order_pinned(self):
        # the kernel lists the triangles of the deepest branching pair first
        status, triples, nodes = decomp._triangle_search(complete(7, 1), (), None)
        assert status is SearchStatus.FOUND and nodes == 7
        assert triples == [
            (2, 4, 5), (2, 3, 6), (1, 4, 6), (1, 3, 5), (0, 5, 6), (0, 3, 4), (0, 1, 2)]


class TestJuxtaposition:
    # lam*K_m of the Dehon types the leave constructors use: three STS(9),
    # five STS(13), six STS(15), seven STS(25), one after the other
    @pytest.mark.parametrize("m, lam, nodes", [(9, 3, 43), (13, 5, 252), (15, 6, 342), (25, 7, 942)])
    def test_dehon_types_found(self, m, lam, nodes):
        g = complete(m, lam)
        res = find_triangle_decomposition(g)
        assert res.status is SearchStatus.FOUND and res.nodes == nodes
        assert len(res.cliques) == lam * m * (m - 1) // 6
        assert verify_decomposition(g, res.cliques)

    @pytest.mark.parametrize("g, nodes", [
        (complete(7, 2), 14),  # two disjoint STS(7)
        (gadget_multigraph(1, 10, 4), 77),  # two disjoint (3, 2)-GDD(1^10)
    ])
    def test_two_designs_juxtaposed(self, g, nodes):
        # the route runs from two designs of the least index on: the kernel
        # alone takes 49 nodes on 2K_7 and 763 on GDD(1^10) at index 4
        res = find_triangle_decomposition(g)
        assert res.status is SearchStatus.FOUND and res.nodes == nodes
        assert verify_decomposition(g, res.cliques)

    def test_routed_answers_pinned(self):
        # 4K_9 is mirrored onto 3K_9 and complemented; GDD(1^9) is 3K_9
        direct = find_triangle_decomposition(complete(9, 3))
        mirrored = find_triangle_decomposition(complete(9, 4))
        assert (direct.nodes, mirrored.nodes) == (43, 43)
        assert set(mirrored.cliques) == set(combinations(range(9), 3)) - set(direct.cliques)
        for lam, res in ((3, direct), (4, mirrored)):
            status, inst, nodes = search_simple_gdd(1, 9, lam)
            assert (status, inst.blocks, nodes) == (res.status, res.cliques, res.nodes)
        assert hashlib.sha256(repr(direct.cliques).encode()).hexdigest() == (
            "c755ed1b722e08d2ab029b83552f57bc3e567ef3b9abe11d67b48fc554db8bf4"
        )

    @pytest.mark.parametrize("lam", [3, 4])
    def test_a_budget_the_route_outruns_is_budget(self, lam):
        # the route needs 43 nodes; below that the answer is inconclusive
        # and counts the node past the budget, as the kernel does
        for budget in range(43):
            res = find_triangle_decomposition(complete(9, lam), budget=budget)
            assert res.status is SearchStatus.BUDGET and res.cliques is None
            assert res.nodes == budget + 1
        assert find_triangle_decomposition(complete(9, lam), budget=43).status is SearchStatus.FOUND
        res = find_triangle_decomposition(complete(25, 7), budget=500)
        assert res.status is SearchStatus.BUDGET and res.nodes == 501

    def test_a_failed_route_returns_the_kernels_answer(self, monkeypatch):
        # the second STS(9), searched with the first one's 12 blocks
        # forbidden, is made to fail after 5 nodes; the kernel then runs on
        # 3K_9 with the route's nodes counted against the same budget
        kernel = decomp._triangle_search
        calls = []

        def stuck(g, forbidden, budget):
            calls.append((g.edge_count(), len(forbidden), budget))
            if forbidden:
                return SearchStatus.NONE, [], 5
            return kernel(g, forbidden, budget)

        monkeypatch.setattr(decomp, "_triangle_search", stuck)
        first = kernel(complete(9, 1), (), None)[2]
        status, triples, nodes = kernel(complete(9, 3), (), None)
        res = find_triangle_decomposition(complete(9, 3))
        assert res.status is status and res.cliques == tuple(sorted(triples))
        assert res.nodes == first + 5 + nodes
        assert calls == [(36, 0, None), (36, 12, None), (108, 0, None)]
        calls.clear()
        budget = first + 5 + 1000
        res = find_triangle_decomposition(complete(9, 3), budget=budget)
        assert res.status is SearchStatus.BUDGET and res.nodes == budget + 1
        assert calls[-1] == (108, 0, 1000)


# ---------------------------------------------------------------------------
# the bitset clique reduction gives the trace of a plain dict-based one
# ---------------------------------------------------------------------------


def _reference_reduction(g, q, lam, lam_prime, vertex_order=None):
    """Dict-based greedy clique reduction, kept here only as the reference
    the bitset kernel must match field by field.  Same contract as
    ``decomp.clique_reduction`` on inputs that pass its checks."""
    order = tuple(vertex_order) if vertex_order is not None else tuple(range(g.n))
    rem = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            m = g.mult(u, v)
            if m > 0:
                rem[(u, v)] = m
    gamma = {
        x: tuple(y for y in range(g.n) if y != x and g.mult(x, y) > lam)
        for x in range(g.n)
    }
    appearance = {x: 0 for x in range(g.n)}
    chosen = []
    chosen_set = set()
    stalls = []

    def edge(a, b):
        return rem.get((a, b) if a < b else (b, a), 0)

    for xi in order:
        for x in gamma[xi]:
            while edge(xi, x) >= 1:
                members = [xi, x]
                ok = True
                for j in range(1, q - 1):
                    last = j == q - 2
                    best = None
                    for y in range(g.n):
                        if y in members:
                            continue
                        if any(edge(y, m) < 1 for m in members):
                            continue
                        if last and tuple(sorted(members + [y])) in chosen_set:
                            continue
                        key = (appearance[y], y)
                        if best is None or key < best[0]:
                            best = (key, y)
                    if best is None:
                        ok = False
                        break
                    members.append(best[1])
                if not ok:
                    stalls.append(StallEvent(xi, x, tuple(members)))
                    break
                clique = tuple(sorted(members))
                chosen.append(clique)
                chosen_set.add(clique)
                for a, b in combinations(clique, 2):
                    rem[a, b] -= 1
                for v in clique:
                    appearance[v] += 1

    residual = Multigraph(g.n, base=0, mult_map={p: m for p, m in rem.items() if m})
    return ReductionTrace(
        q=q,
        lam=lam,
        lam_prime=lam_prime,
        order=order,
        gamma=gamma,
        cliques=tuple(chosen),
        residual=residual,
        appearance=appearance,
        stalls=tuple(stalls),
    )


def _criterion_9_graph(rng, n):
    """Criterion 9's generator: each pair present with probability 1/4 at
    multiplicity 1..3."""
    return Multigraph(n, mult_map={
        (u, v): rng.randint(1, 3)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.25
    })


class TestReductionKernelMatchesReference:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_criterion_9_graphs(self, seed):
        # two graphs of each order 5..40, as the benchmark's desk builds
        # them; stalls are among the traces compared
        rng = random.Random(seed)
        stalls = 0
        for n in range(5, 41):
            for _ in range(2):
                g = _criterion_9_graph(rng, n)
                trace = clique_reduction(g, 3, 1, 3)
                assert trace == _reference_reduction(g, 3, 1, 3), n
                stalls += len(trace.stalls)
        assert stalls

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_multigraphs(self, data):
        n = data.draw(st.integers(0, 10))
        base = data.draw(st.sampled_from((0, 1)))
        q = data.draw(st.integers(3, 5))
        mults = data.draw(st.lists(
            st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ))
        lam_prime = max([base, *mults]) + data.draw(st.integers(0, 1))
        lam = data.draw(st.integers(0, lam_prime))
        order = data.draw(st.one_of(st.none(), st.permutations(range(n))))
        g = Multigraph(n, base=base, mult_map=dict(zip(combinations(range(n), 2), mults)))
        got = clique_reduction(g, q, lam, lam_prime, vertex_order=order)
        assert got == _reference_reduction(g, q, lam, lam_prime, vertex_order=order)

    def test_2k7_trace_pinned(self):
        trace = clique_reduction(complete(7, 2), 3, 1, 2)
        assert trace.cliques == (
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 6), (0, 5, 6),
            (1, 2, 3), (1, 4, 5), (1, 4, 6), (1, 5, 6), (2, 3, 4), (3, 4, 5),
        )
        assert trace.stalls == tuple(
            StallEvent(x, y, (x, y)) for x, y in ((2, 5), (2, 6), (3, 6), (5, 2), (6, 2), (6, 3))
        )
        assert trace.appearance == {0: 6, 1: 6, 2: 4, 3: 5, 4: 6, 5: 5, 6: 4}
        assert trace.residual.mult_map == {(2, 5): 2, (2, 6): 2, (3, 6): 2}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_trace_equals_the_reference_field_by_field(self, data):
        # larger orders than above, q = 4 as well as 3, several (lam, lam')
        # pairs and vertex orders; stalls compared as plain records too
        n = data.draw(st.integers(3, 16))
        q = data.draw(st.sampled_from((3, 4)))
        lam_prime = data.draw(st.integers(1, 4))
        lam = data.draw(st.integers(0, lam_prime))
        base = data.draw(st.sampled_from((0, 1)))
        pairs = list(combinations(range(n), 2))
        mults = data.draw(st.lists(st.integers(0, lam_prime), min_size=len(pairs), max_size=len(pairs)))
        order = data.draw(st.one_of(st.none(), st.permutations(range(n))))
        g = Multigraph(n, base=base, mult_map=dict(zip(pairs, mults)))
        got = clique_reduction(g, q, lam, lam_prime, vertex_order=order)
        want = _reference_reduction(g, q, lam, lam_prime, vertex_order=order)
        for field in ReductionTrace._fields:
            assert getattr(got, field) == getattr(want, field), field
        assert all(type(s) is StallEvent for s in got.stalls)
        assert [(s.vertex, s.neighbor, s.partial) for s in got.stalls] == [
            (s.vertex, s.neighbor, s.partial) for s in want.stalls
        ]
        assert all(list(ys) == sorted(ys) for ys in got.gamma.values())


# ---------------------------------------------------------------------------
# verification and the grid searches give the answers they gave before
# ---------------------------------------------------------------------------


def _reference_verify(g, cliques):
    """``verify_decomposition`` as it was before it checked each clique
    in one pass and counted the covers with a Counter, kept here as the
    reference whose verdicts the current one must repeat."""
    n = g.n
    seen = set()
    cover = {}
    for c in cliques:
        key = tuple(sorted(c))
        if len(set(key)) != len(key) or key in seen:
            return False
        if not all(type(x) is int and 0 <= x < n for x in key):
            return False
        seen.add(key)
        for p in combinations(key, 2):
            cover[p] = cover.get(p, 0) + 1
    mult, base = g.mult_map.get, g.base
    return (
        all(mult(p, base) == m for p, m in cover.items())
        and sum(cover.values()) == g.edge_count()
    )


def _tampered(n, blocks):
    """The blocks as found, then each tamper class of the corpus."""
    first, rest = blocks[0], list(blocks[1:])
    a, b, c = first
    spare = next(x for x in range(n) if x not in first) if n > 3 else None
    yield "found", list(blocks)
    yield "dropped", rest
    yield "repeated", [first, *rest, first]
    yield "reversed", [first[::-1], *rest]
    yield "moved", [(a, b, (c + 1) % n), *rest]
    for bad in (-1, n, True, 2.5):
        yield f"point {bad!r}", [(a, b, bad), *rest]
    yield "point twice", [(a, b, b), *rest]
    yield "pair", [(a, b), *rest]
    if spare is not None:
        yield "4-clique", [(a, b, c, spare), *rest]
        yield "4-clique for two", [(a, b, c, spare), *rest[1:]]


def _found_decompositions():
    """(graph, blocks) of every FOUND answer on the lam*K_n grid (n 3..9,
    lam 1..8) and on the gadget grid (gu <= 10, lam 1..8)."""
    for n in range(3, 10):
        for lam in range(1, 9):
            res = find_triangle_decomposition(complete(n, lam))
            if res.status is SearchStatus.FOUND:
                yield complete(n, lam), res.cliques
    for u in range(3, 11):
        for size in range(1, 11):
            for lam in range(1, 9):
                if size * u <= 10:
                    _status, inst, _nodes = search_simple_gdd(size, u, lam)
                    if inst is not None:
                        yield gadget_multigraph(size, u, lam), inst.blocks


class TestParityWithTheParent:
    def test_verdicts_match_the_reference_on_a_tamper_corpus(self):
        verdicts = {}
        for g, blocks in _found_decompositions():
            for kind, cliques in _tampered(g.n, blocks):
                got = verify_decomposition(g, cliques)
                assert got == _reference_verify(g, cliques), (g.n, g.base, kind)
                verdicts.setdefault(kind, set()).add(got)
        # the corpus reaches both verdicts where a tamper can be harmless
        assert verdicts["found"] == verdicts["reversed"] == {True}
        for kind in ("dropped", "repeated", "point -1", "point True", "point 2.5", "pair"):
            assert verdicts[kind] == {False}, kind

    def test_grid_searches_pinned(self):
        # sha256 of the repr of every (status, cliques, nodes) on both
        # grids, and of the statuses alone, which are those of the
        # exhaustive kernel.  An input whose index is two or more times the
        # least index b at which a design exists takes the juxtaposition
        # route (3K_9 in 43 nodes, 17,390 by the kernel alone)
        kn, gd = [], []
        for n in range(3, 10):
            for lam in range(1, 9):
                r = find_triangle_decomposition(complete(n, lam))
                kn.append((n, lam, r.status.value, r.cliques, r.nodes))
        for u in range(3, 11):
            for size in range(1, 11):
                if size * u > 10:
                    continue
                for lam in range(1, 9):
                    status, inst, nodes = search_simple_gdd(size, u, lam)
                    gd.append((size, u, lam, status.value, inst and inst.blocks, nodes))
        statuses = [r[:3] for r in kn] + [r[:4] for r in gd]
        assert hashlib.sha256(repr(statuses).encode()).hexdigest() == (
            "6fea2e9cc3c70bda6632cde870cdfd7b72fef32d2d545b6b6e7ea368def63950"
        )
        assert sum(r[4] for r in kn) == 224 and sum(r[5] for r in gd) == 471
        assert hashlib.sha256(repr(kn).encode()).hexdigest() == (
            "e8cb8b64a6c911a8f0bd30b8c7ba621c53a8a4fabd6624ae899eb39d81d4ac41"
        )
        assert hashlib.sha256(repr(gd).encode()).hexdigest() == (
            "21d048f66a69fa9b2fd414129f24a965f2ca3e33b111c1cdc383af6264a6b161"
        )


@pytest.mark.parametrize("parts", [
    [[0, 1], [2, 3], [4, 5]],
    [[0], [1], [2], [3], [4]],
    [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]],
    [[0, 5, 9], [2, 3], [7, 1, 8], [4], [6]],  # not contiguous, unequal
    [[3, 1], [2, 0]],  # two parts: no transverse triple
])
def test_transverse_triples_match_a_brute_force_filter(parts):
    part_of = {x: i for i, part in enumerate(parts) for x in part}
    want = [
        t for t in combinations(range(len(part_of)), 3)
        if len({part_of[x] for x in t}) == 3
    ]
    assert decomp.transverse_triples(parts) == want


def test_postconditions_survive_optimize_flag():
    # with verification failing on the input graph, every FOUND path must
    # refuse its answer: the main search, the multipartite mirror (3K5),
    # and the reduction (whose one check is on g, after the residual search)
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import triplepack.decomp as decomp\n"
        "from triplepack.errors import TriplepackError\n"
        "from triplepack.multigraph import complete\n"
        "assert 0, 'assert statements are stripped'\n"
        "for g, run in ((complete(7, 1), decomp.find_triangle_decomposition),\n"
        "               (complete(5, 3), decomp.find_triangle_decomposition),\n"
        "               (complete(7, 2), lambda g: decomp.decompose_via_reduction(g, 3, 2, 2))):\n"
        "    decomp.verify_decomposition = lambda h, cliques, g=g: h is not g\n"
        "    try:\n"
        "        run(g)\n"
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
