"""Multigraph carrier type, degree-sequence realization, leave conditions."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from triplepack import jsonio
from triplepack.errors import InfeasibleSequenceError, InvalidParameterError
from triplepack.gdd import gadget_multigraph
from triplepack.leave import construct_r_leave
from triplepack.multigraph import (
    Multigraph,
    _havel_hakimi,
    check_leave_conditions,
    complete,
    disjoint_union,
    erdos_gallai_feasible,
    is_q2_divisible,
    realize_degree_sequence,
)
from triplepack.params import CaseLabel, classify


def _reference_normalise(n, base, mult_map):
    """The map rebuild that ``Multigraph.__post_init__`` ran on every input
    before it copied canonical maps after one comparison per pair."""
    if n < 0 or base < 0:
        raise InvalidParameterError("vertex count and base must be non-negative")
    clean = {}
    for p, m in mult_map.items():
        u, v = p
        if u < v:
            ok = 0 <= u and v < n
        else:
            ok = 0 <= v and u < n and u != v
            p = (v, u)
            if ok and p in mult_map:
                raise InvalidParameterError(f"pair {p} listed in both orientations")
        if not ok or m < 0:
            if u == v:
                raise InvalidParameterError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"vertex out of range in pair {(u, v)}")
            raise InvalidParameterError("negative multiplicity")
        if m != base:
            clean[p] = m
    return clean


def _reference_havel_hakimi(seq):
    """The per-vertex Havel–Hakimi loop that ``_havel_hakimi`` replaced:
    a residual degree per vertex, each partner moved down on its own."""
    residual = list(seq)
    maxdeg = max(residual, default=0)
    buckets = [[] for _ in range(maxdeg + 1)]
    for v in range(len(seq) - 1, -1, -1):
        buckets[residual[v]].append(v)
    edges = {}
    top = maxdeg
    while True:
        while top > 0 and not buckets[top]:
            top -= 1
        if top == 0:
            return list(edges)
        x = buckets[top].pop()
        d = residual[x]
        chosen = []
        level = top
        while len(chosen) < d and level > 0:
            bucket = buckets[level]
            need = d - len(chosen)
            if need >= len(bucket):
                chosen += reversed(bucket)
                bucket.clear()
            else:
                chosen += reversed(bucket[-need:])
                del bucket[-need:]
            level -= 1
        if len(chosen) < d:
            raise InfeasibleSequenceError(f"degree sequence not realizable: {list(seq)}")
        residual[x] = 0
        for y in chosen:
            edges[(x, y) if x < y else (y, x)] = 1
            r = residual[y] - 1
            residual[y] = r
            buckets[r].append(y)


@st.composite
def graph_maps(draw):
    """(n, base, map): canonical entries, pairs listed as (v, u), entries
    at base, and at most one pair listed both ways and one bad entry (a
    loop, a vertex out of range or a negative multiplicity), in any order."""
    n = draw(st.integers(min_value=0, max_value=6))
    base = draw(st.integers(min_value=0, max_value=3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = draw(st.dictionaries(st.sampled_from(pairs), st.integers(0, 5))) if pairs else {}
    items = []
    for (u, v), m in mults.items():
        items.append(((v, u) if draw(st.booleans()) else (u, v), m))
    if mults and draw(st.integers(0, 3)) == 0:
        (u, v), m = draw(st.sampled_from(items))
        items.append(((v, u), m))
    if draw(st.integers(0, 2)) == 0:
        vertex = st.integers(min_value=-1, max_value=n)
        items.append((draw(st.tuples(vertex, vertex)), draw(st.integers(-2, 4))))
    return n, base, dict(draw(st.permutations(items)))


class TestMultigraph:
    def test_base_plus_exceptions(self):
        g = Multigraph(4, base=2, mult_map={(0, 1): 5, (2, 3): 0})
        assert g.mult(0, 1) == 5
        assert g.mult(0, 2) == 2
        assert g.mult(2, 3) == 0
        assert g.mult(1, 0) == 5  # orientation-free

    def test_normalization_drops_base_entries(self):
        g = Multigraph(4, base=2, mult_map={(0, 1): 2})
        assert g.mult_map == {}

    def test_degrees_and_edge_count(self):
        g = Multigraph(4, base=1, mult_map={(0, 1): 3})
        assert g.degrees() == [5, 5, 3, 3]
        assert g.edge_count() == 8
        g.validate()

    @pytest.mark.parametrize("a, b", [
        (complete(3, 1), Multigraph(3, 0, {(0, 1): 1, (0, 2): 1, (1, 2): 1})),
        (Multigraph(4, 2, {(0, 1): 5, (2, 3): 0}),
         Multigraph(4, 0, {(0, 1): 5, (0, 2): 2, (0, 3): 2, (1, 2): 2, (1, 3): 2})),
        (Multigraph(2, 7, {(0, 1): 0}), Multigraph(2)),
    ])
    def test_equal_graphs_hash_equal_across_bases(self, a, b):
        # equality compares the graphs, not their base, so the hash must too
        assert a.base != b.base and a == b
        assert hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("mult_map", [{(1, 0): 2, (0, 1): 3}, {(0, 1): 3, (1, 0): 2}])
    def test_rejects_pair_in_both_orientations(self, mult_map):
        with pytest.raises(InvalidParameterError, match="both orientations"):
            Multigraph(3, mult_map=mult_map)

    def test_rejects_loops_and_negatives(self):
        with pytest.raises(InvalidParameterError):
            Multigraph(3, mult_map={(1, 1): 1})
        with pytest.raises(InvalidParameterError):
            Multigraph(3, mult_map={(0, 1): -1})
        with pytest.raises(InvalidParameterError):
            Multigraph(3, mult_map={(0, 5): 1})

    def test_semantic_equality_across_bases(self):
        dense = {(u, v): 2 for u in range(3) for v in range(u + 1, 3)}
        assert Multigraph(3, base=2) == Multigraph(3, base=0, mult_map=dense)

    def test_max_mult(self):
        assert complete(5, 3).max_mult() == 3
        assert Multigraph(5, mult_map={(0, 1): 7}).max_mult() == 7

    def test_degrees_returns_a_fresh_list(self):
        g = Multigraph(4, base=1, mult_map={(0, 1): 3})
        first = g.degrees()
        first[0] = 99
        first.append(7)
        assert g.degrees() == [5, 5, 3, 3]
        assert g.degree(0) == 5 and g.active_vertices() == [0, 1, 2, 3]
        with pytest.raises(InvalidParameterError):
            g.degree(-1)

    @given(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda p: p[0] != p[1]),
            st.integers(min_value=0, max_value=5),
            max_size=12,
        ),
    )
    def test_invariants_match_a_recount(self, n, base, raw):
        # pairs may come in either orientation; the kept invariants must
        # agree with a count over every pair.  A pair listed in both
        # orientations is refused
        mults = {p: m for p, m in raw.items() if max(p) < n}
        if any((v, u) in mults for u, v in mults):
            with pytest.raises(InvalidParameterError):
                Multigraph(n, base=base, mult_map=mults)
            return
        g = Multigraph(n, base=base, mult_map=mults)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert g.degrees() == [sum(g.mult(x, y) for y in range(n)) for x in range(n)]
        assert g.edge_count() == sum(g.mult(u, v) for u, v in pairs)
        assert g.max_mult() == max((g.mult(u, v) for u, v in pairs), default=0)
        # the degree identity holds for every graph that builds, which is
        # why no builder calls validate()
        assert sum(g.degrees()) == 2 * g.edge_count()
        g.validate()

    @settings(max_examples=300)
    @given(graph_maps())
    def test_normalisation_matches_the_reference_rebuild(self, case):
        n, base, mults = case

        def outcome(build):
            try:
                return "built", list(build(n, base, mults).items())
            except InvalidParameterError as exc:
                return "refused", str(exc)

        got = outcome(lambda n, base, m: Multigraph(n, base=base, mult_map=m).mult_map)
        assert got == outcome(_reference_normalise)

    @pytest.mark.parametrize("mults", [
        {(0.5, 1.5): 2},
        {(1.5, 0.5): 2},
        {(0, 1): 2.5},
        {(1, 0): 2.5},
        {(0, 1): True},
        {(0, 1): 2, (0, 2): 2.0},
        {(True, 2): 1},
        {(0, True): 1},
        {(2, True): 1},
    ], ids=["float-labels", "float-labels-reversed", "float-mult",
            "float-mult-reversed", "bool-mult", "float-equal-to-an-int",
            "bool-label", "bool-label-second", "bool-label-reversed"])
    def test_refuses_non_integer_labels_and_multiplicities(self, mults):
        with pytest.raises(InvalidParameterError):
            Multigraph(3, mult_map=mults)

    @pytest.mark.parametrize("base, mults", [
        (0, {(0, 1): 1, (0, 2): True}),
        (0, {(1, 0): 1, (0, 2): True}),
        (0, {(0, 1): True, (0, 2): 1}),
        (1, {(0, 1): 0, (0, 2): False}),
        (1, {(1, 0): 0, (0, 2): False}),
        (2, {(0, 1): False, (1, 2): 3}),
    ], ids=["int-first", "int-first-rebuilt", "bool-first", "false-after-zero",
            "false-after-zero-rebuilt", "false-alone"])
    def test_refuses_a_bool_behind_an_int_of_the_same_value(self, base, mults):
        # a set of the distinct multiplicities keeps only the first of 1
        # and True, so the bool is found by a scan of the types; a reversed
        # pair sends the map through the rebuild first
        with pytest.raises(InvalidParameterError, match="integers"):
            Multigraph(3, base=base, mult_map=mults)

    @pytest.mark.parametrize("kwargs", [
        {"n": 3, "mult_map": {(1, 0): "x"}},
        {"n": 3, "mult_map": {(0, 1): "x"}},
        {"n": 3, "mult_map": {(1, "a"): 1}},
        {"n": 3, "mult_map": {(0, 1, 2): 1}},
        {"n": 3, "mult_map": {5: 1}},
        {"n": 3.0},
        {"n": True},
        {"n": "3"},
        {"n": 3, "base": 1.5},
        {"n": 3, "base": 1.0},
        {"n": 3, "base": True},
    ], ids=["str-mult-rebuilt", "str-mult", "str-label", "triple-key", "int-key",
            "float-n", "bool-n", "str-n", "float-base", "float-base-equal-to-an-int",
            "bool-base"])
    def test_refuses_non_integer_input_with_its_own_error(self, kwargs):
        # these used to escape as TypeError or ValueError
        with pytest.raises(InvalidParameterError):
            Multigraph(**kwargs)

    @settings(max_examples=300)
    @given(
        st.integers(0, 6),
        st.integers(0, 2),
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
            st.one_of(st.integers(0, 3), st.booleans()),
            max_size=10,
        ),
    )
    def test_every_graph_that_builds_round_trips_through_json(self, n, base, raw):
        # either normalisation path (a reversed pair takes the rebuild);
        # an entry at base is dropped, a bool kept is refused, and a graph
        # that builds must come back equal from its own JSON
        mults = {p: m for p, m in raw.items() if max(p) < n and (p[1], p[0]) not in raw}
        kept_bool = any(type(m) is bool and m != base for m in mults.values())
        try:
            g = Multigraph(n, base=base, mult_map=mults)
        except InvalidParameterError:
            assert kept_bool
            return
        assert not kept_bool
        assert all(type(m) is int for m in g.mult_map.values())
        text = jsonio.dumps(jsonio.multigraph_to_dict(g))
        assert jsonio.multigraph_from_dict(json.loads(text)) == g

    def test_canonical_map_is_copied(self):
        mults = {(0, 1): 3, (1, 2): 0}
        g = Multigraph(3, base=1, mult_map=mults)
        mults[(0, 2)] = 5
        assert g.mult_map == {(0, 1): 3, (1, 2): 0} and g.mult(0, 2) == 1


class TestBuilders:
    def test_complete(self):
        g = complete(6, 2)
        assert g.edge_count() == 30
        assert all(d == 10 for d in g.degrees())

    def test_disjoint_union_pads(self):
        g = disjoint_union([complete(3, 1), complete(4, 1)], pad_to_n=10)
        assert g.n == 10
        assert g.degree(9) == 0
        assert g.edge_count() == 3 + 6
        assert g.mult(0, 1) == 1 and g.mult(3, 4) == 1 and g.mult(2, 3) == 0

    @pytest.mark.parametrize("build", [
        lambda: complete(6, 2),
        lambda: disjoint_union([complete(3, 1), complete(4, 1)], pad_to_n=10),
        lambda: gadget_multigraph(2, 3, 2),
        lambda: construct_r_leave(9, 5),
    ], ids=["complete", "disjoint_union", "gadget_multigraph", "construct_r_leave"])
    def test_builders_do_not_call_validate(self, monkeypatch, build):
        # validate() cannot fail on a graph that builds (its degree identity
        # holds by construction), so no builder pays for it
        def refuse(self):
            raise AssertionError("validate() called")

        monkeypatch.setattr(Multigraph, "validate", refuse)
        assert build() is not None

    def test_disjoint_union_too_small(self):
        with pytest.raises(InvalidParameterError):
            disjoint_union([complete(3, 1), complete(4, 1)], pad_to_n=6)

    def test_q2_divisible(self):
        assert is_q2_divisible(complete(7, 1), 3)
        assert not is_q2_divisible(complete(6, 1), 3)


class TestDegreeSequences:
    def test_known_feasible(self):
        assert erdos_gallai_feasible([3, 3, 3, 3])
        assert erdos_gallai_feasible([2, 2, 2])
        assert not erdos_gallai_feasible([3, 1])        # exceeds n-1
        assert not erdos_gallai_feasible([1, 1, 1])     # odd sum
        assert not erdos_gallai_feasible([4, 0, 0, 0, 0])

    def test_realization_exact_degrees(self):
        seq = [3, 3, 2, 2, 1, 1]
        g = realize_degree_sequence(seq)
        assert g.degrees() == seq
        assert g.max_mult() <= 1

    def test_realization_raises_on_infeasible(self):
        with pytest.raises(InfeasibleSequenceError):
            realize_degree_sequence([5, 1, 0, 0, 0, 0])

    @settings(max_examples=200)
    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=13))
    def test_realize_iff_erdos_gallai(self, seq):
        feasible = erdos_gallai_feasible(seq)
        try:
            g = realize_degree_sequence(seq)
            assert feasible
            assert g.degrees() == seq
            assert g.max_mult() <= 1
        except InfeasibleSequenceError:
            assert not feasible

    @settings(max_examples=300)
    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=11))
    def test_havel_hakimi_raises_iff_erdos_gallai_refuses(self, seq):
        try:
            pairs = _havel_hakimi(seq)
        except InfeasibleSequenceError:
            assert not erdos_gallai_feasible(seq)
            return
        assert erdos_gallai_feasible(seq)
        assert len(set(pairs)) == len(pairs)
        degrees = [0] * len(seq)
        for u, v in pairs:
            assert 0 <= u < v < len(seq)
            degrees[u] += 1
            degrees[v] += 1
        assert degrees == seq

    def test_realization_refuses_negative_degrees(self):
        with pytest.raises(InfeasibleSequenceError):
            realize_degree_sequence([-1, 1, 0])

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=14), st.data())
    def test_havel_hakimi_matches_the_reference_on_graphic_sequences(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        seq = [0] * n
        for (u, v), kept in zip(pairs, keep):
            seq[u] += kept
            seq[v] += kept
        assert _havel_hakimi(seq) == _reference_havel_hakimi(seq)

    @given(st.lists(st.integers(min_value=0, max_value=12), max_size=13))
    def test_havel_hakimi_matches_the_reference_on_any_sequence(self, seq):
        def outcome(realize):
            try:
                return realize(seq)
            except InfeasibleSequenceError as exc:
                return str(exc)

        assert outcome(_havel_hakimi) == outcome(_reference_havel_hakimi)

    @pytest.mark.parametrize("k", range(5, 10))
    def test_havel_hakimi_matches_the_reference_on_r_case_sequences(self, k):
        # [gamma0, gamma^(n-1)] of every r-case residue class that realizes
        # it (not the gamma = 0 excess), at its smallest graphic n > k
        period = k * (k - 1) * (k - 2)
        checked = 0
        for c in range(period):
            n = c if c > k else c + period
            label, data = classify(n, k)
            if label is not CaseLabel.R_NONZERO or (data.gamma == 0 and data.gamma0 > 0):
                continue
            while True:
                data = classify(n, k)[1]
                seq = [data.gamma0] + [data.gamma] * (n - 1)
                if erdos_gallai_feasible(seq):
                    break
                n += period
            assert _havel_hakimi(seq) == _reference_havel_hakimi(seq), (n, k)
            checked += 1
        assert checked > period // 2

    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=6))
    def test_regular_sequences(self, n, d):
        seq = [d] * n
        feasible = d <= n - 1 and n * d % 2 == 0
        assert erdos_gallai_feasible(seq) == feasible


class TestLeaveConditions:
    def test_empty_leave_of_design(self):
        # (8, 4) is a design: the empty graph certifies xi = J
        from triplepack.params import johnson_bound

        g = Multigraph(8)
        rep = check_leave_conditions(g, 8, 4, johnson_bound(8, 4, 3), sigma=0)
        assert rep.all_pass()

    def test_each_condition_fails_independently(self):
        from triplepack.params import johnson_bound

        xi = johnson_bound(8, 4, 3)
        bad_edges = Multigraph(8, mult_map={(0, 1): 2})
        rep = check_leave_conditions(bad_edges, 8, 4, xi, sigma=10)
        assert not rep.edge_total
        rep2 = check_leave_conditions(Multigraph(8), 8, 4, xi - 1, sigma=0)
        assert not rep2.edge_total and rep2.degrees and rep2.mults

    def test_mult_cap(self):
        g = Multigraph(6, mult_map={(0, 1): 4})
        rep = check_leave_conditions(g, 6, 4, 0, sigma=3)
        assert not rep.mult_cap
        rep = check_leave_conditions(g, 6, 4, 0, sigma=4)
        assert rep.mult_cap

    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_leave_conditions(Multigraph(5), 6, 4, 0, sigma=0)
