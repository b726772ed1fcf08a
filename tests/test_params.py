"""Bound formulas and the residue trichotomy."""

import pytest
from hypothesis import given, strategies as st

from triplepack.errors import InvalidParameterError
from triplepack.leave import achieved_lower_bound
from triplepack.params import (
    CaseLabel,
    classify,
    j_prime,
    johnson_bound,
    packing_number_k4,
    upper_bound,
)


class TestJohnsonBound:
    def test_small_values(self):
        # J(7,3,2) = floor(7/3 * floor(6/2)) = 7 (the Fano plane size)
        assert johnson_bound(7, 3, 2) == 7
        assert johnson_bound(9, 3, 2) == 12
        assert johnson_bound(13, 4, 3) == 65

    def test_t1_is_floor(self):
        assert johnson_bound(10, 3, 1) == 3

    def test_degenerate(self):
        assert johnson_bound(4, 4, 3) == 1

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            johnson_bound(3, 4, 3)

    @given(
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=3, max_value=10),
    )
    def test_monotone_in_n(self, n, k):
        if n < k:
            n, k = k, n
        if n == k:
            n += 1
        assert johnson_bound(n + 1, k, 3) >= johnson_bound(n, k, 3)


class TestJPrime:
    def test_frozen_values(self):
        # j_prime(k+1, k) is 1 at k = 4 and 0 from k = 5 on
        assert j_prime(5, 4) == 1
        assert j_prime(6, 5) == 0
        assert j_prime(7, 6) == 0

    def test_below_johnson(self):
        for n in range(10, 60):
            for k in (4, 5, 6):
                if (n - 2) % (k - 2) == 0:
                    assert j_prime(n, k) <= johnson_bound(n, k, 3)


class TestClosedFormulas:
    def test_k4_agrees_with_johnson_off_residue(self):
        for n in range(4, 40):
            if n % 6 != 0:
                assert packing_number_k4(n) == johnson_bound(n, 4, 3)
            else:
                assert packing_number_k4(n) < johnson_bound(n, 4, 3)
                assert packing_number_k4(n) == n * ((n - 1) * (n - 2) // 6 - 1) // 4

    def test_k4_frozen(self):
        assert [packing_number_k4(n) for n in range(4, 11)] == [
            1, 1, 3, 7, 14, 18, 30,
        ]


class TestClassify:
    def test_design(self):
        # (8,4): 6 % 2 = 0, 42 % 6 = 0, 336 % 24 = 0 -> all residues vanish
        label, data = classify(8, 4)
        assert label is CaseLabel.DESIGN
        assert data.q_beta == 0

    def test_q_nonzero_14_5(self):
        label, data = classify(14, 5)
        assert label is CaseLabel.Q_NONZERO
        assert data.r == 0
        assert data.q_beta == 2

    def test_r_nonzero_9_5(self):
        label, data = classify(9, 5)
        assert label is CaseLabel.R_NONZERO
        assert data.r == 1
        assert data.gamma == 0 and data.gamma0 == 4

    def test_p_nonzero_11_5(self):
        label, data = classify(11, 5)
        assert label is CaseLabel.P_NONZERO
        assert data.p is not None and data.p > 0

    @given(
        st.integers(min_value=5, max_value=400),
        st.integers(min_value=4, max_value=12),
    )
    def test_residue_consistency(self, n, k):
        if n <= k:
            n = k + 1 + n
        label, data = classify(n, k)
        r = (n - 2) % (k - 2)
        if r != 0:
            assert label is CaseLabel.R_NONZERO
            assert data.r == r
            # gamma0 - gamma relates the degrees to the total edge excess
            assert data.gamma0 >= data.gamma >= 0
        elif (n - 1) * (n - 2) % ((k - 1) * (k - 2)) != 0:
            assert label is CaseLabel.P_NONZERO
            assert 1 <= data.p
        else:
            assert label in (CaseLabel.DESIGN, CaseLabel.Q_NONZERO)
            assert (data.q_beta == 0) == (label is CaseLabel.DESIGN)
            assert 0 <= data.q_beta < k
            if k % 2 == 0:
                assert data.q_beta % 2 == 0
            if k % 3 == 0:
                assert data.q_beta % 3 == 0


class TestUpperBound:
    def test_cases(self):
        # r != 0: J - 1 in the subclass gamma = 0, gamma0 = k - 1 (D(9,5,3)
        # = 3), J outside it
        assert upper_bound(9, 5) == johnson_bound(9, 5, 3) - 1 == 6
        assert upper_bound(10, 5) == johnson_bound(10, 5, 3)
        assert upper_bound(14, 5) == johnson_bound(14, 5, 3) - 3
        assert upper_bound(11, 5) == j_prime(11, 5)

    def test_r_subclass_bound_is_attained(self):
        # gamma = 0, gamma0 = k - 1 occurs for k = 5, 7, 9; there the
        # R-case certificate gives up one block, and the bound meets it
        seen = set()
        for k in (5, 7, 9):
            for n in range(k + 1, 600):
                label, data = classify(n, k)
                if label is CaseLabel.R_NONZERO and data.gamma == 0 and data.gamma0 == k - 1:
                    xi, _cert = achieved_lower_bound(n, k)
                    assert upper_bound(n, k) == xi == johnson_bound(n, k, 3) - 1, (n, k)
                    seen.add(k)
        assert seen == {5, 7, 9}

    def test_extra_reduction_needs_k_multiple_of_6(self):
        # find a qualifying (n, k): k = 12, p = 2
        k = 12
        for n in range(k + 1, 4000):
            if (n - 2) % (k - 2) != 0:
                continue
            alpha = (n - 1) * (n - 2) % ((k - 1) * (k - 2))
            if alpha == 2 * (k - 2):
                assert upper_bound(n, k) == j_prime(n, k) - n // (3 * k**3)
                return
        raise AssertionError("no qualifying n found")
