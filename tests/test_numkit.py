"""Log-space kernels against independent oracles (scipy, exact integers)."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpsketch import numkit as nk


class TestLogRisingFactorial:
    def test_small_integer_case(self):
        # 2*3*4 = 24
        assert math.isclose(nk.log_rising_factorial(2, 3), math.log(24), rel_tol=1e-14)

    def test_empty_product(self):
        assert nk.log_rising_factorial(0.5, 0) == 0.0

    def test_half_base(self):
        # 0.5 * 1.5 = 0.75
        assert math.isclose(nk.log_rising_factorial(0.5, 2), math.log(0.75), rel_tol=1e-14)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(nk.DomainError):
            nk.log_rising_factorial(0.0, 2)
        with pytest.raises(nk.DomainError):
            nk.log_rising_factorial(-1.5, 2)

    def test_product_and_lgamma_branches_agree(self):
        for a in (0.3, 2.0, 117.0):
            direct = sum(math.log(a + i) for i in range(40))
            assert math.isclose(nk.log_rising_factorial(a, 40), direct, rel_tol=1e-12)

    def test_prefix_matches_scalar(self):
        pre = nk.log_rising_factorial_prefix(0.7, 25)
        for u in range(26):
            assert math.isclose(pre[u], nk.log_rising_factorial(0.7, u), rel_tol=0, abs_tol=1e-10)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert abs(nk.digamma(1.0) + nk.EULER_GAMMA) < 1e-10

    def test_recurrence_shift(self):
        assert abs(nk.digamma(2.0) - (1.0 - nk.EULER_GAMMA)) < 1e-10

    def test_pole_at_zero(self):
        with pytest.raises(nk.DomainError):
            nk.digamma(0.0)
        with pytest.raises(nk.DomainError):
            nk.digamma(-3.0 + 1e-13)

    def test_against_scipy(self):
        xs = np.concatenate(
            [np.linspace(0.05, 50, 789), [-0.5, -1.7, -12.3, 1e4, 123456.0]]
        )
        for x in xs:
            assert abs(nk.digamma(x) - sp.digamma(x)) < 1e-10, x

    def test_recurrence_property(self):
        for x in np.linspace(0.1, 100, 313):
            assert abs(nk.digamma(x + 1) - nk.digamma(x) - 1.0 / x) < 1e-10


class TestLogGamma:
    XS = np.concatenate(
        [
            np.geomspace(1e-3, 2.0**63, 2000),
            np.linspace(1e-3, 12.0, 1201),
            np.arange(1.0, 5001.0),
            0.5 + np.arange(3000.0),
            [2.0**62, 2.0**63],
        ]
    )

    @pytest.mark.parametrize(
        "reference", [sp.gammaln, np.vectorize(math.lgamma)], ids=["scipy", "math"]
    )
    def test_against_references(self, reference):
        got, want = nk.log_gamma(self.XS), reference(self.XS)
        # from x = 7 the Stirling series applies directly; below it the
        # upward recurrence subtracts log x(x+1)..., an absolute error, which
        # is also the only meaningful measure at the roots x = 1 and x = 2
        stirling = self.XS >= 7.0
        np.testing.assert_allclose(got[stirling], want[stirling], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(got[~stirling], want[~stirling], rtol=0.0, atol=8e-15)

    def test_scalars(self):
        for x in (1e-3, 0.5, 1.0, 2.0, 7.0, 123.25, 2.0**63):
            got = nk.log_gamma(x)
            assert isinstance(got, float)
            assert math.isclose(got, math.lgamma(x), rel_tol=1e-15, abs_tol=8e-15), x

    def test_value_independent_of_neighbours(self):
        # tables built by log_gamma are read in place of direct evaluations
        perm = np.random.default_rng(3).permutation(self.XS.size)
        table = nk.log_gamma(self.XS)
        assert np.array_equal(nk.log_gamma(self.XS[perm]), table[perm])
        assert all(nk.log_gamma(x) == t for x, t in zip(self.XS[::97], table[::97]))

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.5, [1.0, 0.0]):
            with pytest.raises(nk.DomainError):
                nk.log_gamma(bad)


class TestGfc:
    def test_direct_known_values(self):
        assert math.isclose(nk.gfc_direct(2, 2, 0.5), 0.25, rel_tol=1e-12)
        assert nk.gfc_direct(3, 0, 0.3) == 0.0
        assert nk.gfc_direct(0, 0, 0.3) == 1.0

    def test_direct_refuses_large_order(self):
        with pytest.raises(nk.DomainError):
            nk.gfc_direct(21, 3, 0.5)

    def test_row_small_orders(self):
        row1 = nk.GfcTable(0.5).row(1)
        assert row1[0] == -np.inf
        assert math.isclose(math.exp(row1[1]), 0.5, rel_tol=1e-12)
        row2 = nk.GfcTable(0.5).row(2)
        np.testing.assert_allclose(np.exp(row2[1:]), [0.25, 0.25], rtol=1e-12)

    def test_row_matches_direct(self):
        for alpha in (0.1, 0.5, 0.9):
            for u in range(13):
                row = np.exp(nk.GfcTable(alpha).row(u))
                for v in range(u + 1):
                    want = nk.gfc_direct(u, v, alpha)
                    assert abs(row[v] - want) <= 1e-9 * max(abs(want), 1e-300), (u, v, alpha)

    def test_defining_identity(self):
        # expanding the scaled rising factorial in the rising-factorial basis
        for alpha in (0.2, 0.6):
            for u in range(11):
                row = np.exp(nk.GfcTable(alpha).row(u))
                for t in (0.5, 1.0, 2.5):
                    lhs = sum(
                        row[v] * math.exp(nk.log_rising_factorial(t, v)) for v in range(u + 1)
                    )
                    rhs = math.exp(nk.log_rising_factorial(alpha * t, u))
                    assert math.isclose(lhs, rhs, rel_tol=1e-9), (alpha, u, t)

    def test_small_discount_limit_is_stirling(self):
        alpha = 1e-6
        for u in range(1, 11):
            row = nk.GfcTable(alpha).row(u)
            for v in range(1, u + 1):
                scaled = math.exp(row[v] - v * math.log(alpha))
                want = nk.stirling_signless(u, v)
                assert math.isclose(scaled, want, rel_tol=1e-4), (u, v)

    def test_alpha_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(nk.DomainError):
                nk.GfcTable(bad).row(3)

    def test_table_matches_single_rows(self):
        # rows read back from a grown table equal rows of a fresh table
        table = nk.GfcTable(0.37)
        table.row(11)
        for u in (0, 1, 5, 11):
            np.testing.assert_allclose(
                table.row(u), nk.GfcTable(0.37).row(u), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_cut_rows_equal_whole_rows_bit_for_bit(self, alpha):
        # entry v of row u + 1 reads entries v - 1 and v of row u only
        table = nk.GfcTable(alpha)
        for cols in (1, 2, 17, 257, 300, 301, 400):
            cut = nk._gfc_rows(alpha, 300, cols)
            assert cut.shape == (301, cols)
            for u, got in enumerate(cut):
                want = np.full(cols, -np.inf)
                want[: u + 1] = table.row(u)[:cols]
                assert np.array_equal(got, want), (cols, u)


class TestStirling:
    def test_known_values(self):
        # t(t+1)(t+2) = t^3 + 3 t^2 + 2 t
        assert nk.stirling_signless(3, 2) == 3
        assert nk.stirling_signless(3, 1) == 2
        for u in range(8):
            assert nk.stirling_signless(u, u) == 1
        for u in range(1, 8):
            assert nk.stirling_signless(u, 0) == 0

    def test_defining_identity_exact(self):
        for u in range(16):
            for t in range(1, 6):
                rising = 1
                for i in range(u):
                    rising *= t + i
                total = sum(nk.stirling_signless(u, v) * t**v for v in range(u + 1))
                assert total == rising, (u, t)

    def test_bound(self):
        with pytest.raises(nk.DomainError):
            nk.stirling_signless(61, 3)

    def test_log_row_matches_exact(self):
        for u in (1, 7, 30):
            row = nk.stirling_row_log(u)
            for v in range(1, u + 1):
                want = math.log(nk.stirling_signless(u, v))
                assert math.isclose(row[v], want, rel_tol=1e-12), (u, v)


class TestLogSumExp:
    def test_examples(self):
        assert math.isclose(nk.logsumexp([0.0, 0.0]), math.log(2.0), rel_tol=1e-15)
        assert nk.logsumexp([-np.inf]) == -np.inf
        assert nk.logsumexp([]) == -np.inf
        assert math.isclose(
            nk.logsumexp([math.log(3), math.log(7)]), math.log(10), rel_tol=1e-14
        )

    def test_non_finite_maxima(self):
        assert nk.logsumexp([-np.inf, -np.inf]) == -np.inf
        assert nk.logsumexp([1.0, np.inf, -np.inf]) == np.inf
        assert nk.logsumexp(np.empty((3, 0)), axis=1).tolist() == [-np.inf] * 3
        got = nk.logsumexp([[-np.inf, 0.0], [-np.inf, np.inf]], axis=0)
        assert got.tolist() == [-np.inf, np.inf]
        assert isinstance(nk.logsumexp([0.5, 1.5]), float)

    def test_axis_equals_one_dimensional_calls(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=30.0, size=(17, 11))
        a[2] = -np.inf
        a[4, 3] = -np.inf
        a[5, 6] = np.inf
        # along the last axis each slice is summed as a 1-D call sums it, bit for bit
        assert nk.logsumexp(a, axis=1).tolist() == [nk.logsumexp(row) for row in a]
        # along axis 0 numpy adds the rows in turn, not pairwise: equal to rounding
        want = [nk.logsumexp(col) for col in a.T]
        np.testing.assert_allclose(nk.logsumexp(a, axis=0), want, rtol=1e-14)
        assert nk.logsumexp(a, axis=0)[6] == np.inf


class TestLogConvolve:
    def test_identity_element(self):
        out = nk.log_convolve([0.0], np.log([1.0, 2.0]))
        np.testing.assert_allclose(np.exp(out), [1.0, 2.0], rtol=1e-14)

    def test_binomial(self):
        out = nk.log_convolve(np.log([1.0, 1.0]), np.log([1.0, 1.0]))
        np.testing.assert_allclose(np.exp(out), [1.0, 2.0, 1.0], rtol=1e-14)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12),
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_space(self, a, b):
        out = np.exp(nk.log_convolve(np.log(a), np.log(b)))
        want = np.convolve(a, b)
        np.testing.assert_allclose(out, want, rtol=1e-12)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_associative_commutative(self, a, b, c):
        la, lb, lc = np.log(a), np.log(b), np.log(c)
        ab_c = nk.log_convolve(nk.log_convolve(la, lb), lc)
        a_bc = nk.log_convolve(la, nk.log_convolve(lb, lc))
        np.testing.assert_allclose(ab_c, a_bc, rtol=1e-12)
        np.testing.assert_allclose(
            nk.log_convolve(la, lb), nk.log_convolve(lb, la), rtol=1e-12
        )

    def test_underflow_entries_stay_exact(self):
        # entries far below the max must not be flushed to -inf
        a = np.array([0.0, -800.0])
        b = np.array([0.0, -800.0])
        out = nk.log_convolve(a, b)
        np.testing.assert_allclose(out, [0.0, math.log(2) - 800.0, -1600.0], atol=1e-12)

    def test_correlate_valid_mode(self):
        out = np.exp(nk.log_correlate(np.log([1.0, 2.0]), np.log([1.0, 1.0, 1.0])))
        np.testing.assert_allclose(out, [3.0, 3.0], rtol=1e-14)
        # the loop runs over a when the output is at least as long, else over
        # the output; zeros (log -inf) may sit anywhere in either input
        rng = np.random.default_rng(5)
        for na, nb in [(1, 1), (2, 7), (4, 7), (5, 7), (7, 7), (30, 33)]:
            a, b = rng.random(na), rng.random(nb)
            a[na // 2] = 0.0
            b[0] = b[-1] = 0.0
            with np.errstate(divide="ignore"):
                got = np.exp(nk.log_correlate(np.log(a), np.log(b)))
            np.testing.assert_allclose(got, np.correlate(b, a, "valid"), rtol=1e-13, atol=0)
        inf = -np.inf
        np.testing.assert_array_equal(nk.log_correlate([inf, 0.0], [inf, inf, 0.0]), [inf, 0.0])
        np.testing.assert_array_equal(
            nk.log_correlate([0.0, inf, 0.0], [inf, inf, 0.0, inf]), [0.0, inf]
        )
