"""State evolution recursions, fixed points and potentials."""

import numpy as np
import pytest

import stoloc as sl
from stoloc.errors import NoConvergence, NonpositiveGamma, SubcriticalBeta


def bisect_fixed_point(prior, beta, t, lo, hi, tol=1e-12):
    """Bisection oracle for gamma = beta^2 (1 - mmse(gamma)) + t."""
    f = lambda g: beta ** 2 * (1.0 - sl.mmse(prior, g)) + t - g
    flo, fhi = f(lo), f(hi)
    assert flo > 0 > fhi, "bracket must straddle the fixed point"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSpikedSE:
    def test_initial_gamma(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 2.0, 0.0, 5)
        assert tr.gammas[0] == pytest.approx(3.0)

    def test_monotone_and_bounded(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 2.0, 0.5, 30)
        assert np.all(np.diff(tr.gammas) >= -1e-12)
        assert np.all(tr.gammas <= tr.gamma_star + 1e-9)

    def test_onsager_nonincreasing(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 2.0, 0.0, 20)
        assert np.all(np.diff(tr.onsager) <= 1e-12)

    def test_fixed_point_matches_bisection(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 2.0, 0.0, 5)
        oracle = bisect_fixed_point(rademacher, 2.0, 0.0, 3.0, 16.0)
        assert abs(tr.gamma_star - oracle) <= 1e-9

    def test_subcritical_raises(self, rademacher):
        with pytest.raises(SubcriticalBeta):
            sl.run_se_spiked(rademacher, 1.0, 0.0, 3)

    def test_subcritical_allowed_starts_at_zero(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 0.5, 0.0, 3,
                              allow_subcritical=True)
        assert tr.gammas[0] == 0.0

    def test_gamma_star_above_beta2_minus_1(self, rademacher, three_point):
        for p in (rademacher, three_point):
            tr = sl.run_se_spiked(p, 4.0, 0.0, 1)
            assert tr.gamma_star >= 16.0 - 1.0

    def test_q_range_and_monotonicity(self, rademacher):
        qs_t = [sl.run_se_spiked(rademacher, 2.0, t, 1).q
                for t in (0.0, 0.5, 1.0, 2.0)]
        qs_b = [sl.run_se_spiked(rademacher, b, 0.0, 1).q
                for b in (1.5, 2.0, 3.0, 4.0)]
        for qs in (qs_t, qs_b):
            assert all(0.0 <= q <= 1.0 for q in qs)
            assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))

    def test_fixed_point_budget_exhausted_raises(self, monkeypatch):
        # a fresh prior, so no cached fixed point answers the call
        prior = sl.Prior.discrete([-1.0, 1.0], [0.5, 0.5])
        monkeypatch.setattr(sl.se, "FIXED_POINT_MAX_STEPS", 1)
        with pytest.raises(NoConvergence):
            sl.run_se_spiked(prior, 2.0, 0.0, 3)

    def test_fixed_point_distance_near_threshold(self):
        # at beta = 1.02 the recursion contracts by r ~ 0.96 per step, so a
        # step of 1e-12 still leaves ~ r/(1-r) * 1e-12 to go; the distance
        # bound keeps iterating until that is below FIXED_POINT_TOL
        beta, tol = 1.02, sl.se.FIXED_POINT_TOL
        prior = sl.Prior.discrete([-1.0, 1.0], [0.5, 0.5])
        ref = bisect_fixed_point(prior, beta, 0.0, 0.02, 1.0, tol=1e-16)
        g = beta ** 2 - 1.0
        while True:         # the step test |g_{k+1} - g_k| <= 1e-12
            g_next = beta ** 2 * (1.0 - sl.mmse(prior, g))
            if abs(g_next - g) <= tol:
                break
            g = g_next
        assert abs(g_next - ref) > 10 * tol
        # the bound uses the observed ratio, an estimate of the true one
        assert abs(sl.run_se_spiked(prior, beta, 0.0, 1).gamma_star
                   - ref) <= 2 * tol


class TestAmpDepth:
    def test_first_k_within_rtol_of_fixed_point(self, rademacher):
        for beta in (1.5, 2.0, 3.0):
            for t in (1e-12, 0.5, 2.0, 10.0):
                tr = sl.run_se_spiked(rademacher, beta, t, 15)
                k = sl.se.amp_depth(rademacher, beta, t, 15)
                gap = np.abs(tr.gammas - tr.gamma_star) / tr.gamma_star
                assert 0 <= k <= 15
                if k < 15:
                    assert gap[k] <= sl.se.AMP_SE_RTOL
                assert np.all(gap[:k] > sl.se.AMP_SE_RTOL)

    def test_cap_binds(self, rademacher):
        # beta = 2, t = 0 needs 11 iterations to reach 1e-8
        assert sl.se.amp_depth(rademacher, 2.0, 0.0, 15) == 11
        for K in (0, 1, 5, 11):
            assert sl.se.amp_depth(rademacher, 2.0, 0.0, K) == K

    def test_subcritical_runs_to_cap(self, rademacher):
        for t in (1e-12, 1.0):
            assert sl.se.amp_depth(rademacher, 0.8, t, 7) == 7


class TestPhiSpiked:
    def test_reduces_to_mutual_info_at_t(self, rademacher):
        t = 1.3
        assert sl.phi_spiked(rademacher, t, 2.0, t) == pytest.approx(
            sl.mutual_info(rademacher, t))

    def test_stationary_at_fixed_point(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 2.0, 0.4, 1)
        g, h = tr.gamma_star, 1e-4
        fd = (sl.phi_spiked(rademacher, g + h, 2.0, 0.4)
              - sl.phi_spiked(rademacher, g - h, 2.0, 0.4)) / (2 * h)
        assert abs(fd) <= 1e-6

    def test_eventually_increasing(self, rademacher):
        tr = sl.run_se_spiked(rademacher, 2.0, 0.0, 1)
        grid = tr.gamma_star + np.array([5.0, 10.0, 20.0, 40.0])
        vals = [sl.phi_spiked(rademacher, g, 2.0, 0.0) for g in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLinearSE:
    def test_unrolled_first_step(self, three_point):
        tr = sl.run_se_linear(three_point, 20.0, 0.25, 0.7, 3)
        expected = sl.mmse(three_point, 20.0 / (0.25 + 1.0) + 0.7)
        assert tr.Es[1] == pytest.approx(expected)

    def test_large_t_kills_error(self, three_point):
        tr = sl.run_se_linear(three_point, 2.0, 1.0, 1e6, 3)
        assert tr.Es[-1] <= 1e-5

    def test_contraction_regime(self, three_point):
        tr = sl.run_se_linear(three_point, 20.0, 0.25, 0.0, 12)
        bound = np.abs(1.0 - tr.E_star) / 2.0 ** (np.arange(13) + 1)
        assert np.all(np.abs(tr.Es[1:] - tr.E_star) <= bound + 1e-15)

    def test_errors_in_unit_interval(self, three_point):
        tr = sl.run_se_linear(three_point, 1.0, 2.0, 0.0, 25)
        assert np.all(tr.Es >= 0.0) and np.all(tr.Es <= 1.0)

    def test_onsager_definitions(self, three_point):
        tr = sl.run_se_linear(three_point, 5.0, 0.5, 0.0, 4)
        np.testing.assert_allclose(
            tr.onsager_xi, -5.0 * 0.5 / (0.5 + tr.Es[1:]))
        np.testing.assert_allclose(tr.onsager_eta, tr.Es[1:] / 0.5)

    def test_fixed_point_budget_exhausted_raises(self, monkeypatch):
        prior = sl.Prior.discrete([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25],
                                  normalize=True)
        monkeypatch.setattr(sl.se, "FIXED_POINT_MAX_STEPS", 1)
        with pytest.raises(NoConvergence):
            sl.run_se_linear(prior, 2.0, 0.25, 0.0, 3)


class TestPhiLinear:
    def test_derivative_vanishes_at_fixed_point(self, three_point):
        delta, sigma2 = 20.0, 0.25
        tr = sl.run_se_linear(three_point, delta, sigma2, 0.0, 5)
        g_star = delta / (sigma2 + tr.E_star)
        h = 1e-3 * g_star
        fd = (sl.phi_linear(three_point, g_star + h, sigma2, delta)
              - sl.phi_linear(three_point, g_star - h, sigma2, delta)) / (2 * h)
        assert abs(fd) <= 1e-5

    def test_blows_up_at_origin(self, three_point):
        assert sl.phi_linear(three_point, 1e-8, 0.25, 20.0) > 100.0
        with pytest.raises(NonpositiveGamma):
            sl.phi_linear(three_point, 0.0, 0.25, 20.0)

    def test_convex_on_grid(self, three_point):
        grid = np.linspace(1.0, 100.0, 120)
        vals = np.array([sl.phi_linear(three_point, g, 0.25, 20.0)
                         for g in grid])
        assert np.all(np.diff(vals, 2) >= -1e-9)


class TestFixedPointScan:
    def test_single_minimizer_high_beta(self, rademacher):
        pot = lambda g: sl.phi_spiked(rademacher, g, 4.0, 0.0)
        scan = sl.fixed_point_scan(pot, np.linspace(0.5, 40.0, 400))
        assert len(scan.minimizers) == 1
        assert scan.first_stationary_is_global_min

    def test_quadratic_min_at_origin(self):
        grid = np.linspace(-1.0, 3.0, 81)
        scan = sl.fixed_point_scan(lambda g: g * g, grid)
        assert len(scan.minimizers) == 1
        assert abs(scan.minimizers[0]) <= grid[1] - grid[0]

    def test_double_well_two_minimizers(self):
        pot = lambda g: (g * g - 1.0) ** 2
        scan = sl.fixed_point_scan(pot, np.linspace(-2.0, 2.0, 401))
        assert len(scan.minimizers) == 2
        np.testing.assert_allclose(sorted(scan.minimizers), [-1.0, 1.0],
                                   atol=0.02)
