"""Priors and the scalar channel: denoisers, mmse, tilts, Legendre duals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stoloc as sl
from stoloc.errors import (
    DivergentIntegral,
    NumericalUnderflow,
    OutOfDomain,
    OutOfGamma,
    ZeroSecondMoment,
)

from conftest import mc_mmse


class TestPriorConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            sl.Prior.discrete([-1, 1], [0.5, 0.6])

    def test_atoms_strictly_increasing(self):
        with pytest.raises(ValueError):
            sl.Prior.discrete([1, -1], [0.5, 0.5])

    def test_at_least_two_atoms(self):
        with pytest.raises(ValueError):
            sl.Prior.discrete([1.0], [1.0])

    def test_symmetry_detection(self, rademacher, skewed_two_atom):
        assert rademacher.is_symmetric
        assert not skewed_two_atom.is_symmetric

    def test_continuous_symmetry(self, gaussian_mixture):
        assert gaussian_mixture.is_symmetric

    def test_continuous_second_derivative_bound_enforced(self):
        u = lambda x: 0.5 * np.asarray(x) ** 2
        d2u = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            sl.Prior.continuous(u, d2u=d2u, second_derivative_bound=0.5,
                                quadrature_range=8.0)

    def test_from_config_discrete_roundtrip(self):
        cfg = {"type": "discrete", "atoms": [-1.0, 1.0],
               "weights": [0.5, 0.5], "normalize": False}
        p = sl.Prior.from_config(cfg)
        assert p.to_config()["atoms"] == [-1.0, 1.0]

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            sl.Prior.from_config({"type": "discrete", "atoms": [-1, 1],
                                  "weights": [0.5, 0.5], "junk": 1})

    def test_unnormalized_second_moment_preserved(self):
        p = sl.Prior.discrete([-2.0, 1.1], [0.3, 0.7])
        assert p.second_moment == pytest.approx(0.3 * 4 + 0.7 * 1.21)


class TestNormalize:
    def test_rademacher_unchanged(self, rademacher):
        q = sl.normalize_unit_second_moment(rademacher)
        np.testing.assert_allclose(q.atoms, [-1, 1])

    def test_two_point_rescaling(self):
        p = sl.Prior.discrete([0.0, 2.0], [0.5, 0.5])
        q = sl.normalize_unit_second_moment(p)
        np.testing.assert_allclose(q.atoms, [0.0, np.sqrt(2.0)])
        np.testing.assert_allclose(q.weights, [0.5, 0.5])

    def test_three_point_rescaling(self):
        p = sl.Prior.discrete([-1, 0, 1], [0.25, 0.5, 0.25])
        q = sl.normalize_unit_second_moment(p)
        np.testing.assert_allclose(q.atoms, [-np.sqrt(2), 0, np.sqrt(2)])
        assert q.second_moment == pytest.approx(1.0, abs=1e-10)

    def test_zero_second_moment_raises(self):
        p = sl.Prior.discrete([-1e-8, 1e-8], [0.5, 0.5])
        with pytest.raises(ZeroSecondMoment):
            sl.normalize_unit_second_moment(p)

    def test_continuous_normalization(self, gaussian_mixture):
        assert gaussian_mixture.second_moment == pytest.approx(1.0, abs=1e-10)


class TestDenoise:
    def test_rademacher_is_tanh(self, rademacher):
        for gamma in (0.0, 0.7, 4.0):
            ev = sl.denoise(rademacher, 1.0, gamma)
            assert float(ev.mean) == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_symmetric_zero_observation(self, rademacher, gaussian_mixture):
        for p in (rademacher, gaussian_mixture):
            ev = sl.denoise(p, 0.0, 1.3)
            assert abs(float(ev.mean)) < 1e-12

    def test_no_information_returns_prior_moments(self, skewed_three_atom):
        ev = sl.denoise(skewed_three_atom, 0.0, 0.0)
        assert float(ev.mean) == pytest.approx(skewed_three_atom.mean)
        assert float(ev.variance) == pytest.approx(skewed_three_atom.variance)

    def test_second_moment_identity(self, skewed_three_atom):
        z = np.linspace(-4, 4, 41)
        ev = sl.denoise(skewed_three_atom, z, 2.0)
        np.testing.assert_allclose(ev.second_moment,
                                   ev.variance + ev.mean ** 2, atol=1e-12)

    def test_mean_stays_in_support_interval(self, skewed_three_atom):
        z = np.linspace(-50, 50, 101)
        ev = sl.denoise(skewed_three_atom, z, 3.0)
        lo, hi = skewed_three_atom.atoms[0], skewed_three_atom.atoms[-1]
        assert np.all(ev.mean >= lo) and np.all(ev.mean <= hi)
        assert np.all(ev.variance <= skewed_three_atom.support_bound ** 2)

    @settings(max_examples=30, deadline=None)
    @given(z=st.floats(-30, 30), dz=st.floats(1e-6, 5.0),
           gamma=st.floats(0.0, 20.0))
    def test_mean_monotone_in_z(self, skewed_three_atom, z, dz, gamma):
        lo = sl.denoise(skewed_three_atom, z, gamma)
        hi = sl.denoise(skewed_three_atom, z + dz, gamma)
        assert float(hi.mean) >= float(lo.mean) - 1e-12

    def test_underflow_on_nonfinite(self, rademacher):
        with pytest.raises(NumericalUnderflow):
            sl.denoise(rademacher, np.inf, 1.0)


def softmax_moments_reference(prior, z, gamma):
    """Posterior mean and second moment by an explicit softmax over the
    support, one scalar observation at a time, with exactly rounded sums."""
    if prior.is_discrete:
        pts, logp = prior.atoms, np.log(prior.weights)
    else:
        pts, logp = prior.grid, prior.log_density
    lw = logp + z * pts - 0.5 * gamma * pts * pts
    w = np.exp(lw - lw.max())
    total = math.fsum(w)
    return math.fsum(w * pts) / total, math.fsum(w * pts * pts) / total


class TestPosteriorMean:
    @pytest.fixture(scope="class")
    def kernel_priors(self, rademacher, skewed_two_atom, three_point,
                      gaussian_mixture):
        return (rademacher, skewed_two_atom, three_point, gaussian_mixture)

    @settings(max_examples=40, deadline=None)
    @given(z=st.floats(-50, 50), gamma=st.floats(0.0, 20.0))
    def test_matches_softmax_reference_and_denoise(self, kernel_priors, z,
                                                   gamma):
        zs = np.array([z, -z, z / 3.0, 0.0])
        for prior in kernel_priors:
            got = sl.posterior_mean(prior, zs, gamma)
            ref_m, ref_s = np.array(
                [softmax_moments_reference(prior, zi, gamma) for zi in zs]).T
            np.testing.assert_allclose(got, ref_m, rtol=0, atol=1e-14)
            ev = sl.denoise(prior, zs, gamma)
            assert np.array_equal(got, ev.mean)
            np.testing.assert_allclose(ev.second_moment, ref_s, rtol=0,
                                       atol=1e-13)
            assert float(sl.posterior_mean(prior, z, gamma)) == \
                pytest.approx(ref_m[0], abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(z=st.floats(-50, 50), dz=st.floats(1e-6, 5.0),
           gamma=st.floats(0.0, 20.0))
    def test_monotone_in_z(self, kernel_priors, z, dz, gamma):
        zs = np.array([z, min(z + dz, 50.0)])
        for prior in kernel_priors:
            lo, hi = sl.posterior_mean(prior, zs, gamma)
            assert hi >= lo - 1e-14

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_input_raises_on_every_discrete_branch(
            self, rademacher, skewed_two_atom, three_point,
            skewed_three_atom, bad):
        for prior in (rademacher, skewed_two_atom, three_point,
                      skewed_three_atom):
            with pytest.raises(NumericalUnderflow):
                sl.posterior_mean(prior, bad, 1.0)
            with pytest.raises(NumericalUnderflow):
                sl.posterior_mean(prior, np.array([0.5, bad, -2.0]), 1.0)
            with pytest.raises(NumericalUnderflow):
                sl.posterior_mean(prior, np.array([0.5, -2.0]), bad)

    def test_continuous_out_of_range_tilt_raises(self, gaussian_mixture):
        with pytest.raises(DivergentIntegral):
            sl.posterior_mean(gaussian_mixture, np.array([0.0, np.inf]), 1.0)
        with pytest.raises(DivergentIntegral):
            sl.posterior_mean(gaussian_mixture, 500.0, 1.0)
        with pytest.raises(NumericalUnderflow):
            sl.posterior_mean(gaussian_mixture, np.array([0.0, np.nan]), 1.0)


class TestMmse:
    def test_no_observation_gives_prior_variance(self, rademacher,
                                                 skewed_three_atom):
        assert sl.mmse(rademacher, 0.0) == pytest.approx(1.0)
        assert sl.mmse(skewed_three_atom, 0.0) == pytest.approx(
            skewed_three_atom.variance)

    @pytest.mark.slow
    def test_rademacher_gamma4_against_monte_carlo(self, rademacher):
        # oracle independent of the quadrature path: closed-form tanh
        # denoiser on 1e7 sampled channel pairs
        rng = np.random.default_rng(123)
        n = 10_000_000
        th = rng.choice([-1.0, 1.0], n)
        z = 4.0 * th + 2.0 * rng.standard_normal(n)
        sq = (th - np.tanh(z)) ** 2
        mc, se = sq.mean(), sq.std() / np.sqrt(n)
        assert abs(sl.mmse(rademacher, 4.0) - mc) <= 3 * se

    def test_continuous_against_monte_carlo(self, gaussian_mixture):
        mc, se = mc_mmse(gaussian_mixture, 4.0, 100_000, seed=5)
        assert abs(sl.mmse(gaussian_mixture, 4.0) - mc) <= 3 * se + 1e-4

    def test_high_snr_bound(self, rademacher):
        assert sl.mmse(rademacher, 1e6) <= 1e-6

    def test_nonincreasing_and_bounded(self, skewed_three_atom,
                                       gaussian_mixture):
        for p in (skewed_three_atom, gaussian_mixture):
            grid = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0]
            vals = [sl.mmse(p, g) for g in grid]
            assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))
            for g, v in zip(grid, vals):
                assert v <= min(p.variance, 1.0 / g) + 1e-9


class TestMutualInfo:
    def test_zero_at_zero(self, rademacher):
        assert sl.mutual_info(rademacher, 0.0) == 0.0

    def test_derivative_matches_mmse(self, rademacher, skewed_three_atom):
        h = 1e-4
        for p in (rademacher, skewed_three_atom):
            for g in (0.5, 1.0, 2.5):
                fd = (sl.mutual_info(p, g + h)
                      - sl.mutual_info(p, g - h)) / (2 * h)
                assert fd == pytest.approx(sl.mmse(p, g) / 2, abs=1e-5)

    def test_rademacher_against_direct_definition(self, rademacher):
        # direct-definition oracle: I = E log p(z|th)/p(z) for the two-atom
        # channel, reduced to a 1-D integral over the conditional law
        gamma = 2.0
        zg = np.linspace(-6 * np.sqrt(gamma) - gamma,
                         6 * np.sqrt(gamma) + gamma, 20001)

        def logn(z, mu):
            return -0.5 * (z - mu) ** 2 / gamma - 0.5 * np.log(2 * np.pi * gamma)

        pz_plus = np.exp(logn(zg, gamma))
        pz_minus = np.exp(logn(zg, -gamma))
        pz = 0.5 * pz_plus + 0.5 * pz_minus
        integrand = pz_plus * (logn(zg, gamma) - np.log(pz))
        direct = np.trapezoid(integrand, zg)   # symmetric: theta=+1 branch
        assert sl.mutual_info(rademacher, gamma) == pytest.approx(
            direct, abs=1e-4)

    def test_nonnegative_nondecreasing_concave(self, skewed_three_atom):
        grid = np.linspace(0.0, 8.0, 9)
        vals = np.array([sl.mutual_info(skewed_three_atom, g) for g in grid])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) <= 1e-8)   # concave on the grid


class TestTilts:
    def test_log_mgf_at_origin(self, skewed_three_atom, gaussian_mixture):
        for p in (skewed_three_atom, gaussian_mixture):
            assert float(sl.tilt_log_mgf(p, 0.0, 0.0)) == pytest.approx(
                0.0, abs=1e-12)

    def test_rademacher_closed_form(self, rademacher):
        lam, w = 0.7, 1.3
        assert float(sl.tilt_log_mgf(rademacher, lam, w)) == pytest.approx(
            -w / 2 + np.log(np.cosh(lam)), abs=1e-12)

    def test_lambda_derivative_is_tilted_mean(self, skewed_three_atom):
        lam, w = 0.7, 1.3
        h = 1e-6
        fd = (sl.tilt_log_mgf(skewed_three_atom, lam + h, w)
              - sl.tilt_log_mgf(skewed_three_atom, lam - h, w)) / (2 * h)
        m, _ = sl.tilted_moments(skewed_three_atom, lam, w)
        assert float(fd) == pytest.approx(float(m), abs=1e-8)

    def test_divergent_integral_for_negative_w(self, gaussian_mixture):
        with pytest.raises(DivergentIntegral):
            sl.tilt_log_mgf(gaussian_mixture, 0.0, -50.0)

    def test_tilted_moments_at_origin(self, skewed_three_atom):
        m, s = sl.tilted_moments(skewed_three_atom, 0.0, 0.0)
        assert float(m) == pytest.approx(skewed_three_atom.mean)
        assert float(s) == pytest.approx(skewed_three_atom.second_moment)

    def test_symmetric_tilt_lambda_zero(self, rademacher, gaussian_mixture):
        for p in (rademacher, gaussian_mixture):
            for g in (0.0, 1.0, 5.0):
                m, _ = sl.tilted_moments(p, 0.0, g)
                assert abs(float(m)) < 1e-12

    def test_rademacher_gamma_cancels(self, rademacher):
        m, s = sl.tilted_moments(rademacher, 1.0, 5.0)
        assert float(m) == pytest.approx(np.tanh(1.0), abs=1e-12)
        assert float(s) == pytest.approx(1.0, abs=1e-12)


class TestCharFnImag:
    def test_symmetric_vanishes(self, rademacher, gaussian_mixture):
        t = np.linspace(-5, 5, 21)
        for p in (rademacher, gaussian_mixture):
            np.testing.assert_allclose(sl.char_fn_imag(p, t), 0.0, atol=1e-12)

    def test_definition_two_atoms(self):
        # unnormalized prior; the statistic is a plain expectation of sin
        p = sl.Prior.discrete([-2.0, 1.1], [0.3, 0.7])
        expected = 0.3 * np.sin(-2.0) + 0.7 * np.sin(1.1)
        assert float(sl.char_fn_imag(p, 1.0)) == pytest.approx(expected,
                                                               abs=1e-14)


class TestLegendreUnivariate:
    def test_symmetric_zero_mean(self, rademacher, gaussian_mixture):
        for p in (rademacher, gaussian_mixture):
            val, lam = sl.legendre_h_univariate(p, 0.0, 2.0)
            assert abs(float(lam)) < 1e-9
            assert float(val) == pytest.approx(
                -float(sl.tilt_log_mgf(p, 0.0, 2.0)), abs=1e-10)

    def test_rademacher_closed_form(self, rademacher):
        val, lam = sl.legendre_h_univariate(rademacher, 0.5, 0.0)
        lam_star = np.arctanh(0.5)
        assert float(lam) == pytest.approx(lam_star, abs=1e-8)
        assert float(val) == pytest.approx(
            lam_star * 0.5 - np.log(np.cosh(lam_star)), abs=1e-10)

    def test_envelope_dh_dm_equals_lambda(self, skewed_three_atom):
        m, w, h = 0.3, 2.0, 1e-6
        vp, _ = sl.legendre_h_univariate(skewed_three_atom, m + h, w)
        vm, _ = sl.legendre_h_univariate(skewed_three_atom, m - h, w)
        _, lam = sl.legendre_h_univariate(skewed_three_atom, m, w)
        assert float((vp - vm) / (2 * h)) == pytest.approx(float(lam),
                                                           abs=1e-6)

    def test_round_trip_random_points(self, skewed_three_atom):
        rng = np.random.default_rng(7)
        lo, hi = skewed_three_atom.atoms[0], skewed_three_atom.atoms[-1]
        for _ in range(100):
            m = rng.uniform(lo + 0.05, hi - 0.05)
            w = rng.uniform(0.0, 5.0)
            _, lam = sl.legendre_h_univariate(skewed_three_atom, m, w)
            m_back, _ = sl.tilted_moments(skewed_three_atom, lam, w)
            assert abs(float(m_back) - m) <= 1e-9

    def test_out_of_domain(self, rademacher):
        with pytest.raises(OutOfDomain):
            sl.legendre_h_univariate(rademacher, 1.5, 0.0)
        with pytest.raises(OutOfDomain):
            sl.legendre_h_univariate(rademacher, -1.0, 0.0)


class TestLegendreBivariate:
    def test_prior_moments_map_to_zero_tilt(self, skewed_three_atom):
        val, lam, gam = sl.legendre_h_bivariate(
            skewed_three_atom, skewed_three_atom.mean,
            skewed_three_atom.second_moment)
        assert abs(lam) < 1e-8 and abs(gam) < 1e-8
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_two_atom_pins_second_moment(self, rademacher):
        # atoms +-1 force s = 1 exactly; anything else is infeasible
        with pytest.raises(OutOfGamma):
            sl.legendre_h_bivariate(rademacher, 0.2, 1.1)
        val, lam, gam = sl.legendre_h_bivariate(rademacher, 0.5, 1.0)
        assert gam == 0.0
        assert lam == pytest.approx(np.arctanh(0.5), abs=1e-8)

    def test_three_point_round_trip(self):
        p = sl.Prior.discrete([-1, 0, 1], [0.25, 0.5, 0.25], normalize=True)
        m, s = sl.tilted_moments(p, 0.4, 0.9)
        _, lam, gam = sl.legendre_h_bivariate(p, float(m), float(s))
        assert lam == pytest.approx(0.4, abs=1e-8)
        assert gam == pytest.approx(0.9, abs=1e-8)

    def test_grid_round_trip(self, skewed_three_atom):
        for lam in (-0.8, 0.0, 0.6, 1.5):
            for gam in (-0.5, 0.0, 0.7, 2.0):
                m, s = sl.tilted_moments(skewed_three_atom, lam, gam)
                _, lam_b, gam_b = sl.legendre_h_bivariate(
                    skewed_three_atom, float(m), float(s))
                m_b, s_b = sl.tilted_moments(skewed_three_atom, lam_b, gam_b)
                assert abs(float(m_b) - float(m)) <= 1e-8
                assert abs(float(s_b) - float(s)) <= 1e-8

    def test_infeasible_raises(self, skewed_three_atom):
        with pytest.raises(OutOfGamma):
            sl.legendre_h_bivariate(skewed_three_atom, 0.5, 0.25)  # s = m^2
        with pytest.raises(OutOfGamma):
            # second moment above the largest atom squared is unreachable
            sl.legendre_h_bivariate(skewed_three_atom, 0.0, 100.0)
