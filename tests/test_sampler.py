"""Localization loops: the general scheme and its five instantiations."""

import numpy as np
import pytest

import stoloc as sl
from stoloc.errors import (
    DimensionMismatch,
    NonpositiveTopEigenvalue,
    OracleFailure,
    SubcriticalBeta,
)
from stoloc.rng import stream
from stoloc.sampler import T_FLOOR
from stoloc.tap import TapLinearState, ngd_linear


class _NegatedRng:
    """Wraps a generator, negating its Gaussian draws (noise equivariance)."""

    def __init__(self, base):
        self._base = base

    def standard_normal(self, *a, **k):
        return -self._base.standard_normal(*a, **k)

    def choice(self, *a, **k):
        return self._base.choice(*a, **k)

    def random(self, *a, **k):
        return self._base.random(*a, **k)


class TestLocalizeGeneral:
    def test_pure_brownian_variance(self):
        cfg = sl.SamplerConfig(L=4, Delta=0.25, seed=1, record_coords=0)
        drift = lambda y, t: np.zeros_like(y)
        recs = sl.localize_general_many(drift, lambda y, t: y, 3, cfg,
                                        reps=10_000, rng=stream(1, "bm"))
        finals = np.stack([r.theta_alg for r in recs])
        assert finals.var() == pytest.approx(1.0, rel=0.03)

    def test_constant_drift_mean(self):
        theta_star = np.array([0.7, -0.3])
        cfg = sl.SamplerConfig(L=10, Delta=0.1, seed=2, record_coords=0)
        drift = lambda y, t: np.broadcast_to(theta_star[:, None], y.shape)
        recs = sl.localize_general_many(drift, lambda y, t: y, 2, cfg,
                                        reps=4000, rng=stream(2, "cd"))
        finals = np.stack([r.theta_alg for r in recs])
        se = finals.std(axis=0) / np.sqrt(4000)
        np.testing.assert_array_less(
            np.abs(finals.mean(axis=0) - 1.0 * theta_star), 3 * se + 1e-12)

    def test_exact_oracle_posterior_means_small_scale(self, rademacher):
        n, reps = 8, 4000
        inst = sl.gen_spiked(rademacher, 1.5, n, seed=3)
        _, v1 = sl.top_eigpair(inst.X, rng=stream(3, "eig"))
        post = sl.enumerate_posterior(inst.X, np.zeros(n), 0.0, 1.5,
                                      rademacher, symmetry_break=v1)
        drift = sl.exact_drift_oracle(inst.X, 1.5, rademacher,
                                      symmetry_break=v1)
        cfg = sl.SamplerConfig(L=500, Delta=0.01, seed=3, record_coords=0)
        recs = sl.localize_general_many(drift, None, n, cfg, reps,
                                        rng=stream(3, "runs"))
        finals = np.stack([r.theta_alg for r in recs], axis=1)
        assert np.abs(finals.mean(axis=1) - post.mean).max() <= 0.06

    def test_oracle_failure_carries_step(self):
        def bad_drift(y, t):
            if t > 0.15:
                raise ValueError("boom")
            return np.zeros_like(y)

        cfg = sl.SamplerConfig(L=10, Delta=0.1, seed=4)
        with pytest.raises(OracleFailure) as err:
            sl.localize_general(bad_drift, None, 3, cfg)
        assert err.value.step == 2

    def test_trajectory_lengths(self):
        cfg = sl.SamplerConfig(L=7, Delta=0.1, seed=5,
                               record_trajectory=True)
        rec = sl.localize_general(lambda y, t: 0.1 * y, None, 4, cfg)
        assert rec.y_trajectory.shape == (8, 4)
        assert rec.drift_trajectory.shape == (8, 4)
        assert len(rec.diagnostics["t"]) == 8

    def test_projection_radius(self):
        cfg = sl.SamplerConfig(L=3, Delta=1.0, seed=6,
                               projection_radius=0.5)
        rec = sl.localize_general(lambda y, t: np.ones_like(y),
                                  lambda y, t: 100.0 * np.ones_like(y),
                                  9, cfg)
        assert np.linalg.norm(rec.theta_alg) <= 0.5 * 3.0 + 1e-12


class TestSampleSpikedDiscrete:
    def test_subcritical_rejected(self, rademacher):
        inst = sl.gen_spiked(rademacher, 0.8, 30, seed=7)
        cfg = sl.SamplerConfig(L=3, Delta=0.1, K_AMP=2, seed=7)
        with pytest.raises(SubcriticalBeta):
            sl.sample_spiked_discrete(inst.X, 0.8, rademacher, cfg)

    def test_seed_determinism(self, rademacher):
        inst = sl.gen_spiked(rademacher, 2.0, 60, seed=8)
        cfg = sl.SamplerConfig(L=10, Delta=0.05, K_AMP=4, seed=8)
        a = sl.sample_spiked_discrete(inst.X, 2.0, rademacher, cfg)
        b = sl.sample_spiked_discrete(inst.X, 2.0, rademacher, cfg)
        assert np.array_equal(a.theta_alg, b.theta_alg)
        assert a.sign_used == b.sign_used

    def test_noise_and_init_negation_equivariance(self, rademacher):
        inst = sl.gen_spiked(rademacher, 2.0, 50, seed=9)
        nu = sl.spectral_init(inst.X, 2.0)
        cfg = sl.SamplerConfig(L=8, Delta=0.05, K_AMP=4, seed=9)
        a = sl.sample_spiked_discrete(inst.X, 2.0, rademacher, cfg,
                                      rng=stream(9, "eq"), nu=nu)
        b = sl.sample_spiked_discrete(inst.X, 2.0, rademacher, cfg,
                                      rng=_NegatedRng(stream(9, "eq")),
                                      nu=-nu)
        m_a = a.theta_alg * a.sign_used
        m_b = b.theta_alg * b.sign_used
        np.testing.assert_allclose(m_b, -m_a, atol=1e-10)

    def test_batched_matches_single_runs(self, rademacher):
        # one shared spectral vector, per-rep noise from the batch stream:
        # the batch is its own contract; check determinism and shapes
        inst = sl.gen_spiked(rademacher, 2.0, 40, seed=10)
        cfg = sl.SamplerConfig(L=5, Delta=0.05, K_AMP=3, seed=10)
        recs1 = sl.sample_spiked_discrete_many(inst.X, 2.0, rademacher, cfg,
                                               reps=4)
        recs2 = sl.sample_spiked_discrete_many(inst.X, 2.0, rademacher, cfg,
                                               reps=4)
        for a, b in zip(recs1, recs2):
            assert np.array_equal(a.theta_alg, b.theta_alg)

    def test_loglik_concentration_moderate_scale(self, rademacher):
        inst = sl.gen_spiked(rademacher, 2.0, 400, seed=11)
        cfg = sl.SamplerConfig(L=250, Delta=0.02, K_AMP=10, seed=11,
                               record_coords=0)
        recs = sl.sample_spiked_discrete_many(inst.X, 2.0, rademacher, cfg,
                                              reps=20)
        lls = [sl.normalized_loglik(inst.X, r.theta_alg, 2.0) for r in recs]
        assert abs(np.mean(lls) - 2.0) <= 0.25


class TestRoundToSupport:
    def test_exact_atom_kept(self, three_point):
        m = three_point.atoms.copy()
        out = sl.round_to_support(m, three_point, stream(12, "r"))
        np.testing.assert_array_equal(out, m)

    def test_z2_probabilities(self, rademacher):
        draws = sl.round_to_support(np.full(10_000, 0.5), rademacher,
                                    stream(13, "r"))
        p_hi = np.mean(draws == 1.0)
        assert abs(p_hi - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / 10_000)

    def test_unbiasedness(self, three_point):
        m = np.full(100_000, 0.3)
        draws = sl.round_to_support(m, three_point, stream(14, "r"))
        se = draws.std() / np.sqrt(len(draws))
        assert abs(draws.mean() - 0.3) <= 3 * se

    def test_clamps_out_of_range(self, rademacher):
        out = sl.round_to_support(np.array([-3.0, 3.0]), rademacher,
                                  stream(15, "r"))
        np.testing.assert_array_equal(out, [-1.0, 1.0])

    def test_values_in_support(self, three_point):
        m = stream(16, "m").uniform(-2, 2, size=1000)
        out = sl.round_to_support(m, three_point, stream(16, "r"))
        assert set(np.unique(out)) <= set(three_point.atoms)


class TestSampleSpikedContinuous:
    def test_drift_norm_pinned_to_q(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 5.0, 120, seed=17)
        cfg = sl.SamplerConfig(L=6, Delta=0.05, K_AMP=6, K_GD=3,
                               zeta=0.02, seed=17)
        rec = sl.sample_spiked_continuous(inst.X, 5.0, gaussian_mixture, cfg)
        norms = rec.diagnostics["drift_norm_sq_over_dim"]
        qs = [sl.run_se_spiked(gaussian_mixture, 5.0, max(ell * 0.05, T_FLOOR),
                               0).q for ell in range(7)]
        np.testing.assert_allclose(norms, qs, atol=1e-10)

    def test_kgd_zero_is_projected_amp(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 5.0, 100, seed=18)
        nu = sl.spectral_init(inst.X, 5.0, method="iterative")
        cfg = sl.SamplerConfig(L=4, Delta=0.05, K_AMP=5, K_GD=0, seed=18)
        rec = sl.sample_spiked_continuous(inst.X, 5.0, gaussian_mixture,
                                          cfg, rng=stream(18, "x"), nu=nu)
        # reconstruct the final drift: AMP at (y_L, T) projected to the
        # sphere of radius sqrt(n q)
        m_drift = rec.theta_alg * rec.sign_used
        amp = sl.amp_spiked(inst.X, rec.y_trajectory, 4 * 0.05, 5.0,
                            gaussian_mixture, 5, nu) \
            if rec.y_trajectory is not None else None
        q = sl.run_se_spiked(gaussian_mixture, 5.0, 4 * 0.05, 0).q
        assert np.linalg.norm(m_drift) == pytest.approx(
            np.sqrt(100 * q), abs=1e-8)

    def test_final_stationarity_small_scale(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 5.0, 150, seed=19)
        cfg = sl.SamplerConfig(L=8, Delta=0.1, K_AMP=8, K_GD=15,
                               zeta=0.01, seed=19)
        rec = sl.sample_spiked_continuous(inst.X, 5.0, gaussian_mixture, cfg)
        overlap = abs(rec.theta_alg @ inst.theta) / 150
        assert overlap >= 0.8

    @pytest.mark.slow
    def test_double_well_final_tap_gradient(self, double_well):
        # beta=5, double-well prior, n=1000: the final drift is an
        # approximate stationary point of the sphere-constrained TAP
        # objective at (y_L, T). At t > 0 the unconstrained gradient keeps
        # an O(t) component along m (the entropy tilt is anchored at
        # beta^2 q while the channel strength is beta^2 q + t), which the
        # sphere constraint quotients out; stationarity is therefore
        # measured in the tangent space the descent operates in.
        n = 1000
        inst = sl.gen_spiked(double_well, 5.0, n, seed=191)
        cfg = sl.SamplerConfig(L=10, Delta=0.1, K_AMP=10, K_GD=12,
                               zeta=0.01, seed=191, record_trajectory=True)
        rec = sl.sample_spiked_continuous(inst.X, 5.0, double_well, cfg)
        t_fin = cfg.L * cfg.Delta
        y_fin = rec.y_trajectory[-1]
        prob = sl.spiked_tap_problem(inst.X, y_fin, 5.0, t_fin, double_well)
        m_drift = rec.theta_alg * rec.sign_used
        _, grad = sl.f_tap_spiked(prob, m_drift)
        g_tan = grad - (grad @ m_drift) / (m_drift @ m_drift) * m_drift
        assert np.sum(g_tan ** 2) / n <= 0.05


def _se_depth(prior, beta, t, K):
    """The depth rule written against the state-evolution trace."""
    tr = sl.run_se_spiked(prior, beta, t, K)
    near = np.flatnonzero(np.abs(tr.gammas - tr.gamma_star)
                          <= sl.se.AMP_SE_RTOL * tr.gamma_star)
    return int(near[0]) if near.size else K


def _spiked_runs(prior, x, beta, cfg, nu, **kw):
    """Records of the three spiked samplers on one instance."""
    if prior.is_discrete:
        return [sl.sample_spiked_discrete(x, beta, prior, cfg, nu=nu, **kw)]\
            + sl.sample_spiked_discrete_many(x, beta, prior, cfg, 3, nu=nu,
                                             **kw)
    return [sl.sample_spiked_continuous(x, beta, prior, cfg, nu=nu, **kw)]


class TestScheduledAmpDepth:
    @pytest.mark.parametrize("K", [0, 3, 15])
    def test_recorded_depths_follow_state_evolution(self, rademacher, K):
        inst = sl.gen_spiked(rademacher, 2.0, 60, seed=40)
        nu = sl.spectral_init(inst.X, 2.0)
        cfg = sl.SamplerConfig(L=12, Delta=0.5, K_AMP=K, seed=40)
        expected = [_se_depth(rademacher, 2.0, max(ell * 0.5, T_FLOOR), K)
                    for ell in range(13)]
        recs = _spiked_runs(rademacher, inst.X, 2.0, cfg, nu)
        for rec in recs:
            depths = rec.diagnostics["amp_iterations"]
            assert depths.shape == (13,)
            assert np.all(depths <= K)
            np.testing.assert_array_equal(depths, expected)
        if K == 15:     # the rule stops early once t has grown
            assert expected[0] == 11 and expected[-1] < 11

    def test_continuous_sampler_records_depths(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 5.0, 80, seed=41)
        nu = sl.spectral_init(inst.X, 5.0)
        cfg = sl.SamplerConfig(L=3, Delta=0.5, K_AMP=10, K_GD=1, zeta=0.02,
                               seed=41)
        expected = [_se_depth(gaussian_mixture, 5.0, max(ell * 0.5, T_FLOOR),
                              10) for ell in range(4)]
        rec, = _spiked_runs(gaussian_mixture, inst.X, 5.0, cfg, nu)
        np.testing.assert_array_equal(rec.diagnostics["amp_iterations"],
                                      expected)
        assert max(expected) < 10

    def test_subcritical_runs_to_cap(self, rademacher):
        inst = sl.gen_spiked(rademacher, 0.8, 40, seed=42)
        cfg = sl.SamplerConfig(L=4, Delta=0.5, K_AMP=5, seed=42)
        for rec in _spiked_runs(rademacher, inst.X, 0.8, cfg, None,
                                allow_subcritical=True):
            np.testing.assert_array_equal(rec.diagnostics["amp_iterations"],
                                          [5] * 5)

    def test_scheduled_drift_tracks_full_depth(self, rademacher):
        # the sampler's own y stays on the branch of nu; there the drift at
        # the scheduled depth is within 5e-3 RMS of the K_AMP = 15 drift
        # (largest gap over instances 1-30 at n = 400, t <= 5 and
        # y = t theta + sqrt(t) g on the branch of nu: 1.3e-3). Depth 2 is
        # far from converged and must exceed the bound.
        n, beta, bound = 400, 2.0, 5e-3
        for seed in (1, 2, 3):
            inst = sl.gen_spiked(rademacher, beta, n, seed=seed)
            nu = sl.spectral_init(inst.X, beta, rng=stream(seed, "eig"))
            cfg = sl.SamplerConfig(L=10, Delta=0.5, K_AMP=15, seed=seed,
                                   record_trajectory=True)
            rec = sl.sample_spiked_discrete(inst.X, beta, rademacher, cfg,
                                            nu=nu)
            for ell in (0, 1, 4, 10):
                t = max(ell * 0.5, T_FLOOR)
                y = rec.y_trajectory[ell]
                full = sl.amp_spiked(inst.X, y, t, beta, rademacher, 15,
                                     nu).m_hat
                rms = np.sqrt(np.mean((rec.drift_trajectory[ell] - full) ** 2))
                assert rms <= bound
            short = sl.amp_spiked(inst.X, np.zeros(n), T_FLOOR, beta,
                                  rademacher, 2, nu).m_hat
            full = sl.amp_spiked(inst.X, np.zeros(n), T_FLOOR, beta,
                                 rademacher, 15, nu).m_hat
            assert np.sqrt(np.mean((short - full) ** 2)) > bound


class TestSpikedInputChecks:
    """X is validated once per call, before any spectral solve or AMP
    iteration (``nu`` is passed, so no eigensolver sees the matrix)."""

    @staticmethod
    def _broken(kind):
        x = sl.gen_spiked(sl.Prior.discrete([-1.0, 1.0], [0.5, 0.5]), 2.0,
                          12, seed=43).X.copy()
        if kind == "nonsquare":
            return x[:, :-1], DimensionMismatch
        if kind == "flat":
            return x.ravel()[:12], DimensionMismatch
        if kind == "nonfinite":
            x[0, 1] = x[1, 0] = np.nan
            return x, ValueError
        if kind == "asymmetric":
            x[0, 1] += 0.5
            return x, ValueError
        raise AssertionError(kind)

    @pytest.mark.parametrize("kind", ["nonsquare", "flat", "nonfinite",
                                      "asymmetric"])
    @pytest.mark.parametrize("continuous", [False, True])
    def test_rejected(self, rademacher, gaussian_mixture, kind, continuous):
        x, error = self._broken(kind)
        prior = gaussian_mixture if continuous else rademacher
        cfg = sl.SamplerConfig(L=2, Delta=0.1, K_AMP=2, K_GD=1, zeta=0.02,
                               seed=43)
        nu = np.full(12, 2.0)
        samplers = [lambda: sl.sample_spiked_continuous(
            x, 2.0, prior, cfg, nu=nu)] if continuous else [
            lambda: sl.sample_spiked_discrete(x, 2.0, prior, cfg, nu=nu),
            lambda: sl.sample_spiked_discrete_many(x, 2.0, prior, cfg, 2,
                                                   nu=nu)]
        for run in samplers:
            with pytest.raises(error):
                run()

    def test_rounding_level_asymmetry_accepted(self, rademacher):
        inst = sl.gen_spiked(rademacher, 2.0, 12, seed=44)
        x = inst.X.copy()
        x[0, 1] *= 1.0 + 1e-15
        cfg = sl.SamplerConfig(L=2, Delta=0.1, K_AMP=2, seed=44)
        sl.sample_spiked_discrete(x, 2.0, rademacher, cfg)


class TestSampleLinearHighSnr:
    def test_near_noiseless_recovery(self, three_point):
        inst = sl.gen_linear(three_point, 20.0, 1e-4, 200, seed=20)
        cfg = sl.SamplerConfig(L=15, Delta=0.05, K_AMP=8, K_NGD=3,
                               eta=0.02, seed=20)
        rec = sl.sample_linear_high_snr(inst.X, inst.y0, three_point, 1e-4,
                                        inst.delta, cfg)
        rmse = np.sqrt(np.mean((rec.theta_alg - inst.theta) ** 2))
        assert rmse <= 0.02

    def test_sample_means_track_estimator(self, three_point):
        inst = sl.gen_linear(three_point, 20.0, 0.25, 300, seed=21)
        cfg = sl.SamplerConfig(L=40, Delta=0.05, K_AMP=8, K_NGD=3,
                               eta=0.02, seed=21)
        recs = sl.sample_linear_high_snr_many(inst.X, inst.y0, three_point,
                                              0.25, inst.delta, cfg, reps=50)
        finals = np.stack([r.theta_alg for r in recs], axis=1)
        est0 = sl.amp_linear(inst.X, inst.y0, three_point, 0.25,
                             inst.delta, 12).m_hat
        assert np.abs(finals.mean(axis=1) - est0).max() <= 0.05

    def test_discretization_stability(self, three_point):
        inst = sl.gen_linear(three_point, 20.0, 0.25, 150, seed=22)
        means = []
        for L, dt in ((20, 0.1), (40, 0.05)):
            cfg = sl.SamplerConfig(L=L, Delta=dt, K_AMP=8, K_NGD=2,
                                   eta=0.02, seed=22)
            recs = sl.sample_linear_high_snr_many(
                inst.X, inst.y0, three_point, 0.25, inst.delta, cfg,
                reps=40)
            means.append(np.stack([r.theta_alg for r in recs]).mean(axis=0))
        assert np.abs(means[0] - means[1]).max() <= 0.02


class TestSampleLinearLowSnr:
    def test_outputs_inside_posterior_mean_range(self, rademacher):
        inst = sl.gen_linear(rademacher, 0.1, 4.0, 300, seed=23)
        cfg = sl.SamplerConfig(L=20, Delta=0.2, K_NGD=5, eta=0.05, seed=23)
        rec = sl.sample_linear_low_snr(inst.X, inst.y0, rademacher, 4.0,
                                       inst.delta, cfg)
        assert np.all(np.abs(rec.theta_alg) <= 1.0)

    def test_step0_drift_is_plain_tap_minimizer(self, rademacher):
        # the l = 0 step has an empty side channel; its drift must match
        # NGD on the side-free objective
        inst = sl.gen_linear(rademacher, 0.1, 4.0, 100, seed=24)
        init = TapLinearState.from_natural(rademacher, np.zeros(100),
                                           np.zeros(100))
        direct = ngd_linear(inst.X, inst.y0, 4.0, init, 5, 0.05).m
        cfg = sl.SamplerConfig(L=1, Delta=0.2, K_NGD=5, eta=0.05, seed=24,
                               record_trajectory=True)
        rec = sl.sample_linear_low_snr(inst.X, inst.y0, rademacher, 4.0,
                                       inst.delta, cfg)
        np.testing.assert_allclose(rec.drift_trajectory[0], direct,
                                   atol=1e-12)

    def test_seed_determinism(self, rademacher):
        inst = sl.gen_linear(rademacher, 0.1, 4.0, 60, seed=29)
        cfg = sl.SamplerConfig(L=4, Delta=0.2, K_NGD=3, eta=0.05, seed=29)
        a = sl.sample_linear_low_snr(inst.X, inst.y0, rademacher, 4.0,
                                     inst.delta, cfg)
        b = sl.sample_linear_low_snr(inst.X, inst.y0, rademacher, 4.0,
                                     inst.delta, cfg)
        assert np.array_equal(a.theta_alg, b.theta_alg)

    def test_sample_means_track_tap_mean(self, rademacher):
        inst = sl.gen_linear(rademacher, 0.1, 4.0, 300, seed=25)
        cfg = sl.SamplerConfig(L=25, Delta=0.2, K_NGD=5, eta=0.05, seed=25,
                               record_coords=0)
        recs = sl.sample_linear_low_snr_many(inst.X, inst.y0, rademacher,
                                             4.0, inst.delta, cfg, reps=200)
        finals = np.stack([r.theta_alg for r in recs], axis=1)
        init = TapLinearState.from_natural(rademacher, np.zeros(300),
                                           np.zeros(300))
        tap_mean = ngd_linear(inst.X, inst.y0, 4.0, init, 5, 0.05).m
        # 200 runs put ~0.04 of Monte-Carlo noise on every coordinate, so
        # the 0.05 agreement is per-coordinate root-mean-square
        dev = finals.mean(axis=1) - tap_mean
        assert np.sqrt(np.mean(dev ** 2)) <= 0.05


class TestSampleSpikedMatrixProcess:
    def test_symmetry_preserved_each_step(self, rademacher):
        # replay the update rule at small n and check exact symmetry
        inst = sl.gen_spiked(rademacher, 2.0, 40, seed=26)
        rng = stream(26, "mat")
        y = 2.0 * inst.X.copy()
        for ell in range(5):
            t = ell * 0.05 + 4.0
            _, v1 = sl.top_eigpair(y, rng=rng, method="dense")
            nu_t = np.sqrt(40 * t * (t - 1.0)) * v1
            m = sl.amp_matrix(y, t, rademacher, 4, nu_t).m_hat
            y = y + np.outer(m, m) / 40 * 0.05 \
                + np.sqrt(0.05) * sl.sample_goe(40, rng)
            assert np.array_equal(y, y.T)

    def test_recovery_small_scale(self, rademacher):
        hits = 0
        for r in range(10):
            inst = sl.gen_spiked(rademacher, 2.0, 200, seed=600 + r)
            cfg = sl.SamplerConfig(L=50, Delta=0.02, K_AMP=8, seed=600 + r)
            rec = sl.sample_spiked_matrix_process(inst.X, 2.0, rademacher,
                                                  cfg)
            hits += abs(rec.theta_alg @ inst.theta) / 200 >= 0.8
        assert hits >= 8

    def test_subcritical_rejected(self, rademacher):
        cfg = sl.SamplerConfig(L=2, Delta=0.1, K_AMP=2, seed=27)
        with pytest.raises(SubcriticalBeta):
            sl.sample_spiked_matrix_process(np.eye(10), 0.9, rademacher, cfg)

    def test_seed_determinism(self, rademacher):
        inst = sl.gen_spiked(rademacher, 2.0, 80, seed=28)
        cfg = sl.SamplerConfig(L=6, Delta=0.05, K_AMP=4, seed=28)
        a = sl.sample_spiked_matrix_process(inst.X, 2.0, rademacher, cfg)
        b = sl.sample_spiked_matrix_process(inst.X, 2.0, rademacher, cfg)
        assert np.array_equal(a.theta_alg, b.theta_alg)

    @pytest.mark.slow
    def test_recovery_reference_scale(self, rademacher):
        # Z2, beta=2, n=500, L=200: |overlap| >= 0.8 in >= 90% of 50 reps
        hits = 0
        for r in range(50):
            inst = sl.gen_spiked(rademacher, 2.0, 500, seed=700 + r)
            cfg = sl.SamplerConfig(L=200, Delta=0.02, K_AMP=8, seed=700 + r)
            rec = sl.sample_spiked_matrix_process(inst.X, 2.0, rademacher,
                                                  cfg)
            hits += abs(rec.theta_alg @ inst.theta) / 500 >= 0.8
        assert hits >= 45
