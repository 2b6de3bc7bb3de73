"""TAP free energies, tangent-space descent, natural gradient descent."""

import numpy as np
import pytest

import stoloc as sl
from stoloc.errors import (
    NonpositiveVariance,
    OutOfDomain,
    OutOfGamma,
    StepRejected,
    ZeroVector,
)
from stoloc.rng import stream
from stoloc.tap import TangentBasis, TapLinearState


def fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


@pytest.fixture(scope="module")
def spiked_problem(gaussian_mixture):
    inst = sl.gen_spiked(gaussian_mixture, 4.0, 50, seed=21)
    rng = stream(21, "y")
    y = 0.3 * rng.standard_normal(50)
    return sl.spiked_tap_problem(inst.X, y, 4.0, 0.5, gaussian_mixture)


class TestFTapSpiked:
    def test_gradient_matches_finite_differences(self, spiked_problem):
        rng = stream(22, "m")
        m = 0.5 * rng.standard_normal(50)
        _, grad = sl.f_tap_spiked(spiked_problem, m)
        fd = fd_gradient(lambda v: sl.f_tap_spiked(spiked_problem, v)[0], m)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad - fd).max() / scale <= 1e-5

    def test_zero_is_stationary_for_symmetric_prior(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 4.0, 40, seed=23)
        prob = sl.spiked_tap_problem(inst.X, np.zeros(40), 4.0, 0.0,
                                     gaussian_mixture)
        _, grad = sl.f_tap_spiked(prob, np.zeros(40))
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_translation_covariance_in_y(self, spiked_problem):
        rng = stream(24, "m")
        m = 0.4 * rng.standard_normal(50)
        d = rng.standard_normal(50)
        _, g0 = sl.f_tap_spiked(spiked_problem, m)
        shifted = sl.TapSpikedProblem(
            X=spiked_problem.X, y=spiked_problem.y + 0.7 * d,
            beta=spiked_problem.beta, t=spiked_problem.t,
            q=spiked_problem.q, prior=spiked_problem.prior)
        _, g1 = sl.f_tap_spiked(shifted, m)
        np.testing.assert_allclose(g1, g0 - 0.7 * d, atol=1e-10)

    def test_out_of_domain_for_discrete_prior(self, rademacher):
        inst = sl.gen_spiked(rademacher, 2.0, 20, seed=25)
        prob = sl.spiked_tap_problem(inst.X, np.zeros(20), 2.0, 0.0,
                                     rademacher)
        m = np.zeros(20)
        m[3] = 1.5
        with pytest.raises(OutOfDomain):
            sl.f_tap_spiked(prob, m)


class TestTangentBasis:
    def test_axis_vector(self):
        tb = sl.tangent_basis(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(tb.dense(),
                                   np.array([[0.0, 0.0], [1.0, 0.0],
                                             [0.0, 1.0]]), atol=1e-14)

    def test_orthonormal_and_orthogonal_to_base(self):
        rng = stream(26, "m")
        m = rng.standard_normal(100)
        tb = sl.tangent_basis(m)
        dense = tb.dense()
        np.testing.assert_allclose(dense.T @ dense, np.eye(99), atol=1e-12)
        np.testing.assert_allclose(m @ dense, 0.0, atol=1e-12 * np.linalg.norm(m))

    def test_pythagoras(self):
        rng = stream(27, "m")
        m = rng.standard_normal(60)
        w = rng.standard_normal(59)
        tb = sl.tangent_basis(m)
        v = m + tb.matvec(w)
        assert v @ v == pytest.approx(m @ m + w @ w, abs=1e-10)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            sl.tangent_basis(np.zeros(5))


class TestSphereRetraction:
    def test_zero_tangent_returns_base(self):
        rng = stream(28, "m")
        m = rng.standard_normal(30)
        r = np.linalg.norm(m)
        np.testing.assert_allclose(sl.sphere_retraction(m, np.zeros(29), r),
                                   m, atol=1e-12)

    def test_output_norm(self):
        rng = stream(29, "m")
        m = rng.standard_normal(30)
        r = np.linalg.norm(m)
        for _ in range(5):
            w = rng.standard_normal(29)
            out = sl.sphere_retraction(m, w, r)
            assert np.linalg.norm(out) == pytest.approx(r, abs=1e-10)

    def test_small_step_linearization(self):
        rng = stream(30, "m")
        m = rng.standard_normal(40)
        r = np.linalg.norm(m)
        tb = sl.tangent_basis(m)
        for scale in (1e-2, 1e-1, 1.0):
            w = scale * rng.standard_normal(39)
            out = sl.sphere_retraction(m, w, r, basis=tb)
            lin = m + tb.matvec(w)
            assert np.linalg.norm(out - lin) <= (w @ w) / r + 1e-12

    def test_off_sphere_base_rejected(self):
        with pytest.raises(ValueError):
            sl.sphere_retraction(np.ones(4), np.zeros(3), 5.0)


class TestTangentGd:
    def test_zero_steps_project_initialization(self, spiked_problem):
        rng = stream(31, "m")
        m0 = rng.standard_normal(50)
        out = sl.tangent_gd(spiked_problem, m0, 0, 0.01)
        radius = np.sqrt(50 * spiked_problem.q)
        np.testing.assert_allclose(out, radius * m0 / np.linalg.norm(m0),
                                   atol=1e-12)

    def test_monotone_decrease_and_norm_preservation(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 4.0, 150, seed=32)
        nu = sl.spectral_init(inst.X, 4.0, method="iterative")
        amp = sl.amp_spiked(inst.X, np.zeros(150), 0.0, 4.0,
                            gaussian_mixture, 12, nu)
        prob = sl.spiked_tap_problem(inst.X, np.zeros(150), 4.0, 0.0,
                                     gaussian_mixture)
        hist = []
        out = sl.tangent_gd(prob, amp.m_hat, 25, 0.01, history=hist)
        vals = [h[0] for h in hist]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
        radius = np.sqrt(150 * prob.q)
        assert np.linalg.norm(out) == pytest.approx(radius, abs=1e-8)

    def test_gradient_norm_shrinks(self, gaussian_mixture):
        inst = sl.gen_spiked(gaussian_mixture, 4.0, 150, seed=33)
        nu = sl.spectral_init(inst.X, 4.0, method="iterative")
        amp = sl.amp_spiked(inst.X, np.zeros(150), 0.0, 4.0,
                            gaussian_mixture, 12, nu)
        prob = sl.spiked_tap_problem(inst.X, np.zeros(150), 4.0, 0.0,
                                     gaussian_mixture)
        hist = []
        sl.tangent_gd(prob, amp.m_hat, 200, 0.01, history=hist)
        assert hist[-1][1] <= hist[0][1] / 10.0

    def test_accepted_trial_evaluation_is_reused(self, gaussian_mixture,
                                                 monkeypatch):
        inst = sl.gen_spiked(gaussian_mixture, 3.0, 120, seed=34)
        nu = sl.spectral_init(inst.X, 3.0, method="iterative")
        amp = sl.amp_spiked(inst.X, np.zeros(120), 0.0, 3.0,
                            gaussian_mixture, 8, nu)
        prob = sl.spiked_tap_problem(inst.X, np.zeros(120), 3.0, 0.0,
                                     gaussian_mixture)
        calls = []
        f_tap = sl.tap.f_tap_spiked

        def counted(*args, **kwargs):
            calls.append(1)
            return f_tap(*args, **kwargs)

        monkeypatch.setattr(sl.tap, "f_tap_spiked", counted)
        hist = []
        sl.tangent_gd(prob, amp.m_hat, 5, 0.01, history=hist)
        halvings = sum(int(round(np.log2(0.01 / h[2]))) for h in hist)
        assert len(calls) == 5 + 1 + halvings


class TestTapLinearState:
    def test_from_natural_consistency(self, three_point):
        rng = stream(34, "nat")
        lam = rng.standard_normal(30)
        gam = 0.5 + 0.2 * rng.standard_normal(30)
        st = TapLinearState.from_natural(three_point, lam, gam)
        m, s = sl.tilted_moments(three_point, lam, gam)
        np.testing.assert_allclose(st.m, m, atol=1e-12)
        np.testing.assert_allclose(st.s, s, atol=1e-12)

    def test_from_moments_round_trip(self, three_point):
        rng = stream(35, "nat")
        lam = rng.standard_normal(25)
        gam = 0.3 * rng.standard_normal(25)
        m, s = sl.tilted_moments(three_point, lam, gam)
        st = TapLinearState.from_moments(three_point, m, s)
        np.testing.assert_allclose(st.m, m, atol=1e-8)
        np.testing.assert_allclose(st.s, s, atol=1e-8)

    def test_from_moments_nudges_infeasible(self, three_point):
        m = np.array([0.2, -0.1])
        s = m ** 2    # on the boundary: must be pushed inside
        st = TapLinearState.from_moments(three_point, m, s)
        assert np.all(st.s > st.m ** 2)

    def test_two_atom_slaved_second_moment(self, skewed_two_atom):
        m = np.array([0.1, 0.4])
        st = TapLinearState.from_moments(skewed_two_atom, m, np.ones(2))
        a, b = skewed_two_atom.atoms
        np.testing.assert_allclose(st.s, a * a + (st.m - a) * (a + b),
                                   atol=1e-10)
        np.testing.assert_allclose(st.gamma_nat, 0.0)


class TestFTapLinear:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup(three_point):
        inst = sl.gen_linear(three_point, 2.0, 0.25, 30, seed=36)
        rng = stream(36, "state")
        lam = 0.3 * rng.standard_normal(30)
        gam = 0.2 + 0.1 * rng.standard_normal(30)
        st = TapLinearState.from_natural(three_point, lam, gam)
        z = 0.4 * rng.standard_normal(30)
        return inst, st, z

    def test_value_matches_bivariate_legendre(self, setup, three_point):
        inst, st, _ = setup
        val, _, _ = sl.f_tap_linear(inst.X, inst.y0, 0.25, st)
        h_sum = sum(sl.legendre_h_bivariate(three_point, st.m[j], st.s[j])[0]
                    for j in range(30))
        resid = inst.y0 - inst.X @ st.m
        gap = st.s.mean() - (st.m ** 2).mean()
        direct = (0.5 * inst.n * np.log(2 * np.pi * 0.25) + h_sum
                  + 0.5 * resid @ resid / 0.25
                  + 0.5 * inst.n * np.log1p(gap / 0.25))
        assert val == pytest.approx(direct, abs=1e-9)

    def test_gradients_match_finite_differences(self, setup, three_point):
        inst, st, z = setup
        for side in (None, (z, 0.7)):
            val, gm, gs = sl.f_tap_linear(inst.X, inst.y0, 0.25, st,
                                          side=side)

            def val_at(m_vec, s_vec):
                h_sum = sum(sl.legendre_h_bivariate(
                    three_point, m_vec[j], s_vec[j])[0] for j in range(30))
                resid = inst.y0 - inst.X @ m_vec
                gap = s_vec.mean() - (m_vec ** 2).mean()
                v = (0.5 * inst.n * np.log(2 * np.pi * 0.25) + h_sum
                     + 0.5 * resid @ resid / 0.25
                     + 0.5 * inst.n * np.log1p(gap / 0.25))
                if side is not None:
                    zz, tt = side
                    dz = zz - tt * m_vec
                    v += 0.5 * dz @ dz / tt + 0.5 * tt * 30 * gap
                return v

            fdm = fd_gradient(lambda m: val_at(m, st.s), st.m.copy())
            fds = fd_gradient(lambda s: val_at(st.m, s), st.s.copy())
            assert np.abs(gm - fdm).max() <= 1e-5
            assert np.abs(gs - fds).max() <= 1e-5

    def test_side_terms_algebra(self, setup):
        # z = t m makes the side quadratic vanish, leaving t p (S - Q)/2
        inst, st, _ = setup
        t = 0.7
        v_plain, _, _ = sl.f_tap_linear(inst.X, inst.y0, 0.25, st)
        v_side, _, _ = sl.f_tap_linear(inst.X, inst.y0, 0.25, st,
                                       side=(t * st.m, t))
        gap = st.s.mean() - (st.m ** 2).mean()
        assert v_side - v_plain == pytest.approx(0.5 * t * 30 * gap,
                                                 abs=1e-9)

    def test_side_quadratic_diverges_only_through_z(self, setup):
        # for fixed z != 0 the quadratic blows up as t -> 0 through
        # ||z||^2/(2t); with z = 0 the side terms vanish in the limit
        inst, st, z = setup
        t = 1e-9
        v_plain, _, _ = sl.f_tap_linear(inst.X, inst.y0, 0.25, st)
        v_zero, _, _ = sl.f_tap_linear(inst.X, inst.y0, 0.25, st,
                                       side=(np.zeros(30), t))
        assert v_zero - v_plain == pytest.approx(0.0, abs=1e-6)
        v_div, _, _ = sl.f_tap_linear(inst.X, inst.y0, 0.25, st,
                                      side=(z, t))
        assert v_div - v_plain == pytest.approx(0.5 * (z @ z) / t,
                                                rel=1e-6)

    def test_boundary_second_moment_rejected(self, three_point):
        with pytest.raises(OutOfGamma):
            sl.legendre_h_bivariate(three_point, 0.3, 0.09)

    def test_nonpositive_variance_detected(self, setup, three_point):
        inst, st, _ = setup
        bad = TapLinearState(prior=three_point, m=st.m,
                             s=st.m ** 2 - 0.5, lam=st.lam,
                             gamma_nat=st.gamma_nat)
        with pytest.raises(NonpositiveVariance):
            sl.f_tap_linear(inst.X, inst.y0, 0.25, bad)


class TestNgdLinear:
    def test_zero_rate_is_identity(self, three_point):
        inst = sl.gen_linear(three_point, 2.0, 0.25, 40, seed=37)
        st = TapLinearState.from_natural(three_point, np.zeros(40),
                                         np.zeros(40))
        out = sl.ngd_linear(inst.X, inst.y0, 0.25, st, 5, 0.0)
        np.testing.assert_array_equal(out.m, st.m)

    def test_strict_descent(self, three_point):
        # start away from the minimizer (prior-moment state) so there is
        # room to descend
        inst = sl.gen_linear(three_point, 20.0, 0.25, 400, seed=38)
        init = TapLinearState.from_natural(three_point, np.zeros(400),
                                           np.zeros(400))
        hist = []
        sl.ngd_linear(inst.X, inst.y0, 0.25, init, 15, 0.02, history=hist)
        vals = [h[0] for h in hist]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_stationary_amp_init_stays_put(self, three_point):
        # at high SNR the AMP output is already the TAP minimizer; NGD must
        # hold it there (monotone, no increase)
        inst = sl.gen_linear(three_point, 20.0, 0.25, 400, seed=38)
        amp = sl.amp_linear(inst.X, inst.y0, three_point, 0.25,
                            inst.delta, 4)
        init = TapLinearState.from_natural(three_point, amp.lam, amp.gamma)
        hist = []
        out = sl.ngd_linear(inst.X, inst.y0, 0.25, init, 10, 0.02,
                            history=hist)
        vals = [h[0] for h in hist]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert np.sum((out.m - amp.m_hat) ** 2) / 400 <= 1e-6

    def test_iterates_stay_feasible(self, three_point):
        inst = sl.gen_linear(three_point, 2.0, 1.0, 60, seed=39)
        st = TapLinearState.from_natural(three_point, np.zeros(60),
                                         np.zeros(60))
        out = sl.ngd_linear(inst.X, inst.y0, 1.0, st, 10, 0.05)
        assert np.all(out.s > out.m ** 2)
        m_chk, s_chk = sl.tilted_moments(three_point, out.lam, out.gamma_nat)
        np.testing.assert_allclose(out.m, m_chk, atol=1e-8)
        np.testing.assert_allclose(out.s, s_chk, atol=1e-8)

    def test_step_rejected_for_absurd_rate(self, three_point):
        inst = sl.gen_linear(three_point, 2.0, 0.25, 40, seed=40)
        st = TapLinearState.from_natural(three_point, np.zeros(40),
                                         np.zeros(40))
        with pytest.raises(StepRejected):
            sl.ngd_linear(inst.X, inst.y0, 0.25, st, 3, 1e18)

    def test_improves_on_underconverged_amp(self, three_point):
        # exact posterior mean by enumeration over supp^p at p = 8
        p, delta, sigma2 = 8, 2.0, 1.0
        inst = sl.gen_linear(three_point, delta, sigma2, p, seed=41)
        atoms = three_point.atoms
        idx = np.stack(np.meshgrid(*[np.arange(3)] * p,
                                   indexing="ij")).reshape(3 ** p, p,
                                                           order="F")
        idx = np.indices((3,) * p).reshape(p, -1).T
        configs = atoms[idx]
        logw = (-0.5 * np.sum((inst.y0 - configs @ inst.X.T) ** 2,
                              axis=1) / sigma2
                + np.log(three_point.weights)[idx].sum(axis=1))
        w = np.exp(logw - logw.max())
        w /= w.sum()
        m_exact = w @ configs

        amp = sl.amp_linear(inst.X, inst.y0, three_point, sigma2,
                            inst.delta, 1)
        init = TapLinearState.from_natural(three_point, amp.lam, amp.gamma)
        out = sl.ngd_linear(inst.X, inst.y0, sigma2, init, 60, 0.05)
        err_amp = np.sum((amp.m_hat - m_exact) ** 2) / p
        err_ngd = np.sum((out.m - m_exact) ** 2) / p
        assert err_ngd <= err_amp + 1e-12


class TestTraceExports:
    def test_optimizer_trace_csv(self, gaussian_mixture, tmp_path):
        inst = sl.gen_spiked(gaussian_mixture, 4.0, 60, seed=43)
        prob = sl.spiked_tap_problem(inst.X, np.zeros(60), 4.0, 0.0,
                                     gaussian_mixture)
        nu = sl.spectral_init(inst.X, 4.0)
        amp = sl.amp_spiked(inst.X, np.zeros(60), 0.0, 4.0,
                            gaussian_mixture, 8, nu)
        hist = []
        sl.tangent_gd(prob, amp.m_hat, 5, 0.01, history=hist)
        path = tmp_path / "trace.csv"
        sl.write_optimizer_trace(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,value,grad_norm_over_n,step_size"
        assert len(lines) == 6


class TestBatchedNgd:
    def test_columns_match_independent_runs(self, three_point):
        inst = sl.gen_linear(three_point, 5.0, 0.5, 50, seed=42)
        rng = stream(42, "cols")
        ys = inst.y0[:, None] + 0.3 * rng.standard_normal((inst.n, 3))
        lam0 = np.zeros((50, 3))
        st = TapLinearState.from_natural(three_point, lam0, np.zeros((50, 3)))
        out = sl.ngd_linear(inst.X, ys, 0.5, st, 8, 0.03)
        for r in range(3):
            st_r = TapLinearState.from_natural(three_point, np.zeros(50),
                                               np.zeros(50))
            out_r = sl.ngd_linear(inst.X, ys[:, r], 0.5, st_r, 8, 0.03)
            np.testing.assert_allclose(out.m[:, r], out_r.m, atol=1e-9)
