"""Diffusion sampling loops.

One Euler discretization of the localization SDE (``y <- y + drift * dt +
sqrt(dt) * noise`` from the origin) drives every sampler here; the variants
differ only in the drift oracle: spiked AMP, AMP + tangent descent,
AMP + NGD on the linear TAP, NGD-only at low SNR, and the matrix-valued
observation process. Repetition-batched runners share the instance (and
its spectral initialization) across runs and stack the runs column-wise so
the drift reduces to matrix products.
"""

from dataclasses import dataclass, field

import numpy as np

from .amp import amp_linear, amp_matrix, amp_spiked, sign_align
from .errors import (
    DimensionMismatch,
    NonpositiveTopEigenvalue,
    OracleFailure,
    SubcriticalBeta,
)
from .model import sample_goe, spectral_init, top_eigpair
from .rng import stream
from .se import amp_depth
from .tap import (
    TapLinearState,
    f_tap_linear,
    ngd_linear,
    spiked_tap_problem,
    tangent_gd,
)

T_FLOOR = 1e-12     # side-information time fed to drift oracles at step 0
SYMMETRY_RTOL = 1e-12   # |X - X^T| allowed, relative to max |X|


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning knobs of the sampling loops.

    ``K_AMP`` caps the AMP iterations per drift. The spiked samplers run
    AMP at each step only until state evolution has converged
    (``|gamma^k - gamma*| <= AMP_SE_RTOL gamma*``, see
    :func:`stoloc.se.amp_depth`; ``AMP_SE_RTOL = 1e-8`` keeps the drift
    within 5e-4 RMS of a 15-iteration run at n = 1000) and record the
    depths in ``diagnostics["amp_iterations"]``; the linear samplers and
    the matrix process run exactly ``K_AMP``.
    """

    L: int
    Delta: float
    K_AMP: int = 0
    K_GD: int = 0
    K_NGD: int = 0
    zeta: float = 0.0
    eta: float = 0.0
    seed: int = 0
    record_trajectory: bool = False
    record_coords: int = 2
    projection_radius: float | None = None

    def __post_init__(self):
        if self.L < 1 or self.Delta <= 0:
            raise ValueError("need L >= 1 and Delta > 0")
        if min(self.K_AMP, self.K_GD, self.K_NGD) < 0:
            raise ValueError("iteration counts must be nonnegative")


@dataclass
class RunRecord:
    """Output and optional per-step diagnostics of one sampling run."""

    theta_alg: np.ndarray
    y_trajectory: np.ndarray | None = None
    drift_trajectory: np.ndarray | None = None
    sign_used: int | None = None
    diagnostics: dict = field(default_factory=dict)


def _project(theta, radius):
    if radius is None:
        return theta
    cap = radius * np.sqrt(theta.shape[0])
    nrm = np.sqrt(np.sum(theta * theta, axis=0))
    scale = np.where(nrm > cap, cap / np.maximum(nrm, 1e-300), 1.0)
    return theta * scale


def _euler_loop(drift, dim, config, rng, reps=None, final=None):
    """Shared Euler discretization. ``drift(y, t)`` sees ``t_floor`` at step
    0 and must accept ``(dim,)`` (or ``(dim, reps)``) arrays."""
    batched = reps is not None
    shape = (dim, reps) if batched else (dim,)
    y = np.zeros(shape)
    diag = {"t": [], "y_norm_over_sqrt_dim": [], "drift_norm_sq_over_dim": []}
    coords = []
    y_traj = [] if config.record_trajectory else None
    d_traj = [] if config.record_trajectory else None
    sq = np.sqrt(dim)

    def call(step, t_raw):
        t = max(t_raw, T_FLOOR)
        try:
            return np.asarray(drift(y, t), dtype=float)
        except Exception as exc:            # noqa: BLE001 - wrapped with step
            raise OracleFailure(step, exc) from exc

    for ell in range(config.L):
        t = ell * config.Delta
        m = call(ell, t)
        diag["t"].append(t)
        diag["y_norm_over_sqrt_dim"].append(np.sqrt(np.sum(y * y, axis=0)) / sq)
        diag["drift_norm_sq_over_dim"].append(np.sum(m * m, axis=0) / dim)
        if config.record_coords:
            coords.append(m[:config.record_coords].copy())
        if y_traj is not None:
            y_traj.append(y.copy())
            d_traj.append(m.copy())
        y = y + config.Delta * m + np.sqrt(config.Delta) * \
            rng.standard_normal(shape)
    t_final = config.L * config.Delta
    m = call(config.L, t_final)
    diag["t"].append(t_final)
    diag["y_norm_over_sqrt_dim"].append(np.sqrt(np.sum(y * y, axis=0)) / sq)
    diag["drift_norm_sq_over_dim"].append(np.sum(m * m, axis=0) / dim)
    if config.record_coords:
        coords.append(m[:config.record_coords].copy())
    if y_traj is not None:
        y_traj.append(y.copy())
        d_traj.append(m.copy())
    if config.record_coords:
        diag["drift_coords"] = np.asarray(coords)
    for k in ("t", "y_norm_over_sqrt_dim", "drift_norm_sq_over_dim"):
        diag[k] = np.asarray(diag[k])
    theta = m if final is None else final(y, t_final)
    return y, theta, diag, y_traj, d_traj


def _pack_record(theta, diag, y_traj, d_traj, sign=None):
    return RunRecord(
        theta_alg=theta,
        y_trajectory=None if y_traj is None else np.asarray(y_traj),
        drift_trajectory=None if d_traj is None else np.asarray(d_traj),
        sign_used=sign,
        diagnostics=diag,
    )


def _split_records(theta, diag, y_traj, d_traj, signs, reps):
    """Split column-stacked batch output into per-rep records."""
    records = []
    for r in range(reps):
        d = {k: (v[..., r] if np.ndim(v) > 1 else v) for k, v in diag.items()}
        records.append(RunRecord(
            theta_alg=theta[:, r],
            y_trajectory=None if y_traj is None else
            np.asarray(y_traj)[:, :, r],
            drift_trajectory=None if d_traj is None else
            np.asarray(d_traj)[:, :, r],
            sign_used=None if signs is None else int(signs[r]),
            diagnostics=d,
        ))
    return records


# ---------------------------------------------------------------------------
# general scheme
# ---------------------------------------------------------------------------

def localize_general(drift_oracle, final_oracle, dim, config, rng=None):
    """Euler discretization of the localization SDE with caller oracles.

    ``y_{l+1} = y_l + Delta * drift(y_l, l Delta) + sqrt(Delta) w`` from
    ``y_0 = 0``; the output is ``final_oracle(y_L, L Delta)`` (the drift
    oracle when ``final_oracle`` is None), optionally projected onto the
    ball of radius ``projection_radius * sqrt(dim)``.
    """
    rng = stream(config.seed, "general") if rng is None else rng
    y, theta, diag, y_traj, d_traj = _euler_loop(
        drift_oracle, dim, config, rng, final=final_oracle)
    return _pack_record(_project(theta, config.projection_radius),
                        diag, y_traj, d_traj)


def localize_general_many(drift_oracle, final_oracle, dim, config, reps,
                          rng=None):
    """Batched :func:`localize_general`; the oracles see ``(dim, reps)``."""
    rng = stream(config.seed, "general-batch") if rng is None else rng
    y, theta, diag, y_traj, d_traj = _euler_loop(
        drift_oracle, dim, config, rng, reps=reps, final=final_oracle)
    return _split_records(_project(theta, config.projection_radius),
                          diag, y_traj, d_traj, None, reps)


# ---------------------------------------------------------------------------
# spiked model, discrete prior
# ---------------------------------------------------------------------------

def _check_spiked_x(x):
    """Reject an observation matrix that is not square, finite and
    symmetric; run once per sampling call, not per AMP iteration."""
    if np.ndim(x) != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch("X must be a square 2-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("X must be finite")
    if np.max(np.abs(x - x.T), initial=0.0) > \
            SYMMETRY_RTOL * np.max(np.abs(x), initial=0.0):
        raise ValueError("X must be symmetric")


def _scheduled_amp(x, beta, prior, K, nu, allow_subcritical, depths):
    """AMP estimate ``amp_at(y, t)`` run to the state-evolution depth
    :func:`amp_depth` at ``t`` (at most ``K``); each depth is appended to
    ``depths``."""

    def amp_at(y, t):
        k = amp_depth(prior, beta, t, K)
        depths.append(k)
        return amp_spiked(x, y, t, beta, prior, k, nu,
                          allow_subcritical=allow_subcritical).m_hat

    return amp_at


def _spiked_nu(x, beta, prior, rng, allow_subcritical, eig_method):
    if beta <= 1:
        if not allow_subcritical:
            raise SubcriticalBeta("sampling needs beta > 1")
        return np.zeros(x.shape[0])
    nu = spectral_init(x, beta, rng=rng, method=eig_method)
    if not prior.is_symmetric:
        nu = sign_align(prior, beta, nu) * nu
    return nu


def sample_spiked_discrete(x, beta, prior, config, rng=None, nu=None,
                           allow_subcritical=False, eig_method="auto"):
    """Posterior sampling for the spiked model with a discrete prior.

    Spectral initialization (sign-aligned for non-symmetric priors), AMP
    drift restarted from it at every step and run to the state-evolution
    depth, and a final uniform sign flip for symmetric priors.
    """
    if not prior.is_discrete:
        raise ValueError("discrete-prior sampler needs a discrete prior")
    _check_spiked_x(x)
    rng = stream(config.seed, "spiked") if rng is None else rng
    if nu is None:
        nu = _spiked_nu(x, beta, prior, rng, allow_subcritical, eig_method)
    depths = []
    drift = _scheduled_amp(x, beta, prior, config.K_AMP, nu,
                           allow_subcritical, depths)
    _, m, diag, y_traj, d_traj = _euler_loop(drift, x.shape[0], config, rng)
    diag["amp_iterations"] = np.asarray(depths)
    s = int(rng.choice([-1, 1])) if prior.is_symmetric else 1
    theta = _project(s * m, config.projection_radius)
    return _pack_record(theta, diag, y_traj, d_traj, sign=s)


def sample_spiked_discrete_many(x, beta, prior, config, reps, rng=None,
                                nu=None, allow_subcritical=False,
                                eig_method="auto"):
    """Repetition-batched discrete sampler sharing one instance.

    The spectral vector (and its random sign) is drawn once per instance,
    matching the definition of the sign-broken tilted measure; runs are
    stacked column-wise so each AMP pass is a single matrix product.
    """
    if not prior.is_discrete:
        raise ValueError("discrete-prior sampler needs a discrete prior")
    _check_spiked_x(x)
    rng = stream(config.seed, "spiked-batch") if rng is None else rng
    if nu is None:
        nu = _spiked_nu(x, beta, prior, rng, allow_subcritical, eig_method)
    depths = []
    drift = _scheduled_amp(x, beta, prior, config.K_AMP, nu,
                           allow_subcritical, depths)
    _, m, diag, y_traj, d_traj = _euler_loop(drift, x.shape[0], config, rng,
                                             reps=reps)
    diag["amp_iterations"] = np.asarray(depths)
    if prior.is_symmetric:
        signs = rng.choice([-1, 1], size=reps)
    else:
        signs = np.ones(reps, dtype=int)
    theta = _project(m * signs, config.projection_radius)
    return _split_records(theta, diag, y_traj, d_traj, signs, reps)


def round_to_support(m, prior, rng):
    """Randomized rounding of a mean vector onto the prior support.

    Each coordinate moves to one of its two neighboring atoms with the
    probabilities that make the rounding conditionally unbiased (after
    clamping to the support range). Coordinates are independent.
    """
    if not prior.is_discrete:
        raise ValueError("rounding needs a discrete prior")
    atoms = prior.atoms
    m = np.clip(np.asarray(m, dtype=float), atoms[0], atoms[-1])
    hi_idx = np.searchsorted(atoms, m, side="right")
    at_top = hi_idx >= len(atoms)
    hi_idx = np.minimum(hi_idx, len(atoms) - 1)
    lo = atoms[np.maximum(hi_idx - 1, 0)]
    hi = atoms[hi_idx]
    gap = hi - lo
    p_hi = np.where(gap > 0, (m - lo) / np.where(gap > 0, gap, 1.0), 0.0)
    take_hi = rng.random(m.shape) < p_hi
    out = np.where(take_hi, hi, lo)
    return np.where(at_top, atoms[-1], out)


# ---------------------------------------------------------------------------
# spiked model, continuous prior
# ---------------------------------------------------------------------------

def sample_spiked_continuous(x, beta, prior, config, rng=None, nu=None,
                             eig_method="auto"):
    """Posterior sampling for the spiked model with a continuous prior.

    The per-step drift is tangent-space gradient descent on the TAP free
    energy (sphere radius ``sqrt(n q_{beta,t})``), initialized at the AMP
    output (run to the state-evolution depth); ``K_GD = 0`` reduces to the
    sphere-projected AMP drift.
    """
    if prior.is_discrete:
        raise ValueError("continuous-prior sampler needs a continuous prior")
    _check_spiked_x(x)
    if beta <= 1:
        raise SubcriticalBeta("sampling needs beta > 1")
    rng = stream(config.seed, "spiked-cont") if rng is None else rng
    if nu is None:
        nu = spectral_init(x, beta, rng=rng, method=eig_method)
        if not prior.is_symmetric:
            nu = sign_align(prior, beta, nu) * nu
    depths = []
    amp_at = _scheduled_amp(x, beta, prior, config.K_AMP, nu, False, depths)

    def drift(y, t):
        m_amp = amp_at(y, t)
        problem = spiked_tap_problem(x, y, beta, t, prior)
        return tangent_gd(problem, m_amp, config.K_GD, config.zeta)

    _, m, diag, y_traj, d_traj = _euler_loop(drift, x.shape[0], config, rng)
    diag["amp_iterations"] = np.asarray(depths)
    s = int(rng.choice([-1, 1])) if prior.is_symmetric else 1
    theta = _project(s * m, config.projection_radius)
    return _pack_record(theta, diag, y_traj, d_traj, sign=s)


# ---------------------------------------------------------------------------
# linear model
# ---------------------------------------------------------------------------

def _linear_estimate(x, y_eff, prior, sigma2_eff, delta, config):
    """Two-stage posterior-mean estimate: Bayes AMP then NGD on the TAP."""
    state_amp = amp_linear(x, y_eff, prior, sigma2_eff, delta, config.K_AMP)
    if config.K_NGD == 0:
        return state_amp.m_hat
    init = TapLinearState.from_natural(prior, state_amp.lam, state_amp.gamma)
    out = ngd_linear(x, y_eff, sigma2_eff, init, config.K_NGD, config.eta)
    return out.m


def sample_linear_high_snr(x, y0, prior, sigma2, delta, config, rng=None):
    """Posterior sampling for the linear model through the observation
    process of the sufficient statistics.

    ``y_hat`` starts at ``y0 / sigma2``; at step ``l`` the effective data is
    ``(X, y_hat / t_l)`` at noise ``1 / t_l`` with ``t_l = 1/sigma2 + l
    Delta``, estimated by AMP + NGD, and the drift is ``X`` times that
    estimate. Returns the estimate at ``t_L``.
    """
    rng = stream(config.seed, "linear-high") if rng is None else rng
    n = x.shape[0]
    inv_s2 = 1.0 / sigma2
    y_hat = np.asarray(y0, dtype=float) * inv_s2

    diag = {"t": [], "y_norm_over_sqrt_dim": [], "drift_norm_sq_over_dim": []}
    m_est = None
    for ell in range(config.L):
        t_ell = inv_s2 + ell * config.Delta
        try:
            m_est = _linear_estimate(x, y_hat / t_ell, prior, 1.0 / t_ell,
                                     delta, config)
        except Exception as exc:            # noqa: BLE001
            raise OracleFailure(ell, exc) from exc
        diag["t"].append(ell * config.Delta)
        diag["y_norm_over_sqrt_dim"].append(np.linalg.norm(y_hat) / np.sqrt(n))
        diag["drift_norm_sq_over_dim"].append(
            float(m_est @ m_est) / x.shape[1])
        y_hat = y_hat + (x @ m_est) * config.Delta \
            + np.sqrt(config.Delta) * rng.standard_normal(y_hat.shape)
    t_fin = inv_s2 + config.L * config.Delta
    try:
        m_est = _linear_estimate(x, y_hat / t_fin, prior, 1.0 / t_fin,
                                 delta, config)
    except Exception as exc:                # noqa: BLE001
        raise OracleFailure(config.L, exc) from exc
    for k in diag:
        diag[k] = np.asarray(diag[k])
    theta = _project(m_est, config.projection_radius)
    return _pack_record(theta, diag, None, None)


def sample_linear_high_snr_many(x, y0, prior, sigma2, delta, config, reps,
                                rng=None):
    """Repetition-batched high-SNR linear sampler (stacked columns)."""
    rng = stream(config.seed, "linear-high-batch") if rng is None else rng
    n, p = x.shape
    inv_s2 = 1.0 / sigma2
    y_hat = np.tile((y0 * inv_s2)[:, None], (1, reps))

    def estimate(y_now, t_ell):
        state_amp = amp_linear(x, y_now / t_ell, prior, 1.0 / t_ell, delta,
                               config.K_AMP)
        if config.K_NGD == 0:
            return state_amp.m_hat
        init = TapLinearState.from_natural(prior, state_amp.lam,
                                           state_amp.gamma)
        out = ngd_linear(x, y_now / t_ell, 1.0 / t_ell, init, config.K_NGD,
                         config.eta)
        return out.m

    for ell in range(config.L):
        t_ell = inv_s2 + ell * config.Delta
        try:
            m_est = estimate(y_hat, t_ell)
        except Exception as exc:            # noqa: BLE001
            raise OracleFailure(ell, exc) from exc
        y_hat = y_hat + (x @ m_est) * config.Delta \
            + np.sqrt(config.Delta) * rng.standard_normal((n, reps))
    t_fin = inv_s2 + config.L * config.Delta
    try:
        m_est = estimate(y_hat, t_fin)
    except Exception as exc:                # noqa: BLE001
        raise OracleFailure(config.L, exc) from exc
    theta = _project(m_est, config.projection_radius)
    return [RunRecord(theta_alg=theta[:, r]) for r in range(reps)]


def sample_linear_low_snr(x, y0, prior, sigma2, delta, config, rng=None):
    """Posterior sampling for the linear model at low SNR.

    Tracks the coefficient-space localization process: the drift is the
    mean of the NGD minimizer of the side-information TAP free energy at
    ``(z_l, l Delta)``, started from the prior-moment constant state
    (no AMP stage). The ``l = 0`` step has an empty side channel and drops
    the side terms.
    """
    rng = stream(config.seed, "linear-low") if rng is None else rng
    p = x.shape[1]

    def drift(z, t):
        side = None if t <= T_FLOOR else (z, t)
        init = TapLinearState.from_natural(
            prior, np.zeros_like(z), np.zeros_like(z))
        out = ngd_linear(x, y0, sigma2, init, config.K_NGD, config.eta,
                         side=side)
        return out.m

    _, m, diag, y_traj, d_traj = _euler_loop(drift, p, config, rng)
    theta = _project(m, config.projection_radius)
    return _pack_record(theta, diag, y_traj, d_traj)


def sample_linear_low_snr_many(x, y0, prior, sigma2, delta, config, reps,
                               rng=None):
    """Repetition-batched low-SNR linear sampler (stacked columns)."""
    rng = stream(config.seed, "linear-low-batch") if rng is None else rng
    p = x.shape[1]
    y0_tiled = np.tile(np.asarray(y0, dtype=float)[:, None], (1, reps))

    def drift(z, t):
        side = None if t <= T_FLOOR else (z, t)
        init = TapLinearState.from_natural(prior, np.zeros_like(z),
                                           np.zeros_like(z))
        out = ngd_linear(x, y0_tiled, sigma2, init, config.K_NGD, config.eta,
                         side=side)
        return out.m

    _, m, diag, y_traj, d_traj = _euler_loop(drift, p, config, rng,
                                             reps=reps)
    theta = _project(m, config.projection_radius)
    return _split_records(theta, diag, y_traj, d_traj, None, reps)


# ---------------------------------------------------------------------------
# spiked model, matrix observation process
# ---------------------------------------------------------------------------

def sample_spiked_matrix_process(x, beta, prior, config, rng=None):
    """Posterior sampling through the matrix-valued observation process.

    ``Y_hat`` starts at ``beta X`` (time ``beta^2``) and evolves by the
    Euler rule with GOE increments; the drift is the rank-one matrix
    ``m m^T / n`` built from the matrix AMP estimate. The final sample is
    read off the top eigenpair of the final drift matrix, with the sign
    drawn uniformly for symmetric priors and fixed by the alignment
    statistic otherwise.
    """
    if beta <= 1:
        raise SubcriticalBeta("matrix-process sampling needs beta > 1")
    rng = stream(config.seed, "spiked-matrix") if rng is None else rng
    n = x.shape[0]
    y_mat = beta * x.copy()
    v_warm = [None]

    def m_amp_at(step, t):
        try:
            _, v1 = top_eigpair(y_mat, rng=rng, method="iterative",
                                v0=v_warm[0])
            v_warm[0] = v1 if v1[0] >= 0 else -v1
            nu_t = np.sqrt(n * t * (t - 1.0)) * v1
            return amp_matrix(y_mat, t, prior, config.K_AMP, nu_t).m_hat
        except Exception as exc:            # noqa: BLE001
            raise OracleFailure(step, exc) from exc

    diag = {"t": [], "drift_norm_sq_over_dim": []}
    for ell in range(config.L):
        t = ell * config.Delta + beta * beta
        m = m_amp_at(ell, t)
        diag["t"].append(t)
        diag["drift_norm_sq_over_dim"].append(float(m @ m) / n)
        y_mat = y_mat + np.outer(m, m) / n * config.Delta \
            + np.sqrt(config.Delta) * sample_goe(n, rng)
    t_fin = config.L * config.Delta + beta * beta
    m = m_amp_at(config.L, t_fin)
    for k in diag:
        diag[k] = np.asarray(diag[k])
    # final drift matrix m m^T / n is rank one: top eigenpair in closed form
    lam1 = float(m @ m) / n
    if lam1 <= 0:
        raise NonpositiveTopEigenvalue("final matrix estimate vanished")
    v1 = m / np.linalg.norm(m)
    if rng.random() < 0.5:
        v1 = -v1
    if prior.is_symmetric:
        s = int(rng.choice([-1, 1]))
    else:
        s = sign_align(prior, beta, np.sqrt(n) * v1)
    theta = _project(s * np.sqrt(n * lam1) * v1, config.projection_radius)
    return _pack_record(theta, diag, None, None, sign=s)
