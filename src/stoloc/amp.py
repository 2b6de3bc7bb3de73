"""Approximate message passing iterations.

Four variants share this module: the spiked-matrix AMP with spectral
initialization, the matrix-observation AMP, and the linear-regression AMP
with and without side information. All Onsager coefficients come from the
deterministic state-evolution module, never from the iterates, so runs are
reproducible. Iterations are deterministic given their inputs; every
variant accepts a batch of column-stacked observation vectors.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    SubcriticalTime,
    SymmetricPrior,
    WeakCharacteristic,
)
from .priors import char_fn_imag, denoise, mmse, posterior_mean
from .se import run_se_linear, run_se_spiked

SIGN_GRID_POINTS = 500
SIGN_GRID_STEP = 0.02           # grid t0 = j * 0.02 / (beta^2 - 1)
SIGN_IMAG_FLOOR = 1e-6


@dataclass
class AmpState:
    """Iterates of one AMP run (vectors, or matrices of stacked runs)."""

    k: int
    m_hat: np.ndarray
    m_hat_prev: np.ndarray | None = None
    z: np.ndarray | None = None          # spiked/matrix variants
    a: np.ndarray | None = None          # linear variant
    b: np.ndarray | None = None
    s_hat: np.ndarray | None = None      # posterior second moments (linear)
    gamma: float | None = None           # channel strength of the output
    lam: np.ndarray | None = None        # natural tilt of the output channel
    trace: dict = field(default_factory=dict)


def _record(trace, state_m, theta):
    n = state_m.shape[0]
    trace.setdefault("norm_sq_over_n", []).append(
        np.sum(state_m * state_m, axis=0) / n)
    if theta is not None:
        trace.setdefault("overlap_over_n", []).append(
            theta @ state_m / n)


def trace_rows(state, prior, se_gammas):
    """Per-iteration trace rows ``(k, norm_sq_over_n, overlap_over_n,
    se_prediction)`` for CSV export; the prediction is
    ``1 - mmse(gamma^k)``. Needs a state recorded with ground truth."""
    norms = state.trace.get("norm_sq_over_n", [])
    overlaps = state.trace.get("overlap_over_n", [None] * len(norms))
    rows = []
    for k, (nrm, ov) in enumerate(zip(norms, overlaps)):
        pred = 1.0 - mmse(prior, float(se_gammas[k]))
        rows.append((k, float(np.ravel(nrm)[0]),
                     float(np.ravel(ov)[0]) if ov is not None else float("nan"),
                     pred))
    return rows


def amp_spiked(x, y, t, beta, prior, K, nu, theta=None,
               allow_subcritical=False):
    """Bayes AMP for the spiked model at side-information time ``t``.

    ``z^{k+1} = beta X m^k + y - b^k m^{k-1}`` with ``m^k = F(z^k; gamma^k)``,
    started from the spectral vector ``nu`` (``m^{-1} = 0``); the
    ``gamma^k``/Onsager sequences come from the spiked state evolution.
    ``y`` and ``nu`` may be ``(n,)`` or ``(n, R)`` for R stacked runs.
    """
    n = x.shape[0]
    y = np.asarray(y, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if y.shape[0] != n or nu.shape[0] != n:
        raise DimensionMismatch("y and nu must have leading dimension n")
    if y.ndim == 2 and nu.ndim == 1:
        nu = np.broadcast_to(nu[:, None], y.shape).copy()
    se = run_se_spiked(prior, beta, t, K, allow_subcritical=allow_subcritical)
    trace = {}
    z = nu + np.zeros_like(y)
    m = posterior_mean(prior, z, se.gammas[0])
    m_prev = np.zeros_like(m)
    if theta is not None:
        _record(trace, np.atleast_2d(m.T).T, theta)
    for k in range(int(K)):
        z = beta * (x @ m) + y - se.onsager[k] * m_prev
        m_prev = m
        m = posterior_mean(prior, z, se.gammas[k + 1])
        if theta is not None:
            _record(trace, np.atleast_2d(m.T).T, theta)
    kk = int(K)
    return AmpState(k=kk, m_hat=m, m_hat_prev=m_prev, z=z,
                    gamma=float(se.gammas[kk]), trace=trace)


def sign_align(prior, beta, nu):
    """Decide the sign aligning ``nu`` with the hidden signal.

    Evaluates ``T_n(nu) = mean(sin(t0 * nu_i))`` at the grid point ``t0``
    maximizing the prior characteristic function's imaginary part at
    ``(beta^2 - 1) t0``, and returns the sign of ``T_n`` (flipped when that
    imaginary part is negative). Ties break to +1. Only defined for
    non-symmetric priors with beta > 1.
    """
    if prior.is_symmetric:
        raise SymmetricPrior("sign alignment needs a non-symmetric prior")
    if beta <= 1:
        raise ValueError("sign alignment needs beta > 1")
    b2m1 = beta * beta - 1.0
    t_grid = SIGN_GRID_STEP / b2m1 * np.arange(1, SIGN_GRID_POINTS + 1)
    imag = char_fn_imag(prior, b2m1 * t_grid)
    j = int(np.argmax(np.abs(imag)))
    if abs(imag[j]) < SIGN_IMAG_FLOOR:
        raise WeakCharacteristic("characteristic function too weak on grid")
    t0 = t_grid[j]
    tn = float(np.mean(np.sin(t0 * np.asarray(nu, dtype=float))))
    if imag[j] < 0:
        tn = -tn
    return 1 if tn >= 0 else -1


def amp_matrix(y_mat, t, prior, K, nu_t, theta=None):
    """Bayes AMP on the matrix-valued observation process at time ``t > 1``.

    ``z^{k+1} = Y m^k - b~^k m^{k-1}`` with ``m^k = F(z^k; alpha~^k)``, the
    recursion ``alpha~^0 = t - 1``, ``alpha~^{k+1} = t (1 - mmse(alpha~^k))``
    and ``b~^k = t mmse(alpha~^k)``; ``nu_t`` must be a top eigenvector of Y
    scaled to ``||nu_t||^2 = n t (t - 1)``.
    """
    if t <= 1:
        raise SubcriticalTime("matrix AMP needs t > 1")
    n = y_mat.shape[0]
    nu_t = np.asarray(nu_t, dtype=float)
    if nu_t.shape[0] != n:
        raise DimensionMismatch("nu_t must have leading dimension n")
    alphas = [t - 1.0]
    for _ in range(int(K)):
        alphas.append(t * (1.0 - mmse(prior, alphas[-1])))
    trace = {}
    z = nu_t.copy()
    m = posterior_mean(prior, z, alphas[0])
    m_prev = np.zeros_like(m)
    if theta is not None:
        _record(trace, np.atleast_2d(m.T).T, theta)
    for k in range(int(K)):
        b_k = t * mmse(prior, alphas[k])
        z = y_mat @ m - b_k * m_prev
        m_prev = m
        m = posterior_mean(prior, z, alphas[k + 1])
        if theta is not None:
            _record(trace, np.atleast_2d(m.T).T, theta)
    return AmpState(k=int(K), m_hat=m, m_hat_prev=m_prev, z=z,
                    gamma=float(alphas[int(K)]), trace=trace)


def amp_linear_side(x, y0, z_side, t, prior, sigma2, delta, K, theta=None):
    """Bayes AMP for the linear model with Gaussian side information.

    Alternates ``a^k = X g_k(b^k, z) - eta_k f_{k-1}(a^{k-1}, y0)`` and
    ``b^{k+1} = X^T f_k(a^k, y0) - xi_k g_k(b^k, z)`` from ``a^{-1} = 0``;
    the Bayes nonlinearities are ``f_k(x, y) = sigma2 (y - x)/(sigma2 + E_k)``
    and the channel denoiser at strength ``gamma_k + t`` applied to
    ``sigma^{-2} b + z``. Returns the posterior mean and second-moment
    estimates plus the output channel's natural parameters (used to seed
    the TAP stage). ``y0``/``z_side`` may be ``(n,)``/``(p,)`` or stacked
    ``(n, R)``/``(p, R)``.
    """
    n, p = x.shape
    y0 = np.asarray(y0, dtype=float)
    z_side = np.asarray(z_side, dtype=float)
    if y0.shape[0] != n:
        raise DimensionMismatch("y0 must have leading dimension n")
    if z_side.shape[0] != p:
        raise DimensionMismatch("z_side must have leading dimension p")
    if y0.ndim == 2 and z_side.ndim == 1:
        z_side = np.broadcast_to(z_side[:, None], (p, y0.shape[1])).copy()
    se = run_se_linear(prior, delta, sigma2, t, K)
    inv_s2 = 1.0 / sigma2

    def f(k, a_vec):
        return sigma2 * (y0 - a_vec) / (sigma2 + se.Es[k + 1])

    trace = {}
    a_prev = np.zeros_like(y0)
    b = x.T @ f(-1, a_prev)
    # the trace's gamma_k = delta/(sigma2 + E_{k-1}) + t is already the
    # combined data + side channel strength
    for k in range(int(K)):
        m = posterior_mean(prior, inv_s2 * b + z_side, se.gammas[k])
        if theta is not None:
            _record(trace, np.atleast_2d(m.T).T, theta)
        a = x @ m - se.onsager_eta[k] * f(k - 1, a_prev)
        b = x.T @ f(k, a) - se.onsager_xi[k] * m
        a_prev = a
    # only the output needs the second moment (it seeds the TAP stage)
    kk = int(K)
    obs = inv_s2 * b + z_side
    ev = denoise(prior, obs, se.gammas[kk])
    if theta is not None:
        _record(trace, np.atleast_2d(ev.mean.T).T, theta)
    return AmpState(k=kk, m_hat=ev.mean, s_hat=ev.second_moment,
                    a=a_prev, b=b, gamma=float(se.gammas[kk]), lam=obs,
                    trace=trace)


def amp_linear(x, y0, prior, sigma2, delta, K, theta=None):
    """Bayes AMP for the plain linear model (side information t=0, z=0)."""
    p = x.shape[1]
    y0 = np.asarray(y0, dtype=float)
    z_shape = (p,) if y0.ndim == 1 else (p, y0.shape[1])
    return amp_linear_side(x, y0, np.zeros(z_shape), 0.0, prior, sigma2,
                           delta, K, theta=theta)
