"""Scalar state evolution, fixed points and free-energy potentials.

The spiked recursion tracks the effective signal strength ``gamma^k`` of
the AMP iterates; the linear recursion tracks the per-coordinate error
``E_k``. Fixed points are obtained by continuing the recursion itself
(monotone/contractive in the regimes covered here); potentials are exposed
for diagnostics and the fixed-point scan.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, NonpositiveGamma, SubcriticalBeta
from .priors import mmse, mutual_info

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_STEPS = 100_000


@dataclass(frozen=True)
class SpikedSETrace:
    """gamma/Onsager sequences for the spiked AMP at side-information time t."""

    beta: float
    t: float
    gammas: np.ndarray          # gamma^0 .. gamma^K
    onsager: np.ndarray         # b^0 .. b^K, b^k = beta^2 mmse(gamma^k)
    gamma_star: float
    q: float                    # 1 - mmse(gamma_star)
    phi_at_fixed_points: list = field(default_factory=list)


@dataclass(frozen=True)
class LinearSETrace:
    """E/Onsager sequences for the linear AMP at side-information time t."""

    delta: float
    sigma2: float
    t: float
    Es: np.ndarray              # E_{-1} .. E_K
    gammas: np.ndarray          # gamma_k = delta/(sigma2 + E_{k-1}) + t
    onsager_xi: np.ndarray      # xi_k = -delta sigma2 / (sigma2 + E_k)
    onsager_eta: np.ndarray     # eta_k = E_k / sigma2
    E_star: float


def _gamma_star(prior, beta, t):
    """Spiked fixed point, continuing the recursion from gamma^0; cached
    per (beta, t) so AMP traces of different depths share one solve."""
    key = (round(float(beta), 12), round(float(t), 12), "gamma-star")
    hit = prior._se_cache.get(key)
    if hit is not None:
        return hit
    b2 = beta * beta
    g = max(b2 - 1.0, 0.0)
    for _ in range(FIXED_POINT_MAX_STEPS):
        g_next = b2 * (1.0 - mmse(prior, g)) + t
        if abs(g_next - g) <= FIXED_POINT_TOL:
            g = g_next
            break
        g = g_next
    else:
        raise NoConvergence("spiked state evolution did not reach its "
                            f"fixed point in {FIXED_POINT_MAX_STEPS} steps")
    prior._se_cache[key] = g
    return g


def run_se_spiked(prior, beta, t, K, allow_subcritical=False, with_phi=False):
    """Spiked state evolution: ``gamma^{k+1} = beta^2 (1 - mmse(gamma^k)) + t``.

    Starts at ``gamma^0 = beta^2 - 1`` and iterates K steps; the fixed point
    continues the recursion to residual 1e-12 and raises
    :class:`NoConvergence` past ``FIXED_POINT_MAX_STEPS``. ``beta <= 1``
    raises unless
    ``allow_subcritical`` (then ``gamma^0 = max(beta^2 - 1, 0)`` and the
    spectral direction carries no information).
    """
    key = (round(float(beta), 12), round(float(t), 12), int(K),
           bool(allow_subcritical), bool(with_phi), "spiked")
    hit = prior._se_cache.get(key)
    if hit is not None:
        return hit
    if beta <= 1 and not allow_subcritical:
        raise SubcriticalBeta("state evolution needs beta > 1")
    b2 = beta * beta
    g = max(b2 - 1.0, 0.0)
    gammas = [g]
    for _ in range(int(K)):
        g = b2 * (1.0 - mmse(prior, g)) + t
        gammas.append(g)
    g_star = _gamma_star(prior, beta, t)
    gammas = np.asarray(gammas)
    onsager = np.array([b2 * mmse(prior, gk) for gk in gammas])
    q = 1.0 - mmse(prior, g_star)
    phis = [(g_star, phi_spiked(prior, g_star, beta, t))] if with_phi else []
    trace = SpikedSETrace(beta=float(beta), t=float(t), gammas=gammas,
                          onsager=onsager, gamma_star=float(g_star),
                          q=float(q), phi_at_fixed_points=phis)
    prior._se_cache[key] = trace
    return trace


def phi_spiked(prior, gamma, beta, t):
    """Replica potential of the spiked model at signal strength ``gamma``.

    ``Phi = (gamma - t)^2 / (4 beta^2) - (gamma - t)/2 + I(gamma)``; its
    stationary points are the state-evolution fixed points.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    d = gamma - t
    return d * d / (4.0 * beta * beta) - 0.5 * d + mutual_info(prior, gamma)


def run_se_linear(prior, delta, sigma2, t, K):
    """Linear state evolution: ``E_k = mmse(delta/(sigma2 + E_{k-1}) + t)``.

    Initialization ``E_{-1} = 1``; the fixed point continues the recursion
    to residual 1e-12 and raises :class:`NoConvergence` past
    ``FIXED_POINT_MAX_STEPS`` (non-uniqueness is a scan concern, not an
    error).
    """
    if delta <= 0 or sigma2 <= 0 or t < 0:
        raise ValueError("need delta > 0, sigma2 > 0, t >= 0")
    key = (round(float(delta), 12), round(float(sigma2), 12),
           round(float(t), 12), int(K), "linear")
    hit = prior._se_cache.get(key)
    if hit is not None:
        return hit
    es = [1.0]
    gammas = []
    for _ in range(int(K) + 1):
        g = delta / (sigma2 + es[-1]) + t
        gammas.append(g)
        es.append(mmse(prior, g))
    e_key = (round(float(delta), 12), round(float(sigma2), 12),
             round(float(t), 12), "e-star")
    e_star = prior._se_cache.get(e_key)
    if e_star is None:
        e_star = es[-1]
        for _ in range(FIXED_POINT_MAX_STEPS):
            e_next = mmse(prior, delta / (sigma2 + e_star) + t)
            if abs(e_next - e_star) <= FIXED_POINT_TOL:
                e_star = e_next
                break
            e_star = e_next
        else:
            raise NoConvergence("linear state evolution did not reach its "
                                f"fixed point in {FIXED_POINT_MAX_STEPS} "
                                "steps")
        prior._se_cache[e_key] = e_star
    es = np.asarray(es)
    gammas = np.asarray(gammas)
    xi = -delta * sigma2 / (sigma2 + es[1:])
    eta = es[1:] / sigma2
    trace = LinearSETrace(delta=float(delta), sigma2=float(sigma2),
                          t=float(t), Es=es, gammas=gammas, onsager_xi=xi,
                          onsager_eta=eta, E_star=float(e_star))
    prior._se_cache[key] = trace
    return trace


def phi_linear(prior, gamma, sigma2, delta):
    """Replica potential of the linear model,
    ``sigma2 gamma / 2 - (delta/2) log(gamma / (2 pi delta)) + I(gamma)``."""
    if gamma <= 0:
        raise NonpositiveGamma("linear potential needs gamma > 0")
    return (0.5 * sigma2 * gamma
            - 0.5 * delta * np.log(gamma / (2.0 * np.pi * delta))
            + mutual_info(prior, gamma))


@dataclass(frozen=True)
class FixedPointScan:
    minimizers: np.ndarray
    first_stationary_is_global_min: bool


def fixed_point_scan(potential, grid):
    """Locate local minimizers of a potential on a grid.

    Sign changes of the central-difference derivative give the stationary
    points; the result also flags whether the first stationary point is the
    global minimum over the grid (the regime assumed by the samplers).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 5 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be increasing with at least 5 points")
    vals = np.array([potential(g) for g in grid])
    deriv = np.gradient(vals, grid)
    sign = np.sign(deriv)
    minimizers = []
    stationary = []
    for i in range(len(grid) - 1):
        if sign[i] == 0:
            stationary.append(grid[i])
            if 0 < i < len(grid) - 1 and vals[i] <= min(vals[i - 1], vals[i + 1]):
                minimizers.append(grid[i])
        elif sign[i] * sign[i + 1] < 0:
            # linear interpolation of the zero crossing
            g0, g1 = grid[i], grid[i + 1]
            d0, d1 = deriv[i], deriv[i + 1]
            g = g0 + (g1 - g0) * d0 / (d0 - d1)
            stationary.append(g)
            if d0 < 0 < d1:
                minimizers.append(g)
    first_global = False
    if stationary:
        g_first = stationary[0]
        v_first = potential(g_first)
        first_global = bool(v_first <= np.min(vals) + 1e-12 * max(1.0, abs(v_first)))
    return FixedPointScan(minimizers=np.asarray(minimizers),
                          first_stationary_is_global_min=first_global)
