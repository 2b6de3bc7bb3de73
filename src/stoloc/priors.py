"""Priors and the one-dimensional Gaussian channel.

A :class:`Prior` is either discrete (atoms + weights) or continuous with
density proportional to ``exp(-U(theta))``, handled on a fixed quadrature
grid. On top of it live the scalar-channel quantities every algorithm in
this package consumes: the posterior-mean denoiser ``F(z; gamma)``, the
channel ``mmse``, mutual information, exponential tilts and their Legendre
transforms.

Conventions:

* the channel is ``Z = gamma * Theta + sqrt(gamma) * G`` with standard
  normal ``G``, so the posterior given ``Z = z`` reweights the prior by
  ``exp(z * theta - gamma * theta^2 / 2)``;
* ``phi(lam, w) = log E[exp(lam * Theta - w * Theta^2 / 2)]`` is the tilted
  log-partition shared by the univariate and bivariate Legendre transforms.

The posterior mean has one kernel, :func:`posterior_mean`, which every
AMP iteration calls and :func:`denoise` (mean, variance and second moment)
shares. On two atoms ``{x0, x1}`` it is the closed form
``mid + half * tanh(half * z + c)`` (``tanh(z)`` for Z2), and the second
moment is affine in it. Every other tilted moment goes through
``_tilt_moments_raw``: on discrete priors a loop over the atoms with a
running max that builds no ``(..., s)`` array, on continuous priors the grid
softmax; both compute the second moment only when asked. Non-finite
observations raise :class:`NumericalUnderflow` on every branch.

All exponentials are evaluated with max-subtraction; continuous-prior
integrals use a 2001-point uniform grid over ``[-R, R]`` where ``R`` is the
quadrature truncation radius (the prior is treated as truncated there, and
the truncation error is part of the stated tolerance budget).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentIntegral,
    NoConvergence,
    NumericalUnderflow,
    OutOfDomain,
    OutOfGamma,
    ZeroSecondMoment,
)

GH_NODES = 61           # Gauss-Hermite nodes for expectations over G
GRID_POINTS = 2001      # theta-grid size for continuous priors
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_NODES)
_GH_W = _GH_W / np.sqrt(np.pi)      # E[f(G)] ~ sum w_i f(sqrt(2) x_i)
_GH_Z = np.sqrt(2.0) * _GH_X


@dataclass(frozen=True)
class ChannelEval:
    """Posterior moments of Theta given one channel observation."""

    mean: np.ndarray
    variance: np.ndarray
    second_moment: np.ndarray


class Prior:
    """Scalar prior distribution, discrete or continuous.

    Use the :meth:`discrete`, :meth:`continuous` or :meth:`from_config`
    constructors. Instances are immutable by convention and hold small
    per-instance caches (mmse, mutual information, state-evolution traces).
    """

    def __init__(self, *, atoms=None, weights=None, grid=None, log_density=None,
                 potential=None, second_derivative_bound=None,
                 quadrature_range=None):
        self.atoms = atoms
        self.weights = weights
        self.grid = grid
        self.log_density = log_density
        self.potential = potential
        self.second_derivative_bound = second_derivative_bound
        self.quadrature_range = quadrature_range

        if self.is_discrete:
            self._validate_discrete()
            pts, wts = self.atoms, self.weights
        else:
            self._validate_continuous()
            pts, wts = self.grid, np.exp(self.log_density)

        self.mean = float(np.dot(wts, pts))
        self.second_moment = float(np.dot(wts, pts * pts))
        self.support_bound = float(np.max(np.abs(pts)))
        self.is_symmetric = self._check_symmetric()

        self._mmse_cache = {}
        self._minfo_cache = {}
        self._se_cache = {}
        self._cdf = None

    # -- construction -------------------------------------------------------

    @classmethod
    def discrete(cls, atoms, weights, normalize=False):
        """Discrete prior from atom and weight arrays."""
        p = cls(atoms=np.asarray(atoms, dtype=float),
                weights=np.asarray(weights, dtype=float))
        return normalize_unit_second_moment(p) if normalize else p

    @classmethod
    def continuous(cls, u, du=None, d2u=None, second_derivative_bound=None,
                   quadrature_range=None, normalize=True):
        """Continuous prior with density proportional to ``exp(-u(theta))``.

        ``quadrature_range`` is the truncation half-width; if omitted it is
        expanded until the truncated tail mass falls below 1e-13.
        """
        r = quadrature_range if quadrature_range is not None \
            else cls._auto_range(u)
        # exactly sign-symmetric grid so even potentials register symmetric
        half = np.linspace(0.0, r, GRID_POINTS // 2 + 1)
        grid = np.concatenate([-half[:0:-1], half])
        logw = -np.asarray(u(grid), dtype=float) + np.log(_trapz_weights(grid))
        logw -= _logsumexp(logw)
        pot = {"u": u, "du": du, "d2u": d2u}
        bound = second_derivative_bound
        if bound is None and d2u is not None:
            bound = float(np.max(np.abs(d2u(grid))))
        p = cls(grid=grid, log_density=logw, potential=pot,
                second_derivative_bound=bound, quadrature_range=r)
        return normalize_unit_second_moment(p) if normalize else p

    @classmethod
    def from_config(cls, cfg):
        """Build a prior from a serialized config block.

        ``{"type": "discrete", "atoms": [...], "weights": [...],
        "normalize": bool}`` or ``{"type": "continuous", "potential":
        "gaussian_mixture"|"double_well", ...parameters, "normalize": bool}``.
        """
        cfg = dict(cfg)
        kind = cfg.pop("type")
        normalize = bool(cfg.pop("normalize", True))
        if kind == "discrete":
            atoms = cfg.pop("atoms")
            weights = cfg.pop("weights")
            if cfg:
                raise ValueError(f"unknown prior keys: {sorted(cfg)}")
            return cls.discrete(atoms, weights, normalize=normalize)
        if kind == "continuous":
            name = cfg.pop("potential")
            u, du, d2u, r = _builtin_potential(name, cfg)
            return cls.continuous(u, du, d2u, quadrature_range=r,
                                  normalize=normalize)
        raise ValueError(f"unknown prior type {kind!r}")

    def to_config(self):
        if self.is_discrete:
            return {"type": "discrete", "atoms": self.atoms.tolist(),
                    "weights": self.weights.tolist(), "normalize": False}
        raise ValueError("only built-in continuous priors serialize; "
                         "reconstruct them from their original config")

    # -- basic structure ----------------------------------------------------

    @property
    def is_discrete(self):
        return self.atoms is not None

    @property
    def variance(self):
        return self.second_moment - self.mean ** 2

    @property
    def n_atoms(self):
        return len(self.atoms) if self.is_discrete else None

    def _points(self):
        """(support points, log weights) for either variant."""
        if self.is_discrete:
            return self.atoms, np.log(self.weights)
        return self.grid, self.log_density

    def _validate_discrete(self):
        a, w = self.atoms, self.weights
        if a.ndim != 1 or w.shape != a.shape:
            raise ValueError("atoms and weights must be equal-length 1-D")
        if len(a) < 2:
            raise ValueError("discrete priors need at least 2 atoms")
        if np.any(np.diff(a) <= 0):
            raise ValueError("atoms must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    def _validate_continuous(self):
        if self.grid is None or self.log_density is None:
            raise ValueError("continuous prior needs grid and log_density")
        bound = self.second_derivative_bound
        d2u = self.potential.get("d2u")
        if bound is not None and d2u is not None:
            if np.max(np.abs(d2u(self.grid))) > bound * (1 + 1e-9):
                raise ValueError("|U''| exceeds the declared bound on the grid")

    def _check_symmetric(self):
        if self.is_discrete:
            a, w = self.atoms, self.weights
            return (np.allclose(a, -a[::-1], atol=1e-12, rtol=0)
                    and np.allclose(w, w[::-1], atol=1e-12, rtol=0))
        ld = self.log_density
        return bool(np.max(np.abs(ld - ld[::-1])) <= 1e-12)

    @staticmethod
    def _auto_range(u):
        r = 4.0
        while r <= 4096.0:
            grid = np.linspace(-r, r, 801)
            logw = -np.asarray(u(grid), dtype=float)
            logw -= logw.max()
            w = np.exp(logw)
            tail = (w[:20].sum() + w[-20:].sum()) / w.sum()
            if tail < 1e-13:
                return r
            r *= 1.5
        raise DivergentIntegral("could not find a finite quadrature range")

    # -- sampling -------------------------------------------------------

    def sample(self, size, rng):
        """Draw i.i.d. samples (inverse CDF on the grid for continuous)."""
        if self.is_discrete:
            return rng.choice(self.atoms, size=size, p=self.weights)
        if self._cdf is None:
            w = np.exp(self.log_density)
            cdf = np.cumsum(w)
            cdf = cdf / cdf[-1]
            keep = np.concatenate(([True], np.diff(cdf) > 0))
            self._cdf = (cdf[keep], self.grid[keep])
        u = rng.random(size)
        return np.interp(u, self._cdf[0], self._cdf[1])


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def _trapz_weights(grid):
    h = grid[1] - grid[0]
    w = np.full(grid.shape, h)
    w[0] = w[-1] = h / 2
    return w


def _builtin_potential(name, cfg):
    if name == "gaussian_mixture":
        weights = np.asarray(cfg.pop("weights"), dtype=float)
        means = np.asarray(cfg.pop("means"), dtype=float)
        stds = np.asarray(cfg.pop("stds"), dtype=float)
        if cfg:
            raise ValueError(f"unknown gaussian_mixture keys: {sorted(cfg)}")
        weights = weights / weights.sum()

        def u(x):
            x = np.asarray(x, dtype=float)[..., None]
            lw = (np.log(weights) - np.log(stds) - 0.5 * np.log(2 * np.pi)
                  - 0.5 * ((x - means) / stds) ** 2)
            return -_logsumexp(lw, axis=-1)

        def du(x, h=1e-5):
            return (u(x + h) - u(x - h)) / (2 * h)

        def d2u(x, h=1e-4):
            return (u(x + h) - 2 * u(x) + u(x - h)) / h ** 2

        r = float(np.max(np.abs(means) + 9.0 * stds))
        return u, du, d2u, r
    if name == "double_well":
        a = float(cfg.pop("height", 1.0))
        c = float(cfg.pop("wells", 1.0))
        if cfg:
            raise ValueError(f"unknown double_well keys: {sorted(cfg)}")

        def u(x):
            x = np.asarray(x, dtype=float)
            return a * (x * x - c * c) ** 2

        def du(x):
            return 4 * a * x * (x * x - c * c)

        def d2u(x):
            return 12 * a * x * x - 4 * a * c * c

        # tail: exp(-a x^4) ~ 1e-14 at x = (32/a)^(1/4) + c
        r = c + (32.0 / max(a, 1e-12)) ** 0.25 + 2.0
        return u, du, d2u, r
    raise ValueError(f"unknown built-in potential {name!r}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def normalize_unit_second_moment(prior):
    """Rescale the prior variable so that ``E[Theta^2] = 1``.

    Atoms (or the continuous variable) are divided by ``sqrt(E[Theta^2])``;
    weights are unchanged.
    """
    s2 = prior.second_moment
    if s2 <= 1e-14:
        raise ZeroSecondMoment("prior second moment <= 1e-14")
    s = np.sqrt(s2)
    if abs(s2 - 1.0) <= 1e-12:
        return prior
    if prior.is_discrete:
        return Prior(atoms=prior.atoms / s, weights=prior.weights.copy())
    pot = prior.potential
    u0, du0, d2u0 = pot["u"], pot["du"], pot["d2u"]
    u = (lambda x: u0(np.asarray(x) * s))
    du = (lambda x: s * du0(np.asarray(x) * s)) if du0 is not None else None
    d2u = (lambda x: s * s * d2u0(np.asarray(x) * s)) if d2u0 is not None else None
    bound = prior.second_derivative_bound
    return Prior.continuous(u, du, d2u,
                            second_derivative_bound=None if bound is None else s2 * bound,
                            quadrature_range=prior.quadrature_range / s,
                            normalize=False)


def _tilt_logweights(prior, lam, gamma):
    """Log weights of the tilt exp(lam*theta - gamma*theta^2/2) * prior.

    ``lam`` and ``gamma`` broadcast against each other; the support axis is
    appended last. Scalar ``gamma`` (the common case on hot paths) folds
    the quadratic term into a single support-sized vector.
    """
    pts, logp = prior._points()
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 0:
        lw = lam[..., None] * pts
        lw += logp - 0.5 * float(gamma) * pts * pts
        return lw
    lw = lam[..., None] * pts
    lw -= gamma[..., None] * (0.5 * pts * pts)
    lw += logp
    return lw


def _tilt_moments_raw(prior, lam, gamma, second=True):
    """(m, s) of the tilted measure, vectorized over lam/gamma; ``s`` is
    None unless ``second``. Discrete priors loop over the atoms
    (:func:`_atom_loop_moments`); continuous priors take the grid softmax."""
    if prior.is_discrete:
        return _atom_loop_moments(prior, lam, gamma, second)
    pts = prior.grid
    lw = _tilt_logweights(prior, lam, gamma)
    mx = np.max(lw, axis=-1, keepdims=True)
    if not np.all(np.isfinite(mx)):
        raise NumericalUnderflow("tilted weights are not representable")
    np.subtract(lw, mx, out=lw)
    w = np.exp(lw, out=lw)
    z = np.sum(w, axis=-1)
    return (w @ pts) / z, (w @ (pts * pts)) / z if second else None


def _atom_loop_moments(prior, lam, gamma, second):
    """Tilted (m, s) over a discrete support: one pass over the atoms for
    the running max and one for the sums, so no ``(..., s)`` array is
    built."""
    atoms = prior.atoms
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    consts = np.log(prior.weights) - 0.5 * gamma[..., None] * atoms * atoms
    shape = np.broadcast_shapes(lam.shape, gamma.shape)
    lw = np.empty(shape)
    mx = np.full(shape, -np.inf)
    for j, a in enumerate(atoms):
        np.multiply(lam, a, out=lw)
        lw += consts[..., j]
        np.maximum(mx, lw, out=mx)
    if not np.all(np.isfinite(mx)):
        raise NumericalUnderflow("tilted weights are not representable")
    den = np.zeros(shape)
    num = np.zeros(shape)
    sq = np.zeros(shape) if second else None
    for j, a in enumerate(atoms):
        np.multiply(lam, a, out=lw)
        lw += consts[..., j]
        lw -= mx
        np.exp(lw, out=lw)
        den += lw
        lw *= a
        num += lw
        if second:
            lw *= a
            sq += lw
    num /= den
    if second:
        sq /= den
        return num[()], sq[()]
    return num[()], None


def posterior_mean(prior, z, gamma):
    """Posterior mean ``F(z; gamma)`` of Theta given ``gamma*Theta +
    sqrt(gamma)*G = z``, entrywise over ``z`` (``gamma`` broadcasts).

    The mean kernel of every AMP iteration. :func:`denoise` shares it, so
    its ``mean`` equals this one bit for bit. Non-finite input raises
    :class:`NumericalUnderflow`; tilts that push a continuous prior's mass
    off its grid raise :class:`DivergentIntegral`.
    """
    z = np.asarray(z, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not is_two_atom(prior):
        if not prior.is_discrete:
            _check_tilt_in_range(prior, z, gamma)
        return _tilt_moments_raw(prior, z, gamma, second=False)[0]
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(gamma))):
        raise NumericalUnderflow("tilted weights are not representable")
    # mid + half * tanh(d/2), d the log-odds of the upper atom
    (x0, x1), logp = prior.atoms, np.log(prior.weights)
    mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    out = np.empty(np.broadcast_shapes(z.shape, gamma.shape))
    np.multiply(z, half, out=out)
    out += 0.5 * (logp[1] - logp[0]) - gamma * (half * mid)
    np.tanh(out, out=out)
    out *= half
    out += mid
    return out[()]


def denoise(prior, z, gamma):
    """Posterior moments of Theta from ``gamma*Theta + sqrt(gamma)*G = z``.

    Accepts scalar or array ``z`` and returns a :class:`ChannelEval` of
    matching shape. The mean is :func:`posterior_mean`'s; on two atoms the
    second moment is its affine function, elsewhere it comes from the same
    pass as the mean. AMP iterations that need only the mean call
    :func:`posterior_mean` directly.
    """
    if is_two_atom(prior):
        m = posterior_mean(prior, z, gamma)
        s = _two_atom_second_moment(prior, m)
    else:
        if not prior.is_discrete:
            _check_tilt_in_range(prior, z, gamma)
        m, s = _tilt_moments_raw(prior, z, gamma)
    var = np.maximum(s - m * m, 0.0)
    return ChannelEval(mean=m, variance=var, second_moment=s)


def _check_tilt_in_range(prior, lam, gamma):
    """Flag tilts whose mass would concentrate outside the grid."""
    pts, logp = prior._points()
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    lo, hi = pts[0], pts[-1]
    # exponent derivative at the edges: mass escapes if it still increases
    g_lo = lam - gamma * lo
    g_hi = lam - gamma * hi
    bad = (g_hi > 50.0) | (g_lo < -50.0)
    if np.any(bad):
        raise DivergentIntegral(
            "tilted density concentrates outside the quadrature range")


def tilted_moments(prior, lam, gamma):
    """First and second moments of the (lam, gamma)-tilted prior."""
    if not prior.is_discrete:
        _check_tilt_in_range(prior, lam, gamma)
    m, s = _tilt_moments_raw(prior, lam, gamma)
    return m, s


def tilt_log_mgf(prior, lam, w):
    """log-MGF ``phi(lam, w)`` of the tilt; derivatives in ``lam`` are the
    tilted mean and variance, available via :func:`tilted_moments`."""
    if not prior.is_discrete:
        _check_tilt_in_range(prior, lam, w)
    lw = _tilt_logweights(prior, lam, w)
    if not np.all(np.isfinite(np.max(lw, axis=-1))):
        raise NumericalUnderflow("tilt log-weights are not representable")
    return _logsumexp(lw, axis=-1)


def char_fn_imag(prior, t):
    """Imaginary part of the characteristic function, ``E[sin(t*Theta)]``."""
    pts, logp = prior._points()
    t = np.asarray(t, dtype=float)[..., None]
    return np.sum(np.exp(logp) * np.sin(t * pts), axis=-1)


def mmse(prior, gamma):
    """Bayes risk of the scalar channel at signal strength ``gamma``.

    ``E Var[Theta | gamma*Theta + sqrt(gamma)*G]``, via 61-node
    Gauss-Hermite quadrature over G (discrete priors: exact atom sums; the
    continuous branch integrates the channel-output marginal on a dense
    z-grid). Clamped to ``[0, Var(Theta)]``.
    """
    g = float(gamma)
    if g < 0:
        raise ValueError("gamma must be nonnegative")
    # keyed by the exact float: a rounded key would answer for a nearby
    # gamma and make the fixed-point map piecewise constant
    hit = prior._mmse_cache.get(g)
    if hit is not None:
        return hit
    if g <= 1e-14:
        val = prior.variance
    elif prior.is_discrete:
        z = g * prior.atoms[:, None] + np.sqrt(g) * _GH_Z  # (s, 61)
        ev = denoise(prior, z, g)
        val = float(np.dot(prior.weights, ev.variance @ _GH_W))
    else:
        val = prior.second_moment - _mean_sq_continuous(prior, g)
    val = float(min(max(val, 0.0), prior.variance))
    prior._mmse_cache[g] = val
    return val


def _mean_sq_continuous(prior, g):
    """E[F(Z; g)^2] for a continuous prior, integrating over the channel
    output marginal p_Z on a dense grid (trapezoid; the integrand decays
    to zero well inside the grid and varies on the channel-noise scale
    sqrt(g), which sets the grid spacing)."""
    pts = prior.grid
    logp = prior.log_density
    sd = np.sqrt(g)
    lo = g * pts[0] - 9.0 * sd
    hi = g * pts[-1] + 9.0 * sd
    n_z = int(np.clip(10.0 * (hi - lo) / sd, 801, 4001))
    zg = np.linspace(lo, hi, n_z)
    # posterior mean and marginal density on the z-grid in one broadcast
    lw = logp + zg[:, None] * pts - 0.5 * g * pts * pts     # (4001, G)
    mx = lw.max(axis=1, keepdims=True)
    w = np.exp(lw - mx)
    zsum = w.sum(axis=1)
    f = (w @ pts) / zsum
    # log p_Z(z) up to the common N(0, g) factor of the channel noise:
    # p_Z(z) = int exp(z t - g t^2/2) pi(dt) * exp(-z^2/(2g)) / sqrt(2 pi g)
    log_pz = (np.log(zsum) + mx[:, 0]
              - zg * zg / (2 * g) - 0.5 * np.log(2 * np.pi * g))
    integrand = f * f * np.exp(log_pz)
    return float(np.trapezoid(integrand, zg))


def mutual_info(prior, gamma):
    """Mutual information ``I(gamma)`` between Theta and the channel output.

    Computed by the I-MMSE identity ``I(gamma) = 1/2 int_0^gamma mmse`` with
    adaptive Simpson quadrature (relative tolerance 1e-7).
    """
    g = float(gamma)
    if g < 0:
        raise ValueError("gamma must be nonnegative")
    key = round(g, 12)
    hit = prior._minfo_cache.get(key)
    if hit is not None:
        return hit
    if g <= 1e-14:
        prior._minfo_cache[key] = 0.0
        return 0.0
    f = lambda x: mmse(prior, x)
    val = 0.5 * _adaptive_simpson(f, 0.0, g, rel_tol=1e-7)
    val = max(val, 0.0)
    prior._minfo_cache[key] = val
    return val


def _adaptive_simpson(f, a, b, rel_tol):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4 * fm + fb)
    scale = max(abs(whole), 1e-12)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, rel_tol * scale, 50)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, tol / 2, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, tol / 2, depth - 1))


# ---------------------------------------------------------------------------
# Legendre transforms
# ---------------------------------------------------------------------------

def attainable_mean_interval(prior):
    """Open interval of means reachable by exponential tilts."""
    pts, _ = prior._points()
    return float(pts[0]), float(pts[-1])


def legendre_lambda(prior, m, w, lam0=None, tol=1e-10, max_iter=200):
    """Solve ``tilted_mean(lam, w) = m`` for ``lam`` (vectorized).

    Damped Newton with halving line search on the residual. Raises
    :class:`OutOfDomain` if some target mean is outside the attainable
    interval and :class:`NoConvergence` past the iteration budget.
    """
    m = np.asarray(m, dtype=float)
    lo, hi = attainable_mean_interval(prior)
    if np.any(m <= lo) or np.any(m >= hi):
        raise OutOfDomain("target mean outside the attainable interval")
    lam = np.zeros_like(m) if lam0 is None else np.array(lam0, dtype=float)
    mean, s = _tilt_moments_raw(prior, lam, w)
    r = mean - m
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol:
            return lam
        var = np.maximum(s - mean * mean, 1e-300)
        step = r / var
        scale = np.ones_like(lam)
        active = np.abs(r) > tol
        for _ in range(60):
            trial = lam - scale * step
            mean_t, s_t = _tilt_moments_raw(prior, trial, w)
            r_t = mean_t - m
            worse = active & (np.abs(r_t) > np.abs(r))
            if not np.any(worse):
                break
            scale = np.where(worse, scale / 2, scale)
        lam, mean, s, r = trial, mean_t, s_t, r_t
    if np.max(np.abs(r)) <= tol * 10:
        return lam
    raise NoConvergence("univariate Legendre solve did not converge")


def legendre_h_univariate(prior, m, w):
    """``h(m, w) = sup_lam [lam*m - phi(lam, w)]`` and its maximizer.

    Returns ``(value, lambda_star)``; vectorized over ``m``.
    """
    lam = legendre_lambda(prior, m, w)
    val = lam * np.asarray(m, dtype=float) - tilt_log_mgf(prior, lam, w)
    return val, lam


def is_two_atom(prior):
    return prior.is_discrete and prior.n_atoms == 2


def _two_atom_second_moment(prior, m):
    """On two atoms {a, b}, s is the affine function of m below."""
    a, b = prior.atoms
    return a * a + (np.asarray(m) - a) * (a + b)


def legendre_h_bivariate(prior, m, s, tol=1e-10, max_iter=200):
    """Bivariate Legendre transform at target moments ``(m, s)``.

    Returns ``(value, lambda_star, gamma_star)`` where the tilt
    ``exp(lam*theta - gamma*theta^2/2)`` matches the first two moments.
    ``value = lam*m - gamma*s/2 - phi(lam, gamma)`` is the KL divergence of
    the matching tilt from the prior (nonnegative, 0 at the prior moments).

    Raises :class:`OutOfGamma` when ``(m, s)`` is not realizable: requires
    ``s > m^2``, and for two-atom priors ``s`` is pinned to an affine
    function of ``m`` (the moment set degenerates to a segment), in which
    case the solution has ``gamma_star = 0``.
    """
    m = float(m)
    s = float(s)
    if s <= m * m:
        raise OutOfGamma("second moment must exceed squared mean")
    if is_two_atom(prior):
        s_line = float(_two_atom_second_moment(prior, m))
        if abs(s - s_line) > 1e-8 * max(1.0, abs(s_line)):
            raise OutOfGamma("two-atom prior: s is pinned by m")
        lam = float(legendre_lambda(prior, np.array(m), 0.0))
        val = lam * m - float(tilt_log_mgf(prior, lam, 0.0))
        return val, lam, 0.0
    lam, gam = 0.0, 0.0
    mm, ss = _tilt_moments_raw(prior, lam, gam)
    r = np.hypot(mm - m, ss - s)
    for _ in range(max_iter):
        if r <= tol:
            break
        jac = _moment_jacobian(prior, lam, gam)
        try:
            dlam, dgam = np.linalg.solve(jac, [mm - m, ss - s])
        except np.linalg.LinAlgError:
            raise OutOfGamma("singular moment Jacobian") from None
        scale = 1.0
        for _ in range(60):
            lam_t, gam_t = lam - scale * dlam, gam - scale * dgam
            try:
                mm_t, ss_t = _tilt_moments_raw(prior, lam_t, gam_t)
            except NumericalUnderflow:
                scale /= 2
                continue
            r_t = np.hypot(mm_t - m, ss_t - s)
            if r_t < r:
                break
            scale /= 2
        else:
            raise OutOfGamma("moment residual stopped decreasing; "
                             "(m, s) appears infeasible")
        lam, gam, mm, ss, r = lam_t, gam_t, mm_t, ss_t, r_t
    else:
        if r > 1e-9:
            raise OutOfGamma("bivariate Legendre solve did not converge")
    val = lam * m - 0.5 * gam * s - float(tilt_log_mgf(prior, lam, gam))
    return val, lam, gam


def _moment_jacobian(prior, lam, gam):
    """d(m, s)/d(lam, gam) of the tilted moments."""
    pts, _ = prior._points()
    lw = _tilt_logweights(prior, lam, gam)
    w = np.exp(lw - lw.max())
    w /= w.sum()
    m1 = np.dot(w, pts)
    m2 = np.dot(w, pts ** 2)
    m3 = np.dot(w, pts ** 3)
    m4 = np.dot(w, pts ** 4)
    var = m2 - m1 * m1
    cov12 = m3 - m1 * m2
    var2 = m4 - m2 * m2
    return np.array([[var, -0.5 * cov12], [cov12, -0.5 * var2]])
