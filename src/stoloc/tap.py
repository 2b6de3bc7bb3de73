"""TAP free energies and their minimizers.

Spiked model: a free energy over the mean vector, minimized by gradient
descent on the tangent space of the sphere ``||m|| = sqrt(n q)`` through a
projection-style retraction. Linear model: a free energy over per-coordinate
first/second moments ``(m_j, s_j)``, minimized by natural gradient descent
in the exponential-family parameters ``(lambda_j, gamma_j)`` (which keeps
every iterate inside the moment set by construction).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentIntegral,
    NonpositiveVariance,
    OutOfDomain,
    OutOfGamma,
    StepRejected,
    ZeroVector,
)
from .priors import (
    attainable_mean_interval,
    is_two_atom,
    legendre_lambda,
    tilt_log_mgf,
    tilted_moments,
    _two_atom_second_moment,
)
from .se import run_se_spiked

# ---------------------------------------------------------------------------
# spiked model
# ---------------------------------------------------------------------------

_Q_CACHE_DECIMALS = 12


@dataclass(frozen=True)
class TapSpikedProblem:
    """Data of one spiked-model TAP objective (fixed X, y, beta, t)."""

    X: np.ndarray
    y: np.ndarray
    beta: float
    t: float
    q: float
    prior: object


def spiked_tap_problem(x, y, beta, t, prior, allow_subcritical=False):
    """Assemble the TAP problem, pulling ``q`` from state evolution."""
    se = run_se_spiked(prior, round(beta, _Q_CACHE_DECIMALS),
                       round(t, _Q_CACHE_DECIMALS), 0,
                       allow_subcritical=allow_subcritical)
    return TapSpikedProblem(X=x, y=np.asarray(y, dtype=float),
                            beta=float(beta), t=float(t), q=se.q,
                            prior=prior)


def f_tap_spiked(problem, m, lam0=None, with_lambda=False):
    """Value and gradient of the spiked TAP free energy at ``m``.

    ``F(m) = -beta/2 <m, Xm> + beta^2 (1-q)/2 ||m||^2
    + sum_i h(m_i, beta^2 q) - <y, m>`` with gradient
    ``-beta X m + beta^2 (1-q) m - y + lambda(m)`` where ``lambda(m)`` is the
    entrywise Legendre maximizer. Raises :class:`OutOfDomain` when some
    coordinate leaves the attainable-mean interval.
    """
    m = np.asarray(m, dtype=float)
    beta, q, y = problem.beta, problem.q, problem.y
    w = beta * beta * q
    lam = legendre_lambda(problem.prior, m, w, lam0=lam0)
    h = lam * m - tilt_log_mgf(problem.prior, lam, w)
    xm = problem.X @ m
    value = (-0.5 * beta * (m @ xm)
             + 0.5 * beta * beta * (1.0 - q) * (m @ m)
             + float(np.sum(h)) - float(y @ m))
    grad = -beta * xm + beta * beta * (1.0 - q) * m - y + lam
    if with_lambda:
        return value, grad, lam
    return value, grad


class TangentBasis:
    """Orthonormal basis of the tangent space at ``m``, as a Householder map.

    ``T`` is columns 2..n of the reflector sending ``m/||m||`` to the first
    coordinate axis, so products cost O(n) and no matrix is stored.
    """

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        nrm = np.linalg.norm(m)
        if nrm == 0.0:
            raise ZeroVector("tangent basis needs a nonzero base point")
        x = m / nrm
        alpha = -1.0 if x[0] >= 0 else 1.0
        v = x.copy()
        v[0] -= alpha
        vn = np.linalg.norm(v)
        if vn < 1e-300:     # m already on the axis
            v = np.zeros_like(x)
            v[0] = 1.0
            vn = 1.0
        self._v = v / vn
        self.n = len(m)

    def _reflect(self, a):
        # H a = a - 2 v (v . a), applied along axis 0
        proj = np.tensordot(self._v, a, axes=(0, 0))
        return a - 2.0 * np.multiply.outer(self._v, proj)

    def matvec(self, w):
        """T w for w of shape (n-1,) or (n-1, R)."""
        w = np.asarray(w, dtype=float)
        padded = np.concatenate([np.zeros((1,) + w.shape[1:]), w], axis=0)
        return self._reflect(padded)

    def rmatvec(self, a):
        """T^T a for a of shape (n,) or (n, R)."""
        return self._reflect(np.asarray(a, dtype=float))[1:]

    def dense(self):
        return self._reflect(np.eye(self.n))[:, 1:]


def tangent_basis(m):
    """Orthonormal n x (n-1) tangent map at ``m`` (Householder-backed)."""
    return TangentBasis(m)


def sphere_retraction(m, w, radius, basis=None):
    """Project ``m + T_m w`` back to the sphere of the given radius."""
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.norm(m) - radius) > 1e-8 * max(1.0, radius):
        raise ValueError("base point must lie on the sphere")
    basis = tangent_basis(m) if basis is None else basis
    v = m + basis.matvec(np.asarray(w, dtype=float))
    return radius * v / np.linalg.norm(v)


def tangent_gd(problem, m_init, K_GD, zeta, history=None):
    """Gradient descent on the sphere ``||m|| = sqrt(n q)`` in tangent
    coordinates anchored at the (projected) initialization.

    Steps ``w <- w - zeta * grad_w F(retraction(w))``; a step that exits the
    Legendre domain is halved up to 30 times. ``history``, if a list, gets
    ``(value, ||grad_w||/sqrt(n), step_used)`` per iterate.
    """
    m_init = np.asarray(m_init, dtype=float)
    nrm = np.linalg.norm(m_init)
    if nrm == 0.0:
        raise ZeroVector("tangent descent needs a nonzero initialization")
    n = len(m_init)
    radius = np.sqrt(n * problem.q)
    m0 = radius * m_init / nrm
    basis = tangent_basis(m0)
    w = np.zeros(n - 1)
    v = m0 + basis.matvec(w)
    r = np.linalg.norm(v)
    # (value, grad, lambda) at the current iterate: the accepted trial
    # evaluation of one step is the starting evaluation of the next
    current = None
    for _ in range(int(K_GD)):
        if current is None:
            current = f_tap_spiked(problem, radius * v / r, with_lambda=True)
        value, grad_m, lam_warm = current
        # chain rule through the retraction Jacobian
        grad_w = radius * (basis.rmatvec(grad_m) / r
                           - (grad_m @ v) / r ** 3 * w)
        step = zeta
        for _ in range(31):
            w_try = w - step * grad_w
            v_try = m0 + basis.matvec(w_try)
            r_try = np.linalg.norm(v_try)
            try:
                current = f_tap_spiked(problem, radius * v_try / r_try,
                                       lam0=lam_warm, with_lambda=True)
            except OutOfDomain:
                step /= 2
                continue
            break
        else:
            raise OutOfDomain("descent step left the Legendre domain "
                              "after 30 halvings")
        if history is not None:
            history.append((value, np.linalg.norm(grad_w) / np.sqrt(n),
                            step))
        w, v, r = w_try, v_try, r_try
    return radius * v / r


def write_optimizer_trace(path, history):
    """Write an optimizer history to CSV: step, value, grad_norm_over_n,
    step_size (entries may omit trailing fields)."""
    with open(path, "w") as fh:
        fh.write("step,value,grad_norm_over_n,step_size\n")
        for i, entry in enumerate(history):
            entry = entry if isinstance(entry, tuple) else (entry,)
            padded = tuple(entry) + ("",) * (3 - len(entry))
            fields = [str(i)] + ["%.17g" % v if v != "" else ""
                                 for v in padded]
            fh.write(",".join(fields) + "\n")


# ---------------------------------------------------------------------------
# linear model
# ---------------------------------------------------------------------------

@dataclass
class TapLinearState:
    """Per-coordinate moments and their exponential-family parameters.

    Maintains ``(m_j, s_j) = tilted_moments(lambda_j, gamma_j)`` so the
    state is always inside the moment set.
    """

    prior: object
    m: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    gamma_nat: np.ndarray

    @classmethod
    def from_natural(cls, prior, lam, gamma_nat):
        lam = np.asarray(lam, dtype=float).copy()
        gamma_nat = np.broadcast_to(
            np.asarray(gamma_nat, dtype=float), lam.shape).copy()
        m, s = tilted_moments(prior, lam, gamma_nat)
        return cls(prior=prior, m=m, s=s, lam=lam, gamma_nat=gamma_nat)

    @classmethod
    def from_moments(cls, prior, m, s, eps_s=1e-6):
        """Project target moments into the moment set and solve for the
        natural parameters. Coordinates with ``s_j <= m_j^2`` are nudged to
        ``m_j^2 + max(eps_s, s_j - m_j^2)`` and then clamped into the
        realizable variance bracket at mean ``m_j`` (for discrete priors the
        variance cannot drop below the two-atom bracket around the mean);
        two-atom priors pin ``s`` to its affine image of ``m``.
        """
        m = np.asarray(m, dtype=float).copy()
        s = np.asarray(s, dtype=float).copy()
        lo, hi = attainable_mean_interval(prior)
        span = hi - lo
        m = np.clip(m, lo + 1e-9 * span, hi - 1e-9 * span)
        if is_two_atom(prior):
            s = _two_atom_second_moment(prior, m)
            lam = legendre_lambda(prior, m, 0.0)
            gam = np.zeros_like(lam)
            return cls(prior=prior, m=m, s=s, lam=lam, gamma_nat=gam)
        var = np.maximum(s - m * m, eps_s)
        v_lo, v_hi = _variance_bracket(prior, m)
        frac = 0.02
        var = np.clip(var, v_lo + frac * (v_hi - v_lo),
                      v_hi - frac * (v_hi - v_lo))
        lam, gam = _bivariate_newton_vec(prior, m, m * m + var)
        m_fit, s_fit = tilted_moments(prior, lam, gam)
        return cls(prior=prior, m=m_fit, s=s_fit, lam=lam, gamma_nat=gam)

    def entropy_terms(self):
        """Per-coordinate ``h(m_j, s_j)`` evaluated from the natural params."""
        return (self.lam * self.m - 0.5 * self.gamma_nat * self.s
                - tilt_log_mgf(self.prior, self.lam, self.gamma_nat))


def _variance_bracket(prior, m):
    """Realizable tilted-variance range at each target mean.

    Lower end: the two-point distribution on the support points bracketing
    the mean (discrete) or the quadrature resolution floor (continuous);
    upper end: the two-point distribution on the extreme support points.
    """
    pts, _ = prior._points()
    v_hi = (m - pts[0]) * (pts[-1] - m)
    if prior.is_discrete:
        hi_idx = np.clip(np.searchsorted(pts, m, side="right"), 1,
                         len(pts) - 1)
        a_lo = pts[hi_idx - 1]
        a_hi = pts[hi_idx]
        v_lo = np.maximum((m - a_lo) * (a_hi - m), 0.0)
    else:
        h = pts[1] - pts[0]
        v_lo = np.full_like(np.asarray(m, dtype=float), (3.0 * h) ** 2)
    return v_lo, v_hi


def _bivariate_newton_vec(prior, m, s, tol=1e-10, max_iter=200):
    """Vectorized 2-D moment-matching Newton across coordinates."""
    pts, logp = prior._points()
    shape = m.shape
    m = m.ravel()
    s = s.ravel()
    lam = np.zeros_like(m)
    gam = np.zeros_like(m)

    def moments(lam_v, gam_v):
        lw = (logp + lam_v[:, None] * pts
              - 0.5 * gam_v[:, None] * pts * pts)
        mx = lw.max(axis=1, keepdims=True)
        w = np.exp(lw - mx)
        w /= w.sum(axis=1, keepdims=True)
        m1 = w @ pts
        m2 = w @ pts ** 2
        m3 = w @ pts ** 3
        m4 = w @ pts ** 4
        return m1, m2, m3, m4

    m1, m2, m3, m4 = moments(lam, gam)
    res = np.hypot(m1 - m, m2 - s)
    for _ in range(max_iter):
        if res.max() <= tol:
            return lam.reshape(shape), gam.reshape(shape)
        var = m2 - m1 * m1
        cov = m3 - m1 * m2
        var2 = m4 - m2 * m2
        # det = -(var * var2 - cov^2)/2 <= 0 by Cauchy-Schwarz
        det = var * (-0.5 * var2) - (-0.5 * cov) * cov
        det = np.where(np.abs(det) < 1e-300, -1e-300, det)
        r1, r2 = m1 - m, m2 - s
        dlam = ((-0.5 * var2) * r1 - (-0.5 * cov) * r2) / det
        dgam = (var * r2 - cov * r1) / det
        scale = np.ones_like(lam)
        for _ in range(60):
            lam_t = lam - scale * dlam
            gam_t = gam - scale * dgam
            m1t, m2t, m3t, m4t = moments(lam_t, gam_t)
            res_t = np.hypot(m1t - m, m2t - s)
            worse = res_t > res
            if not np.any(worse & (res > tol)):
                break
            scale = np.where(worse, scale / 2, scale)
        lam, gam = lam_t, gam_t
        m1, m2, m3, m4 = m1t, m2t, m3t, m4t
        res = res_t
    if res.max() <= 1e-8:
        return lam.reshape(shape), gam.reshape(shape)
    raise OutOfGamma("vectorized moment matching did not converge")


def f_tap_linear(x, y0, sigma2, state, side=None):
    """Value and gradients of the linear-model TAP free energy.

    Without side information:
    ``F = n/2 log(2 pi sigma2) + D0(m, s) + ||y0 - Xm||^2 / (2 sigma2)
    + n/2 log(1 + (S - Q)/sigma2)``; with ``side = (z, t)`` the extra terms
    ``||z - t m||^2 / (2 t) + t p (S - Q) / 2`` are added. Gradients are
    analytic: ``dD0/dm_j = lambda_j`` and ``dD0/ds_j = -gamma_j / 2``.

    The state may hold one column per stacked run; values and gradients
    then come back per column.
    """
    n, p = x.shape
    m, s = state.m, state.s
    delta = n / p
    gap = np.mean(s, axis=0) - np.mean(m * m, axis=0)
    if np.any(sigma2 + gap <= 0):
        raise NonpositiveVariance("sigma2 + S(s) - Q(m) must be positive")
    resid = y0 - x @ m
    value = (0.5 * n * np.log(2.0 * np.pi * sigma2)
             + np.sum(state.entropy_terms(), axis=0)
             + 0.5 * np.sum(resid * resid, axis=0) / sigma2
             + 0.5 * n * np.log1p(gap / sigma2))
    grad_m = (state.lam - (x.T @ resid) / sigma2
              - delta * m / (sigma2 + gap))
    grad_s = (-0.5 * state.gamma_nat
              + 0.5 * delta / (sigma2 + gap) * np.ones_like(s))
    if side is not None:
        z, t = side
        if t <= 0:
            raise ValueError("side information needs t > 0")
        dz = z - t * m
        value = value + 0.5 * np.sum(dz * dz, axis=0) / t + 0.5 * t * p * gap
        grad_m = grad_m - z
        grad_s = grad_s + 0.5 * t
    if m.ndim == 1:
        value = float(value)
    return value, grad_m, grad_s


def ngd_linear(x, y0, sigma2, state, K_NGD, eta, side=None, history=None):
    """Natural gradient descent on the linear TAP free energy.

    One step maps ``(lambda_j, gamma_j) <- (lambda_j - eta dF/dm_j,
    gamma_j + 2 eta dF/ds_j)`` and refreshes the moments; this is mirror
    descent in the exponential-family parameters and preserves feasibility.
    Steps are halved until the free energy decreases; 30 consecutive
    failures raise :class:`StepRejected`. Two-atom priors descend in
    ``lambda`` alone with ``s`` slaved to ``m``. ``history``, if a list,
    gets ``(value, grad_norm_over_dim, step_used)`` per iterate.
    """
    prior = state.prior
    two_atom = is_two_atom(prior)
    ab_sum = float(prior.atoms.sum()) if two_atom else 0.0

    def grad_scale(gm, gs):
        return np.sqrt(np.sum(gm * gm + gs * gs, axis=0) / gm.shape[0])

    value, grad_m, grad_s = f_tap_linear(x, y0, sigma2, state, side=side)
    if history is not None:
        history.append((value, grad_scale(grad_m, grad_s), eta))
    batched = state.m.ndim == 2
    for _ in range(int(K_NGD)):
        step = np.ones(state.m.shape[1]) * eta if batched else eta
        for _ in range(31):
            if two_atom:
                lam_t = state.lam - step * (grad_m + ab_sum * grad_s)
                gam_t = state.gamma_nat
            else:
                lam_t = state.lam - step * grad_m
                gam_t = state.gamma_nat + 2.0 * step * grad_s
            try:
                trial = TapLinearState.from_natural(prior, lam_t, gam_t)
                v_t, gm_t, gs_t = f_tap_linear(x, y0, sigma2, trial,
                                               side=side)
            except (DivergentIntegral, NonpositiveVariance):
                step = step / 2
                continue
            if eta == 0.0 or np.all(v_t <= value):
                break
            if batched:
                step = np.where(v_t > value, step / 2, step)
            else:
                step = step / 2
        else:
            raise StepRejected("free energy failed to decrease after "
                               "30 halvings")
        if eta == 0.0:
            return state
        state, value, grad_m, grad_s = trial, v_t, gm_t, gs_t
        if history is not None:
            history.append((value, grad_scale(grad_m, grad_s), step))
    return state
