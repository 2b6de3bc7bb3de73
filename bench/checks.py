"""Output checks of the benchmark workloads.

Every reference quantity is either computed here from the model's
definition (Gauss-Hermite quadrature of the scalar Gaussian channel and
the fixed points of its state evolution, written without calling
``stoloc``) or an identity that correct posterior samples satisfy. None is
a stored copy of an earlier run's output. Each check returns a
:class:`Check`; a workload's samples pass when all of its checks pass.

Tolerances are set from the sampling noise of the statistic they bound
(a z-score of ``Z_MAX`` when the standard error is known in advance, the
Student-t quantile of the same tail probability when it is estimated from
the samples themselves), so a correct sampler fails them with negligible
probability while the wrong inputs in ``test_checks.py`` fail them by a
wide margin.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

GH_NODES = 61
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(GH_NODES)
GH_Z = math.sqrt(2.0) * _GH_X          # E f(G) ~ sum(GH_W * f(GH_Z))
GH_W = _GH_W / math.sqrt(math.pi)

Z_MAX = 6.0                 # z-score bound of every noise-scaled check
TAIL = math.erfc(Z_MAX / math.sqrt(2.0))     # its two-sided tail probability
NEAR_ATOM = 0.05            # spiked_z2: distance to +-1 counted as "on" an atom
NEAR_ATOM_SHARE = 0.99
# linear: RMS gap over its Monte-Carlo prediction. The upper end leaves room
# for the AMP estimate's own finite-size error; the ratio read 0.74 to 1.87
# over about 300 calls of a correct sampler.
MEAN_GAP_BAND = (0.5, 3.0)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "detail": self.detail}


def _fixed_point(f, x0, tol=1e-13, max_iter=100_000):
    x = x0
    for _ in range(max_iter):
        nxt = f(x)
        if abs(nxt - x) <= tol:
            return nxt
        x = nxt
    raise ArithmeticError("state-evolution fixed point did not converge")


def channel_mmse(atoms, weights, gamma):
    """``E Var[Theta | gamma Theta + sqrt(gamma) G]`` for a discrete prior."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if gamma <= 0.0:
        mean = weights @ atoms
        return float(weights @ atoms ** 2 - mean * mean)
    # z[a, i]: channel output for true atom a at quadrature node i
    z = gamma * atoms[:, None] + math.sqrt(gamma) * GH_Z[None, :]
    logp = (np.log(weights) + z[..., None] * atoms
            - 0.5 * gamma * atoms ** 2)
    logp -= logp.max(axis=-1, keepdims=True)
    post = np.exp(logp)
    post /= post.sum(axis=-1, keepdims=True)
    var = post @ atoms ** 2 - (post @ atoms) ** 2
    return float(weights @ (var @ GH_W))


def normalized_atoms(atoms, weights):
    """Atoms rescaled to unit second moment (weights unchanged)."""
    atoms = np.asarray(atoms, dtype=float)
    return atoms / math.sqrt(float(np.asarray(weights) @ atoms ** 2))


def spiked_overlap(atoms, weights, beta):
    """Bayes-optimal overlap ``q*`` of the spiked model at ``t = 0``:
    the largest fixed point of ``q = 1 - mmse(beta^2 q)``."""
    b2 = beta * beta
    return _fixed_point(lambda q: 1.0 - channel_mmse(atoms, weights, b2 * q),
                        1.0)


def overlap_gain(atoms, weights, beta, h=1e-5):
    """Factor by which the state evolution amplifies an ``O(1/sqrt(n))``
    perturbation of the overlap at its fixed point: ``1 / (1 - F'(q*))``
    with ``F(q) = 1 - mmse(beta^2 q)``."""
    b2 = beta * beta
    q = spiked_overlap(atoms, weights, beta)
    slope = (channel_mmse(atoms, weights, b2 * (q - h))
             - channel_mmse(atoms, weights, b2 * (q + h))) / (2.0 * h)
    return 1.0 / (1.0 - slope)


def t_bound(reps):
    """Bound on ``|mean - x| / (sd sqrt(1 + 1/reps))`` for a draw ``x``
    exchangeable with ``reps`` samples whose ``sd`` is estimated from them:
    the Student-t quantile with ``reps - 1`` degrees of freedom at the tail
    probability of ``Z_MAX``."""
    return -float(special.stdtrit(reps - 1, TAIL / 2.0))


def linear_mmse(atoms, weights, delta, sigma2):
    """Per-coordinate MMSE ``E*`` of the linear model: the fixed point of
    ``E = mmse(delta / (sigma2 + E))`` reached from the prior variance."""
    e0 = channel_mmse(atoms, weights, 0.0)
    return _fixed_point(
        lambda e: channel_mmse(atoms, weights, delta / (sigma2 + e)), e0)


def _finite(samples):
    if not np.all(np.isfinite(samples)):
        return Check("finite", False, "non-finite entries in the samples")
    return None


# ---------------------------------------------------------------------------
# spiked_z2
# ---------------------------------------------------------------------------

def check_spiked_z2(x, theta, beta, samples):
    """Samples ``(n, R)`` of the Z2 spiked posterior against the truth.

    * log-likelihood: posterior samples and the truth are exchangeable, so
      the mean of ``beta/(2n) <s, X s>`` over samples matches the truth's
      value within the samples' spread. That spread is estimated from the
      ``R`` samples, so the bound is a Student-t quantile (:func:`t_bound`),
      not ``Z_MAX``;
    * overlap: the mean of ``|<s, theta>|/n`` matches ``q*`` from this
      module's own fixed point, within the instance's overlap fluctuation
      ``sqrt(q* (1 - q*) / n)`` times the state evolution's gain
      (:func:`overlap_gain`) and the spread over samples;
    * support: at least 99% of entries lie within 0.05 of +-1.
    """
    bad = _finite(samples)
    if bad:
        return [bad]
    n, reps = samples.shape
    ll = 0.5 * beta / n * np.einsum("ir,ir->r", samples, x @ samples)
    ll_truth = 0.5 * beta / n * float(theta @ (x @ theta))
    ll_tol = t_bound(reps) * ll.std(ddof=1) * math.sqrt(1.0 + 1.0 / reps)
    ll_gap = abs(ll.mean() - ll_truth)

    q_star = spiked_overlap([-1.0, 1.0], [0.5, 0.5], beta)
    overlaps = np.abs(theta @ samples) / n
    # per-instance overlap fluctuation: O(sqrt(q (1 - q) / n)) over the
    # coordinates, amplified by the fixed point; the spread over samples
    # adds to it
    gain = overlap_gain([-1.0, 1.0], [0.5, 0.5], beta)
    ov_se = math.sqrt(gain ** 2 * q_star * (1.0 - q_star) / n
                      + overlaps.var(ddof=1) / reps)
    ov_gap = abs(overlaps.mean() - q_star)

    near = np.minimum(np.abs(samples - 1.0), np.abs(samples + 1.0))
    share = float(np.mean(near <= NEAR_ATOM))
    return [
        Check("loglik_vs_truth", ll_gap <= ll_tol,
              f"mean {ll.mean():.5f} vs truth {ll_truth:.5f}, "
              f"gap {ll_gap:.5f} <= {ll_tol:.5f}"),
        Check("overlap_vs_q_star", ov_gap <= Z_MAX * ov_se,
              f"mean |overlap| {overlaps.mean():.5f} vs q* {q_star:.5f}, "
              f"gap {ov_gap:.5f} <= {Z_MAX * ov_se:.5f}"),
        Check("entries_near_atoms", share >= NEAR_ATOM_SHARE,
              f"{share:.5f} of entries within {NEAR_ATOM} of +-1 "
              f">= {NEAR_ATOM_SHARE}"),
    ]


# ---------------------------------------------------------------------------
# linear_three_point
# ---------------------------------------------------------------------------

def check_linear(atoms, weights, delta, sigma2, t_final, theta, m_amp,
                 samples):
    """Samples ``(p, R)`` of the linear-model posterior.

    ``t_final = 1/sigma2 + L Delta`` is the final precision of the
    observation process, so each sample is a posterior mean at noise
    ``sigma2_fin = 1/t_final``.

    * Nishimori: ``E ||s - theta||^2 / p = 2 E*(sigma2) - E*(sigma2_fin)``.
      The tolerance is ``Z_MAX`` standard errors over coordinates plus
      twice this instance's own deviation from ``E*(sigma2)``, read off the
      AMP estimate ``m_amp``: at finite ``p`` the posterior-mean error of one
      instance moves ``2 E*`` by that much for every sampler;
    * the sample mean sits at the posterior mean (here the AMP estimate
      ``m_amp`` at ``sigma2``) within the Monte-Carlo error
      ``sqrt((E*(sigma2) - E*(sigma2_fin)) / R)``.
    """
    bad = _finite(samples)
    if bad:
        return [bad]
    p, reps = samples.shape
    e_data = linear_mmse(atoms, weights, delta, sigma2)
    e_fin = linear_mmse(atoms, weights, delta, 1.0 / t_final)
    predicted = 2.0 * e_data - e_fin
    sq = np.mean((samples - theta[:, None]) ** 2, axis=1)   # per coordinate
    mse = float(sq.mean())
    instance = abs(float(np.mean((m_amp - theta) ** 2)) - e_data)
    mse_tol = Z_MAX * float(sq.std(ddof=1)) / math.sqrt(p) + 2.0 * instance

    gap = float(np.sqrt(np.mean((samples.mean(axis=1) - m_amp) ** 2)))
    expected = math.sqrt(max(e_data - e_fin, 0.0) / reps)
    ratio = gap / expected
    lo, hi = MEAN_GAP_BAND
    return [
        Check("mse_nishimori", abs(mse - predicted) <= mse_tol,
              f"mse {mse:.5f} vs 2E*(s2) - E*(s2_fin) = {predicted:.5f}, "
              f"gap {abs(mse - predicted):.5f} <= {mse_tol:.5f}"),
        Check("mean_vs_amp", lo <= ratio <= hi,
              f"rms gap {gap:.5f} / expected {expected:.5f} = {ratio:.3f} "
              f"in [{lo}, {hi}]"),
    ]


# ---------------------------------------------------------------------------
# exact_oracle
# ---------------------------------------------------------------------------

def check_exact(post_mean, post_pairs, samples):
    """Samples ``(n, R)`` of a +-1 posterior against its enumeration.

    Each sample mean and pair moment is compared with the enumerated value
    in units of the Monte-Carlo standard error of ``R`` exact posterior
    draws: ``Var theta_i = 1 - mean_i^2`` and ``Var theta_i theta_j = 1 -
    pair_ij^2`` on a +-1 support.
    """
    bad = _finite(samples)
    if bad:
        return [bad]
    n, reps = samples.shape
    iu = np.triu_indices(n, 1)
    mean_err = np.abs(samples.mean(axis=1) - post_mean)
    mean_se = np.sqrt(np.maximum(1.0 - post_mean ** 2, 0.0) / reps)
    pairs = post_pairs[iu]
    pair_err = np.abs((samples @ samples.T / reps)[iu] - pairs)
    pair_se = np.sqrt(np.maximum(1.0 - pairs ** 2, 0.0) / reps)
    # a floor of one sample's worth keeps near-deterministic entries finite
    z_mean = float(np.max(mean_err / np.maximum(mean_se, 1.0 / reps)))
    z_pair = float(np.max(pair_err / np.maximum(pair_se, 1.0 / reps)))
    return [
        Check("means_vs_enumeration", z_mean <= Z_MAX,
              f"max error {mean_err.max():.4f}, max z {z_mean:.2f} "
              f"<= {Z_MAX}"),
        Check("pairs_vs_enumeration", z_pair <= Z_MAX,
              f"max error {pair_err.max():.4f}, max z {z_pair:.2f} "
              f"<= {Z_MAX}"),
    ]


# ---------------------------------------------------------------------------
# cli_continuous
# ---------------------------------------------------------------------------

def read_summary(path):
    """Rows of a ``stoloc sample`` summary.csv as dicts of floats."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, map(float, line.split(","))))
                for line in fh if line.strip()]


def check_cli_summary(rows, reps, n):
    """``stoloc sample`` rows: one finite row per rep, and on each row the
    signed overlap ``<m, theta>/n`` equals ``||m||^2/n`` within noise,
    because ``E <m, theta> = E ||m||^2`` for a posterior mean ``m``."""
    keys = ("norm_sq_over_dim", "loglik", "overlap_over_dim")
    complete = (len(rows) == reps
                and all(math.isfinite(r.get(k, math.nan))
                        for r in rows for k in keys))
    checks = [Check("one_finite_row_per_rep", complete,
                    f"{len(rows)} rows for {reps} reps")]
    if not complete:
        return checks
    worst = 0.0
    for r in rows:
        q = r["norm_sq_over_dim"]
        se = math.sqrt(max(q * (1.0 - q), 0.0) / n) + 1.0 / n
        worst = max(worst, abs(r["overlap_over_dim"] - q) / se)
    checks.append(Check("overlap_equals_norm", worst <= Z_MAX,
                        f"max |overlap - norm_sq| / se = {worst:.2f} "
                        f"<= {Z_MAX}"))
    return checks
