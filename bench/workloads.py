"""The four benchmark workloads: fixed sizes, inputs made from a seed, the
timed sampling call and the output checks.

A library workload is a class with ``setup(seed)`` (everything before
sampling can begin: instance generation and, for ``exact_oracle``, the
enumeration and oracle build), ``sample(state)`` (the one timed call,
returning samples as an ``(dim, reps)`` array) and ``check(state,
samples)``. ``cli_continuous`` runs the ``stoloc`` command line and is
driven from ``run.py``; its sizes live in :data:`CLI`.
"""

import numpy as np

import checks

Z2 = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]}
THREE_POINT = {"atoms": [-1.0, 0.0, 1.0], "weights": [0.25, 0.5, 0.25]}


class SpikedZ2:
    """``sample_spiked_discrete_many``: the paper's headline sampler."""

    beta, n, reps = 2.0, 1000, 16
    L, Delta, K_AMP = 100, 0.1, 15

    def setup(self, seed):
        import stoloc as sl
        prior = sl.Prior.discrete(Z2["atoms"], Z2["weights"])
        inst = sl.gen_spiked(prior, self.beta, self.n, seed)
        cfg = sl.SamplerConfig(L=self.L, Delta=self.Delta, K_AMP=self.K_AMP,
                               seed=seed)
        return {"prior": prior, "inst": inst, "cfg": cfg}

    def sample(self, st):
        import stoloc as sl
        recs = sl.sample_spiked_discrete_many(
            st["inst"].X, self.beta, st["prior"], st["cfg"], self.reps)
        return np.stack([r.theta_alg for r in recs], axis=1)

    def check(self, st, samples):
        inst = st["inst"]
        return checks.check_spiked_z2(inst.X, inst.theta, self.beta, samples)


class LinearThreePoint:
    """``sample_linear_high_snr_many``: the regression half of the paper."""

    delta, sigma2, p, reps = 2.0, 0.25, 500, 24
    L, Delta, K_AMP, K_NGD, eta = 40, 0.05, 8, 3, 0.02

    def setup(self, seed):
        import stoloc as sl
        prior = sl.Prior.discrete(THREE_POINT["atoms"],
                                  THREE_POINT["weights"], normalize=True)
        inst = sl.gen_linear(prior, self.delta, self.sigma2, self.p, seed)
        cfg = sl.SamplerConfig(L=self.L, Delta=self.Delta, K_AMP=self.K_AMP,
                               K_NGD=self.K_NGD, eta=self.eta, seed=seed)
        return {"prior": prior, "inst": inst, "cfg": cfg}

    def sample(self, st, sigma2=None):
        import stoloc as sl
        inst = st["inst"]
        recs = sl.sample_linear_high_snr_many(
            inst.X, inst.y0, st["prior"],
            inst.sigma2 if sigma2 is None else sigma2, inst.delta,
            st["cfg"], self.reps)
        return np.stack([r.theta_alg for r in recs], axis=1)

    def check(self, st, samples):
        import stoloc as sl
        inst = st["inst"]
        m_amp = sl.amp_linear(inst.X, inst.y0, st["prior"], inst.sigma2,
                              inst.delta, self.K_AMP).m_hat
        return checks.check_linear(
            checks.normalized_atoms(**THREE_POINT), THREE_POINT["weights"],
            inst.delta, inst.sigma2, 1.0 / inst.sigma2 + self.L * self.Delta,
            inst.theta, m_amp, samples)


class ExactOracle:
    """``localize_general_many`` driven by ``exact_drift_oracle``: the
    ground-truth sampler, checked against ``enumerate_posterior``."""

    beta, n, reps = 1.5, 10, 1500
    L, Delta = 400, 0.025

    def setup(self, seed, drift_beta=None):
        import stoloc as sl
        prior = sl.Prior.discrete(Z2["atoms"], Z2["weights"])
        inst = sl.gen_spiked(prior, self.beta, self.n, seed)
        _, v1 = sl.top_eigpair(inst.X, rng=sl.stream(seed, "bench-eig"))
        post = sl.enumerate_posterior(inst.X, np.zeros(self.n), 0.0,
                                      self.beta, prior, symmetry_break=v1)
        drift = sl.exact_drift_oracle(
            inst.X, self.beta if drift_beta is None else drift_beta, prior,
            symmetry_break=v1)
        cfg = sl.SamplerConfig(L=self.L, Delta=self.Delta, seed=seed)
        return {"post": post, "drift": drift, "cfg": cfg}

    def sample(self, st):
        import stoloc as sl
        recs = sl.localize_general_many(st["drift"], None, self.n, st["cfg"],
                                        self.reps)
        return np.stack([r.theta_alg for r in recs], axis=1)

    def check(self, st, samples):
        return checks.check_exact(st["post"].mean, st["post"].pair_moments,
                                  samples)


LIBRARY = {
    "spiked_z2": SpikedZ2,
    "linear_three_point": LinearThreePoint,
    "exact_oracle": ExactOracle,
}

# stoloc gen, then stoloc sample on the instance file. The mixture weights
# are unequal so the prior is not sign-symmetric: the sampler then fixes the
# sign by sign alignment instead of a coin flip, the signed identity
# <m, theta> = ||m||^2 holds per row, and a sign error shows.
CLI = {
    "prior": {"type": "continuous", "potential": "gaussian_mixture",
              "weights": [0.4, 0.6], "means": [-1.2, 1.2],
              "stds": [0.35, 0.35], "normalize": True},
    "beta": 3.0, "n": 200, "reps": 2,
    "sampler": {"L": 10, "Delta": 0.2, "K_AMP": 8, "K_GD": 5, "zeta": 0.01},
    "threads": 1,
}

WORKLOADS = tuple(LIBRARY) + ("cli_continuous",)


def round_seed(seed, rnd):
    """Seed of call ``rnd`` of a run started with ``seed``."""
    return int(seed) * 1000 + int(rnd)


def call_kinds(rnd, trace):
    """Whether each call on the inputs of ``rnd`` is traced. A traced run
    pairs an untraced and a traced call and alternates their order, so
    warm-up does not bias the tracing overhead."""
    if not trace:
        return (False,)
    return (False, True) if rnd % 2 == 0 else (True, False)
