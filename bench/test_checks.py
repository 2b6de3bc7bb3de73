"""Tests of the benchmark's own code: every output check rejects a
known-wrong input, the reference computations agree with the package's
state evolution, and the tracer counts and times what it wraps.

    python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import stoloc as sl  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7


def failed(check_list):
    return {c.name for c in check_list if not c.passed}


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def test_z2_overlap_matches_package_state_evolution():
    prior = sl.Prior.discrete([-1.0, 1.0], [0.5, 0.5])
    se = sl.run_se_spiked(prior, 2.0, 0.0, 0)
    assert checks.spiked_overlap([-1.0, 1.0], [0.5, 0.5], 2.0) == \
        pytest.approx(se.q, abs=1e-9)


def test_linear_mmse_matches_package_state_evolution():
    prior = sl.Prior.discrete(**workloads.THREE_POINT, normalize=True)
    atoms = checks.normalized_atoms(**workloads.THREE_POINT)
    for sigma2 in (0.25, 1.0 / 6.0):
        se = sl.run_se_linear(prior, 2.0, sigma2, 0.0, 0)
        assert checks.linear_mmse(atoms, workloads.THREE_POINT["weights"],
                                  2.0, sigma2) == \
            pytest.approx(se.E_star, abs=1e-9)


# ---------------------------------------------------------------------------
# spiked_z2
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def z2():
    wl = workloads.SpikedZ2()
    st = wl.setup(SEED)
    inst = st["inst"]
    nu = sl.spectral_init(inst.X, wl.beta, rng=sl.stream(SEED, "eig"))
    m0 = sl.amp_spiked(inst.X, np.zeros(wl.n), 0.0, wl.beta, st["prior"],
                       wl.K_AMP, nu).m_hat
    return wl, inst, m0


def test_spiked_z2_rejects_posterior_mean_at_t0(z2):
    wl, inst, m0 = z2
    signs = np.where(np.arange(wl.reps) % 2, 1.0, -1.0)
    bad = failed(checks.check_spiked_z2(inst.X, inst.theta, wl.beta,
                                        m0[:, None] * signs))
    assert {"loglik_vs_truth", "entries_near_atoms"} <= bad


def test_spiked_z2_rejects_noisy_truth(z2):
    wl, inst, _ = z2
    rng = np.random.default_rng(0)
    flips = np.where(rng.random((wl.n, wl.reps)) < 0.1, -1.0, 1.0)
    bad = failed(checks.check_spiked_z2(inst.X, inst.theta, wl.beta,
                                        inst.theta[:, None] * flips))
    assert "overlap_vs_q_star" in bad


def test_spiked_z2_rejects_draws_from_the_prior(z2):
    wl, inst, _ = z2
    rng = np.random.default_rng(0)
    draws = rng.choice([-1.0, 1.0], size=(wl.n, wl.reps))
    bad = failed(checks.check_spiked_z2(inst.X, inst.theta, wl.beta, draws))
    assert {"loglik_vs_truth", "overlap_vs_q_star"} <= bad


def test_spiked_z2_accepts_sampler_when_truth_is_in_the_tail():
    # an instance whose truth lies about 3.2 posterior standard deviations
    # below the samples in log-likelihood, while the sixteen samples
    # happen to spread about half as much as the posterior
    wl = workloads.SpikedZ2()
    st = wl.setup(1130004852010)
    assert not failed(wl.check(st, wl.sample(st)))


def test_t_bound_has_the_tail_of_z_max():
    assert checks.t_bound(10 ** 6) == pytest.approx(checks.Z_MAX, rel=1e-4)
    assert checks.t_bound(16) > 2.0 * checks.Z_MAX


def test_spiked_z2_rejects_copies_of_the_truth(z2):
    wl, inst, _ = z2
    bad = failed(checks.check_spiked_z2(
        inst.X, inst.theta, wl.beta,
        np.repeat(inst.theta[:, None], wl.reps, axis=1)))
    assert "overlap_vs_q_star" in bad


def test_checks_reject_non_finite_samples(z2):
    wl, inst, _ = z2
    samples = np.repeat(inst.theta[:, None], wl.reps, axis=1)
    samples[3, 1] = np.nan
    assert failed(checks.check_spiked_z2(inst.X, inst.theta, wl.beta,
                                         samples)) == {"finite"}


# ---------------------------------------------------------------------------
# linear_three_point
# ---------------------------------------------------------------------------

def test_linear_rejects_samples_at_wrong_noise_level():
    wl = workloads.LinearThreePoint()
    st = wl.setup(SEED)
    samples = wl.sample(st, sigma2=4.0 * wl.sigma2)
    assert failed(wl.check(st, samples)) == {"mse_nishimori", "mean_vs_amp"}


def test_linear_rejects_collapsed_samples():
    wl = workloads.LinearThreePoint()
    st = wl.setup(SEED)
    inst = st["inst"]
    m_amp = sl.amp_linear(inst.X, inst.y0, st["prior"], inst.sigma2,
                          inst.delta, wl.K_AMP).m_hat
    # the MSE of a collapsed sampler is E*(sigma2), within the MSE check's
    # tolerance at p=500; the spread of the sample mean gives it away
    bad = failed(wl.check(st, np.repeat(m_amp[:, None], wl.reps, axis=1)))
    assert "mean_vs_amp" in bad


# ---------------------------------------------------------------------------
# exact_oracle
# ---------------------------------------------------------------------------

def test_exact_rejects_drift_at_wrong_beta():
    wl = workloads.ExactOracle()
    st = wl.setup(SEED, drift_beta=2.5)
    assert failed(wl.check(st, wl.sample(st))) == \
        {"means_vs_enumeration", "pairs_vs_enumeration"}


# ---------------------------------------------------------------------------
# cli_continuous
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_truth():
    cfg = workloads.CLI
    prior = sl.Prior.from_config(cfg["prior"])
    inst = sl.gen_spiked(prior, cfg["beta"], cfg["n"], SEED)
    return inst


def summary_rows(inst, samples):
    """Rows as ``stoloc sample`` writes them to summary.csv."""
    n = inst.n
    return [{"rep": r, "norm_sq_over_dim": float(s @ s) / n,
             "loglik": sl.normalized_loglik(inst.X, s, inst.beta),
             "overlap_over_dim": float(s @ inst.theta) / n}
            for r, s in enumerate(samples)]


def test_cli_rejects_truth_with_flipped_sign(cli_truth):
    reps, n = workloads.CLI["reps"], workloads.CLI["n"]
    rows = summary_rows(cli_truth, [-cli_truth.theta] * reps)
    assert failed(checks.check_cli_summary(rows, reps, n)) == \
        {"overlap_equals_norm"}


def test_cli_rejects_missing_or_non_finite_rows(cli_truth):
    reps, n = workloads.CLI["reps"], workloads.CLI["n"]
    rows = summary_rows(cli_truth, [cli_truth.theta] * reps)
    assert not failed(checks.check_cli_summary(rows, reps, n))
    assert failed(checks.check_cli_summary(rows[:-1], reps, n)) == \
        {"one_finite_row_per_rep"}
    rows[0]["loglik"] = math.nan
    assert failed(checks.check_cli_summary(rows, reps, n)) == \
        {"one_finite_row_per_rep"}


def test_read_summary_parses_cli_csv(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text("rep,norm_sq_over_dim,loglik,overlap_over_dim\n"
                    "0,0.95,4.1,0.94\n1,0.96,4.2,0.97\n")
    rows = checks.read_summary(path)
    assert [r["overlap_over_dim"] for r in rows] == [0.94, 0.97]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_times_nested_calls():
    original = sl.priors.denoise
    prior = sl.Prior.discrete([-1.0, 1.0], [0.5, 0.5])
    inst = sl.gen_spiked(prior, 2.0, 60, SEED)
    nu = sl.spectral_init(inst.X, 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        assert sl.amp.denoise is sl.priors.denoise is sl.denoise
        assert sl.priors.denoise is not original
        sl.amp_spiked(inst.X, np.zeros(60), 0.0, 2.0, prior, 4, nu)
    finally:
        tracer.uninstall()
    assert sl.amp.denoise is original and sl.denoise is original
    stats = tracer.layer_stats()
    assert stats["amp.amp_spiked"]["calls"] == 1
    assert stats["se.run_se_spiked"]["calls"] == 1
    amp_denoise = 5                     # K + 1 calls on z of size 60
    mmse_calls = stats["priors.mmse"]["calls"]
    assert stats["priors.denoise"]["calls"] >= amp_denoise
    assert stats["priors.denoise"]["work"] >= amp_denoise * 60
    root = [s for s in tracer.spans if s[1] == -1]
    assert len(root) == 1 and root[0][0] == "amp.amp_spiked"
    total_self = sum(st["self_s"] for st in stats.values())
    assert total_self == pytest.approx(root[0][3] - root[0][2], rel=1e-6)
    assert all(st["self_s"] >= 0 for st in stats.values())
    assert mmse_calls > 0


def test_tracer_traces_the_exact_drift_closure():
    prior = sl.Prior.discrete([-1.0, 1.0], [0.5, 0.5])
    inst = sl.gen_spiked(prior, 1.5, 6, SEED)
    tracer = Tracer()
    tracer.install()
    try:
        drift = sl.exact_drift_oracle(inst.X, 1.5, prior)
        drift(np.zeros((6, 5)), 0.5)
        drift(np.zeros(6), 0.5)
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    assert stats["oracle.exact_drift_oracle"]["calls"] == 1
    assert stats["oracle.drift"]["calls"] == 2
    assert stats["oracle.drift"]["work"] == 6


def test_layer_metrics_from_span_statistics():
    layers = {"sampler.a": {"calls": 1, "self_s": 0.5, "work": 0},
              "sampler.b": {"calls": 1, "self_s": 0.25, "work": 0},
              "tap.tangent_gd": {"calls": 4, "self_s": 1.0, "work": 0},
              "tap.f_tap_spiked": {"calls": 40, "self_s": 2.0, "work": 0},
              "priors.denoise": {"calls": 3, "self_s": 0.1, "work": 300}}
    k_gd = run.DESCENT_STEPS["tap.tangent_gd"]
    assert run.layer_metric("sampler.self_s", layers) == 0.75
    assert run.layer_metric("tap.f_tap_spiked.per_gd_step", layers) == \
        40 / (4 * k_gd)
    assert run.layer_metric("tap.f_tap_linear.per_ngd_step", layers) == 0.0
    assert run.layer_metric("priors.denoise.elements", layers) == 300
    assert run.layer_metric("priors.denoise.calls", layers) == 3
    assert run.layer_metric("oracle.drift.self_s", layers) == 0
