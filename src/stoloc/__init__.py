"""Diffusion-based posterior sampling for spiked matrix models and
high-dimensional linear regression: Bayes AMP, state evolution, TAP
free-energy minimization, an exact enumeration oracle and desk-scale
experiment reproduction."""

from . import errors
from .amp import (
    AmpState,
    amp_linear,
    amp_linear_side,
    amp_matrix,
    amp_spiked,
    sign_align,
    trace_rows,
)
from .metrics import (
    OverlapPmf,
    empirical_overlap_pmf,
    normalized_loglik,
    theoretical_overlap_pmf,
    tv_distance,
    w2_1d,
)
from .model import (
    LinearInstance,
    SpikedInstance,
    estimate_beta,
    gen_linear,
    gen_spiked,
    load_instance,
    sample_goe,
    save_instance,
    spectral_init,
    top_eigpair,
)
from .oracle import (
    ExactPosterior,
    enumerate_posterior,
    exact_drift_oracle,
    exact_sample,
)
from .priors import (
    ChannelEval,
    Prior,
    char_fn_imag,
    denoise,
    legendre_h_bivariate,
    legendre_h_univariate,
    mmse,
    mutual_info,
    normalize_unit_second_moment,
    posterior_mean,
    tilt_log_mgf,
    tilted_moments,
)
from .rng import stream
from .sampler import (
    RunRecord,
    SamplerConfig,
    localize_general,
    localize_general_many,
    round_to_support,
    sample_linear_high_snr,
    sample_linear_high_snr_many,
    sample_linear_low_snr,
    sample_linear_low_snr_many,
    sample_spiked_continuous,
    sample_spiked_discrete,
    sample_spiked_discrete_many,
    sample_spiked_matrix_process,
)
from .se import (
    LinearSETrace,
    SpikedSETrace,
    fixed_point_scan,
    phi_linear,
    phi_spiked,
    run_se_linear,
    run_se_spiked,
)
from .tap import (
    TapLinearState,
    TapSpikedProblem,
    f_tap_linear,
    f_tap_spiked,
    ngd_linear,
    sphere_retraction,
    spiked_tap_problem,
    tangent_basis,
    tangent_gd,
    write_optimizer_trace,
)

__version__ = "0.1.0"
