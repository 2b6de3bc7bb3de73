"""Command-line harness.

Subcommands: ``gen`` (instance files), ``sample`` (sampling runs),
``se`` (state-evolution traces), ``oracle-check`` (exact-oracle pass/fail
report) and ``reproduce`` (desk-scale experiment bundles for the trajectory,
overlap-histogram and log-likelihood figures). Every command reads a JSON
spec file (``spec_version`` required, unknown keys rejected), writes its
CSVs with 17 significant digits plus a JSON manifest, and exits 0 on
success, 2 on validation errors, 3 on numerical failure. Partially written
outputs are removed on failure.
"""

import argparse
import concurrent.futures
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .amp import amp_spiked
from .errors import StolocError
from .metrics import (
    empirical_overlap_pmf,
    normalized_loglik,
    theoretical_overlap_pmf,
    tv_distance,
)
from .model import (
    gen_linear,
    gen_spiked,
    load_instance,
    save_instance,
    spectral_init,
    top_eigpair,
)
from .oracle import enumerate_posterior, exact_drift_oracle
from .priors import Prior
from .rng import stream
from .sampler import (
    SamplerConfig,
    localize_general_many,
    round_to_support,
    sample_linear_high_snr,
    sample_linear_low_snr,
    sample_spiked_continuous,
    sample_spiked_discrete,
    sample_spiked_discrete_many,
    sample_spiked_matrix_process,
)
from .se import phi_linear, phi_spiked, run_se_linear, run_se_spiked

SPEC_VERSION = 1


def _subseed(seed, *tags):
    """Stable derived integer seed for per-figure/per-beta instances."""
    out = int(seed)
    for tag in tags:
        out = (out * 1_000_003 + int(tag)) % (2 ** 63)
    return out


class SpecError(ValueError):
    """Invalid experiment spec (exit code 2)."""


# ---------------------------------------------------------------------------
# spec handling
# ---------------------------------------------------------------------------

_TOP_KEYS = {"spec_version", "model", "sampler", "se", "oracle", "reproduce",
             "seed", "reps", "out", "emit", "threads"}
_MODEL_KEYS = {"kind", "prior", "beta", "delta", "sigma2", "n", "p",
               "instance_file"}
_SAMPLER_KEYS = {"L", "Delta", "K_AMP", "K_GD", "K_NGD", "zeta", "eta",
                 "record_trajectory", "record_coords", "projection_radius",
                 "algorithm", "allow_subcritical"}
_SE_KEYS = {"t", "K", "kind"}
_ORACLE_KEYS = {"n", "beta", "L", "Delta", "reps", "mean_tol", "pair_tol"}
_EMIT = {"trajectory", "histogram", "loglik", "se"}


def load_spec(path, overrides=None):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    if spec.get("spec_version") != SPEC_VERSION:
        raise SpecError(f"spec_version must be {SPEC_VERSION}")
    unknown = set(spec) - _TOP_KEYS
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    for block, allowed in (("model", _MODEL_KEYS), ("sampler", _SAMPLER_KEYS),
                           ("se", _SE_KEYS), ("oracle", _ORACLE_KEYS)):
        extra = set(spec.get(block, {})) - allowed
        if extra:
            raise SpecError(f"unknown {block} keys: {sorted(extra)}")
    bad_emit = set(spec.get("emit", [])) - _EMIT
    if bad_emit:
        raise SpecError(f"unknown emit targets: {sorted(bad_emit)}")
    if overrides:
        spec.update({k: v for k, v in overrides.items() if v is not None})
    spec.setdefault("seed", 0)
    spec.setdefault("reps", 1)
    spec.setdefault("emit", ["loglik"])
    return spec


def _prior_from_spec(spec):
    model = spec.get("model", {})
    if "prior" not in model:
        raise SpecError("model.prior is required")
    try:
        return Prior.from_config(model["prior"])
    except (ValueError, KeyError) as exc:
        raise SpecError(f"invalid prior config: {exc}") from exc


def _sampler_config(spec):
    s = dict(spec.get("sampler", {}))
    s.pop("algorithm", None)
    s.pop("allow_subcritical", None)
    if "L" not in s or "Delta" not in s:
        raise SpecError("sampler.L and sampler.Delta are required")
    try:
        return SamplerConfig(seed=spec["seed"], **s)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid sampler config: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    return str(x)


class OutputDir:
    """Tracks files written by one command so failures clean up."""

    def __init__(self, path):
        self.path = path
        self.written = []
        os.makedirs(path, exist_ok=True)

    def file(self, name):
        full = os.path.join(self.path, name)
        self.written.append(full)
        return full

    def write_csv(self, name, header, rows):
        full = self.file(name)
        with open(full, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return full

    def write_manifest(self, command, spec, t_start, extra=None):
        payload = {"command": command, "spec": spec,
                   "version": f"stoloc {__version__}",
                   "wall_time_s": time.time() - t_start}
        if extra:
            payload.update(extra)
        full = self.file("manifest.json")
        with open(full, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        return full

    def cleanup(self):
        for f in self.written:
            try:
                os.remove(f)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _gen_instance(spec, prior):
    model = spec.get("model", {})
    kind = model.get("kind")
    seed = spec["seed"]
    if model.get("instance_file"):
        return load_instance(model["instance_file"])
    if kind == "spiked":
        for key in ("beta", "n"):
            if key not in model:
                raise SpecError(f"model.{key} is required for spiked")
        return gen_spiked(prior, model["beta"], model["n"], seed)
    if kind == "linear":
        for key in ("delta", "sigma2", "p"):
            if key not in model:
                raise SpecError(f"model.{key} is required for linear")
        return gen_linear(prior, model["delta"], model["sigma2"], model["p"],
                          seed)
    raise SpecError("model.kind must be 'spiked' or 'linear'")


def cmd_gen(spec, out):
    t0 = time.time()
    prior = _prior_from_spec(spec)
    inst = _gen_instance(spec, prior)
    save_instance(out.file("instance.npz"), inst)
    out.write_manifest("gen", spec, t0)
    return 0


def _pick_algorithm(spec, prior):
    model = spec.get("model", {})
    algo = spec.get("sampler", {}).get("algorithm", "auto")
    if algo != "auto":
        return algo
    if model.get("kind") == "spiked":
        return "spiked_discrete" if prior.is_discrete else "spiked_continuous"
    return "linear_high_snr"


def _run_one(algo, inst, prior, cfg, spec, rep_rng):
    if algo == "spiked_discrete":
        return sample_spiked_discrete(
            inst.X, inst.beta, prior, cfg, rng=rep_rng,
            allow_subcritical=spec.get("sampler", {}).get(
                "allow_subcritical", False))
    if algo == "spiked_continuous":
        return sample_spiked_continuous(inst.X, inst.beta, prior, cfg,
                                        rng=rep_rng)
    if algo == "spiked_matrix":
        return sample_spiked_matrix_process(inst.X, inst.beta, prior, cfg,
                                            rng=rep_rng)
    if algo == "linear_high_snr":
        return sample_linear_high_snr(inst.X, inst.y0, prior, inst.sigma2,
                                      inst.delta, cfg, rng=rep_rng)
    if algo == "linear_low_snr":
        return sample_linear_low_snr(inst.X, inst.y0, prior, inst.sigma2,
                                     inst.delta, cfg, rng=rep_rng)
    raise SpecError(f"unknown sampler.algorithm {algo!r}")


def cmd_sample(spec, out):
    t0 = time.time()
    prior = _prior_from_spec(spec)
    inst = _gen_instance(spec, prior)
    cfg = _sampler_config(spec)
    algo = _pick_algorithm(spec, prior)
    reps = int(spec["reps"])
    threads = int(spec.get("threads", 1))

    def worker(r):
        return _run_one(algo, inst, prior, cfg, spec,
                        stream(spec["seed"], "rep", r))

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            records = list(pool.map(worker, range(reps)))
    else:
        records = [worker(r) for r in range(reps)]

    beta = getattr(inst, "beta", None)
    rows = []
    for r, rec in enumerate(records):
        theta = rec.theta_alg
        row = [r, np.sum(theta * theta) / len(theta)]
        if beta is not None:
            row.append(normalized_loglik(inst.X, theta, beta))
        else:
            row.append(np.sum((theta - inst.theta) ** 2) / len(theta))
        row.append(float(theta @ inst.theta) / len(theta))
        rows.append(row)
    out.write_csv("summary.csv",
                  ["rep", "norm_sq_over_dim",
                   "loglik" if beta is not None else "mse",
                   "overlap_over_dim"], rows)

    if "trajectory" in spec["emit"]:
        for r, rec in enumerate(records):
            diag = rec.diagnostics
            if "t" not in diag:
                continue
            coords = diag.get("drift_coords")
            n_steps = len(diag["t"])
            rows = []
            for ell in range(n_steps):
                row = [ell, diag["t"][ell],
                       float(np.ravel(diag["y_norm_over_sqrt_dim"][ell])[0]),
                       float(np.ravel(diag["drift_norm_sq_over_dim"][ell])[0])]
                if coords is not None:
                    row.extend(np.ravel(coords[ell])[:2])
                rows.append(row)
            hdr = ["ell", "t", "y_norm_over_sqrt_dim",
                   "drift_norm_sq_over_dim"]
            if coords is not None:
                hdr += ["m1", "m2"]
            out.write_csv(f"trajectory_rep{r:04d}.csv", hdr, rows)

    if "histogram" in spec["emit"] and beta is not None and prior.is_discrete:
        # overlap statistics live on the sign-broken branch: condition each
        # rounded sample and the hidden signal on the spectral half-space
        # the prediction is computed in (each rep drew its own sign)
        nu = spectral_init(inst.X, inst.beta,
                           rng=stream(spec["seed"], "hist-eig"))
        samples = np.stack([
            round_to_support(rec.theta_alg, prior,
                             stream(spec["seed"], "round", r))
            for r, rec in enumerate(records)])
        samples *= np.where(samples @ nu >= 0, 1.0, -1.0)[:, None]
        theta_branch = inst.theta * (1 if inst.theta @ nu >= 0 else -1)
        emp = empirical_overlap_pmf(samples, theta_branch)
        m00 = amp_spiked(inst.X, np.zeros(inst.n), 0.0, inst.beta, prior,
                         cfg.K_AMP, nu).m_hat
        theo = theoretical_overlap_pmf(np.clip(m00[:10], -1, 1))
        out.write_csv("histogram.csv",
                      ["value", "empirical_prob", "theoretical_prob"],
                      [[v, pe, pt] for v, pe, pt in
                       zip(emp.support, emp.probs, theo.probs)])

    if "se" in spec["emit"] and beta is not None:
        tr = run_se_spiked(prior, beta, 0.0, max(cfg.K_AMP, 1))
        out.write_csv("se_trace.csv", ["k", "gamma", "onsager", "phi"],
                      [[k, tr.gammas[k], tr.onsager[k],
                        phi_spiked(prior, tr.gammas[k], tr.beta, tr.t)]
                       for k in range(len(tr.gammas))])

    out.write_manifest("sample", spec, t0, extra={"algorithm": algo})
    return 0


def cmd_se(spec, out):
    t0 = time.time()
    prior = _prior_from_spec(spec)
    model = spec.get("model", {})
    se_spec = spec.get("se", {})
    t = float(se_spec.get("t", 0.0))
    K = int(se_spec.get("K", 40))
    kind = se_spec.get("kind", model.get("kind"))
    if kind == "spiked":
        if "beta" not in model:
            raise SpecError("model.beta is required")
        tr = run_se_spiked(prior, model["beta"], t, K, with_phi=True)
        rows = [[k, tr.gammas[k], tr.onsager[k],
                 phi_spiked(prior, tr.gammas[k], tr.beta, tr.t)]
                for k in range(len(tr.gammas))]
        out.write_csv("se_trace.csv", ["k", "gamma", "onsager", "phi"], rows)
        out.write_manifest("se", spec, t0,
                           extra={"gamma_star": tr.gamma_star, "q": tr.q})
    elif kind == "linear":
        for key in ("delta", "sigma2"):
            if key not in model:
                raise SpecError(f"model.{key} is required")
        tr = run_se_linear(prior, model["delta"], model["sigma2"], t, K)
        e_star = tr.E_star
        rows = []
        for k in range(len(tr.gammas)):
            ek = tr.Es[k + 1]
            bound = abs(1.0 - e_star) / 2.0 ** (k + 1)
            ratio = abs(ek - e_star) / bound if bound > 0 else 0.0
            rows.append([k, ek, tr.onsager_xi[k], tr.onsager_eta[k],
                         phi_linear(prior, tr.gammas[k], tr.sigma2, tr.delta),
                         ratio, int(ratio <= 1.0)])
        out.write_csv("se_trace.csv",
                      ["k", "E", "onsager_xi", "onsager_eta", "phi",
                       "contraction_ratio", "contraction_ok"], rows)
        out.write_manifest("se", spec, t0, extra={"E_star": e_star})
    else:
        raise SpecError("se.kind (or model.kind) must be spiked or linear")
    return 0


def cmd_oracle_check(spec, out):
    """Desk-scale surrogate for the sampling guarantee: localization with
    the exact drift oracle must reproduce exact posterior means/moments."""
    t0 = time.time()
    prior = _prior_from_spec(spec)
    o = spec.get("oracle", {})
    n = int(o.get("n", 8))
    beta = float(o.get("beta", 1.5))
    L = int(o.get("L", 400))
    delta_t = float(o.get("Delta", 0.01))
    reps = int(o.get("reps", 2000))
    mean_tol = float(o.get("mean_tol", 0.05))
    pair_tol = float(o.get("pair_tol", 0.10))
    seed = spec["seed"]

    inst = gen_spiked(prior, beta, n, seed)
    sym = prior.is_symmetric
    v1 = None
    if sym:
        _, v1 = top_eigpair(inst.X, rng=stream(seed, "oracle-eig"))
    post = enumerate_posterior(inst.X, np.zeros(n), 0.0, beta, prior,
                               symmetry_break=v1)
    drift = exact_drift_oracle(inst.X, beta, prior, symmetry_break=v1)
    cfg = SamplerConfig(L=L, Delta=delta_t, seed=seed, record_coords=0)
    recs = localize_general_many(drift, None, n, cfg, reps,
                                 rng=stream(seed, "oracle-run"))
    finals = np.stack([r.theta_alg for r in recs], axis=1)
    mean_err = float(np.abs(finals.mean(axis=1) - post.mean).max())
    pair_emp = finals @ finals.T / reps
    pair_err = float(np.abs(pair_emp - post.pair_moments).max())
    passed = mean_err <= mean_tol and pair_err <= pair_tol
    report = {"pass": bool(passed), "mean_err": mean_err,
              "pair_err": pair_err, "mean_tol": mean_tol,
              "pair_tol": pair_tol, "n": n, "beta": beta, "L": L,
              "Delta": delta_t, "reps": reps}
    full = out.file("report.json")
    with open(full, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    out.write_manifest("oracle-check", spec, t0, extra=report)
    return 0 if passed else 3


def _reproduce_defaults(figure):
    if figure == 1:
        return {"betas": [0.5, 1.5, 3.0], "n": 1000, "L": 500,
                "Delta": 0.02, "K_AMP": 15, "reps": 5}
    if figure == 2:
        return {"betas": [1.5, 2.0, 3.0], "n": 1000, "L": 500,
                "Delta": 0.02, "K_AMP": 8, "reps": 1000}
    return {"betas": [1.5, 2.0, 3.0], "n": 1000,
            "Ls": [125, 250, 500, 1000], "Delta": 0.01, "K_AMP": 15,
            "reps": 300}


def cmd_reproduce(figure, spec, out):
    t0 = time.time()
    params = _reproduce_defaults(figure)
    params.update(spec.get("reproduce", {}))
    if "reps" in spec and spec["reps"] != 1:
        params["reps"] = spec["reps"]
    prior = Prior.discrete([-1.0, 1.0], [0.5, 0.5])
    seed = spec["seed"]
    n = int(params["n"])
    reps = int(params["reps"])

    if figure == 1:
        rows = []
        for beta in params["betas"]:
            inst = gen_spiked(prior, beta, n, _subseed(seed, int(beta * 1000)))
            cfg = SamplerConfig(L=int(params["L"]), Delta=params["Delta"],
                                K_AMP=int(params["K_AMP"]), seed=seed,
                                record_coords=2)
            recs = sample_spiked_discrete_many(
                inst.X, beta, prior, cfg, reps,
                rng=stream(seed, "fig1", int(beta * 1000)),
                allow_subcritical=True)
            for r, rec in enumerate(recs):
                coords = rec.diagnostics["drift_coords"]
                for ell in range(coords.shape[0]):
                    rows.append([beta, r, ell * params["Delta"],
                                 coords[ell][0], coords[ell][1]])
        out.write_csv("fig1_trajectories.csv",
                      ["beta", "rep", "t", "m1", "m2"], rows)
    elif figure == 2:
        rows = []
        tvs = {}
        for beta in params["betas"]:
            inst = gen_spiked(prior, beta, n, _subseed(seed, int(beta * 1000)))
            cfg = SamplerConfig(L=int(params["L"]), Delta=params["Delta"],
                                K_AMP=int(params["K_AMP"]), seed=seed,
                                record_coords=0)
            batch_rng = stream(seed, "fig2", int(beta * 1000))
            nu = spectral_init(inst.X, beta, rng=batch_rng)
            recs = sample_spiked_discrete_many(inst.X, beta, prior, cfg,
                                               reps, rng=batch_rng, nu=nu)
            samples = np.stack([
                round_to_support(rec.theta_alg * (rec.sign_used or 1), prior,
                                 stream(seed, "fig2-round", r))
                for r, rec in enumerate(recs)])
            theta_branch = inst.theta * (1 if inst.theta @ nu >= 0 else -1)
            emp = empirical_overlap_pmf(samples, theta_branch)
            m00 = amp_spiked(inst.X, np.zeros(n), 0.0, beta, prior,
                             cfg.K_AMP, nu).m_hat
            theo = theoretical_overlap_pmf(np.clip(m00[:10], -1, 1))
            for v, pe, pt in zip(emp.support, emp.probs, theo.probs):
                rows.append([beta, v, pe, pt])
            tvs[str(beta)] = tv_distance(emp, theo)
        out.write_csv("fig2_histograms.csv",
                      ["beta", "value", "empirical_prob",
                       "theoretical_prob"], rows)
        params = dict(params, tv=tvs)
    elif figure == 3:
        rows = []
        for beta in params["betas"]:
            inst = gen_spiked(prior, beta, n, _subseed(seed, int(beta * 1000)))
            for L in params["Ls"]:
                cfg = SamplerConfig(L=int(L), Delta=params["Delta"],
                                    K_AMP=int(params["K_AMP"]), seed=seed,
                                    record_coords=0)
                recs = sample_spiked_discrete_many(
                    inst.X, beta, prior, cfg, reps,
                    rng=stream(seed, "fig3", int(beta * 1000), int(L)),
                    allow_subcritical=True)
                lls = np.array([normalized_loglik(inst.X, r.theta_alg, beta)
                                for r in recs])
                rows.append([beta, L, L * params["Delta"], lls.mean(),
                             np.quantile(lls, 0.1), np.quantile(lls, 0.9)])
        out.write_csv("fig3_loglik.csv",
                      ["beta", "L", "T", "mean", "q10", "q90"], rows)
    else:
        raise SpecError("figure must be 1, 2 or 3")
    out.write_manifest(f"reproduce-{figure}", spec, t0, extra=params)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stoloc",
        description="Diffusion-based posterior sampling harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen", "sample", "se", "oracle-check", "reproduce"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=(name != "reproduce"),
                       help="JSON experiment spec")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
        if name == "reproduce":
            p.add_argument("--figure", type=int, required=True,
                           choices=(1, 2, 3))
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("LOC_SAMPLER_THREADS", "1"))
    try:
        if args.spec:
            spec = load_spec(args.spec, overrides={
                "seed": args.seed, "reps": args.reps, "out": args.out,
                "threads": threads})
        else:
            spec = {"spec_version": SPEC_VERSION, "seed": args.seed or 0,
                    "reps": args.reps or 1, "threads": threads,
                    "emit": ["loglik"]}
            if args.out:
                spec["out"] = args.out
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = spec.get("out")
    if not out_dir:
        print("error: no output directory (--out or spec.out)",
              file=sys.stderr)
        return 2
    out = OutputDir(out_dir)
    try:
        if args.command == "gen":
            return cmd_gen(spec, out)
        if args.command == "sample":
            return cmd_sample(spec, out)
        if args.command == "se":
            return cmd_se(spec, out)
        if args.command == "oracle-check":
            return cmd_oracle_check(spec, out)
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, spec, out)
        raise SpecError(f"unknown command {args.command!r}")
    except SpecError as exc:
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StolocError, FloatingPointError, np.linalg.LinAlgError) as exc:
        out.cleanup()
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
