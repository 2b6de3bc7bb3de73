"""CLI harness: spec validation, outputs, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

import stoloc as sl
from stoloc.cli import main

RAD_PRIOR = {"type": "discrete", "atoms": [-1.0, 1.0],
             "weights": [0.5, 0.5], "normalize": False}


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def spiked_spec(tmp_path):
    return write_spec(tmp_path, "spec.json", {
        "spec_version": 1,
        "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 2.0,
                  "n": 80},
        "sampler": {"L": 30, "Delta": 0.05, "K_AMP": 5},
        "seed": 5, "reps": 3,
        "emit": ["trajectory", "loglik", "histogram"],
    })


class TestSpecValidation:
    def test_unknown_top_key_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json",
                          {"spec_version": 1, "bogus": 1})
        assert main(["sample", "--spec", spec,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_version_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {"model": {}})
        assert main(["se", "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_sampler_key_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, "bad.json", {
            "spec_version": 1,
            "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 2.0,
                      "n": 10},
            "sampler": {"L": 2, "Delta": 0.1, "warp": 9}})
        assert main(["sample", "--spec", spec,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_out_dir_exits_2(self, spiked_spec):
        spec = json.loads(open(spiked_spec).read())
        assert "out" not in spec
        assert main(["sample", "--spec", spiked_spec]) == 2


class TestGen:
    def test_instance_round_trip(self, tmp_path):
        spec = write_spec(tmp_path, "g.json", {
            "spec_version": 1,
            "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 2.0,
                      "n": 40},
            "seed": 9})
        out = str(tmp_path / "gen")
        assert main(["gen", "--spec", spec, "--out", out]) == 0
        inst = sl.load_instance(os.path.join(out, "instance.npz"))
        ref = sl.gen_spiked(sl.Prior.from_config(RAD_PRIOR), 2.0, 40, 9)
        assert np.array_equal(inst.X, ref.X)


class TestSample:
    def test_outputs_and_determinism(self, spiked_spec, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["sample", "--spec", spiked_spec, "--out", out1]) == 0
        assert main(["sample", "--spec", spiked_spec, "--out", out2]) == 0
        for name in ("summary.csv", "trajectory_rep0000.csv",
                     "histogram.csv"):
            assert read(os.path.join(out1, name)) == \
                read(os.path.join(out2, name))

    def test_threads_do_not_change_results(self, spiked_spec, tmp_path):
        out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
        assert main(["sample", "--spec", spiked_spec, "--out", out1,
                     "--threads", "1"]) == 0
        assert main(["sample", "--spec", spiked_spec, "--out", out2,
                     "--threads", "2"]) == 0
        assert read(os.path.join(out1, "summary.csv")) == \
            read(os.path.join(out2, "summary.csv"))

    def test_histogram_keeps_every_sample_on_the_predicted_branch(
            self, tmp_path):
        # each rep draws its own spectral sign; the histogram conditions on
        # a separate spectral vector, so a sample left on the other branch
        # lands at -10 while the prediction at beta=3 sits at +10
        spec = write_spec(tmp_path, "hist.json", {
            "spec_version": 1,
            "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 3.0,
                      "n": 300},
            "sampler": {"L": 100, "Delta": 0.05, "K_AMP": 6},
            "seed": 3, "reps": 24, "emit": ["histogram"]})
        out = str(tmp_path / "hist")
        assert main(["sample", "--spec", spec, "--out", out]) == 0
        value, emp, theo = np.loadtxt(os.path.join(out, "histogram.csv"),
                                      delimiter=",", skiprows=1).T
        assert theo[value == 10] > 0.99
        assert 0.5 * np.abs(emp - theo).sum() <= 0.25

    def test_subcritical_numerical_failure_cleans_up(self, tmp_path):
        spec = write_spec(tmp_path, "sub.json", {
            "spec_version": 1,
            "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 0.8,
                      "n": 30},
            "sampler": {"L": 3, "Delta": 0.1, "K_AMP": 2},
            "seed": 1})
        out = str(tmp_path / "sub")
        assert main(["sample", "--spec", spec, "--out", out]) == 3
        assert not any(f.endswith(".csv") for f in os.listdir(out))

    def test_linear_algorithm(self, tmp_path):
        spec = write_spec(tmp_path, "lin.json", {
            "spec_version": 1,
            "model": {"kind": "linear",
                      "prior": {"type": "discrete",
                                "atoms": [-1.0, 0.0, 1.0],
                                "weights": [0.25, 0.5, 0.25],
                                "normalize": True},
                      "delta": 20.0, "sigma2": 0.25, "p": 60},
            "sampler": {"L": 5, "Delta": 0.1, "K_AMP": 5, "K_NGD": 2,
                        "eta": 0.02},
            "seed": 2})
        out = str(tmp_path / "lin")
        assert main(["sample", "--spec", spec, "--out", out]) == 0
        rows = open(os.path.join(out, "summary.csv")).read().splitlines()
        assert rows[0].split(",")[2] == "mse"


class TestSe:
    def test_spiked_trace(self, tmp_path):
        spec = write_spec(tmp_path, "se.json", {
            "spec_version": 1,
            "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 2.0},
            "se": {"t": 0.0, "K": 8},
            "seed": 0})
        out = str(tmp_path / "se")
        assert main(["se", "--spec", spec, "--out", out]) == 0
        lines = open(os.path.join(out, "se_trace.csv")).read().splitlines()
        assert lines[0] == "k,gamma,onsager,phi"
        assert len(lines) == 10
        assert float(lines[1].split(",")[1]) == 3.0

    def test_linear_trace_contraction_flags(self, tmp_path):
        spec = write_spec(tmp_path, "sel.json", {
            "spec_version": 1,
            "model": {"kind": "linear",
                      "prior": {"type": "discrete",
                                "atoms": [-1.0, 0.0, 1.0],
                                "weights": [0.25, 0.5, 0.25],
                                "normalize": True},
                      "delta": 20.0, "sigma2": 0.25},
            "se": {"t": 0.0, "K": 10},
            "seed": 0})
        out = str(tmp_path / "sel")
        assert main(["se", "--spec", spec, "--out", out]) == 0
        lines = open(os.path.join(out, "se_trace.csv")).read().splitlines()
        assert lines[0].endswith("contraction_ratio,contraction_ok")
        assert all(line.split(",")[-1] == "1" for line in lines[1:])

    def test_determinism(self, tmp_path):
        spec = write_spec(tmp_path, "sed.json", {
            "spec_version": 1,
            "model": {"kind": "spiked", "prior": RAD_PRIOR, "beta": 2.0},
            "se": {"t": 0.5, "K": 6},
            "seed": 0})
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["se", "--spec", spec, "--out", out1]) == 0
        assert main(["se", "--spec", spec, "--out", out2]) == 0
        assert read(os.path.join(out1, "se_trace.csv")) == \
            read(os.path.join(out2, "se_trace.csv"))


class TestOracleCheck:
    def test_pass_report(self, tmp_path):
        spec = write_spec(tmp_path, "oc.json", {
            "spec_version": 1,
            "model": {"prior": RAD_PRIOR},
            "oracle": {"n": 8, "beta": 1.5, "L": 150, "Delta": 0.02,
                       "reps": 1500, "mean_tol": 0.1, "pair_tol": 0.15},
            "seed": 3})
        out = str(tmp_path / "oc")
        assert main(["oracle-check", "--spec", spec, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["pass"] is True

    def test_fail_exits_3(self, tmp_path):
        spec = write_spec(tmp_path, "ocf.json", {
            "spec_version": 1,
            "model": {"prior": RAD_PRIOR},
            "oracle": {"n": 6, "beta": 1.5, "L": 40, "Delta": 0.02,
                       "reps": 200, "mean_tol": 1e-9, "pair_tol": 1e-9},
            "seed": 3})
        out = str(tmp_path / "ocf")
        assert main(["oracle-check", "--spec", spec, "--out", out]) == 3


class TestReproduce:
    def test_figure1_emits_trajectories(self, tmp_path):
        spec = write_spec(tmp_path, "f1.json", {
            "spec_version": 1,
            "reproduce": {"betas": [0.5, 3.0], "n": 60, "L": 10,
                          "Delta": 0.1, "K_AMP": 4, "reps": 2},
            "seed": 4})
        out = str(tmp_path / "f1")
        assert main(["reproduce", "--figure", "1", "--spec", spec,
                     "--out", out]) == 0
        lines = open(os.path.join(out,
                                  "fig1_trajectories.csv")).read().splitlines()
        assert lines[0] == "beta,rep,t,m1,m2"
        # 2 betas x 2 reps x 11 recorded steps
        assert len(lines) == 1 + 2 * 2 * 11

    def test_figure2_emits_histograms(self, tmp_path):
        spec = write_spec(tmp_path, "f2.json", {
            "spec_version": 1,
            "reproduce": {"betas": [3.0], "n": 60, "L": 15, "Delta": 0.1,
                          "K_AMP": 4, "reps": 40},
            "seed": 5})
        out = str(tmp_path / "f2")
        assert main(["reproduce", "--figure", "2", "--spec", spec,
                     "--out", out]) == 0
        lines = open(os.path.join(out,
                                  "fig2_histograms.csv")).read().splitlines()
        assert lines[0] == "beta,value,empirical_prob,theoretical_prob"
        assert len(lines) == 1 + 11

    def test_figure3_emits_quantiles(self, tmp_path):
        spec = write_spec(tmp_path, "f3.json", {
            "spec_version": 1,
            "reproduce": {"betas": [1.5, 3.0], "n": 60, "Ls": [5, 10],
                          "Delta": 0.05, "K_AMP": 4, "reps": 8},
            "seed": 6})
        out = str(tmp_path / "f3")
        assert main(["reproduce", "--figure", "3", "--spec", spec,
                     "--out", out]) == 0
        lines = open(os.path.join(out, "fig3_loglik.csv")).read().splitlines()
        assert lines[0] == "beta,L,T,mean,q10,q90"
        assert len(lines) == 1 + 4
