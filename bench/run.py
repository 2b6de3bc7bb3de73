"""Benchmark of the stoloc posterior samplers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--blas-threads K]

Runs whole sampling calls of one workload until ``--seconds`` have passed
(at least one call). A library workload runs in one worker process
(``worker.py``) that sets up from a cold start, then times sampling calls,
each on the inputs of seed ``workloads.round_seed(N, r)`` for call ``r``,
and checks every call's samples. A call of ``cli_continuous`` is a
``python -m stoloc.cli gen`` process followed by a ``stoloc sample``
process on the instance file it wrote.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
printed, each the median over the run's calls (set-up: the run's one
cold set-up, or for ``cli_continuous`` its ``gen`` processes). With
``--trace 1`` traced calls alternate with untraced ones on the same
inputs; the per-layer
metrics are medians over the traced calls and ``trace.overhead_pct`` is
the median traced-over-untraced wall time of the pairs. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Instance files, CLI outputs and
span files go under ``bench/out``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 150
# per-step metrics: objective evaluations over the descent steps run
PER_STEP = {"per_gd_step": "tap.tangent_gd", "per_ngd_step": "tap.ngd_linear"}
DESCENT_STEPS = {"tap.tangent_gd": workloads.CLI["sampler"]["K_GD"],
                 "tap.ngd_linear": workloads.LinearThreePoint.K_NGD}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env(blas_threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(argv, env):
    """Run a child to its end: (exit code, stdout, wall seconds, rusage)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                            stdout=subprocess.PIPE,
                            env=dict(env, BENCH_T_SPAWN=repr(t0)))
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, rusage


def last_json(code, out, what):
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{what} exited with code {code}")
    return json.loads(lines[-1])


def _mark_failed(call):
    bad = call["error"] is not None or not all(
        c["passed"] for c in call["checks"])
    call["failed"] = call["attempted"] if bad else 0
    return call


def library_run(name, seed, until, env, trace):
    """One worker process makes all calls of the run."""
    argv = [sys.executable, BENCH / "worker.py"]
    if trace:
        argv += ["--trace", OUT / "trace" / name]
    code, out, _, _ = spawn(argv + ["lib", name, seed, repr(until)], env)
    res = last_json(code, out, f"worker for {name}")
    return ([res["setup_s"]], [res["peak_rss_mb"]],
            [_mark_failed(c) for c in res["calls"]])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def cli_round(seed, env, spans):
    """One CLI call: ``stoloc gen`` then ``stoloc sample``, as plain
    processes, or traced in-process by workers when ``spans`` is given."""
    cfg = workloads.CLI
    work = OUT / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen_spec = _write_json(work / "gen.json", {
        "spec_version": 1, "seed": seed,
        "model": {"kind": "spiked", "prior": cfg["prior"],
                  "beta": cfg["beta"], "n": cfg["n"]}})
    sample_spec = _write_json(work / "sample.json", {
        "spec_version": 1, "seed": seed, "reps": cfg["reps"],
        "model": {"kind": "spiked", "prior": cfg["prior"],
                  "instance_file": str(work / "gen" / "instance.npz")},
        "sampler": cfg["sampler"]})
    gen = ["gen", "--spec", gen_spec, "--out", work / "gen"]
    sample = ["sample", "--spec", sample_spec, "--out", work / "sample",
              "--threads", cfg["threads"]]
    res = {"seed": seed, "traced": bool(spans), "attempted": cfg["reps"],
           "wall_s": math.inf, "cpu_s": 0.0, "checks": [], "error": None}
    if spans:
        layers = {}
        for tag, cmd in (("gen", gen), ("sample", sample)):
            code, out, _, _ = spawn(
                [sys.executable, BENCH / "worker.py", "--trace",
                 f"{spans}-{tag}", "cli", "--", *cmd], env)
            part = last_json(code, out, f"traced stoloc {tag}")
            _merge_layers(layers, part["layers"])
            if part["exit_code"] != 0:
                res["error"] = f"stoloc {tag} exited {part['exit_code']}"
                break
        res.update(wall_s=part["wall_s"], layers=layers)
    else:
        code, _, res["setup_s"], _ = spawn(
            [sys.executable, "-m", "stoloc.cli", *gen], env)
        if code != 0:
            res["error"] = f"stoloc gen exited {code}"
        else:
            code, _, wall, ru = spawn(
                [sys.executable, "-m", "stoloc.cli", *sample], env)
            res.update(wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                       peak_rss_mb=ru.ru_maxrss / 1024.0)
            if code != 0:
                res["error"] = f"stoloc sample exited {code}"
    if res["error"] is None:
        rows = checks.read_summary(work / "sample" / "summary.csv")
        res["checks"] = [c.as_dict() for c in
                         checks.check_cli_summary(rows, cfg["reps"], cfg["n"])]
    return _mark_failed(res)


def cli_run(seed, until, env, trace):
    """Whole CLI calls (a ``gen`` and a ``sample`` process each) until the
    clock passes ``until``."""
    calls = []
    rnd = 0
    while rnd == 0 or time.monotonic() < until:
        rs = workloads.round_seed(seed, rnd)
        for traced in workloads.call_kinds(rnd, trace):
            calls.append(cli_round(
                rs, env,
                OUT / "trace" / f"cli_continuous-seed{rs}" if traced
                else None))
        rnd += 1
    plain = [c for c in calls if not c["traced"]]
    return ([c["setup_s"] for c in plain if "setup_s" in c],
            [c["peak_rss_mb"] for c in plain if "peak_rss_mb" in c], calls)


def _pairs(calls):
    """(untraced, traced) calls on the same inputs, in run order."""
    by_seed = {}
    for c in calls:
        by_seed.setdefault(c["seed"], {})[c["traced"]] = c
    return [(p[False], p[True]) for p in by_seed.values() if len(p) == 2]


def _merge_layers(into, part):
    for name, st in part.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0})
        for key in acc:
            acc[key] += st[key]


def layer_metric(name, layers):
    """Value of one per-layer metric from merged span statistics."""
    def get(func, key):
        return layers.get(func, {}).get(key, 0)

    parts = name.split(".")
    if len(parts) == 2:                 # whole layer, e.g. sampler.self_s
        return sum(st["self_s"] for func, st in layers.items()
                   if func.startswith(parts[0] + "."))
    func, key = ".".join(parts[:2]), parts[2]
    if key in PER_STEP:
        base = PER_STEP[key]
        steps = get(base, "calls") * DESCENT_STEPS[base]
        return get(func, "calls") / steps if steps else 0.0
    if key in ("elements", "columns"):
        return get(func, "work")
    return get(func, key)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=2)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stoloc" / "__init__.py").is_file():
        raise BenchError(f"no stoloc sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env(args.blas_threads)
    (OUT / "trace").mkdir(parents=True, exist_ok=True)

    until = time.monotonic() + args.seconds
    if args.workload == "cli_continuous":
        setups, peaks, calls = cli_run(args.seed, until, env, args.trace)
    else:
        setups, peaks, calls = library_run(args.workload, args.seed, until,
                                           env, args.trace)
    for c in calls:
        print(f"seed {c['seed']}{' traced' if c['traced'] else ''}: "
              f"wall {c['wall_s']:.3f} s, "
              f"failed {c['failed']}/{c['attempted']}; "
              + "; ".join(f"{k['name']} {'ok' if k['passed'] else 'FAIL'} "
                          f"({k['detail']})" for k in c["checks"])
              + (f"; error {c['error']}" if c["error"] else ""))

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_pct":
                value = 100.0 * statistics.median(
                    traced["wall_s"] / plain["wall_s"] - 1.0
                    for plain, traced in _pairs(calls))
            else:
                value = statistics.median(
                    layer_metric(m["name"], c["layers"])
                    for c in calls if c["traced"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "setup_s": setups,
            "samples_per_s": [c["attempted"] / c["wall_s"] for c in calls],
            "cpu_s": [c["cpu_s"] for c in calls],
            "peak_rss_mb": peaks,
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {
                "value": statistics.median(values[m["name"]]),
                "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    print(f"{args.workload}: {len(calls)} sampling calls, attempted "
          f"{attempted}, failed {failed}, blas threads {args.blas_threads}")
    correct = all(c["error"] is None and all(k["passed"] for k in c["checks"])
                  for c in calls)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
