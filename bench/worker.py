"""Benchmark process for a library workload, and the traced ``stoloc``
command; started by ``run.py``.

    python3 bench/worker.py [--trace PREFIX] lib WORKLOAD SEED UNTIL
    python3 bench/worker.py --trace PREFIX cli -- STOLOC_ARGS...

``lib`` sets up a library workload once from a cold start (the set-up
time), then makes timed sampling calls, each on a fresh instance and a
fresh ``Prior``, until the monotonic clock reaches ``UNTIL`` (at least one
call); every call's samples are checked. With ``--trace`` the calls
alternate between untraced and traced ones (set-up included), in pairs on
the same inputs whose order alternates. ``cli`` runs
``stoloc.cli.main(STOLOC_ARGS)`` in-process under the tracer. Traced spans
are written to files starting with ``PREFIX``.

The parent passes its ``time.monotonic()`` from just before it started
this process in ``BENCH_T_SPAWN`` (the clock is system-wide on Linux), so
times from the process start include the interpreter start and the
imports. The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _installed_tracer():
    import stoloc.cli  # noqa: F401 - the cli layer is traced too
    tracer = Tracer()
    tracer.install()
    return tracer


def _call(wl, seed, state, traced):
    """Set up (unless ``state`` is given), time one sampling call and
    check its samples."""
    tracer = _installed_tracer() if traced else None
    if state is None:
        state = wl.setup(seed)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        samples = wl.sample(state)
        error = None
    except Exception:                   # noqa: BLE001 - a failed call
        samples, error = None, traceback.format_exc()
    res = {"seed": seed, "traced": traced,
           "wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0,
           "attempted": wl.reps, "error": error, "checks": []}
    if tracer is not None:
        tracer.uninstall()
        res["layers"] = tracer.layer_stats()
    if error is None:
        res["checks"] = [c.as_dict() for c in wl.check(state, samples)]
    return res, tracer


def run_library(name, seed, until, trace, t_spawn):
    wl = workloads.LIBRARY[name]()
    state = None if trace else wl.setup(workloads.round_seed(seed, 0))
    setup_s = time.monotonic() - t_spawn
    calls, tracers = [], []
    rnd = 0
    while rnd == 0 or time.monotonic() < until:
        rs = workloads.round_seed(seed, rnd)
        for traced in workloads.call_kinds(rnd, trace):
            res, tracer = _call(wl, rs, state, traced)
            state = None
            calls.append(res)
            if tracer is not None:
                tracers.append((rs, tracer))
        rnd += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for rs, tracer in tracers:
        tracer.write(f"{trace}-seed{rs}.csv")
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "calls": calls}


def run_cli(trace, argv, t_spawn):
    tracer = _installed_tracer()
    import stoloc.cli
    code = stoloc.cli.main(argv)
    wall_s = time.monotonic() - t_spawn
    tracer.uninstall()
    tracer.write(f"{trace}.csv")
    return {"exit_code": code, "wall_s": wall_s,
            "layers": tracer.layer_stats()}


def main():
    t_spawn = float(os.environ["BENCH_T_SPAWN"])
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace")
    parser.add_argument("mode", choices=("lib", "cli"))
    parser.add_argument("rest", nargs="*")
    args = parser.parse_args()
    if args.mode == "lib":
        name, seed, until = args.rest
        result = run_library(name, int(seed), float(until), args.trace,
                             t_spawn)
    else:
        result = run_cli(args.trace, args.rest, t_spawn)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
