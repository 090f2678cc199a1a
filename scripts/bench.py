#!/usr/bin/env python3
"""Time the `pnp` program layer by layer and end to end; write one JSON file.

    python3 scripts/bench.py BENCH_<n>.json

    python3 scripts/bench.py --tier1 BENCH_<n>.json

It times the package in src/ of the checkout that holds this script, with
OpenBLAS, OpenMP and MKL pinned to one thread, and writes:
- "environment": the BLAS thread count, nproc, and the Python, numpy,
  scipy and BLAS versions;
- "layers": per grid, the median and quartiles of each layer over REPEATS
  in-process calls, after one untimed call;
- "commands": per workload, the median and quartiles of the wall time and
  of the peak RSS over RUNS child-process runs each of `pnp simulate` and
  `pnp reconstruct`, and under "compare" those of `pnp compare` at its
  defaults, the workloads taking turns run by run;
- "tier1", with --tier1 only: the wall time, exit status and outcome
  counts of one run of scripts/run_tests.sh.

The workloads are the three of the repository benchmark, with their keys
written out below; this script imports nothing from perfbench/ and gates
nothing. Every command runs at record_timing=false. It takes about two
minutes on one core, and --tier1 adds the 3-5 minutes of the test suite.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
REPEATS = 20
RUNS = 5

# The benchmark's phantom and seed, at its two model sizes (pixels per
# side, transmitters, receivers).
BASE_KEYS = {"phantom": "checker", "seed": 0}
GRIDS = {32: (16, 48), 48: (24, 72)}
WORKLOADS = {
    "sgd-tv": {"grid": 32, "transmitters": 16, "receivers": 48,
               "algorithm": "pnp-sgd", "denoiser": "tv", "batch_size": 4,
               "iterations": 200},
    "admm-filter": {"grid": 32, "transmitters": 16, "receivers": 48,
                    "algorithm": "pnp-admm", "denoiser": "filter",
                    "iterations": 60},
    "setup-48": {"grid": 48, "transmitters": 24, "receivers": 72,
                 "algorithm": "pnp-sgd", "denoiser": "tv",
                 "sample_mode": "full", "iterations": 20},
}


def summary(samples, unit):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(samples)}


def time_ms(fn):
    """REPEATS timed calls of fn after one untimed call, in ms."""
    fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - start))
    return samples


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None                  # the package itself does not need it
    return {"blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def layers(grid, transmitters, receivers):
    """Each layer on the benchmark's model at this size, near its truth."""
    import numpy as np
    from pnp_online import cli
    from pnp_online.config import load_config
    from pnp_online.denoisers import (TvProxDenoiser, averaged_linear_filter,
                                      tv_prox)
    from pnp_online.forward import (factored_lambdas, grad_full,
                                    gradient_from_indices, prox_datafit)
    from pnp_online.metrics import dist_to_fix
    from pnp_online.modelio import load_model, save_model

    keys = {**BASE_KEYS, "grid": grid, "transmitters": transmitters,
            "receivers": receivers}
    cfg = load_config(overrides=[f"{k}={v}" for k, v in keys.items()])
    truth = cli.phantom_from_config(cfg)
    model = cli.model_from_config(cfg, truth)
    gamma, sigma = cli.resolve_gamma_sigma(cfg, model.lipschitz)
    x = truth.pixels
    rows = np.random.default_rng(0).integers(0, model.num_components, 4)
    z = (x - gamma * grad_full(model, x)).reshape(model.shape)
    _, tv_info = tv_prox(z, sigma * sigma, return_info=True)
    tv_call = time_ms(lambda: tv_prox(z, sigma * sigma))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "model.pnpm")
        save_call = time_ms(lambda: save_model(path, model))
        load_call = time_ms(lambda: load_model(path))
    return {
        "build_dt_model": summary(time_ms(
            lambda: cli.model_from_config(cfg, truth).lambdas), "ms"),
        "factored_lambdas": summary(time_ms(
            lambda: factored_lambdas(model.scattering, model.incident)),
            "ms"),
        "grad_full": summary(time_ms(lambda: grad_full(model, x)), "ms"),
        "gradient_from_indices_B4": summary(time_ms(
            lambda: gradient_from_indices(model, rows, x)), "ms"),
        "tv_prox": summary(tv_call, "ms"),
        "tv_prox_per_inner_iteration": {
            **summary([1e3 * t / tv_info.iterations for t in tv_call], "us"),
            "inner_iterations": tv_info.iterations},
        "prox_datafit": summary(time_ms(
            lambda: prox_datafit(model, gamma, x)), "ms"),
        "dist_to_fix_tv": summary(time_ms(
            lambda: dist_to_fix(model, TvProxDenoiser(), gamma, sigma, x)),
            "ms"),
        # at the CLI's sigma, sqrt(gamma * lam)
        "averaged_linear_filter": summary(time_ms(
            lambda: averaged_linear_filter(z, sigma)), "ms"),
        # save_model includes its lambda_i, computed from the complex64
        # blocks it writes
        "save_model": summary(save_call, "ms"),
        "load_model": summary(load_call, "ms"),
    }


def run_command(argv, env, cwd):
    """One `pnp` child: (wall s, peak RSS MB); exits on a failed command."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pnp_online.cli", *argv],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"bench: pnp {argv[0]} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def commands():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples = {name: {"simulate": [], "reconstruct": []}
               for name in WORKLOADS}
    samples["compare"] = {"compare": []}
    untimed = ["--set", "record_timing=false"]
    with tempfile.TemporaryDirectory() as work:
        for _ in range(RUNS):
            for name, keys in WORKLOADS.items():
                sets = [arg for k, v in {**BASE_KEYS, **keys}.items()
                        for arg in ("--set", f"{k}={v}")] + untimed
                samples[name]["simulate"].append(run_command(
                    ["simulate", "-o", "model.pnpm", *sets], env, work))
                samples[name]["reconstruct"].append(run_command(
                    ["reconstruct", "model.pnpm", "-o", "recon", *sets],
                    env, work))
            samples["compare"]["compare"].append(run_command(
                ["compare", "-o", "compare", *untimed], env, work))
    return {name: {command: {"wall": summary([s[0] for s in runs], "s"),
                             "peak_rss": summary([s[1] for s in runs], "MB")}
                   for command, runs in by_command.items()}
            for name, by_command in samples.items()}


def tier1():
    """One run of scripts/run_tests.sh: wall s, exit status and the counts
    of pytest's summary line."""
    start = time.perf_counter()
    proc = subprocess.run([str(ROOT / "scripts" / "run_tests.sh")], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    wall = time.perf_counter() - start
    summary_line = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(count) for count, word in re.findall(
        r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)",
        summary_line)}
    return {"wall_s": wall, "exit_status": proc.returncode, **counts}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="the JSON file to write")
    parser.add_argument("--tier1", action="store_true",
                        help="also time one run of scripts/run_tests.sh")
    args = parser.parse_args()
    # BLAS reads these when numpy is imported, which happens only below;
    # the children inherit them. PNP_SEED would override the seed.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    os.environ.pop("PNP_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    # The children run first: a child's peak RSS counts the RSS it shared
    # with this process when it was forked, before numpy was imported here.
    runs = commands()
    result = {"environment": environment(),
              "layers": {str(grid): layers(grid, *sizes)
                         for grid, sizes in GRIDS.items()},
              "commands": runs}
    if args.tier1:
        result["tier1"] = tier1()
    with open(args.output, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
