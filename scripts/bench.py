#!/usr/bin/env python3
"""Time the `pnp` program layer by layer and end to end; write one JSON file.

    python3 scripts/bench.py BENCH_<n>.json

    python3 scripts/bench.py --tier1 BENCH_<n>.json

    python3 scripts/bench.py --against <checkout> BENCH_<n>.json

It times the package in src/ of the checkout that holds this script, with
OpenBLAS, OpenMP and MKL pinned to one thread, and writes:
- "environment": the BLAS thread count, nproc, the Python, numpy, scipy
  and BLAS versions, and whether Python writes bytecode caches (under
  PYTHONDONTWRITEBYTECODE=1 every `pnp` child compiles the package, which
  costs about 36 ms: `-X importtime` reads 46 ms of the package's self
  import time from source against 10 ms from bytecode, on 2 vCPUs) and
  whether it has the builtin SHA-256 module that lets a `pnp` process
  block OpenSSL's _hashlib (`cli.run_process`; without it every child's
  peak RSS is about 3.4 MiB higher);
- "layers": per grid, the median and quartiles of each layer over REPEATS
  in-process calls, after one untimed call; `build_dt_model`,
  `save_model` and `load_model` add the tracemalloc peak of one call
  ("peak_mb"), counting the model the call builds, writes or loads, and
  its ratio to the complex128 bytes of S and U ("peak_over_s_and_u");
- "solve_split": per workload, the median and quartiles over SPLIT_RUNS
  in-process solves (`cli.run_algorithm`, after one untimed solve) of the
  seconds of the whole solve and of each phase in SPLIT: the step
  gradient, the denoiser, CG and the `dist` diagnostic, with the calls of
  each phase per solve; the calls that `dist_to_fix` makes count as
  `dist`. The denoiser and `dist` phases add the TV inner iterations
  their `tv_prox` calls ran per solve and the calls stopped at the
  iteration cap (`TvInfo`: "tv_iterations", "tv_capped"), the `cg` phase
  the CG iterations (`CgInfo`: "cg_iterations") and its Gram matvecs
  ("gram_matvecs": the iterations plus one per warm-started solve, its
  initial residual), and a TV workload's denoiser phase its microseconds
  per inner iteration;
- "commands": per workload, the median and quartiles of the wall time and
  of the peak RSS over RUNS child-process runs each of `pnp simulate` and
  `pnp reconstruct`, under "simulate-64" those of `pnp simulate` alone at
  64 x 64, under "compare" those of `pnp compare` at its defaults, and
  under "startup" those of `pnp --help`, the fixed cost of every child
  (start Python, import the package, parse, exit), the workloads taking
  turns run by run;
- "tier1", with --tier1 only: the wall time, exit status and outcome
  counts of one run of scripts/run_tests.sh.

With --against, every child command runs PAIRS times in each tree, the
two trees back to back and taking turns to go first, so both sides of a
pair see the same phase of a shared machine. "commands" then holds this
checkout's runs, "against" the other checkout's commit and runs, and
"pairs" counts, per command and metric, the pairs in which this checkout
read lower and higher. The layers and the solve split are this
checkout's only. Each tree's children import its package through a link
of the same length under a temporary directory, since the length of a
checkout's path alone moved a child's peak RSS by 1.7 MB; "path" and
"against" hold each tree's real path.

The workloads are the three of the repository benchmark, with their keys
written out below; this script imports nothing from perfbench/ and gates
nothing. Every command runs at record_timing=false. It takes about two
minutes on one core, --against about five, and --tier1 adds the 3-5
minutes of the test suite.
"""

import argparse
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
REPEATS = 20
RUNS = 5
# Pairs per command with --against: a gain is claimed only when the
# change wins at least nine of ten.
PAIRS = 10

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
# `pnp simulate` alone at a larger model, to show how its peak RSS grows
# with the grid.
SIMULATE_ONLY = {"simulate-64": {"grid": 64, "transmitters": 32,
                                 "receivers": 96}}
# The solve's phases, each timed by wrapping the (module, name) bindings
# the solve calls them through. A call made inside another timed call
# counts for the outer one, so the gradients and denoiser calls of
# `dist_to_fix` are `dist`.
SPLIT = {"gradient": (("solvers", "grad_full"),
                      ("solvers", "gradient_from_indices")),
         "denoiser": (("denoisers", "tv_prox"),
                      ("denoisers", "averaged_linear_filter")),
         "cg": (("forward", "cg_solve_regularized"),),
         "dist": (("metrics", "dist_to_fix"),)}
SPLIT_RUNS = 5
# The inner-solve counts each phase adds per solve: TV inner iterations and
# the TV calls stopped at their iteration cap (`TvInfo`), and CG iterations
# (`CgInfo`) and Gram matvecs.
INNER = {"denoiser": ("tv_iterations", "tv_capped"),
         "cg": ("cg_iterations", "gram_matvecs"),
         "dist": ("tv_iterations", "tv_capped")}


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
    from pnp_online.cli import BUILTIN_SHA256
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
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "writes_bytecode": not sys.dont_write_bytecode,
            "builtin_sha256":
                importlib.util.find_spec(BUILTIN_SHA256) is not None}


def traced_peaks(cfg, truth, path):
    """The tracemalloc peak in MB of one call each of `build_dt_model`,
    `save_model` and `load_model`, each counting the model the call
    builds, writes or loads, and the bytes of its complex128 S and U."""
    from pnp_online import cli
    from pnp_online.modelio import load_model, save_model

    peaks = {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = cli.model_from_config(cfg, truth)
        peaks["build_dt_model"] = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        save_model(path, model)
        peaks["save_model"] = tracemalloc.get_traced_memory()[1] - base
        s_and_u = model.scattering.nbytes + model.incident.nbytes
        del model
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        load_model(path)
        peaks["load_model"] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {name: {"peak_mb": peak / 2 ** 20,
                   "peak_over_s_and_u": peak / s_and_u}
            for name, peak in peaks.items()}


def layers(grid, transmitters, receivers):
    """Each layer on the benchmark's model at this size, near its truth."""
    import numpy as np
    from pnp_online import cli
    from pnp_online.config import load_config
    from pnp_online.denoisers import (averaged_linear_filter, tv_denoiser,
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
    x = truth.ravel()
    rows = np.random.default_rng(0).integers(0, model.num_components, 4)
    z = (x - gamma * grad_full(model, x)).reshape(model.shape)
    _, tv_info = tv_prox(z, sigma * sigma, return_info=True)
    tv_call = time_ms(lambda: tv_prox(z, sigma * sigma))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "model.pnpm")
        peaks = traced_peaks(cfg, truth, path)
        save_call = time_ms(lambda: save_model(path, model))
        load_call = time_ms(lambda: load_model(path))
    return {
        # the build includes its lambda_i
        "build_dt_model": {**summary(time_ms(
            lambda: cli.model_from_config(cfg, truth)), "ms"),
            **peaks["build_dt_model"]},
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
            lambda: dist_to_fix(model, tv_denoiser, gamma, sigma, x)),
            "ms"),
        # at the CLI's sigma, sqrt(gamma * lam)
        "averaged_linear_filter": summary(time_ms(
            lambda: averaged_linear_filter(z, sigma)), "ms"),
        "save_model": {**summary(save_call, "ms"), **peaks["save_model"]},
        "load_model": {**summary(load_call, "ms"), **peaks["load_model"]},
    }


def solve_split(keys):
    """The seconds and calls of each phase of the workload's solve."""
    from pnp_online import cli, denoisers, forward
    from pnp_online.config import load_config

    keys = {**BASE_KEYS, **keys, "record_timing": "false"}
    cfg = load_config(overrides=[f"{k}={v}" for k, v in keys.items()])
    truth = cli.phantom_from_config(cfg)
    model = cli.model_from_config(cfg, truth)
    seconds, calls, inner, inside = {}, {}, {}, []

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            if inside:
                return fn(*args, **kwargs)
            inside.append(phase)
            calls[phase] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - start
                inside.pop()
        return wrapper

    def counting_tv(fn):
        """tv_prox, adding its inner iterations and whether it stopped at
        its iteration cap to the phase it runs in; it is called only inside
        a timed phase."""
        def wrapper(*args, return_info=False, **kwargs):
            x, info = fn(*args, return_info=True, **kwargs)
            inner[inside[0]]["tv_iterations"] += info.iterations
            inner[inside[0]]["tv_capped"] += not info.converged
            return (x, info) if return_info else x
        return wrapper

    def counting_cg(fn):
        """cg_solve_regularized, adding its iterations and Gram matvecs to
        the `cg` phase; the timed binding calls it. A guess x0 (passed by
        keyword, as `prox_datafit` does) costs one more matvec."""
        def wrapper(*args, **kwargs):
            z, info = fn(*args, **kwargs)
            inner["cg"]["cg_iterations"] += info.iterations
            inner["cg"]["gram_matvecs"] += (
                info.iterations + (kwargs.get("x0") is not None))
            return z, info
        return wrapper

    originals = [(denoisers, "tv_prox", denoisers.tv_prox),
                 (forward, "cg_solve_regularized",
                  forward.cg_solve_regularized)]
    denoisers.tv_prox = counting_tv(denoisers.tv_prox)
    forward.cg_solve_regularized = counting_cg(forward.cg_solve_regularized)
    for phase, bindings in SPLIT.items():
        for module_name, name in bindings:
            module = importlib.import_module(f"pnp_online.{module_name}")
            originals.append((module, name, getattr(module, name)))
            setattr(module, name, timed(phase, getattr(module, name)))
    samples = {phase: [] for phase in ("solve", *SPLIT)}
    try:
        for run in range(SPLIT_RUNS + 1):
            seconds.update(dict.fromkeys(SPLIT, 0.0))
            calls.update(dict.fromkeys(SPLIT, 0))
            inner.update({phase: dict.fromkeys(INNER[phase], 0)
                          for phase in INNER})
            start = time.perf_counter()
            cli.run_algorithm(cfg, model, truth)
            solve = time.perf_counter() - start
            if run:                   # the first solve is untimed
                samples["solve"].append(solve)
                for phase in SPLIT:
                    samples[phase].append(seconds[phase])
    finally:
        for module, name, fn in reversed(originals):
            setattr(module, name, fn)
    split = {phase: {**summary(runs, "s"),
                     **({"calls": calls[phase]} if phase in calls else {}),
                     **inner.get(phase, {})}
             for phase, runs in samples.items()}
    tv_iterations = inner["denoiser"]["tv_iterations"]
    if tv_iterations:
        # the denoiser phase of a TV run is its tv_prox calls alone
        split["denoiser"]["us_per_tv_iteration"] = summary(
            [1e6 * t / tv_iterations for t in samples["denoiser"]], "us")
    return split


def run_command(argv, env, cwd):
    """One `pnp` child: (wall s, peak RSS MB); exits on a failed command.

    Its stdout and stderr go to a log file in `cwd`, as perfbench's do:
    where stdout goes alone moved the peak RSS of a 48 x 48 reconstruct
    by 0.4 MB."""
    log = Path(cwd) / "command.log"
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "pnp_online.cli", *argv], cwd=cwd,
            env=env, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip()[-400:]
        sys.exit(f"bench: pnp {argv[0]} exited {proc.returncode}: {tail}")
    return wall, usage.ru_maxrss / 1024.0


def child_env(tree):
    """The environment of a `pnp` child that runs the package of `tree`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tree) / "src"), env.get("PYTHONPATH")]))
    return env


def jobs():
    """(workload, command, argv) of every child command, in run order."""
    untimed = ["--set", "record_timing=false"]
    yield "startup", "help", ["--help"]
    for name, keys in {**WORKLOADS, **SIMULATE_ONLY}.items():
        sets = [arg for k, v in {**BASE_KEYS, **keys}.items()
                for arg in ("--set", f"{k}={v}")] + untimed
        yield name, "simulate", ["simulate", "-o", "model.pnpm", *sets]
        if name in WORKLOADS:
            yield name, "reconstruct", ["reconstruct", "model.pnpm", "-o",
                                        "recon", *sets]
    yield "compare", "compare", ["compare", "-o", "compare", *untimed]


def commands(trees, runs):
    """Wall s and peak RSS MB of `runs` runs of every job in each tree, the
    trees back to back per job and taking turns to go first."""
    samples = {tree: {} for tree in trees}
    with tempfile.TemporaryDirectory() as work:
        # links of equal length, so the trees' children see no path of
        # another length
        envs = {}
        for i, tree in enumerate(trees):
            link = os.path.join(work, f"tree{i}")
            os.symlink(tree, link)
            envs[tree] = child_env(link)
        works = {tree: os.path.join(work, str(i))
                 for i, tree in enumerate(trees)}
        for path in works.values():
            os.mkdir(path)
        for run in range(runs):
            for name, command, argv in jobs():
                for tree in trees if run % 2 == 0 else trees[::-1]:
                    samples[tree].setdefault(name, {}).setdefault(
                        command, []).append(run_command(
                            argv, envs[tree], works[tree]))
    return samples


def command_summary(by_name):
    return {name: {command: {"wall": summary([s[0] for s in runs], "s"),
                             "peak_rss": summary([s[1] for s in runs], "MB")}
                   for command, runs in by_command.items()}
            for name, by_command in by_name.items()}


def pair_counts(this, other):
    """Per command and metric, the pairs in which `this` read lower and
    higher than `other`; ties count for neither."""
    counts = {}
    for name, by_command in this.items():
        for command, runs in by_command.items():
            pairs = list(zip(runs, other[name][command]))
            counts.setdefault(name, {})[command] = {
                metric: {"this_lower": sum(a[k] < b[k] for a, b in pairs),
                         "this_higher": sum(a[k] > b[k] for a, b in pairs),
                         "n": len(pairs)}
                for k, metric in enumerate(("wall", "peak_rss"))}
    return counts


def commit(tree):
    """The commit checked out in `tree`, or None outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


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
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="also run every command in this checkout, "
                             "alternating with this one")
    args = parser.parse_args()
    # BLAS reads these when numpy is imported, which happens only below;
    # the children inherit them. PNP_SEED would override the seed.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    os.environ.pop("PNP_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    # The children run first: a child's peak RSS counts the RSS it shared
    # with this process when it was forked, before numpy was imported here.
    trees = [str(ROOT)]
    if args.against:
        other = Path(args.against).resolve()
        if other == ROOT or not (other / "src" / "pnp_online").is_dir():
            parser.error(f"--against {args.against}: not another checkout "
                         "with src/pnp_online")
        trees.append(str(other))
    runs = commands(trees, PAIRS if args.against else RUNS)
    result = {"environment": environment(),
              "path": str(ROOT),
              "layers": {str(grid): layers(grid, *sizes)
                         for grid, sizes in GRIDS.items()},
              "solve_split": {name: solve_split(keys)
                              for name, keys in WORKLOADS.items()},
              "commands": command_summary(runs[str(ROOT)])}
    if args.against:
        other = trees[1]
        result["against"] = {"commit": commit(other), "path": other,
                             "commands": command_summary(runs[other])}
        result["pairs"] = pair_counts(runs[str(ROOT)], runs[other])
    if args.tier1:
        result["tier1"] = tier1()
    with open(args.output, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
