"""Experiment command line: simulate, reconstruct, sweep, compare,
counterexample, certify.

Every command is reproducible bytewise from (config file, master seed);
each SVG plot is drawn from the same runs as the CSV it sits next to.
Exit codes: 0 success, 2 config error or out of memory, 3 numerical
divergence, 4 I/O error.
"""

import argparse
import dataclasses
import functools
import gc
import importlib.util
import math
import os
import sys

import numpy as np

from pnp_online import denoisers, metrics, solvers
from pnp_online.config import load_config
from pnp_online.denoisers import (certify_averaged, certify_pair,
                                  estimate_bounded_constant, filter_passes)
from pnp_online.errors import ConfigurationError, DivergenceError
from pnp_online.forward import DtGeometry, build_dt_model, truth_sha256
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401
from pnp_online.modelio import load_model, save_model
from pnp_online.pgm import image_to_pgm16, write_pgm
from pnp_online.phantoms import phantom_generate
from pnp_online.solvers import (run_admm, run_counterexample, run_ista,
                                run_pnp_admm, run_pnp_ista, run_pnp_sgd)
from pnp_online.svgplot import line_plot


# ---------------------------------------------------------------------------
# CSV with a versioned schema header line; the tests' read_csv parses it.

def write_csv(path, schema, columns, rows, comments=()):
    """Write the rows, then one `# <comment>` line each; CSV readers,
    such as the tests' read_csv, skip them."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
        for comment in comments:
            fh.write(f"# {comment}\n")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Construction helpers shared by the commands.

# The config's geometry keys: DtGeometry's fields, in the config's order.
GEOMETRY_KEYS = [f.name for f in dataclasses.fields(DtGeometry)]


def geometry_from_config(cfg):
    return DtGeometry(**{key: getattr(cfg, key) for key in GEOMETRY_KEYS})


def phantom_from_config(cfg):
    """The truth: the phantom scaled by f_max, which keeps the first-Born
    linearization sensible; not zero, so that its SNR is defined."""
    truth = phantom_generate(cfg.phantom, cfg.grid, seed=cfg.seed) * cfg.f_max
    if not truth.any():
        raise ConfigurationError(f"phantom {cfg.phantom!r} scaled by f_max = "
                                 f"{cfg.f_max!r} is zero everywhere")
    return truth


def model_from_config(cfg, truth):
    return build_dt_model(geometry_from_config(cfg), truth, seed=cfg.seed,
                          input_snr_db=cfg.input_snr_db)


# The denoisers here, in run_algorithm and in cmd_certify are looked up on
# their module at each call: perfbench/tracer.py patches denoisers.tv_prox
# and denoisers.averaged_linear_filter after this module is imported.
def denoiser_from_config(cfg):
    return {"tv": denoisers.tv_denoiser,
            "filter": denoisers.averaged_linear_filter,
            "identity": denoisers.identity_denoiser}[cfg.denoiser]


def resolve_gamma_sigma(cfg, lipschitz):
    if cfg.gamma is None and lipschitz == 0.0:
        raise ConfigurationError("the model's operator is zero (L = 0); "
                                 "set gamma, as gamma_scale / L is undefined")
    gamma = cfg.gamma if cfg.gamma is not None else cfg.gamma_scale / lipschitz
    if gamma <= 0:                    # gamma_scale / L underflowed
        raise ConfigurationError("gamma must be positive")
    sigma = cfg.sigma if cfg.sigma is not None else math.sqrt(gamma * cfg.lam)
    return gamma, sigma


def achieved_input_snr_db(model, truth):
    clean = model.apply(truth.ravel())
    err = model.measurements - clean
    signal = float(np.vdot(clean, clean).real)
    noise = float(np.vdot(err, err).real)
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def run_algorithm(cfg, model, truth):
    """Run cfg.algorithm on the validated cfg, with gamma and sigma set."""
    gamma, sigma = resolve_gamma_sigma(cfg, model.lipschitz)
    sconf = dataclasses.replace(cfg, gamma=gamma, sigma=sigma)
    denoiser = denoiser_from_config(cfg)
    prox = functools.partial(denoisers.tv_prox, lambda_scaled=gamma * cfg.lam)
    if cfg.algorithm == "ista":
        return run_ista(model, prox, sconf, truth=truth)
    if cfg.algorithm == "admm":
        return run_admm(model, prox, sconf, truth=truth)
    if cfg.algorithm == "pnp-ista":
        return run_pnp_ista(model, denoiser, sconf, truth=truth)
    if cfg.algorithm == "pnp-admm":
        return run_pnp_admm(model, denoiser, sconf, truth=truth)
    return run_pnp_sgd(model, denoiser, sconf, truth=truth)


def write_trace(path, trace, head=(), tail=()):
    """Write a run's IterateTrace as a pnp-trace-v1 CSV.

    The comments are the head lines, then one `warning:` line per solver
    warning, then the tail lines.
    """
    rows = [[k + 1, trace.dist[k], trace.snr[k], trace.elapsed[k],
             "" if idx is None else ";".join(str(i) for i in idx)]
            for k, idx in enumerate(trace.indices)]
    write_csv(path, "pnp-trace-v1",
              ["k", "dist", "snr_db", "elapsed_s", "minibatch_indices"], rows,
              [*head, *(f"warning: {w}" for w in trace.warnings), *tail])


# ---------------------------------------------------------------------------
# Commands.

def cmd_simulate(cfg, out_path):
    truth = phantom_from_config(cfg)
    model = model_from_config(cfg, truth)
    save_model(out_path, model)
    achieved = achieved_input_snr_db(model, truth)
    with open(out_path + ".meta.txt", "w", encoding="ascii") as fh:
        for key in (*GEOMETRY_KEYS, "phantom", "f_max", "seed"):
            fh.write(f"{key} = {getattr(cfg, key)}\n")
        fh.write(f"requested_input_snr_db = {cfg.input_snr_db}\n"
                 f"achieved_input_snr_db = {achieved!r}\n"
                 f"lipschitz = {model.lipschitz!r}\n")
    return out_path


def check_geometry(model, cfg, model_path):
    """Raise if the config's geometry keys differ from the model's."""
    geometry = geometry_from_config(cfg)
    differ = [f"{key} = {getattr(geometry, key)!r} here, "
              f"{getattr(model.geometry, key)!r} in the model"
              for key in GEOMETRY_KEYS
              if getattr(geometry, key) != getattr(model.geometry, key)]
    if differ:
        raise ConfigurationError(
            f"{model_path} was simulated with another geometry "
            f"({'; '.join(differ)}); reconstruct with the geometry keys it "
            f"was simulated with")


def check_truth(model, truth, model_path):
    """Raise if the model was simulated from another truth image."""
    fingerprint = truth_sha256(truth)
    if model.truth_sha256 != fingerprint:
        raise ConfigurationError(
            f"{model_path} was simulated from another truth image (SHA-256 "
            f"{model.truth_sha256.hex()[:16]}..., this config gives "
            f"{fingerprint.hex()[:16]}...); reconstruct with the phantom, "
            f"f_max, grid and seed it was simulated with")


def cmd_reconstruct(cfg, model_path, out_prefix):
    model = load_model(model_path)
    truth = phantom_from_config(cfg)
    csv_path = out_prefix + ".trace.csv"
    pgm_path = out_prefix + ".recon.pgm"
    gamma, sigma = resolve_gamma_sigma(cfg, model.lipschitz)
    check_truth(model, truth, model_path)
    check_geometry(model, cfg, model_path)
    step = [f"lipschitz = {model.lipschitz!r}", f"gamma = {gamma!r}",
            f"sigma = {sigma!r}"]
    try:
        x, trace = run_algorithm(cfg, model, truth)
    except DivergenceError as err:
        write_trace(csv_path, err.trace, step, [f"diverged: {err}"])
        raise
    write_trace(csv_path, trace, step)
    data, lo, hi = image_to_pgm16(x.reshape(model.shape))
    write_pgm(pgm_path, data, maxval=65535)
    with open(pgm_path + ".meta.txt", "w", encoding="ascii") as fh:
        fh.write(f"window_lo = {lo!r}\nwindow_hi = {hi!r}\n")
    return csv_path, pgm_path


# The sweep's step scales of 1/L, at batch_size, and its minibatch sizes, at
# 1/L: the cells ACCEPTANCE criterion 6 checks.
SWEEP_GAMMAS = (1.0, 0.25, 0.0625)
SWEEP_BATCHES = (2, 4, 8)


def cmd_sweep(cfg, outdir):
    if cfg.iterations < 1:
        raise ConfigurationError("sweep needs iterations >= 1")
    truth = phantom_from_config(cfg)
    model = model_from_config(cfg, truth)
    cells = ([("gamma", scale, cfg.batch_size) for scale in SWEEP_GAMMAS]
             + [("batch", 1.0, batch) for batch in SWEEP_BATCHES])
    # every filter cell's sigma, before the tv cells write anything
    for _, scale, _ in cells:
        filter_passes(resolve_gamma_sigma(
            dataclasses.replace(cfg, gamma_scale=scale, gamma=None),
            model.lipschitz)[1])
    summary_rows = []
    failures = []
    for denoiser_name in ("tv", "filter"):
        row = [denoiser_name]
        for kind, scale, batch in cells:
            for accelerated in (False, True):
                tag = (f"{denoiser_name}_{kind}_{scale:g}_B{batch}"
                       f"_{'acc' if accelerated else 'basic'}")
                local = dataclasses.replace(
                    cfg, denoiser=denoiser_name, algorithm="pnp-sgd",
                    accelerated=accelerated, batch_size=batch,
                    gamma_scale=scale, gamma=None)
                try:
                    _, trace = run_algorithm(local, model, truth)
                except DivergenceError as err:
                    failures.append((tag, str(err)))
                    if not accelerated:
                        row.append(math.nan)
                    continue
                csv_path = os.path.join(outdir, tag + ".csv")
                os.makedirs(outdir, exist_ok=True)
                write_trace(csv_path, trace)
                _plot_dist(trace, os.path.join(outdir, tag + ".svg"),
                           tag + ".csv")
                if not accelerated:
                    row.append(metrics.min_dist(trace.dist))
        summary_rows.append(row)
    columns = (["denoiser"]
               + [f"gamma_{g:g}_over_L" for g in SWEEP_GAMMAS]
               + [f"B_{b}" for b in SWEEP_BATCHES])
    summary_path = os.path.join(outdir, "summary.csv")
    os.makedirs(outdir, exist_ok=True)
    write_csv(summary_path, "pnp-sweep-v1", columns, summary_rows,
              [f"failed: {tag}: {message}" for tag, message in failures])
    return summary_path


def _plot_dist(trace, svg_path, title):
    """The dist-vs-iteration plot; the NaN steps off the dist stride are
    left out, so they do not stretch the x range."""
    points = [(k, d) for k, d in enumerate(trace.dist, 1) if not math.isnan(d)]
    line_plot(svg_path, [("dist", [float(k) for k, _ in points],
                          [d for _, d in points])],
              title=title, xlabel="iteration", ylabel="dist", log_y=True)


def _subset_model(model, budget):
    """Fixed, uniformly spread illumination subset (batch budget runs)."""
    indices = np.linspace(0, model.num_components, budget,
                          endpoint=False).astype(int)
    return model.select(indices)


def cmd_compare(cfg, outdir):
    # compare.csv and its plots hold SNR and elapsed time only, so each run
    # computes dist, a full gradient and a denoiser call, at its last
    # iteration alone
    cfg = dataclasses.replace(cfg, dist_stride=max(1, cfg.iterations))
    truth = phantom_from_config(cfg)
    model = model_from_config(cfg, truth)
    budget = min(cfg.batch_size, model.num_components)
    subset = _subset_model(model, budget)

    runs = {}
    fista_cfg = dataclasses.replace(cfg, algorithm="pnp-ista",
                                    accelerated=True)
    runs["pnp-fista"] = run_algorithm(fista_cfg, subset, truth)
    admm_cfg = dataclasses.replace(cfg, algorithm="pnp-admm")
    runs["pnp-admm"] = run_algorithm(admm_cfg, subset, truth)
    sgd_cfg = dataclasses.replace(cfg, algorithm="pnp-sgd", accelerated=True,
                                  batch_size=budget, sample_mode="cycle")
    runs["pnp-sgd"] = run_algorithm(sgd_cfg, model, truth)

    columns = ["k"] + [f"{name}_{what}" for name in runs
                       for what in ("snr_db", "elapsed_s")]
    # every run takes cfg.iterations steps, or raises DivergenceError
    rows = [[k + 1, *(value for _, trace in runs.values()
                      for value in (trace.snr[k], trace.elapsed[k]))]
            for k in range(cfg.iterations)]
    csv_path = os.path.join(outdir, "compare.csv")
    os.makedirs(outdir, exist_ok=True)
    write_csv(csv_path, "pnp-compare-v1", columns, rows,
              [f"warning: {name}: {w}" for name, (_, trace) in runs.items()
               for w in trace.warnings])
    for svg_name, xlabel, x_of in (
            ("compare_iterations.svg", "iteration",
             lambda trace: [float(k) for k in range(1, len(trace) + 1)]),
            ("compare_wallclock.svg", "seconds",
             lambda trace: trace.elapsed)):
        line_plot(os.path.join(outdir, svg_name),
                  [(name, x_of(trace), trace.snr)
                   for name, (_, trace) in runs.items()],
                  title="batch vs online", xlabel=xlabel, ylabel="SNR (dB)",
                  log_y=False)
    return csv_path


# (gamma, sigma, c, z0) of the counter-example: sigma > gamma / sqrt(c), the
# divergent regime, with the values ACCEPTANCE criterion 4 checks.
COUNTEREXAMPLE = (0.5, 1.0, 1.0, 0.1)


def cmd_counterexample(cfg, outdir):
    z = run_counterexample(*COUNTEREXAMPLE, cfg.iterations)
    os.makedirs(outdir, exist_ok=True)
    # dist here is the squared distance to the fidelity minimizer 0; the
    # fixed-point set of the counter-example operator is empty.
    rows = [[k, float(v), abs(float(v)), float(v) * float(v)]
            for k, v in enumerate(z)]
    csv_path = os.path.join(outdir, "counterexample.csv")
    write_csv(csv_path, "pnp-counterexample-v1", ["k", "z", "abs_z", "dist"],
              rows)
    xs = [float(r[0]) for r in rows]
    ys = [r[2] for r in rows]
    line_plot(os.path.join(outdir, "counterexample.svg"),
              [("abs_z", xs, ys)], title="bounded-denoiser divergence",
              xlabel="iteration", ylabel="|z|", log_y=False)
    return csv_path


# Both shipped denoisers are 1/2-averaged; one passes when its largest
# violation is at most CERT_TOL, a rounding allowance. Test pairs and the
# bounded-constant samples are drawn from [-s, s], s = CERT_DOMAIN_SCALE.
CERT_ALPHA = 0.5
CERT_TOL = 1e-9
CERT_DOMAIN_SCALE = 2.0
# certify's work: (cert_pairs + 5) x max(grid, 48)^2 x (filter passes +
# denoisers.TV_INNER_ITERS, the TV prox's cap). A pass or TV iteration
# took up to 30 ns a pixel at 256^2, or 65 us below 48^2 (one BLAS
# thread). A pair calls each denoiser twice, and the straddling pair and
# the 8 bounded-constant samples count as 5 pairs more: about 5 minutes at
# the bound (2 pairs at GRID_MAX, sigma = 10), at most 10 791 at any grid.
CERT_WORK_MAX = 5e9


def cmd_certify(cfg, outdir):
    gamma_sigma_probe = math.sqrt(cfg.lam)  # sigma at gamma = 1 reference
    sigma = cfg.sigma if cfg.sigma is not None else gamma_sigma_probe
    cap = denoisers.TV_INNER_ITERS
    pair_work = max(cfg.grid, 48) ** 2 * (filter_passes(sigma) + cap)
    if (cfg.cert_pairs + 5) * pair_work > CERT_WORK_MAX:
        # the work is not formatted: cert_pairs may be past a float's range
        raise ConfigurationError(
            f"certify's work, (cert_pairs + 5) x max(grid, 48)^2 x (filter "
            f"passes + {cap}), is past {CERT_WORK_MAX:g}: at this grid and "
            f"sigma, cert_pairs must be <= "
            f"{int(CERT_WORK_MAX // pair_work) - 5}")
    rows = []
    for name, denoiser in (("tv", denoisers.tv_denoiser),
                           ("filter", denoisers.averaged_linear_filter),
                           ("shift", denoisers.shift_denoiser)):
        max_violation = certify_averaged(
            denoiser, CERT_ALPHA, sigma, num_pairs=cfg.cert_pairs,
            domain_scale=CERT_DOMAIN_SCALE, seed=cfg.seed,
            shape=(cfg.grid, cfg.grid))
        passed = max_violation <= CERT_TOL
        straddle = certify_pair(
            denoiser, CERT_ALPHA, sigma,
            np.full((cfg.grid, cfg.grid), 0.1),
            np.full((cfg.grid, cfg.grid), -0.1))
        samples = [np.random.default_rng(cfg.seed + i)
                   .uniform(-CERT_DOMAIN_SCALE, CERT_DOMAIN_SCALE,
                            size=(cfg.grid, cfg.grid)) for i in range(8)]
        bounded = estimate_bounded_constant(denoiser, sigma, samples)
        rows.append([name, cfg.cert_pairs, repr(max_violation), CERT_ALPHA,
                     passed, repr(straddle), repr(bounded)])
        print(f"{name}: passed={passed} "
              f"max_violation={max_violation:.3e} "
              f"straddling_pair_violation={straddle:.3e} "
              f"bounded_c={bounded:.3e}")
    csv_path = os.path.join(outdir, "certificates.csv")
    os.makedirs(outdir, exist_ok=True)
    write_csv(csv_path, "pnp-certify-v1",
              ["denoiser", "pairs", "max_violation", "alpha", "passed",
               "straddling_violation", "bounded_constant"], rows)
    return csv_path


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="pnp",
                                     description="online PnP experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", default=None,
                       help="key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")

    p = sub.add_parser("simulate", help="build phantom + DT measurements")
    add_common(p)
    p.add_argument("-o", "--output", default="model.pnpm")

    p = sub.add_parser("reconstruct", help="run one reconstruction")
    add_common(p)
    p.add_argument("model", help="PNPM2 measurement file from simulate")
    p.add_argument("-o", "--output", default="recon",
                   help="output prefix for trace CSV and PGM")

    for name, help_text in (("sweep", "step-size and minibatch sweeps"),
                            ("compare", "batch vs online comparison"),
                            ("counterexample", "bounded-denoiser divergence"),
                            ("certify", "denoiser averagedness certificates")):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument("-o", "--output", default="out",
                       help="output directory")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        # A diverging run overflows before check_divergence sees the
        # non-finite or too-large iterate; that check reports it, not numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "simulate":
                cmd_simulate(cfg, args.output)
            elif args.command == "reconstruct":
                cmd_reconstruct(cfg, args.model, args.output)
            elif args.command == "sweep":
                cmd_sweep(cfg, args.output)
            elif args.command == "compare":
                cmd_compare(cfg, args.output)
            elif args.command == "counterexample":
                cmd_counterexample(cfg, args.output)
            elif args.command == "certify":
                cmd_certify(cfg, args.output)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 4
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return 2
    return 0


# CPython's builtin SHA-256 module, which hashlib serves sha256 from when
# OpenSSL's _hashlib cannot be imported
BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
# The variables OpenBLAS takes its thread count from: the first one set.
OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS")


def dist_helper_allowed():
    """Whether this process may compute its traces' distances in a forked
    helper (`solvers.DIST_HELPER`): it can fork, it may run on two CPUs or
    more, and numpy's BLAS is OpenBLAS pinned to one thread, the first of
    OPENBLAS_THREAD_VARS that is set reading 1. Any other BLAS counts as
    unpinned: under BLAS threads, both processes' threads spin on the
    same cores."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return False
    if "openblas" not in str(blas).lower():
        return False
    threads = next((os.environ[name] for name in OPENBLAS_THREAD_VARS
                    if name in os.environ), None)
    return threads is not None and threads.strip() == "1"


def run_process():
    """The `pnp` process: freeze the heap its imports made, keep OpenSSL
    out, let the traces' distances run in a forked helper where
    `dist_helper_allowed`, then exit with `main()`'s code.

    The frozen objects (numpy's and this package's modules, functions and
    types) live until the process ends anyway. Frozen, no collection scans
    them again, those of interpreter shutdown included, which saved about
    9 ms a child (2 vCPUs), and a forked helper's collections skip them
    too.

    OpenSSL's _hashlib added about 3.4 MiB to every child's peak RSS, and
    the process needs none of it: it hashes one truth image with SHA-256
    (`forward.truth_sha256`), and `numpy.random` imports hashlib only
    through `secrets` and `hmac`. Blocked, hashlib serves SHA-256 from the
    builtin module, with the same digest, and hmac compares digests with
    `_operator._compare_digest`. Without that module hashlib would have no
    sha256 at all, so the block needs it, and a _hashlib already loaded
    is kept. `main()` itself leaves the GC state, the imports and the
    helper switch alone, since tests and perfbench/traced_cli.py call it
    in their own process: there every distance is computed inline.
    """
    gc.freeze()
    if importlib.util.find_spec(BUILTIN_SHA256) is not None:
        sys.modules.setdefault("_hashlib", None)
    solvers.DIST_HELPER = dist_helper_allowed()
    sys.exit(main())


if __name__ == "__main__":
    run_process()
