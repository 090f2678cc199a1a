"""Experiment command line: simulate, reconstruct, sweep, compare,
counterexample, certify.

Every command is reproducible bytewise from (config file, master seed);
SVG plots are regenerated purely from the CSVs they sit next to.
Exit codes: 0 success, 2 config error, 3 numerical divergence, 4 I/O error.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from pnp_online import metrics
from pnp_online.config import load_config
from pnp_online.denoisers import (AveragedFilterDenoiser, IdentityDenoiser,
                                  ShiftDenoiser, TvProxDenoiser,
                                  certify_averaged, certify_pair,
                                  estimate_bounded_constant)
from pnp_online.errors import ConfigurationError, DivergenceError
from pnp_online.forward import (DtGeometry, Image, build_dt_model,
                                build_gaussian_model)
# Unused here; perfbench/tracer.py patches this binding.
from pnp_online.linops import power_iteration_lipschitz  # noqa: F401
from pnp_online.modelio import load_model, save_model
from pnp_online.pgm import image_to_pgm16, write_pgm
from pnp_online.phantoms import phantom_generate
from pnp_online.solvers import (SolverConfig, run_admm, run_counterexample,
                                run_ista, run_pnp_admm, run_pnp_ista,
                                run_pnp_sgd)
from pnp_online.svgplot import line_plot


# ---------------------------------------------------------------------------
# CSV with a versioned schema header line; re-parseable by read_csv below.

def write_csv(path, schema, columns, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# schema={schema}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def append_comments(path, comments):
    """Append `# <comment>` lines to a CSV; read_csv skips them."""
    if comments:
        with open(path, "a", encoding="ascii") as fh:
            for comment in comments:
                fh.write(f"# {comment}\n")


def read_csv(path):
    """Return (schema, columns, rows-of-strings)."""
    with open(path, encoding="ascii") as fh:
        first = fh.readline().strip()
        if not first.startswith("# schema="):
            raise ConfigurationError(f"{path}: missing schema header line")
        schema = first.split("=", 1)[1]
        columns = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh
                if line.strip() and not line.startswith("#")]
    return schema, columns, rows


# ---------------------------------------------------------------------------
# Construction helpers shared by the commands.

def geometry_from_config(cfg):
    return DtGeometry(domain_side=cfg.domain_side, grid=cfg.grid,
                      wavelength=cfg.wavelength,
                      eps_background=cfg.eps_background,
                      num_transmitters=cfg.transmitters,
                      num_receivers=cfg.receivers,
                      ring_radius=cfg.ring_radius, incident=cfg.incident)


def phantom_from_config(cfg):
    if cfg.phantom in ("blobs", "checker"):
        img = phantom_generate(cfg.phantom, cfg.grid, seed=cfg.seed)
    else:
        img = phantom_generate("pgm", cfg.grid, seed=cfg.seed,
                               pgm_path=cfg.phantom)
    # contrast mapping keeps the first-Born linearization sensible
    return Image(pixels=img.pixels * cfg.f_max, width=img.width,
                 height=img.height)


def model_from_config(cfg, truth):
    if cfg.model == "dt":
        return build_dt_model(geometry_from_config(cfg), truth, seed=cfg.seed,
                              input_snr_db=cfg.input_snr_db)
    return build_gaussian_model(truth.n, cfg.receivers, cfg.transmitters,
                                cfg.seed, truth, input_snr_db=cfg.input_snr_db)


def denoiser_from_config(cfg):
    if cfg.denoiser == "tv":
        return TvProxDenoiser()
    if cfg.denoiser == "filter":
        return AveragedFilterDenoiser()
    return IdentityDenoiser()


def resolve_gamma_sigma(cfg, lipschitz):
    gamma = cfg.gamma if cfg.gamma is not None else cfg.gamma_scale / lipschitz
    sigma = cfg.sigma if cfg.sigma is not None else math.sqrt(gamma * cfg.lam)
    return gamma, sigma


def achieved_input_snr_db(model, truth):
    clean = model.apply(truth.pixels)
    err = model.measurements - clean
    signal = float(np.vdot(clean, clean).real)
    noise = float(np.vdot(err, err).real)
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def solver_config(cfg, gamma, sigma, **kwargs):
    options = dict(gamma=gamma, sigma=sigma, iterations=cfg.iterations,
                   batch_size=cfg.batch_size,
                   q_schedule="fista" if cfg.accelerated else "constant",
                   seed=cfg.seed, record_timing=cfg.record_timing,
                   dist_stride=cfg.dist_stride, sample_mode=cfg.sample_mode)
    options.update(kwargs)
    return SolverConfig(**options)


def run_algorithm(cfg, model, truth, **overrides):
    gamma, sigma = resolve_gamma_sigma(cfg, model.lipschitz)
    sconf = solver_config(cfg, gamma, sigma, **overrides)
    denoiser = denoiser_from_config(cfg)
    truth_pixels = truth.pixels if truth is not None else None
    if cfg.algorithm == "ista":
        prox = _tv_regularizer_prox(model, gamma * cfg.lam)
        return run_ista(model, prox, sconf, truth=truth_pixels)
    if cfg.algorithm == "admm":
        prox = _tv_regularizer_prox(model, gamma * cfg.lam)
        return run_admm(model, prox, sconf, truth=truth_pixels)
    if cfg.algorithm == "pnp-ista":
        return run_pnp_ista(model, denoiser, sconf, truth=truth_pixels)
    if cfg.algorithm == "pnp-admm":
        return run_pnp_admm(model, denoiser, sconf, truth=truth_pixels)
    return run_pnp_sgd(model, denoiser, sconf, truth=truth_pixels)


def _tv_regularizer_prox(model, lambda_scaled):
    from pnp_online.denoisers import tv_prox

    def prox(z):
        return tv_prox(z.reshape(model.shape), lambda_scaled,
                       inner_iters=200, inner_tol=1e-12).ravel()
    return prox


def trace_rows(trace):
    rows = []
    for k in range(len(trace)):
        idx = trace.indices[k]
        rows.append([k + 1, trace.dist[k], trace.snr[k], trace.elapsed[k],
                     "" if idx is None else ";".join(str(i) for i in idx)])
    return rows


TRACE_COLUMNS = ["k", "dist", "snr_db", "elapsed_s", "minibatch_indices"]


# ---------------------------------------------------------------------------
# Commands.

def cmd_simulate(cfg, out_path):
    truth = phantom_from_config(cfg)
    model = model_from_config(cfg, truth)
    if cfg.model != "dt":
        raise ConfigurationError("simulate writes PNPM2 containers; use model=dt")
    # L of the stored, complex64-rounded operator: the L reconstruct uses
    lipschitz = float(save_model(out_path, model).max())
    achieved = achieved_input_snr_db(model, truth)
    with open(out_path + ".meta.txt", "w", encoding="ascii") as fh:
        fh.write(f"grid = {cfg.grid}\n"
                 f"domain_side = {cfg.domain_side}\n"
                 f"wavelength = {cfg.wavelength}\n"
                 f"eps_background = {cfg.eps_background}\n"
                 f"transmitters = {cfg.transmitters}\n"
                 f"receivers = {cfg.receivers}\n"
                 f"ring_radius = {cfg.ring_radius}\n"
                 f"incident = {cfg.incident}\n"
                 f"phantom = {cfg.phantom}\n"
                 f"f_max = {cfg.f_max}\n"
                 f"seed = {cfg.seed}\n"
                 f"requested_input_snr_db = {cfg.input_snr_db}\n"
                 f"achieved_input_snr_db = {achieved!r}\n"
                 f"lipschitz = {lipschitz!r}\n")
    return out_path


def check_truth(model, truth, model_path):
    """Trace comments on the truth check; raises if the model's differs."""
    if model.truth_sha256 is None:
        return ["warning: PNPM1 model: truth image unchecked"]
    if model.truth_sha256 != truth.sha256():
        raise ConfigurationError(
            f"{model_path} was simulated from another truth image (SHA-256 "
            f"{model.truth_sha256.hex()[:16]}..., this config gives "
            f"{truth.sha256().hex()[:16]}...); reconstruct with the phantom, "
            f"f_max, grid and seed it was simulated with")
    return []


def cmd_reconstruct(cfg, model_path, out_prefix):
    model = load_model(model_path)
    truth = phantom_from_config(cfg)
    csv_path = out_prefix + ".trace.csv"
    pgm_path = out_prefix + ".recon.pgm"
    gamma, sigma = resolve_gamma_sigma(cfg, model.lipschitz)
    step = ([f"lipschitz = {model.lipschitz!r}", f"gamma = {gamma!r}",
             f"sigma = {sigma!r}"] + check_truth(model, truth, model_path))
    try:
        x, trace = run_algorithm(cfg, model, truth)
    except DivergenceError as err:
        partial = err.trace
        rows = trace_rows(partial) if partial is not None else []
        warnings = partial.warnings if partial is not None else []
        write_csv(csv_path, "pnp-trace-v1", TRACE_COLUMNS, rows)
        append_comments(csv_path, step + [f"warning: {w}" for w in warnings]
                        + [f"diverged: {err}"])
        raise
    write_csv(csv_path, "pnp-trace-v1", TRACE_COLUMNS, trace_rows(trace))
    append_comments(csv_path,
                    step + [f"warning: {w}" for w in trace.warnings])
    data, lo, hi = image_to_pgm16(x.reshape(model.shape))
    write_pgm(pgm_path, data, maxval=65535)
    with open(pgm_path + ".meta.txt", "w", encoding="ascii") as fh:
        fh.write(f"window_lo = {lo!r}\nwindow_hi = {hi!r}\n")
    return csv_path, pgm_path


def cmd_sweep(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    truth = phantom_from_config(cfg)
    model = model_from_config(cfg, truth)
    gammas = cfg.gamma_list()
    batches = cfg.batch_list()
    summary_rows = []
    failures = []
    for denoiser_name in ("tv", "filter"):
        cells = []
        for scale in gammas:
            cells.append(("gamma", scale, cfg.batch_size))
        for batch in batches:
            cells.append(("batch", 1.0, batch))
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
                write_csv(csv_path, "pnp-trace-v1", TRACE_COLUMNS,
                          trace_rows(trace))
                plot_trace_csv(csv_path, os.path.join(outdir, tag + ".svg"))
                if not accelerated:
                    row.append(metrics.summarize(trace).min_dist)
        summary_rows.append(row)
    columns = (["denoiser"]
               + [f"gamma_{g:g}_over_L" for g in gammas]
               + [f"B_{b}" for b in batches])
    summary_path = os.path.join(outdir, "summary.csv")
    write_csv(summary_path, "pnp-sweep-v1", columns, summary_rows)
    append_comments(summary_path, [f"failed: {tag}: {message}"
                                   for tag, message in failures])
    return summary_path


def plot_trace_csv(csv_path, svg_path):
    """Regenerate the dist-vs-iteration plot purely from a trace CSV."""
    _, columns, rows = read_csv(csv_path)
    k_idx, d_idx = columns.index("k"), columns.index("dist")
    xs, ys = [], []
    for row in rows:
        if row[d_idx] == "" or row[d_idx] == "nan":
            continue
        xs.append(float(row[k_idx]))
        ys.append(float(row[d_idx]))
    line_plot(svg_path, [("dist", xs, ys)], title=os.path.basename(csv_path),
              xlabel="iteration", ylabel="dist", log_y=True)


def _subset_model(model, budget):
    """Fixed, uniformly spread illumination subset (batch budget runs)."""
    indices = np.linspace(0, model.num_components, budget,
                          endpoint=False).astype(int)
    return model.select(indices)


def cmd_compare(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    truth = phantom_from_config(cfg)
    model = model_from_config(cfg, truth)
    budget = min(cfg.budget, model.num_components)
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
    length = max(len(trace) for _, trace in runs.values())
    rows = []
    for k in range(length):
        row = [k + 1]
        for name in runs:
            _, trace = runs[name]
            if k < len(trace):
                row.extend([trace.snr[k], trace.elapsed[k]])
            else:
                row.extend(["", ""])
        rows.append(row)
    csv_path = os.path.join(outdir, "compare.csv")
    write_csv(csv_path, "pnp-compare-v1", columns, rows)
    append_comments(csv_path, [f"warning: {name}: {w}"
                               for name, (_, trace) in runs.items()
                               for w in trace.warnings])
    plot_compare_csv(csv_path, os.path.join(outdir, "compare_iterations.svg"),
                     against="iterations")
    plot_compare_csv(csv_path, os.path.join(outdir, "compare_wallclock.svg"),
                     against="wallclock")
    return csv_path


def plot_compare_csv(csv_path, svg_path, against="iterations"):
    _, columns, rows = read_csv(csv_path)
    series = []
    for name in ("pnp-fista", "pnp-admm", "pnp-sgd"):
        s_idx = columns.index(f"{name}_snr_db")
        t_idx = columns.index(f"{name}_elapsed_s")
        xs, ys = [], []
        for row in rows:
            if row[s_idx] == "":
                continue
            xs.append(float(row[t_idx]) if against == "wallclock"
                      else float(row[columns.index("k")]))
            ys.append(float(row[s_idx]))
        series.append((name, xs, ys))
    xlabel = "seconds" if against == "wallclock" else "iteration"
    line_plot(svg_path, series, title="batch vs online", xlabel=xlabel,
              ylabel="SNR (dB)", log_y=False)


def cmd_counterexample(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    z = run_counterexample(cfg.ce_gamma, cfg.ce_sigma, cfg.ce_c, cfg.ce_z0,
                           cfg.ce_iters)
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


def cmd_certify(cfg, outdir):
    os.makedirs(outdir, exist_ok=True)
    gamma_sigma_probe = math.sqrt(cfg.lam)  # sigma at gamma = 1 reference
    sigma = cfg.sigma if cfg.sigma is not None else gamma_sigma_probe
    rows = []
    for name, denoiser in (("tv", TvProxDenoiser()),
                           ("filter", AveragedFilterDenoiser()),
                           ("shift", ShiftDenoiser(c=1.0))):
        cert = certify_averaged(denoiser, cfg.cert_alpha, sigma,
                                num_pairs=cfg.cert_pairs,
                                domain_scale=cfg.cert_domain_scale,
                                seed=cfg.cert_seed, tol=cfg.cert_tol,
                                shape=(cfg.grid, cfg.grid))
        straddle = certify_pair(
            denoiser, cfg.cert_alpha, sigma,
            np.full((cfg.grid, cfg.grid), 0.1),
            np.full((cfg.grid, cfg.grid), -0.1))
        samples = [np.random.default_rng(cfg.cert_seed + i)
                   .uniform(-cfg.cert_domain_scale, cfg.cert_domain_scale,
                            size=(cfg.grid, cfg.grid)) for i in range(8)]
        bounded = estimate_bounded_constant(denoiser, sigma, samples)
        rows.append([name, cert.pairs_tested, repr(cert.max_violation),
                     cert.alpha_tested, cert.passed, repr(straddle),
                     repr(bounded)])
        print(f"{name}: passed={cert.passed} "
              f"max_violation={cert.max_violation:.3e} "
              f"straddling_pair_violation={straddle:.3e} "
              f"bounded_c={bounded:.3e}")
    csv_path = os.path.join(outdir, "certificates.csv")
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
    p.add_argument("model", help="PNPM2 (or PNPM1) measurement file")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
