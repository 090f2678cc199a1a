#!/usr/bin/env python3
"""Benchmark of the `pnp` command line, run the way a user runs it.

Every workload runs `pnp simulate`, then `pnp reconstruct` on the file it
wrote, each in a child process, and checks every output. README.md in this
directory explains the workloads, the metrics and the layer map.

    python3 perfbench/run.py --workload sgd-tv --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout that holds src/pnp_online. With
--trace 0 it reports the end-to-end metrics listed in BENCHMARK.json. With
--trace 1 it also runs commands under perfbench/traced_cli.py and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
when every command and check passed, 1 when one failed, and 2 when the
benchmark cannot run at all (no result is printed then).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"

# Under default OpenBLAS threading on a 2-vCPU box the 48x1024 complex
# S @ v was bimodal (20 us or 4-8 ms); with one thread it is steady. The
# program does not pin threads itself, so the children are pinned here.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

RUN_LIMIT_S = 170.0      # every child ends before this much run time
CHILD_TIMEOUT_S = 150.0

# SNR within this many dB of the final SNR counts as reaching the target.
TARGET_WINDOW_DB = 0.5


@dataclass(frozen=True)
class Workload:
    keys: dict               # --set keys for both commands; seed is added
    seeds: int               # distinct pnp seeds per run
    repeat_reconstruct: bool  # repeats rerun reconstruct, not only simulate
    expected_counts: dict    # tracing self-test: layer count per cycle

    @property
    def iterations(self):
        return int(self.keys["iterations"])


def _keys(**keys):
    # The checker phantom does not depend on the seed, so the seed varies
    # the noise draw, the power-iteration start and the minibatch sequence
    # but not the truth; seeded blob phantoms move final_snr_db by ~15%
    # from seed to seed.
    base = {"grid": 32, "transmitters": 16, "receivers": 48,
            "phantom": "checker", "record_timing": "false"}
    base.update(keys)
    return base


WORKLOADS = {
    "sgd-tv": Workload(
        keys=_keys(algorithm="pnp-sgd", denoiser="tv", batch_size=4,
                   iterations=200),
        seeds=3, repeat_reconstruct=True,
        expected_counts={"denoisers.tv_calls": 400,
                         "forward.grad_full_calls": 200}),
    "admm-filter": Workload(
        keys=_keys(algorithm="pnp-admm", denoiser="filter", iterations=60),
        seeds=3, repeat_reconstruct=True,
        expected_counts={"linops.cg_calls": 60}),
    "setup-48": Workload(
        # sample_mode=full keeps the short solve free of minibatch draws,
        # so final_snr_db is steady with one solve per run.
        keys=_keys(grid=48, transmitters=24, receivers=72,
                   algorithm="pnp-sgd", denoiser="tv", sample_mode="full",
                   iterations=20),
        # One reconstruct here takes ~23 s, 20 s of it the power iteration
        # on load, so repeats rerun simulate only.
        seeds=1, repeat_reconstruct=False,
        expected_counts={"denoisers.tv_calls": 40,
                         "forward.grad_full_calls": 40}),
}


def pnp_seeds(workload, seed):
    """The pnp `seed` values a benchmark run with --seed `seed` uses."""
    return [seed * 10 + j for j in range(workload.seeds)]


def set_args(workload, pnp_seed):
    args = []
    for key, value in {**workload.keys, "seed": pnp_seed}.items():
        args += ["--set", f"{key}={value}"]
    return args


def child_env():
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PNP_SEED", None)  # it would override the workload's seed
    return env


def environment():
    """What the timings depend on, recorded with every result."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_key_values(path):
    out = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def finite_float(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class Runner:
    """Starts the children, times them, and keeps the failure record."""

    def __init__(self, work):
        self.work = work
        self.start = time.perf_counter()
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self.peak_rss_kb = 0

    def fail(self, message):
        self.failures.append(message)
        print(f"perfbench: FAIL {message}", file=sys.stderr)

    def command(self, argv, spans=None):
        """Run one pnp command; returns its wall time, or None on failure."""
        self.attempted += 1
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if remaining < 1.0:
            self.fail(f"{argv[0]}: no time left in the run")
            return None
        if spans is None:
            cmd = [sys.executable, "-m", "pnp_online.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                   str(spans), "--", *argv]
        log = self.work / "command.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(min(CHILD_TIMEOUT_S, remaining),
                                    os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip()[-400:]
            self.fail(f"{argv[0]} exited {proc.returncode}: {tail}")
            return None
        return wall


# ---------------------------------------------------------------------------
# Output checks. Each failed check is one entry in Runner.failures.

def check_simulate(runner, workload, pnp_seed, model):
    meta_path = Path(str(model) + ".meta.txt")
    if not model.is_file() or not meta_path.is_file():
        runner.fail(f"simulate seed={pnp_seed}: model or meta file missing")
        return False
    with open(model, "rb") as fh:
        if fh.read(4) != b"PNPM":
            runner.fail(f"simulate seed={pnp_seed}: not a PNPM container")
            return False
    meta = read_key_values(meta_path)
    wanted = {key: str(workload.keys[key])
              for key in ("grid", "transmitters", "receivers", "phantom")}
    wanted["seed"] = str(pnp_seed)
    wrong = {k: meta.get(k) for k, v in wanted.items() if meta.get(k) != v}
    lipschitz = finite_float(meta.get("lipschitz", ""))
    if wrong or lipschitz is None or lipschitz <= 0.0 \
            or finite_float(meta.get("achieved_input_snr_db", "")) is None:
        runner.fail(f"simulate seed={pnp_seed}: meta does not match the "
                    f"workload or is not finite: {wrong or meta}")
        return False
    return True


def read_trace(path):
    """Rows of (k, dist or None, snr) from a pnp trace CSV; raises ValueError."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# schema=pnp-trace-v"):
        raise ValueError("missing pnp-trace schema line")
    if any(line.startswith("# diverged") for line in lines):
        raise ValueError("trace marks the run as diverged")
    columns = lines[1].split(",")
    k_col, d_col, s_col = (columns.index(c) for c in ("k", "dist", "snr_db"))
    rows = []
    for line in lines[2:]:
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        dist = None if cells[d_col] == "" else float(cells[d_col])
        rows.append((int(cells[k_col]), dist, float(cells[s_col])))
    return rows


def check_pgm(path, grid):
    """A P5 header for a grid x grid 16-bit image, and a full raster."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields, pos = [], 0
    while len(fields) < 4 and pos < len(data):
        if data[pos:pos + 1].isspace():
            pos += 1
        elif data[pos:pos + 1] == b"#":
            newline = data.find(b"\n", pos)
            pos = len(data) if newline < 0 else newline
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            fields.append(data[pos:end])
            pos = end
    if fields[:1] != [b"P5"] or len(fields) < 4 \
            or not all(f.isdigit() for f in fields[1:]):
        return False
    width, height, maxval = (int(f) for f in fields[1:])
    return (width == height == grid and maxval == 65535
            and len(data) - (pos + 1) == width * height * 2)


def check_reconstruct(runner, workload, pnp_seed, prefix):
    """Returns the trace rows, or None when an output check failed."""
    csv_path = Path(str(prefix) + ".trace.csv")
    pgm_path = Path(str(prefix) + ".recon.pgm")
    window_path = Path(str(pgm_path) + ".meta.txt")
    where = f"reconstruct seed={pnp_seed}"
    if not (csv_path.is_file() and pgm_path.is_file()
            and window_path.is_file()):
        runner.fail(f"{where}: trace, image or window file missing")
        return None
    try:
        rows = read_trace(csv_path)
    except (ValueError, IndexError) as err:
        runner.fail(f"{where}: unreadable trace: {err}")
        return None
    if [row[0] for row in rows] != list(range(1, workload.iterations + 1)):
        runner.fail(f"{where}: trace has {len(rows)} rows, expected "
                    f"{workload.iterations}")
        return None
    if rows[-1][1] is None or not all(
            math.isfinite(snr) and (dist is None or math.isfinite(dist))
            for _, dist, snr in rows):
        runner.fail(f"{where}: NaN/Inf in the trace or no final dist")
        return None
    window = read_key_values(window_path)
    lo = finite_float(window.get("window_lo", ""))
    hi = finite_float(window.get("window_hi", ""))
    if lo is None or hi is None or not hi > lo \
            or not check_pgm(pgm_path, int(workload.keys["grid"])):
        runner.fail(f"{where}: bad image, or a constant or non-finite "
                    f"window {window}")
        return None
    return rows


def check_reference(runner, references, name, pnp_seed, snr, dist):
    """Exact stored values for recorded seeds, an envelope for the rest."""
    ref = references[name]
    exact = ref["exact"].get(str(pnp_seed))
    if exact is not None:
        rtol = references["rtol"]
        ok = (math.isclose(snr, exact[0], rel_tol=rtol["snr_db"])
              and math.isclose(dist, exact[1], rel_tol=rtol["dist"]))
        expected = f"stored {exact}"
    else:
        snr_lo, snr_hi = ref["envelope"]["snr_db"]
        dist_lo, dist_hi = ref["envelope"]["dist"]
        ok = snr_lo <= snr <= snr_hi and dist_lo <= dist <= dist_hi
        expected = f"envelope {ref['envelope']}"
    if not ok:
        runner.fail(f"{name} seed={pnp_seed}: final snr_db={snr!r} "
                    f"dist={dist!r} outside the reference, {expected}")


def iters_to_target(rows):
    final = rows[-1][2]
    return next(k for k, _, snr in rows if snr >= final - TARGET_WINDOW_DB)


# ---------------------------------------------------------------------------
# One workload run.

class Run:
    """Commands of one benchmark run and the samples they produced."""

    def __init__(self, name, workload, runner, references):
        self.name = name
        self.workload = workload
        self.runner = runner
        self.references = references
        self.model = runner.work / "model.pnpm"
        self.setup_s = []
        self.reconstruct_s = []
        self.finals = {}       # pnp seed -> (final snr_db, final dist)
        self.digests = {}      # (artifact, pnp seed) -> sha256 of first run
        self.traced_commands = []  # spans and counts of each traced pair

    def same_as_first(self, artifact, pnp_seed, path):
        digest = sha256(path)
        first = self.digests.setdefault((artifact, pnp_seed), digest)
        if digest != first:
            self.runner.fail(f"{self.name} seed={pnp_seed}: {artifact} "
                             f"differs from the first run with this seed")

    def simulate(self, pnp_seed, spans=None):
        wall = self.runner.command(
            ["simulate", "-o", str(self.model),
             *set_args(self.workload, pnp_seed)], spans)
        if wall is None or not check_simulate(self.runner, self.workload,
                                              pnp_seed, self.model):
            return None
        self.same_as_first("model", pnp_seed, self.model)
        self.setup_s.append(wall)
        return wall

    def reconstruct(self, pnp_seed, prefix, spans=None):
        """Returns (wall time, trace rows), or None on failure."""
        wall = self.runner.command(
            ["reconstruct", str(self.model), "-o", str(prefix),
             *set_args(self.workload, pnp_seed)], spans)
        if wall is None:
            return None
        rows = check_reconstruct(self.runner, self.workload, pnp_seed,
                                 prefix)
        if rows is None:
            return None
        final = (rows[-1][2], rows[-1][1])
        if self.references is not None and pnp_seed not in self.finals:
            check_reference(self.runner, self.references, self.name,
                            pnp_seed, *final)
        self.finals.setdefault(pnp_seed, final)
        self.same_as_first("trace", pnp_seed,
                           Path(str(prefix) + ".trace.csv"))
        if spans is None:
            self.reconstruct_s.append(wall)
        return wall, rows

    def measure(self, seed, seconds):
        """Untraced: one cycle per pnp seed, then repeats to fill the time.

        At least one repeat always runs, so every run checks that a rerun
        with the same seed writes a byte-identical model, and, where the
        workload repeats reconstruct, a byte-identical trace.
        """
        seeds = pnp_seeds(self.workload, seed)
        prefix = self.runner.work / "recon"
        start = time.perf_counter()
        for pnp_seed in seeds:
            if self.simulate(pnp_seed) is not None:
                self.reconstruct(pnp_seed, prefix)
        first_pass = time.perf_counter() - start
        repeats = 0
        while True:
            elapsed = time.perf_counter() - start
            per_repeat = ((elapsed - first_pass) / repeats if repeats
                          else first_pass / len(seeds))
            if repeats and elapsed + per_repeat > seconds:
                break
            pnp_seed = seeds[repeats % len(seeds)]
            if self.simulate(pnp_seed) is not None \
                    and self.workload.repeat_reconstruct:
                self.reconstruct(pnp_seed, prefix)
            repeats += 1

    def measure_traced(self, seed, seconds):
        """Cycles of a traced simulate and an untraced and a traced
        reconstruct, the two reconstructs in alternating order.

        Returns per-cycle layer metrics and the untraced and traced
        reconstruct wall times, paired by cycle.
        """
        seeds = pnp_seeds(self.workload, seed)
        work = self.runner.work
        cycles, untraced, traced = [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if cycles and elapsed * (len(cycles) + 1) / len(cycles) > seconds:
                break
            pnp_seed = seeds[len(cycles) % len(seeds)]
            sim_spans, rec_spans = work / "sim.spans", work / "rec.spans"
            sim_wall = self.simulate(pnp_seed, spans=sim_spans)
            if sim_wall is None:
                break
            results = {}  # traced or not -> (wall time, trace rows)
            for is_traced in ((False, True) if len(cycles) % 2 == 0
                              else (True, False)):
                result = self.reconstruct(
                    pnp_seed, work / ("traced" if is_traced else "plain"),
                    spans=rec_spans if is_traced else None)
                if result is None:
                    break
                results[is_traced] = result
            if len(results) < 2:
                break
            outcome = results[True]
            untraced.append(results[False][0])
            traced.append(outcome[0])
            sim, rec = load_spans(sim_spans), load_spans(rec_spans)
            self.traced_commands.append({"simulate": sim, "reconstruct": rec})
            cycles.append(self.layer_metrics(sim, rec, sim_wall + outcome[0],
                                             outcome[1]))
        return cycles, untraced, traced

    def layer_metrics(self, sim, rec, wall, rows):
        spans = {}
        for summary in (sim["summary"], rec["summary"]):
            for name, entry in summary.items():
                into = spans.setdefault(name, dict.fromkeys(entry, 0))
                for field, value in entry.items():
                    into[field] += value
        counts = {k: sim["counts"].get(k, 0) + rec["counts"].get(k, 0)
                  for k in set(sim["counts"]) | set(rec["counts"])}

        def total(name):
            return spans.get(name, {}).get("total_s", 0.0)

        def self_time(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        def per_call_ms(seconds, name):
            return 1e3 * seconds / calls(name) if calls(name) else 0.0

        solve_s, diag_s = total("solvers.solve"), total("solvers.diag")
        out = {
            "bessel.green_s": total("bessel.green"),
            "bessel.hankel_calls": counts.get("bessel.hankel_calls", 0),
            "forward.build_self_s": self_time("forward.build"),
            "forward.grad_full_ms": per_call_ms(total("forward.grad_full"),
                                                "forward.grad_full"),
            "forward.grad_full_calls": calls("forward.grad_full"),
            "forward.grad_minibatch_ms": per_call_ms(
                total("forward.grad_minibatch"), "forward.grad_minibatch"),
            "forward.grad_minibatch_calls": calls("forward.grad_minibatch"),
            "forward.prox_rhs_ms": per_call_ms(
                self_time("forward.prox_datafit"), "forward.prox_datafit"),
            "forward.born_calls": counts.get("forward.born_calls", 0),
            "linops.power_s": total("linops.power"),
            "linops.power_iters": counts.get("linops.power_iters", 0),
            "linops.cg_s": total("linops.cg"),
            "linops.cg_calls": calls("linops.cg"),
            "linops.cg_iters": counts.get("linops.cg_iters", 0),
            "linops.cg_unconverged": counts.get("linops.cg_unconverged", 0),
            "denoisers.tv_ms": per_call_ms(total("denoisers.tv"),
                                           "denoisers.tv"),
            "denoisers.tv_calls": calls("denoisers.tv"),
            "denoisers.filter_ms": per_call_ms(total("denoisers.filter"),
                                               "denoisers.filter"),
            "denoisers.filter_calls": calls("denoisers.filter"),
            "solvers.solve_s": solve_s,
            "solvers.iter_ms": 1e3 * solve_s / self.workload.iterations,
            "solvers.diag_s": diag_s,
            "solvers.diag_share": diag_s / solve_s if solve_s else 0.0,
            "solvers.iters_to_target": iters_to_target(rows),
            "solvers.final_dist": rows[-1][1],
            "metrics.snr_s": total("metrics.snr"),
            "modelio.save_s": total("modelio.save"),
            "modelio.load_self_s": self_time("modelio.load"),
            "modelio.file_bytes": self.model.stat().st_size,
            "cli.output_s": total("cli.output"),
            "cli.overhead_s": wall - total("cli.simulate")
                                   - total("cli.reconstruct"),
        }
        uncovered = sim["uncovered"] + rec["uncovered"]
        if uncovered:
            self.runner.fail(f"tracing self-test: bindings not found: "
                             f"{sorted(set(uncovered))}")
        for metric, expected in self.workload.expected_counts.items():
            if out[metric] != expected:
                self.runner.fail(f"tracing self-test: {metric}={out[metric]}"
                                 f", the config implies {expected}")
        return out


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which lie inside it because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return out


def load_spans(path):
    with open(path, encoding="ascii") as fh:
        data = json.load(fh)
    data["summary"] = summarize(data["spans"])
    return data


def median_or_none(values):
    return statistics.median(values) if values else None


def end_to_end(run):
    finals = list(run.finals.values())
    return {
        "setup_s": median_or_none(run.setup_s),
        "reconstruct_s": median_or_none(run.reconstruct_s),
        "final_snr_db": median_or_none([snr for snr, _ in finals]),
        "final_dist": median_or_none([dist for _, dist in finals]),
        "peak_rss_mb": run.runner.peak_rss_kb / 1024.0 or None,
        "error_rate": len(run.runner.failures) / max(run.runner.attempted, 1),
    }


def per_layer(cycles, untraced, traced):
    if not cycles:
        return {}
    out = {}
    for name in cycles[0]:
        values = [cycle[name] for cycle in cycles]
        exact = all(isinstance(value, int) for value in values)
        out[name] = (statistics.median_low if exact
                     else statistics.median)(values)
    # Cycles differ in seed and in machine load, so the cost of tracing is
    # taken within each cycle before the median.
    out["trace.overhead_share"] = statistics.median(
        t / u - 1.0 for t, u in zip(traced, untraced))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "pnp_online" / "cli.py").is_file():
        print(f"perfbench: {ROOT} holds no src/pnp_online; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads(
        (BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    env = environment()
    workload = WORKLOADS[args.workload]

    # SIGTERM unwinds like an interrupt, so the running child is killed and
    # waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    STATE_DIR.mkdir(exist_ok=True)
    work = STATE_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(work)
        run = Run(args.workload, workload, runner, references)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": env, "keys": workload.keys}
        if args.trace:
            cycles, untraced, traced = run.measure_traced(args.seed,
                                                          args.seconds)
            values = per_layer(cycles, untraced, traced)
            listed = spec["per_layer"]
            record.update(cycles=cycles, untraced_reconstruct_s=untraced,
                          traced_reconstruct_s=traced,
                          traced_commands=run.traced_commands)
        else:
            run.measure(args.seed, args.seconds)
            values = end_to_end(run)
            listed = spec["end_to_end"]
            record.update(setup_s=run.setup_s,
                          reconstruct_s=run.reconstruct_s,
                          finals={str(k): v for k, v in run.finals.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(attempted=runner.attempted, failures=runner.failures,
                  peak_rss_kb=runner.peak_rss_kb, values=values)
    results = STATE_DIR / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              f".json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(final_dist="norm2", error_rate="ratio")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if values.get(m["name"]) is not None}
    correct = not runner.failures and len(metrics) == len(listed)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
