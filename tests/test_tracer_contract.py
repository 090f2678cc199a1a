"""perfbench/tracer.py must still see the calls it wraps.

The tracer records a missing binding as uncovered instead of failing, and a
call that no longer goes through a patched binding simply goes unseen, so
without these tests a cleanup that deletes a binding, or hoists an import
past it, shows only in a traced benchmark run.
"""

import collections
import functools
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pnp_online import denoisers, forward, linops

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    env.pop("PNP_SEED", None)
    return env


def test_tracer_installs_with_no_uncovered_binding():
    script = ("import json; from tracer import Tracer, install; "
              "t = Tracer(); install(t); print(json.dumps(t.uncovered))")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def _traced_span_counts(spans_json, argv):
    """Run `pnp argv` through perfbench/traced_cli.py; count spans by name."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
         str(spans_json), "--", *argv],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(spans_json.read_text())
    assert record["uncovered"] == []
    return collections.Counter(span[0] for span in record["spans"])


COMMON = ["--set", "grid=8", "--set", "transmitters=2", "--set",
          "receivers=4", "--set", "phantom=checker"]
# the spans a refactor could bypass: the TV prox (through the denoiser or
# the ISTA/ADMM regularizer prox) or, in the "-filter" cases, the filter,
# the CG data prox, the solver entry point and the CSV/PGM writers
EXPECTED_SPANS = {
    "ista": {"denoisers.tv", "solvers.solve", "cli.output"},
    "admm": {"denoisers.tv", "linops.cg", "solvers.solve", "cli.output"},
    "pnp-ista": {"denoisers.tv", "solvers.solve", "cli.output"},
    "pnp-admm": {"denoisers.tv", "linops.cg", "solvers.solve", "cli.output"},
    "pnp-sgd": {"denoisers.tv", "solvers.solve", "cli.output"},
    "pnp-ista-filter": {"denoisers.filter", "solvers.solve", "cli.output"},
    "pnp-admm-filter": {"denoisers.filter", "linops.cg", "solvers.solve",
                        "cli.output"},
    "pnp-sgd-filter": {"denoisers.filter", "solvers.solve", "cli.output"}}


@pytest.fixture(scope="module")
def traced_model(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    model = work / "m.pnpm"
    counts = _traced_span_counts(work / "simulate.json",
                                 ["simulate", *COMMON, "-o", str(model)])
    assert counts["modelio.save"] == 1
    return model


@pytest.mark.parametrize("case", sorted(EXPECTED_SPANS))
def test_traced_reconstruct_sees_the_layers(traced_model, case):
    work = traced_model.parent
    algorithm = case.removesuffix("-filter")
    denoiser = "tv" if algorithm == case else "filter"
    counts = _traced_span_counts(
        work / f"{case}.json",
        ["reconstruct", str(traced_model), *COMMON, "-o",
         str(work / case), "--set", "iterations=3",
         "--set", f"algorithm={algorithm}", "--set", f"denoiser={denoiser}"])
    assert {name for name in EXPECTED_SPANS[case]
            if counts[name] == 0} == set()
    assert counts["solvers.solve"] == 1


def _script_module(name, path):
    """A script, imported read-only for its workload table."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclass looks its module up
    spec.loader.exec_module(module)
    return module


BENCH = _script_module("perfbench_run", ROOT / "perfbench" / "run.py")
BENCH_SCRIPT = _script_module("bench_script", ROOT / "scripts" / "bench.py")


def test_bench_script_solves_the_benchmark_workloads():
    """scripts/bench.py's solve split and commands run the workloads of
    perfbench/run.py; the seed and record_timing each set on their own."""
    def solve_keys(keys):
        return {key: str(value) for key, value in keys.items()
                if key not in ("seed", "record_timing")}

    assert ({name: solve_keys({**BENCH_SCRIPT.BASE_KEYS, **keys})
             for name, keys in BENCH_SCRIPT.WORKLOADS.items()}
            == {name: solve_keys(workload.keys)
                for name, workload in BENCH.WORKLOADS.items()})


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_traced_workload_meets_the_benchmark_self_test(tmp_path, workload):
    """The call counts the benchmark's tracing self-test expects per cycle.

    A change to how often a solver calls grad_full, tv_prox or CG fails the
    traced benchmark run; this test shows it first.
    """
    spec = BENCH.WORKLOADS[workload]
    args = BENCH.set_args(spec, BENCH.pnp_seeds(spec, 0)[0])
    model = tmp_path / "model.pnpm"
    counts = (_traced_span_counts(tmp_path / "simulate.json",
                                  ["simulate", "-o", str(model), *args])
              + _traced_span_counts(tmp_path / "reconstruct.json",
                                    ["reconstruct", str(model), "-o",
                                     str(tmp_path / "r"), *args]))
    assert {metric: counts[metric.removesuffix("_calls")]
            for metric in spec.expected_counts} == spec.expected_counts



def test_bench_script_in_process_layers_run(monkeypatch):
    """scripts/bench.py's layers, and its solve split of each workload, run
    on a tiny model; no other test calls the package the way they do."""
    monkeypatch.setattr(BENCH_SCRIPT, "REPEATS", 2)
    monkeypatch.setattr(BENCH_SCRIPT, "SPLIT_RUNS", 2)
    tiny = {"grid": 8, "transmitters": 2, "receivers": 4, "iterations": 3}
    unpatched = denoisers.tv_prox
    results = {"layers": BENCH_SCRIPT.layers(8, 2, 4)}
    for name, keys in BENCH_SCRIPT.WORKLOADS.items():
        results[name] = BENCH_SCRIPT.solve_split({**keys, **tiny})
        assert results[name].keys() == {"solve", *BENCH_SCRIPT.SPLIT}
        assert denoisers.tv_prox is unpatched
    assert {(group, name) for group, layers in results.items()
            for name, result in layers.items()
            if not math.isfinite(result["median"])} == set()
    assert {"build_dt_model", "grad_full", "tv_prox",
            "load_model"} <= results["layers"].keys()
    # the TV inner iterations of the step denoiser and of dist, per solve
    tv_iterations = {name: [results[name][phase]["tv_iterations"]
                            for phase in ("denoiser", "dist")]
                     for name in BENCH_SCRIPT.WORKLOADS}
    assert tv_iterations["admm-filter"] == [0, 0]
    assert min(tv_iterations["sgd-tv"] + tv_iterations["setup-48"]) >= 3
    assert results["sgd-tv"]["denoiser"]["us_per_tv_iteration"]["median"] > 0
    # the TV calls stopped at their iteration cap, and the CG iterations
    assert {name: [results[name][phase]["tv_capped"]
                   for phase in ("denoiser", "dist")]
            for name in BENCH_SCRIPT.WORKLOADS} == dict.fromkeys(
                BENCH_SCRIPT.WORKLOADS, [0, 0])
    assert {name: results[name]["cg"]["cg_iterations"] > 0
            for name in BENCH_SCRIPT.WORKLOADS} == {
                "sgd-tv": False, "admm-filter": True, "setup-48": False}
    assert forward.cg_solve_regularized is linops.cg_solve_regularized
    # a TV prox allowed no inner iteration stops at its cap in every call
    monkeypatch.setattr(denoisers, "tv_prox",
                        functools.partial(unpatched, inner_iters=0))
    capped = BENCH_SCRIPT.solve_split({**BENCH_SCRIPT.WORKLOADS["sgd-tv"],
                                       **tiny})
    assert [capped[phase]["tv_capped"] for phase in ("denoiser", "dist")] == [
        capped["denoiser"]["calls"], capped["dist"]["calls"]]
