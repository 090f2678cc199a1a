"""The trace's distances in a forked helper (`disthelper.DistHelper`).

With `solvers.DIST_HELPER` set, as `cli.run_process` sets it, every trace
must equal the inline one bit for bit, on every exit, and no run may
leave a child behind.
"""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from pnp_online import cli, solvers
from pnp_online.cli import main
from pnp_online.config import ExperimentConfig, load_config
from pnp_online.denoisers import identity_denoiser
from pnp_online.errors import DivergenceError
from pnp_online.solvers import run_pnp_sgd

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the helper needs os.fork")

KEYS = {"grid": 16, "transmitters": 4, "receivers": 12,
        "phantom": "checker", "record_timing": "false", "seed": 3}


@pytest.fixture
def forked(monkeypatch):
    """Switch the helper on as cli.run_process does; the list fills with
    the pid of each helper forked."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(solvers, "DIST_HELPER", True)
    return pids


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def trace_bits(trace):
    return (np.asarray(trace.dist).tobytes(), np.asarray(trace.snr).tobytes(),
            np.asarray(trace.elapsed).tobytes(),
            [None if i is None else i.tolist() for i in trace.indices],
            trace.warnings)


def solve(monkeypatch, helper, keys):
    """(iterate bytes, trace bits) of cli.run_algorithm on the 16^2 model."""
    monkeypatch.setattr(solvers, "DIST_HELPER", helper)
    cfg = load_config(overrides=[f"{k}={v}" for k, v in
                                 {**KEYS, **keys}.items()])
    truth = cli.phantom_from_config(cfg)
    x, trace = cli.run_algorithm(cfg, cli.model_from_config(cfg, truth),
                                 truth)
    return x.tobytes(), trace_bits(trace)


@pytest.mark.parametrize("keys", [
    {"algorithm": "pnp-sgd", "denoiser": "tv", "batch_size": 2,
     "iterations": 40},
    {"algorithm": "pnp-admm", "denoiser": "filter", "iterations": 25},
    {"algorithm": "pnp-sgd", "denoiser": "tv", "sample_mode": "full",
     "iterations": 30},
    {"algorithm": "pnp-sgd", "denoiser": "tv", "batch_size": 2,
     "iterations": 40, "dist_stride": 3}])
def test_helper_trace_equals_inline_bit_for_bit(monkeypatch, forked, keys):
    inline = solve(monkeypatch, False, keys)
    assert forked == []
    assert solve(monkeypatch, True, keys) == inline
    assert len(forked) == 1
    assert_no_child()


def test_run_recording_only_its_last_dist_forks_nothing(monkeypatch, forked):
    keys = {"algorithm": "pnp-sgd", "denoiser": "tv", "iterations": 10,
            "dist_stride": 10}
    inline = solve(monkeypatch, False, keys)
    assert solve(monkeypatch, True, keys) == inline
    assert forked == []


def diverging_run():
    """A full-gradient run at 10 / L with the identity denoiser: the
    iterates grow about tenfold a step until the divergence check stops
    the run, some twenty iterations in."""
    cfg = load_config(overrides=[f"{k}={v}" for k, v in KEYS.items()])
    truth = cli.phantom_from_config(cfg)
    model = cli.model_from_config(cfg, truth)
    config = ExperimentConfig(gamma=10.0 / model.lipschitz, sigma=0.1,
                              iterations=200, sample_mode="full",
                              record_timing=False)
    with pytest.raises(DivergenceError) as raised:
        run_pnp_sgd(model, identity_denoiser, config, truth=truth)
    return trace_bits(raised.value.trace)


def test_divergence_trace_equals_inline(monkeypatch, forked):
    monkeypatch.setattr(solvers, "DIST_HELPER", False)
    inline = diverging_run()
    monkeypatch.setattr(solvers, "DIST_HELPER", True)
    assert len(inline[0]) > 5 * 8        # the helper had work to do
    assert diverging_run() == inline
    assert len(forked) == 1
    assert_no_child()


@pytest.mark.parametrize("how", ["killed", "failed"])
def test_lost_helper_leaves_the_inline_distances(monkeypatch, forked, how):
    """A helper killed mid-run, or one whose dist raises, changes only
    where the distances are computed."""
    keys = {"algorithm": "pnp-sgd", "denoiser": "tv", "batch_size": 2,
            "iterations": 40}
    inline = solve(monkeypatch, False, keys)
    main_pid = os.getpid()
    calls = []
    tv = cli.denoisers.tv_denoiser

    def losing(z, sigma):
        calls.append(None)
        if len(calls) == 20:
            if how == "killed" and os.getpid() == main_pid:
                os.kill(forked[-1], signal.SIGKILL)
            elif how == "failed" and os.getpid() != main_pid:
                raise RuntimeError("the helper fails")
        return tv(z, sigma)
    monkeypatch.setattr(cli.denoisers, "tv_denoiser", losing)
    assert solve(monkeypatch, True, keys) == inline
    assert len(forked) == 1
    assert_no_child()


@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_interrupted_run_reaps_its_helper(monkeypatch, forked, error):
    main_pid = os.getpid()
    calls = []
    tv = cli.denoisers.tv_denoiser

    def interrupted(z, sigma):
        calls.append(None)
        if len(calls) == 15 and os.getpid() == main_pid:
            raise error
        return tv(z, sigma)
    monkeypatch.setattr(cli.denoisers, "tv_denoiser", interrupted)
    with pytest.raises(error):
        solve(monkeypatch, True, {"algorithm": "pnp-sgd", "denoiser": "tv",
                                  "iterations": 40})
    assert len(forked) == 1
    assert_no_child()


# A `pnp` process that runs sys.argv[1] first, counts its forks and
# prints its exit code and the count.
FORK_PROBE = (
    "import os, sys\n"
    "exec(sys.argv[1])\n"
    "forks = []\n"
    "fork = os.fork\n"
    "def counting_fork():\n"
    "    forks.append(None)\n"
    "    return fork()\n"
    "os.fork = counting_fork\n"
    "from pnp_online import cli\n"
    "sys.argv = ['pnp', *sys.argv[2:]]\n"
    "try:\n"
    "    cli.run_process()\n"
    "except SystemExit as exit:\n"
    "    print(exit.code, len(forks))\n")
ONE_CPU = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(cli.__file__))
try:
    BLAS_NAME = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
except (AttributeError, KeyError):     # a numpy without the build record
    BLAS_NAME = ""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="the helper needs two CPUs")
@pytest.mark.parametrize("blas, prelude, forks", [
    ({"OPENBLAS_NUM_THREADS": "1"}, "", 1),
    ({}, "", 0),
    ({"OPENBLAS_NUM_THREADS": "1"}, ONE_CPU, 0)])
def test_reconstruct_child_forks_only_pinned_on_two_cpus(tmp_path, blas,
                                                         prelude, forks):
    """A `pnp reconstruct` forks its helper only with BLAS pinned to one
    thread and two CPUs; unpinned, or limited to one CPU, it forks
    nothing, and every output is the same."""
    if forks and "openblas" not in BLAS_NAME.lower():
        pytest.skip("this numpy's BLAS is not OpenBLAS")
    keys = [arg for k, v in {**KEYS, "iterations": 12}.items()
            for arg in ("--set", f"{k}={v}")]
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *keys, "-o", model]) == 0
    assert main(["reconstruct", model, *keys,
                 "-o", str(tmp_path / "inline")]) == 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", FORK_PROBE, prelude, "reconstruct", model,
         *keys, "-o", str(tmp_path / "child")],
        env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["0", str(forks)], proc.stderr
    for suffix in (".trace.csv", ".recon.pgm", ".recon.pgm.meta.txt"):
        assert ((tmp_path / f"child{suffix}").read_bytes()
                == (tmp_path / f"inline{suffix}").read_bytes())


@pytest.mark.parametrize("env, allowed", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ({"OMP_NUM_THREADS": "2"}, False),
    ({"MKL_NUM_THREADS": "1"}, False),
    ({}, False)])
def test_dist_helper_needs_openblas_pinned_by_its_first_set_variable(
        monkeypatch, env, allowed):
    for name in BLAS_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert not cli.dist_helper_allowed()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.dist_helper_allowed() == (allowed
                                         and "openblas" in BLAS_NAME.lower())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not cli.dist_helper_allowed()
