"""Configuration parsing and the experiment CLI end to end."""

import contextlib
import dataclasses
import gc
import io
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online import (cli, denoisers, forward, linops, metrics, modelio,
                        solvers)
from pnp_online.cli import main, write_csv
from pnp_online.config import (ALGORITHMS, BATCH_MAX, DENOISERS, GRID_MAX,
                               GRID_MIN, ITERATIONS_MAX, RECEIVERS_MAX,
                               SEED_MAX, TRANSMITTERS_MAX, ExperimentConfig,
                               dump_config, load_config, parse_overrides)
from pnp_online.errors import ConfigurationError, DivergenceError
from pnp_online.forward import prox_datafit
from pnp_online.linops import CgInfo
from pnp_online.modelio import load_model
from pnp_online.pgm import write_pgm
from conftest import read_csv


# ------------------------------------------------------------------- config

def test_defaults_validate():
    assert ExperimentConfig().validate() == ExperimentConfig()


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("grid = 16  # small\nalgorithm = pnp-ista\n"
                    "input_snr_db = inf\n")
    cfg = load_config(str(path), ["seed=9", "accelerated=true"])
    assert cfg.grid == 16
    assert cfg.algorithm == "pnp-ista"
    assert cfg.input_snr_db == float("inf")
    assert cfg.seed == 9
    assert cfg.accelerated is True


def test_load_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gird = 16\n")
    with pytest.raises(ConfigurationError):
        load_config(str(path))


def test_cli_config_key_set_twice_exits_2(tmp_path, capsys):
    # the second line used to win silently, and simulate exited 0
    path = tmp_path / "twice.cfg"
    path.write_text("grid = 16\n# a comment\nseed = 3\ngrid = 20\n")
    out = tmp_path / "model.pnpm"
    assert main(["simulate", "-c", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:4: grid is set again (first on line 1)" in err
    assert not out.exists()
    # --set still overrides a key the file sets once
    path.write_text("grid = 16\nseed = 3\n")
    assert load_config(str(path), ["grid=20", "grid=24"]).grid == 24


def test_load_config_missing_file_rejected():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/exp.cfg")


def test_cli_config_file_not_utf8_exits_2(tmp_path, capsys):
    # a 0xff byte in the file ended in a UnicodeDecodeError traceback (exit 1)
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"grid = 8\n\xff\n")
    out = tmp_path / "model.pnpm"
    assert main(["simulate", "-c", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and str(path) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_parse_overrides_rejects_bare_token():
    with pytest.raises(ConfigurationError):
        parse_overrides(["grid"])


def test_validate_rejects_unknown_algorithm():
    for key in ("algorithm", "denoiser", "sample_mode", "incident"):
        with pytest.raises(ConfigurationError, match=f"unknown {key} 'bogus'"):
            ExperimentConfig(**{key: "bogus"}).validate()


def test_validate_rejects_missing_phantom_file():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(phantom="/nope/ph.pgm").validate()


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("PNP_SEED", "123")
    cfg = load_config(None, [])
    assert cfg.seed == 123


def test_dump_config_round_trips(tmp_path):
    cfg = ExperimentConfig(grid=16, algorithm="admm", lam=1e-5)
    path = tmp_path / "d.cfg"
    path.write_text(dump_config(cfg))
    back = load_config(str(path))
    assert back == cfg


# ---------------------------------------------------------------------- CSV

def test_csv_schema_header_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "demo-v1", ["a", "b"], [[1, 2.5], [3, "x"]],
              comments=["note: one"])
    schema, columns, rows = read_csv(path)
    assert schema == "demo-v1"
    assert columns == ["a", "b"]
    assert rows == [["1", "2.5"], ["3", "x"]]
    assert path.read_text().splitlines()[-1] == "# note: one"


def test_csv_floats_round_trip_exactly(tmp_path):
    path = tmp_path / "f.csv"
    value = 0.1 + 0.2
    write_csv(path, "demo-v1", ["v"], [[value]])
    _, _, rows = read_csv(path)
    assert float(rows[0][0]) == value


# ------------------------------------------------------------ CLI plumbing

SMALL = ["--set", "grid=16", "--set", "transmitters=4",
         "--set", "receivers=12"]
TINY = ["--set", "grid=8", "--set", "transmitters=2", "--set", "receivers=4"]


def test_cli_exit_code_config_error():
    assert main(["reconstruct", "x.pnpm", "--set", "algorithm=bogus"]) == 2


def test_cli_exit_code_missing_model(tmp_path):
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(tmp_path / "missing.pnpm"),
                 "-o", out]) == 4


def test_cli_exit_code_divergence(tmp_path):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    out = str(tmp_path / "r")
    code = main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "gamma_scale=1e9", "--set", "iterations=200",
                 "--set", "denoiser=identity", "--set", "algorithm=pnp-ista"])
    assert code == 3
    # partial trace is flushed with a divergence marker
    text = open(out + ".trace.csv").read()
    assert "# diverged" in text


def test_cli_exit_code_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["counterexample", "-o", str(blocker / "sub")]) == 4


def test_cli_exit_code_out_of_memory(tmp_path, monkeypatch, capsys):
    # a grid or ring too large for the memory at hand used to end in a
    # numpy _ArrayMemoryError traceback and exit 1
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB")

    monkeypatch.setattr(cli, "build_dt_model", out_of_memory)
    model = tmp_path / "m.pnpm"
    assert main(["simulate", *SMALL, "-o", str(model)]) == 2
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 1.00 GiB\n"
    assert not model.exists()


@pytest.mark.parametrize("argv", [
    # domain_side=5e-324 gives a zero operator, so gamma_scale / L fails
    ["sweep", *TINY, "--set", "domain_side=5e-324", "--set", "iterations=2"],
    ["compare", *TINY, "--set", "domain_side=5e-324",
     "--set", "iterations=2"],
    ["counterexample", "--set", "iterations=-1"],
    ["certify", "--set", "grid=8", "--set", "sigma=0",
     "--set", "cert_pairs=1"],
    # a sweep without iterations wrote its first tv cell, then stopped
    pytest.param(["sweep", *TINY, "--set", "iterations=0"],
                 id="sweep-iterations-0"),
    # the filter cells' sigma used to be checked only once the tv cells
    # had written theirs: 0 (lam=0), or past the filter's pass bound
    pytest.param(["sweep", *TINY, "--set", "iterations=2",
                  "--set", "lam=0"], id="sweep-filter-sigma-0"),
    pytest.param(["sweep", *TINY, "--set", "iterations=2",
                  "--set", "lam=1e300"],
                 id="sweep-filter-sigma-past-bound"),
    # neither command reads the key, so simulate exited 0 and reconstruct
    # went on to the missing model file
    pytest.param(["simulate", *TINY, "--set", "sample_mode=bogus"],
                 id="simulate-sample-mode"),
    pytest.param(["reconstruct", "m.pnpm", *TINY, "--set", "incident=bogus"],
                 id="reconstruct-incident"),
    # certify had no bound on its pairs and ran until it was killed;
    # 10 792 is the first count its work bound refuses at any grid
    pytest.param(["certify", "--set", "grid=8", "--set", "cert_pairs=10792"],
                 id="certify-cert-pairs-past-bound"),
    # pairs within their bound still gave a run of about 2.5 hours, and
    # below 48^2 call overhead, not pixels, sets the time of a pass
    pytest.param(["certify", "--set", "grid=256", "--set", "sigma=1",
                  "--set", "cert_pairs=10000"],
                 id="certify-work-past-bound"),
    pytest.param(["certify", "--set", "grid=8", "--set", "sigma=10",
                  "--set", "cert_pairs=213"],
                 id="certify-small-grid-work-past-bound"),
    # the straddling pair and the 8 bounded-constant samples were left out
    # of the work, so 208 pairs (work 4.89e9 without them) were accepted
    pytest.param(["certify", "--set", "grid=8", "--set", "sigma=10",
                  "--set", "cert_pairs=208"],
                 id="certify-work-counts-straddle-and-samples")],
    ids=lambda argv: argv[0])
def test_cli_config_error_leaves_no_output_directory(tmp_path, capsys,
                                                     argv):
    # each command used to create its output directory first and leave it
    # empty when a later check exited 2
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["grid=abc", "lam=small",
                                      "wavelength=nan", "gamma=1e-3x"])
def test_cli_exit_code_malformed_number(override, capsys):
    assert main(["certify", "--set", override]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_exit_code_malformed_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("PNP_SEED", "abc")
    assert main(["reconstruct", "x.pnpm"]) == 2
    assert "PNP_SEED" in capsys.readouterr().err


LONG_SEED = "9" * 400  # an int, but too large to convert to float


def test_cli_long_integer_seed_parses(monkeypatch, capsys):
    # parsing succeeds, and the seed range check rejects it before the
    # missing model file is reached
    assert main(["reconstruct", "x.pnpm", "--set", f"seed={LONG_SEED}"]) == 2
    monkeypatch.setenv("PNP_SEED", LONG_SEED)
    assert main(["reconstruct", "x.pnpm"]) == 2
    err = capsys.readouterr().err
    assert err.count("seed must lie in [0, 9223372036854775807]") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("command,override,seed_env", [
    ("simulate", "seed=-1", None),            # ValueError in default_rng
    ("simulate", f"seed={2 ** 63}", None),    # struct.error packing int64
    ("reconstruct", None, "-5"),
    ("certify", "seed=-3", None)])
def test_cli_exit_code_seed_out_of_range(tmp_path, monkeypatch, capsys,
                                         command, override, seed_env):
    if seed_env is not None:
        monkeypatch.setenv("PNP_SEED", seed_env)
    out = tmp_path / "out"
    argv = [command, *SMALL, "-o", str(out)]
    if command == "reconstruct":
        argv.insert(1, str(tmp_path / "m.pnpm"))
    if override is not None:
        argv += ["--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed must lie in [0, 9223372036854775807]" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where,value", [("first", complex(np.inf, 0.0)),
                                         ("last", complex(0.0, np.nan))])
def test_cli_exit_code_nonfinite_model(tmp_path, where, value):
    from pnp_online.modelio import _HEADER, MAGIC
    model = tmp_path / "m.pnpm"
    assert main(["simulate", *SMALL, "-o", str(model)]) == 0
    data = bytearray(model.read_bytes())
    # the first block, S, follows the header and the I float64 lambda_i
    num_components = _HEADER.unpack_from(data, len(MAGIC))[3]
    first = len(MAGIC) + _HEADER.size + 8 * num_components
    offset = first if where == "first" else len(data) - 8
    data[offset:offset + 8] = np.complex64(value).tobytes()
    model.write_bytes(bytes(data))
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    assert not os.path.exists(out + ".trace.csv")


@pytest.fixture(scope="module")
def small_model_bytes(tmp_path_factory):
    model = tmp_path_factory.mktemp("pnpm") / "m.pnpm"
    assert main(["simulate", *SMALL, "-o", str(model)]) == 0
    return model.read_bytes()


# header fields: 0 version, 1 n, 2 M, 3 I, 4 domain_side, 5 wavelength,
# 6 eps_background, 7 ring_radius, 8 grid, 9-10 Tx/Rx, 11 incident code,
# 12 seed, 13 input SNR, 14 truth SHA-256
@pytest.mark.parametrize("field,value", [
    (3, 3),                   # fewer illuminations than blocks in the file
    (3, 2 ** 32 - 1),         # would allocate terabytes before reading
    (11, 7),                  # unknown incident code: KeyError
    (5, float("nan")),        # NaN wavelength loaded and used
    (6, -1.0),                # sqrt of a negative permittivity
    (7, float("inf"))])
def test_cli_exit_code_corrupt_model_header(small_model_bytes, tmp_path,
                                            capsys, field, value):
    from pnp_online.modelio import _HEADER, MAGIC
    fields = list(_HEADER.unpack_from(small_model_bytes, len(MAGIC)))
    fields[field] = value
    model = tmp_path / "bad.pnpm"
    model.write_bytes(MAGIC + _HEADER.pack(*fields)
                      + small_model_bytes[len(MAGIC) + _HEADER.size:])
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("code", [2, 255])
def test_cli_incident_code_past_the_names_is_one_config_error(
        small_model_bytes, tmp_path, capsys, code):
    # a code that names no incident: an index into forward.INCIDENTS must
    # not turn it into an IndexError
    from pnp_online.modelio import _HEADER, MAGIC
    fields = list(_HEADER.unpack_from(small_model_bytes, len(MAGIC)))
    fields[11] = code
    model = tmp_path / "bad.pnpm"
    model.write_bytes(MAGIC + _HEADER.pack(*fields)
                      + small_model_bytes[len(MAGIC) + _HEADER.size:])
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: incident must be ")
    assert not os.path.exists(out + ".trace.csv")


def test_cli_exit_code_model_without_illuminations(small_model_bytes,
                                                   tmp_path, capsys):
    # a file that holds S and nothing else, as its header with I = 0 implies
    # (no lambda_i either); the Lipschitz step used to fail on max() of an
    # empty sequence
    from pnp_online.modelio import _HEADER, MAGIC
    fields = list(_HEADER.unpack_from(small_model_bytes, len(MAGIC)))
    n, M = fields[1], fields[2]
    start = len(MAGIC) + _HEADER.size + 8 * fields[3]
    fields[3] = 0
    model = tmp_path / "empty.pnpm"
    model.write_bytes(MAGIC + _HEADER.pack(*fields)
                      + small_model_bytes[start:start + 8 * M * n])
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_exit_code_model_with_trailing_data(small_model_bytes, tmp_path,
                                                capsys):
    model = tmp_path / "long.pnpm"
    model.write_bytes(small_model_bytes + bytes(8))
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("override", ["eps_background=-1", "domain_side=0"])
def test_cli_simulate_rejects_nonpositive_geometry(tmp_path, capsys,
                                                   override):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "--set", override, "-o", model]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not os.path.exists(model)


TINY = ["--set", "grid=8", "--set", "transmitters=2", "--set", "receivers=4"]


@pytest.mark.parametrize("override", [
    "input_snr_db=4000",       # OverflowError in 10 ** (snr / 10)
    "input_snr_db=-4000",      # ZeroDivisionError: 10 ** (snr / 10) == 0
    "wavelength=1e-300",       # OverflowError in k_b ** 2
    "ring_radius=1e308",       # exit 0, NaN in S and lipschitz = nan
    "f_max=1e308",             # exit 0, Inf in y_i
    "f_max=0",                 # exit 0; every reconstruct then failed on
                               # the zero truth, with no key named
    "outdir=/nonexistent/zzz",     # nothing read it: an unknown key
    "transmitters=1" + "0" * 30,   # ValueError in np.arange
    "receivers=1" + "0" * 30,
    f"transmitters={TRANSMITTERS_MAX + 1}",
    f"receivers={RECEIVERS_MAX + 1}"])
def test_cli_simulate_rejects_unrepresentable_model(tmp_path, capsys,
                                                    override):
    assert main(["simulate", *TINY, "--set", override,
                 "-o", str(tmp_path / "m.pnpm")]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
def test_cli_rejects_blank_pgm_phantom_before_building(tmp_path, capsys,
                                                       command):
    # a blank PGM scales to a zero truth at any f_max; sweep and compare
    # failed on it only after building the model
    phantom = str(tmp_path / "blank.pgm")
    write_pgm(phantom, np.zeros((8, 8), dtype=np.uint16))
    out = str(tmp_path / "out")
    assert main([command, *TINY, "--set", f"phantom={phantom}",
                 "--set", "iterations=2", "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "f_max" in err and phantom in err
    assert os.listdir(tmp_path) == ["blank.pgm"]


def test_cli_reconstruct_rejects_zero_operator_without_gamma(tmp_path,
                                                              capsys):
    # S underflows to zero at this pixel size, so L = 0 and gamma_scale / L
    # raised ZeroDivisionError
    model = str(tmp_path / "m.pnpm")
    tiny = [*TINY, "--set", "domain_side=5e-324", "--set", "iterations=2"]
    assert main(["simulate", *tiny, "-o", model]) == 0
    assert load_model(model).lipschitz == 0.0
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *tiny, "-o", out]) == 2
    assert "set gamma" in capsys.readouterr().err
    assert not os.path.exists(out + ".trace.csv")
    assert main(["reconstruct", model, *tiny, "-o", out,
                 "--set", "gamma=0.5"]) == 0


def test_cli_reconstruct_rejects_underflowed_gamma(tmp_path, capsys):
    # L = 8.5e7 here, so gamma_scale / L rounds to 0; the loops read the
    # config as given and would run at gamma = 0, under "# gamma = 0.0"
    model = str(tmp_path / "m.pnpm")
    keys = [*TINY, "--set", "eps_background=1e10"]
    assert main(["simulate", *keys, "-o", model]) == 0
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *keys, "-o", out,
                 "--set", "gamma_scale=5e-324"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: gamma must be positive\n"
    assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("key", [
    # every command builds the DT model; there is no key to pick another
    "model",
    # compare's per-iteration budget is batch_size
    "budget",
    # the counter-example runs fixed values for iterations steps
    "ce_gamma", "ce_sigma", "ce_c", "ce_z0", "ce_iters",
    # certify tests alpha = 1/2 on fixed domains, seeded by seed
    "cert_alpha", "cert_domain_scale", "cert_tol", "cert_seed",
    # sweep runs the cells of cli.SWEEP_GAMMAS and cli.SWEEP_BATCHES
    "sweep_gammas", "sweep_batches"])
def test_cli_model_key_is_unknown(tmp_path, capsys, key):
    assert main(["simulate", *TINY, "--set", f"{key}=1",
                 "-o", str(tmp_path / "m.pnpm")]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_scripts_set_only_known_keys():
    """Every `--set KEY=VALUE` in scripts/*.sh parses; no test runs them."""
    scripts = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
    pairs = []
    for name in sorted(os.listdir(scripts)):
        if name.endswith(".sh"):
            with open(os.path.join(scripts, name), encoding="utf-8") as fh:
                pairs += re.findall(r"--set\s+(\S+=\S+)", fh.read())
    assert pairs
    parse_overrides(pairs)


# every key and its type; outdir was removed and must be an unknown key
FUZZ_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
FUZZ_TYPES["outdir"] = "str"
# valid values of the keys that size what simulate builds stay small
FUZZ_SIZES = {"grid": st.integers(GRID_MIN, 12),
              "transmitters": st.integers(1, 3),
              "receivers": st.integers(1, 6)}
FUZZ_WORDS = {"phantom": ["blobs", "checker", "missing.pgm"],
              "algorithm": list(ALGORITHMS), "denoiser": list(DENOISERS),
              "incident": ["point", "plane"],
              "sample_mode": ["replacement", "cycle", "full"]}
FUZZ_MALFORMED = st.sampled_from(["", "abc", "1.5.2", "0x10", "1e", "--1",
                                  "none", "true"])
FUZZ_NONFINITE = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999"])


def _fuzz_value(key):
    kind = FUZZ_TYPES[key]
    if kind.startswith("int"):
        valid = FUZZ_SIZES.get(key, st.integers(0, 2 ** 64))
        boundary = st.sampled_from([-1, 0, 1, GRID_MIN - 1, GRID_MAX + 1,
                                    BATCH_MAX, BATCH_MAX + 1, SEED_MAX,
                                    SEED_MAX + 1, 10 ** 30])
        if key in FUZZ_SIZES:       # no large valid size: it only costs
            boundary = st.sampled_from([-1, 0, GRID_MIN - 1, GRID_MAX + 1,
                                        TRANSMITTERS_MAX + 1,
                                        RECEIVERS_MAX + 1, 10 ** 30])
        drawn = st.one_of(valid, boundary).map(str)
    elif kind.startswith("float"):
        default = getattr(ExperimentConfig(), key)
        near = (st.floats(0.5, 2.0).map(lambda f: repr(default * f))
                if isinstance(default, float) else st.just("0.5"))
        drawn = st.one_of(near, st.floats(allow_nan=False,
                                          allow_infinity=False).map(repr),
                          st.sampled_from(["0", "-0.0", "5e-324", "1e-300",
                                           "1e308", "-1e308", "3000",
                                           "-3000", "3000.1"]),
                          FUZZ_NONFINITE)
    elif kind == "bool":
        drawn = st.sampled_from(["true", "false", "1", "0", "yes", "off"])
    else:
        drawn = st.one_of(st.sampled_from(FUZZ_WORDS.get(key, ["x"])),
                          st.text("abcxyz.,;:/-0123456789 ", max_size=8))
    return st.one_of(drawn, FUZZ_MALFORMED) if kind != "str" else drawn


def _meta_is_finite(path):
    """Every number is finite, but an input SNR may be inf: no noise added
    (noiseless data, or the zero-signal convention)."""
    values = dict(line.split(" = ", 1)
                  for line in open(path).read().splitlines())
    numbers = {key: float(value) for key, value in values.items()
               if key not in ("incident", "phantom")}
    return all(math.isfinite(value)
               or (key.endswith("input_snr_db") and value == math.inf)
               for key, value in numbers.items())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_simulate_config_fuzz(tmp_path_factory, data):
    """Every config key, the removed outdir too, with any kind of value."""
    pairs = data.draw(st.lists(st.sampled_from(sorted(FUZZ_TYPES)),
                               min_size=1, max_size=2, unique=True))
    overrides = [f"{key}={data.draw(_fuzz_value(key), label=key)}"
                 for key in pairs]
    work = tmp_path_factory.mktemp("config-fuzz")
    model = work / "m.pnpm"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", *TINY,
                     *[arg for o in overrides for arg in ("--set", o)],
                     "-o", str(model)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert os.listdir(work) == []
        return
    # load_model rejects NaN or Inf blocks and lambda_i
    assert np.isfinite(load_model(str(model)).lipschitz)
    assert _meta_is_finite(str(model) + ".meta.txt")


# the keys a reconstruct run reads; iterations and the sizes stay fixed
RECONSTRUCT_FUZZ_KEYS = ["algorithm", "denoiser", "sigma", "lam", "gamma",
                         "gamma_scale", "accelerated", "batch_size",
                         "sample_mode", "dist_stride"]


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    model = tmp_path_factory.mktemp("tiny") / "m.pnpm"
    assert main(["simulate", *TINY, "-o", str(model)]) == 0
    return model


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_reconstruct_config_fuzz(tiny_model, tmp_path_factory, data):
    """The solver keys through reconstruct; a filter sigma past the pass
    bound used to run for minutes, or exit 1 with an OverflowError."""
    keys = data.draw(st.lists(st.sampled_from(RECONSTRUCT_FUZZ_KEYS),
                              min_size=1, max_size=4, unique=True))
    overrides = [f"{key}={data.draw(_fuzz_value(key), label=key)}"
                 for key in keys]
    out = str(tmp_path_factory.mktemp("reconstruct-fuzz") / "r")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["reconstruct", str(tiny_model), *TINY,
                     "--set", "iterations=2", "--set", "record_timing=false",
                     *[arg for o in overrides for arg in ("--set", o)],
                     "-o", out])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("sigma", ["100", "1e200"])
def test_cli_reconstruct_rejects_filter_sigma_past_pass_bound(
        tiny_model, tmp_path, capsys, sigma):
    # sigma = 100 (10^6 passes a call) ran for minutes, and sigma = 1e200
    # exited 1 with an OverflowError traceback from round(100 sigma^2)
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(tiny_model), *TINY, "-o", out,
                 "--set", "iterations=2", "--set", "algorithm=pnp-ista",
                 "--set", "denoiser=filter", "--set", f"sigma={sigma}"]) == 2
    err = capsys.readouterr().err
    assert "at most 10000 passes" in err
    assert "Traceback" not in err
    assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("override", [
    "lam=inf", "gamma_scale=inf", "wavelength=inf", "domain_side=-inf",
    "sigma=inf", "gamma=inf", "input_snr_db=-inf"])
def test_cli_exit_code_nonfinite_config(override, capsys):
    assert main(["certify", "--set", "cert_pairs=1", "--set", override]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override", ["lam=inf", "gamma_scale=inf"])
def test_cli_reconstruct_rejects_infinite_step_or_weight(tmp_path, override):
    # before validation, lam=inf exited 0 with a meaningless trace and
    # gamma_scale=inf exited 3
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "iterations=5", "--set", override]) == 2
    assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("override,message", [
    ("gamma_scale=-1", "gamma_scale must be > 0"),
    ("gamma=-1e3", "gamma must be > 0"),
    ("lam=-1", "lam must be >= 0"),
    ("sigma=-1", "sigma must be >= 0"),
    ("dist_stride=0", "dist_stride must be >= 1"),
    ("dist_stride=-3", "dist_stride must be >= 1"),
    ("batch_size=1000000000000", f"batch_size must lie in [1, {BATCH_MAX}]"),
    (f"batch_size={BATCH_MAX + 1}",
     f"batch_size must lie in [1, {BATCH_MAX}]")])
def test_cli_reconstruct_rejects_negative_step_weight_or_stride(
        small_model_bytes, tmp_path, capsys, override, message):
    # the first three died in resolve_gamma_sigma with "math domain error"
    # and dist_stride=0 with a ZeroDivisionError (exit 1); sigma=-1 and
    # dist_stride=-3 ran and exited 0; batch_size=10**12 asked numpy for
    # 7.28 TiB (exit 1)
    model = tmp_path / "m.pnpm"
    model.write_bytes(small_model_bytes)
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out,
                 "--set", "iterations=5", "--set", override]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not os.path.exists(out + ".trace.csv")


def test_cli_sweep_rejects_negative_gamma(tmp_path, capsys):
    # a negative sweep_gammas entry used to die in resolve_gamma_sigma with
    # "math domain error" (exit 1); the sweep's scales are constants now
    out = str(tmp_path / "sw")
    assert main(["sweep", *SMALL, "-o", out, "--set", "iterations=5",
                 "--set", "gamma=-1"]) == 2
    err = capsys.readouterr().err
    assert "gamma must be > 0" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,top", [("transmitters", TRANSMITTERS_MAX),
                                     ("receivers", RECEIVERS_MAX),
                                     ("batch_size", BATCH_MAX)])
def test_validate_bounds_ring_and_batch_sizes(key, top):
    for value in (1, top):
        assert getattr(ExperimentConfig(**{key: value}).validate(),
                       key) == value
    for value in (0, top + 1, 10 ** 30):
        with pytest.raises(ConfigurationError, match=f"{key} must lie in"):
            ExperimentConfig(**{key: value}).validate()


def test_validate_accepts_grid_bounds_and_noiseless_snr():
    for grid in (GRID_MIN, GRID_MAX):
        assert ExperimentConfig(grid=grid).validate().grid == grid
    assert ExperimentConfig(input_snr_db=float("inf")).validate()


@pytest.mark.parametrize("grid", [str(GRID_MIN - 1), str(GRID_MAX + 1),
                                  "1" + "0" * 29])
def test_cli_exit_code_grid_out_of_range(grid, capsys):
    # a 30-digit grid used to reach numpy in certify and die with a
    # ValueError traceback (exit 1)
    assert main(["certify", "--set", f"grid={grid}",
                 "--set", "cert_pairs=1"]) == 2
    err = capsys.readouterr().err
    assert "grid must lie in" in err
    assert "Traceback" not in err


def test_cli_iterations_past_bound_exits_2(tmp_path, capsys):
    # 10^8 counter-example steps were killed for want of memory (exit 137)
    assert ExperimentConfig(iterations=ITERATIONS_MAX).validate()
    out = tmp_path / "ce"
    assert main(["counterexample", "--set",
                 f"iterations={ITERATIONS_MAX + 1}", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"iterations must lie in [0, {ITERATIONS_MAX}]" in err
    assert "Traceback" not in err
    assert not out.exists()


def _stalled_prox(model, gamma, x, tol, x0=None):
    """A data prox whose inner CG never converges (one CG iteration)."""
    return prox_datafit(model, gamma, x, tol=tol, max_iter=1, x0=x0)


def test_cli_reconstruct_writes_solver_warnings(tmp_path, monkeypatch):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    monkeypatch.setattr(solvers, "prox_datafit", _stalled_prox)
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "algorithm=pnp-admm", "--set", "denoiser=filter",
                 "--set", "iterations=3"]) == 0
    lines = open(out + ".trace.csv").read().splitlines()
    warnings = [line for line in lines if line.startswith("# warning: ")]
    assert [w.split(":")[1] for w in warnings] == [
        " iteration 1", " iteration 2", " iteration 3"]
    assert all("inner CG stopped at relative residual" in w
               for w in warnings)
    assert lines[-3:] == warnings        # after the rows
    _, _, rows = read_csv(out + ".trace.csv")
    assert len(rows) == 3


def test_cli_diverged_trace_keeps_solver_warnings(tmp_path, monkeypatch):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0

    def exploding_prox(model, gamma, x, tol, x0=None):
        return np.full(model.n, 1e100), CgInfo(converged=False, iterations=1,
                                               relative_residual=0.5)

    monkeypatch.setattr(solvers, "prox_datafit", exploding_prox)
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "algorithm=pnp-admm", "--set", "denoiser=identity",
                 "--set", "iterations=3"]) == 3
    lines = open(out + ".trace.csv").read().splitlines()
    assert lines[-2] == ("# warning: iteration 1: inner CG stopped at "
                         "relative residual 5.000e-01")
    assert lines[-1].startswith("# diverged: ")


@pytest.mark.parametrize("algorithm,denoiser", [
    ("ista", "tv"), ("admm", "tv"), ("pnp-ista", "tv"),
    ("pnp-ista", "filter"), ("pnp-admm", "tv"), ("pnp-admm", "filter"),
    ("pnp-sgd", "tv"), ("pnp-sgd", "filter")])
def test_cli_divergence_prints_one_stderr_line(tiny_model, tmp_path, capsys,
                                               algorithm, denoiser):
    """numpy's overflow warnings stay silent; the divergence check speaks."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["reconstruct", str(tiny_model), *TINY, "-o",
                     str(tmp_path / "r"), "--set", "gamma=1e308",
                     "--set", "sigma=1",
                     "--set", f"algorithm={algorithm}",
                     "--set", f"denoiser={denoiser}"])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical divergence: ")


def test_cli_admm_overflowing_data_prox_diverges_at_once(tiny_model, tmp_path,
                                                        capsys):
    """CG used to run all its 10 n iterations on NaN first: 10 240, 4-5 s,
    in one data prox at 32 x 32."""
    out = tmp_path / "r"
    assert main(["reconstruct", str(tiny_model), *TINY, "-o", str(out),
                 "--set", "algorithm=pnp-admm", "--set", "denoiser=identity",
                 "--set", "gamma=1e300"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical divergence: NaN or Inf in the inner CG "
                   "residual at iteration 1"]
    assert open(f"{out}.trace.csv").read().splitlines()[-1] == (
        "# diverged: NaN or Inf in the inner CG residual at iteration 1")


def test_cli_simulate_reconstruct_pipeline(tmp_path):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    assert os.path.exists(model)
    meta = open(model + ".meta.txt").read()
    assert "achieved_input_snr_db" in meta

    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "algorithm=pnp-ista", "--set", "iterations=50"]) == 0
    schema, columns, rows = read_csv(out + ".trace.csv")
    assert schema == "pnp-trace-v1"
    assert columns[:3] == ["k", "dist", "snr_db"]
    assert len(rows) == 50
    assert os.path.exists(out + ".recon.pgm")


SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _child(args):
    """Run `python args` with this package on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_cli_process_entry_alone_freezes_the_heap():
    """`python -m pnp_online.cli` and the `pnp` script freeze the GC heap
    and block OpenSSL's _hashlib; importing the module or calling main()
    leaves the GC state and the imports alone."""
    probe = (
        "import gc, sys\n"
        "def state():\n"
        "    return (gc.isenabled(), gc.get_freeze_count(),\n"
        "            '_hashlib' in sys.modules)\n"
        "before = state()\n"
        "from pnp_online import cli\n"
        "imported = state()\n"
        "sys.argv = ['pnp', 'counterexample', '--set', 'iterations=-1']\n"
        "try:\n"
        "    cli.run_process()\n"
        "except SystemExit as exit:\n"
        "    print(before == imported, before[1], before[2], exit.code,\n"
        "          gc.get_freeze_count() > 0,\n"
        "          sys.modules.get('_hashlib', 0) is None)\n")
    proc = _child(["-c", probe])
    assert proc.stdout.split() == ["True", "0", "False", "2", "True",
                                   "True"], proc.stderr
    state = (gc.isenabled(), gc.get_freeze_count(),
             sys.modules.get("_hashlib", 0))
    assert main(["counterexample", "--set", "iterations=-1"]) == 2
    assert (gc.isenabled(), gc.get_freeze_count(),
            sys.modules.get("_hashlib", 0)) == state
    with open(os.path.join(SRC, os.pardir, "pyproject.toml")) as fh:
        assert 'pnp = "pnp_online.cli:run_process"' in fh.read().splitlines()


# A `pnp` process through cli.run_process that runs sys.argv[1] first and
# prints at exit whether OpenSSL's _hashlib and hashlib were loaded.
PROCESS_PROBE = (
    "import atexit, sys\n"
    "exec(sys.argv[1])\n"
    "atexit.register(lambda: print(sys.modules.get('_hashlib') is not None,\n"
    "                              'hashlib' in sys.modules))\n"
    "from pnp_online import cli\n"
    "sys.argv = ['pnp', *sys.argv[2:]]\n"
    "cli.run_process()\n")

PROCESS_KEYS = [*SMALL, "--set", "record_timing=false",
                "--set", "iterations=20"]


def _process(prelude, argv):
    return _child(["-c", PROCESS_PROBE, prelude, *argv])


def test_cli_process_runs_without_openssl(tmp_path):
    """A `pnp` simulate and reconstruct hash the truth and draw numbers
    with _hashlib never loaded."""
    model = str(tmp_path / "m.pnpm")
    for argv in (["simulate", *PROCESS_KEYS, "-o", model],
                 ["reconstruct", model, *PROCESS_KEYS,
                  "-o", str(tmp_path / "r")]):
        proc = _process("", argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


# A child that runs cli.main on sys.argv[1:] and prints its exit code and
# whether numpy.random was imported.
RANDOM_PROBE = (
    "import sys\n"
    "from pnp_online import cli\n"
    "print(cli.main(sys.argv[1:]), 'numpy.random' in sys.modules)\n")


@pytest.mark.parametrize("argv, draws", [
    (["simulate", "--set", "input_snr_db=inf"], False),
    (["simulate"], True),
    (["reconstruct", "MODEL", "--set", "sample_mode=full"], False),
    (["reconstruct", "MODEL", "--set", "algorithm=pnp-admm"], False),
    (["reconstruct", "MODEL"], True)])
def test_cli_run_that_draws_nothing_imports_no_generator(tmp_path, argv,
                                                         draws):
    """Only a run that draws numbers makes a generator and so imports
    numpy.random: a noiseless simulate of a phantom without a seed, a
    full-gradient and an ADMM reconstruct do not."""
    keys = [*TINY, "--set", "phantom=checker", "--set", "iterations=3"]
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *keys, "-o", model]) == 0
    argv = [model if arg == "MODEL" else arg for arg in argv]
    proc = _child(["-c", RANDOM_PROBE, *argv, *keys,
                   "-o", str(tmp_path / "out")])
    assert proc.stdout.split() == ["0", str(draws)], proc.stderr


def test_cli_process_keeps_openssl_without_builtin_sha256(tmp_path):
    """Where CPython has no builtin SHA-256 module, the `pnp` process
    leaves _hashlib importable, which then serves the same digest; blocked,
    hashlib would have no sha256 and the run would end in a traceback."""
    models = {}
    for name, prelude in (
            ("normal", ""),
            ("no_builtin", "sys.modules['_sha256'] = None\n"
                           "sys.modules['_sha2'] = None")):
        models[name] = tmp_path / f"{name}.pnpm"
        proc = _process(prelude, ["simulate", *PROCESS_KEYS,
                                  "-o", str(models[name])])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(name == "no_builtin"), "True"]
    assert models["no_builtin"].read_bytes() == models["normal"].read_bytes()


def test_cli_child_process_writes_what_main_writes(tmp_path, capsys):
    """A `python -m pnp_online.cli` child writes the bytes an in-process
    main() writes, and exits as it does."""
    keys = [*SMALL, "--set", "record_timing=false", "--set", "iterations=20"]
    runs = {}
    for where in ("main", "child"):
        out = tmp_path / where
        out.mkdir()
        argvs = [["simulate", *keys, "-o", str(out / "m.pnpm")],
                 ["reconstruct", str(out / "m.pnpm"), *keys,
                  "-o", str(out / "r")],
                 ["simulate", *keys, "--set", "iterations=-1",
                  "-o", str(out / "bad.pnpm")]]
        if where == "main":
            codes = [main(argv) for argv in argvs]
            err = capsys.readouterr().err
        else:
            procs = [_child(["-m", "pnp_online.cli", *argv])
                     for argv in argvs]
            codes = [proc.returncode for proc in procs]
            err = "".join(proc.stderr for proc in procs)
        runs[where] = codes, err, {
            name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert runs["main"][0] == [0, 0, 2]
    assert sorted(runs["main"][2]) == ["m.pnpm", "m.pnpm.meta.txt",
                                       "r.recon.pgm", "r.recon.pgm.meta.txt",
                                       "r.trace.csv"]
    assert runs["child"] == runs["main"]


def test_cli_reconstruct_records_lipschitz_gamma_sigma(tmp_path):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "iterations=3", "--set", "gamma_scale=0.5",
                 "--set", "lam=2e-9"]) == 0
    lipschitz = load_model(model).lipschitz
    gamma = 0.5 / lipschitz
    lines = open(out + ".trace.csv").read().splitlines()
    assert lines[-3:] == [f"# lipschitz = {lipschitz!r}",
                          f"# gamma = {gamma!r}",
                          f"# sigma = {math.sqrt(gamma * 2e-9)!r}"]
    _, _, rows = read_csv(out + ".trace.csv")
    assert len(rows) == 3


def test_cli_commands_run_no_power_iteration(tmp_path, monkeypatch):
    def power_iteration(*args, **kwargs):
        raise AssertionError("power iteration called")

    for module in (linops, forward, modelio, cli):
        monkeypatch.setattr(module, "power_iteration_lipschitz",
                            power_iteration)
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    assert main(["reconstruct", model, *SMALL, "-o", str(tmp_path / "r"),
                 "--set", "iterations=3"]) == 0
    assert main(["compare", *SMALL, "-o", str(tmp_path / "cmp"),
                 "--set", "iterations=3", "--set", "batch_size=2"]) == 0


def test_cli_reconstruct_of_pnpm2_does_no_eigen_work(tmp_path, monkeypatch):
    bindings = (linops, forward)
    original = linops.lambda_max_bound
    shapes = []

    def counting(columns, shape):
        shapes.append(shape)
        return original(columns, shape)

    for module in bindings:
        monkeypatch.setattr(module, "lambda_max_bound", counting)
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    assert shapes == [(12, 256)] * 4       # once per component, I = 4

    def refuse(*args, **kwargs):
        raise AssertionError("lambda_max_bound called")

    for module in bindings:
        monkeypatch.setattr(module, "lambda_max_bound", refuse)
    assert main(["reconstruct", model, *SMALL, "-o", str(tmp_path / "r"),
                 "--set", "iterations=3"]) == 0


def test_cli_meta_lipschitz_is_the_reconstruct_lipschitz(tmp_path):
    # simulate used to report L of its complex128 arrays, and reconstruct
    # L of the complex64-rounded ones it loads
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *SMALL, "-o", out,
                 "--set", "iterations=1"]) == 0
    meta = [line for line in open(model + ".meta.txt").read().splitlines()
            if line.startswith("lipschitz = ")]
    trace = [line[2:] for line in open(out + ".trace.csv").read().splitlines()
             if line.startswith("# lipschitz = ")]
    assert len(meta) == 1
    assert meta == trace


def test_cli_simulate_meta_starts_with_the_geometry_keys(tmp_path):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *TINY, "--set", "incident=plane",
                 "-o", model]) == 0
    lines = open(model + ".meta.txt").read().splitlines()
    assert lines[:9] == ["grid = 8", "domain_side = 0.18",
                         "wavelength = 0.0084", "eps_background = 1.0",
                         "transmitters = 2", "receivers = 4",
                         "ring_radius = 1.6", "incident = plane",
                         "phantom = blobs"]


def test_geometry_keys_are_the_config_geometry():
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert cli.GEOMETRY_KEYS == keys[:8]
    assert cli.geometry_from_config(load_config()) == forward.DtGeometry()


def test_cli_sweep_cell_equals_simulate_then_reconstruct(tmp_path):
    # sweep solved on the complex128 arrays it built, and reconstruct on the
    # complex64-rounded ones simulate wrote: the traces differed from row 1
    run = [*SMALL, "--set", "iterations=8", "--set", "record_timing=false"]
    assert main(["sweep", *run, "-o", str(tmp_path / "sw")]) == 0
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *run, "-o", model]) == 0
    out = str(tmp_path / "r")
    assert main(["reconstruct", model, *run, "-o", out,
                 "--set", "algorithm=pnp-sgd", "--set", "denoiser=tv",
                 "--set", "batch_size=4", "--set", "gamma_scale=1",
                 "--set", "accelerated=false"]) == 0
    _, columns, cell = read_csv(tmp_path / "sw" / "tv_gamma_1_B4_basic.csv")
    assert (columns, cell) == read_csv(out + ".trace.csv")[1:]
    assert len(cell) == 8


def test_cli_reconstruct_of_pnpm1_is_config_error(small_model_bytes, tmp_path,
                                                  capsys):
    # PNPM1 files loaded, with their lambda_i recomputed and the truth
    # unchecked; the magic alone now marks a file that no longer loads
    model = tmp_path / "m1.pnpm"
    model.write_bytes(b"PNPM1" + small_model_bytes[5:])
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    err = capsys.readouterr().err
    assert "config error: bad magic b'PNPM1'" in err
    assert "Traceback" not in err
    assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0, 1e3, 1e-3])
def test_cli_exit_code_bad_stored_lambda(small_model_bytes, tmp_path, capsys,
                                         scale):
    # lambda_max lies in [tr(G)/p, tr(G)], and p = 12 here, so a factor of
    # 1e3 either way leaves that window
    from pnp_online.modelio import _HEADER, MAGIC
    data = bytearray(small_model_bytes)
    num_components = _HEADER.unpack_from(data, len(MAGIC))[3]
    last = len(MAGIC) + _HEADER.size + 8 * (num_components - 1)
    stored = np.frombuffer(bytes(data[last:last + 8]), dtype="<f8")[0]
    data[last:last + 8] = np.array([stored * scale], dtype="<f8").tobytes()
    model = tmp_path / "bad.pnpm"
    model.write_bytes(bytes(data))
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out]) == 2
    err = capsys.readouterr().err
    assert "lambda_" in err
    assert "Traceback" not in err
    assert not os.path.exists(out + ".trace.csv")


@pytest.mark.parametrize("override", ["phantom=checker", "seed=1",
                                      "f_max=0.06"])
def test_cli_reconstruct_rejects_another_truth(small_model_bytes, tmp_path,
                                               capsys, override):
    # a 16x16 blobs model reconstructed with phantom=checker used to exit 0
    # and report SNR against the checker image
    model = tmp_path / "m.pnpm"
    model.write_bytes(small_model_bytes)
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out,
                 "--set", "iterations=3", "--set", override]) == 2
    err = capsys.readouterr().err
    assert "simulated from another truth image" in err
    assert "Traceback" not in err
    assert not os.path.exists(out + ".trace.csv")


def test_cli_reconstruct_rejects_another_geometry(small_model_bytes, tmp_path,
                                                  capsys):
    # a model reconstructed with another wavelength and transmitter count
    # used to exit 0 and solve on the stored geometry
    model = tmp_path / "m.pnpm"
    model.write_bytes(small_model_bytes)
    out = str(tmp_path / "r")
    assert main(["reconstruct", str(model), *SMALL, "-o", out,
                 "--set", "iterations=3", "--set", "wavelength=0.02",
                 "--set", "transmitters=3"]) == 2
    err = capsys.readouterr().err
    assert "simulated with another geometry" in err
    assert "wavelength = 0.02 here, 0.0084 in the model" in err
    assert "transmitters = 3 here, 4 in the model" in err
    assert "receivers" not in err
    assert "Traceback" not in err
    assert not os.path.exists(out + ".trace.csv")


def _finite_cells(cells):
    return all(math.isfinite(float(cell)) for cell in cells if cell != "")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_reconstruct_survives_corrupt_pnpm2(small_model_bytes,
                                                tmp_path_factory, data):
    from pnp_online.modelio import _HEADER, MAGIC
    blob = bytearray(small_model_bytes)
    # the header, the lambda_i and the start of S, where one flipped byte
    # reaches the most checks, or anywhere in the file
    head = len(MAGIC) + _HEADER.size + 8 * 4 + 64
    where = data.draw(st.one_of(st.integers(0, head - 1),
                                st.integers(0, len(blob) - 1)))
    if data.draw(st.booleans()):
        blob[where] ^= data.draw(st.integers(1, 255))
    else:
        del blob[where:]
    work = tmp_path_factory.mktemp("fuzz")
    model = work / "m.pnpm"
    model.write_bytes(bytes(blob))
    out = str(work / "r")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["reconstruct", str(model), *SMALL, "-o", out,
                     "--set", "iterations=3", "--set", "record_timing=false"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        return
    lines = open(out + ".trace.csv").read().splitlines()
    _, _, rows = read_csv(out + ".trace.csv")
    assert all(_finite_cells(row[1:4]) for row in rows)
    step = [line.split(" = ")[1] for line in lines
            if line.split(" = ")[0] in ("# lipschitz", "# gamma", "# sigma")]
    assert len(step) == 3 and _finite_cells(step)
    window = open(out + ".recon.pgm.meta.txt").read().splitlines()
    assert _finite_cells(line.split(" = ")[1] for line in window)


def test_cli_reconstruct_sgd_full_batch_matches_ista(tmp_path):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    a = str(tmp_path / "ista")
    b = str(tmp_path / "sgd")
    common = [*SMALL, "--set", "iterations=40"]
    assert main(["reconstruct", model, *common, "-o", a,
                 "--set", "algorithm=pnp-ista"]) == 0
    assert main(["reconstruct", model, *common, "-o", b,
                 "--set", "algorithm=pnp-sgd",
                 "--set", "sample_mode=full"]) == 0

    def strip_elapsed(path):
        schema, columns, rows = read_csv(path)
        drop = columns.index("elapsed_s")
        return [[v for i, v in enumerate(r) if i != drop] for r in rows]

    assert strip_elapsed(a + ".trace.csv") == strip_elapsed(b + ".trace.csv")


def test_cli_deterministic_reruns(tmp_path):
    model = str(tmp_path / "m.pnpm")
    assert main(["simulate", *SMALL, "-o", model]) == 0
    outs = []
    for tag in ("one", "two"):
        out = str(tmp_path / tag)
        assert main(["reconstruct", model, *SMALL, "-o", out,
                     "--set", "algorithm=pnp-sgd", "--set", "iterations=30",
                     "--set", "record_timing=false"]) == 0
        outs.append(open(out + ".trace.csv").read())
    assert outs[0] == outs[1]


def test_cli_counterexample_dist_strictly_increasing(tmp_path):
    out = str(tmp_path / "ce")
    assert main(["counterexample", "-o", out,
                 "--set", "iterations=500"]) == 0
    schema, columns, rows = read_csv(os.path.join(out, "counterexample.csv"))
    assert schema == "pnp-counterexample-v1"
    assert len(rows) == 501                  # z^0, ..., z^iterations
    dist = [float(r[columns.index("dist")]) for r in rows]
    assert all(b > a for a, b in zip(dist[1:], dist[2:]))  # past the origin
    assert os.path.exists(os.path.join(out, "counterexample.svg"))


def test_cli_certify_outputs(tmp_path):
    out = str(tmp_path / "cert")
    assert main(["certify", "-o", out, "--set", "cert_pairs=20",
                 "--set", "grid=8"]) == 0
    schema, columns, rows = read_csv(os.path.join(out, "certificates.csv"))
    assert schema == "pnp-certify-v1"
    by_name = {r[0]: r for r in rows}
    assert by_name["tv"][columns.index("passed")] == "True"
    assert by_name["filter"][columns.index("passed")] == "True"
    assert by_name["shift"][columns.index("passed")] == "False"


def test_cli_certify_follows_the_master_seed(tmp_path, monkeypatch):
    # certify drew from its own cert_seed, so PNP_SEED changed nothing
    def certify(tag):
        out = tmp_path / tag
        assert main(["certify", "-o", str(out), "--set", "cert_pairs=2",
                     "--set", "grid=8"]) == 0
        return (out / "certificates.csv").read_bytes()

    first = certify("zero")
    assert certify("again") == first
    monkeypatch.setenv("PNP_SEED", "7")
    assert certify("seven") != first


@pytest.mark.parametrize("override", ["lam=0", "sigma=0"])
def test_cli_certify_zero_sigma_is_config_error(tmp_path, capsys, override):
    # sigma = 0, given or as sqrt(lam) with lam = 0, must stop with exit 2
    # before estimate_bounded_constant divides by sigma^2
    out = tmp_path / "cert"
    assert main(["certify", "-o", str(out), "--set", "cert_pairs=2",
                 "--set", "grid=8", "--set", override]) == 2
    err = capsys.readouterr().err
    assert "config error: sigma must be positive" in err
    assert "Traceback" not in err
    assert not (out / "certificates.csv").exists()


@pytest.mark.parametrize("pairs,message", [
    ("0", "cert_pairs must be >= 1"),
    # the work bound, not a pair bound, refuses it; the work is an int
    # past a float's range, so the message does not format it
    ("9" * 400, "at this grid and sigma, cert_pairs must be <= 10791")])
def test_cli_certify_rejects_pair_count(tmp_path, capsys, pairs, message):
    out = tmp_path / "out"
    assert main(["certify", "-o", str(out), "--set", "grid=8",
                 "--set", f"cert_pairs={pairs}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_cli_certify_work_counts_the_tv_prox_default_cap(tmp_path, capsys):
    import inspect
    cap = inspect.signature(denoisers.tv_prox).parameters["inner_iters"]
    assert cap.default == denoisers.TV_INNER_ITERS == 200
    assert main(["certify", "-o", str(tmp_path / "out"), "--set", "grid=8",
                 "--set", "cert_pairs=100000"]) == 2
    assert ("x (filter passes + 200), is past 5e+09"
            in capsys.readouterr().err)


def test_cli_sweep_small(tmp_path):
    out = str(tmp_path / "sw")
    assert main(["sweep", *SMALL, "-o", out,
                 "--set", "iterations=30"]) == 0
    schema, columns, rows = read_csv(os.path.join(out, "summary.csv"))
    assert schema == "pnp-sweep-v1"
    assert {r[0] for r in rows} == {"tv", "filter"}
    svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
    assert svgs


def test_cli_sweep_deterministic_reruns(tmp_path):
    def sweep(tag):
        out = tmp_path / tag
        assert main(["sweep", *TINY, "-o", str(out), "--set", "iterations=4",
                     "--set", "record_timing=false"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    first = sweep("one")
    assert "summary.csv" in first and len(first) == 49  # 24 runs x CSV+SVG
    assert sweep("two") == first


def test_cli_sweep_records_failed_cells(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergenceError("iterate norm exceeded safety bound")

    monkeypatch.setattr(cli, "run_algorithm", diverge)
    out = str(tmp_path / "sw")
    assert main(["sweep", *SMALL, "-o", out]) == 0
    lines = open(os.path.join(out, "summary.csv")).read().splitlines()
    failed = [line for line in lines if line.startswith("#")][1:]
    assert len(failed) == 24  # 2 denoisers x 6 cells x basic/accelerated
    assert failed[0] == ("# failed: tv_gamma_1_B4_basic: iterate norm "
                         "exceeded safety bound")
    assert lines[-24:] == failed


def test_cli_compare_small(tmp_path):
    out = str(tmp_path / "cmp")
    assert main(["compare", *SMALL, "-o", out, "--set", "iterations=30",
                 "--set", "batch_size=2"]) == 0
    schema, columns, rows = read_csv(os.path.join(out, "compare.csv"))
    assert schema == "pnp-compare-v1"
    assert len(rows) == 30
    assert os.path.exists(os.path.join(out, "compare_iterations.svg"))
    assert os.path.exists(os.path.join(out, "compare_wallclock.svg"))


def test_cli_compare_computes_dist_at_the_last_iteration_only(tmp_path,
                                                             monkeypatch):
    # compare.csv holds no dist, so its three runs each compute it once
    calls = []
    original = metrics.dist_to_fix

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(metrics, "dist_to_fix", counting)
    assert main(["compare", *TINY, "-o", str(tmp_path / "cmp"),
                 "--set", "iterations=5", "--set", "batch_size=2"]) == 0
    assert len(calls) == 3


def test_cli_compare_writes_solver_warnings(tmp_path, monkeypatch):
    monkeypatch.setattr(solvers, "prox_datafit", _stalled_prox)
    out = str(tmp_path / "cmp")
    assert main(["compare", *SMALL, "-o", out, "--set", "iterations=2",
                 "--set", "batch_size=2"]) == 0
    csv_path = os.path.join(out, "compare.csv")
    lines = open(csv_path).read().splitlines()
    warnings = [line for line in lines if line.startswith("# warning: ")]
    assert [w.split(":")[1:3] for w in warnings] == [
        [" pnp-admm", " iteration 1"], [" pnp-admm", " iteration 2"]]
    assert all("inner CG stopped at relative residual" in w
               for w in warnings)
    assert lines[-2:] == warnings        # after the rows
    _, _, rows = read_csv(csv_path)
    assert len(rows) == 2
