"""Phantoms, PGM codec, PNPM2 containers, and SVG plot determinism."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_online import bessel
from pnp_online.config import ExperimentConfig
from pnp_online.errors import ConfigurationError
from pnp_online.forward import (DtGeometry, MeasurementModel,
                                build_dt_model, factored_lambdas,
                                truth_sha256)
from pnp_online.modelio import load_model, save_model
from pnp_online.pgm import (PgmParseError, image_to_pgm16, read_pgm,
                            write_pgm)
from pnp_online.phantoms import (phantom_blobs, phantom_checker,
                                 phantom_from_pgm, phantom_generate)
from pnp_online.svgplot import line_plot
from conftest import make_truth, whole_array_save_model


# ----------------------------------------------------------------- phantoms

def test_checker_half_pixels_at_one():
    p = phantom_checker(8, block=4)
    assert p.shape == (8, 8)
    assert int(np.sum(p == 1.0)) == 32
    assert int(np.sum(p == 0.0)) == 32


def test_blobs_deterministic():
    assert np.array_equal(phantom_blobs(16, seed=5), phantom_blobs(16, seed=5))


def test_blobs_in_unit_range():
    p = phantom_blobs(24, seed=0)
    assert p.min() >= 0.0 and p.max() <= 1.0


def test_generate_rejects_tiny_grid():
    with pytest.raises(ConfigurationError):
        phantom_generate("blobs", 4)


def test_generate_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        phantom_generate("mandelbrot", 16)


# ---------------------------------------------------------------- PGM codec

def test_pgm_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 65536, size=(9, 7)).astype(np.uint16)
    path = tmp_path / "x.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.dtype == np.uint16 or back.max() <= 65535
    assert np.array_equal(back, pixels)


def test_pgm_round_trip_8bit(tmp_path):
    pixels = np.arange(12, dtype=np.uint16).reshape(3, 4) * 20
    path = tmp_path / "x8.pgm"
    write_pgm(path, pixels, maxval=255)
    assert np.array_equal(read_pgm(path), pixels)


def test_pgm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = bytes([0, 1, 0, 2, 0, 3, 0, 4])
    path.write_bytes(b"P5 # magic\n# a comment line\n2 2\n# another\n65535\n"
                     + body)
    assert np.array_equal(read_pgm(path), np.array([[1, 2], [3, 4]]))


def test_pgm_reader_error_carries_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(PgmParseError) as excinfo:
        read_pgm(path)
    assert excinfo.value.offset is not None


def test_pgm_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n65535\n" + bytes(5))
    with pytest.raises(PgmParseError):
        read_pgm(path)


def test_image_to_pgm16_window():
    pixels = np.array([[-1.0, 0.0], [1.0, 3.0]])
    data, lo, hi = image_to_pgm16(pixels)
    assert (lo, hi) == (-1.0, 3.0)
    assert data.dtype == np.uint16
    assert data[0, 0] == 0 and data[1, 1] == 65535


def test_phantom_from_pgm_round_trip(tmp_path):
    p = phantom_checker(8)
    data = (p * 65535).astype(np.uint16)
    path = tmp_path / "ph.pgm"
    write_pgm(path, data)
    back = phantom_from_pgm(path)
    assert np.array_equal(back, p)


def test_phantom_from_pgm_resample(tmp_path):
    p = phantom_checker(8)
    path = tmp_path / "ph.pgm"
    write_pgm(path, (p * 65535).astype(np.uint16))
    small = phantom_from_pgm(path, grid=4)
    assert small.shape == (4, 4)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_pgm_round_trip_property(tmp_path_factory, h, w, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
    path = tmp_path_factory.mktemp("pgm") / "p.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_pgm(path), pixels)


# -------------------------------------------------------------------- PNPM2

@pytest.fixture(scope="module")
def dt_model_32():
    geometry = DtGeometry(grid=32, transmitters=8, receivers=24)
    truth = make_truth(32, seed=0)
    return build_dt_model(geometry, truth, seed=0, input_snr_db=40.0)


def test_pnpm2_round_trip_bit_identical(dt_model_32, tmp_path):
    path = tmp_path / "m.pnpm"
    save_model(path, dt_model_32)
    back = load_model(path)
    assert back.num_components == dt_model_32.num_components
    for name in ("measurements", "incident", "scattering"):
        assert np.array_equal(
            getattr(dt_model_32, name).astype(np.complex64),
            getattr(back, name))
    # saving the loaded model reproduces the file byte-for-byte
    path2 = tmp_path / "m2.pnpm"
    save_model(path2, back)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("incident", ["point", "plane"])
def test_pnpm2_write_matches_whole_array_oracle(incident, tmp_path):
    # 40^2 pixels make blocks of 5 rows of S: 23 receivers do not fill the
    # last one
    geometry = DtGeometry(grid=40, transmitters=7, receivers=23,
                          incident=incident)
    assert 23 % (bessel.ARRAY_BLOCK // 40 ** 2) != 0
    model = build_dt_model(geometry, make_truth(40, seed=3), seed=4)
    save_model(tmp_path / "m.pnpm", model)
    oracle = whole_array_save_model(tmp_path / "o.pnpm", model)
    assert model.lambdas.tobytes() == oracle.tobytes()
    assert ((tmp_path / "m.pnpm").read_bytes()
            == (tmp_path / "o.pnpm").read_bytes())
    back = load_model(tmp_path / "m.pnpm")
    assert (factored_lambdas(back.scattering, back.incident).tobytes()
            == model.lambdas.tobytes())


def test_simulate_peak_memory_is_about_its_model(tmp_path):
    # Both peaks count the model's own S and U. The bound leaves room for
    # one U-sized product besides (the model's back projection, 0.25 of
    # S + U with three receivers per transmitter) and block-sized
    # temporaries; whole-array ones (distances, Green values, a scaled S,
    # complex64 copies of S and U) exceed it.
    geometry = DtGeometry(grid=64, transmitters=32, receivers=96)
    truth = make_truth(64, seed=0)
    path = tmp_path / "m.pnpm"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = build_dt_model(geometry, truth, seed=0)
        build_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        save_model(path, model)
        save_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    model_bytes = model.scattering.nbytes + model.incident.nbytes
    assert build_peak <= 1.5 * model_bytes
    assert save_peak <= 1.5 * model_bytes


def test_load_peak_memory_is_about_its_model(tmp_path):
    # With few transmitters S is most of the model and the back projection
    # is small, so the peak is the loader's own. Reading S whole, as bytes
    # before widening, peaks at 1.44 times S + U; reading it in row
    # blocks, at about 1.07.
    geometry = DtGeometry(grid=64, transmitters=4, receivers=96)
    path = tmp_path / "m.pnpm"
    save_model(path, build_dt_model(geometry, make_truth(64, seed=0), seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = load_model(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (model.scattering.nbytes + model.incident.nbytes)


def test_pnpm2_stores_lambdas_of_the_rounded_operator(dt_model_32, tmp_path):
    path = tmp_path / "m.pnpm"
    save_model(path, dt_model_32)
    stored = dt_model_32.lambdas
    back = load_model(path)
    assert back.lambdas.tolist() == stored.tolist()
    assert back.lipschitz == stored.max()
    assert back.truth_sha256 == truth_sha256(make_truth(32, seed=0))


@pytest.mark.parametrize("grid, f_max, digest", [
    (8, 0.05,
     "3a7d7654d10a5a4c22f41c579dcd0249cba56be2317ff7ce4bace97f983eb3b4"),
    (32, ExperimentConfig().f_max,
     "adecd88d789701584febf6d2b392fb161875879bebe1cdf119669fb134436506")],
    ids=["checker-8", "checker-32"])
def test_truth_fingerprint_is_pinned(grid, f_max, digest):
    # the fingerprint PNPM2 files store: a change to the bytes it hashes
    # would orphan every model file simulated before it
    truth = phantom_generate("checker", grid) * f_max
    assert truth_sha256(truth).hex() == digest


def test_pnpm2_save_refuses_arrays_not_exact_in_complex64(tmp_path):
    # save_model rounded them on write, so the stored lambda_i were those of
    # an operator no model held
    model = MeasurementModel(
        measurements=np.full((1, 4), 0.1 + 0j),
        scattering=np.eye(4, dtype=complex), incident=np.ones((1, 4), complex),
        geometry=DtGeometry(grid=2), seed=0, input_snr_db=math.inf,
        truth_sha256=bytes(32))
    path = tmp_path / "m.pnpm"
    with pytest.raises(ConfigurationError, match="not finite complex64"):
        save_model(path, model)
    assert not path.exists()


def test_pnpm2_same_seed_byte_identical(tmp_path):
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    truth = make_truth(8, seed=1)
    a = tmp_path / "a.pnpm"
    b = tmp_path / "b.pnpm"
    save_model(a, build_dt_model(geometry, truth, seed=7, input_snr_db=40.0))
    save_model(b, build_dt_model(geometry, truth, seed=7, input_snr_db=40.0))
    assert a.read_bytes() == b.read_bytes()


def test_pnpm2_preserves_achieved_snr(dt_model_32, tmp_path):
    path = tmp_path / "m.pnpm"
    save_model(path, dt_model_32)
    back = load_model(path)
    signal = noise = 0.0
    truth = make_truth(32, seed=0)
    for u, y in zip(back.incident, back.measurements):
        clean = back.scattering @ (u * truth.ravel())
        signal += float(np.sum(np.abs(clean) ** 2))
        noise += float(np.sum(np.abs(y - clean) ** 2))
    achieved = 10.0 * math.log10(signal / noise)
    # complex64 quantization perturbs the stored vectors slightly
    assert achieved == pytest.approx(40.0, abs=0.01)


def test_pnpm2_rejects_bad_magic(dt_model_32, tmp_path):
    path = tmp_path / "m.pnpm"
    save_model(path, dt_model_32)
    # a PNPM2 file under the retired PNPM1 magic loads no more than junk
    for data in (b"NOTPNPM" + bytes(64), b"PNPM1" + path.read_bytes()[5:]):
        path.write_bytes(data)
        with pytest.raises(ConfigurationError, match="bad magic"):
            load_model(path)


def test_pnpm2_rejects_truncated(dt_model_32, tmp_path):
    path = tmp_path / "full.pnpm"
    save_model(path, dt_model_32)
    data = path.read_bytes()
    trunc = tmp_path / "trunc.pnpm"
    trunc.write_bytes(data[: len(data) // 2])
    with pytest.raises(ConfigurationError):
        load_model(trunc)


# ---------------------------------------------------------------------- SVG

def test_svg_deterministic(tmp_path):
    xs = list(range(1, 30))
    ys = [1.0 / k for k in xs]
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    line_plot(a, [("run", xs, ys)], title="t", xlabel="x", ylabel="y")
    line_plot(b, [("run", xs, ys)], title="t", xlabel="x", ylabel="y")
    assert a.read_bytes() == b.read_bytes()


def test_svg_drops_nonfinite_points(tmp_path):
    path = tmp_path / "n.svg"
    line_plot(path, [("run", [1, 2, 3], [1.0, float("nan"), 0.5])])
    text = path.read_text()
    import re
    for points in re.findall(r'points="([^"]*)"', text):
        assert "nan" not in points.lower()
    assert "<svg" in text and "</svg>" in text


def test_svg_log_scale_skips_nonpositive(tmp_path):
    path = tmp_path / "l.svg"
    line_plot(path, [("run", [1, 2, 3], [1.0, 0.0, 0.5])], log_y=True)
    assert "<polyline" in path.read_text()
