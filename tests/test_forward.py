"""Forward model: Green function, DT builder, gradients, prox; the
stacked-matrix Gaussian oracle of tests/conftest.py alongside."""

import math

import numpy as np
import pytest

from pnp_online.bessel import hankel1_0
from pnp_online.errors import ConfigurationError
from pnp_online import bessel
from pnp_online import forward
from pnp_online.forward import (DtGeometry, MeasurementModel, build_dt_model,
                                generating_maps, grad_full, grad_minibatch,
                                gradient_from_indices, green_function_2d,
                                prox_datafit, symmetry_maps)
from pnp_online.linops import lambda_max_bound
from conftest import (StackedModel, datafit_value, direct_dt_arrays,
                      gaussian_model, make_truth, stacked_model,
                      whole_array_dt_arrays, whole_array_dt_model)


def dense_matrices(model):
    """Every H_i as a dense (M, n) matrix, stacked: S diag(u_i) or H_i."""
    if isinstance(model, StackedModel):
        return model.matrices
    return np.array([model.scattering * u for u in model.incident])


# ---------------------------------------------------------------- geometry

def test_geometry_defaults_match_scaled_protocol():
    g = DtGeometry()
    assert g.domain_side == 0.18
    assert g.wavelength == 0.0084
    assert g.eps_background == 1.0
    assert g.ring_radius == 1.6


def test_geometry_rejects_ring_inside_domain():
    with pytest.raises(ConfigurationError):
        DtGeometry(ring_radius=0.05)


def test_geometry_rejects_unknown_incident():
    with pytest.raises(ConfigurationError):
        DtGeometry(incident="spherical")


@pytest.mark.parametrize("override", [{"wavelength": 1e-300},
                                      {"eps_background": 1e308}])
def test_geometry_rejects_wavenumber_whose_square_overflows(override):
    # build_dt_model's k_b ** 2 raised OverflowError
    with pytest.raises(ConfigurationError, match="overflows"):
        DtGeometry(**override)


# ----------------------------------------------------------- Green function

def test_green_function_at_unit_argument():
    # g = (i/4) H0^(1)(k_b r) with k_b r = 1
    g = green_function_2d(1.0, 1.0)
    expected = 0.25j * hankel1_0(1.0)
    assert g == pytest.approx(expected, abs=1e-12)
    assert g.real == pytest.approx(-0.25 * 0.0882569642, abs=1e-9)
    assert g.imag == pytest.approx(0.25 * 0.7651976866, abs=1e-9)


def test_green_function_large_argument_decay():
    for kr in (60.0, 150.0):
        g = green_function_2d(kr, 1.0)
        expected = 0.25 * math.sqrt(2.0 / (math.pi * kr))
        assert abs(g) == pytest.approx(expected, rel=0.01)


def test_green_function_deterministic():
    assert green_function_2d(2.0, 0.37) == green_function_2d(2.0, 0.37)


def test_green_function_rejects_zero_distance():
    with pytest.raises(ConfigurationError):
        green_function_2d(1.0, 0.0)


@pytest.mark.parametrize("k_b, r", [
    (1.0, -0.5), (1.0, math.nan), (1.0, [0.5, math.nan]),
    (0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5),
    (-1.0, -0.5),           # k_b r > 0, so the kernel alone would pass it
    (math.inf, 1.0), (1.0, [math.inf]),     # returned NaN, with a warning
])
def test_green_function_rejects_nonpositive_or_nan(k_b, r):
    with pytest.raises(ConfigurationError):
        green_function_2d(k_b, r)


def test_green_function_accepts_huge_finite_distance():
    # underflow in the asymptotic terms is expected and harmless
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert np.all(np.isfinite(green_function_2d(1.0, [1e300])))


# ----------------------------------------------------------------- DT model

def test_dt_zero_truth_yields_zero_measurements():
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    truth = np.zeros((8, 8))
    model = build_dt_model(geometry, truth, seed=0, input_snr_db=40.0)
    assert np.all(model.measurements == 0)


@pytest.mark.parametrize("truth", [
    np.zeros((8, 7)), np.zeros((3, 4)), np.zeros(64),
    np.where(np.eye(8) > 0, np.nan, 0.0), np.full((8, 8), np.inf)],
    ids=["8x7", "3x4", "flat", "nan", "inf"])
def test_dt_build_rejects_truth_off_the_grid_or_not_finite(truth):
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    with pytest.raises(ConfigurationError, match="grid|finite"):
        build_dt_model(geometry, truth)


def test_dt_noiseless_deterministic():
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    truth = make_truth(8, seed=2)
    a = build_dt_model(geometry, truth, seed=5, input_snr_db=math.inf)
    b = build_dt_model(geometry, truth, seed=5, input_snr_db=math.inf)
    assert np.array_equal(a.measurements, b.measurements)
    # noiseless: each y_i equals its clean forward projection on the
    # complex128 S and u_i exactly, rounded to complex64 as S and u_i are
    scattering, incident = whole_array_dt_arrays(geometry)
    for u, y in zip(incident, a.measurements):
        assert np.array_equal(
            y, (scattering @ (u * truth.ravel())).astype(np.complex64))


@pytest.mark.parametrize("incident", ["point", "plane"])
def test_dt_build_matches_whole_array_oracle(incident):
    # 40^2 pixels make row blocks of 5: neither 23 receivers nor 7
    # transmitters fill their last block
    geometry = DtGeometry(grid=40, transmitters=7, receivers=23,
                          incident=incident)
    assert 23 % (bessel.ARRAY_BLOCK // 40 ** 2) != 0
    assert 7 % (bessel.ARRAY_BLOCK // 40 ** 2) != 0
    truth = make_truth(40, seed=3)
    model = build_dt_model(geometry, truth, seed=4)
    oracle = whole_array_dt_model(geometry, truth, seed=4)
    for name in ("scattering", "incident", "measurements"):
        assert (getattr(model, name).tobytes()
                == getattr(oracle, name).tobytes()), name
    assert model.lambdas.tobytes() == oracle.lambdas.tobytes()


def test_dt_achieved_input_snr_is_exact(small_dt_model):
    model, truth = small_dt_model
    signal = noise = 0.0
    for h, y in zip(dense_matrices(model), model.measurements):
        clean = h @ truth.ravel()
        signal += float(np.sum(np.abs(clean) ** 2))
        noise += float(np.sum(np.abs(y - clean) ** 2))
    achieved = 10.0 * math.log10(signal / noise)
    assert achieved == pytest.approx(40.0, abs=0.01)


def test_dt_adjoint_consistency(small_dt_model):
    model, _ = small_dt_model
    rng = np.random.default_rng(0)
    for i in range(2):
        x = rng.standard_normal(model.n)
        y = rng.standard_normal(model.M) + 1j * rng.standard_normal(model.M)
        hx = model.apply(x, [i])[0]
        # on real x, Re <y, H x> = <Re(H^H y), x>; y and iy give both parts
        for r in (y, 1j * y):
            assert np.vdot(r, hx).real == pytest.approx(
                model.adjoint_sum(r[None], [i]) @ x, rel=1e-12, abs=1e-12)


def test_dt_lipschitz_matches_dense_oracle(small_dt_model):
    model, truth = small_dt_model
    oracle = max(float(np.linalg.svd(h, compute_uv=False)[0]) ** 2
                 for h in dense_matrices(model))
    assert model.lipschitz >= oracle
    assert model.lipschitz <= oracle * (1.0 + 1e-9)
    # L is exact, so it no longer depends on a power-iteration start
    other = build_dt_model(model.geometry, truth, seed=model.seed + 7,
                           input_snr_db=40.0)
    assert other.lipschitz == model.lipschitz


def test_dt_lambdas_match_dense_oracle_at_32():
    geometry = DtGeometry(grid=32, transmitters=16, receivers=48)
    model = build_dt_model(geometry, make_truth(32, seed=2), seed=0)
    for u, bound in zip(model.incident, model.lambdas):
        oracle = float(np.linalg.svd(model.scattering * u,
                                     compute_uv=False)[0]) ** 2
        assert oracle <= bound <= oracle * (1.0 + 1e-9)
    assert model.lipschitz == max(model.lambdas)


# ------------------------------------------------------- ring symmetries

@pytest.mark.parametrize("grid, transmitters, receivers, elements", [
    (8, 16, 48, 7), (9, 4, 12, 7), (8, 6, 12, 3), (8, 4, 6, 3),
    (8, 16, 46, 3), (17, 5, 9, 1), (8, 1, 4, 1)])
def test_symmetry_maps_are_the_geometry_symmetries(grid, transmitters,
                                                   receivers, elements):
    # each map is a permutation that carries every pixel centre and ring
    # point to the point of its image index, and with the identity they
    # are closed under composition
    geometry = DtGeometry(grid=grid, transmitters=transmitters,
                          receivers=receivers)
    points = [geometry.pixel_centers(),
              geometry.ring_positions(transmitters),
              geometry.ring_positions(receivers)]
    maps = symmetry_maps(grid, transmitters, receivers)
    assert len(maps) == elements
    keys = {tuple(np.concatenate(m)) for m in maps}
    identity = tuple(np.concatenate([np.arange(len(p)) for p in points]))
    assert len(keys) == elements and identity not in keys
    tolerance = 1e-12 * geometry.ring_radius
    ring = 1 if transmitters > 2 else 2     # its first two points span
    for m in maps:
        for index, p in zip(m, points):
            assert np.array_equal(np.sort(index), np.arange(len(p)))
        # the linear map that sends the first two ring points where this
        # map says sends every point where it says
        linear = np.linalg.solve(points[ring][:2],
                                 points[ring][m[ring][:2]])
        for index, p in zip(m, points):
            np.testing.assert_allclose(p @ linear, p[index], rtol=0,
                                       atol=tolerance)
        for n in maps:
            composed = tuple(np.concatenate([a[b] for a, b in zip(m, n)]))
            assert composed in keys | {identity}


@pytest.mark.parametrize("grid", [8, 9])
@pytest.mark.parametrize("transmitters, receivers, generators", [
    (16, 48, 2), (24, 72, 2), (6, 10, 2), (3, 5, 1)])
def test_generating_maps_compose_to_every_symmetry(grid, transmitters,
                                                   receivers, generators):
    # S is checked under the generating maps alone (`_first_permuted`):
    # every listed map must be a composition of them
    maps = symmetry_maps(grid, transmitters, receivers)
    chosen = generating_maps(maps)
    assert len(chosen) == generators
    assert all(any(g is m for m in maps) for g in chosen)

    def key(m):
        return tuple(np.concatenate(m))
    reached = {key(g): g for g in chosen}
    todo = list(chosen)
    while todo:
        g = todo.pop()
        for s in chosen:
            composed = tuple(a[b] for a, b in zip(s, g))
            if key(composed) not in reached:
                reached[key(composed)] = composed
                todo.append(composed)
    assert {key(m) for m in maps} <= set(reached)


@pytest.mark.parametrize("grid, transmitters, receivers", [
    (32, 16, 48), (40, 7, 23)])
@pytest.mark.parametrize("incident", ["point", "plane"])
def test_dt_arrays_are_symmetric_and_one_ulp_from_direct_build(
        grid, transmitters, receivers, incident):
    # S and U are exactly invariant under every symmetry, and each entry
    # lies within one complex64 ulp of its magnitude of the entry the
    # direct Green build gives
    geometry = DtGeometry(grid=grid, transmitters=transmitters,
                          receivers=receivers, incident=incident)
    model = build_dt_model(geometry, make_truth(grid, seed=3), seed=4)
    for pix, tx, rx in symmetry_maps(grid, transmitters, receivers):
        assert np.array_equal(model.scattering[rx][:, pix], model.scattering)
        assert np.array_equal(model.incident[tx][:, pix], model.incident)
    for built, direct in zip((model.scattering, model.incident),
                             direct_dt_arrays(geometry)):
        direct = direct.astype(np.complex64)
        ulp = np.spacing(np.abs(direct))
        assert np.all(np.abs(built.real - direct.real) <= ulp)
        assert np.all(np.abs(built.imag - direct.imag) <= ulp)


def lambdas_and_computed(monkeypatch, model, scattering, incident):
    """The lambda_i of `model` made again from the arrays S and U, and the
    components whose lambda_i it computed with `lambda_max_bound`."""
    formed = []

    def recording(columns, shape):
        formed.append(columns(slice(None)))
        return lambda_max_bound(columns, shape)

    monkeypatch.setattr(forward, "lambda_max_bound", recording)
    lambdas = MeasurementModel(
        measurements=model.measurements, scattering=scattering,
        incident=incident, geometry=model.geometry, seed=model.seed,
        input_snr_db=model.input_snr_db,
        truth_sha256=model.truth_sha256).lambdas
    computed = [i for i, u in enumerate(incident)
                if any(np.array_equal(h, scattering * u) for h in formed)]
    assert len(computed) == len(formed)
    return lambdas, computed


def orbit_count(maps, count):
    return len({min([i] + [int(tx[i]) for _, tx, _ in maps])
                for i in range(count)})


@pytest.mark.parametrize("grid, transmitters, receivers, incident", [
    (16, 4, 12, "point"), (16, 4, 12, "plane"), (32, 16, 48, "point"),
    (32, 16, 48, "plane"), (17, 5, 9, "point"), (17, 5, 9, "plane")])
def test_dt_lambdas_per_orbit_are_certified(monkeypatch, grid, transmitters,
                                            receivers, incident):
    geometry = DtGeometry(grid=grid, transmitters=transmitters,
                          receivers=receivers, incident=incident)
    model = build_dt_model(geometry, make_truth(grid, seed=2), seed=0)
    maps = symmetry_maps(grid, transmitters, receivers)
    assert len(maps) == (1 if grid == 17 else 7)
    s, u = model.scattering, model.incident
    lambdas, computed = lambdas_and_computed(monkeypatch, model, s, u)
    assert lambdas.tobytes() == model.lambdas.tobytes()
    assert len(computed) == orbit_count(maps, transmitters) < transmitters
    for j, bound in enumerate(lambdas):
        h = s * u[j]
        oracle = float(np.linalg.svd(h, compute_uv=False)[0]) ** 2
        assert oracle <= bound <= oracle * (1.0 + 1e-9)
        assert bound == pytest.approx(lambda_max_bound(
            lambda cols: h[:, cols], h.shape), rel=1e-13, abs=0)
        if j not in computed:
            # a reused lambda_j comes with the equality that proves it
            assert any(tx[i] == j and lambdas[i] == bound
                       and np.array_equal(u[j][pix], u[i])
                       and np.array_equal(s[rx][:, pix], s)
                       for i in range(j) for pix, tx, rx in maps)


@pytest.mark.parametrize("perturbed", ["scattering", "incident"])
def test_dt_lambdas_of_unproved_components_are_computed(monkeypatch,
                                                        perturbed):
    # one entry off its symmetric value: a changed S proves no partner,
    # and a changed u_j proves none for j
    geometry = DtGeometry(grid=16, transmitters=4, receivers=12)
    model = build_dt_model(geometry, make_truth(16, seed=2), seed=0)
    s, u = model.scattering.copy(), model.incident.copy()
    changed = s if perturbed == "scattering" else u
    changed[1, 1] *= 1.0 + 2.0 ** -20
    lambdas, computed = lambdas_and_computed(monkeypatch, model, s, u)
    # the four transmitters are one orbit
    assert computed == ([0, 1, 2, 3] if perturbed == "scattering" else [0, 1])
    for i in computed:
        assert lambdas[i] == lambda_max_bound(
            lambda cols: s[:, cols] * u[i][cols], s.shape)


# ----------------------------------------------------------- Gaussian model

def test_gaussian_single_component_adjoint():
    truth = np.zeros((3, 3))
    model = gaussian_model(n=9, M=9, I=1, seed=0, truth=truth)
    assert model.num_components == 1
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(9), rng.standard_normal(9)
    assert np.vdot(y, model.apply(x)[0]) == pytest.approx(
        model.adjoint_sum(y[None]) @ x, rel=1e-12)


def test_gaussian_deterministic():
    truth = np.zeros((4, 4))
    a = gaussian_model(n=16, M=8, I=2, seed=9, truth=truth)
    b = gaussian_model(n=16, M=8, I=2, seed=9, truth=truth)
    assert np.array_equal(a.matrices, b.matrices)


def test_gaussian_entry_variance_close_to_1_over_M():
    truth = np.zeros((12, 12))
    model = gaussian_model(n=144, M=100, I=1, seed=0, truth=truth)
    A = model.matrices[0]
    assert A.size >= 10_000
    assert float(np.var(A)) == pytest.approx(1.0 / 100, rel=0.05)


# ------------------------------------------------------------------ gradient

def test_gradient_vanishes_at_truth_noiseless():
    geometry = DtGeometry(grid=8, transmitters=2, receivers=6)
    truth = make_truth(8, seed=3)
    model = build_dt_model(geometry, truth, seed=0, input_snr_db=math.inf)
    g = grad_full(model, truth.ravel())
    assert np.max(np.abs(g)) < 1e-10


def test_gradient_identity_operator_zero_measurement():
    truth = np.zeros((2, 2))
    model = gaussian_model(n=4, M=4, I=1, seed=0, truth=truth)
    # replace with an exact identity component
    model = stacked_model(np.eye(4))
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(grad_full(model, x), x, atol=1e-14)


def test_gradient_matches_finite_differences(small_dt_model):
    model, _ = small_dt_model
    rng = np.random.default_rng(4)
    x = rng.standard_normal(model.n) * 0.01
    g = grad_full(model, x)
    h = 1e-6
    for j in rng.choice(model.n, size=8, replace=False):
        e = np.zeros(model.n)
        e[j] = h
        fd = (datafit_value(model, x + e) - datafit_value(model, x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_minibatch_full_batch_equals_grad_full(small_dt_model):
    model, _ = small_dt_model
    rng = np.random.default_rng(0)
    x = rng.standard_normal(model.n) * 0.01
    g = gradient_from_indices(model, list(range(model.num_components)), x)
    assert np.array_equal(g, grad_full(model, x))


def test_minibatch_enumeration_unbiased_exact():
    truth = np.linspace(0, 1, 9).reshape(3, 3)
    model = gaussian_model(n=9, M=6, I=3, seed=2, truth=truth)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9)
    acc = np.zeros(9)
    for i in range(3):
        acc = acc + gradient_from_indices(model, [i], x)
    assert np.allclose(acc / 3.0, grad_full(model, x), atol=1e-15)


def test_minibatch_variance_scales_inverse_B(small_dt_model):
    model, _ = small_dt_model
    x = np.zeros(model.n)
    full = grad_full(model, x)

    def mc_var(B, draws=10_000):
        rng = np.random.default_rng(123)
        acc = 0.0
        for _ in range(draws):
            g, _ = grad_minibatch(model, x, B, rng)
            acc += float(np.sum((g - full) ** 2))
        return acc / draws

    v1, v4 = mc_var(1), mc_var(4)
    assert v1 / v4 == pytest.approx(4.0, rel=0.10)


def test_minibatch_draws_with_replacement_deterministic(small_dt_model):
    model, _ = small_dt_model
    x = np.zeros(model.n)
    g1, idx1 = grad_minibatch(model, x, 2, np.random.default_rng(7))
    g2, idx2 = grad_minibatch(model, x, 2, np.random.default_rng(7))
    assert np.array_equal(g1, g2)
    assert np.array_equal(idx1, idx2)


# --------------------------------------- array engine vs per-component loop

def reference_gradient(model, indices, x):
    """The per-component loop over dense H_i that the batched products
    replaced: the oracle."""
    dense = dense_matrices(model)
    total = np.zeros(model.n)
    for i in indices:
        h = dense[i]
        total += np.real(h.conj().T @ (h @ x - model.measurements[i]))
    return total / len(indices)


def reference_datafit(model, x):
    total = 0.0
    for h, y in zip(dense_matrices(model), model.measurements):
        r = h @ x - y
        total += 0.5 * float(np.vdot(r, r).real)
    return total / model.num_components


def _engine_model_and_point(request, name):
    model, _ = request.getfixturevalue(name)
    scale = 0.01 if name == "small_dt_model" else 1.0
    return model, np.random.default_rng(11).standard_normal(model.n) * scale


@pytest.mark.parametrize("name", ["small_dt_model", "small_gaussian_model"])
@pytest.mark.parametrize("indices", [None, [2, 0, 2, 2], [1],
                                     pytest.param([3], id="3")])
def test_gradient_matches_component_loop(request, name, indices):
    model, x = _engine_model_and_point(request, name)
    if indices is None:
        ours = grad_full(model, x)
        indices = range(model.num_components)
    else:
        ours = gradient_from_indices(model, indices, x)
    ref = reference_gradient(model, indices, x)
    np.testing.assert_allclose(ours, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["small_dt_model", "small_gaussian_model"])
def test_datafit_matches_component_loop(request, name):
    model, x = _engine_model_and_point(request, name)
    assert datafit_value(model, x) == pytest.approx(
        reference_datafit(model, x), rel=1e-12)


def test_selected_model_gradient_equals_index_set(small_dt_model):
    model, _ = small_dt_model
    x = np.random.default_rng(12).standard_normal(model.n) * 0.01
    subset = model.select([3, 1])
    assert subset.num_components == 2
    assert np.array_equal(grad_full(subset, x),
                          gradient_from_indices(model, [3, 1], x))


@pytest.mark.parametrize("name", ["small_dt_model", "small_gaussian_model"])
@pytest.mark.parametrize("rows", [[3, 1], [2], [0, 0, 2]])
def test_selected_model_lipschitz_is_max_of_its_rows(request, name, rows):
    model, _ = request.getfixturevalue(name)
    subset = model.select(rows)
    assert np.array_equal(subset.lambdas, model.lambdas[rows])
    assert subset.lipschitz == max(model.lambdas[i] for i in rows)


@pytest.mark.parametrize("lambdas", [[1.0, 5.0], [], [[1.0]], 2.0])
def test_model_rejects_lambdas_not_one_per_component(lambdas):
    # a one-component model took [1.0, 5.0] and reported L = 5.0
    with pytest.raises(ConfigurationError, match="one value per component"):
        MeasurementModel(measurements=np.zeros((1, 4)),
                         scattering=np.eye(4), incident=np.ones((1, 4)),
                         geometry=DtGeometry(grid=2), seed=0,
                         input_snr_db=math.inf, truth_sha256=bytes(32),
                         lambdas=lambdas)


def test_prox_datafit_matches_dense_solve_dt(small_dt_model):
    model, _ = small_dt_model
    gamma = 1.0 / model.lipschitz
    x = np.random.default_rng(13).standard_normal(model.n) * 0.01
    gram = np.zeros((model.n, model.n))
    rhs = x.copy()
    for A, y in zip(dense_matrices(model), model.measurements):
        gram += np.real(A.conj().T @ A)
        rhs += (gamma / model.num_components) * np.real(A.conj().T @ y)
    oracle = np.linalg.solve(
        np.eye(model.n) + (gamma / model.num_components) * gram, rhs)
    z, _ = prox_datafit(model, gamma, x, tol=1e-13)
    np.testing.assert_allclose(z, oracle, rtol=0,
                               atol=1e-10 * np.max(np.abs(oracle)))


# ---------------------------------------------------------------- data prox

def test_prox_datafit_zero_operator_returns_x():
    model = stacked_model(np.zeros((3, 3)))
    assert model.lipschitz == 0.0
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(prox_datafit(model, 0.5, x)[0], x, atol=1e-12)


def test_prox_datafit_identity_closed_form():
    model = stacked_model(np.eye(3))
    x = np.array([2.0, -4.0, 6.0])
    assert np.allclose(prox_datafit(model, 1.0, x)[0], x / 2.0, atol=1e-10)


def test_prox_datafit_matches_dense_solve():
    truth = np.zeros((3, 4))
    model = gaussian_model(n=12, M=10, I=2, seed=6, truth=truth)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(12)
    gamma = 0.7
    G = np.zeros((12, 12))
    rhs = x.copy()
    for A, y in zip(dense_matrices(model), model.measurements):
        G += np.real(A.conj().T @ A)
        rhs += (gamma / model.num_components) * np.real(A.conj().T @ y)
    G /= model.num_components
    oracle = np.linalg.solve(np.eye(12) + gamma * G, rhs)
    z, _ = prox_datafit(model, gamma, x, tol=1e-13)
    assert np.max(np.abs(z - oracle)) < 1e-8


def test_prox_datafit_is_prox_of_datafit():
    # optimality: z + gamma * grad d(z) = x
    truth = np.zeros((2, 4))
    model = gaussian_model(n=8, M=8, I=2, seed=1, truth=truth)
    x = np.random.default_rng(2).standard_normal(8)
    z, _ = prox_datafit(model, 0.4, x, tol=1e-13)
    assert np.max(np.abs(z + 0.4 * grad_full(model, z) - x)) < 1e-9

