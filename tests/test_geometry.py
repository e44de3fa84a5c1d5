import json
import math

import numpy as np
import pytest

from elastoscat import geometry as geo, specfun as sf

from oracles import decode_coeff_index, encode_coeff_index, eval_surface, perturbation_q


def fit_radial_surface(rho_fn, order, quad_order=24):
    """Least-squares harmonic fit of a radial star-shaped surface (test helper)."""
    quad = sf.sphere_quadrature(quad_order)
    rho = rho_fn(quad.theta, quad.phi)
    pts = sf.sph_to_cart(rho, quad.theta, quad.phi)
    y, _, _ = sf.sph_harmonic_tables(order, quad.theta, quad.phi)
    basis = np.hstack([y.real, y.imag])  # (npts, 2 nmodes)
    sp = geo.SurfaceParam(order, np.zeros(geo.coeff_length(order)))
    for j in (1, 2, 3):
        c, *_ = np.linalg.lstsq(basis, pts[:, j - 1], rcond=None)
        nmodes = (order + 1) ** 2
        sp.block(j, False)[:] = c[:nmodes]
        sp.block(j, True)[:] = c[nmodes:]
    return sp


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------


def test_sphere_encoding_constants():
    r0 = 0.5
    sp = geo.sphere_coeffs(r0, 3)
    nmodes = 16
    c = sp.coeffs
    k = math.sqrt(2 * math.pi / 3) * r0
    assert c[1] == pytest.approx(k)  # c_2
    assert c[3] == pytest.approx(-k)  # c_4
    assert c[3 * nmodes + 1] == pytest.approx(k)  # b_2 block, index 2
    assert c[3 * nmodes + 3] == pytest.approx(k)  # b_2 block, index 4
    assert c[4 * nmodes + 2] == pytest.approx(math.sqrt(4 * math.pi / 3) * r0)  # a_3, index 3
    assert np.count_nonzero(c) == 5


def test_sphere_encoding_is_exact():
    r0 = 0.5
    sp = geo.sphere_coeffs(r0, 3)
    quad = sf.sphere_quadrature(16)
    pts, _, _ = geo.surface_points(sp, quad.theta, quad.phi)
    assert np.abs(np.linalg.norm(pts, axis=1) - r0).max() <= 1e-10


def test_sphere_normal_is_radial_and_area():
    r0 = 0.8
    bs = geo.sample_boundary(geo.sphere_coeffs(r0, 2), 16)
    radial = bs.points / np.linalg.norm(bs.points, axis=1, keepdims=True)
    assert np.abs(bs.normals - radial).max() < 1e-12
    assert abs(float(np.sum(bs.weights)) - 4 * math.pi * r0**2) < 1e-8


def test_ellipsoid_radial_function_exact():
    ax, ay, az = 0.6, 0.75, 0.9
    sp = geo.ellipsoid_coeffs(ax, ay, az, 1)
    dirs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [0.3, 0.4, 0.866]])
    rho = geo.radial_function(sp, dirs)
    d = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    expected = 1.0 / np.sqrt((d[:, 0] / ax) ** 2 + (d[:, 1] / ay) ** 2 + (d[:, 2] / az) ** 2)
    np.testing.assert_allclose(rho, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Evaluation and sampling
# ---------------------------------------------------------------------------


def test_eval_surface_normal_outward(rng):
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 2)
    sp.coeffs = sp.coeffs + 0.01 * rng.standard_normal(sp.coeffs.shape)
    bs = geo.sample_boundary(sp, 12)
    centroid = np.average(bs.points, axis=0, weights=bs.weights)
    assert np.all(np.sum(bs.normals * (bs.points - centroid), axis=1) > 0)


def test_degenerate_surface_raises():
    sp = geo.SurfaceParam(1, np.zeros(24))
    with pytest.raises(geo.GeometryError):
        geo.sample_boundary(sp, 8)
    big = geo.sphere_coeffs(0.5, 3)
    big.coeffs[encode_coeff_index(3, False, 3, 0, 3) - 1] = 3.0  # wild n=3 mode
    with pytest.raises(geo.GeometryError):
        geo.sample_boundary(big, 12)


def test_surface_rejects_nonfinite_coefficients():
    coeffs = geo.sphere_coeffs(0.5, 1).coeffs
    for bad in (math.nan, math.inf):
        c = coeffs.copy()
        c[3] = bad
        with pytest.raises(geo.GeometryError):
            geo.SurfaceParam(1, c)
        with pytest.raises(geo.GeometryError):
            geo.SurfaceParam.from_json_dict({"schema": 1, "N": 1, "C": c.tolist()})


@pytest.mark.parametrize("q", [0, 1, 4, 18, 31, 40])
def test_boundary_rule_thins_the_tensor_rings(q):
    # the rings of the tensor rule, ring j with 2 min(q, ceil(q sin th_j)) + 2
    # equispaced points of weight w_j 2 pi / n_j each
    quad = geo.boundary_quadrature(q)
    x, w = np.polynomial.legendre.leggauss(q + 1)
    theta = np.arccos(x)
    np.testing.assert_array_equal(np.unique(theta), np.unique(sf.sphere_quadrature(q).theta))
    sizes = 2 * np.minimum(q, np.ceil(q * np.sin(theta))).astype(int) + 2
    np.testing.assert_array_equal(np.repeat(theta, sizes), quad.theta)
    start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for j, (k, s0) in enumerate(zip(sizes, start)):
        np.testing.assert_allclose(quad.phi[s0 : s0 + k], 2 * np.pi * np.arange(k) / k, rtol=0, atol=1e-15)
        np.testing.assert_allclose(quad.weights[s0 : s0 + k], w[j] * 2 * np.pi / k, rtol=1e-15)
    assert abs(float(np.sum(quad.weights)) - 4 * math.pi) <= 1e-13
    assert quad.theta.shape == quad.phi.shape == quad.weights.shape == (sizes.sum(),)
    if q == 18:
        assert quad.theta.shape[0] == 506  # the tensor rule has 722


def test_boundary_rule_has_more_rows_than_columns():
    # SolverOptions.resolve rejects quad_order < n_trunc, which promises a
    # boundary system of 3 npts rows more than its 3 (n+1)^2 - 2 columns
    for n in range(41):
        assert 3 * geo.boundary_quadrature(n).theta.shape[0] > 3 * (n + 1) ** 2 - 2


def test_bean_like_surface_samples_on_32x64_grid():
    # smooth star-shaped surface with one concave dent (desk-scale stand-in
    # for a bean shape; a literal sqrt-based parametrization would not be
    # well defined for all angles)
    def rho(theta, phi):
        return 0.7 + 0.14 * np.cos(np.pi * np.cos(theta)) * (0.5 + 0.5 * np.sin(theta) * np.sin(phi))

    sp = fit_radial_surface(rho, 6)
    bs = geo.sample_boundary(sp, 31)  # 32 rings, thinned from 64 points toward the poles
    assert bs.npts == 1388
    assert np.all(np.isfinite(bs.points)) and np.all(bs.weights > 0)
    # the fitted surface reproduces the radial law away from truncation error
    quad = sf.sphere_quadrature(12)
    rho_fit = geo.radial_function(sp, sf.sph_to_cart(1.0, quad.theta, quad.phi))
    assert np.abs(rho_fit - rho(quad.theta, quad.phi)).max() < 5e-3


def test_surface_json_roundtrip(tmp_path, rng):
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 2)
    sp.coeffs = sp.coeffs + 0.01 * rng.standard_normal(sp.coeffs.shape)
    path = tmp_path / "surface.json"
    sp.save(path)
    back = geo.SurfaceParam.load(path)
    assert back.order == sp.order
    np.testing.assert_array_equal(back.coeffs, sp.coeffs)
    with pytest.raises(geo.GeometryError):
        geo.SurfaceParam.from_json_dict({"schema": 2, "N": 1, "C": [0.0] * 24})


def test_resized_preserves_surface(rng):
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    big = sp.resized(4)
    assert big.coeffs.shape == (geo.coeff_length(4),)
    th = rng.uniform(0.1, 3.0, 40)
    ph = rng.uniform(0.0, 6.28, 40)
    p1, _, _ = geo.surface_points(sp, th, ph)
    p2, _, _ = geo.surface_points(big, th, ph)
    assert np.abs(p1 - p2).max() < 1e-12


# ---------------------------------------------------------------------------
# Coefficient perturbations
# ---------------------------------------------------------------------------


def test_q_index_decode_roundtrip():
    order = 3
    for i in range(1, geo.coeff_length(order) + 1):
        j, im, n, m = decode_coeff_index(i, order)
        assert encode_coeff_index(j, im, n, m, order) == i
    with pytest.raises(geo.GeometryError):
        decode_coeff_index(0, order)
    with pytest.raises(geo.GeometryError):
        decode_coeff_index(geo.coeff_length(order) + 1, order)


def test_q_special_values():
    sp = geo.sphere_coeffs(0.5, 2)
    th, ph = 1.0, 2.0
    _, _, nu = eval_surface(sp, th, ph)
    q1 = perturbation_q(1, sp, th, ph, nu)
    assert q1 == pytest.approx(nu[0] / math.sqrt(4 * math.pi))
    nmodes = 9
    assert perturbation_q(nmodes + 1, sp, th, ph, nu) == 0.0  # Im Y_0^0 = 0


def test_q_matches_directional_derivative(rng):
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 2)
    sp.coeffs = sp.coeffs + 0.02 * rng.standard_normal(sp.coeffs.shape)
    h = 1e-6
    for _ in range(12):
        th = float(rng.uniform(0.2, math.pi - 0.2))
        ph = float(rng.uniform(0, 2 * math.pi))
        i = int(rng.integers(1, geo.coeff_length(2) + 1))
        _, _, nu = eval_surface(sp, th, ph)
        q = perturbation_q(i, sp, th, ph, nu)
        spp, spm = sp.copy(), sp.copy()
        spp.coeffs[i - 1] += h
        spm.coeffs[i - 1] -= h
        pp, _, _ = eval_surface(spp, th, ph)
        pm, _, _ = eval_surface(spm, th, ph)
        fd = float(np.dot((pp - pm) / (2 * h), nu))
        assert abs(fd - q) < 1e-6


def test_q_table_matches_scalar_calls(rng):
    sp = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    bs = geo.sample_boundary(sp, 8)
    table = geo.perturbation_q_table(sp, bs)
    for i in (1, 5, 13, 24):
        for k in (0, 7, 31):
            expected = perturbation_q(i, sp, bs.theta[k], bs.phi[k], bs.normals[k])
            assert abs(table[i - 1, k] - expected) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_q_table_mirror_rows_are_signed_copies(rng, order):
    # Y_n^-m = (-1)^m conj(Y_n^m): each (n, -m) row of the q table is exactly
    # +-1 times its (n, m) row, and the Im Y_n^0 rows are zero
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, order)
    sp.coeffs = sp.coeffs + 0.01 * rng.standard_normal(sp.coeffs.shape)
    table = geo.perturbation_q_table(sp, geo.sample_boundary(sp, order + 6))
    distinct, source, sign = geo.distinct_coeff_map(order)
    assert distinct.shape == (3 * (order + 1) ** 2,)
    for i in range(geo.coeff_length(order)):
        j, imag, n, m = decode_coeff_index(i + 1, order)
        expected = 0 if imag and m == 0 else (1 if m >= 0 else (-1) ** m * (-1 if imag else 1))
        assert sign[i] == expected
        mirror = encode_coeff_index(j, imag, n, abs(m), order) - 1
        if expected:
            assert distinct[source[i]] == mirror
            assert np.array_equal(table[i], expected * table[mirror])
        else:
            assert np.all(table[i] == 0)


# ---------------------------------------------------------------------------
# Cross sections
# ---------------------------------------------------------------------------


def test_cross_sections_of_sphere():
    sp = geo.sphere_coeffs(0.5, 2)
    for plane in ("x1", "x2", "x3"):
        cs = geo.cross_section(sp, plane, 128)
        assert cs.shape == (128, 3)
        assert np.abs(np.hypot(cs[:, 1], cs[:, 2]) - 0.5).max() < 1e-9


def test_cross_section_of_ellipsoid_matches_plane_law():
    ax, ay, az = 0.6, 0.75, 0.9
    sp = geo.ellipsoid_coeffs(ax, ay, az, 1)
    cs = geo.cross_section(sp, "x3", 64)  # plane z=0: ellipse with semis (ax, ay)
    val = (cs[:, 1] / ax) ** 2 + (cs[:, 2] / ay) ** 2
    np.testing.assert_allclose(val, 1.0, atol=1e-9)


def _rotated_parametrization(alpha, order, perturbation=0.0):
    """The ellipsoid (0.6, 0.75, 0.9) turned by ``alpha`` about the y axis, with
    its parametrization: the chart's pole goes to (sin alpha, 0, cos alpha).
    ``perturbation`` adds seeded random degree-3 coefficients of that size."""
    base = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, order)
    c, s = math.cos(alpha), math.sin(alpha)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    sp = geo.SurfaceParam(order, np.zeros(geo.coeff_length(order)))
    for j in (1, 2, 3):
        for imag in (False, True):
            sp.block(j, imag)[:] = sum(rot[j - 1, l - 1] * base.block(l, imag) for l in (1, 2, 3))
    degree3 = np.arange(sp.coeffs.size) % 16 >= 9
    sp.coeffs += perturbation * np.random.default_rng(0).standard_normal(sp.coeffs.size) * degree3
    return sp, rot


def _ray_cast_steps(monkeypatch, sp, plane):
    """Gauss-Newton steps of the ray cast of one cross section, counted through surface_points."""
    calls = []
    real = geo.surface_points

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geo, "surface_points", counted)
    return geo.cross_section(sp, plane), len(calls) - 1


def test_ray_cast_converges_fast_near_an_off_axis_pole(monkeypatch):
    # the x2 plane holds the z axis, and the order-3 surface's parameter pole
    # lies just off it: the rays along +-z start at a chart pole, where ph is
    # free to turn (a cap on sqrt(dth^2 + dph^2) took 16 steps here)
    sp, _ = _rotated_parametrization(0.05, 3, perturbation=0.02)
    _, steps = _ray_cast_steps(monkeypatch, sp, "x2")
    assert steps <= 10


@pytest.mark.parametrize("plane", ["x1", "x2"])
def test_ray_cast_with_a_turned_parametrization(monkeypatch, plane):
    # the chart pole 1.2 rad off the z axis: the first steps of the rays along
    # +-z turn ph by far more than a radian, and taken in (th, ph) they ended
    # on the far side of the surface
    sp, rot = _rotated_parametrization(1.2, 1)
    section, steps = _ray_cast_steps(monkeypatch, sp, plane)
    u1, u2 = geo._PLANES[plane]
    t = section[:, 0]
    d = np.outer(np.cos(t), u1) + np.outer(np.sin(t), u2)
    local = d @ rot  # the directions in the ellipsoid's own axes
    rho = 1.0 / np.sqrt(np.sum((local / np.array([0.6, 0.75, 0.9])) ** 2, axis=1))
    np.testing.assert_allclose(section[:, 1:], rho[:, None] * np.column_stack([np.cos(t), np.sin(t)]), atol=1e-12)
    assert steps <= 10


def test_cross_section_unknown_plane():
    with pytest.raises(geo.GeometryError):
        geo.cross_section(geo.sphere_coeffs(0.5, 1), "x4")
