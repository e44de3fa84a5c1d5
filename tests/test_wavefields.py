import tracemalloc

import numpy as np
import pytest

from elastoscat import geometry as geo, modal, specfun as sf
from elastoscat.wavefields import WaveBasis

from oracles import (
    basis_deriv_along_per_mode,
    basis_field,
    basis_gradient,
    basis_matrix_per_mode,
    fd_curl,
    fd_directional,
    frame_to_cartesian,
    vector_from_potentials,
    vsh_expand,
)

KP, KS, R = 1.0, 2.0, 1.0


def derivative_matrix(wb, nu):
    """``wb.directional_derivative(nu, I)`` rotated out of the point frames into
    Cartesian components, as a (3 npts, ncols) matrix, computed 32 columns of
    I at a time to keep the temporaries small."""
    eye = np.eye(wb.ncols)
    blocks = [
        frame_to_cartesian(wb, wb.directional_derivative(nu, eye[:, j : j + 32])) for j in range(0, wb.ncols, 32)
    ]
    return np.concatenate(blocks, axis=2).reshape(3 * wb.npts, wb.ncols)


@pytest.fixture
def points(rng):
    pts = rng.normal(size=(14, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(0.55, 1.5, size=(14, 1))


def test_column_layout_and_n0_structure(points):
    wb = WaveBasis(KP, KS, R, 3, points)
    assert wb.ncols == 3 * 16 - 2
    pot = np.zeros((16, 3), dtype=complex)
    pot[0, 0] = 1.0
    vec = vector_from_potentials(pot)
    assert vec.shape == (wb.ncols,)
    back = wb.potentials_from_vector(vec)
    np.testing.assert_array_equal(back, pot)


def test_directional_derivative_matches_fd(points, rng):
    wb = WaveBasis(KP, KS, R, 4, points)
    nu = rng.normal(size=points.shape)
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    analytic = derivative_matrix(wb, nu)

    def matrix_at(p):
        return WaveBasis(KP, KS, R, 4, p).matrix()

    fd = (matrix_at(points + 1e-6 * nu) - matrix_at(points - 1e-6 * nu)) / 2e-6
    scale = np.abs(analytic).max()
    assert np.abs(fd - analytic).max() < 1e-7 * scale


def test_second_order_tables_built_only_for_derivatives(points):
    # the field values need first derivatives of Y only; ytt, atp and app are
    # built on the first directional derivative
    wb = WaveBasis(KP, KS, R, 4, points)
    wb.matrix()
    assert "ang" not in vars(wb) and "ang2" not in vars(wb)
    wb.directional_derivative(points, np.ones(wb.ncols))
    assert len(vars(wb)["ang2"]) == 3


def assert_bitwise(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("nmax", [3, 6, 14])
def test_lazy_tables_leave_every_output_bitwise(nmax, rng):
    # the basis keeps only the harmonic factors; the complex tables expanded
    # from them are bitwise those of sph_harmonic_tables, so the outputs do not
    # depend on whether or when the first-order tables were built
    sample = geo.sample_boundary(geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1), nmax + 4)
    radius = 1.3  # a reference radius that changes the last bits of the tables
    _, theta, phi = sf.cart_to_sph(sample.points)
    eager, lazy = (WaveBasis(KP, KS, radius, nmax, sample.points) for _ in range(2))
    for new, ref in zip(eager.ang, sf.sph_harmonic_tables(nmax, theta, phi)):
        assert_bitwise(new, ref / radius)
    coeffs = rng.standard_normal((eager.ncols, 2)) + 1j * rng.standard_normal((eager.ncols, 2))
    assert "ang" not in vars(lazy)
    outputs = [
        (wb.matrix(), wb.matrix(spherical=True), wb.directional_derivative(sample.normals, coeffs))
        for wb in (lazy, eager)
    ]
    for new, ref in zip(*outputs):
        assert_bitwise(new, ref)


def _points_with_poles(rng, npts):
    pts = rng.normal(size=(npts, 3))
    pts *= rng.uniform(0.55, 1.5, size=(npts, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = (0.0, 0.0, 0.8)  # north pole
    pts[1] = (0.0, 0.0, -1.2)  # south pole
    return pts


@pytest.mark.parametrize("nmax", [0, 1, 3, 9])
def test_batched_derivative_equals_single_columns_bitwise(nmax, rng):
    # the objective takes the derivatives of all datasets on one system from
    # one batched call; each column must be what a call on that column alone gives
    pts = _points_with_poles(rng, 40)
    wb = WaveBasis(KP, KS, R, nmax, pts)
    nu = rng.normal(size=pts.shape)
    coeffs = rng.standard_normal((wb.ncols, 6)) + 1j * rng.standard_normal((wb.ncols, 6))
    batch = wb.directional_derivative(nu, coeffs)
    for j in range(coeffs.shape[1]):
        assert_bitwise(np.ascontiguousarray(batch[:, :, j]), wb.directional_derivative(nu, coeffs[:, j]))


def test_batched_derivative_holds_one_contracted_table(rng):
    # k columns are contracted with one angular table at a time and summed over
    # the degrees before the next: the peak is that (3, nmax+1, k, npts) table,
    # one (nmax+1, k, npts) scratch array, the (3, k, npts) output and a fixed
    # count of (nmax+1, npts) weights, not six contracted tables (2262 KiB
    # here; measured 419 KiB against the bound's 436 KiB)
    nmax, k, npts = 4, 6, 128
    wb = WaveBasis(KP, KS, R, nmax, _points_with_poles(rng, npts))
    nu = rng.normal(size=(npts, 3))
    coeffs = rng.standard_normal((wb.ncols, k)) + 1j * rng.standard_normal((wb.ncols, k))
    wb.directional_derivative(nu, coeffs)  # builds the angular tables the basis keeps
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        wb.directional_derivative(nu, coeffs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    deg, row = nmax + 1, 16 * npts  # bytes of one complex row of npts
    assert peak <= (3 * deg * k + deg * k + 3 * k + 16 * deg) * row, peak


def test_gradient_matches_fd(points, rng):
    wb = WaveBasis(KP, KS, R, 3, points)
    vec = rng.standard_normal(wb.ncols) + 1j * rng.standard_normal(wb.ncols)
    jac = basis_gradient(wb, vec)

    def field(p):
        return basis_field(WaveBasis(KP, KS, R, 3, p), vec)

    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        fd = fd_directional(field, points, np.broadcast_to(e, points.shape))
        np.testing.assert_allclose(jac[:, :, axis], fd, atol=1e-6 * np.abs(jac).max())


def test_fields_satisfy_navier_fd_scaling(points, rng):
    # residual of mu lap u + (lam+mu) grad div u + omega^2 u under second
    # differences must be pure FD truncation: it decays like h^2
    lam, mu = 2.0, 1.0
    omega = KS * np.sqrt(mu)
    wb = WaveBasis(KP, KS, R, 3, points[:3])
    vec = rng.standard_normal(wb.ncols) + 1j * rng.standard_normal(wb.ncols)

    def field(p):
        return basis_field(WaveBasis(KP, KS, R, 3, p), vec)

    x0 = points[:3]
    resids = []
    for h in (4e-4, 1e-4):
        u0 = field(x0)
        lap = np.zeros_like(u0)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            lap += (field(x0 + e) - 2 * u0 + field(x0 - e)) / h**2

        def div(p, h=h):
            out = np.zeros(p.shape[0], dtype=complex)
            for axis in range(3):
                e = np.zeros(3)
                e[axis] = h
                out += (field(p + e)[:, axis] - field(p - e)[:, axis]) / (2 * h)
            return out

        graddiv = np.zeros_like(u0)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            graddiv[:, axis] = (div(x0 + e) - div(x0 - e)) / (2 * h)
        res = mu * lap + (lam + mu) * graddiv + omega**2 * u0
        resids.append(np.abs(res).max() / np.abs(u0).max())
    assert resids[1] < resids[0] / 8.0  # h halved twice -> 16x, allow slack
    assert resids[1] < 1e-4


def test_traces_match_potential_map(rng):
    # evaluating the basis on the reference sphere and projecting back onto
    # vector harmonics must reproduce the analytic per-mode trace map
    med = modal.Medium(2.0, 1.0, 2.0)
    order = 6
    p = modal.random_potentials(order, rng)
    quad = sf.sphere_quadrature(order + 2)
    pts = sf.sph_to_cart(R, quad.theta, quad.phi)
    wb = WaveBasis(med.kappa_p, med.kappa_s, R, order, pts)
    field = basis_field(wb, vector_from_potentials(p.data))
    coeffs = R * vsh_expand(field, quad, order)
    expected = modal.potentials_to_displacement(p, med, R).data
    assert np.abs(coeffs - expected).max() < 1e-10 * np.abs(expected).max()


def test_shear_families_are_divergence_free(points, rng):
    wb = WaveBasis(KP, KS, R, 3, points[:4])
    m = wb.nmodes
    vec = np.zeros(wb.ncols, dtype=complex)
    vec[m:] = rng.standard_normal(2 * m - 2) + 1j * rng.standard_normal(2 * m - 2)

    def field(p):
        return basis_field(WaveBasis(KP, KS, R, 3, p), vec)

    x0 = points[:4]
    h = 1e-5
    div = np.zeros(x0.shape[0], dtype=complex)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        div += (field(x0 + e)[:, axis] - field(x0 - e)[:, axis]) / (2 * h)
    assert np.abs(div).max() < 1e-6 * np.abs(field(x0)).max()


def test_electric_family_is_scaled_curl_of_magnetic(points):
    # the two shear families satisfy curl E_M = i ks * (scaled) E_N mode by mode
    n, m = 2, 1
    wb = WaveBasis(KP, KS, R, 4, points[:6])
    nm = wb.nmodes
    col = sf.flatten_index(n, m) - 1
    vec_m = np.zeros(wb.ncols, dtype=complex)
    vec_m[2 * nm - 1 + col - 1] = 1.0  # one psi_3 (magnetic) mode

    def field_m(p):
        return basis_field(WaveBasis(KP, KS, R, 4, p), vec_m)

    curl = fd_curl(field_m, points[:6], h=1e-6)
    # curl M = i ks N; unwinding the stored per-family scalings gives
    # curl E_M = (ks^2 R / sqrt(nn1)) E_N
    nn1 = n * (n + 1)
    vec_n = np.zeros(wb.ncols, dtype=complex)
    vec_n[nm + col - 1] = 1.0
    e_n = basis_field(WaveBasis(KP, KS, R, 4, points[:6]), vec_n)
    expected = (KS**2 * R / np.sqrt(nn1)) * e_n
    assert np.abs(curl - expected).max() < 1e-6 * np.abs(expected).max()


@pytest.mark.parametrize("nmax", [0, 1, 9, 14])
def test_assembly_matches_per_mode_loop(nmax, rng):
    # the spherical-frame closed forms and the degree-wise contraction are
    # other arithmetic than the per-(n, m) loop, equal in exact arithmetic;
    # measured: matrix within 4e-16, derivatives within 6e-16 of the largest entry
    npts = 3 * (nmax + 1) ** 2 + 5
    pts = rng.normal(size=(npts, 3))
    pts *= rng.uniform(0.55, 1.5, size=(npts, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = (0.0, 0.0, 0.8)  # north pole: the pole-safe angular factors are exercised
    pts[1] = (0.0, 0.0, -1.2)
    wb = WaveBasis(KP, KS, R, nmax, pts)

    def assert_close(new, oracle):
        assert np.abs(new - oracle).max() <= 1e-14 * np.abs(oracle).max()

    assert_close(wb.matrix(), basis_matrix_per_mode(wb))
    for nu in (rng.normal(size=(npts, 3)), np.array([[0.3, -0.5, 0.8]])):
        assert_close(derivative_matrix(wb, nu), basis_deriv_along_per_mode(wb, nu))
