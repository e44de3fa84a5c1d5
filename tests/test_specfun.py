import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscat import specfun as sf


# ---------------------------------------------------------------------------
# Hankel functions
# ---------------------------------------------------------------------------


def test_h0_closed_form():
    h = sf.spherical_h1_table(0, np.array([1.0, math.pi]))[0]
    assert abs(h[0] - (math.sin(1.0) - 1j * math.cos(1.0))) < 1e-14
    assert abs(h[1] - 1j / math.pi) < 1e-14


def test_h1_closed_form(rng):
    t = rng.uniform(0.2, 20.0, size=20)
    h = sf.spherical_h1_table(1, t)[1]
    ref = -np.exp(1j * t) * (t + 1j) / t**2
    assert np.all(np.abs(h - ref) <= 1e-12 * np.abs(ref))


def test_hankel_derivative_vs_scipy(rng):
    n = np.arange(25)[:, None]
    t = rng.uniform(0.3, 30.0, size=40)
    h = sf.spherical_h1_table(24, t)
    hp = sf.spherical_h1_deriv_table(h, t)
    ref = sp.spherical_jn(n, t) + 1j * sp.spherical_yn(n, t)
    refp = sp.spherical_jn(n, t, derivative=True) + 1j * sp.spherical_yn(n, t, derivative=True)
    assert np.all(np.abs(h - ref) <= 1e-10 * np.abs(ref))
    assert np.all(np.abs(hp - refp) <= 1e-10 * np.abs(refp))


def test_hankel_domain_error():
    with pytest.raises(sf.DomainError):
        sf.spherical_h1_table(0, -1.0)
    with pytest.raises(sf.DomainError):
        sf.spherical_h1_table(3, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Logarithmic derivative z_n
# ---------------------------------------------------------------------------


def test_z0_closed_form():
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        z = sf.z_log_derivative(0, t)
        assert abs(z - complex(-1.0, t)) < 1e-13


def test_z_bounds_table():
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        z = sf.z_log_derivative_table(60, t)
        n = np.arange(61)
        assert np.all(z.real <= -1.0 + 1e-12)
        assert np.all(z.real >= -(n + 1) * (1 + 1e-12))
        assert np.all(z.imag > 0.0)
        assert np.all(z.imag <= t * (1 + 1e-12))


def test_z_example_n5_t2():
    z = sf.z_log_derivative(5, 2.0)
    assert -6.0 <= z.real <= -1.0
    assert 0.0 < z.imag <= 2.0


def test_z_vs_scipy_moderate(rng):
    for _ in range(60):
        n = int(rng.integers(0, 45))
        t = float(rng.uniform(0.3, 30.0))
        h = sp.spherical_jn(n, t) + 1j * sp.spherical_yn(n, t)
        hp = sp.spherical_jn(n, t, derivative=True) + 1j * sp.spherical_yn(n, t, derivative=True)
        ref = t * hp / h
        assert abs(sf.z_log_derivative(n, t) - ref) <= 1e-11 * abs(ref)


def test_z_large_order_asymptotics():
    # Re z_n = -(n+1) + t^2/(2n-1) + t^4/((2n-1)^2 (2n-3)) + O(1/n^4-ish);
    # checked by magnitude and by ~1/n^3 decay of the residual.
    for t in (1.0, 2.0):
        resid = {}
        for n in (40, 80):
            z = sf.z_log_derivative(n, t)
            resid[n] = abs(z.real + (n + 1) - t**2 / (2 * n - 1))
            assert resid[n] <= 2.0 * t**4 / ((2 * n - 1) ** 2 * (2 * n - 3))
        assert resid[80] <= resid[40] / 6.0


def test_z_no_overflow_to_n200():
    z = sf.z_log_derivative_table(200, 0.1)
    assert np.all(np.isfinite(z.real))
    assert np.all(z.imag > 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.floats(0.1, 30.0))
def test_z_bounds_property(n, t):
    z = sf.z_log_derivative(n, t)
    assert -(n + 1) * (1 + 1e-12) <= z.real <= -1.0 + 1e-12
    assert 0.0 < z.imag <= t * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Index flattening
# ---------------------------------------------------------------------------


def test_flatten_bijection_exhaustive():
    seen = set()
    for n in range(41):
        for m in range(-n, n + 1):
            i = sf.flatten_index(n, m)
            assert sf.unflatten_index(i) == (n, m)
            seen.add(i)
    assert seen == set(range(1, 41**2 + 1))


@given(st.integers(0, 100).flatmap(lambda n: st.tuples(st.just(n), st.integers(-n, n))))
def test_flatten_roundtrip_property(nm):
    n, m = nm
    assert sf.unflatten_index(sf.flatten_index(n, m)) == (n, m)


def test_invalid_indices_raise():
    with pytest.raises(sf.DomainError):
        sf.flatten_index(2, 3)
    with pytest.raises(sf.DomainError):
        sf.unflatten_index(0)


# ---------------------------------------------------------------------------
# Scalar harmonics
# ---------------------------------------------------------------------------


def test_y00_and_y10():
    assert abs(sf.sph_harmonic((0, 0), 0.7, 1.3) - 1.0 / math.sqrt(4 * math.pi)) < 1e-14
    assert abs(sf.sph_harmonic((1, 0), 0.0, 0.0) - math.sqrt(3 / (4 * math.pi))) < 1e-13


def test_y21_modulus_integral():
    quad = sf.sphere_quadrature(8)
    y = sf.sph_harmonic((2, 1), quad.theta, quad.phi)
    assert abs(quad.integrate(np.abs(y) ** 2) - 1.0) < 1e-12


def test_harmonics_match_conjugated_scipy(rng):
    # our fixed convention: Y = conj of the scipy (Condon-Shortley) harmonics
    for _ in range(150):
        n = int(rng.integers(0, 13))
        m = int(rng.integers(-n, n + 1)) if n else 0
        th = float(rng.uniform(0.05, math.pi - 0.05))
        ph = float(rng.uniform(0, 2 * math.pi))
        ours = sf.sph_harmonic((n, m), th, ph)
        ref = np.conj(sp.sph_harm_y(n, m, th, ph))
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))


def test_harmonic_orthonormality_gram():
    nmax = 6
    quad = sf.sphere_quadrature(nmax + 1)
    y, _, _ = sf.sph_harmonic_tables(nmax, quad.theta, quad.phi)
    gram = (y.conj() * quad.weights[:, None]).T @ y
    assert np.abs(gram - np.eye((nmax + 1) ** 2)).max() < 1e-12


# ---------------------------------------------------------------------------
# Vector harmonics
# ---------------------------------------------------------------------------


def test_w00_is_radial_constant():
    th = np.array([0.3, 1.2, 2.8])
    ph = np.array([0.1, 3.0, 5.5])
    radius = 2.0
    t, v, w, degenerate = sf.vector_harmonics((0, 0), th, ph, radius)
    assert degenerate
    assert np.all(t == 0) and np.all(v == 0)
    e_r = sf.spherical_frame(th, ph)[0]
    np.testing.assert_allclose(w, e_r / (radius * math.sqrt(4 * math.pi)), atol=1e-15)


def test_t_and_v_orthogonal(rng):
    # pointwise the bilinear product of a vector with its cross against e_r
    # vanishes; the hermitian L^2 pairing vanishes after quadrature
    th = rng.uniform(0.1, math.pi - 0.1, size=20)
    ph = rng.uniform(0, 2 * math.pi, size=20)
    quad = sf.sphere_quadrature(7)
    for n in (1, 2, 4):
        for m in range(-n, n + 1):
            t, v, _, _ = sf.vector_harmonics((n, m), th, ph, 1.0)
            assert np.abs(np.sum(t * v, axis=1)).max() < 1e-12
            tq, vq, _, _ = sf.vector_harmonics((n, m), quad.theta, quad.phi, 1.0)
            inner = np.sum(quad.weights * np.sum(tq * np.conj(vq), axis=1))
            assert abs(inner) < 1e-12


def test_vector_harmonic_gram_identity():
    nmax = 4
    radius = 1.7
    quad = sf.sphere_quadrature(nmax + 2)
    fields = []
    for n in range(nmax + 1):
        for m in range(-n, n + 1):
            t, v, w, _ = sf.vector_harmonics((n, m), quad.theta, quad.phi, radius)
            if n == 0:
                fields.append(w)
            else:
                fields.extend([t, v, w])
    surf_w = quad.weights * radius**2  # surface measure of the radius-R sphere
    k = len(fields)
    gram = np.empty((k, k), dtype=complex)
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            gram[i, j] = np.sum(surf_w * np.sum(fi * np.conj(fj), axis=1))
    assert np.abs(gram - np.eye(k)).max() < 1e-10


def test_vsh_expand_recovers_coefficients(rng):
    nmax = 5
    quad = sf.sphere_quadrature(nmax + 2)
    nmodes = (nmax + 1) ** 2
    coeffs = rng.standard_normal((nmodes, 3)) + 1j * rng.standard_normal((nmodes, 3))
    coeffs[0, :2] = 0
    field = np.zeros((quad.npts, 3), dtype=complex)
    for n in range(nmax + 1):
        for m in range(-n, n + 1):
            col = sf.flatten_index(n, m) - 1
            t, v, w, _ = sf.vector_harmonics((n, m), quad.theta, quad.phi, 1.0)
            field += coeffs[col, 0] * t + coeffs[col, 1] * v + coeffs[col, 2] * w
    rec = sf.vsh_expand(field, quad, nmax)
    np.testing.assert_allclose(rec, coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_quadrature_weight_sum():
    for order in (4, 9, 16):
        quad = sf.sphere_quadrature(order)
        assert abs(np.sum(quad.weights) - 4 * math.pi) < 1e-12


def test_quadrature_integrates_harmonic_products(rng):
    order = 7
    quad = sf.sphere_quadrature(order)
    for _ in range(30):
        n1 = int(rng.integers(0, order + 1))
        n2 = int(rng.integers(0, order + 1))
        m1 = int(rng.integers(-n1, n1 + 1)) if n1 else 0
        m2 = int(rng.integers(-n2, n2 + 1)) if n2 else 0
        y1 = sf.sph_harmonic((n1, m1), quad.theta, quad.phi)
        y2 = sf.sph_harmonic((n2, m2), quad.theta, quad.phi)
        val = quad.integrate(y1 * np.conj(y2))
        expected = 1.0 if (n1, m1) == (n2, m2) else 0.0
        assert abs(val - expected) < 1e-12


def test_coordinate_roundtrip(rng):
    pts = rng.normal(size=(50, 3))
    r, th, ph = sf.cart_to_sph(pts)
    back = sf.sph_to_cart(r, th, ph)
    np.testing.assert_allclose(back, pts, atol=1e-12)
