import math

import numpy as np
import pytest

from elastoscat import modal, specfun as sf

from oracles import fd_curl

R = 1.0


# ---------------------------------------------------------------------------
# Medium
# ---------------------------------------------------------------------------


def test_medium_wavenumbers(med_std):
    assert med_std.kappa_p == pytest.approx(2.0 / math.sqrt(4.0))
    assert med_std.kappa_s == pytest.approx(2.0)
    assert med_std.kappa_p < med_std.kappa_s


def test_medium_validation():
    with pytest.raises(sf.DomainError):
        modal.Medium(2.0, -1.0, 1.0)
    with pytest.raises(sf.DomainError):
        modal.Medium(-3.0, 1.0, 1.0)
    with pytest.raises(sf.DomainError):
        modal.Medium(2.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Lambda_n
# ---------------------------------------------------------------------------


def test_lambda0_closed_form(med_std):
    kp, ks = med_std.kappa_p, med_std.kappa_s
    expected = complex(-1, kp * R) * (1j * ks * R)
    assert abs(modal.lambda_table(med_std, R, 0)[0] - expected) < 1e-13 * abs(expected)
    assert expected == pytest.approx(-kp * ks * R**2 - 1j * ks * R)


def test_lambda_imag_negative(med_std):
    table = modal.lambda_table(med_std, R, 60)
    assert np.all(table.imag < 0)


def test_lambda_large_order_limit(med_std):
    # Lambda_n -> -((kp R)^2 + (ks R)^2)/2 with O(1/n) rate
    kp, ks = med_std.kappa_p * R, med_std.kappa_s * R
    limit = -(kp**2 + ks**2) / 2.0
    err = {n: abs(modal.lambda_table(med_std, R, n)[n] - limit) for n in (100, 200, 400)}
    assert err[400] < 1e-2
    assert err[200] < 0.6 * err[100]
    assert err[400] < 0.6 * err[200]


# ---------------------------------------------------------------------------
# Potential <-> displacement maps
# ---------------------------------------------------------------------------


def test_zero_potentials_zero_displacement(med_std):
    p = modal.PotentialCoeffs(4)
    v = modal.potentials_to_displacement(p, med_std, R)
    assert np.all(v.data == 0)


def test_single_phi_mode_map(med_std):
    p = modal.PotentialCoeffs(2)
    p.set_block(1, 0, (1.0, 0.0, 0.0))
    v = modal.potentials_to_displacement(p, med_std, R)
    z1 = sf.z_log_derivative(1, med_std.kappa_p * R)
    blk = v.block(1, 0)
    assert abs(blk[0] - math.sqrt(2.0) / R) < 1e-13
    assert blk[1] == 0
    assert abs(blk[2] - z1 / R) < 1e-13


def test_roundtrip_is_identity(med_std, rng):
    for _ in range(50):
        order = int(rng.integers(0, 31))
        p = modal.random_potentials(order, rng)
        v = modal.potentials_to_displacement(p, med_std, R)
        p2 = modal.displacement_to_potentials(v, med_std, R)
        assert np.abs(p2.data - p.data).max() < 1e-12 * max(1.0, np.abs(p.data).max())


def test_pure_v_component_inverts_to_psi3(med_std):
    n = 3
    v = modal.DisplacementCoeffs(n, radius=R)
    v.set_block(n, 1, (0.0, 2.0 - 1.0j, 0.0))
    p = modal.displacement_to_potentials(v, med_std, R)
    blk = p.block(n, 1)
    expected = math.sqrt(n * (n + 1)) * (2.0 - 1.0j) / (med_std.kappa_s**2 * R)
    assert blk[0] == 0 and blk[1] == 0
    assert abs(blk[2] - expected) < 1e-13


def test_n0_degenerate_block(med_std):
    v = modal.DisplacementCoeffs(0, radius=R)
    v.set_block(0, 0, (0.0, 0.0, 1.0))
    p = modal.displacement_to_potentials(v, med_std, R)
    z0 = complex(-1.0, med_std.kappa_p * R)
    assert abs(p.block(0, 0)[0] - R / z0) < 1e-14
    with pytest.raises(modal.DegenerateModeError):
        modal.DisplacementCoeffs(0, np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(modal.DegenerateModeError):
        modal.PotentialCoeffs(0, np.array([[0.0, 1.0, 0.0]]))


# ---------------------------------------------------------------------------
# DtN blocks
# ---------------------------------------------------------------------------


def test_g_sparsity_pattern(med_std):
    g = modal.dtn_matrix_G(med_std, R, 3)
    zeros = [(0, 0), (0, 1), (1, 2), (2, 2)]
    for idx in zeros:
        assert g[idx] == 0
    nonzeros = [(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
    for idx in nonzeros:
        assert g[idx] != 0


def test_g_entries_formula_reevaluation(med_std):
    # direct re-evaluation of the five entry formulas at n = 1
    n = 1
    mu, lam = med_std.mu, med_std.lam
    tp, ts = med_std.kappa_p * R, med_std.kappa_s * R
    zp = sf.z_log_derivative(n, tp)
    zs = sf.z_log_derivative(n, ts)
    s = math.sqrt(2.0)
    g = modal.dtn_matrix_G(med_std, R, n)
    assert g[0, 2] == pytest.approx(mu * ts**2 * zs / s, rel=1e-14)
    assert g[1, 0] == pytest.approx(mu * s * (zp - 1), rel=1e-14)
    assert g[1, 1] == pytest.approx(mu * (2 - ts**2 - 1 - zs), rel=1e-14)
    assert g[2, 0] == pytest.approx(mu * (2 - tp**2 - 2 * zp) - (lam + mu) * tp**2, rel=1e-14)
    assert g[2, 1] == pytest.approx(mu * s * (zs - 1), rel=1e-14)


def test_traction_matches_pointwise_boundary_operator(med_std, rng):
    # independent path: evaluate B v = mu d_r v + (lam+mu)(div v) e_r on the
    # sphere from the analytic field Jacobian, project onto harmonics, and
    # compare with the per-mode G_n formula
    order = 4
    p = modal.random_potentials(order, rng, decay=0.7)
    quad = sf.sphere_quadrature(order + 2)
    pts = sf.sph_to_cart(R, quad.theta, quad.phi)
    vals, grads = modal.eval_radiating_field(p, med_std, R, pts, gradient=True)
    e_r = sf.spherical_frame(quad.theta, quad.phi)[0]
    d_r = np.einsum("pil,pl->pi", grads, e_r)
    div = np.trace(grads, axis1=1, axis2=2)
    bv = med_std.mu * d_r + (med_std.lam + med_std.mu) * div[:, None] * e_r
    projected = R * sf.vsh_expand(bv, quad, order)
    expected = modal.traction_from_potentials(p, med_std, R).data
    assert np.abs(projected - expected).max() < 1e-8 * np.abs(expected).max()


def test_m_factorization_identity(med_std, rng):
    # M_n v = (1/R^2) G_n ptv(v) for random displacement triples
    for _ in range(30):
        n = int(rng.integers(0, 31))
        m = int(rng.integers(-n, n + 1)) if n else 0
        blk = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if n == 0:
            blk[:2] = 0
        v = modal.DisplacementCoeffs(n, radius=R)
        v.set_block(n, m, blk)
        b_m = modal.apply_T(v, med_std, R)
        p = modal.displacement_to_potentials(v, med_std, R)
        b_g = modal.traction_from_potentials(p, med_std, R)
        assert np.abs(b_m.data - b_g.data).max() < 1e-10 * max(1.0, np.abs(b_m.data).max())


def test_mhat_entry_asymptotics(med_std):
    # leading behavior of the hermitian part entries at large order, using
    # the exact Lambda_n; verified by a two-point decay-rate check
    mu, om = med_std.mu, med_std.omega
    rel = {}
    for n in (200, 400):
        m = modal.dtn_matrix_M(med_std, R, n)
        mh = -(m + m.conj().T) / 2
        lam_n = modal.lambda_table(med_std, R, n)[n]
        s = math.sqrt(n * (n + 1.0))
        predictions = {
            (0, 0): (mu / R) * (n + 1),
            (1, 1): (-(om**2) * R / lam_n).real * (n + 1),
            (1, 2): (-(mu / R + om**2 * R / lam_n) * s).real,
            (2, 2): (-(om**2) * R / lam_n).real * n,
        }
        worst = 0.0
        for idx, pred in predictions.items():
            worst = max(worst, abs(mh[idx].real - pred) / abs(pred))
        rel[n] = worst
    assert rel[200] < 0.05
    assert rel[400] < 0.7 * rel[200]


@pytest.mark.parametrize(
    "lam,mu,om,radius,n0_expected",
    [(2.0, 1.0, 1.0, 1.0, 0), (2.0, 1.0, 5.0, 1.0, 4), (1.0, 2.0, 3.0, 2.0, 3)],
)
def test_mhat_positive_definite_beyond_n0(lam, mu, om, radius, n0_expected):
    med = modal.Medium(lam, mu, om)
    bad = []
    for n in range(0, 201):
        m = modal.dtn_matrix_M(med, radius, n)
        mh = -(m + m.conj().T) / 2
        eig = np.linalg.eigvalsh(mh) if n >= 1 else np.array([mh[2, 2].real])
        if not np.all(eig > 0):
            bad.append(n)
    n0 = (max(bad) + 1) if bad else 0
    assert n0 == n0_expected


# ---------------------------------------------------------------------------
# Boundary operators
# ---------------------------------------------------------------------------


def test_apply_T_linearity(med_std, rng):
    order = 5
    data = rng.standard_normal(((order + 1) ** 2, 3)) + 1j * rng.standard_normal(((order + 1) ** 2, 3))
    data[0, :2] = 0
    v = modal.DisplacementCoeffs(order, data, radius=R)
    va = modal.DisplacementCoeffs(order, 2.5j * data, radius=R)
    b1 = modal.apply_T(v, med_std, R)
    b2 = modal.apply_T(va, med_std, R)
    assert np.abs(b2.data - 2.5j * b1.data).max() < 1e-13 * np.abs(b1.data).max()


def test_apply_T_hm_continuity(med_std, rng):
    # observed operator norm H^{1/2} -> H^{-1/2} stays bounded
    ratios = []
    for _ in range(50):
        order = int(rng.integers(1, 25))
        nmodes = (order + 1) ** 2
        data = rng.standard_normal((nmodes, 3)) + 1j * rng.standard_normal((nmodes, 3))
        data[0, :2] = 0
        v = modal.DisplacementCoeffs(order, data, radius=R)
        b = modal.apply_T(v, med_std, R)
        weights = np.concatenate(
            [np.full(2 * n + 1, 1.0 + n * (n + 1)) for n in range(order + 1)]
        )
        num = np.sum(np.abs(b.data) ** 2 * weights[:, None] ** -0.5)
        den = np.sum(np.abs(v.data) ** 2 * weights[:, None] ** 0.5)
        ratios.append(math.sqrt(num / den))
    assert max(ratios) < 25.0  # finite, order-independent bound (empirically ~8)


def test_T1_scalar_mode_and_signs(med_std, rng):
    z0 = complex(-1.0, med_std.kappa_p * R)
    out = modal.apply_T1(np.array([1.0 + 0j]), med_std, R)
    assert abs(out[0] - z0 / R) < 1e-14
    assert np.all(modal.apply_T1(np.zeros(9, dtype=complex), med_std, R) == 0)
    for _ in range(200):
        order = int(rng.integers(0, 12))
        phi = rng.standard_normal((order + 1) ** 2) + 1j * rng.standard_normal((order + 1) ** 2)
        q = np.vdot(phi, modal.apply_T1(phi, med_std, R))
        assert q.real <= 1e-12 * np.abs(phi).sum()
        assert q.imag >= -1e-12 * np.abs(phi).sum()


def test_T2_signs_and_zero(med_std, rng):
    assert np.all(modal.apply_T2(np.zeros((9, 2), dtype=complex), med_std, R) == 0)
    for _ in range(200):
        order = int(rng.integers(1, 12))
        nmodes = (order + 1) ** 2
        tang = rng.standard_normal((nmodes, 2)) + 1j * rng.standard_normal((nmodes, 2))
        tang[0] = 0
        q = np.vdot(tang.ravel(), modal.apply_T2(tang, med_std, R).ravel())
        assert q.real >= -1e-12 * np.abs(tang).sum()


def test_T2_tangential_trace_identity_vs_fd_curl(med_std):
    # for a vector potential given by a single electric-type wave function,
    # (curl psi) x e_r on the sphere equals i ks T2 (tangential trace of psi)
    from elastoscat.wavefields import WaveBasis

    n, m = 2, 1
    ks = med_std.kappa_s
    order = 4
    quad = sf.sphere_quadrature(order + 2)
    pts = sf.sph_to_cart(R, quad.theta, quad.phi)

    # psi = N-type wave function expressed through its (T, V) trace pair
    zs = sf.z_log_derivative(n, ks * R)
    col = sf.flatten_index(n, m) - 1

    def psi_field(p):
        # N field built from the basis: E_N = i ks N / (sqrt(nn1) h_n(ks R));
        # undo the scaling so psi is exactly the N wave function
        wb = WaveBasis(med_std.kappa_p, ks, R, order, p)
        vec = np.zeros(wb.ncols, dtype=complex)
        vec[wb.nmodes + col - 1] = 1.0
        h_ref = sf.spherical_h1_table(n, np.array([ks * R]))[n, 0]
        return wb.evaluate(vec) * math.sqrt(n * (n + 1)) * h_ref / (1j * ks)

    curl = fd_curl(psi_field, pts, h=1e-6)
    e_r = sf.spherical_frame(quad.theta, quad.phi)[0]
    lhs = np.cross(curl, e_r)

    # tangential trace coefficients of psi in the (T, V) pair on Gamma_R
    psi_vals = psi_field(pts)
    coeffs = R * sf.vsh_expand(psi_vals, quad, order)
    tang = coeffs[:, :2].copy()
    t2 = modal.apply_T2(tang, med_std, R)
    rhs = np.zeros_like(lhs)
    for nn in range(1, order + 1):
        for mm in range(-nn, nn + 1):
            cc = sf.flatten_index(nn, mm) - 1
            tfld, vfld, _, _ = sf.vector_harmonics((nn, mm), quad.theta, quad.phi, R)
            rhs += 1j * ks * (t2[cc, 0] * tfld + t2[cc, 1] * vfld)
    assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


def test_eval_zero_potentials(med_std):
    p = modal.PotentialCoeffs(3)
    pts = sf.sph_to_cart(np.array([1.0, 1.3]), np.array([0.4, 2.0]), np.array([0.0, 3.0]))
    assert np.all(modal.eval_radiating_field(p, med_std, R, pts) == 0)


def test_eval_single_monopole_mode(med_std):
    p = modal.PotentialCoeffs(0)
    p.set_block(0, 0, (1.0, 0.0, 0.0))
    r_values = np.array([1.0, 1.5, 2.5])
    pts = sf.sph_to_cart(r_values, np.full(3, 1.1), np.full(3, 0.7))
    v = modal.eval_radiating_field(p, med_std, R, pts)
    kp = med_std.kappa_p
    e_r = sf.spherical_frame(np.full(3, 1.1), np.full(3, 0.7))[0]
    h_r = sf.spherical_h1_table(0, kp * r_values)
    hp_r = sf.spherical_h1_deriv_table(h_r, kp * r_values)
    h_ref = sf.spherical_h1_table(0, np.array([kp * R]))[0, 0]
    x00 = 1.0 / (R * math.sqrt(4 * math.pi))
    expected = (kp * hp_r[0] / h_ref * x00)[:, None] * e_r
    assert np.abs(v - expected).max() < 1e-12
    tangential = v - np.sum(v * e_r, axis=1)[:, None] * e_r
    assert np.abs(tangential).max() < 1e-14


def test_sommerfeld_decay(med_std, rng):
    # r (d_r phi - i kp phi) decays like 1/r for any radiating potential
    p = modal.random_potentials(5, rng)
    kp = med_std.kappa_p
    vals = []
    for r in (10.0, 50.0):
        pts = sf.sph_to_cart(np.full(8, r), rng.uniform(0.3, 2.8, 8), rng.uniform(0, 6.28, 8))
        phi, dphi = modal.eval_scalar_potential(p, med_std, R, pts)
        vals.append(np.abs(r * (dphi - 1j * kp * phi)).max())
    assert vals[1] < vals[0] / 3.5  # ~1/r between r=10 and r=50


def test_eval_radial_derivative_vs_fd(med_std, rng):
    p = modal.random_potentials(4, rng)
    th = rng.uniform(0.3, 2.8, 6)
    ph = rng.uniform(0, 6.28, 6)
    pts = sf.sph_to_cart(np.full(6, 1.1), th, ph)
    e_r = sf.spherical_frame(th, ph)[0]
    vals, grads = modal.eval_radiating_field(p, med_std, R, pts, gradient=True)
    d_analytic = np.einsum("pil,pl->pi", grads, e_r)
    h = 1e-6 * R
    vp = modal.eval_radiating_field(p, med_std, R, sf.sph_to_cart(np.full(6, 1.1 + h), th, ph))
    vm = modal.eval_radiating_field(p, med_std, R, sf.sph_to_cart(np.full(6, 1.1 - h), th, ph))
    fd = (vp - vm) / (2 * h)
    assert np.abs(fd - d_analytic).max() < 1e-5 * np.abs(d_analytic).max()


def test_eval_min_radius_flag(med_std):
    p = modal.PotentialCoeffs(1)
    p.set_block(0, 0, (1.0, 0.0, 0.0))
    pts = np.array([[0.2, 0.0, 0.0]])
    with pytest.raises(sf.DomainError):
        modal.eval_radiating_field(p, med_std, R, pts, min_radius=0.5)


# ---------------------------------------------------------------------------
# Two-path transparent boundary identity
# ---------------------------------------------------------------------------


def test_boundary_operator_two_paths_agree(med_std, rng):
    for _ in range(20):
        order = int(rng.integers(1, 25))
        p = modal.random_potentials(order, rng)
        b_series = modal.traction_from_potentials(p, med_std, R)
        v = modal.potentials_to_displacement(p, med_std, R)
        b_dtn = modal.apply_T(v, med_std, R)
        rel = np.abs(b_series.data - b_dtn.data).max() / np.abs(b_series.data).max()
        assert rel < 1e-8
