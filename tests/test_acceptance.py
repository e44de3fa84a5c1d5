"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; the reconstruction criteria dominate the runtime (a few
minutes total).
"""

import math
import time

import numpy as np
import pytest

from elastoscat import derivative as dv, forward as fw, geometry as geo, inverse as inv, modal, specfun as sf

from oracles import sphere_block_solve

R = 1.0
PW = fw.IncidentWave("p", (0.0, 1.0, 0.0))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. bounds of the Hankel log-derivative
# ---------------------------------------------------------------------------


def test_criterion_1_z_bounds():
    t0 = time.perf_counter()
    ok = True
    worst_z0 = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        z = sf.z_log_derivative_table(60, t)
        n = np.arange(61)
        ok &= bool(np.all(z.real <= -1.0 + 1e-12))
        ok &= bool(np.all(z.real >= -(n + 1) * (1 + 1e-12)))
        ok &= bool(np.all(z.imag > 0.0))
        ok &= bool(np.all(z.imag <= t * (1 + 1e-12)))
        worst_z0 = max(worst_z0, abs(z[0] - complex(-1.0, t)))
    ok &= worst_z0 < 1e-13
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, f"n<=60, 8 arguments; max |z_0 - (-1+it)| = {worst_z0:.2e}; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. positive definiteness of the hermitian DtN part
# ---------------------------------------------------------------------------


def test_criterion_2_mhat_definiteness():
    t0 = time.perf_counter()
    results = []
    ok = True
    for lam, mu, om, radius in ((2.0, 1.0, 1.0, 1.0), (2.0, 1.0, 5.0, 1.0), (1.0, 2.0, 3.0, 2.0)):
        med = modal.Medium(lam, mu, om)
        bad = []
        for n in range(201):
            m = modal.dtn_matrix_M(med, radius, n)
            mh = -(m + m.conj().T) / 2
            eig = np.linalg.eigvalsh(mh) if n >= 1 else np.array([mh[2, 2].real])
            if not np.all(eig > 0):
                bad.append(n)
        n0 = (max(bad) + 1) if bad else 0
        ok &= n0 <= 200 and all(b < n0 for b in bad)
        results.append(f"(lam={lam},mu={mu},om={om},R={radius}): N0={n0}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(2, ok, "; ".join(results) + f"; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. mutual representation roundtrip
# ---------------------------------------------------------------------------


def test_criterion_3_roundtrip_and_lambda():
    rng = np.random.default_rng(3)
    med = modal.Medium(2.0, 1.0, 2.0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 31))
        m = int(rng.integers(-n, n + 1)) if n else 0
        blk = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if n == 0:
            blk[:2] = 0
        v = modal.DisplacementCoeffs(n, radius=R)
        v.set_block(n, m, blk)
        p = modal.displacement_to_potentials(v, med, R)
        v2 = modal.potentials_to_displacement(p, med, R)
        worst = max(worst, float(np.abs(v2.data - v.data).max() / np.abs(blk).max()))
    lam_ok = bool(np.all(modal.lambda_table(med, R, 30).imag < 0))
    ok = worst < 1e-12 and lam_ok
    _report(3, ok, f"1000 random blocks n<=30, worst roundtrip error {worst:.2e}; Im Lambda_n < 0: {lam_ok}")


# ---------------------------------------------------------------------------
# 4. transparent boundary exactness and sign conditions
# ---------------------------------------------------------------------------


def test_criterion_4_tbc_exactness_and_signs():
    rng = np.random.default_rng(4)
    med = modal.Medium(2.0, 1.0, 2.0)
    worst = 0.0
    for _ in range(25):
        order = int(rng.integers(1, 26))
        p = modal.random_potentials(order, rng)
        b_series = modal.traction_from_potentials(p, med, R)
        b_dtn = modal.apply_T(modal.potentials_to_displacement(p, med, R), med, R)
        worst = max(worst, float(np.abs(b_series.data - b_dtn.data).max() / np.abs(b_series.data).max()))
    signs_ok = True
    for _ in range(200):
        order = int(rng.integers(0, 13))
        nm = (order + 1) ** 2
        phi = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
        q1 = np.vdot(phi, modal.apply_T1(phi, med, R))
        signs_ok &= q1.real <= 1e-12 * nm and q1.imag >= -1e-12 * nm
    for _ in range(200):
        order = int(rng.integers(1, 13))
        nm = (order + 1) ** 2
        tang = rng.standard_normal((nm, 2)) + 1j * rng.standard_normal((nm, 2))
        tang[0] = 0
        q2 = np.vdot(tang.ravel(), modal.apply_T2(tang, med, R).ravel())
        signs_ok &= q2.real >= -1e-12 * nm
    ok = worst < 1e-8 and bool(signs_ok)
    _report(4, ok, f"series vs DtN worst rel err {worst:.2e}; sign conditions on 200+200 traces: {signs_ok}")


# ---------------------------------------------------------------------------
# 5. forward-solver oracle equivalence on the sphere
# ---------------------------------------------------------------------------


def test_criterion_5_sphere_oracle():
    t0 = time.perf_counter()
    med = modal.Medium(2.0, 1.0, 2.0)
    a = 0.75
    sol = fw.solve_rigid_scattering(geo.sphere_coeffs(a, 1), PW, med, R)  # default truncation
    pot_oracle = sphere_block_solve(a, med, R, sol.order, lambda pts: -fw.incident_field(PW, med, pts)[0])
    scale = np.abs(pot_oracle).max()
    mismatch = float(np.abs(sol.potentials.data - pot_oracle).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = mismatch < 1e-10 and sol.residual_rms < 1e-8 and elapsed < 10.0
    _report(
        5,
        ok,
        f"dense vs block mismatch {mismatch:.2e}; boundary residual {sol.residual_rms:.2e} "
        f"at default order {sol.order}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. domain-derivative and gradient checks on an ellipsoid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mild_ellipsoid_problem():
    truth = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    data_opts = fw.SolverOptions(n_trunc=18, quad_order=22, residual_tol=1e-3)
    ms = fw.solve_rigid_scattering(truth, PW, modal.Medium(2.0, 1.0, 2.0), R, data_opts).measure(PW, fw.fibonacci_sphere(100, R))
    return truth, ms


def test_criterion_6_fd_checks(mild_ellipsoid_problem):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    med = modal.Medium(2.0, 1.0, 2.0)
    ell, ms = mild_ellipsoid_problem
    opts = fw.SolverOptions(n_trunc=12, quad_order=16, residual_tol=1e-3)
    pts = fw.fibonacci_sphere(50, R)
    sol = fw.solve_rigid_scattering(ell, PW, med, R, opts)
    jac = dv.shape_jacobian(ell, sol, PW, pts)
    f0 = sol.measure(PW, pts).u

    live = [i for i in range(1, 25) if np.linalg.norm(jac.column(i)) > 0]
    picks = rng.choice(live, size=10, replace=False)
    min_decay = math.inf
    for i in picks:
        col = jac.column(i)
        nrm = np.linalg.norm(col)
        quots = []
        for h in (1e-2, 1e-4):
            spp = ell.copy()
            spp.coeffs[i - 1] += h
            fp = fw.solve_rigid_scattering(spp, PW, med, R, opts).measure(PW, pts).u
            quots.append(np.linalg.norm((fp - f0) / h - col) / nrm)
        min_decay = min(min_decay, quots[0] / quots[1])

    c = ell.copy()
    c.coeffs = c.coeffs + 0.03 * rng.standard_normal(c.coeffs.shape)
    _, g = dv.objective_and_gradient(c, [ms], opts)
    gfd = np.zeros_like(g)
    h = 1e-6
    for i in range(len(g)):
        cp, cm = c.copy(), c.copy()
        cp.coeffs[i] += h
        cm.coeffs[i] -= h
        fp = dv.objective_and_gradient(cp, [ms], opts, with_gradient=False)
        fm = dv.objective_and_gradient(cm, [ms], opts, with_gradient=False)
        gfd[i] = (fp - fm) / (2 * h)
    grad_rel = float(np.linalg.norm(g - gfd) / np.linalg.norm(gfd))
    elapsed = time.perf_counter() - t0
    ok = min_decay >= 5.0 and grad_rel < 1e-4 and elapsed < 120.0
    _report(
        6,
        ok,
        f"FD quotient decay (min over 10 coeffs) {min_decay:.1f}x; "
        f"gradient vs central FD rel err {grad_rel:.2e}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7/8. desk-scale reconstruction and determinism
# ---------------------------------------------------------------------------


def _synthesize_bundle(truth, noisy: bool):
    datasets = []
    for i, om in enumerate((1.0, 2.0, 3.0)):
        med = modal.Medium(2.0, 1.0, om)
        n = modal.default_truncation(med.kappa_s, R) + 4
        opts = fw.SolverOptions(n_trunc=n, quad_order=n + 4, residual_tol=2e-2)
        ms = fw.solve_rigid_scattering(truth, PW, med, R, opts).measure(PW, fw.fibonacci_sphere(100, R))
        if noisy:
            ms = fw.add_noise(ms, 0.05, seed=101 + i)
        datasets.append(ms)
    return datasets


@pytest.fixture(scope="module")
def reconstruction_runs():
    truth = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    schedule = inv.FrequencySchedule((1.0, 2.0, 3.0), iterations=100, tau_coefficient=0.005)
    t0 = time.perf_counter()
    state_clean = inv.continuation_run(_synthesize_bundle(truth, noisy=False), schedule, r0=0.5)
    state_noisy = inv.continuation_run(_synthesize_bundle(truth, noisy=True), schedule, r0=0.5)
    elapsed = time.perf_counter() - t0
    return truth, state_clean, state_noisy, elapsed, schedule


def test_criterion_7_reconstruction(reconstruction_runs):
    truth, state_clean, state_noisy, elapsed, _ = reconstruction_runs
    err_clean = inv.surface_error(state_clean.surface, truth)
    err_noisy = inv.surface_error(state_noisy.surface, truth)
    ok = err_clean < 0.05 and err_noisy < 0.12 and elapsed < 900.0
    _report(
        7,
        ok,
        f"radial error noiseless {err_clean:.4f} (<0.05), with 5% noise {err_noisy:.4f} (<0.12); "
        f"both runs in {elapsed:.0f}s (<900s)",
    )


def test_criterion_8_determinism(reconstruction_runs, tmp_path):
    truth, _, state_noisy, _, schedule = reconstruction_runs
    state_repeat = inv.continuation_run(_synthesize_bundle(truth, noisy=True), schedule, r0=0.5)
    f1 = tmp_path / "final_a.json"
    f2 = tmp_path / "final_b.json"
    state_noisy.surface.save(f1)
    state_repeat.surface.save(f2)
    identical = f1.read_bytes() == f2.read_bytes()
    _report(8, identical, f"repeated noisy run final coefficient files bitwise identical: {identical}")
