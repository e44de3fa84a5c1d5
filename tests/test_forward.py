import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import click
import numpy as np
import pytest

from elastoscat import cli, derivative as dv, forward as fw, geometry as geo, modal, specfun as sf
from elastoscat.wavefields import WaveBasis

from oracles import (
    eval_radiating_field,
    eval_scalar_potential,
    frame_to_cartesian,
    navier_residual_fd,
    solve_on_tensor_grid,
    sphere_block_solve,
    vsh_expand,
    z_log_derivative,
)

R = 1.0


@pytest.fixture
def pwave():
    return fw.IncidentWave("p", (0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Incident waves
# ---------------------------------------------------------------------------


def test_incident_validation():
    with pytest.raises(ValueError):
        fw.IncidentWave("p", (0.0, 2.0, 0.0))
    with pytest.raises(ValueError):
        fw.IncidentWave("s", (0.0, 1.0, 0.0))  # missing polarization
    with pytest.raises(ValueError):
        fw.IncidentWave("s", (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))  # not orthogonal
    with pytest.raises(ValueError):
        fw.IncidentWave("x", (0.0, 1.0, 0.0))
    fw.IncidentWave("s", (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))


def test_incident_rejects_nan_vectors():
    nan = math.nan
    with pytest.raises(ValueError):
        fw.IncidentWave("p", (nan, nan, nan))
    with pytest.raises(ValueError):
        fw.IncidentWave("s", (0.0, 1.0, 0.0), (nan, 0.0, 0.0))


def test_incident_phase_and_modulus(pwave, med_std, rng):
    pts = rng.normal(size=(30, 3))
    u, _ = fw.incident_field(pwave, med_std, pts)
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-14
    on_plane = pts - np.outer(pts @ [0, 1, 0], [0, 1, 0])  # x.d = 0
    u0, _ = fw.incident_field(pwave, med_std, on_plane)
    np.testing.assert_allclose(u0, np.broadcast_to([0, 1, 0], u0.shape), atol=1e-14)


def test_incident_gradient_vs_fd(pwave, med_std, rng):
    pts = rng.normal(size=(10, 3))
    u, g = fw.incident_field(pwave, med_std, pts)
    h = 1e-7
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        fd = (fw.incident_field(pwave, med_std, pts + e)[0] - fw.incident_field(pwave, med_std, pts - e)[0]) / (2 * h)
        np.testing.assert_allclose(g[:, :, axis], fd, atol=1e-7)


@pytest.mark.parametrize("kind", ["p", "s"])
def test_incident_navier_residual_highprec_fd(kind, med_std, rng):
    # independent PDE oracle: mpmath finite differences at 40 digits
    import mpmath as mp

    if kind == "p":
        wave = fw.IncidentWave("p", (0.0, 1.0, 0.0))
        kappa = med_std.kappa_p
        pol = np.array([0.0, 1.0, 0.0])
    else:
        wave = fw.IncidentWave("s", (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        kappa = med_std.kappa_s
        pol = np.array([0.0, 0.0, 1.0])
    d = np.array(wave.direction)

    def field(x):
        phase = mp.expjpi(0) * mp.e ** (1j * mp.mpf(repr(kappa)) * (x[0] * d[0] + x[1] * d[1] + x[2] * d[2]))
        return [mp.mpc(p) * phase for p in pol]

    for pt in rng.normal(size=(20, 3)):
        res = navier_residual_fd(field, med_std.lam, med_std.mu, med_std.omega, pt)
        assert res < 1e-10


# ---------------------------------------------------------------------------
# Exterior solve
# ---------------------------------------------------------------------------


def test_zero_data_zero_solution(med_std):
    sp = geo.sphere_coeffs(0.75, 1)
    sol = fw.solve_exterior_dirichlet(sp, lambda pts: np.zeros((pts.shape[0], 3)), med_std, R)
    assert np.all(sol.coeff_vector == 0)
    assert sol.residual_rms == 0.0


def test_default_quadrature_order_is_n_trunc_plus_4(med_std):
    for opts in (fw.SolverOptions(), fw.SolverOptions(n_trunc=7)):
        resolved = opts.resolve(med_std, R)
        assert resolved.quad_order == resolved.n_trunc + 4
    assert fw.SolverOptions(n_trunc=7, quad_order=9).resolve(med_std, R).quad_order == 9


def test_solver_options_reject_invalid_values():
    # a negative order used to die with an IndexError inside numpy, a
    # fractional one with a TypeError, and a NaN or negative tolerance came
    # back later as a ResidualError "exceeds tolerance nan"
    for name in ("n_trunc", "quad_order"):
        for bad in (-1, 2.5, "7", np.float64(7.0)):
            with pytest.raises(ValueError, match=name):
                fw.SolverOptions(**{name: bad})
    for bad in (math.nan, -1.0, 0.0, -math.inf):
        with pytest.raises(ValueError, match="residual tolerance"):
            fw.SolverOptions(residual_tol=bad)
    opts = fw.SolverOptions(n_trunc=np.int64(7), quad_order=np.int32(0))
    assert (opts.n_trunc, opts.quad_order) == (7, 0)
    assert type(opts.n_trunc) is int and type(opts.quad_order) is int


@pytest.mark.parametrize("omega", [1.0, 3.0, 5.0])
@pytest.mark.parametrize("n", [11, 14])
def test_reduced_grid_fit_matches_tensor_grid(pwave, omega, n):
    # the reduced boundary grid drops points only where the basis is
    # negligible: the fitted field at the measurement points agrees with the
    # fit on the tensor rule of the same order
    med = modal.Medium(2.0, 1.0, omega)
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    opts = fw.SolverOptions(n_trunc=n, residual_tol=1.0)
    ref = solve_on_tensor_grid(ell, pwave, med, R, opts)
    sol = fw.solve_rigid_scattering(ell, pwave, med, R, opts)
    assert sol.sample.npts < 0.75 * ref.sample.npts
    pts = fw.fibonacci_sphere(100, R)
    u, u_ref = sol.evaluate(pts), ref.evaluate(pts)
    assert np.linalg.norm(u - u_ref) <= 1e-6 * np.linalg.norm(u_ref)
    assert sol.system.condition == pytest.approx(ref.system.condition, rel=1e-2)


def test_sphere_dense_matches_block_oracle(med_std, pwave):
    a = 0.75
    sp = geo.sphere_coeffs(a, 1)
    sol = fw.solve_rigid_scattering(sp, pwave, med_std, R)
    assert sol.residual_rms < 1e-8

    pot_oracle = sphere_block_solve(
        a, med_std, R, sol.order, lambda pts: -fw.incident_field(pwave, med_std, pts)[0]
    )
    scale = np.abs(pot_oracle).max()
    assert np.abs(sol.potentials.data - pot_oracle).max() < 1e-10 * scale


def test_manufactured_solution_recovery(med_std, rng):
    # trace of a random radiating field as Dirichlet data: the solver must
    # reproduce its coefficients since the data lies in the basis span
    truth = modal.random_potentials(5, rng, decay=0.6)
    sp = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    opts = fw.SolverOptions(n_trunc=9, quad_order=13, residual_tol=1e-6)

    def data(pts):
        return eval_radiating_field(truth, med_std, R, pts)

    sol = fw.solve_exterior_dirichlet(sp, data, med_std, R, opts)
    rec = sol.potentials.data[: truth.data.shape[0]]
    assert np.abs(rec - truth.data).max() < 1e-8 * np.abs(truth.data).max()
    tail = sol.potentials.data[truth.data.shape[0] :]
    assert np.abs(tail).max() < 1e-8 * np.abs(truth.data).max()


def test_residual_decreases_with_truncation(med_std, pwave):
    for surf in (geo.sphere_coeffs(0.75, 1), geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)):
        resid = []
        for n in (6, 8, 10, 12):
            opts = fw.SolverOptions(n_trunc=n, quad_order=n + 4, residual_tol=1.0)
            sol = fw.solve_rigid_scattering(surf, pwave, med_std, R, opts)
            resid.append(sol.residual_rel)
        for lo, hi in zip(resid[1:], resid[:-1]):
            assert lo <= 1.1 * hi  # monotone within 10%


def test_nonconvergence_raises(med_std, pwave):
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    with pytest.raises(fw.SolverError):
        fw.solve_rigid_scattering(ell, pwave, med_std, R, fw.SolverOptions(n_trunc=8, quad_order=12, residual_tol=1e-8))


def test_surface_outside_gamma_r_raises(pwave):
    # the problem is posed between the surface and Gamma_R, so a surface that
    # reaches Gamma_R is rejected, and so is a NaN one
    med = modal.Medium(2.0, 1.0, 1.0)
    with pytest.raises(geo.GeometryError):
        fw.solve_rigid_scattering(geo.sphere_coeffs(0.5, 1), pwave, med, 0.3)
    nan_surface = geo.sphere_coeffs(0.5, 1)
    nan_surface.coeffs = nan_surface.coeffs - np.nan
    with pytest.raises(geo.GeometryError):
        fw.solve_rigid_scattering(nan_surface, pwave, med, R)


def test_resolve_equals_fresh_solve(med_std, pwave):
    # a re-solve against the stored factorization is the same computation as
    # a fresh factor-and-solve, so every reported quantity agrees bitwise
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    opts = fw.SolverOptions(n_trunc=8, quad_order=12, residual_tol=1e-2)
    base = fw.solve_rigid_scattering(ell, pwave, med_std, R, opts)
    for w in (
        fw.IncidentWave("p", (1.0, 0.0, 0.0)),
        fw.IncidentWave("s", (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)),
    ):
        again = base.resolve_incident(w)
        fresh = fw.solve_rigid_scattering(ell, w, med_std, R, opts)
        np.testing.assert_array_equal(again.coeff_vector, fresh.coeff_vector)
        assert again.residual_rel == fresh.residual_rel
        assert again.residual_rms == fresh.residual_rms
        assert again.rank == fresh.rank
        assert again.system.condition == fresh.system.condition
        assert again.system is base.system


def test_rank_deficient_system_raises(med_std, pwave, monkeypatch):
    # the cutoff 1e-4 makes sqrt(n) * ||R^-1||_F * cutoff >= 1 (about 1.9), so
    # the solve cannot rule out a singular value below the cutoff: it raises,
    # and the objective turns that into a rejected step
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    opts = fw.SolverOptions(n_trunc=8, residual_tol=0.05)
    sol = fw.solve_rigid_scattering(ell, pwave, med_std, R, opts)
    assert math.sqrt(sol.basis.ncols) * np.linalg.norm(sol.system.right) * 1e-4 >= 1
    ms = sol.measure(pwave, fw.fibonacci_sphere(20, R))
    monkeypatch.setattr(fw, "_RANK_CUTOFF", 1e-4)
    with pytest.raises(fw.SolverError, match="rank-deficient"):
        fw.solve_rigid_scattering(ell, pwave, med_std, R, opts)
    with pytest.raises(dv.ObjectiveError, match="rank-deficient"):
        dv.objective_and_gradient(ell, [ms], opts)


def test_seminormal_solve_matches_lstsq(pwave):
    # CSNE on the Cholesky R of the Gram matrix, with one refinement step,
    # against a dense least-squares reference on a real boundary system
    # (1518 x 673, kappa = sqrt(cols) ||R^-1||_F ~ 2.8e5, cond_2(A) ~ 2.5e4)
    # with the right-hand sides of the shape Jacobian; without the refinement
    # step the semi-normal solution is far less accurate.  Errors are
    # measured in the equilibrated unknowns c / colscale, the ones the
    # factorization solves for
    med = modal.Medium(2.0, 1.0, 3.0)
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    sol = fw.solve_rigid_scattering(ell, pwave, med, R, fw.SolverOptions(n_trunc=14, quad_order=18, residual_tol=1e-2))
    system = sol.system
    assert system.a.shape == (1518, 673)
    assert 1.75e5 < system.condition < 7e5
    assert system.condition == pytest.approx(math.sqrt(system.a.shape[1]) * np.linalg.norm(system.right), rel=1e-12)
    assert np.linalg.cond(system.a) <= system.condition
    q = geo.perturbation_q_table(ell, sol.sample)
    q = q[np.any(q != 0, axis=1)]
    dnu = dv.normal_derivative_total_field(sol, pwave)
    values = -(q[:, :, None] * dnu[None, :, :]).transpose(1, 2, 0)  # in the point frames, as A's rows
    bw = values.reshape(-1, q.shape[0]) * system.row_w[:, None]

    a = system.a
    ref = np.linalg.lstsq(a, bw, rcond=None)[0]
    err = np.linalg.norm(sol.solve_rhs(values) / system.colscale[:, None] - ref) / np.linalg.norm(ref)
    unrefined = system.right @ (system.right.conj().T @ (a.conj().T @ bw))
    err_unrefined = np.linalg.norm(unrefined - ref) / np.linalg.norm(ref)
    assert err <= 1e-11
    assert err * 10 <= err_unrefined


def test_frame_solve_matches_cartesian_lstsq(med_std, pwave):
    # the boundary system is assembled in each point's spherical frame; the
    # coefficients of the forward data and of the shape-Jacobian right-hand
    # sides must still be those of the Cartesian weighted least-squares
    # problem (data left unrotated gives errors of order one here)
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    sol = fw.solve_rigid_scattering(ell, pwave, med_std, R, fw.SolverOptions(n_trunc=8, residual_tol=0.05))
    sample = sol.sample
    w = np.repeat(np.sqrt(sample.weights), 3)[:, None]
    aw = sol.basis.matrix() * w
    data = -fw.incident_field(pwave, med_std, sample.points)[0]
    q = geo.perturbation_q_table(ell, sample)
    q = q[np.any(q != 0, axis=1)]
    dnu = dv.normal_derivative_total_field(sol, pwave)
    rhs = -(q[:, :, None] * dnu[None, :, :]).transpose(1, 2, 0)  # in the point frames
    cartesian_rhs = frame_to_cartesian(sol.basis, rhs)
    for coeffs, values in ((sol.coeff_vector[:, None], data[:, :, None]), (sol.solve_rhs(rhs), cartesian_rhs)):
        ref = np.linalg.lstsq(aw, values.reshape(-1, values.shape[2]) * w, rcond=None)[0]
        assert np.linalg.norm(coeffs - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 298])
def test_triangular_inverse(rng, n):
    r = np.linalg.qr(rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n)), mode="r")
    for lower, t in ((False, r.copy()), (True, np.ascontiguousarray(r.conj().T))):
        ref = np.linalg.inv(t)
        assert fw._trtri(t, lower) == 0  # written over its input
        assert np.all((np.triu(t, 1) if lower else np.tril(t, -1)) == 0)
        assert np.linalg.norm(t - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_blocked_gram_and_cholesky(rng, n):
    a = rng.standard_normal((2 * n + 3, n)) + 1j * rng.standard_normal((2 * n + 3, n))
    ref_gram = a.conj().T @ a
    gram = fw._gram(a)
    assert np.all(np.triu(gram, 1) == 0)
    assert np.linalg.norm(np.tril(gram - ref_gram)) <= 1e-13 * np.linalg.norm(ref_gram)
    ref = np.linalg.cholesky(ref_gram)
    assert fw._potrf(gram) == 0  # written over its input
    assert np.all(np.triu(gram, 1) == 0)  # R = L^H: its strict lower triangle is exactly zero
    assert np.linalg.norm(gram - ref) <= 1e-13 * np.linalg.norm(ref)


def test_blocked_cholesky_rejects_indefinite_matrix(rng, monkeypatch):
    n = 300
    x = rng.standard_normal((n + 5, n)) + 1j * rng.standard_normal((n + 5, n))
    g = x.conj().T @ x
    g[-1, -1] = -1.0
    assert fw._potrf(g) == n  # the first leading minor that is not positive definite
    # a Gram matrix that turns indefinite the same way inside _factor sends it
    # to the Householder R
    potrf = fw._potrf

    def indefinite_potrf(gram):
        gram[-1, -1] = -1.0
        return potrf(gram)

    monkeypatch.setattr(fw, "_potrf", indefinite_potrf)
    right, _, condition = fw._factor(x)
    ref = np.linalg.inv(np.linalg.qr(x, mode="r"))  # x is equilibrated now, as _factor saw it
    assert np.linalg.norm(right - ref) <= 1e-13 * np.linalg.norm(ref)
    assert condition == pytest.approx(math.sqrt(n) * np.linalg.norm(ref), rel=1e-12)


def test_lapack_integer_width():
    # the leading 2 x 2 block is positive definite and the whole matrix is
    # not, so info is 3; read through an integer of the wrong width, or with
    # the order passed wrongly, it would not be
    g = np.array([[4.0, 1.0j, 0.0], [-1.0j, 3.0, 2.0], [0.0, 2.0, 1.0]], dtype=complex)
    assert np.linalg.eigvalsh(g[:2, :2]).min() > 0 > np.linalg.eigvalsh(g).min()
    assert fw._potrf(g) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_system_raises(rng, bad):
    # zpotrf does not stop at a NaN pivot: a system with one non-finite entry
    # must still end in the typed failure, not in a NaN solution
    a = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    a[7, 3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(fw.SolverError, match="rank-deficient"):
        fw._factor(a)


def test_lapack_binding_names_the_symbols_it_tried(monkeypatch):
    class NoSymbols:
        pass

    monkeypatch.setattr(fw.ctypes, "CDLL", lambda path: NoSymbols())
    with pytest.raises(ImportError, match=r"scipy_zherk_64_.*zpotrf_64_.*ztrtri_$"):
        fw._bind_lapack()


def test_lapack_binding_maps_no_new_library():
    # the factorization routines come from the BLAS library that numpy has
    # already mapped.  Once numpy and every module outside elastoscat that
    # the CLI imports are loaded, importing the CLI and factoring one system
    # may map ctypes' own extension and libffi at most, no BLAS or LAPACK
    # library, and scipy stays unimported
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps (Linux)")
    env = dict(os.environ, PYTHONPATH=str(Path(fw.__file__).resolve().parents[1]))
    listing = "import json, sys, elastoscat.cli; print(json.dumps(list(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", listing], env=env, capture_output=True, text=True, check=True)
    deps = [m for m in json.loads(res.stdout) if m != "__main__" and m.split(".")[0] != "elastoscat"]
    code = """if True:
        import importlib, json, sys, numpy as np

        def mapped():
            with open("/proc/self/maps") as f:
                return {line.split()[-1] for line in f if ".so" in line.split()[-1]}

        for name in json.loads(sys.argv[1]):
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        before = mapped()
        import elastoscat.cli
        from elastoscat import forward
        forward._factor(a)
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"new": sorted(mapped() - before), "scipy": scipy}))
    """
    res = subprocess.run(
        [sys.executable, "-c", code, json.dumps(deps)], env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(res.stdout)
    assert out["scipy"] == []
    for lib in out["new"]:
        name = Path(lib).name
        assert "blas" not in name.lower() and "lapack" not in name.lower(), lib
        assert name.startswith(("_ctypes", "libffi")), lib


def test_solve_holds_one_square_matrix_besides_a(pwave):
    # one solve of the 1518 x 673 system holds A, the basis's harmonic factors
    # and radial tables and the one n x n buffer of Gram matrix, Cholesky
    # factor and R^-1, which LAPACK overwrites in place, with temporaries of
    # at most a tenth of an n x n matrix besides (measured: 24.84 MiB, that
    # is 1.03 n x n matrices besides A and the tables, against a bound of
    # 25.31 MiB)
    med = modal.Medium(2.0, 1.0, 3.0)
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    opts = fw.SolverOptions(n_trunc=14, quad_order=18, residual_tol=1e-2)
    # a first solve fills the quadrature caches and finishes numpy's lazy
    # imports, so that the traced peak is that of one solve in any test order
    fw.solve_rigid_scattering(ell, pwave, med, R, opts)
    tracemalloc.start()
    try:
        sol = fw.solve_rigid_scattering(ell, pwave, med, R, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    system = sol.system
    b = system.basis
    n = b.ncols
    assert system.a.shape == (1518, n)
    assert "ang" not in vars(b) and "ang2" not in vars(b)
    tables = sum(t.nbytes for t in (*b.harmonics, *b.rad_p, *b.rad_s, b.frame))
    assert peak <= system.a.nbytes + tables + 1.1 * n * n * 16
    # assembly holds at most two complex (npts, nmodes) angular tables besides
    # its output (measured: 2.28 tables; forming all three at once gave 3.24)
    tracemalloc.start()
    try:
        m = b.matrix(spherical=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m.nbytes + 2.5 * b.npts * b.nmodes * 16


def test_underdetermined_system_raises(med_std, pwave):
    # quad_order 3 would sample 28 nodes: 84 rows for the 241 columns of n_trunc 8
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    with pytest.raises(ValueError, match="below the truncation order"):
        fw.solve_rigid_scattering(ell, pwave, med_std, R, fw.SolverOptions(n_trunc=8, quad_order=3, residual_tol=1.0))


def test_singular_system_raises(rng):
    # a zero column makes R exactly singular
    a = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    a[:, 2] = 0.0
    with pytest.raises(fw.SolverError, match="rank-deficient"):
        fw._factor(a)


def test_residual_failure_is_typed(med_std, pwave, rng, monkeypatch):
    # only a residual above tolerance is a ResidualError, with the message of
    # any solver failure; a singular system stays a plain SolverError
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    opts = fw.SolverOptions(n_trunc=8, quad_order=12, residual_tol=1e-8)
    message = r"boundary residual .* \(relative\) exceeds tolerance 1\.0e-08 at truncation order 8"
    with pytest.raises(fw.ResidualError, match=message):
        fw.solve_rigid_scattering(ell, pwave, med_std, R, opts)
    ms = fw.solve_rigid_scattering(ell, pwave, med_std, R, fw.SolverOptions(n_trunc=8, residual_tol=0.05)).measure(
        pwave, fw.fibonacci_sphere(20, R)
    )
    with pytest.raises(dv.ObjectiveError) as err:
        dv.objective_and_gradient(ell, [ms], opts)
    assert type(err.value.__cause__) is fw.ResidualError
    a = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    a[:, 2] = 0.0
    with pytest.raises(fw.SolverError) as singular:
        fw._factor(a)
    assert type(singular.value) is fw.SolverError
    monkeypatch.setattr(fw, "_RANK_CUTOFF", 1e-4)
    with pytest.raises(dv.ObjectiveError) as err:
        dv.objective_and_gradient(ell, [ms], fw.SolverOptions(n_trunc=8, residual_tol=0.05))
    assert type(err.value.__cause__) is fw.SolverError
    # the CLI names --n-trunc for both
    for exc in (fw.ResidualError("residual"), fw.SolverError("rank-deficient")):
        with pytest.raises(click.BadParameter) as usage:
            with cli._solve_failures_as_usage_errors():
                raise exc
        assert usage.value.param_hint == "'--n-trunc'"


def _csne(a, right, b):
    """Corrected semi-normal solution with one refinement step, as BoundarySystem solves."""
    y = right @ (right.conj().T @ (a.conj().T @ b))
    return y + right @ (right.conj().T @ (a.conj().T @ (b - a @ y)))


def _spread_columns(rng):
    """300 x 80, unit-norm columns, singular values spread over 10^6.5."""

    def orthonormal(m, n):
        return np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))[0]

    a = (orthonormal(300, 80) * np.logspace(0, -6.5, 80)) @ orthonormal(80, 80).conj().T
    a /= np.linalg.norm(a, axis=0)
    return a


def test_ill_conditioned_system_falls_back_to_householder_r():
    # kappa^2 eps (2.2e-2) exceeds the Cholesky limit, and one refinement step
    # on the Cholesky R no longer recovers a QR solve, so _factor must keep
    # the Householder R.  Measured: error 2.9e-11, the Cholesky R's 142 times
    # that (over seeds 0-29 at most 6e-11, and at least 58 times); at a
    # spread of 10^8 the QR solve and lstsq already differ by about 7e-10
    rng = np.random.default_rng(5)
    a = _spread_columns(rng)
    b = a @ (rng.standard_normal(80) + 1j * rng.standard_normal(80))
    cholesky_r = np.linalg.cholesky(a.conj().T @ a).conj().T
    right, _, condition = fw._factor(a)
    assert condition**2 * np.finfo(float).eps > fw._CHOLESKY_LIMIT
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    err = np.linalg.norm(_csne(a, right, b) - ref) / np.linalg.norm(ref)
    err_cholesky = np.linalg.norm(_csne(a, np.linalg.inv(cholesky_r), b) - ref) / np.linalg.norm(ref)
    assert err <= 1e-10
    assert err_cholesky >= 100 * err


def test_fallback_releases_cholesky_buffer():
    # the fallback drops the n x n Cholesky buffer before np.linalg.qr copies
    # a: measured 4.86 n^2 complex entries in all, of which the copy of a is
    # 3.75 n^2; with the buffer kept alive through the QR it peaked at 5.86 n^2
    a = _spread_columns(np.random.default_rng(5))
    n = a.shape[1]
    tracemalloc.start()
    try:
        condition = fw._factor(a)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert condition**2 * np.finfo(float).eps > fw._CHOLESKY_LIMIT
    assert peak <= a.nbytes + 1.5 * n * n * 16


def _min_norm_reference(system, g):
    """W x with x the minimum-norm solution of A^H x = S g, from a dense lstsq."""
    x = np.linalg.lstsq(system.a.conj().T, system.colscale * g, rcond=None)[0]
    return (x * system.row_w).reshape(-1, 3)


def test_adjoint_solve_matches_lstsq_on_cholesky_r(pwave, rng):
    # the minimum-norm counterpart of test_seminormal_solve_matches_lstsq, on
    # the same 1518 x 673 system, with the right-hand side M^H r of the
    # objective gradient; without the refinement step the error is far larger
    # (measured: 5.9e-13 refined, 5.8e-10 unrefined)
    med = modal.Medium(2.0, 1.0, 3.0)
    ell = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    sol = fw.solve_rigid_scattering(ell, pwave, med, R, fw.SolverOptions(n_trunc=14, quad_order=18, residual_tol=1e-2))
    system = sol.system
    assert system.a.shape == (1518, 673)
    assert system.condition**2 * np.finfo(float).eps <= fw._CHOLESKY_LIMIT
    m = system.measurement_matrix(fw.fibonacci_sphere(100, R))
    r = rng.standard_normal(m.shape[0]) + 1j * rng.standard_normal(m.shape[0])
    g = np.conjugate(m.T @ np.conjugate(r))
    ref = _min_norm_reference(system, g)
    err = np.linalg.norm(system.adjoint_solve(g) - ref) / np.linalg.norm(ref)
    unrefined = (system.a @ system._gram_inverse(system.colscale * g) * system.row_w).reshape(-1, 3)
    err_unrefined = np.linalg.norm(unrefined - ref) / np.linalg.norm(ref)
    assert err <= 1e-11
    assert err * 10 <= err_unrefined


def test_adjoint_solve_matches_lstsq_on_householder_r(rng):
    # on the ill-conditioned columns that take the Householder R; the solve is
    # then at the accuracy of the lstsq reference itself (measured 1.1e-10,
    # cond_2 3.0e6; the unrefined solve is only 1.5 times further off),
    # so only the accuracy is asserted.  The rows are weighted unevenly to
    # check that W is applied
    a = _spread_columns(np.random.default_rng(5))
    right, colscale, condition = fw._factor(a)
    assert condition**2 * np.finfo(float).eps > fw._CHOLESKY_LIMIT
    row_w = rng.uniform(0.5, 1.5, a.shape[0])
    # only the matrix, its factor and its scalings take part in the solve
    system = fw.BoundarySystem(None, None, None, None, right, colscale, row_w, a, condition)
    g = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    ref = _min_norm_reference(system, g)
    z = system.adjoint_solve(g)
    assert z.shape == (a.shape[0] // 3, 3)
    assert np.linalg.norm(z - ref) <= 1e-9 * np.linalg.norm(ref)


def test_resolve_checks_its_own_residual(med_std, pwave, rng):
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    opts = fw.SolverOptions(n_trunc=8, quad_order=12, residual_tol=1e-2)
    base = fw.solve_rigid_scattering(ell, pwave, med_std, R, opts)
    assert base.residual_rel <= 1e-2
    # white noise on the nodes lies far outside the span of the basis traces
    noise = rng.standard_normal((base.sample.npts, 3))
    with pytest.raises(fw.SolverError):
        base.resolve(noise)
    with pytest.raises(ValueError):
        base.resolve(noise[:-1])


def test_nan_dirichlet_data_raises(med_std, pwave):
    # a NaN residual must not pass the residual check
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    opts = fw.SolverOptions(n_trunc=6, quad_order=10, residual_tol=1e-2)
    base = fw.solve_rigid_scattering(ell, pwave, med_std, R, opts)
    data = np.zeros((base.sample.npts, 3))
    data[0, 1] = math.nan
    with pytest.raises(fw.SolverError):
        fw.solve_exterior_dirichlet(ell, data, med_std, R, opts)
    with pytest.raises(fw.SolverError):
        base.resolve(data)


def test_measurement_matrix_cache_keys(med_std, pwave, rng):
    # permuted points, another truncation and another medium each get their
    # own read-only matrix, bitwise equal to a fresh build
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    pts = fw.fibonacci_sphere(30, R)
    perm = rng.permutation(30)
    med2 = modal.Medium(med_std.lam, med_std.mu, 1.5)
    cases = [(6, med_std, pts), (6, med_std, pts[perm]), (7, med_std, pts), (6, med2, pts)]
    seen = []
    for n, med, p in cases:
        sol = fw.solve_rigid_scattering(ell, pwave, med, R, fw.SolverOptions(n_trunc=n, quad_order=n + 4, residual_tol=1.0))
        a = sol.system.measurement_matrix(p)
        assert sol.system.measurement_matrix(p.copy()) is a
        fresh = WaveBasis(med.kappa_p, med.kappa_s, R, n, p).matrix()
        np.testing.assert_array_equal(a.view(np.uint64), fresh.view(np.uint64))
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
        assert all(a is not b for b in seen)
        seen.append(a)


def test_resolve_incident_siblings_share_one_system(med_std, pwave, monkeypatch):
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    base = fw.solve_rigid_scattering(ell, pwave, med_std, R, fw.SolverOptions(n_trunc=6, quad_order=10, residual_tol=1e-1))
    waves = [fw.IncidentWave("p", (1.0, 0.0, 0.0)), fw.IncidentWave("s", (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))]
    siblings = [base.resolve_incident(w) for w in waves]
    assert all(s.system is base.system for s in siblings)
    calls = []
    init = WaveBasis.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WaveBasis, "__init__", counted)
    for sol, w in zip([base, *siblings], [pwave, *waves]):
        dv.normal_derivative_total_field(sol, w)
    assert calls == []  # every normal derivative runs on the system's own basis


def test_solution_radiation_condition(med_std, pwave, rng):
    # the Sommerfeld defect d_r phi - i kp phi decays like 1/r^2: its
    # r-weighted form falls like 1/r and its plain magnitude at 50 R is far
    # below the field scale at R
    sol = fw.solve_rigid_scattering(geo.sphere_coeffs(0.75, 1), pwave, med_std, R)
    kp = med_std.kappa_p
    weighted = {}
    for r_far in (10.0 * R, 50.0 * R):
        pts_far = sf.sph_to_cart(np.full(10, r_far), rng.uniform(0.3, 2.8, 10), rng.uniform(0, 6.28, 10))
        phi, dphi = eval_scalar_potential(sol.potentials, med_std, R, pts_far)
        weighted[r_far] = np.abs(r_far * (dphi - 1j * kp * phi)).max()
    assert weighted[50.0 * R] < weighted[10.0 * R] / 3.5
    pts_near = sf.sph_to_cart(np.full(10, R), rng.uniform(0.3, 2.8, 10), rng.uniform(0, 6.28, 10))
    v_near = sol.evaluate(pts_near)
    assert weighted[50.0 * R] / (50.0 * R) < 1e-3 * np.abs(v_near).max()


def test_solution_energy_flux_signs(med_std, pwave):
    # Im <T1 phi, phi> >= 0 and Re <T2 psi_t, psi_t> >= 0 at the solution trace
    sol = fw.solve_rigid_scattering(geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1), pwave, med_std, R,
                                    fw.SolverOptions(n_trunc=12, quad_order=16, residual_tol=1e-3))
    pot = sol.potentials
    q1 = np.vdot(pot.data[:, 0], modal.apply_T1(pot.data[:, 0], med_std, R))
    assert q1.imag >= 0
    # tangential trace pair of the vector potential: ((1+z_n) psi3 / sqrt(nn1), psi2)
    order = pot.order
    zs = np.array([z_log_derivative(n, med_std.kappa_s * R) for n in range(order + 1)])
    tang = np.zeros((pot.data.shape[0], 2), dtype=complex)
    for n in range(1, order + 1):
        sl = slice(n * n, (n + 1) ** 2)
        tang[sl, 0] = (1 + zs[n]) * pot.data[sl, 2] / math.sqrt(n * (n + 1))
        tang[sl, 1] = pot.data[sl, 1]
    q2 = np.vdot(tang.ravel(), modal.apply_T2(tang, med_std, R).ravel())
    assert q2.real >= 0


# ---------------------------------------------------------------------------
# Scattering operator and measurements
# ---------------------------------------------------------------------------


def test_tiny_obstacle_weak_scattering(med_std, pwave):
    for a in (1e-2, 1e-3):
        sp = geo.sphere_coeffs(a, 1)
        opts = fw.SolverOptions(n_trunc=6, quad_order=10)
        ms = fw.solve_rigid_scattering(sp, pwave, med_std, R, opts).measure(pwave, fw.fibonacci_sphere(40, R))
        u_inc = fw.incident_field(pwave, med_std, ms.points)[0]
        assert np.abs(ms.u - u_inc).max() < 5.0 * a


def test_sphere_scattering_matches_block_series(med_std, pwave):
    a = 0.75
    sol_pot = sphere_block_solve(a, med_std, R, 16, lambda pts: -fw.incident_field(pwave, med_std, pts)[0])
    pts = fw.fibonacci_sphere(25, R)
    v_oracle = eval_radiating_field(modal.PotentialCoeffs(16, sol_pot), med_std, R, pts)
    u_oracle = fw.incident_field(pwave, med_std, pts)[0] + v_oracle
    ms = fw.solve_rigid_scattering(geo.sphere_coeffs(a, 1), pwave, med_std, R).measure(pwave, pts)
    assert np.abs(ms.u - u_oracle).max() < 1e-8 * np.abs(u_oracle).max()


def test_total_field_boundary_identity(med_std, pwave):
    # modal check of B u = T u + g with g = (B - T) u_inc on the sphere
    sol = fw.solve_rigid_scattering(geo.sphere_coeffs(0.75, 1), pwave, med_std, R)
    order = 10
    quad = sf.sphere_quadrature(order + 2)
    pts = sf.sph_to_cart(R, quad.theta, quad.phi)
    u_inc, g_inc = fw.incident_field(pwave, med_std, pts)
    e_r = sf.spherical_frame(quad.theta, quad.phi)[0]
    d_r = np.einsum("pil,pl->pi", g_inc, e_r)
    div = np.trace(g_inc, axis1=1, axis2=2)
    b_inc_pointwise = med_std.mu * d_r + (med_std.lam + med_std.mu) * div[:, None] * e_r

    u_inc_coeffs = R * vsh_expand(u_inc, quad, order)
    b_inc_coeffs = R * vsh_expand(b_inc_pointwise, quad, order)

    v_coeffs = modal.potentials_to_displacement(sol.potentials, med_std, R).data[: (order + 1) ** 2]
    u_coeffs = modal.DisplacementCoeffs(order, u_inc_coeffs + v_coeffs, radius=R)

    p_head = modal.PotentialCoeffs(order, sol.potentials.data[: (order + 1) ** 2])
    b_v = modal.traction_from_potentials(p_head, med_std, R).data
    b_u = b_inc_coeffs + b_v

    t_u = modal.apply_T(u_coeffs, med_std, R).data
    g = b_inc_coeffs - modal.apply_T(modal.DisplacementCoeffs(order, u_inc_coeffs, radius=R), med_std, R).data
    resid = b_u - (t_u + g)
    assert np.abs(resid).max() < 1e-6 * np.abs(b_u).max()


def test_fibonacci_points(med_std):
    pts = fw.fibonacci_sphere(100, R)
    assert pts.shape == (100, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - R).max() < 1e-12
    assert np.abs(pts[:, 2]).max() < 1.0  # no poles


def test_measurement_json_roundtrip(tmp_path, med_std, pwave, rng):
    pts = fw.fibonacci_sphere(10, R)
    u = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    ms = fw.MeasurementSet(R, med_std, pwave, pts, u, delta=0.05, seed=3)
    path = tmp_path / "ms.json"
    ms.save(path)
    back = fw.MeasurementSet.load(path)
    np.testing.assert_array_equal(back.u, ms.u)
    np.testing.assert_array_equal(back.points, ms.points)
    assert back.med == ms.med and back.incident == ms.incident
    assert back.delta == 0.05 and back.seed == 3


def test_save_writes_json_dump_bytes(tmp_path, med_std, pwave, rng):
    pts = fw.fibonacci_sphere(10, R)
    u = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    ms = fw.MeasurementSet(R, med_std, pwave, pts, u, delta=0.05, seed=3)
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 2)
    for obj in (ms, sp):
        ref = io.StringIO()
        json.dump(obj.to_json_dict(), ref)
        ref.write("\n")
        path = tmp_path / "saved.json"
        obj.save(path)
        assert path.read_bytes() == ref.getvalue().encode()


def test_measurement_point_validation(med_std, pwave):
    with pytest.raises(ValueError):
        fw.MeasurementSet(R, med_std, pwave, np.array([[0.5, 0, 0]]), np.zeros((1, 3), dtype=complex))


def test_measurement_shape_validation(tmp_path, med_std, pwave):
    pts = fw.fibonacci_sphere(10, R)
    with pytest.raises(ValueError):
        fw.MeasurementSet(R, med_std, pwave, pts, np.zeros((7, 3), dtype=complex))
    ms = fw.MeasurementSet(R, med_std, pwave, pts, np.ones((10, 3), dtype=complex))
    d = ms.to_json_dict()
    d["u"] = d["u"][:7]
    with pytest.raises(ValueError):
        fw.MeasurementSet.from_json_dict(d)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def test_noise_zero_is_identity(med_std, pwave, rng):
    pts = fw.fibonacci_sphere(20, R)
    u = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    ms = fw.MeasurementSet(R, med_std, pwave, pts, u)
    noisy = fw.add_noise(ms, 0.0, seed=1)
    np.testing.assert_array_equal(noisy.u, ms.u)


def test_noise_bounded_and_deterministic(med_std, pwave, rng):
    pts = fw.fibonacci_sphere(50, R)
    u = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    ms = fw.MeasurementSet(R, med_std, pwave, pts, u)
    n1 = fw.add_noise(ms, 0.05, seed=11)
    n2 = fw.add_noise(ms, 0.05, seed=11)
    np.testing.assert_array_equal(n1.u, n2.u)
    rel = np.abs(n1.u - ms.u) / np.abs(ms.u)
    assert rel.max() <= 0.05 + 1e-12
    n3 = fw.add_noise(ms, 0.05, seed=12)
    assert not np.array_equal(n3.u, n1.u)
    with pytest.raises(ValueError):
        fw.add_noise(ms, -0.1, seed=0)
