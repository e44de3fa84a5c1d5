import numpy as np
import pytest

from elastoscat import derivative as dv, forward as fw, geometry as geo, inverse as inv, modal, specfun as sf
from elastoscat.wavefields import WaveBasis

from oracles import basis_gradient, decode_coeff_index, encode_coeff_index, frame_to_cartesian, jacobian_gradient

R = 1.0
MED = modal.Medium(2.0, 1.0, 2.0)
PW = fw.IncidentWave("p", (0.0, 1.0, 0.0))
OPTS = fw.SolverOptions(n_trunc=12, quad_order=16, residual_tol=1e-3)


@pytest.fixture(scope="module")
def ell_solution():
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    sol = fw.solve_rigid_scattering(ell, PW, MED, R, OPTS)
    return ell, sol


@pytest.fixture(scope="module")
def meas_points():
    return fw.fibonacci_sphere(50, R)


def test_tangential_derivative_vanishes(ell_solution):
    # u = 0 on the boundary forces grad u = nu (d_nu u); checked at a
    # truncation where the boundary residual is ~2e-6
    ell = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    opts = fw.SolverOptions(n_trunc=14, quad_order=18, residual_tol=1e-4)
    sol = fw.solve_rigid_scattering(ell, PW, MED, R, opts)
    dnu = frame_to_cartesian(sol.basis, dv.normal_derivative_total_field(sol, PW))
    grads = fw.incident_field(PW, MED, sol.sample.points)[1] + basis_gradient(sol.basis, sol.coeff_vector)
    _, d_t, d_p = geo.surface_points(ell, sol.sample.theta, sol.sample.phi)
    for tangent in (d_t, d_p):
        tau = tangent / np.linalg.norm(tangent, axis=1, keepdims=True)
        tang = np.einsum("pil,pl->pi", grads, tau)
        assert np.abs(tang).max() < 1e-4 * np.abs(dnu).max()


def test_normal_derivative_vs_fd(ell_solution):
    ell, sol = ell_solution
    sample = sol.sample
    take = slice(0, 40)
    pts = sample.points[take]
    nus = sample.normals[take]

    def total(p):
        return fw.incident_field(PW, MED, p)[0] + sol.evaluate(p)

    h = 1e-6
    fd = (total(pts + h * nus) - total(pts - h * nus)) / (2 * h)
    dnu = frame_to_cartesian(sol.basis, dv.normal_derivative_total_field(sol, PW))[take]
    assert np.abs(fd - dnu).max() < 1e-5 * np.abs(dnu).max()


def test_structurally_zero_columns(ell_solution, meas_points):
    ell, sol = ell_solution
    nmodes = (ell.order + 1) ** 2
    jac = dv.shape_jacobian(ell, sol, PW, meas_points)
    # Im Y_n^0 entries contribute nothing: q identically zero
    for block in (1, 3, 5):  # b_1, b_2, b_3 blocks
        for n in (0, 1):
            assert np.all(jac.column(block * nmodes + sf.flatten_index(n, 0)) == 0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jacobian_mirror_columns_are_signed_copies(order, meas_points):
    # only the distinct +-m columns are solved; each (n, -m) column is bitwise
    # +-1 times its (n, m) column, and the whole matrix agrees with solving
    # every one of the 6 (N+1)^2 right-hand sides
    sp = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, order)
    sol = fw.solve_rigid_scattering(sp, PW, MED, R, fw.SolverOptions(n_trunc=8, quad_order=12, residual_tol=1e-1))
    jac = dv.shape_jacobian(sp, sol, PW, meas_points)
    for i in range(1, geo.coeff_length(order) + 1):
        j, imag, n, m = decode_coeff_index(i, order)
        if m < 0:
            sign = (-1) ** m * (-1 if imag else 1)
            mirror = jac.column(encode_coeff_index(j, imag, n, -m, order))
            assert np.array_equal(jac.column(i), sign * mirror)
    q = geo.perturbation_q_table(sp, sol.sample)
    dnu = dv.normal_derivative_total_field(sol, PW)
    full = sol.system.measurement_matrix(meas_points) @ sol.solve_rhs(-(q[:, :, None] * dnu[None, :, :]).transpose(1, 2, 0))
    assert np.linalg.norm(jac.matrix - full) <= 1e-13 * np.linalg.norm(full)


def test_jacobian_column_index_range(ell_solution, meas_points):
    ell, sol = ell_solution
    jac = dv.shape_jacobian(ell, sol, PW, meas_points)
    ncoeffs = geo.coeff_length(ell.order)
    assert jac.column(ncoeffs).shape == (len(meas_points), 3)
    for i in (0, ncoeffs + 1):
        with pytest.raises(ValueError):
            jac.column(i)


def test_jacobian_directional_homogeneity(ell_solution, meas_points, rng):
    ell, sol = ell_solution
    jac = dv.shape_jacobian(ell, sol, PW, meas_points)
    e = rng.standard_normal(jac.matrix.shape[1])
    lhs = jac.matrix @ (2.5 * e)
    rhs = 2.5 * (jac.matrix @ e)
    assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()


def test_fd_quotient_decay(ell_solution, meas_points, rng):
    ell, sol = ell_solution
    jac = dv.shape_jacobian(ell, sol, PW, meas_points)
    f0 = sol.measure(PW, meas_points).u
    nmodes = (ell.order + 1) ** 2
    live = [i for i in range(1, 6 * nmodes + 1) if np.linalg.norm(jac.column(i)) > 0]
    for i in rng.choice(live, size=4, replace=False):
        col = jac.column(i)
        nrm = np.linalg.norm(col)
        quots = []
        for h in (1e-2, 1e-4):
            spp = ell.copy()
            spp.coeffs[i - 1] += h
            fp = fw.solve_rigid_scattering(spp, PW, MED, R, OPTS).measure(PW, meas_points).u
            quots.append(np.linalg.norm((fp - f0) / h - col) / nrm)
        assert quots[1] < quots[0] / 5.0


def test_sphere_radial_inflation_matches_radius_derivative(meas_points):
    # the coefficient direction d C(sphere)/d a realizes a uniform radial
    # perturbation; its Jacobian action must match differentiating the
    # analytic sphere solution with respect to the radius
    a = 0.6
    sp = geo.sphere_coeffs(a, 1)
    opts = fw.SolverOptions(n_trunc=10, quad_order=14, residual_tol=1e-6)
    sol = fw.solve_rigid_scattering(sp, PW, MED, R, opts)
    jac = dv.shape_jacobian(sp, sol, PW, meas_points)
    direction = geo.sphere_coeffs(1.0, 1).coeffs  # dC/da
    deriv = (jac.matrix @ direction).reshape(-1, 3)
    h = 1e-5
    up = fw.solve_rigid_scattering(geo.sphere_coeffs(a + h, 1), PW, MED, R, opts).measure(PW, meas_points).u
    um = fw.solve_rigid_scattering(geo.sphere_coeffs(a - h, 1), PW, MED, R, opts).measure(PW, meas_points).u
    fd = (up - um) / (2 * h)
    assert np.abs(fd - deriv).max() < 1e-4 * np.abs(deriv).max()


def test_derivative_fields_satisfy_transparent_condition(ell_solution, meas_points):
    # each u'_i is itself radiating: its trace satisfies the modal boundary
    # identity to high accuracy
    ell, sol = ell_solution
    dnu = dv.normal_derivative_total_field(sol, PW)
    q = geo.perturbation_q_table(ell, sol.sample)[1]  # a_1 block, mode (1, -1)
    assert np.abs(q).max() > 0
    coeff = sol.solve_rhs(-q[:, None] * dnu)
    pot = modal.PotentialCoeffs(sol.order, sol.basis.potentials_from_vector(coeff))
    b_series = modal.traction_from_potentials(pot, MED, R)
    b_dtn = modal.apply_T(modal.potentials_to_displacement(pot, MED, R), MED, R)
    assert np.abs(b_series.data - b_dtn.data).max() < 1e-6 * np.abs(b_series.data).max()


# ---------------------------------------------------------------------------
# Objective and gradient
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ellipsoid_dataset():
    truth = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    data_opts = fw.SolverOptions(n_trunc=18, quad_order=22, residual_tol=1e-3)
    return fw.solve_rigid_scattering(truth, PW, MED, R, data_opts).measure(PW, fw.fibonacci_sphere(100, R))


def test_objective_at_truth_is_residual_floor():
    truth = geo.sphere_coeffs(0.75, 1)
    data_opts = fw.SolverOptions(n_trunc=18, quad_order=22)
    ms = fw.solve_rigid_scattering(truth, PW, MED, R, data_opts).measure(PW, fw.fibonacci_sphere(100, R))
    f = dv.objective_and_gradient(truth, [ms], fw.SolverOptions(n_trunc=14, quad_order=18), with_gradient=False)
    assert f < 1e-10


def test_objective_invariant_under_point_relabeling(ellipsoid_dataset, rng):
    ms = ellipsoid_dataset
    c = geo.ellipsoid_coeffs(0.72, 0.74, 0.78, 1)
    f1 = dv.objective_and_gradient(c, [ms], OPTS, with_gradient=False)
    perm = rng.permutation(len(ms.points))
    ms2 = fw.MeasurementSet(ms.radius, ms.med, ms.incident, ms.points[perm], ms.u[perm])
    f2 = dv.objective_and_gradient(c, [ms2], OPTS, with_gradient=False)
    assert abs(f1 - f2) < 1e-12 * max(1.0, f1)


def test_gradient_matches_central_fd(ellipsoid_dataset, rng):
    ms = ellipsoid_dataset
    c = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    c.coeffs = c.coeffs + 0.03 * rng.standard_normal(c.coeffs.shape)
    f, g = dv.objective_and_gradient(c, [ms], OPTS)
    h = 1e-6
    idx = rng.choice(len(g), size=6, replace=False)
    for i in idx:
        cp, cm = c.copy(), c.copy()
        cp.coeffs[i] += h
        cm.coeffs[i] -= h
        fp = dv.objective_and_gradient(cp, [ms], OPTS, with_gradient=False)
        fm = dv.objective_and_gradient(cm, [ms], OPTS, with_gradient=False)
        fd = (fp - fm) / (2 * h)
        assert abs(g[i] - fd) < 1e-4 * max(abs(fd), 1e-3 * np.abs(g).max())


def test_gradient_fd_at_random_admissible_surfaces(ellipsoid_dataset, rng):
    # consistency away from the truth as well
    ms = ellipsoid_dataset
    h = 1e-6
    for _ in range(3):
        c = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
        c.coeffs = c.coeffs + 0.05 * rng.standard_normal(c.coeffs.shape)
        f, g = dv.objective_and_gradient(c, [ms], OPTS)
        i = int(np.argmax(np.abs(g)))
        cp, cm = c.copy(), c.copy()
        cp.coeffs[i] += h
        cm.coeffs[i] -= h
        fd = (
            dv.objective_and_gradient(cp, [ms], OPTS, with_gradient=False)
            - dv.objective_and_gradient(cm, [ms], OPTS, with_gradient=False)
        ) / (2 * h)
        assert abs(g[i] - fd) < 1e-4 * abs(fd)


def test_objective_failure_raises(ellipsoid_dataset):
    ms = ellipsoid_dataset
    broken = geo.SurfaceParam(1, np.zeros(24))  # degenerate surface
    with pytest.raises(dv.ObjectiveError):
        dv.objective_and_gradient(broken, [ms], OPTS)
    tight = fw.SolverOptions(n_trunc=6, quad_order=10, residual_tol=1e-12)
    c = geo.ellipsoid_coeffs(0.7, 0.75, 0.8, 1)
    with pytest.raises(dv.ObjectiveError):
        dv.objective_and_gradient(c, [ms], tight)


def test_objective_sums_over_bundle(ellipsoid_dataset):
    ms = ellipsoid_dataset
    c = geo.ellipsoid_coeffs(0.72, 0.74, 0.78, 1)
    f1, g1 = dv.objective_and_gradient(c, [ms], OPTS)
    f2, g2 = dv.objective_and_gradient(c, [ms, ms], OPTS)
    assert f2 == pytest.approx(2 * f1, rel=1e-12)
    np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)


def test_summed_objective_is_sum_of_single_calls(ellipsoid_dataset):
    # the second direction is re-solved against the first one's factorization;
    # that must give exactly what its own solve gives
    ms = ellipsoid_dataset
    other = fw.MeasurementSet(ms.radius, ms.med, fw.IncidentWave("p", (0.0, 0.0, 1.0)), ms.points, ms.u)
    c = geo.ellipsoid_coeffs(0.72, 0.74, 0.78, 1)
    f1, g1 = dv.objective_and_gradient(c, [ms], OPTS)
    f2, g2 = dv.objective_and_gradient(c, [other], OPTS)
    f, g = dv.objective_and_gradient(c, [ms, other], OPTS)
    assert f == f1 + f2
    np.testing.assert_array_equal(g, g1 + g2)
    assert dv.objective_and_gradient(c, [ms, other], OPTS, with_gradient=False) == f


def test_eval_cache_keyed_on_points(ellipsoid_dataset, rng):
    # same frequency, radius and point count, different point order: a cached
    # measurement matrix of one set must not serve the other
    ms = ellipsoid_dataset
    perm = rng.permutation(len(ms.points))
    ms2 = fw.MeasurementSet(ms.radius, ms.med, ms.incident, ms.points[perm], ms.u[perm])
    c = geo.ellipsoid_coeffs(0.72, 0.74, 0.78, 1)
    dv.objective_and_gradient(c, [ms], OPTS)
    f_cached, g_cached = dv.objective_and_gradient(c, [ms2], OPTS)
    fw._measurement_matrix.cache_clear()
    f_fresh, g_fresh = dv.objective_and_gradient(c, [ms2], OPTS)
    assert f_cached == f_fresh
    np.testing.assert_array_equal(g_cached, g_fresh)


def test_programming_errors_are_not_rejected_steps(ellipsoid_dataset, monkeypatch):
    def broken_solve(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(dv, "solve_rigid_scattering", broken_solve)
    c = geo.ellipsoid_coeffs(0.72, 0.74, 0.78, 1)
    with pytest.raises(TypeError):
        dv.objective_and_gradient(c, [ellipsoid_dataset], OPTS)


def _synthesized(truth, omegas, waves, points):
    """Noise-free data of ``truth`` for every (omega, wave) pair, on the medium (2, 1)."""
    opts = fw.SolverOptions(n_trunc=12, residual_tol=1e-2)
    return [
        fw.solve_rigid_scattering(truth, w, med, R, opts).measure(w, points)
        for med in (modal.Medium(2.0, 1.0, omega) for omega in omegas)
        for w in waves
    ]


_WAVES = (PW, fw.IncidentWave("p", (0.0, 0.0, 1.0)), fw.IncidentWave("s", (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))


@pytest.mark.parametrize(
    "sp, omegas, waves, n_trunc, householder",
    [
        (geo.ellipsoid_coeffs(0.62, 0.73, 0.88, 2), (2.0,), _WAVES[:1], 10, False),
        # kappa 9.1e6: past the Cholesky limit, so R comes from the Householder QR
        (geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1), (1.0,), _WAVES[:1], 16, True),
        # six datasets on two systems: the sum runs over both
        (geo.ellipsoid_coeffs(0.62, 0.73, 0.88, 2), (1.0, 2.0), _WAVES, 8, False),
    ],
    ids=["cholesky", "householder", "two-frequency-bundle"],
)
def test_adjoint_gradient_matches_jacobian(sp, omegas, waves, n_trunc, householder):
    # the adjoint solve must give the Re(J^H r) of the full Jacobian, also
    # where the system is too ill-conditioned for the Cholesky R
    data = _synthesized(geo.ellipsoid_coeffs(0.66, 0.72, 0.85, 2), omegas, waves, fw.fibonacci_sphere(60, R))
    opts = fw.SolverOptions(n_trunc=n_trunc, residual_tol=1e-1)
    for omega in omegas:
        ds = next(d for d in data if d.med.omega == omega)
        condition = fw.solve_rigid_scattering(sp, ds.incident, ds.med, R, opts).system.condition
        assert (condition**2 * np.finfo(float).eps > fw._CHOLESKY_LIMIT) == householder
    _, g = dv.objective_and_gradient(sp, data, opts)
    ref = jacobian_gradient(sp, data, opts)
    assert np.linalg.norm(g - ref) <= 1e-10 * np.linalg.norm(ref)


def test_interleaved_bundle_takes_one_derivative_per_system(monkeypatch):
    # [(w1, d1), (w2, d1), (w1, d2), (w2, d2)]: the normal derivatives of each
    # frequency's two solutions come from one batched call on its system, and
    # f and g are still the input-order sums of the single-dataset calls
    data = _synthesized(geo.ellipsoid_coeffs(0.66, 0.72, 0.85, 2), (1.0, 2.0), _WAVES[:2], fw.fibonacci_sphere(40, R))
    bundle = [data[0], data[2], data[1], data[3]]
    sp = geo.ellipsoid_coeffs(0.62, 0.73, 0.88, 2)
    opts = fw.SolverOptions(n_trunc=8, residual_tol=1e-1)
    columns = []
    real = WaveBasis._derivative_frame

    def counted(self, nu, c, tables):
        columns.append(c.shape[1])
        return real(self, nu, c, tables)

    monkeypatch.setattr(WaveBasis, "_derivative_frame", counted)
    singles = [dv.objective_and_gradient(sp, [ds], opts) for ds in bundle]
    assert columns == [1, 1, 1, 1]
    columns.clear()
    f, g = dv.objective_and_gradient(sp, bundle, opts)
    assert columns == [2, 2]
    f_sum, g_sum = 0.0, np.zeros_like(g)
    for fi, gi in singles:
        f_sum += fi
        g_sum += gi
    assert f == f_sum
    np.testing.assert_array_equal(g, g_sum)
    columns.clear()
    assert dv.objective_and_gradient(sp, bundle, opts, with_gradient=False) == f
    assert columns == []


def test_descent_builds_no_jacobian(ellipsoid_dataset, monkeypatch):
    # the gradient comes from one adjoint solve per dataset: neither the
    # Jacobian nor any batch of extra right-hand sides is formed
    def forbidden(*args, **kwargs):
        raise AssertionError("the descent formed the shape Jacobian")

    monkeypatch.setattr(dv, "shape_jacobian", forbidden)
    monkeypatch.setattr(fw.ScatteredSolution, "solve_rhs", forbidden)
    c = geo.ellipsoid_coeffs(0.72, 0.74, 0.78, 1)
    f, g = dv.objective_and_gradient(c, [ellipsoid_dataset], OPTS)
    assert np.isfinite(f) and np.all(np.isfinite(g)) and np.abs(g).max() > 0
    state = inv.continuation_run([ellipsoid_dataset], inv.FrequencySchedule((MED.omega,), iterations=1), n_trunc=10)
    assert len(state.history) >= 1
