import dataclasses

import numpy as np
import pytest

from elastoscat import forward as fw, geometry as geo, inverse as inv, modal
from elastoscat.derivative import ObjectiveError

R = 1.0
PW = fw.IncidentWave("p", (0.0, 1.0, 0.0))


def synth_dataset(surface, omega, kpoints=100, delta=0.0, seed=0, margin=4):
    med = modal.Medium(2.0, 1.0, omega)
    n = modal.default_truncation(med.kappa_s, R) + margin
    opts = fw.SolverOptions(n_trunc=n, quad_order=n + 4, residual_tol=2e-2)
    ms = fw.solve_rigid_scattering(surface, PW, med, R, opts).measure(PW, fw.fibonacci_sphere(kpoints, R))
    if delta > 0:
        ms = fw.add_noise(ms, delta, seed)
    return ms


@pytest.fixture(scope="module")
def sphere_dataset():
    return synth_dataset(geo.sphere_coeffs(0.55, 1), 1.0)


# ---------------------------------------------------------------------------
# Schedule and initial guess
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        inv.FrequencySchedule(())
    with pytest.raises(ValueError):
        inv.FrequencySchedule((1.0, 1.0))
    with pytest.raises(ValueError):
        inv.FrequencySchedule((2.0, 1.0))
    s = inv.FrequencySchedule((1.0, 2.5), iterations=50)
    assert s.order(0) == 1 and s.order(1) == 2
    assert s.tau(0) == pytest.approx(0.005)
    assert s.tau(1) == pytest.approx(0.005 / 2)


def test_schedule_rejects_non_finite_frequencies():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            inv.FrequencySchedule((1.0, bad))


def test_schedule_rejects_a_step_rule_that_cannot_descend():
    # a NaN coefficient used to fail only after the step retries were spent,
    # a negative one ran an ascent and zero never moved
    for bad in (np.nan, -0.005, 0.0, np.inf):
        with pytest.raises(ValueError, match="step coefficient"):
            inv.FrequencySchedule((1.0,), tau_coefficient=bad)
    with pytest.raises(ValueError, match="iterations"):
        inv.FrequencySchedule((1.0,), iterations=-1)
    assert inv.FrequencySchedule((1.0,), iterations=0).iterations == 0


def test_initial_guess_is_sphere():
    sp = inv.initial_guess(0.5, 3)
    quad_pts = geo.sample_boundary(sp, 12).points
    assert np.abs(np.linalg.norm(quad_pts, axis=1) - 0.5).max() < 1e-10


def test_initial_guess_scales_linearly():
    a = inv.initial_guess(0.5, 2)
    b = inv.initial_guess(1.0, 2)
    np.testing.assert_allclose(b.coeffs, 2 * a.coeffs, atol=1e-15)
    with pytest.raises(ValueError):
        inv.initial_guess(-0.5, 2)


def test_zero_padding_preserves_surface(rng):
    sp = inv.initial_guess(0.5, 1)
    grown = sp.resized(3)
    th = rng.uniform(0.1, 3.0, 30)
    ph = rng.uniform(0.0, 6.2, 30)
    p1, _, _ = geo.surface_points(sp, th, ph)
    p2, _, _ = geo.surface_points(grown, th, ph)
    assert np.abs(p1 - p2).max() < 1e-12


# ---------------------------------------------------------------------------
# Descent behavior
# ---------------------------------------------------------------------------


def test_zero_gradient_fixed_point(sphere_dataset):
    # with data produced by the same discretization at the current surface
    # the misfit and gradient vanish identically, so the iterate is fixed
    truth = geo.sphere_coeffs(0.55, 1)
    opts = fw.SolverOptions(n_trunc=10, quad_order=14, residual_tol=1e-6)
    ms = fw.solve_rigid_scattering(truth, PW, modal.Medium(2.0, 1.0, 1.0), R, opts).measure(PW, fw.fibonacci_sphere(60, R))
    sched = inv.FrequencySchedule((1.0,), iterations=3)
    state = inv.InversionState(surface=truth.copy())
    state = inv.descent_stage(state, sched, 0, [ms], options=[opts])
    np.testing.assert_array_equal(state.surface.coeffs, truth.coeffs)
    assert all(h["objective"] == 0.0 for h in state.history)


def test_objective_decreases_first_iterations(sphere_dataset):
    sched = inv.FrequencySchedule((1.0,), iterations=10)
    state = inv.InversionState(surface=inv.initial_guess(0.5, 1))
    state = inv.descent_stage(
        state, sched, 0, [sphere_dataset], options=[inv.stage_solver_options(sphere_dataset.med, R, 1, state.surface)]
    )
    fs = [h["objective"] for h in state.history]
    assert len(fs) == 11
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_single_stage_sphere_reconstruction(sphere_dataset):
    truth = geo.sphere_coeffs(0.55, 1)
    sched = inv.FrequencySchedule((1.0,), iterations=150)
    state = inv.continuation_run([sphere_dataset], sched)
    err = inv.surface_error(state.surface, truth)
    assert err < 0.01
    fs = [h["objective"] for h in state.history]
    assert fs[-1] <= fs[0]
    # noiseless, truth inside the model class: misfit ends near the solver floor
    assert fs[-1] < 1e-3


def test_single_frequency_run_equals_plain_descent(sphere_dataset):
    sched = inv.FrequencySchedule((1.0,), iterations=5)
    state_a = inv.continuation_run([sphere_dataset], sched)
    state_b = inv.InversionState(surface=inv.initial_guess(0.5, 1))
    opts = inv.stage_solver_options(sphere_dataset.med, R, 1, state_b.surface)
    state_b = inv.descent_stage(state_b, sched, 0, [sphere_dataset], options=[opts])
    np.testing.assert_array_equal(state_a.surface.coeffs, state_b.surface.coeffs)


def test_run_determinism(sphere_dataset):
    sched = inv.FrequencySchedule((1.0,), iterations=8)
    c1 = inv.continuation_run([sphere_dataset], sched).surface.coeffs
    c2 = inv.continuation_run([sphere_dataset], sched).surface.coeffs
    np.testing.assert_array_equal(c1, c2)


def test_stage_failure_keeps_partial_history(sphere_dataset):
    sched = inv.FrequencySchedule((1.0,), iterations=3)
    impossible = fw.SolverOptions(n_trunc=4, quad_order=8, residual_tol=1e-14)
    state = inv.InversionState(surface=inv.initial_guess(0.5, 1))
    with pytest.raises(inv.StageError) as err:
        inv.descent_stage(state, sched, 0, [sphere_dataset], options=[impossible])
    assert isinstance(err.value.state, inv.InversionState)


def test_stage_solver_options_fixed_truncation(sphere_dataset):
    surface = inv.initial_guess(0.5, 1)
    opts = inv.stage_solver_options(sphere_dataset.med, R, 1, surface, residual_tol=0.03, n_trunc=7)
    assert (opts.n_trunc, opts.quad_order, opts.residual_tol) == (7, 11, 0.03)
    adaptive = inv.stage_solver_options(sphere_dataset.med, R, 1, surface)
    assert adaptive.quad_order == adaptive.n_trunc + 4


def test_continuation_honours_residual_tol_at_fixed_truncation(sphere_dataset):
    # a tolerance no truncation-6 solve can meet must fail the stage
    sched = inv.FrequencySchedule((1.0,), iterations=3)
    with pytest.raises(inv.StageError):
        inv.continuation_run([sphere_dataset], sched, n_trunc=6, residual_tol=1e-14)


def test_containment_rejects_nan_surface(sphere_dataset):
    # a descent step writes the coefficient vector directly; NaN entries sample
    # to NaN points, whose radius must not pass the containment check
    trial = inv.initial_guess(0.5, 1)
    trial.coeffs = trial.coeffs - np.nan
    with pytest.raises(ObjectiveError):
        inv.objective_and_gradient(trial, [sphere_dataset])


def test_backtracking_rejects_increases(sphere_dataset):
    # a deliberately large step must be halved until the objective decreases
    sched = inv.FrequencySchedule((1.0,), iterations=4, tau_coefficient=0.2)
    state = inv.InversionState(surface=inv.initial_guess(0.5, 1))
    state = inv.descent_stage(
        state,
        sched,
        0,
        [sphere_dataset],
        options=[inv.stage_solver_options(sphere_dataset.med, R, 1, state.surface)],
        backtracking=True,
        max_step_retries=14,
    )
    fs = [h["objective"] for h in state.history]
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    assert any(h["tau"] < 0.2 for h in state.history[1:])  # at least one halving happened


def test_group_by_frequency_validation(sphere_dataset):
    sched = inv.FrequencySchedule((1.0, 2.0))
    with pytest.raises(ValueError):
        inv.group_by_frequency([sphere_dataset], sched)  # no data at omega=2
    other = synth_dataset(geo.sphere_coeffs(0.5, 1), 3.0, kpoints=20)
    with pytest.raises(ValueError):
        inv.group_by_frequency([sphere_dataset, other], sched)


def test_group_by_frequency_matches_exactly(sphere_dataset):
    # 1.1 + 2.2 is 3.3000000000000003: a stage of its own next to 3.3
    omegas = (3.3, 1.1 + 2.2)
    data = [dataclasses.replace(sphere_dataset, med=modal.Medium(2.0, 1.0, w)) for w in omegas]
    groups = inv.group_by_frequency(data, inv.FrequencySchedule(omegas))
    assert [[id(ds) for ds in g] for g in groups] == [[id(data[0])], [id(data[1])]]


def test_low_frequency_stage_keeps_order_one():
    # floor(0.5) = 0 would resize the first-order sphere encoding to a point
    data = synth_dataset(geo.sphere_coeffs(0.55, 1), 0.5, kpoints=20)
    sched = inv.FrequencySchedule((0.5,), iterations=2)
    assert sched.order(0) == 1 and sched.tau(0) == sched.tau_coefficient
    state = inv.continuation_run([data], sched)
    assert state.surface.order == 1 and len(state.history) == 3


def test_direction_sweep_and_sum_modes():
    truth = geo.ellipsoid_coeffs(0.65, 0.7, 0.75, 1)
    waves = [fw.IncidentWave("p", (0.0, 1.0, 0.0)), fw.IncidentWave("p", (1.0, 0.0, 0.0))]
    med = modal.Medium(2.0, 1.0, 1.0)
    n = modal.default_truncation(med.kappa_s, R) + 2
    opts = fw.SolverOptions(n_trunc=n, quad_order=n + 4, residual_tol=2e-2)
    data = [
        fw.solve_rigid_scattering(truth, w, med, R, opts).measure(w, fw.fibonacci_sphere(40, R)) for w in waves
    ]
    sched = inv.FrequencySchedule((1.0,), iterations=3)
    sweep = inv.continuation_run(data, sched, sweep_directions=True)
    summed = inv.continuation_run(data, sched, sweep_directions=False)
    # sweep runs L iterations per direction, sum runs L on the joint misfit
    assert len(sweep.history) == 2 * 4
    assert len(summed.history) == 4
    assert not np.array_equal(sweep.surface.coeffs, summed.surface.coeffs)


# ---------------------------------------------------------------------------
# Truncation ladder
# ---------------------------------------------------------------------------

ELLIPSOID = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)


@pytest.fixture(scope="module")
def noisy_bundle():
    return [synth_dataset(ELLIPSOID, omega, kpoints=40, delta=0.05, seed=11 + i) for i, omega in enumerate((1.0, 2.0))]


def _record_evaluations(monkeypatch, fail_on=None, cause=None):
    """Wrap the descent's objective: log (coefficients, n_trunc, with_gradient)
    of every call, and make call number ``fail_on`` (0-based) raise
    :class:`ObjectiveError` chained from ``cause`` instead."""
    calls = []
    real = inv.objective_and_gradient

    def logged(sp, datasets, options, with_gradient=True):
        calls.append((sp.coeffs.copy(), options.n_trunc, with_gradient))
        if len(calls) - 1 == fail_on:
            raise ObjectiveError("forced failure") from cause
        return real(sp, datasets, options, with_gradient)

    monkeypatch.setattr(inv, "objective_and_gradient", logged)
    return calls


def test_clean_or_fixed_truncation_is_one_rung(sphere_dataset):
    surface = inv.initial_guess(0.5, 1)
    top = inv.stage_solver_options(sphere_dataset.med, R, 1, surface)
    assert inv.stage_ladder([sphere_dataset], 1, surface) == [top]
    noisy = synth_dataset(geo.sphere_coeffs(0.55, 1), 1.0, delta=0.05, seed=3)
    fixed = inv.stage_solver_options(noisy.med, R, 1, surface, n_trunc=7)
    assert inv.stage_ladder([noisy], 1, surface, n_trunc=7) == [fixed]
    sched = inv.FrequencySchedule((1.0,), iterations=3)
    clean_run = inv.continuation_run([sphere_dataset], sched)
    assert [h["n_trunc"] for h in clean_run.history] == [top.n_trunc] * 4
    fixed_run = inv.continuation_run([noisy], sched, n_trunc=7)
    assert [h["n_trunc"] for h in fixed_run.history] == [7] * 4


def test_noisy_ladder_climbs_within_its_rungs(noisy_bundle, monkeypatch):
    sched = inv.FrequencySchedule((1.0, 2.0), iterations=10)
    calls = _record_evaluations(monkeypatch)
    state = inv.continuation_run(noisy_bundle, sched, r0=0.3)
    starts = [inv.initial_guess(0.3, 1), state.snapshots[0].resized(2)]
    for i, (ds, start) in enumerate(zip(noisy_bundle, starts)):
        order = sched.order(i)
        ladder = inv.stage_ladder([ds], order, start)
        top = inv.stage_solver_options(ds.med, R, order, start)
        assert ladder[-1] == top and [o.n_trunc for o in ladder] == list(range(order + 2, top.n_trunc + 1))
        assert all(o.residual_tol == min(0.05, 0.5 * 0.05 / np.sqrt(3)) for o in ladder[:-1])
        # the stage's first evaluation is on the lowest rung
        assert next(n for c, n, _ in calls if len(c) == len(start.coeffs)) == order + 2
        rungs = [h["n_trunc"] for h in state.history if h["stage"] == i]
        assert all(a <= b for a, b in zip(rungs, rungs[1:]))
        assert order + 2 <= rungs[0] and rungs[-1] <= top.n_trunc


def test_growing_surface_climbs_the_ladder():
    # a start well inside the truth outgrows the coarsest truncations
    data = synth_dataset(ELLIPSOID, 2.0, kpoints=40, delta=0.05, seed=3)
    state = inv.continuation_run([data], inv.FrequencySchedule((2.0,), iterations=20), r0=0.3)
    rungs = [h["n_trunc"] for h in state.history]
    assert len(rungs) == 21 and rungs[0] < rungs[-1]


@pytest.mark.parametrize(
    "cause, climbs",
    [
        (fw.ResidualError("boundary residual above tolerance"), True),
        (fw.SolverError("boundary system is rank-deficient"), False),
        (geo.GeometryError("surface outside Gamma_R"), False),
    ],
)
def test_only_a_residual_failure_climbs(noisy_bundle, monkeypatch, cause, climbs):
    data = noisy_bundle[0]
    sched = inv.FrequencySchedule((1.0,), iterations=3)
    state = inv.InversionState(surface=inv.initial_guess(0.5, 1))
    ladder = inv.stage_ladder([data], 1, state.surface)
    assert len(ladder) > 2
    calls = _record_evaluations(monkeypatch, fail_on=1, cause=cause)
    state = inv.descent_stage(state, sched, 0, [data], options=ladder)
    assert len(state.history) == 4  # a climb adds no row
    (_, n_start, _), (trial, n_failed, _), (again, n_again, _) = calls[:3]
    assert n_start == n_failed == ladder[0].n_trunc
    if climbs:  # the same point, one rung up, with the full step
        np.testing.assert_array_equal(again, trial)
        assert n_again == ladder[1].n_trunc
        assert state.history[1]["tau"] == sched.tau(0)
    else:  # a rejected step: the rung stays and the step halves
        assert n_again == ladder[0].n_trunc
        assert state.history[1]["tau"] == sched.tau(0) / 2
    assert state.history[1]["n_trunc"] == n_again


def test_backtracking_compares_on_the_climbed_rung(noisy_bundle, monkeypatch):
    data = noisy_bundle[0]
    sched = inv.FrequencySchedule((1.0,), iterations=2)
    state = inv.InversionState(surface=inv.initial_guess(0.5, 1))
    ladder = inv.stage_ladder([data], 1, state.surface)
    start = state.surface.resized(1).coeffs
    calls = _record_evaluations(monkeypatch, fail_on=1, cause=fw.ResidualError("forced"))
    state = inv.descent_stage(state, sched, 0, [data], options=ladder, backtracking=True)
    # the trial climbs, then the current iterate's objective is re-evaluated on the new rung
    (_, _, _), (trial, _, _), (again, n_again, _), (current, n_current, grad) = calls[:4]
    np.testing.assert_array_equal(again, trial)
    np.testing.assert_array_equal(current, start)
    assert n_again == n_current == ladder[1].n_trunc and not grad
    fs = [h["objective"] for h in state.history]
    assert fs[1] <= inv.objective_and_gradient(inv.initial_guess(0.5, 1), [data], ladder[1], with_gradient=False)


def test_noisy_reruns_repeat_their_rungs(noisy_bundle):
    sched = inv.FrequencySchedule((1.0, 2.0), iterations=6)
    a = inv.continuation_run(noisy_bundle, sched, r0=0.3)
    b = inv.continuation_run(noisy_bundle, sched, r0=0.3)
    assert a.history == b.history
    np.testing.assert_array_equal(a.surface.coeffs, b.surface.coeffs)


# ---------------------------------------------------------------------------
# Surface error metric
# ---------------------------------------------------------------------------


def test_surface_error_identical_is_zero():
    sp = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    assert inv.surface_error(sp, sp) == 0.0


def test_surface_error_sphere_pair():
    big = geo.sphere_coeffs(0.55, 1)
    small = geo.sphere_coeffs(0.5, 1)
    assert inv.surface_error(big, small) == pytest.approx(0.1, abs=1e-6)
    # swapping arguments only changes the normalization surface
    assert inv.surface_error(small, big) == pytest.approx(0.05 / 0.55, abs=1e-6)


def test_surface_error_requires_star_shaped():
    sp = geo.SurfaceParam(1, np.zeros(24))
    with pytest.raises(geo.GeometryError):
        inv.surface_error(sp, geo.sphere_coeffs(0.5, 1))
