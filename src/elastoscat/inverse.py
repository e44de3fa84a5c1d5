"""Multi-frequency continuation reconstruction.

Sweeps the data frequencies from low to high; at each stage the surface is
represented with harmonic order k_i = floor(omega_i), warm-started from the
previous stage by zero-padding the coefficient vector, and updated by L
fixed-step gradient iterations with step tau = tau_coefficient / k_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .derivative import ObjectiveError, objective_and_gradient
from .forward import MeasurementSet, SolverOptions
from .geometry import GeometryError, SurfaceParam, sample_boundary, sphere_coeffs, radial_function
from .modal import Medium
from .specfun import sphere_quadrature, sph_to_cart


class StageError(RuntimeError):
    """A continuation stage exhausted its step retries; carries the stage index and partial state."""

    def __init__(self, message: str, stage: int, state: "InversionState"):
        super().__init__(message)
        self.stage = stage
        self.state = state


@dataclass(frozen=True)
class FrequencySchedule:
    """Ordered frequencies with per-stage iteration count and step rule."""

    omegas: tuple[float, ...]
    iterations: int = 100
    tau_coefficient: float = 0.005

    def __post_init__(self):
        if len(self.omegas) == 0:
            raise ValueError("schedule needs at least one frequency")
        if any(w <= 0 for w in self.omegas):
            raise ValueError("frequencies must be positive")
        if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("frequencies must be strictly increasing")

    @property
    def stages(self) -> int:
        return len(self.omegas)

    def order(self, i: int) -> int:
        return int(math.floor(self.omegas[i]))

    def tau(self, i: int) -> float:
        return self.tau_coefficient / max(self.order(i), 1)


@dataclass
class InversionState:
    """Current surface iterate plus the objective history and stage snapshots."""

    surface: SurfaceParam
    history: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def record(self, **kwargs) -> None:
        self.history.append(dict(kwargs))


def initial_guess(r0: float, order: int) -> SurfaceParam:
    """Sphere of radius r0 in the exact first-order harmonic encoding."""
    if r0 <= 0:
        raise ValueError("initial radius must be positive")
    return sphere_coeffs(r0, order)


def stage_solver_options(
    med: Medium,
    radius: float,
    stage_order: int,
    surface: SurfaceParam,
    residual_tol: float = 0.05,
) -> SolverOptions:
    """Per-stage forward-solver discretization.

    The truncation tracks the modal content of the field scattered by the
    current obstacle (scale kappa_s * r_max) rather than the full
    measurement sphere, which keeps the per-iteration least-squares solve
    small; the boundary residual is still reported on every solve.
    """
    pts = sample_boundary(surface, 10).points
    r_max = float(np.linalg.norm(pts, axis=1).max())
    n = max(stage_order + 2, int(math.ceil(1.5 * med.kappa_s * min(r_max, radius))) + 6)
    return SolverOptions(n_trunc=n, quad_order=n + 4, residual_tol=residual_tol)


def _check_containment(surface: SurfaceParam, radius: float) -> None:
    try:
        pts = sample_boundary(surface, 10).points
    except GeometryError as exc:
        raise ObjectiveError(f"surface iterate is degenerate: {exc}") from exc
    if np.linalg.norm(pts, axis=1).max() >= radius:
        raise ObjectiveError("surface iterate is not contained in the measurement ball")


def descent_stage(
    state: InversionState,
    schedule: FrequencySchedule,
    stage: int,
    datasets: list[MeasurementSet],
    options: SolverOptions | None = None,
    sweep_directions: bool = True,
    backtracking: bool = False,
    max_step_retries: int = 6,
    eval_cache: dict | None = None,
) -> InversionState:
    """Run the fixed-step gradient iterations of one continuation stage.

    ``datasets`` holds the measurement sets of this stage's frequency (one
    per incident direction).  With ``sweep_directions`` the L iterations
    run once per direction sequentially; otherwise one L-iteration run uses
    the summed misfit.  A step whose objective evaluation fails or is not
    finite is rejected and retried with a halved step; exhausting the
    retries raises :class:`StageError` with the partial state.

    ``backtracking`` additionally rejects steps that increase the
    objective (off by default: the base method is plain fixed-step
    descent).
    """
    if not datasets:
        raise ValueError("stage needs at least one measurement set")
    k = schedule.order(stage)
    state.surface = state.surface.resized(k)
    tau = schedule.tau(stage)
    if options is None:
        options = stage_solver_options(datasets[0].med, datasets[0].radius, k, state.surface)
    if eval_cache is None:
        eval_cache = {}
    groups = [[ds] for ds in datasets] if sweep_directions else [list(datasets)]

    for sweep, group in enumerate(groups):
        radius = min(ds.radius for ds in group)
        try:
            _check_containment(state.surface, radius)
            f, g = objective_and_gradient(state.surface, group, options, eval_cache=eval_cache)
        except ObjectiveError as exc:
            raise StageError(f"stage {stage}: starting point infeasible: {exc}", stage, state) from exc
        state.record(
            stage=stage, omega=schedule.omegas[stage], sweep=sweep, iteration=0, objective=f, tau=tau
        )
        for it in range(1, schedule.iterations + 1):
            tau_step = tau
            for _ in range(max_step_retries):
                trial = state.surface.copy()
                trial.coeffs = trial.coeffs - tau_step * g
                try:
                    _check_containment(trial, radius)
                    f_new, g_new = objective_and_gradient(trial, group, options, eval_cache=eval_cache)
                except ObjectiveError:
                    tau_step *= 0.5
                    continue
                if not math.isfinite(f_new) or (backtracking and f_new > f):
                    tau_step *= 0.5
                    continue
                break
            else:
                raise StageError(
                    f"stage {stage} iteration {it}: step rejected after {max_step_retries} retries",
                    stage,
                    state,
                )
            state.surface, f, g = trial, f_new, g_new
            state.record(
                stage=stage,
                omega=schedule.omegas[stage],
                sweep=sweep,
                iteration=it,
                objective=f,
                tau=tau_step,
            )
    return state


def group_by_frequency(datasets: list[MeasurementSet], schedule: FrequencySchedule):
    """Match measurement sets to schedule stages (input order kept per stage)."""
    groups = [[] for _ in schedule.omegas]
    for ds in datasets:
        hits = [i for i, w in enumerate(schedule.omegas) if abs(ds.med.omega - w) < 1e-9 * max(w, 1.0)]
        if not hits:
            raise ValueError(f"measurement set at omega={ds.med.omega} matches no schedule frequency")
        groups[hits[0]].append(ds)
    for i, g in enumerate(groups):
        if not g:
            raise ValueError(f"no data for schedule frequency omega={schedule.omegas[i]}")
    return groups


def continuation_run(
    datasets: list[MeasurementSet],
    schedule: FrequencySchedule | None = None,
    r0: float = 0.5,
    initial_order: int | None = None,
    sweep_directions: bool = True,
    backtracking: bool = False,
    solver_options: SolverOptions | None = None,
    residual_tol: float = 0.05,
) -> InversionState:
    """Full frequency-continuation reconstruction from a data bundle.

    The schedule defaults to the sorted distinct frequencies found in the
    data with the standard iteration count and step rule.  Per-stage
    solver discretizations are derived from the current surface unless a
    fixed ``solver_options`` override is supplied.  The run is
    deterministic: identical inputs produce identical iterates.
    """
    if not datasets:
        raise ValueError("no measurement data supplied")
    if schedule is None:
        omegas = tuple(sorted({ds.med.omega for ds in datasets}))
        schedule = FrequencySchedule(omegas)
    groups = group_by_frequency(datasets, schedule)
    k0 = schedule.order(0) if initial_order is None else initial_order
    state = InversionState(surface=initial_guess(r0, max(k0, 1)))
    for i in range(schedule.stages):
        opts = solver_options
        if opts is None:
            opts = stage_solver_options(
                groups[i][0].med, groups[i][0].radius, schedule.order(i), state.surface, residual_tol
            )
        eval_cache: dict = {}
        state = descent_stage(
            state,
            schedule,
            i,
            groups[i],
            options=opts,
            sweep_directions=sweep_directions,
            backtracking=backtracking,
            eval_cache=eval_cache,
        )
        state.snapshots.append(state.surface.copy())
    return state


def surface_error(reconstruction: SurfaceParam, truth: SurfaceParam, quad_order: int = 32) -> float:
    """Relative L^2 distance between the radial functions of two star-shaped
    surfaces, normalized by the truth surface."""
    quad = sphere_quadrature(quad_order)
    dirs = sph_to_cart(1.0, quad.theta, quad.phi)
    rho_rec = radial_function(reconstruction, dirs)
    rho_true = radial_function(truth, dirs)
    num = float(np.sum(quad.weights * (rho_rec - rho_true) ** 2))
    den = float(np.sum(quad.weights * rho_true**2))
    return math.sqrt(num / den)
