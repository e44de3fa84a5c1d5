"""Multi-frequency continuation reconstruction.

Sweeps the data frequencies from low to high; at each stage the surface is
represented with harmonic order k_i = max(1, floor(omega_i)), warm-started from the
previous stage by zero-padding the coefficient vector, and updated by L
fixed-step gradient iterations with step tau = tau_coefficient / k_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .derivative import ObjectiveError, objective_and_gradient
from .forward import MeasurementSet, SolverOptions
from .geometry import SurfaceParam, sample_boundary, sphere_coeffs, radial_function
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
    """Ordered frequencies with per-stage iteration count and step rule.

    Stage i represents the surface at harmonic order ``order(i)`` =
    max(1, floor(omega_i)), never below the first-order encoding of the
    initial sphere, and steps with ``tau(i)`` = tau_coefficient / order(i).
    Frequencies must be positive, finite and strictly increasing.
    """

    omegas: tuple[float, ...]
    iterations: int = 100
    tau_coefficient: float = 0.005

    def __post_init__(self):
        if len(self.omegas) == 0:
            raise ValueError("schedule needs at least one frequency")
        if not all(0 < w < math.inf for w in self.omegas):
            raise ValueError("frequencies must be positive and finite")
        if any(b <= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("frequencies must be strictly increasing")

    @property
    def stages(self) -> int:
        return len(self.omegas)

    def order(self, i: int) -> int:
        return max(1, int(math.floor(self.omegas[i])))

    def tau(self, i: int) -> float:
        return self.tau_coefficient / self.order(i)


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


def _max_radius(surface: SurfaceParam) -> float:
    """Largest distance of the surface from the origin, sampled at quadrature order 10."""
    return float(np.linalg.norm(sample_boundary(surface, 10).points, axis=1).max())


def stage_solver_options(
    med: Medium,
    radius: float,
    stage_order: int,
    surface: SurfaceParam,
    residual_tol: float = 0.05,
    n_trunc: int | None = None,
) -> SolverOptions:
    """Per-stage forward-solver discretization.

    A fixed ``n_trunc`` is used as given.  Otherwise the truncation tracks
    the modal content of the field scattered by the current obstacle
    (scale kappa_s * r_max) rather than the full measurement sphere, which
    keeps the per-iteration least-squares solve small; the boundary
    residual is still reported on every solve.  The quadrature order is
    :meth:`SolverOptions.resolve`'s.
    """
    if n_trunc is None:
        r_max = _max_radius(surface)
        n_trunc = max(stage_order + 2, int(math.ceil(1.5 * med.kappa_s * min(r_max, radius))) + 6)
    return SolverOptions(n_trunc=n_trunc, residual_tol=residual_tol).resolve(med, radius)


def descent_stage(
    state: InversionState,
    schedule: FrequencySchedule,
    stage: int,
    datasets: list[MeasurementSet],
    options: SolverOptions,
    sweep_directions: bool = True,
    backtracking: bool = False,
    max_step_retries: int = 6,
) -> InversionState:
    """Run the fixed-step gradient iterations of one continuation stage.

    ``datasets`` holds the measurement sets of this stage's frequency (one
    per incident direction).  With ``sweep_directions`` the L iterations
    run once per direction sequentially; otherwise one L-iteration run uses
    the summed misfit with the stage's solver ``options`` (see
    :func:`stage_solver_options`).  A step whose objective evaluation
    fails (a surface outside Gamma_R, a failed solve or a non-finite
    objective) is rejected and retried with a halved step; exhausting the
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
    groups = [[ds] for ds in datasets] if sweep_directions else [list(datasets)]

    for sweep, group in enumerate(groups):
        try:
            f, g = objective_and_gradient(state.surface, group, options)
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
                    f_new, g_new = objective_and_gradient(trial, group, options)
                except ObjectiveError:
                    tau_step *= 0.5
                    continue
                if backtracking and f_new > f:
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
    """Match measurement sets to schedule stages (input order kept per stage).

    A set belongs to the stage whose frequency equals its omega exactly, as
    in the objective's boundary-system key, so 3.3 and 1.1 + 2.2
    (3.3000000000000003) are two stages.  Every stage needs at least one set.
    """
    stage = {w: i for i, w in enumerate(schedule.omegas)}
    groups = [[] for _ in schedule.omegas]
    for ds in datasets:
        if ds.med.omega not in stage:
            raise ValueError(f"measurement set at omega={ds.med.omega} matches no schedule frequency")
        groups[stage[ds.med.omega]].append(ds)
    for i, g in enumerate(groups):
        if not g:
            raise ValueError(f"no data for schedule frequency omega={schedule.omegas[i]}")
    return groups


def continuation_run(
    datasets: list[MeasurementSet],
    schedule: FrequencySchedule,
    r0: float = 0.5,
    sweep_directions: bool = True,
    backtracking: bool = False,
    n_trunc: int | None = None,
    residual_tol: float = 0.05,
) -> InversionState:
    """Full frequency-continuation reconstruction from a data bundle.

    Stage i of ``schedule`` runs on the data whose frequency equals its
    omega_i exactly (:func:`group_by_frequency`), starting from a sphere of
    radius ``r0`` at the schedule's first stage order.  Every stage
    solves to the relative boundary residual ``residual_tol``, at the fixed
    truncation ``n_trunc`` if one is given and otherwise at one derived
    from the current surface (:func:`stage_solver_options`); the
    quadrature order is ``n_trunc + 4`` either way.  The run is
    deterministic: identical inputs produce identical iterates.
    """
    groups = group_by_frequency(datasets, schedule)
    state = InversionState(surface=initial_guess(r0, schedule.order(0)))
    for i in range(schedule.stages):
        opts = stage_solver_options(
            groups[i][0].med, groups[i][0].radius, schedule.order(i), state.surface, residual_tol, n_trunc
        )
        state = descent_stage(
            state,
            schedule,
            i,
            groups[i],
            options=opts,
            sweep_directions=sweep_directions,
            backtracking=backtracking,
        )
        state.snapshots.append(state.surface.copy())
    return state


def surface_error(reconstruction: SurfaceParam, truth: SurfaceParam) -> float:
    """Relative L^2 distance between the radial functions of two star-shaped
    surfaces, normalized by the truth surface, on the order-32 sphere quadrature."""
    quad = sphere_quadrature(32)
    dirs = sph_to_cart(1.0, quad.theta, quad.phi)
    rho_rec = radial_function(reconstruction, dirs)
    rho_true = radial_function(truth, dirs)
    num = float(np.sum(quad.weights * (rho_rec - rho_true) ** 2))
    den = float(np.sum(quad.weights * rho_true**2))
    return math.sqrt(num / den)
