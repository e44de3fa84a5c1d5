"""Multi-frequency continuation reconstruction.

Sweeps the data frequencies from low to high; at each stage the surface is
represented with harmonic order k_i = max(1, floor(omega_i)), warm-started from the
previous stage by zero-padding the coefficient vector, and updated by L
fixed-step gradient iterations with step tau = tau_coefficient / k_i.

Every forward solve of a stage runs on one rung of a truncation ladder
(:func:`stage_ladder`).  Noisy data need the model error only below the
noise, not far below it (J. Kaipio, E. Somersalo, J. Comput. Appl. Math.
198 (2007) 493-504): the rungs n = k_i + 2, ... below the stage's
:func:`stage_solver_options` truncation solve to a boundary residual of
c delta / sqrt(3), a fraction c of the data's relative noise, and the
descent climbs one rung whenever a solve misses its rung's residual.
Clean data or a fixed truncation give a one-rung ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .derivative import ObjectiveError, objective_and_gradient
from .forward import MeasurementSet, ResidualError, SolverOptions
from .geometry import SurfaceParam, sample_boundary, sphere_coeffs, radial_function
from .modal import Medium
from .specfun import sphere_quadrature, sph_to_cart


# c: the rungs below a stage's top solve to a boundary residual of c times the
# data's relative noise delta / sqrt(3) (fixed before any trial, not tuned)
_NOISE_FRACTION = 0.5


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
    Frequencies must be positive, finite and strictly increasing, the step
    coefficient positive and finite, and the iteration count nonnegative.
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
        if not 0 < self.tau_coefficient < math.inf:  # a NaN fails too
            raise ValueError(f"step coefficient must be positive and finite, got {self.tau_coefficient}")
        if not self.iterations >= 0:
            raise ValueError(f"iterations per stage must be nonnegative, got {self.iterations}")

    @property
    def stages(self) -> int:
        return len(self.omegas)

    def order(self, i: int) -> int:
        return max(1, int(math.floor(self.omegas[i])))

    def tau(self, i: int) -> float:
        return self.tau_coefficient / self.order(i)


@dataclass
class InversionState:
    """Current surface iterate plus the objective history and stage snapshots.

    Each history row holds stage, omega, sweep, iteration, objective, tau
    and the n_trunc of the solves that gave the objective.
    """

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
    """Per-stage forward-solver discretization: the top rung of :func:`stage_ladder`.

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


def stage_ladder(
    datasets: list[MeasurementSet],
    stage_order: int,
    surface: SurfaceParam,
    residual_tol: float = 0.05,
    n_trunc: int | None = None,
) -> list[SolverOptions]:
    """The truncations one stage may solve on, coarsest first.

    The top rung is :func:`stage_solver_options`' choice for the stage's
    medium, measurement radius and starting ``surface``, and keeps
    ``residual_tol``.  On noisy data, with delta the smallest
    ``MeasurementSet.delta`` of the stage's ``datasets``, the rungs below it
    run from n = ``stage_order`` + 2 up and solve to
    min(residual_tol, c delta / sqrt(3)) with c = 1/2: ``add_noise``'s
    noise has relative rms size delta / sqrt(3), and the model error stays
    below half of it.  Clean data (delta = 0) or a fixed ``n_trunc`` give
    the top rung alone.
    """
    first = datasets[0]
    top = stage_solver_options(first.med, first.radius, stage_order, surface, residual_tol, n_trunc)
    delta = min(ds.delta for ds in datasets)
    if n_trunc is not None or not delta > 0:
        return [top]
    tol = min(residual_tol, _NOISE_FRACTION * delta / math.sqrt(3))
    lower = [
        SolverOptions(n_trunc=n, residual_tol=tol).resolve(first.med, first.radius)
        for n in range(stage_order + 2, top.n_trunc)
    ]
    return lower + [top]


def descent_stage(
    state: InversionState,
    schedule: FrequencySchedule,
    stage: int,
    datasets: list[MeasurementSet],
    options: list[SolverOptions],
    sweep_directions: bool = True,
    backtracking: bool = False,
    max_step_retries: int = 6,
) -> InversionState:
    """Run the fixed-step gradient iterations of one continuation stage.

    ``datasets`` holds the measurement sets of this stage's frequency (one
    per incident direction).  With ``sweep_directions`` the L iterations
    run once per direction sequentially; otherwise one L-iteration run uses
    the summed misfit.  A step whose objective evaluation fails (a surface
    outside Gamma_R, a failed solve or a non-finite objective) is rejected
    and retried with a halved step; exhausting the retries raises
    :class:`StageError` with the partial state.

    ``options`` is the stage's ladder of solver options, coarsest first
    (:func:`stage_ladder`).  The descent starts on the lowest rung.  An
    evaluation that fails only because a boundary residual exceeds its rung's
    tolerance (:class:`~elastoscat.forward.ResidualError`) below the top rung climbs
    one rung and re-evaluates the same point: a climb halves no step, uses
    no retry, adds no history row, and holds for the rest of the stage,
    across its sweeps.  Every history row records its rung's ``n_trunc``.

    ``backtracking`` additionally rejects steps that increase the
    objective (off by default: the base method is plain fixed-step
    descent).  When a trial step climbs, the current iterate's objective is
    re-evaluated on the new rung before the two are compared.
    """
    if not datasets:
        raise ValueError("stage needs at least one measurement set")
    ladder = list(options)
    rung = 0  # index into ladder; never decreases within the stage
    k = schedule.order(stage)
    state.surface = state.surface.resized(k)
    tau = schedule.tau(stage)
    groups = [[ds] for ds in datasets] if sweep_directions else [list(datasets)]

    def evaluate(surface, group, with_gradient=True):
        """The objective on the current rung, climbing while only a boundary residual fails."""
        nonlocal rung
        while True:
            try:
                return objective_and_gradient(surface, group, ladder[rung], with_gradient)
            except ObjectiveError as exc:
                if not isinstance(exc.__cause__, ResidualError) or rung == len(ladder) - 1:
                    raise
                rung += 1

    for sweep, group in enumerate(groups):
        try:
            f, g = evaluate(state.surface, group)
        except ObjectiveError as exc:
            raise StageError(f"stage {stage}: starting point infeasible: {exc}", stage, state) from exc
        f_rung = rung  # the rung f was evaluated on
        state.record(
            stage=stage,
            omega=schedule.omegas[stage],
            sweep=sweep,
            iteration=0,
            objective=f,
            tau=tau,
            n_trunc=ladder[rung].n_trunc,
        )
        for it in range(1, schedule.iterations + 1):
            tau_step = tau
            for _ in range(max_step_retries):
                trial = state.surface.copy()
                trial.coeffs = trial.coeffs - tau_step * g
                try:
                    f_new, g_new = evaluate(trial, group)
                    while backtracking and f_rung != rung:  # a climb: compare f and f_new on one rung
                        trial_rung = rung
                        f = evaluate(state.surface, group, with_gradient=False)
                        f_rung = rung
                        if f_rung != trial_rung:
                            f_new, g_new = evaluate(trial, group)
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
            state.surface, f, g, f_rung = trial, f_new, g_new, rung
            state.record(
                stage=stage,
                omega=schedule.omegas[stage],
                sweep=sweep,
                iteration=it,
                objective=f,
                tau=tau_step,
                n_trunc=ladder[rung].n_trunc,
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
    radius ``r0`` at the schedule's first stage order.  With a fixed
    truncation ``n_trunc`` every stage solves there to the relative
    boundary residual ``residual_tol``.  Otherwise each stage solves on
    :func:`stage_ladder`'s truncations for its starting surface: on clean
    data only the top one, derived from the surface and solving to
    ``residual_tol``; on noisy data the coarser rungs below it too, which
    solve to min(``residual_tol``, delta / (2 sqrt(3))).  The quadrature
    order is ``n_trunc + 4`` throughout.  The run is deterministic:
    identical inputs produce identical iterates.
    """
    groups = group_by_frequency(datasets, schedule)
    state = InversionState(surface=initial_guess(r0, schedule.order(0)))
    for i in range(schedule.stages):
        ladder = stage_ladder(groups[i], schedule.order(i), state.surface, residual_tol, n_trunc)
        state = descent_stage(
            state,
            schedule,
            i,
            groups[i],
            options=ladder,
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
