"""Domain derivative of the scattering map and the objective gradient.

Each coefficient perturbation of the surface induces a derivative field
u'_i that solves the same exterior problem with Dirichlet data
-q_i * (normal derivative of the total field) on the surface; the
transparent boundary condition on the measurement sphere is automatic for
the outgoing basis.  All coefficient columns share one boundary
factorization (the system matrix depends only on geometry, medium and
truncation), which is the dominant cost lever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (
    IncidentWave,
    MeasurementSet,
    ScatteredSolution,
    SolverError,
    SolverOptions,
    incident_field,
    scattering_operator,
    solve_rigid_scattering,
)
from .geometry import GeometryError, SurfaceParam, coeff_length, perturbation_q_table
from .modal import Medium
from .specfun import DomainError
from .wavefields import WaveBasis


class ObjectiveError(RuntimeError):
    """Objective evaluation failed (infeasible surface or solver failure)."""


def normal_derivative_total_field(
    sol: ScatteredSolution, w: IncidentWave, med: Medium, deriv_matrix: np.ndarray | None = None
) -> np.ndarray:
    """(nu . grad) of the total field on the boundary sample of a solve.

    The gradient of the scattered part is analytic (differentiated basis
    fields); the incident part is a plane wave.  ``deriv_matrix`` is
    ``sol.basis.deriv_along(sol.sample.normals)``, computed here unless
    given; it is shared by every solution on the same boundary system.
    """
    sample = sol.sample
    if deriv_matrix is None:
        deriv_matrix = sol.basis.deriv_along(sample.normals)
    grad_inc = incident_field(w, med, sample.points)[1]
    dv = (deriv_matrix @ sol.coeff_vector).reshape(-1, 3)
    du_inc = np.einsum("pil,pl->pi", grad_inc, sample.normals)
    return du_inc + dv


@dataclass
class ShapeJacobian:
    """Derivative fields u'_i(x_k) for every surface coefficient.

    ``matrix`` has shape (3K, ncoeffs); column i stacked as
    (x_0 components, x_1 components, ...).  A column is identically zero
    whenever its perturbation q_i vanishes on the surface (for example all
    Im Y_n^0 coefficients).
    """

    matrix: np.ndarray
    order: int

    def column(self, i: int) -> np.ndarray:
        """u'_i at the measurement points, shape (K, 3); i is 1-based."""
        if not 1 <= i <= self.matrix.shape[1]:
            raise ValueError(f"coefficient index {i} out of range 1..{self.matrix.shape[1]}")
        return self.matrix[:, i - 1].reshape(-1, 3)


def measurement_basis(med: Medium, radius: float, order: int, points: np.ndarray) -> np.ndarray:
    """Evaluation matrix of the outgoing basis at measurement points (3K, ncols)."""
    return WaveBasis(med.kappa_p, med.kappa_s, radius, order, points).matrix()


def shape_jacobian(
    sp: SurfaceParam,
    sol: ScatteredSolution,
    w: IncidentWave,
    med: Medium,
    radius: float,
    points: np.ndarray,
    eval_matrix: np.ndarray | None = None,
    deriv_matrix: np.ndarray | None = None,
    q: np.ndarray | None = None,
) -> ShapeJacobian:
    """All domain-derivative columns at the given measurement points.

    ``eval_matrix``, ``deriv_matrix`` and the perturbation table ``q``
    depend only on the boundary system and the points, not on the incident
    wave; they are computed here unless given.
    """
    dnu = normal_derivative_total_field(sol, w, med, deriv_matrix)
    if q is None:
        q = perturbation_q_table(sp, sol.sample)  # (ncoeffs, npts)
    rhs = -(q[:, :, None] * dnu[None, :, :]).transpose(1, 2, 0)  # (npts, 3, ncoeffs)
    coeffs = sol.solve_rhs(rhs)
    if eval_matrix is None:
        eval_matrix = measurement_basis(med, radius, sol.order, points)
    return ShapeJacobian(matrix=eval_matrix @ coeffs, order=sp.order)


def objective_and_gradient(
    sp: SurfaceParam,
    datasets: list[MeasurementSet],
    options: SolverOptions = SolverOptions(),
    eval_cache: dict | None = None,
    with_gradient: bool = True,
):
    """Least-squares data misfit and its coefficient gradient.

    f(C) = 1/2 sum_k |F_k(C) - u(x_k)|^2 summed over every measurement set
    in the bundle (frequencies and incident directions); the gradient sums
    Re[ u'_i(x_k) . conj(F_k - u(x_k)) ] the same way.

    Measurement sets that agree on (lambda, mu, omega, R) share one
    boundary system: it is factored once, and every further incident wave
    is re-solved against that factorization.  ``eval_cache`` keeps the
    measurement basis matrices across calls, keyed by medium, radius,
    order and the measurement points.

    Raises :class:`ObjectiveError` when any forward solve fails, so the
    descent loop can reject the step.
    """
    f = 0.0
    grad = np.zeros(coeff_length(sp.order)) if with_gradient else None
    if eval_cache is None:
        eval_cache = {}
    systems: dict[tuple, tuple] = {}  # (lambda, mu, omega, R) -> (first solution, deriv_matrix, q)
    for ds in datasets:
        med = ds.med
        system = (med.lam, med.mu, med.omega, ds.radius)
        try:
            if system in systems:
                sol = systems[system][0].resolve_incident(ds.incident)
            else:
                sol = solve_rigid_scattering(sp, ds.incident, med, ds.radius, options)
        except (SolverError, GeometryError, DomainError, np.linalg.LinAlgError) as exc:
            raise ObjectiveError(f"forward evaluation failed: {exc}") from exc
        if system not in systems:
            if with_gradient:
                systems[system] = (sol, sol.basis.deriv_along(sol.sample.normals), perturbation_q_table(sp, sol.sample))
            else:
                systems[system] = (sol, None, None)
        key = (med.lam, med.mu, med.omega, ds.radius, sol.order, ds.points.tobytes())
        eval_matrix = eval_cache.get(key)
        if eval_matrix is None:
            eval_matrix = eval_cache[key] = measurement_basis(med, ds.radius, sol.order, ds.points)
        model = scattering_operator(
            sp, ds.incident, med, ds.radius, ds.points, solution=sol, eval_matrix=eval_matrix
        ).u
        r = (model - ds.u).reshape(-1)
        f += 0.5 * float(np.real(np.vdot(r, r)))
        if not with_gradient:
            continue
        _, deriv_matrix, q = systems[system]
        jac = shape_jacobian(
            sp, sol, ds.incident, med, ds.radius, ds.points, eval_matrix=eval_matrix, deriv_matrix=deriv_matrix, q=q
        )
        grad += np.real(jac.matrix.conj().T @ r)
    if not np.isfinite(f):
        raise ObjectiveError("objective is not finite")
    return (f, grad) if with_gradient else f
