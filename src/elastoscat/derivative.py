"""Domain derivative of the scattering map and the objective gradient.

Each coefficient perturbation of the surface induces a derivative field
u'_i that solves the same exterior problem with Dirichlet data
-q_i * (normal derivative of the total field) on the surface; the
transparent boundary condition on the measurement sphere is automatic for
the outgoing basis.  All coefficient columns share the forward solve's
:class:`~elastoscat.forward.BoundarySystem` (the system matrix depends only
on geometry, medium and truncation), which is the dominant cost lever,
and only the 3 (N+1)^2 columns that are not +-m copies of one another are
solved.
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
    solve_rigid_scattering,
)
from .geometry import GeometryError, SurfaceParam, coeff_length, distinct_coeff_map, perturbation_q_table
from .specfun import DomainError


class ObjectiveError(RuntimeError):
    """Objective evaluation failed (infeasible surface or solver failure)."""


def normal_derivative_total_field(sol: ScatteredSolution, w: IncidentWave) -> np.ndarray:
    """(nu . grad) of the total field on the boundary sample of a solve, shape (npts, 3).

    The scattered part is the analytic normal derivative of the solution's
    expansion, contracted with its coefficients on the system's basis
    (no derivative matrix is formed); the incident part is a plane wave in
    the solution's medium.
    """
    sample = sol.sample
    grad_inc = incident_field(w, sol.system.med, sample.points)[1]
    dv = sol.basis.directional_derivative(sample.normals, sol.coeff_vector)
    du_inc = np.einsum("pil,pl->pi", grad_inc, sample.normals)
    return du_inc + dv


@dataclass
class ShapeJacobian:
    """Derivative fields u'_i(x_k) for every surface coefficient.

    ``matrix`` has shape (3K, ncoeffs); column i stacked as
    (x_0 components, x_1 components, ...).  A column is identically zero
    whenever its perturbation q_i vanishes on the surface (all Im Y_n^0
    coefficients), and each (n, -m) column is exactly +-1 times its (n, m)
    column (:func:`~elastoscat.geometry.distinct_coeff_map`).
    """

    matrix: np.ndarray

    def column(self, i: int) -> np.ndarray:
        """u'_i at the measurement points, shape (K, 3); i is 1-based."""
        if not 1 <= i <= self.matrix.shape[1]:
            raise ValueError(f"coefficient index {i} out of range 1..{self.matrix.shape[1]}")
        return self.matrix[:, i - 1].reshape(-1, 3)


def shape_jacobian(sp: SurfaceParam, sol: ScatteredSolution, w: IncidentWave, points: np.ndarray) -> ShapeJacobian:
    """All domain-derivative columns at the given measurement points.

    Only the 3 (N+1)^2 distinct columns are solved; the others are copied
    from them by sign or are zero.
    """
    distinct, source, sign = distinct_coeff_map(sp.order)
    dnu = normal_derivative_total_field(sol, w)
    q = perturbation_q_table(sp, sol.sample)[distinct]  # (ndistinct, npts)
    rhs = -(q[:, :, None] * dnu[None, :, :]).transpose(1, 2, 0)  # (npts, 3, ndistinct)
    solved = sol.system.measurement_matrix(points) @ sol.solve_rhs(rhs)
    matrix = np.zeros((solved.shape[0], sign.shape[0]), dtype=solved.dtype)
    matrix[:, sign > 0] = solved[:, source[sign > 0]]
    matrix[:, sign < 0] = -solved[:, source[sign < 0]]
    return ShapeJacobian(matrix)


def objective_and_gradient(
    sp: SurfaceParam,
    datasets: list[MeasurementSet],
    options: SolverOptions = SolverOptions(),
    with_gradient: bool = True,
):
    """Least-squares data misfit and its coefficient gradient.

    f(C) = 1/2 sum_k |F_k(C) - u(x_k)|^2 summed over every measurement set
    in the bundle (frequencies and incident directions); the gradient sums
    Re[ u'_i(x_k) . conj(F_k - u(x_k)) ] the same way.

    Measurement sets that agree on the medium (lambda, mu, omega) and R
    share one boundary system: it is factored once, and every further
    incident wave is re-solved against it.

    Raises :class:`ObjectiveError` when any forward solve fails, so the
    descent loop can reject the step.
    """
    f = 0.0
    grad = np.zeros(coeff_length(sp.order)) if with_gradient else None
    first: dict[tuple, ScatteredSolution] = {}  # (medium, R) -> the solve that factored its system
    for ds in datasets:
        key = (ds.med, ds.radius)
        try:
            if key in first:
                sol = first[key].resolve_incident(ds.incident)
            else:
                sol = first[key] = solve_rigid_scattering(sp, ds.incident, ds.med, ds.radius, options)
        except (SolverError, GeometryError, DomainError) as exc:
            raise ObjectiveError(f"forward evaluation failed: {exc}") from exc
        r = (sol.measure(ds.incident, ds.points).u - ds.u).reshape(-1)
        f += 0.5 * float(np.real(np.vdot(r, r)))
        if with_gradient:
            jac = shape_jacobian(sp, sol, ds.incident, ds.points)
            grad += np.real(jac.matrix.conj().T @ r)
    if not np.isfinite(f):
        raise ObjectiveError("objective is not finite")
    return (f, grad) if with_gradient else f
