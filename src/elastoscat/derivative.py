"""Domain derivative of the scattering map and the objective gradient.

Each coefficient perturbation of the surface induces a derivative field
u'_i that solves the same exterior problem with Dirichlet data
b_i = -q_i * (normal derivative of the total field) on the surface; the
transparent boundary condition on the measurement sphere is automatic for
the outgoing basis.  All coefficient columns share the forward solve's
:class:`~elastoscat.forward.BoundarySystem` (the system matrix depends only
on geometry, medium and truncation).  Boundary-side vectors stay in each
sample point's frame (e_r, e_th, e_ph), the frame the system is solved in:
the normal derivative d_nu u of the total field, the data b_i and the
adjoint field are all given by their components along it, and only the
incident wave's Cartesian d_nu u_inc is rotated into it.

The descent needs only Re(J^H r) of the shape Jacobian J, and that comes
from the adjoint: with c_i = S A^+ W b_i (W the row weights, A the
equilibrated matrix, S its column scaling) and M the measurement matrix,
the gradient entry is Re(b_i^H z) with z = W (A^+)^H S M^H r, which
:meth:`~elastoscat.forward.BoundarySystem.adjoint_solve` gives from one
minimum-norm solve with a single column instead of 3 (N+1)^2.  The normal
derivative d_nu u, the Dirichlet data of every u'_i, is contracted from
the solutions' coefficients on the system's basis once per boundary
system, for all the datasets on it together.  :func:`shape_jacobian`
still forms J itself, solving only the 3 (N+1)^2 columns that are not
+-m copies of one another, for ``jacobian-dump``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (
    BoundarySystem,
    IncidentWave,
    MeasurementSet,
    ScatteredSolution,
    SolverError,
    SolverOptions,
    incident_field,
    solve_rigid_scattering,
)
from .geometry import (
    BoundarySample,
    GeometryError,
    SurfaceParam,
    coeff_length,
    distinct_coeff_map,
    perturbation_q_table,
)
from .specfun import DomainError


class ObjectiveError(RuntimeError):
    """Objective evaluation failed (infeasible surface or solver failure).

    A failed forward solve is the chained ``__cause__``, so a caller can
    tell a residual above tolerance (:class:`~elastoscat.forward.ResidualError`)
    from a rank-deficient system or a surface outside Gamma_R.
    """


def normal_derivative_total_field(sol: ScatteredSolution, w: IncidentWave) -> np.ndarray:
    """(nu . grad) of the total field on the boundary sample of a solve, shape
    (npts, 3), as components along each point's frame (e_r, e_th, e_ph).

    The one-column case of :func:`_normal_derivatives`, the path the
    objective gradient takes for all solutions on one system at once.
    """
    grad_inc = incident_field(w, sol.system.med, sol.sample.points)[1]
    du_inc = _incident_normal_derivative(grad_inc, sol.sample)
    return _normal_derivatives(sol.system, sol.coeff_vector[:, None], [du_inc])[:, :, 0]


def _incident_normal_derivative(grad_inc: np.ndarray, sample: BoundarySample) -> np.ndarray:
    """(nu . grad) of an incident wave from its Cartesian Jacobians ``grad_inc``
    on the sample, in Cartesian components."""
    return np.einsum("pil,pl->pi", grad_inc, sample.normals)


def _normal_derivatives(system: BoundarySystem, coeffs: np.ndarray, du_inc: list) -> np.ndarray:
    """(nu . grad) of k total fields on the boundary sample of ``system``, shape
    (npts, 3, k), in the point frames.

    ``du_inc`` lists the k incident parts in Cartesian components, (npts, 3)
    each, and ``coeffs`` (ncols, k) holds the scattered fields' coefficient
    columns.  The scattered parts' analytic normal derivatives come from one
    contraction on the system's basis (no derivative matrix is formed), and
    each incident part is rotated into the frames on its own, since a
    batched rotation rounds otherwise than a single one: column j equals a
    one-column call on column j bitwise, and so does its memory layout.
    """
    basis = system.basis
    dnu = basis.directional_derivative(system.sample.normals, coeffs)
    for j, du in enumerate(du_inc):
        dnu[:, :, j] += basis.to_frame(du)
    return dnu


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
    Re[ u'_i(x_k) . conj(F_k - u(x_k)) ] = Re(J^H r) the same way, in input
    order.

    Measurement sets that agree on the medium (lambda, mu, omega) and R
    share one boundary system: it is factored once, and every further
    incident wave is re-solved against it.  The Jacobian is never formed:
    each set's gradient is -q . Re(w), with q the perturbation table of its
    system and w(p) = sum_c conj(d_nu u)(p, c) z(p, c) over the frame
    components c, where z = ``system.adjoint_solve(M^H r)`` is the adjoint
    field (one minimum-norm solve, see the module docstring).  Each set
    pays its own forward solve or re-solve, residual and adjoint solve,
    each with one column.  The perturbation table and the normal
    derivatives d_nu u are paid per system, not per set: after the loop
    over the sets, one batched
    :meth:`~elastoscat.wavefields.WaveBasis.directional_derivative` gives
    d_nu u for all of a system's sets, each column bitwise what it gives
    alone, so the sum does not depend on how the sets share systems.

    Raises :class:`ObjectiveError`, chained from the forward solve's error,
    when any forward solve fails, so the descent loop can reject the step
    or, on a residual failure, refine the truncation.
    """
    f = 0.0
    first: dict[tuple, ScatteredSolution] = {}  # (medium, R) -> the solve that factored its system
    columns: dict[tuple, tuple[list, list]] = {}  # (medium, R) -> coefficient vectors and incident d_nu u
    adjoint = []  # per dataset, in input order: (medium, R), its column there, the adjoint field z
    for ds in datasets:
        key = (ds.med, ds.radius)
        try:
            if key in first:
                u_inc, grad_inc = incident_field(ds.incident, ds.med, first[key].sample.points)
                sol = first[key].resolve(-u_inc)
            else:
                sol = first[key] = solve_rigid_scattering(sp, ds.incident, ds.med, ds.radius, options)
                grad_inc = None  # the solve evaluated its Dirichlet data itself
        except (SolverError, GeometryError, DomainError) as exc:
            raise ObjectiveError(f"forward evaluation failed: {exc}") from exc
        system = sol.system
        m = system.measurement_matrix(ds.points)
        u = incident_field(ds.incident, ds.med, ds.points)[0] + (m @ sol.coeff_vector).reshape(-1, 3)
        r = (u - ds.u).reshape(-1)
        f += 0.5 * float(np.real(np.vdot(r, r)))
        if with_gradient:
            # M^H r, applied as conj(M^T conj(r)) on the read-only cached M
            z = system.adjoint_solve(np.conjugate(m.T @ np.conjugate(r)))
            if grad_inc is None:
                grad_inc = incident_field(ds.incident, ds.med, sol.sample.points)[1]
            coeffs, du_inc = columns.setdefault(key, ([], []))
            adjoint.append((key, len(coeffs), z))
            coeffs.append(sol.coeff_vector)
            du_inc.append(_incident_normal_derivative(grad_inc, sol.sample))
    if not np.isfinite(f):
        raise ObjectiveError("objective is not finite")
    if not with_gradient:
        return f
    dnu, q_table = {}, {}
    for key, (coeffs, du_inc) in columns.items():
        system = first[key].system
        dnu[key] = _normal_derivatives(system, np.stack(coeffs, axis=1), du_inc)
        q_table[key] = perturbation_q_table(sp, system.sample)
    grad = np.zeros(coeff_length(sp.order))
    for key, j, z in adjoint:
        grad -= q_table[key] @ np.einsum("pc,pc->p", np.conjugate(dnu[key][:, :, j]), z).real
    return f, grad
