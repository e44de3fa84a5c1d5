"""Exterior rigid-Dirichlet forward solver.

The scattered field is expanded in origin-centered outgoing elastic
wavefunctions and the rigid condition u = 0 on the obstacle surface is
enforced in a surface-measure weighted least-squares sense on a boundary
quadrature grid (null-field / Rayleigh-hypothesis representation; valid
for the mildly deformed star-shaped surfaces targeted here, and the
boundary residual is always reported so failures are visible).

The least-squares system is assembled once, in each boundary point's
spherical frame (a rotation of a point's rows changes no residual, so the
Dirichlet data is rotated instead), row-weighted and column-norm
equilibrated in place (Hankel growth across orders makes the raw columns
badly scaled).  Its Gram matrix A^H A comes from one real symmetric
product, and its diagonal gives the column norms; the upper-triangular R
with R^H R = A^H A is the Cholesky factor of that Gram matrix, so no Q is
formed.  Right-hand sides are solved by corrected semi-normal equations
(CSNE: y = R^-1 R^-H A^H b) followed by exactly one refinement step with
the residual b - A y, which brings the accuracy back to that of a QR solve
(A. Bjorck, Linear Algebra Appl. 88/89 (1987) 31-48) as long as
cond(R)^2 eps is small.  Past that, or when the Cholesky fails, R comes
from a Householder QR that forms R only (such a system pays Gram,
Cholesky and QR, about 1.5 times a QR alone).  Only a system whose R says
a truncated SVD could drop a singular value (or one with fewer rows than
columns) is factored by that truncated SVD instead, which keeps its U_k^H.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .geometry import BoundarySample, GeometryError, SurfaceParam, sample_boundary
from .modal import Medium, PotentialCoeffs, default_truncation
from .wavefields import WaveBasis


class SolverError(RuntimeError):
    """Forward solve failed to reach the requested boundary residual."""


_SVD_CUTOFF = 1e-12  # relative singular-value cutoff of the truncated SVD (see _factor)
# Largest cond_1(R)^2 eps for which one CSNE refinement step on the Cholesky R
# still matches a QR solve (cond_1 up to about 6.7e6); see _factor.
_CHOLESKY_LIMIT = 1e-2


@dataclass(frozen=True)
class IncidentWave:
    """Plane compressional or shear wave.

    kind "p": u_inc = d exp(i kp x.d); kind "s": u_inc = pol exp(i ks x.d)
    with pol a unit vector orthogonal to d.
    """

    kind: str
    direction: tuple[float, float, float]
    polarization: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("p", "s"):
            raise ValueError(f"incident wave kind must be 'p' or 's', got {self.kind!r}")
        d = np.asarray(self.direction, dtype=float)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-10:  # NaN fails as well
            raise ValueError("incident direction must be a unit vector")
        object.__setattr__(self, "direction", tuple(float(x) for x in d))
        if self.kind == "s":
            if self.polarization is None:
                raise ValueError("shear wave requires a polarization vector")
            p = np.asarray(self.polarization, dtype=float)
            if not (abs(np.linalg.norm(p) - 1.0) <= 1e-10 and abs(np.dot(p, d)) <= 1e-10):
                raise ValueError("shear polarization must be unit and orthogonal to the direction")
            object.__setattr__(self, "polarization", tuple(float(x) for x in p))
        elif self.polarization is not None:
            raise ValueError("compressional waves carry no independent polarization")

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "direction": list(self.direction)}
        if self.polarization is not None:
            d["polarization"] = list(self.polarization)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "IncidentWave":
        pol = d.get("polarization")
        return cls(d["kind"], tuple(d["direction"]), tuple(pol) if pol is not None else None)


def incident_field(w: IncidentWave, med: Medium, points: np.ndarray):
    """Plane-wave displacement and its Cartesian Jacobian at the given points.

    Returns ``(u, grad)`` with shapes (npts, 3) and (npts, 3, 3); the wave
    satisfies the Navier equation identically.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = np.asarray(w.direction)
    kappa = med.kappa_p if w.kind == "p" else med.kappa_s
    pol = d if w.kind == "p" else np.asarray(w.polarization)
    phase = np.exp(1j * kappa * points @ d)
    u = pol[None, :] * phase[:, None]
    grad = (1j * kappa) * phase[:, None, None] * np.einsum("i,l->il", pol, d)[None, :, :]
    return u, grad


@dataclass(frozen=True)
class SolverOptions:
    """Discretization controls for the exterior solve.

    ``n_trunc`` defaults to the Wiscombe-style order for modal content
    kappa_s * R; ``quad_order`` to ``n_trunc + 4``, the one quadrature rule
    of every solve (about 3.8 rows per column; ``n_trunc + 2`` conditions
    the equilibrated system ten times worse).  ``residual_tol`` is the
    relative boundary residual beyond which the solve is reported as not
    converged.
    """

    n_trunc: int | None = None
    quad_order: int | None = None
    residual_tol: float = 1e-6

    def resolve(self, med: Medium, radius: float) -> "SolverOptions":
        n = self.n_trunc if self.n_trunc is not None else default_truncation(med.kappa_s, radius)
        q = self.quad_order if self.quad_order is not None else n + 4
        return replace(self, n_trunc=n, quad_order=q)


@lru_cache(maxsize=1)
def _measurement_matrix(kappa_p: float, kappa_s: float, radius: float, order: int, shape: tuple, data: bytes):
    """Read-only basis matrix at the points packed in ``data``; see :meth:`BoundarySystem.measurement_matrix`."""
    a = WaveBasis(kappa_p, kappa_s, radius, order, np.frombuffer(data).reshape(shape)).matrix()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BoundarySystem:
    """The factored boundary least-squares system of one surface sample,
    medium and truncation.

    ``a`` is the equilibrated matrix A: the basis in each sample point's
    spherical frame (``WaveBasis.matrix(spherical=True)``), its rows scaled
    by the square roots of the quadrature weights ``row_w`` and its columns
    by ``colscale``.  With R upper triangular and R^H R = A^H A (the Cholesky
    factor of the Gram matrix, or the R of a Householder QR for systems too
    ill-conditioned for it), ``right = R^-1`` and ``qh`` is None: no Q is
    formed, and every right-hand side is solved by corrected semi-normal
    equations with one refinement step against ``a``.  From the truncated
    SVD used for near-singular systems, ``qh = U_k^H`` and
    ``right = V_k S_k^-1`` over the ``rank`` singular values kept, and the
    solution operator is ``right @ qh``.
    ``condition`` is the 1-norm condition number of R, or the ratio of the
    largest to the smallest kept singular value.  Nothing here depends on
    the Dirichlet data, so one system serves the forward field of every
    incident wave and every domain-derivative column on that surface.
    """

    sample: BoundarySample
    basis: WaveBasis
    med: Medium
    options: SolverOptions
    qh: np.ndarray | None
    right: np.ndarray
    colscale: np.ndarray
    row_w: np.ndarray
    a: np.ndarray
    rank: int
    condition: float

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Least-squares coefficients for Cartesian boundary values of shape
        (npts, 3) or (npts, 3, k); returns (ncols,) or (ncols, k)."""
        return self._unscale(self._solve(values)[0])

    def _solve(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(y, bw)``: ``bw`` the right-hand sides, ``values`` rotated into
        the spherical frames and row-weighted, and ``y`` the least-squares
        solution of A y = bw in the equilibrated unknowns."""
        bw = self.basis.to_frame(values).reshape((-1,) + values.shape[2:])
        bw *= self.row_w.reshape((-1,) + (1,) * (bw.ndim - 1))
        if self.qh is not None:
            y = self.right @ (self.qh @ bw)
        else:
            y = self._seminormal(bw)
            y += self._seminormal(bw - self.a @ y)  # the one refinement step
        return y, bw

    def _unscale(self, y: np.ndarray) -> np.ndarray:
        """The coefficients y * colscale of equilibrated unknowns ``y``, in place."""
        y *= self.colscale.reshape((-1,) + (1,) * (y.ndim - 1))
        return y

    def _seminormal(self, bw: np.ndarray) -> np.ndarray:
        """R^-1 R^-H A^H bw: the semi-normal solution."""
        atb = np.conjugate(self.a.T @ np.conjugate(bw))  # A^H bw without a copy of A^H
        return self.right @ (self._right_h @ atb)

    @cached_property
    def _right_h(self) -> np.ndarray:
        """R^-H, contiguous, formed once per system."""
        return np.conjugate(self.right.T, order="C")

    def measurement_matrix(self, points: np.ndarray) -> np.ndarray:
        """Basis field values at exterior points, (3 npts, ncols), read-only.

        The matrix depends only on the wavenumbers, reference radius,
        truncation and points, so it is cached on those and outlives the
        system.  The cache keeps one matrix: that serves a whole
        continuation stage or ``synth`` frequency, and a larger one kept
        earlier stages' matrices alive.
        """
        points = np.ascontiguousarray(np.atleast_2d(points), dtype=float)
        b = self.basis
        return _measurement_matrix(b.kappa_p, b.kappa_s, b.ref_radius, b.nmax, points.shape, points.tobytes())


def _triu_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix, exactly upper triangular.

    Recursive 2 x 2 blocking: inv([[R11, R12], [0, R22]]) is
    [[X11, -X11 R12 X22], [0, X22]] with X11, X22 the inverses of the
    diagonal blocks, so all but the smallest blocks are matrix products.
    Raises :class:`numpy.linalg.LinAlgError` when R is exactly singular.
    """
    n = r.shape[0]
    if n <= 64:
        return np.triu(np.linalg.inv(r))
    k = n // 2
    x11 = _triu_inverse(r[:k, :k])
    x22 = _triu_inverse(r[k:, k:])
    out = np.zeros_like(r)
    out[:k, :k] = x11
    out[k:, k:] = x22
    out[:k, k:] = -(x11 @ r[:k, k:]) @ x22
    return out


def _gram(a: np.ndarray) -> np.ndarray:
    """A^H A of a complex matrix from one real symmetric product.

    With V = [Re A, Im A] interleaved column by column (``a.view(float)``),
    H = V^T V holds Re A^T Re A, Re A^T Im A, Im A^T Re A and Im A^T Im A as
    its four strided blocks; numpy forms H by a syrk, at about half the
    flops of the complex product.
    """
    v = a.view(float)
    h = v.T @ v
    g = np.empty((a.shape[1],) * 2, dtype=complex)
    np.add(h[0::2, 0::2], h[1::2, 1::2], out=g.real)
    np.subtract(h[0::2, 1::2], h[1::2, 0::2], out=g.imag)
    return g


def _inverse_and_condition(r: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``(R^-1, cond_1(R))`` of an upper-triangular R, or None when R is exactly singular."""
    try:
        r_inv = _triu_inverse(r)
    except np.linalg.LinAlgError:
        return None
    return r_inv, float(np.linalg.norm(r, 1) * np.linalg.norm(r_inv, 1))


def _factor(a: np.ndarray, gram: np.ndarray, svd_cutoff: float) -> tuple[np.ndarray | None, np.ndarray, int, float]:
    """``(qh, right, rank, condition)`` of an equilibrated matrix ``a`` with
    Gram matrix ``gram`` = A^H A.

    R is the upper-triangular Cholesky factor of ``gram``, ``qh`` is None,
    ``right`` = R^-1 from a triangular inverse and ``condition`` the 1-norm
    condition number of R.  One CSNE refinement step recovers the accuracy
    of a QR solve only while cond(R)^2 eps is small, so when the Cholesky
    fails or ``condition**2 * eps`` exceeds ``_CHOLESKY_LIMIT``, R is taken
    from a Householder QR of ``a`` that forms R only.  The columns have unit
    norm, so s_max <= sqrt(cols) and s_min >= 1 / ||R^-1||_F: a truncated SVD
    with relative cutoff ``svd_cutoff`` keeps every singular value when
    ``sqrt(cols) * ||R^-1||_F * svd_cutoff < 1``.  Otherwise, or when there
    are fewer rows than columns or R is singular, the truncated SVD is used,
    with ``qh = U_k^H`` and ``right = V_k S_k^-1``.
    """
    rows, cols = a.shape
    if rows >= cols:
        try:
            low = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            kept = None  # not numerically positive definite: the QR below decides
        else:
            kept = _inverse_and_condition(np.conjugate(low, out=low).T)
        if kept is None or not kept[1] * kept[1] * np.finfo(float).eps <= _CHOLESKY_LIMIT:  # a NaN falls back too
            kept = _inverse_and_condition(np.linalg.qr(a, mode="r"))
        if kept is not None:
            r_inv, condition = kept
            if math.sqrt(cols) * np.linalg.norm(r_inv) * svd_cutoff < 1:
                return None, r_inv, cols, condition
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero((s >= svd_cutoff * s[0]) & (s > 0)))
    if rank < s.shape[0]:
        warnings.warn(
            f"boundary system rank-deficient beyond cutoff: rank {rank}/{s.shape[0]}, "
            f"condition {s[0] / s[-1]:.3e}",
            stacklevel=3,
        )
    condition = float(s[0] / s[rank - 1]) if rank else math.inf
    return u[:, :rank].conj().T, vh[:rank].conj().T / s[:rank], rank, condition


@dataclass
class ScatteredSolution:
    """Outgoing-wavefunction expansion of a scattered field.

    The expansion satisfies the Navier equation and the radiation
    conditions term by term; only the Dirichlet data is enforced
    approximately, with the reported residual measuring the misfit.
    Solutions on the same surface, medium and truncation share one
    ``system``.
    """

    system: BoundarySystem
    coeff_vector: np.ndarray
    residual_rms: float
    residual_rel: float

    @property
    def sample(self) -> BoundarySample:
        return self.system.sample

    @property
    def basis(self) -> WaveBasis:
        return self.system.basis

    @property
    def order(self) -> int:
        return self.system.options.n_trunc

    @property
    def rank(self) -> int:
        return self.system.rank

    @property
    def condition(self) -> float:
        return self.system.condition

    @property
    def potentials(self) -> PotentialCoeffs:
        return PotentialCoeffs(self.order, self.basis.potentials_from_vector(self.coeff_vector))

    def solve_rhs(self, data_values: np.ndarray) -> np.ndarray:
        """Coefficient vectors for extra right-hand sides on the same system.

        ``data_values`` has shape (npts, 3) or (npts, 3, k); the returned
        coefficients have shape (ncols,) or (ncols, k).
        """
        return self.system.coefficients(data_values)

    def resolve(self, dirichlet_data) -> "ScatteredSolution":
        """Solution for other Dirichlet data on the same system.

        ``dirichlet_data`` is an array aligned with the sample nodes (npts, 3)
        or a callable mapping points to values.  The new solution reports
        its own residual, and :class:`SolverError` is raised when that
        residual exceeds the options' ``residual_tol``.
        """
        return _fit(self.system, _boundary_data(dirichlet_data, self.sample))

    def resolve_incident(self, w: IncidentWave) -> "ScatteredSolution":
        """Field scattered from another incident wave by the same rigid obstacle."""
        return self.resolve(-incident_field(w, self.system.med, self.sample.points)[0])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Scattered displacement at arbitrary exterior points, shape (npts, 3)."""
        return (self.system.measurement_matrix(points) @ self.coeff_vector).reshape(-1, 3)

    def measure(self, w: IncidentWave, points: np.ndarray) -> "MeasurementSet":
        """Total displacement u_inc + v of incident wave ``w`` at points on the
        sphere of the basis reference radius."""
        med = self.system.med
        u = incident_field(w, med, points)[0] + self.evaluate(points)
        return MeasurementSet(radius=self.basis.ref_radius, med=med, incident=w, points=points, u=u)


def _boundary_data(dirichlet_data, sample: BoundarySample) -> np.ndarray:
    """Dirichlet values at the sample nodes from an array or a callable, shape (npts, 3)."""
    data = dirichlet_data(sample.points) if callable(dirichlet_data) else np.asarray(dirichlet_data)
    if data.shape != (sample.npts, 3):
        raise ValueError(f"dirichlet data shape {data.shape} != ({sample.npts}, 3)")
    return data


def _fit(system: BoundarySystem, data: np.ndarray) -> ScatteredSolution:
    """Back-substitute boundary data through a factored system and check the residual."""
    sample = system.sample
    y, bw = system._solve(data)

    total_w = float(np.sum(sample.weights))
    resid_norm = float(np.linalg.norm(system.a @ y - bw))
    rms = resid_norm / math.sqrt(total_w)
    bnorm = float(np.linalg.norm(bw))
    rel = resid_norm / bnorm if bnorm != 0 else 0.0
    tol = system.options.residual_tol
    if not rel <= tol:  # written so that a NaN residual fails too
        raise SolverError(
            f"boundary residual {rel:.3e} (relative) exceeds tolerance {tol:.1e} "
            f"at truncation order {system.options.n_trunc}"
        )
    return ScatteredSolution(system, system._unscale(y), rms, rel)


def solve_exterior_dirichlet(
    sp: SurfaceParam,
    dirichlet_data,
    med: Medium,
    radius: float,
    options: SolverOptions = SolverOptions(),
) -> ScatteredSolution:
    """Fit an outgoing-wavefunction expansion to Dirichlet data on the surface.

    ``dirichlet_data`` is either an array of boundary values aligned with
    the sample nodes (npts, 3) or a callable mapping points to values.  On
    a sphere centered at the origin the fit decouples into per-mode blocks
    and is exact up to truncation.  Further data on the same system is
    solved with :meth:`ScatteredSolution.resolve`, which reuses the
    :class:`BoundarySystem` factored here.  The problem is posed between the
    surface and Gamma_R, so :class:`GeometryError` is raised unless the
    surface sample lies strictly inside the sphere of ``radius``.
    """
    opts = options.resolve(med, radius)
    sample = sample_boundary(sp, opts.quad_order)
    r_max = float(np.linalg.norm(sample.points, axis=1).max())
    if not r_max < radius:  # written so that a NaN surface fails too
        raise GeometryError(f"surface reaches radius {r_max:.6g}, outside the sphere Gamma_R of radius {radius}")
    data = _boundary_data(dirichlet_data, sample)
    basis = WaveBasis(med.kappa_p, med.kappa_s, radius, opts.n_trunc, sample.points)
    row_w = np.repeat(np.sqrt(sample.weights), 3)
    a = basis.matrix(spherical=True)
    a *= row_w[:, None]
    gram = _gram(a)
    colnorm = np.sqrt(gram.diagonal().real)
    colscale = np.where(colnorm > 0, 1.0 / colnorm, 0.0)
    a *= colscale
    gram *= colscale[:, None]
    gram *= colscale  # the Gram matrix of the equilibrated a
    qh, right, rank, condition = _factor(a, gram, _SVD_CUTOFF)
    system = BoundarySystem(sample, basis, med, opts, qh, right, colscale, row_w, a, rank, condition)
    return _fit(system, data)


def solve_rigid_scattering(
    sp: SurfaceParam,
    w: IncidentWave,
    med: Medium,
    radius: float,
    options: SolverOptions = SolverOptions(),
) -> ScatteredSolution:
    """Solve for the field scattered by a rigid obstacle: v = -u_inc on the surface."""
    return solve_exterior_dirichlet(sp, lambda pts: -incident_field(w, med, pts)[0], med, radius, options)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def fibonacci_sphere(k: int, radius: float = 1.0) -> np.ndarray:
    """k quasi-uniform points on the sphere (Fibonacci lattice, pole-free)."""
    i = np.arange(k)
    z = 1.0 - (2.0 * i + 1.0) / k
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    rho = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    return radius * np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


@dataclass
class MeasurementSet:
    """Displacement measurements of the total field on the sphere Gamma_R."""

    radius: float
    med: Medium
    incident: IncidentWave
    points: np.ndarray  # (K, 3), |x_k| = R
    u: np.ndarray  # (K, 3) complex
    delta: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"measurement radius must be positive and finite, got {self.radius}")
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.u = np.asarray(self.u, dtype=complex)
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.u))):
            raise ValueError("measurement points and values must be finite")
        r = np.linalg.norm(self.points, axis=1)
        if np.any(np.abs(r - self.radius) > 1e-8 * max(self.radius, 1.0)):
            raise ValueError("measurement points must lie on the sphere of the stated radius")
        if self.u.shape != self.points.shape:
            raise ValueError(
                f"measurement values of shape {self.u.shape} do not match points of shape {self.points.shape}"
            )

    @property
    def k(self) -> int:
        return self.points.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "R": self.radius,
            "omega": self.med.omega,
            "medium": {"lambda": self.med.lam, "mu": self.med.mu},
            "incident": self.incident.to_json_dict(),
            "points": self.points.tolist(),
            "u": [[[z.real, z.imag] for z in row] for row in self.u],
            "delta": self.delta,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MeasurementSet":
        if d.get("schema") != 1:
            raise ValueError(f"unsupported measurement schema: {d.get('schema')!r}")
        med = Medium(d["medium"]["lambda"], d["medium"]["mu"], d["omega"])
        u = np.array([[complex(re, im) for re, im in row] for row in d["u"]])
        return cls(
            radius=float(d["R"]),
            med=med,
            incident=IncidentWave.from_json_dict(d["incident"]),
            points=np.asarray(d["points"], dtype=float),
            u=u,
            delta=float(d.get("delta", 0.0)),
            seed=d.get("seed"),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "MeasurementSet":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def add_noise(ms: MeasurementSet, delta: float, seed: int) -> MeasurementSet:
    """Multiplicative uniform noise: each complex component scaled by (1 + delta * rand),
    rand ~ U[-1, 1], deterministic under the seed."""
    if delta < 0:
        raise ValueError("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    factors = 1.0 + delta * rng.uniform(-1.0, 1.0, size=ms.u.shape)
    return MeasurementSet(
        radius=ms.radius,
        med=ms.med,
        incident=ms.incident,
        points=ms.points.copy(),
        u=ms.u * factors,
        delta=delta,
        seed=seed,
    )
