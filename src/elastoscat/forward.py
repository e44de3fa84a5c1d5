"""Exterior rigid-Dirichlet forward solver.

The scattered field is expanded in origin-centered outgoing elastic
wavefunctions and the rigid condition u = 0 on the obstacle surface is
enforced in a surface-measure weighted least-squares sense on a boundary
quadrature grid (null-field / Rayleigh-hypothesis representation; valid
for the mildly deformed star-shaped surfaces targeted here, and the
boundary residual is always reported so failures are visible).

The least-squares system is assembled once, in each boundary point's
spherical frame (a rotation of a point's rows changes no residual, so the
Dirichlet data is rotated instead), row-weighted and handed to
``_factor``.  That equilibrates its columns in place (Hankel growth across
orders makes the raw columns badly scaled) and returns R^-1, with R the
upper-triangular Cholesky factor of the Gram matrix A^H A, so no Q is
formed.  BLAS and LAPACK write the Gram matrix (zherk and zgemm, as two
column panels of equal work), its Cholesky factor (zpotrf) and R^-1
(ztrtri) in turn into one n x n buffer, each over the one before, with no
temporary.  The two Gram panels run at once when a second core would
otherwise idle (:func:`_pair`, which ``cli.synth`` also uses for its
frequencies); the partition depends on the shape alone, so the bits do
not depend on whether they do.  The basis keeps its angular part as real
Legendre factors and azimuthal phases, not as complex tables of a third of
A's bytes, so a solve holds A plus one n x n matrix.
Right-hand sides are solved by corrected semi-normal equations
(CSNE: y = R^-1 R^-H A^H b) followed by exactly one refinement
step with the residual b - A y, which brings the accuracy back to that of
a QR solve (A. Bjorck, Linear Algebra Appl. 88/89 (1987) 31-48) as long as
cond_2(A)^2 eps is small; the adjoint solves of the objective gradient
take the minimum-norm counterpart, x = A R^-1 R^-H g, in the same way.
One number, kappa = sqrt(cols) ||R^-1||_F (an upper bound on
cond_2(A)), is the reported condition and decides the rest: past a limit
on kappa^2 eps, or when the Cholesky fails, the buffer is dropped and R
comes from a Householder QR that forms R only (such a system pays Gram,
Cholesky and QR, about 1.5 times a QR alone).  The fit is meaningful only
with full column rank, so a system whose kappa cannot rule out a singular
value below a relative cutoff raises :class:`SolverError`.  numpy's own
API has no herk, potrf or trtri, nor a gemm into part of a given array,
but the OpenBLAS that ``numpy.linalg`` already loads exports all four, so
they are bound here with ctypes from that library, which maps no new one.
scipy.linalg has them too, but importing it costs about 0.3 s and 26 MB
of resident memory per process, more than the factorizations of a short
run save.
"""

from __future__ import annotations

import ctypes
import json
import math
import operator
import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import BoundarySample, GeometryError, SurfaceParam, sample_boundary
from .modal import Medium, PotentialCoeffs, default_truncation
from .wavefields import WaveBasis


class SolverError(RuntimeError):
    """Forward solve failed: a rank-deficient system or a boundary residual above tolerance."""


class ResidualError(SolverError):
    """A solve's relative boundary residual exceeds its options' ``residual_tol``.

    The system itself was factored; only the truncation is too coarse for
    the requested residual, so a finer truncation may succeed.
    """


_RANK_CUTOFF = 1e-12  # smallest relative singular value of a full-rank system (see _factor)
# Largest kappa^2 eps for which one CSNE refinement step on the Cholesky R
# still matches a QR solve (kappa up to about 6.7e6); see _factor.
_CHOLESKY_LIMIT = 1e-2


def _bind_lapack() -> tuple:
    """``(zherk, zgemm, zpotrf, ztrtri, openblas_get_num_threads, integer
    type)`` from the BLAS library that ``numpy.linalg`` has already loaded.

    The names are tried as numpy >= 2 wheels (``scipy_zherk_64_``), numpy
    1.x ILP64 wheels (``zherk_64_``) and LP64 builds (``zherk_``) export
    them; the ``64_`` names take 64-bit integers.  Every argument is
    passed by reference, and each character argument is followed by its
    length, which gfortran-built LAPACK reads and OpenBLAS ignores.  The
    thread count is bound under the same name template, and is None when
    the library does not export it.
    """
    lib = ctypes.CDLL(_umath_linalg.__file__)
    tried = []
    for template, int_t in (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64), ("{}_", ctypes.c_int32)):
        names = [template.format(x) for x in ("zherk", "zgemm", "zpotrf", "ztrtri")]
        tried += names
        try:
            herk, gemm, potrf, trtri = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        char, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
        num, real, cplx = ctypes.POINTER(int_t), ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_double * 2)
        herk.argtypes = [char, char, num, num, real, ptr, num, real, ptr, num, length, length]
        gemm.argtypes = [char, char, num, num, num, cplx, ptr, num, ptr, num, cplx, ptr, num, length, length]
        potrf.argtypes = [char, num, ptr, num, num, length]
        trtri.argtypes = [char, char, num, ptr, num, num, length, length]
        for routine in (herk, gemm, potrf, trtri):
            routine.restype = None
        threads = getattr(lib, template.format("openblas_get_num_threads"), None)
        if threads is not None:
            threads.argtypes, threads.restype = [], ctypes.c_int
        return herk, gemm, potrf, trtri, threads, int_t
    raise ImportError(f"numpy's BLAS library exports none of: {', '.join(tried)}")


_zherk, _zgemm, _zpotrf, _ztrtri, _blas_threads, _LAPACK_INT = _bind_lapack()

# Below this many multiply-adds (m n^2 of an m x n Gram matrix), starting a
# thread costs more than the second panel saves.  Measured on 2 vCPUs with
# one BLAS thread, with A freshly written by the caller and a pause before
# each call, as in a solve: against both panels in turn, two threads took
# 1.51 times as long at 300 x 100 (3.0e6), 1.18-1.20 times at 456 x 106
# and 450 x 145 (5.1e6, 9.5e6), 0.96 times at 534 x 145 (1.1e7), 0.86
# times at 600 x 200 and 700 x 200 (2.4e7, 2.8e7) and 0.68 times at
# 852 x 298 (7.6e7).
_PAIR_FLOOR = 2e7
_PAIR_LOCK = threading.Lock()  # held while both calls of a pair run, each on its own thread


def _use_worker(work: float) -> bool:
    """Whether :func:`_pair` may put ``work`` multiply-adds' worth of its
    first piece on a second thread: only on an idle second core.  That is,
    at or above ``_PAIR_FLOOR``, with at least two CPUs in the process's
    affinity mask, and with numpy's OpenBLAS on one thread (with more, its
    own threads use the cores, and splitting on top of them was slower)."""
    return (
        work >= _PAIR_FLOOR
        and _blas_threads is not None
        and _blas_threads() == 1
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
    )


def _pair(first, second, work: float = math.inf) -> tuple:
    """``(first(), second())`` of two independent calls, the first on a new
    thread while the second runs on the caller.

    Both run on the caller, one after the other, unless
    :func:`_use_worker` allows ``work`` (multiply-adds; the default counts
    as large) a thread, and also while both calls of another pair are
    running on two threads, so that a pair nested inside one runs inline
    and takes no third core.  Once one of them ends, a pair nested in the
    other may take the core it left.  The thread is started per call and
    joined before this returns, so no thread outlives a call (nor crosses
    an ``os.fork``).
    An error of either call is raised once both have finished, the
    first's before the second's, as when they run in turn.  The callers
    split their work so that neither piece depends on where the other
    runs.  The name is private so that perfbench's tracer, which wraps
    the public functions of this module, does not time a Gram matrix as a
    span of its own.
    """
    if not (_use_worker(work) and _PAIR_LOCK.acquire(blocking=False)):
        return first(), second()
    results, errors = [None, None], [None, None]
    released = threading.Lock()

    def release() -> None:
        """Release the pair's lock once, when the first of its calls ends."""
        if released.acquire(blocking=False):
            _PAIR_LOCK.release()

    def run(i, fn):
        try:
            results[i] = fn()
        except BaseException as exc:  # raised below, once both calls have finished
            errors[i] = exc
        finally:
            release()

    try:
        worker = threading.Thread(target=run, args=(0, first), name="elastoscat-pair")
        worker.start()
        run(1, second)
        worker.join()
    finally:
        release()
    for exc in errors:
        if exc is not None:
            raise exc
    return results[0], results[1]


@dataclass(frozen=True)
class IncidentWave:
    """Plane compressional or shear wave.

    kind "p": u_inc = d exp(i kp x.d); kind "s": u_inc = pol exp(i ks x.d)
    with pol a unit vector orthogonal to d.  A direction or polarization
    that is not a unit 3-vector raises :class:`ValueError`.
    """

    kind: str
    direction: tuple[float, float, float]
    polarization: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("p", "s"):
            raise ValueError(f"incident wave kind must be 'p' or 's', got {self.kind!r}")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-10:  # NaN and inf fail as well
            raise ValueError(f"incident direction must be a unit 3-vector, got {self.direction!r}")
        object.__setattr__(self, "direction", tuple(float(x) for x in d))
        if self.kind == "s":
            if self.polarization is None:
                raise ValueError("shear wave requires a polarization vector")
            p = np.asarray(self.polarization, dtype=float)
            if p.shape != (3,) or not (abs(np.linalg.norm(p) - 1.0) <= 1e-10 and abs(np.dot(p, d)) <= 1e-10):
                raise ValueError("shear polarization must be a unit 3-vector orthogonal to the direction")
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
    kappa_s * R; ``quad_order`` to ``n_trunc + 4``, the one choice of order
    for the boundary grid :func:`~elastoscat.geometry.boundary_quadrature`
    of every solve (2.26 rows per column at n_trunc 14; ``n_trunc + 2``
    conditions the equilibrated system 4.5-4.8 times worse there on the
    (0.6, 0.75, 0.9) ellipsoid).  ``residual_tol`` is the relative boundary
    residual beyond which the solve is reported as not converged.  Both
    orders must be integers >= 0 and ``residual_tol`` must be positive, or
    :class:`ValueError` is raised at construction.  ``resolve`` raises
    :class:`ValueError` when ``quad_order`` is below ``n_trunc``, so every
    boundary system has more rows than columns.
    """

    n_trunc: int | None = None
    quad_order: int | None = None
    residual_tol: float = 1e-6

    def __post_init__(self):
        for name in ("n_trunc", "quad_order"):
            value = getattr(self, name)
            if value is None:
                continue
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)
        if not self.residual_tol > 0:  # a NaN fails too
            raise ValueError(f"residual tolerance must be positive, got {self.residual_tol}")

    def resolve(self, med: Medium, radius: float) -> "SolverOptions":
        n = self.n_trunc if self.n_trunc is not None else default_truncation(med.kappa_s, radius)
        q = self.quad_order if self.quad_order is not None else n + 4
        if q < n:
            raise ValueError(f"quadrature order {q} is below the truncation order {n}")
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
    ill-conditioned for it), ``right = R^-1`` and is the system's only n x n
    matrix: no Q is formed, R^-H is applied through ``right`` itself, and
    every right-hand side, given in the point frames, is solved by
    corrected semi-normal equations with one refinement step against ``a``
    (:meth:`adjoint_solve` gives the minimum-norm solutions of the adjoint
    system the same way).  No other module of the library reads ``a``,
    ``right``, ``colscale`` or ``row_w``.  Besides ``a`` and ``right``, the
    system holds only ``basis``'s harmonic factors, radial tables and point
    frames (2.1 MiB against A's 15.6 MiB at n_trunc 14 and 506 points); the
    basis keeps no complex angular table after a directional derivative
    either.  ``condition`` is kappa =
    sqrt(cols) ||R^-1||_F, the Frobenius condition number of R and an upper
    bound on cond_2(A); ``_factor`` computes all of these but ``row_w``.
    Nothing here depends on the Dirichlet data, so one system serves the
    forward field of every incident wave and every domain-derivative column
    on that surface.
    """

    sample: BoundarySample
    basis: WaveBasis
    med: Medium
    options: SolverOptions
    right: np.ndarray
    colscale: np.ndarray
    row_w: np.ndarray
    a: np.ndarray
    condition: float

    def _solve(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(y, bw)``: ``bw`` the right-hand sides ``values``, given in the
        spherical frames (npts, 3[, k]), row-weighted, and ``y`` the
        least-squares solution of A y = bw in the equilibrated unknowns."""
        bw = values.reshape((-1,) + values.shape[2:]) * self.row_w.reshape((-1,) + (1,) * (values.ndim - 2))
        y = self._seminormal(bw)
        y += self._seminormal(bw - self.a @ y)  # the one refinement step
        return y, bw

    def _unscale(self, y: np.ndarray) -> np.ndarray:
        """The coefficients y * colscale of equilibrated unknowns ``y``, in place."""
        y *= self.colscale.reshape((-1,) + (1,) * (y.ndim - 1))
        return y

    def _gram_inverse(self, u: np.ndarray) -> np.ndarray:
        """(A^H A)^-1 u = R^-1 R^-H u, with R^-H u formed as conj(R^-T conj(u))
        so that R^-H is never copied."""
        return self.right @ np.conjugate(self.right.T @ np.conjugate(u))

    def _seminormal(self, bw: np.ndarray) -> np.ndarray:
        """R^-1 R^-H A^H bw: the semi-normal solution, with A^H bw formed as
        conj(A^T conj(bw)) so that A^H is never copied."""
        return self._gram_inverse(np.conjugate(self.a.T @ np.conjugate(bw)))

    def adjoint_solve(self, g: np.ndarray) -> np.ndarray:
        """W x as an (npts, 3) array, x the minimum-norm solution of
        A^H x = S g (S = diag(``colscale``), W = diag(``row_w``)).

        A has full column rank, so x = (A^+)^H S g = A R^-1 R^-H S g.  It is
        computed by corrected semi-normal equations with one refinement
        step with the residual S g - A^H x, the minimum-norm counterpart of
        :meth:`_solve` (A. Bjorck, Linear Algebra Appl. 88/89 (1987) 31-48).
        With g = M^H r for a measurement matrix M and a residual r, W x is
        the adjoint field whose product with the Dirichlet data of a
        domain-derivative field gives that field's share of Re(J^H r).
        """
        sg = g * self.colscale
        x = self.a @ self._gram_inverse(sg)
        # the one refinement step, with A^H x formed as conj(A^T conj(x))
        x += self.a @ self._gram_inverse(sg - np.conjugate(self.a.T @ np.conjugate(x)))
        return (x * self.row_w).reshape(-1, 3)

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


def _data(x: np.ndarray, rows: int, cols: int) -> int:
    """The address of ``x`` for LAPACK, once it is checked to be a
    C-contiguous complex128 array of shape (rows, cols)."""
    if x.dtype != np.complex128 or not x.flags.c_contiguous or x.shape != (rows, cols):
        raise ValueError(f"LAPACK needs a C-contiguous complex128 {rows} x {cols} array")
    return x.ctypes.data


def _gram(a: np.ndarray) -> np.ndarray:
    """A^H A of a C-contiguous complex matrix ``a`` in the lower triangle of a
    new C-order array whose strict upper triangle is zero.

    BLAS works on the Fortran view of ``a``, the matrix X = A^T, and forms
    the upper triangle of X X^H = conj(A^H A) in Fortran order, which is
    the lower triangle of A^H A in C order.  With h = n // 2 and
    q = h + (n - h) // 2, it does so as two panels of equal work that write
    disjoint parts of the one n x n array: zherk (uplo U, trans N) on rows
    [0, h) of X, then zgemm for the block of rows [0, h) and columns
    [h, q); and zherk on rows [h, n), then zgemm for rows [0, h) and
    columns [q, n).  :func:`_pair` runs the two at once when a second core
    is idle.  The partition depends on the shape alone, so the result is
    the same bits whether they run at once or in turn.
    """
    m, n = a.shape
    h = n // 2
    q = h + (n - h) // 2
    g = np.zeros((n, n), dtype=complex)
    x, c, size = _data(a, m, n), _data(g, n, n), g.itemsize
    ld, depth = _LAPACK_INT(n), _LAPACK_INT(m)
    one, zero = ctypes.c_double(1.0), ctypes.c_double(0.0)
    one_c, zero_c = (ctypes.c_double * 2)(1.0, 0.0), (ctypes.c_double * 2)(0.0, 0.0)

    def panel(lo: int, hi: int, start: int, stop: int) -> None:
        """The upper triangle of block [lo, hi) x [lo, hi) of X X^H, then its
        block [0, h) x [start, stop).  X[r, k] lies r + k n elements into
        ``a``, and entry (r, s) r + s n elements into ``g``."""
        _zherk(b"U", b"N", _LAPACK_INT(hi - lo), depth, one, x + size * lo, ld, zero, c + size * lo * (n + 1), ld, 1, 1)
        cols, block = _LAPACK_INT(stop - start), c + size * start * n
        _zgemm(b"N", b"C", _LAPACK_INT(h), cols, depth, one_c, x, ld, x + size * start, ld, zero_c, block, ld, 1, 1)

    _pair(lambda: panel(0, h, h, q), lambda: panel(h, n, q, n), float(m) * n * n)
    return g


def _potrf(g: np.ndarray) -> int:
    """Overwrite the lower triangle of a Hermitian ``g`` (C order, only that
    triangle read) with its Cholesky factor L, G = L L^H, and return
    LAPACK's info: 0, or k > 0 when the leading minor of order k is not
    positive definite, with ``g`` then partly overwritten.

    zpotrf (uplo U) on the Fortran view conj(G) finds conj(G) = U^H U, so
    G = U^T conj(U) and L = U^T, which is where U lies in C order.
    """
    n = len(g)
    info = _LAPACK_INT()
    _zpotrf(b"U", _LAPACK_INT(n), _data(g, n, n), _LAPACK_INT(n), info, 1)
    return info.value


def _trtri(t: np.ndarray, lower: bool) -> int:
    """Overwrite a lower or upper triangular ``t`` (C order, non-unit
    diagonal; its other strict triangle is neither read nor written) with
    its inverse and return LAPACK's info: 0, or k > 0 when ``t[k-1, k-1]``
    is exactly zero.  ztrtri inverts the Fortran view T^T, whose inverse
    is (T^-1)^T, so the triangle is named the other way round.
    """
    n = len(t)
    info = _LAPACK_INT()
    _ztrtri(b"U" if lower else b"L", b"N", _LAPACK_INT(n), _data(t, n, n), _LAPACK_INT(n), info, 1, 1)
    return info.value


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``(R^-1, colscale, kappa)`` of a row-weighted boundary matrix ``a``
    with at least as many rows as columns, which is equilibrated in place.

    The Gram matrix A^H A of ``a`` fills one n x n buffer, formed by
    :func:`_gram` as two panels, at once on two threads where a second
    core is idle, with the same bits either way.  Its diagonal
    gives the column norms, whose inverses are ``colscale`` (0 for a zero
    column), and ``a`` and the Gram matrix are scaled to unit-norm columns.
    zpotrf writes the lower Cholesky factor L over the buffer, G = L L^H,
    and ztrtri writes L^-1 over L; R = L^H, so R^-1 = conj(L^-1)^T is the
    buffer conjugated in place and seen transposed.  With unit-norm columns
    ||R||_F = sqrt(cols), so kappa = sqrt(cols) ||R^-1||_F is the Frobenius
    condition number of R and bounds cond_2(A) from above.  One CSNE
    refinement step recovers the accuracy of a QR solve only while
    cond_2(A)^2 eps is small, so when the Cholesky fails (zpotrf does not
    stop at a NaN pivot, but kappa is then NaN) or ``kappa**2 * eps``
    exceeds ``_CHOLESKY_LIMIT``, the buffer is dropped and R is taken from
    a Householder QR of ``a`` that forms R only, inverted in place by
    ztrtri.  Since s_max <= sqrt(cols) and s_min >= 1 / ||R^-1||_F, the
    system has no singular value below ``_RANK_CUTOFF`` times the largest
    when ``kappa * _RANK_CUTOFF < 1``.  Otherwise, or when R is exactly
    singular, :class:`SolverError` is raised.
    """
    cols = a.shape[1]
    gram = _gram(a)
    colnorm = np.sqrt(gram.diagonal().real)
    colscale = np.divide(1.0, colnorm, out=np.zeros_like(colnorm), where=colnorm > 0)
    a *= colscale
    gram *= colscale[:, None]
    gram *= colscale
    condition = math.nan  # unless the Cholesky succeeds: the QR below decides
    if _potrf(gram) == 0 and _trtri(gram, lower=True) == 0:
        r_inv = np.conjugate(gram, out=gram).T
        condition = math.sqrt(cols) * np.linalg.norm(r_inv)
    del gram  # r_inv now holds the buffer's only reference
    if not condition * condition * np.finfo(float).eps <= _CHOLESKY_LIMIT:  # a NaN falls back too
        r_inv = None  # drop the buffer before the QR copies a
        r_inv = np.linalg.qr(a, mode="r")
        if _trtri(r_inv, lower=False) != 0:
            raise SolverError(f"boundary system of {cols} columns is rank-deficient: R is singular")
        condition = math.sqrt(cols) * np.linalg.norm(r_inv)
    if not condition * _RANK_CUTOFF < 1:  # a NaN fails too
        raise SolverError(
            f"boundary system of {cols} columns is rank-deficient: kappa = sqrt(cols) ||R^-1||_F "
            f"is {condition:.3e}, at or past 1 / {_RANK_CUTOFF:.0e}"
        )
    return r_inv, colscale, condition


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
        """Always ``basis.ncols``: a rank-deficient system raises
        :class:`SolverError`.  Kept only for perfbench's ``rank_deficient``
        metric."""
        return self.basis.ncols

    @property
    def potentials(self) -> PotentialCoeffs:
        return PotentialCoeffs(self.order, self.basis.potentials_from_vector(self.coeff_vector))

    def solve_rhs(self, data_values: np.ndarray) -> np.ndarray:
        """Coefficient vectors for extra right-hand sides on the same system.

        ``data_values`` has shape (npts, 3) or (npts, 3, k) and holds each
        sample point's components along its frame (e_r, e_th, e_ph), the
        frame of :meth:`~elastoscat.wavefields.WaveBasis.directional_derivative`
        (rotate Cartesian data with ``basis.to_frame`` first); the returned
        coefficients have shape (ncols,) or (ncols, k).
        """
        system = self.system
        return system._unscale(system._solve(data_values)[0])

    def resolve(self, dirichlet_data) -> "ScatteredSolution":
        """Solution for other Dirichlet data on the same system.

        ``dirichlet_data`` is an array aligned with the sample nodes (npts, 3)
        or a callable mapping points to values.  The new solution reports
        its own residual, and :class:`ResidualError` is raised when that
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
    """Back-substitute Cartesian boundary data, rotated here into the point
    frames, through a factored system and check the residual."""
    sample = system.sample
    y, bw = system._solve(system.basis.to_frame(data))

    total_w = float(np.sum(sample.weights))
    resid_norm = float(np.linalg.norm(system.a @ y - bw))
    rms = resid_norm / math.sqrt(total_w)
    bnorm = float(np.linalg.norm(bw))
    rel = resid_norm / bnorm if bnorm != 0 else 0.0
    tol = system.options.residual_tol
    if not rel <= tol:  # written so that a NaN residual fails too
        raise ResidualError(
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
    right, colscale, condition = _factor(a)
    system = BoundarySystem(sample, basis, med, opts, right, colscale, row_w, a, condition)
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
        if not 0 <= self.delta < math.inf:  # a NaN fails too
            raise ValueError(f"noise level delta must be nonnegative and finite, got {self.delta}")

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
            f.write(json.dumps(self.to_json_dict()) + "\n")  # json.dump would run the pure-Python encoder

    @classmethod
    def load(cls, path) -> "MeasurementSet":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def add_noise(ms: MeasurementSet, delta: float, seed: int) -> MeasurementSet:
    """Multiplicative uniform noise: each complex component scaled by (1 + delta * rand),
    rand ~ U[-1, 1], deterministic under the seed; a negative or non-finite
    ``delta`` raises :class:`ValueError` like :class:`MeasurementSet`."""
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
