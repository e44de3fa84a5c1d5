"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths it is used to check:
plane-wave PDE residuals come from high-precision finite differences
(mpmath), sphere scattering from per-mode block solves driven by
quadrature expansion of the boundary data, derivatives from central
differences, the perturbations q_i from one scalar harmonic per point
instead of the table path, and the wave basis from one (n, m) mode at a
time instead of one degree at a time.  The index decoders invert the
production index maps, and the basis-field helpers are the conveniences
the tests evaluate fields with.  The single-harmonic, vector-harmonic
and quadrature-expansion helpers read the production harmonic tables, and
the radiating-field evaluators read the production wave basis; the tests
check them by closed forms, orthonormality and the modal maps.  The
objective gradient is checked against Re(J^H r) from the full shape
Jacobian instead of the adjoint solve.  :func:`blas_threads` pins numpy's
OpenBLAS thread count for a test whose figures depend on its rounding.
"""

from __future__ import annotations

import contextlib
import ctypes
import math

import mpmath as mp
import numpy as np
from numpy.linalg import _umath_linalg

from elastoscat import derivative as dv, forward as fw, geometry as geo, specfun as sf
from elastoscat.wavefields import WaveBasis


# ---------------------------------------------------------------------------
# Single harmonics, vector harmonics and quadrature expansion on the table path
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with numpy's OpenBLAS on ``count`` threads, and restore
    the old count afterwards.

    The setter is OpenBLAS's Fortran-style ``openblas_set_num_threads_``
    (the count by reference), bound under the name templates of
    ``forward._bind_lapack``.  The block runs unpinned when the library
    exports no setter or no thread count.
    """
    lib = ctypes.CDLL(_umath_linalg.__file__)
    names = (template.format("openblas_set_num_threads") for template, _ in fw._BLAS_NAMES)
    setter = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
    if setter is None or fw._blas_threads is None:
        yield
        return
    setter.argtypes, setter.restype = [ctypes.POINTER(ctypes.c_int)], None
    old = fw._blas_threads()
    setter(ctypes.c_int(count))
    try:
        yield
    finally:
        setter(ctypes.c_int(old))


def z_log_derivative(n: int, t: float) -> complex:
    """Logarithmic derivative z_n(t); satisfies -(n+1) <= Re z <= -1, 0 < Im z <= t."""
    if n < 0:
        raise sf.DomainError(f"order must be >= 0, got {n}")
    return complex(sf.z_log_derivative_table(n, t)[n])


def sph_harmonic(idx: tuple[int, int], theta, phi):
    """Orthonormal spherical harmonic Y_n^m(theta, phi) of the index pair (n, m)."""
    n, m = idx
    if abs(m) > n:
        raise sf.DomainError(f"invalid harmonic index (n={n}, m={m})")
    scalar = np.isscalar(theta) and np.isscalar(phi)
    theta, phi = np.broadcast_arrays(np.atleast_1d(theta), np.atleast_1d(phi))
    y, _, _ = sf.sph_harmonic_tables(n, theta.ravel(), phi.ravel())
    out = y[:, sf.flatten_index(n, m) - 1].reshape(theta.shape)
    return complex(out.ravel()[0]) if scalar else out


def vector_harmonics(idx, theta, phi, radius: float):
    """Vector spherical harmonics (T_n^m, V_n^m, W_n^m) on the sphere of a given radius.

    With X = Y/radius:  T = grad_ang X / sqrt(n(n+1)), V = T x e_r, W = X e_r.
    The family is orthonormal in L^2 of the radius-``radius`` sphere.  For
    n = 0 the tangential members T, V are identically zero; the returned
    ``degenerate`` flag marks that case.

    Returns
    -------
    t, v, w : complex arrays of shape (npts, 3)
    degenerate : bool
    """
    n, m = idx
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    y, dy, dps = sf.sph_harmonic_tables(n, theta, phi)
    col = sf.flatten_index(n, m) - 1
    e_r, e_t, e_p = sf.spherical_frame(theta, phi)
    w = y[:, col, None] * e_r / radius
    if n == 0:
        zeros = np.zeros_like(w)
        return zeros, zeros.copy(), w, True
    norm = 1.0 / (radius * math.sqrt(n * (n + 1)))
    a = dy[:, col] * norm  # e_theta component of T
    b = dps[:, col] * norm  # e_phi component of T
    t = a[:, None] * e_t + b[:, None] * e_p
    v = b[:, None] * e_t - a[:, None] * e_p  # T x e_r
    return t, v, w, False


def vsh_expand(values: np.ndarray, quad: sf.SphereQuadrature, nmax: int) -> np.ndarray:
    """Expand a sampled 3-vector field on the unit sphere in (t, v, w) harmonics.

    ``values`` has shape (npts, 3); the returned array has shape
    ``((nmax+1)^2, 3)`` with columns ordered (t, v, w) in the unit-sphere
    normalized basis (i.e. radius = 1 in :func:`vector_harmonics`).
    """
    y, dy, dps = sf.sph_harmonic_tables(nmax, quad.theta, quad.phi)
    e_r, e_t, e_p = sf.spherical_frame(quad.theta, quad.phi)
    f_r = np.sum(values * e_r, axis=1)
    f_t = np.sum(values * e_t, axis=1)
    f_p = np.sum(values * e_p, axis=1)
    coeffs = np.zeros(((nmax + 1) ** 2, 3), dtype=complex)
    wf_r, wf_t, wf_p = quad.weights * f_r, quad.weights * f_t, quad.weights * f_p
    for n in range(nmax + 1):
        fac = 1.0 / math.sqrt(n * (n + 1)) if n > 0 else 0.0
        for m in range(-n, n + 1):
            col = sf.flatten_index(n, m) - 1
            a = np.conj(dy[:, col]) * fac
            b = np.conj(dps[:, col]) * fac
            coeffs[col, 0] = wf_t @ a + wf_p @ b
            coeffs[col, 1] = wf_t @ b - wf_p @ a
            coeffs[col, 2] = wf_r @ np.conj(y[:, col])
    return coeffs


def eval_surface(sp, theta, phi):
    """Surface point, parametric tangents and unit outward normal at one (th, ph)."""
    pts, d_t, d_p = geo.surface_points(sp, [theta], [phi])
    cross = np.cross(d_t[0], d_p[0])
    normal = cross / np.linalg.norm(cross)
    if np.dot(normal, pts[0]) < 0:
        normal = -normal
    return pts[0], (d_t[0], d_p[0]), normal


def perturbation_q(i, sp, theta, phi, normal):
    """Normal-velocity basis function q_i = nu_j * {Re|Im} Y_n^m at one point."""
    j, is_imag, n, m = decode_coeff_index(i, sp.order)
    y = sph_harmonic((n, m), theta, phi)
    return float(normal[j - 1] * (y.imag if is_imag else y.real))


def navier_residual_fd(field, lam, mu, omega, point, h="1e-10", dps=40):
    """Navier-equation residual of a displacement field by mpmath central FD.

    ``field(x)`` must accept a 3-list of mpmath floats and return a 3-list
    of mpmath complex values.  Returns the max-abs residual component.
    """
    with mp.workdps(dps):
        hh = mp.mpf(h)
        x0 = [mp.mpf(repr(float(c))) for c in point]

        def at(dx):
            return field([x0[0] + dx[0], x0[1] + dx[1], x0[2] + dx[2]])

        u0 = at((0, 0, 0))
        lap = [mp.mpc(0)] * 3
        for axis in range(3):
            dx = [mp.mpf(0)] * 3
            dx[axis] = hh
            up = at(tuple(dx))
            dx[axis] = -hh
            um = at(tuple(dx))
            for c in range(3):
                lap[c] += (up[c] - 2 * u0[c] + um[c]) / hh**2

        def div_at(dx0):
            total = mp.mpc(0)
            for axis in range(3):
                dx = list(dx0)
                dx[axis] = dx[axis] + hh
                up = at(tuple(dx))
                dx[axis] = dx[axis] - 2 * hh
                um = at(tuple(dx))
                total += (up[axis] - um[axis]) / (2 * hh)
            return total

        graddiv = []
        for axis in range(3):
            dx = [mp.mpf(0)] * 3
            dx[axis] = hh
            dp = div_at(dx)
            dx[axis] = -hh
            dm = div_at(dx)
            graddiv.append((dp - dm) / (2 * hh))

        res = [
            mu * lap[c] + (lam + mu) * graddiv[c] + omega**2 * u0[c]
            for c in range(3)
        ]
        return max(abs(complex(r)) for r in res)


def fd_directional(field, points, directions, h=1e-6):
    """Central-difference directional derivative of a vector field."""
    up = field(points + h * directions)
    um = field(points - h * directions)
    return (up - um) / (2 * h)


def fd_curl(field, points, h=1e-6):
    """Central-difference curl of a 3-vector field at the given points."""
    partial = []
    eye = np.eye(3)
    for axis in range(3):
        up = field(points + h * eye[axis])
        um = field(points - h * eye[axis])
        partial.append((up - um) / (2 * h))  # d(field)/dx_axis, shape (npts, 3)
    curl = np.empty_like(partial[0])
    curl[:, 0] = partial[1][:, 2] - partial[2][:, 1]
    curl[:, 1] = partial[2][:, 0] - partial[0][:, 2]
    curl[:, 2] = partial[0][:, 1] - partial[1][:, 0]
    return curl


def sphere_block_solve(a, med, radius, order, boundary_data_fn, quad_order=None):
    """Per-mode solution of the exterior Dirichlet problem on a sphere.

    Expands the Dirichlet data on the radius-``a`` sphere in vector
    spherical harmonics by quadrature and inverts the decoupled 2x2/1x1
    per-mode trace systems.  Returns potential coefficients of shape
    ((order+1)^2, 3) referenced to the sphere of radius ``radius``.
    """
    if quad_order is None:
        quad_order = order + 2
    quad = sf.sphere_quadrature(quad_order)
    pts = sf.sph_to_cart(a, quad.theta, quad.phi)
    data = boundary_data_fn(pts)
    cu = vsh_expand(data, quad, order)  # unit-sphere (t, v, w) coefficients

    kp, ks = med.kappa_p, med.kappa_s
    h_pa = sf.spherical_h1_table(order, np.array([kp * a]))
    hp_pa = sf.spherical_h1_deriv_table(h_pa, np.array([kp * a]))
    h_sa = sf.spherical_h1_table(order, np.array([ks * a]))
    hp_sa = sf.spherical_h1_deriv_table(h_sa, np.array([ks * a]))
    h_pr = sf.spherical_h1_table(order, np.array([kp * radius]))
    h_sr = sf.spherical_h1_table(order, np.array([ks * radius]))

    pot = np.zeros(((order + 1) ** 2, 3), dtype=complex)
    for n in range(order + 1):
        f_p = h_pa[n, 0] / h_pr[n, 0]
        fd_p = kp * hp_pa[n, 0] / h_pr[n, 0]
        f_s = h_sa[n, 0] / h_sr[n, 0]
        fd_s = ks * hp_sa[n, 0] / h_sr[n, 0]
        for m in range(-n, n + 1):
            col = sf.flatten_index(n, m) - 1
            if n == 0:
                pot[col, 0] = cu[col, 2] / (fd_p / radius)
                continue
            s = np.sqrt(n * (n + 1.0))
            # trace components of the basis fields in the unit (t, v, w) family
            mat = np.array(
                [
                    [s * f_p / a / radius, (f_s + a * fd_s) / a / radius],
                    [fd_p / radius, s * f_s / a / radius],
                ]
            )
            sol = np.linalg.solve(mat, np.array([cu[col, 0], cu[col, 2]]))
            pot[col, 0], pot[col, 1] = sol
            pot[col, 2] = cu[col, 1] / (ks**2 * radius * f_s / s / radius)
    return pot


def solve_on_tensor_grid(sp, w, med, radius, options):
    """:func:`elastoscat.forward.solve_rigid_scattering` with the boundary
    sampled on the tensor rule :func:`elastoscat.specfun.sphere_quadrature`
    instead of the reduced grid of :func:`elastoscat.geometry.boundary_quadrature`.

    The grid's basis tables are cached by order, so the cache is emptied
    before and after the tensor-grid solve.
    """
    reduced = geo.boundary_quadrature
    geo._grid_tables.cache_clear()
    geo.boundary_quadrature = sf.sphere_quadrature
    try:
        return fw.solve_rigid_scattering(sp, w, med, radius, options)
    finally:
        geo.boundary_quadrature = reduced
        geo._grid_tables.cache_clear()


# ---------------------------------------------------------------------------
# Index decoders: the inverses of the flat harmonic and coefficient indices
# ---------------------------------------------------------------------------


def unflatten_index(i: int) -> tuple[int, int]:
    """Inverse of :func:`elastoscat.specfun.flatten_index`."""
    if i < 1:
        raise sf.DomainError(f"flat index must be >= 1, got {i}")
    n = int(math.isqrt(i - 1))
    m = i - 1 - n * n - n
    if abs(m) > n:
        raise sf.DomainError(f"flat index {i} does not decode to a valid (n, m)")
    return n, m


def decode_coeff_index(i: int, order: int) -> tuple[int, bool, int, int]:
    """Decode a 1-based surface coefficient index into (coordinate j, is_imag, n, m)."""
    nmodes = (order + 1) ** 2
    if not 1 <= i <= 6 * nmodes:
        raise geo.GeometryError(f"coefficient index {i} out of range 1..{6 * nmodes}")
    block, inner = divmod(i - 1, nmodes)
    n, m = unflatten_index(inner + 1)
    return block // 2 + 1, bool(block % 2), n, m


def encode_coeff_index(j: int, is_imag: bool, n: int, m: int, order: int) -> int:
    """Inverse of :func:`decode_coeff_index`."""
    nmodes = (order + 1) ** 2
    block = 2 * (j - 1) + int(is_imag)
    return block * nmodes + sf.flatten_index(n, m)


# ---------------------------------------------------------------------------
# Radiating fields of potential coefficients
# ---------------------------------------------------------------------------


def vector_from_potentials(pot: np.ndarray) -> np.ndarray:
    """Stack a ((nmax+1)^2, 3) potential-coefficient array into a wave-basis
    coefficient vector (inverse of ``WaveBasis.potentials_from_vector``)."""
    return np.concatenate([pot[:, 0], pot[1:, 1], pot[1:, 2]])


def basis_field(basis: WaveBasis, vec: np.ndarray) -> np.ndarray:
    """Field of a coefficient vector at the basis points, shape (npts, 3)."""
    return (basis.matrix() @ vec).reshape(basis.npts, 3)


def frame_to_cartesian(basis: WaveBasis, values: np.ndarray) -> np.ndarray:
    """Cartesian components of vectors given along the basis points' frames
    (e_r, e_th, e_ph), shape (npts, 3) or (npts, 3, k) like ``values``: the
    inverse of ``basis.to_frame``."""
    return np.einsum("cpi,pc...->pi...", basis.frame, values)


def basis_gradient(basis: WaveBasis, vec: np.ndarray) -> np.ndarray:
    """Cartesian Jacobians du_i/dx_l of the field at the basis points, shape (npts, 3, 3)."""
    cols = []
    eye = np.eye(3)
    for l in range(3):
        d = np.broadcast_to(eye[l], (basis.npts, 3))
        cols.append(frame_to_cartesian(basis, basis.directional_derivative(d, vec)))
    return np.stack(cols, axis=2)


def eval_radiating_field(p, med, radius: float, points: np.ndarray, gradient: bool = False, min_radius=None):
    """Evaluate the radiating displacement field of the given potentials on
    the production wave basis.

    Parameters
    ----------
    points : (npts, 3) Cartesian points.
    gradient : also return the Cartesian Jacobians, shape (npts, 3, 3).
    min_radius : flag evaluation closer to the origin than this radius,
        where the origin-centered expansion may no longer converge.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.sqrt(np.sum(points**2, axis=1))
    if min_radius is not None and np.any(r < min_radius):
        raise sf.DomainError(
            f"evaluation at r = {r.min():.3g} is inside the declared validity radius {min_radius:.3g}"
        )
    basis = WaveBasis(med.kappa_p, med.kappa_s, radius, p.order, points)
    vec = vector_from_potentials(p.data)
    values = basis_field(basis, vec)
    if not gradient:
        return values
    return values, basis_gradient(basis, vec)


def eval_scalar_potential(p, med, radius: float, points: np.ndarray):
    """Scalar potential phi(x) and its radial derivative of the radiating field."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r, theta, phi_ang = sf.cart_to_sph(points)
    y, _, _ = sf.sph_harmonic_tables(p.order, theta, phi_ang)
    t = med.kappa_p * r
    h = sf.spherical_h1_table(p.order, t)
    hp = sf.spherical_h1_deriv_table(h, t)
    href = sf.spherical_h1_table(p.order, np.array([med.kappa_p * radius]))[:, 0]
    val = np.zeros(points.shape[0], dtype=complex)
    dval = np.zeros_like(val)
    for n in range(p.order + 1):
        sl = slice(n * n, (n + 1) ** 2)
        ymodes = y[:, sl] @ p.data[sl, 0]
        val += h[n] / href[n] * ymodes / radius
        dval += med.kappa_p * hp[n] / href[n] * ymodes / radius
    return val, dval


# ---------------------------------------------------------------------------
# Wave basis assembled one (n, m) mode at a time
# ---------------------------------------------------------------------------


def _mode_pack(basis, tables, n, col, shear):
    f0, f1, f2, f3 = basis.rad_s if shear else basis.rad_p
    ya, yt, yps, ytt, atp, app = tables
    r = basis.r
    f0n, f1n, f2n, f3n = f0[n], f1[n], f2[n], f3[n]
    a_y, a_t, a_p = ya[:, col], yt[:, col], yps[:, col]
    s_val = f0n * a_y
    grad = np.stack([f1n * a_y, f0n / r * a_t, f0n / r * a_p], axis=0)
    c_rt = f1n / r - f0n / r**2
    hess = {
        "rr": f2n * a_y,
        "rt": c_rt * a_t,
        "rp": c_rt * a_p,
        "tt": f0n / r**2 * ytt[:, col] + f1n / r * a_y,
        "tp": f0n / r**2 * atp[:, col],
        "pp": f0n / r**2 * app[:, col] + f1n / r * a_y,
    }
    return s_val, grad, hess


def _mode_rhess(basis, tables, n, col):
    """r d/dr of the spherical Hessian components (shear wavenumber)."""
    f0, f1, f2, f3 = basis.rad_s
    ya, yt, yps, ytt, atp, app = tables
    r = basis.r
    f0n, f1n, f2n, f3n = f0[n], f1[n], f2[n], f3[n]
    c_rt = f2n - 2 * f1n / r + 2 * f0n / r**2
    c_ang = f1n / r - 2 * f0n / r**2
    c_iso = f2n - f1n / r
    return {
        "rr": r * f3n * ya[:, col],
        "rt": c_rt * yt[:, col],
        "rp": c_rt * yps[:, col],
        "tt": c_ang * ytt[:, col] + c_iso * ya[:, col],
        "tp": c_ang * atp[:, col],
        "pp": c_ang * app[:, col] + c_iso * ya[:, col],
    }


def _matvec(h, v):
    return np.stack(
        [
            h["rr"] * v[0] + h["rt"] * v[1] + h["rp"] * v[2],
            h["rt"] * v[0] + h["tt"] * v[1] + h["tp"] * v[2],
            h["rp"] * v[0] + h["tp"] * v[1] + h["pp"] * v[2],
        ],
        axis=0,
    )


def _to_cartesian(basis, v_sph):
    e_r, e_t, e_p = basis.frame
    return v_sph[0][:, None] * e_r + v_sph[1][:, None] * e_t + v_sph[2][:, None] * e_p


def _cross(a, b):
    return np.stack(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]],
        axis=0,
    )


def basis_matrix_per_mode(basis):
    """``WaveBasis.matrix`` of ``basis``, one (n, m) column at a time."""
    out = np.empty((basis.npts, 3, basis.ncols), dtype=complex)
    m = basis.nmodes
    ks = basis.kappa_s
    radial = np.stack([basis.r, np.zeros_like(basis.r), np.zeros_like(basis.r)], axis=0)
    tables = tuple(basis._derivative_tables())  # the six angular tables, expanded once per basis
    for n in range(basis.nmax + 1):
        nn1 = n * (n + 1)
        for mm in range(-n, n + 1):
            col = sf.flatten_index(n, mm) - 1
            s_p, g_p, _ = _mode_pack(basis, tables, n, col, shear=False)
            out[:, :, col] = _to_cartesian(basis, g_p)
            if n == 0:
                continue
            s_s, g_s, h_s = _mode_pack(basis, tables, n, col, shear=True)
            e_m = np.stack([np.zeros_like(s_s), basis.r * g_s[2], -basis.r * g_s[1]], axis=0)
            out[:, :, 2 * m - 1 + col - 1] = (ks**2 * basis.ref_radius / nn1) * _to_cartesian(basis, e_m)
            e_n = 2.0 * g_s + ks**2 * s_s * radial + _matvec(h_s, radial)
            out[:, :, m + col - 1] = _to_cartesian(basis, e_n) / math.sqrt(nn1)
    return out.reshape(3 * basis.npts, basis.ncols)


def basis_deriv_along_per_mode(basis, directions):
    """Cartesian directional derivatives (d . grad) of every basis field of
    ``basis``, one (n, m) column at a time: ``basis.directional_derivative(d, I)``
    rotated out of the point frames, as a (3 npts, ncols) matrix."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.shape == (1, 3) and basis.npts > 1:
        directions = np.broadcast_to(directions, (basis.npts, 3))
    out = np.empty((basis.npts, 3, basis.ncols), dtype=complex)
    m = basis.nmodes
    ks = basis.kappa_s
    e_r, e_t, e_p = basis.frame
    nu_s = np.stack(
        [np.sum(directions * e_r, axis=1), np.sum(directions * e_t, axis=1), np.sum(directions * e_p, axis=1)],
        axis=0,
    )
    radial = np.stack([basis.r, np.zeros_like(basis.r), np.zeros_like(basis.r)], axis=0)
    tables = tuple(basis._derivative_tables())  # the six angular tables, expanded once per basis
    for n in range(basis.nmax + 1):
        nn1 = n * (n + 1)
        for mm in range(-n, n + 1):
            col = sf.flatten_index(n, mm) - 1
            s_p, g_p, h_p = _mode_pack(basis, tables, n, col, shear=False)
            out[:, :, col] = _to_cartesian(basis, _matvec(h_p, nu_s))
            if n == 0:
                continue
            s_s, g_s, h_s = _mode_pack(basis, tables, n, col, shear=True)
            hnu = _matvec(h_s, nu_s)
            jm = _cross(hnu, radial) + _cross(g_s, nu_s)
            out[:, :, 2 * m - 1 + col - 1] = (ks**2 * basis.ref_radius / nn1) * _to_cartesian(basis, jm)
            rh = _mode_rhess(basis, tables, n, col)
            gdotnu = g_s[0] * nu_s[0] + g_s[1] * nu_s[1] + g_s[2] * nu_s[2]
            jn = 3.0 * hnu + ks**2 * (gdotnu * radial + s_s * nu_s) + _matvec(rh, nu_s)
            out[:, :, m + col - 1] = _to_cartesian(basis, jn) / math.sqrt(nn1)
    return out.reshape(3 * basis.npts, basis.ncols)


# ---------------------------------------------------------------------------
# The objective gradient from the full shape Jacobian
# ---------------------------------------------------------------------------


def jacobian_gradient(sp, datasets, options) -> np.ndarray:
    """Sum over the datasets of Re(J^H r), with J from ``shape_jacobian`` and
    r the measurement residual; datasets on one medium and radius share the
    first one's solve through ``resolve_incident``, as in the objective."""
    grad = np.zeros(geo.coeff_length(sp.order))
    first = {}
    for ds in datasets:
        key = (ds.med, ds.radius)
        if key in first:
            sol = first[key].resolve_incident(ds.incident)
        else:
            sol = first[key] = fw.solve_rigid_scattering(sp, ds.incident, ds.med, ds.radius, options)
        r = (sol.measure(ds.incident, ds.points).u - ds.u).reshape(-1)
        grad += np.real(dv.shape_jacobian(sp, sol, ds.incident, ds.points).matrix.conj().T @ r)
    return grad
