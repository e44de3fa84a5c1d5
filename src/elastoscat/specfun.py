"""Special functions on the sphere.

Spherical Hankel functions of the first kind and their logarithmic
derivative, orthonormal scalar and vector spherical harmonics, harmonic
index flattening, and Gauss-Legendre x trapezoid quadrature on the sphere.

Harmonic convention
-------------------
We fix the orthonormal spherical harmonics as

    Y_n^m(th, ph) = sigma_m  nbar_n^{|m|}(cos th)  exp(-i m ph),

where ``nbar`` is the fully normalized associated Legendre function
(without phase) and ``sigma_m = (-1)^m`` for ``m >= 0`` and ``1`` for
``m < 0``.  This is the complex conjugate of the common Condon-Shortley
convention (azimuthal factor ``exp(-i m ph)`` instead of ``exp(+i m ph)``),
chosen so that the first-order real/imaginary parts expand the Cartesian
coordinate functions with the coefficient pattern used by the surface
encodings in :mod:`elastoscat.geometry`.  All quantities exposed by this
package are either convention independent or documented against this
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels


class DomainError(ValueError):
    """Argument outside a function's mathematical domain."""


# ---------------------------------------------------------------------------
# Harmonic index flattening: i = n^2 + n + m + 1 maps (n, m) with |m| <= n
# bijectively onto 1..(N+1)^2 for n <= N.
# ---------------------------------------------------------------------------


def flatten_index(n: int, m: int) -> int:
    """1-based flat index of the harmonic (n, m)."""
    if n < 0 or abs(m) > n:
        raise DomainError(f"invalid harmonic index (n={n}, m={m})")
    return n * n + n + m + 1


def unflatten_index(i: int) -> tuple[int, int]:
    """Inverse of :func:`flatten_index`."""
    if i < 1:
        raise DomainError(f"flat index must be >= 1, got {i}")
    n = int(math.isqrt(i - 1))
    m = i - 1 - n * n - n
    if abs(m) > n:
        raise DomainError(f"flat index {i} does not decode to a valid (n, m)")
    return n, m


def harmonic_columns(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree n and order m of every flat column ``flatten_index(n, m) - 1``, n <= nmax."""
    n = np.repeat(np.arange(nmax + 1), 2 * np.arange(nmax + 1) + 1)
    m = np.arange((nmax + 1) ** 2) - n * n - n
    return n, m


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------


def cart_to_sph(points: np.ndarray):
    """Cartesian (N, 3) -> (r, theta, phi) arrays, theta measured from +z."""
    points = np.atleast_2d(points)
    r = np.sqrt(np.sum(points**2, axis=-1))
    rho = np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2)
    theta = np.arctan2(rho, points[:, 2])
    phi = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2 * np.pi)
    return r, theta, phi


def sph_to_cart(r, theta, phi) -> np.ndarray:
    r, theta, phi = np.broadcast_arrays(r, theta, phi)
    st = np.sin(theta)
    return np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)], axis=-1)


def spherical_frame(theta, phi):
    """Orthonormal frame (e_r, e_th, e_ph) as (npts, 3) arrays."""
    theta = np.atleast_1d(theta)
    phi = np.atleast_1d(phi)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e_r = np.stack([st * cp, st * sp, ct], axis=-1)
    e_t = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_p = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return e_r, e_t, e_p


# ---------------------------------------------------------------------------
# Spherical Hankel functions of the first kind
# ---------------------------------------------------------------------------


def spherical_h1_table(nmax: int, t) -> np.ndarray:
    """h_n^{(1)}(t) for n = 0..nmax by upward recurrence (stable for Hankel).

    Returns a complex array of shape ``(nmax+1,) + t.shape``.  Values may
    overflow to inf for very large n at small t; use
    :func:`z_log_derivative_table` for ratio quantities in that regime.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("spherical Hankel functions require t > 0")
    h = np.empty((nmax + 1,) + t.shape, dtype=complex)
    h[0] = -1j * np.exp(1j * t) / t
    if nmax >= 1:
        h[1] = h[0] * (1.0 / t - 1j)
    for k in range(1, nmax):
        h[k + 1] = (2 * k + 1) / t * h[k] - h[k - 1]
    return h


def spherical_h1_deriv_table(h: np.ndarray, t) -> np.ndarray:
    """Derivatives h_n^{(1)'}(t) from a value table (h_{-1} = e^{it}/t)."""
    t = np.asarray(t, dtype=float)
    hp = np.empty_like(h)
    hp[0] = 1j * h[0] - h[0] / t
    n = np.arange(1, h.shape[0])
    shape = (-1,) + (1,) * t.ndim
    hp[1:] = h[:-1] - (n + 1).reshape(shape) / t * h[1:]
    return hp


def z_log_derivative_table(nmax: int, t: float) -> np.ndarray:
    """z_n(t) = t h_n^{(1)'}(t) / h_n^{(1)}(t) for n = 0..nmax.

    Overflow-free for large orders: the real part comes from the stable
    forward ratio recurrence, and the imaginary part from the Wronskian
    identity Im z_n = 1/(t |h_n|^2) evaluated in log space (exactly positive
    for all n, t > 0).  When the true imaginary part is positive but below
    the double-precision range it is clamped to the smallest subnormal so
    the sign invariant survives underflow.
    """
    t = float(t)
    if t <= 0:
        raise DomainError("z_n requires t > 0")
    z = np.empty(nmax + 1, dtype=complex)
    z[0] = complex(-1.0, t)
    if nmax == 0:
        return z
    logt = math.log(t)
    ratio = complex(1.0 / t, -1.0)  # h_1 / h_0
    log_h2 = -2.0 * logt  # ln |h_k|^2, running
    for k in range(1, nmax + 1):
        if k > 1:
            ratio = (2 * k - 1) / t - 1.0 / ratio
        log_h2 += 2.0 * math.log(abs(ratio))
        re = (t / ratio).real - (k + 1)
        im = math.exp(-logt - log_h2) if -logt - log_h2 > -744.0 else 5e-324
        z[k] = complex(re, im)
    return z


def z_log_derivative(n: int, t: float) -> complex:
    """Logarithmic derivative z_n(t); satisfies -(n+1) <= Re z <= -1, 0 < Im z <= t."""
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    return complex(z_log_derivative_table(n, t)[n])


# ---------------------------------------------------------------------------
# Scalar spherical harmonics
# ---------------------------------------------------------------------------


def sph_harmonic_tables(nmax: int, theta, phi):
    """Y_n^m and angular derivatives at the given angles, all modes n <= nmax.

    Returns ``(y, dy_dth, y_over_sin)`` complex arrays of shape
    ``(npts, (nmax+1)^2)`` indexed by ``flatten_index(n, m) - 1``, where
    ``y_over_sin[:, i] = -i m Y / sin(th)`` is the phi-derivative divided by
    sin(th) (pole-safe only on grids excluding the poles).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    costh, sinth = np.cos(theta), np.sin(theta)
    p, sdp = _kernels.legendre_tables(nmax, costh, sinth)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sin = np.where(sinth != 0, 1.0 / sinth, 0.0)[:, None]
    n, m = harmonic_columns(nmax)
    tri = _kernels.tri_index(n, np.abs(m))
    # sigma_m exp(-i m ph) for each distinct order, then spread over the columns
    orders = np.arange(-nmax, nmax + 1)
    sigma = np.where((orders > 0) & (orders % 2 == 1), -1.0, 1.0)
    ph = (sigma * np.exp(-1j * orders * phi[:, None]))[:, m + nmax]
    y = ph * p[:, tri]
    dy = ph * sdp[:, tri]
    dy *= inv_sin  # in place: fewer (npts, ncols) temporaries
    dphi_over_sin = (-1j * m) * y
    dphi_over_sin *= inv_sin
    return y, dy, dphi_over_sin


def sph_harmonic(idx: tuple[int, int], theta, phi):
    """Orthonormal spherical harmonic Y_n^m(theta, phi) of the index pair (n, m)."""
    n, m = idx
    if abs(m) > n:
        raise DomainError(f"invalid harmonic index (n={n}, m={m})")
    scalar = np.isscalar(theta) and np.isscalar(phi)
    theta, phi = np.broadcast_arrays(np.atleast_1d(theta), np.atleast_1d(phi))
    y, _, _ = sph_harmonic_tables(n, theta.ravel(), phi.ravel())
    out = y[:, flatten_index(n, m) - 1].reshape(theta.shape)
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
    y, dy, dps = sph_harmonic_tables(n, theta, phi)
    col = flatten_index(n, m) - 1
    e_r, e_t, e_p = spherical_frame(theta, phi)
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


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereQuadrature:
    """Tensor quadrature on the unit sphere: Gauss-Legendre in cos(th),
    uniform trapezoid in ph.

    Exactly integrates products Y_n^m conj(Y_{n'}^{m'}) for n, n' <= order.
    ``weights`` sum to 4 pi.
    """

    order: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    @property
    def npts(self) -> int:
        return self.theta.shape[0]

    def integrate(self, values: np.ndarray) -> complex | np.ndarray:
        """Integrate sampled values over the unit sphere (weights dot values)."""
        return np.tensordot(self.weights, values, axes=(0, 0))


@lru_cache(maxsize=64)
def sphere_quadrature(order: int) -> SphereQuadrature:
    """Quadrature integrating spherical-harmonic products up to the given order."""
    n_theta = order + 1
    n_phi = 2 * order + 2
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(x)
    phi_1d = 2 * np.pi * np.arange(n_phi) / n_phi
    th, ph = np.meshgrid(theta_1d, phi_1d, indexing="ij")
    wt = np.repeat(w, n_phi) * (2 * np.pi / n_phi)
    quad = SphereQuadrature(order, th.ravel(), ph.ravel(), wt)
    for arr in (quad.theta, quad.phi, quad.weights):
        arr.setflags(write=False)
    return quad


def vsh_expand(values: np.ndarray, quad: SphereQuadrature, nmax: int) -> np.ndarray:
    """Expand a sampled 3-vector field on the unit sphere in (t, v, w) harmonics.

    ``values`` has shape (npts, 3); the returned array has shape
    ``((nmax+1)^2, 3)`` with columns ordered (t, v, w) in the unit-sphere
    normalized basis (i.e. radius = 1 in :func:`vector_harmonics`).
    """
    y, dy, dps = sph_harmonic_tables(nmax, quad.theta, quad.phi)
    e_r, e_t, e_p = spherical_frame(quad.theta, quad.phi)
    f_r = np.sum(values * e_r, axis=1)
    f_t = np.sum(values * e_t, axis=1)
    f_p = np.sum(values * e_p, axis=1)
    coeffs = np.zeros(((nmax + 1) ** 2, 3), dtype=complex)
    wf_r, wf_t, wf_p = quad.weights * f_r, quad.weights * f_t, quad.weights * f_p
    for n in range(nmax + 1):
        fac = 1.0 / math.sqrt(n * (n + 1)) if n > 0 else 0.0
        for m in range(-n, n + 1):
            col = flatten_index(n, m) - 1
            a = np.conj(dy[:, col]) * fac
            b = np.conj(dps[:, col]) * fac
            coeffs[col, 0] = wf_t @ a + wf_p @ b
            coeffs[col, 1] = wf_t @ b - wf_p @ a
            coeffs[col, 2] = wf_r @ np.conj(y[:, col])
    return coeffs
