"""Special functions on the sphere.

Tables of spherical Hankel functions of the first kind and their
logarithmic derivative, orthonormal spherical harmonics and their angular
derivatives (as real Legendre factors and azimuthal phases, and the complex
tables those expand to), harmonic index flattening, and Gauss-Legendre x
trapezoid quadrature on the sphere.

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
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# Scalar spherical harmonics
# ---------------------------------------------------------------------------


class HarmonicFactors(NamedTuple):
    """Real and azimuthal factors of the harmonic tables at a point set.

    ``p`` and ``sdp`` are the normalized Legendre values and sin(th) d/dth of
    them, ``(npts, (nmax+1)(nmax+2)/2)`` float packed by
    ``_kernels.tri_index(n, |m|)``; ``phases`` holds sigma_m exp(-i m ph) for
    m = -nmax..nmax, ``(npts, 2 nmax + 1)`` complex; ``inv_sin`` is 1/sin(th),
    ``(npts, 1)``, set to 0 at the poles.  At nmax = 14 they take a fifth of
    the bytes of the three complex ``(npts, (nmax+1)^2)`` tables they expand to.
    """

    p: np.ndarray
    sdp: np.ndarray
    phases: np.ndarray
    inv_sin: np.ndarray

    @property
    def nmax(self) -> int:
        return self.phases.shape[1] // 2


def sph_harmonic_factors(nmax: int, theta, phi) -> HarmonicFactors:
    """The factors of Y_n^m and its angular derivatives at the given angles,
    all n <= nmax; :func:`sph_harmonic_values` and
    :func:`sph_harmonic_theta_derivative` expand them, with the operations of
    :func:`sph_harmonic_tables` in the same order, into bitwise its tables."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    costh, sinth = np.cos(theta), np.sin(theta)
    p, sdp = _kernels.legendre_tables(nmax, costh, sinth)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sin = np.where(sinth != 0, 1.0 / sinth, 0.0)[:, None]
    # sigma_m exp(-i m ph) for each distinct order
    orders = np.arange(-nmax, nmax + 1)
    sigma = np.where((orders > 0) & (orders % 2 == 1), -1.0, 1.0)
    return HarmonicFactors(p, sdp, sigma * np.exp(-1j * orders * phi[:, None]), inv_sin)


def _expand(f: HarmonicFactors, legendre: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Each column's order phase times its packed Legendre column of
    ``legendre`` (``f.p`` or ``f.sdp``), written into ``out`` or a new
    complex ``(npts, (nmax+1)^2)`` array."""
    n, m = harmonic_columns(f.nmax)
    tri = _kernels.tri_index(n, np.abs(m))
    cols = m + f.nmax
    out = f.phases[:, cols] if out is None else np.take(f.phases, cols, axis=1, out=out, mode="clip")
    out *= legendre[:, tri]  # phase times Legendre value, in that order
    return out


def sph_harmonic_values(f: HarmonicFactors):
    """``(y, dphi_over_sin)``: Y_n^m and -i m Y / sin(th), the phi-derivative
    divided by sin(th), as complex ``(npts, (nmax+1)^2)`` arrays indexed by
    ``flatten_index(n, m) - 1``.  The second is pole-safe only on grids
    excluding the poles."""
    y = _expand(f, f.p, None)
    dphi_over_sin = (-1j * harmonic_columns(f.nmax)[1]) * y
    dphi_over_sin *= f.inv_sin
    return y, dphi_over_sin


def sph_harmonic_theta_derivative(f: HarmonicFactors, out: np.ndarray | None = None) -> np.ndarray:
    """dY_n^m/dth, complex ``(npts, (nmax+1)^2)``, written into ``out`` when
    given (a table that is no longer needed, say).  It is sin(th) dY/dth
    divided by sin(th), so pole-safe only on grids excluding the poles."""
    dy = _expand(f, f.sdp, out)
    dy *= f.inv_sin
    return dy


def sph_harmonic_tables(nmax: int, theta, phi):
    """Y_n^m and angular derivatives at the given angles, all modes n <= nmax.

    Returns ``(y, dy_dth, y_over_sin)`` complex arrays of shape
    ``(npts, (nmax+1)^2)`` indexed by ``flatten_index(n, m) - 1``, where
    ``y_over_sin[:, i] = -i m Y / sin(th)`` is the phi-derivative divided by
    sin(th) (pole-safe only on grids excluding the poles): the factors of
    :func:`sph_harmonic_factors` expanded.
    """
    f = sph_harmonic_factors(nmax, theta, phi)
    y, dphi_over_sin = sph_harmonic_values(f)
    return y, sph_harmonic_theta_derivative(f), dphi_over_sin


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereQuadrature:
    """Quadrature on the unit sphere: rings at the Gauss-Legendre nodes in
    cos(th), each a uniform trapezoid in ph.

    The tensor rule of :func:`sphere_quadrature` (2 order + 2 points on
    every ring) exactly integrates products Y_n^m conj(Y_{n'}^{m'}) for
    n, n' <= order; ``geometry.boundary_quadrature`` thins its rings toward
    the poles.  ``weights`` sum to 4 pi.
    """

    order: int
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray


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
