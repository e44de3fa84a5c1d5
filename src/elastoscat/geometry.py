"""Star-shaped parametric surfaces from spherical-harmonic coefficients.

A surface is the image of r(th, ph) = (r_1, r_2, r_3) with

    r_j(th, ph) = sum_{n <= N} sum_m  a_jn^m Re Y_n^m + b_jn^m Im Y_n^m,

encoded by the real vector C of length 6 (N+1)^2 with block order
(a_1, b_1, a_2, b_2, a_3, b_3) and each block flattened by the harmonic
index i = n^2 + n + m + 1.  The real basis {Re Y, Im Y} is redundant
across +-m: each (n, -m) basis function is +-1 times its (n, m) one, and
Im Y_n^0 vanishes.  The encoding keeps the redundancy because the
inversion iterates on exactly this vector (the objective gradient treats
every entry as an independent coefficient); :func:`distinct_coeff_map`
exposes it, so the shape Jacobian solves only the 3 (N+1)^2 distinct
columns and fills the rest by sign.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import SphereQuadrature, flatten_index, harmonic_columns


class GeometryError(ValueError):
    """Degenerate or non-star-shaped surface."""


SQRT_2PI3 = math.sqrt(2 * math.pi / 3)  # first-order encoding constants for
SQRT_4PI3 = math.sqrt(4 * math.pi / 3)  # the Cartesian coordinate functions


def coeff_length(order: int) -> int:
    return 6 * (order + 1) ** 2


def distinct_coeff_map(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The +-m redundancy of the coefficient encoding as index arrays.

    With Y_n^{-m} = (-1)^m conj(Y_n^m), Re Y_n^{-m} = (-1)^m Re Y_n^m,
    Im Y_n^{-m} = -(-1)^m Im Y_n^m and Im Y_n^0 = 0.  Returns
    ``(distinct, source, sign)``: the 0-based indices of the 3 (N+1)^2
    distinct coefficients (Re blocks with m >= 0, Im blocks with m > 0),
    and for each of the 6 (N+1)^2 coefficients the position in
    ``distinct`` of the one whose basis function it copies and the sign
    of that copy, +1, -1, or 0 for Im Y_n^0 (whose ``source`` is 0).
    """
    n, m = harmonic_columns(order)
    nmodes = n.shape[0]
    flip = np.where(np.abs(m) % 2 == 1, -1, 1)
    re_sign = np.where(m < 0, flip, 1)
    im_sign = np.where(m < 0, -flip, np.sign(m))
    imag = (np.arange(6) % 2 == 1)[:, None]
    sign = np.where(imag, im_sign, re_sign).ravel()
    keep = np.where(imag, m > 0, m >= 0).ravel()
    distinct = np.flatnonzero(keep)
    position = np.zeros(6 * nmodes, dtype=int)
    position[distinct] = np.arange(distinct.shape[0])
    own = np.arange(6)[:, None] * nmodes + (n * n + n + np.abs(m))  # the (n, |m|) coefficient of each block
    return distinct, position[own.ravel()], sign


class SurfaceParam:
    """Truncated spherical-harmonic coefficient vector of a surface."""

    def __init__(self, order: int, coeffs: np.ndarray):
        try:
            order = operator.index(order)
        except TypeError:
            raise GeometryError(f"surface order must be an integer, got {order!r}") from None
        if order < 0:
            raise GeometryError(f"surface order must be nonnegative, got {order}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (coeff_length(order),):
            raise GeometryError(
                f"coefficient vector must have length {coeff_length(order)}, got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise GeometryError("surface coefficients must be finite")
        self.order = order
        self.coeffs = coeffs

    def block(self, j: int, imag: bool) -> np.ndarray:
        """View of the a_j (imag=False) or b_j (imag=True) coefficient block."""
        nmodes = (self.order + 1) ** 2
        k = 2 * (j - 1) + int(imag)
        return self.coeffs[k * nmodes : (k + 1) * nmodes]

    def resized(self, order: int) -> "SurfaceParam":
        """Re-embed each block into a new truncation order (zero pad or crop)."""
        out = SurfaceParam(order, np.zeros(coeff_length(order)))
        keep = (min(order, self.order) + 1) ** 2
        for j in (1, 2, 3):
            for imag in (False, True):
                out.block(j, imag)[:keep] = self.block(j, imag)[:keep]
        return out

    def copy(self) -> "SurfaceParam":
        return SurfaceParam(self.order, self.coeffs.copy())

    def to_json_dict(self) -> dict:
        return {"schema": 1, "N": self.order, "C": self.coeffs.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SurfaceParam":
        if d.get("schema") != 1:
            raise GeometryError(f"unsupported surface schema: {d.get('schema')!r}")
        return cls(d["N"], np.asarray(d["C"], dtype=float))

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(self.to_json_dict()) + "\n")  # json.dump would run the pure-Python encoder

    @classmethod
    def load(cls, path) -> "SurfaceParam":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def sphere_coeffs(radius: float, order: int) -> SurfaceParam:
    """Exact sphere of the given radius centered at the origin.

    First-order encoding: c_2 = -c_4 = sqrt(2 pi / 3) R0 in the a_1 block,
    the matching Im-basis entries of b_2, and c_3 = sqrt(4 pi / 3) R0 in a_3.
    """
    return ellipsoid_coeffs(radius, radius, radius, order)


def ellipsoid_coeffs(ax: float, ay: float, az: float, order: int) -> SurfaceParam:
    """Axis-aligned ellipsoid (ax sin th cos ph, ay sin th sin ph, az cos th)."""
    if order < 1:
        raise GeometryError("encoding requires order >= 1")
    if not all(0 < a < math.inf for a in (ax, ay, az)):
        raise GeometryError(f"ellipsoid axes must be positive and finite, got {ax}, {ay}, {az}")
    sp = SurfaceParam(order, np.zeros(coeff_length(order)))
    i_minus = flatten_index(1, -1) - 1
    i_plus = flatten_index(1, 1) - 1
    i_zero = flatten_index(1, 0) - 1
    sp.block(1, False)[i_minus] = SQRT_2PI3 * ax
    sp.block(1, False)[i_plus] = -SQRT_2PI3 * ax
    sp.block(2, True)[i_minus] = SQRT_2PI3 * ay
    sp.block(2, True)[i_plus] = SQRT_2PI3 * ay
    sp.block(3, False)[i_zero] = SQRT_4PI3 * az
    return sp


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _real_basis_tables(order: int, theta: np.ndarray, phi: np.ndarray):
    """Re/Im harmonic basis values and angular derivatives at given angles.

    Returns six (npts, (order+1)^2) arrays:
    (re, im, re_t, im_t, re_p, im_p) where _t is d/dth and _p is d/dph.
    """
    y, dy, dps = specfun.sph_harmonic_tables(order, theta, phi)
    sinth = np.sin(theta)[:, None]
    dphi = dps * sinth  # dY/dph, pole-safe product
    return y.real, y.imag, dy.real, dy.imag, dphi.real, dphi.imag


@lru_cache(maxsize=64)
def boundary_quadrature(order: int) -> SphereQuadrature:
    """The reduced Gaussian grid on which every boundary system is sampled.

    It keeps the order + 1 Gauss-Legendre rings in cos(th) of
    :func:`~elastoscat.specfun.sphere_quadrature` and gives ring j
    n_j = 2 min(order, ceil(order sin th_j)) + 2 equispaced points in ph,
    each of weight w_j 2 pi / n_j, so the weights still sum to 4 pi.  Near
    a pole P_n^m(cos th) is negligible for m beyond about n sin th, so the
    tensor rule's 2 order + 2 points on every ring carry almost nothing
    there (M. Hortal, A. J. Simmons, Mon. Weather Rev. 119 (1991)
    1057-1074).  At order 18 the grid has 506 points against the tensor
    rule's 722; at order n it still gives 3 npts > 3 (n+1)^2 - 2, more rows
    than a boundary system of truncation n has columns.
    """
    x, w = np.polynomial.legendre.leggauss(order + 1)
    theta_1d = np.arccos(x)
    n_phi = 2 * np.minimum(order, np.ceil(order * np.sin(theta_1d))).astype(int) + 2
    theta = np.repeat(theta_1d, n_phi)
    phi = np.concatenate([2 * np.pi * np.arange(k) / k for k in n_phi])
    weights = np.repeat(w * (2 * np.pi / n_phi), n_phi)
    quad = SphereQuadrature(order, theta, phi, weights)
    for arr in (quad.theta, quad.phi, quad.weights):
        arr.setflags(write=False)
    return quad


@lru_cache(maxsize=32)
def _grid_tables(order: int, quad_order: int):
    quad = boundary_quadrature(quad_order)
    tables = _real_basis_tables(order, quad.theta, quad.phi)
    for t in tables:
        t.setflags(write=False)
    return tables


def surface_points(sp: SurfaceParam, theta, phi, tables=None):
    """Points and parametric tangents of the surface map.

    Returns ``(points, d_theta, d_phi)``, each of shape (npts, 3).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if tables is None:
        tables = _real_basis_tables(sp.order, theta, phi)
    re, im, re_t, im_t, re_p, im_p = tables
    pts = np.empty((theta.shape[0], 3))
    d_t = np.empty_like(pts)
    d_p = np.empty_like(pts)
    for j in (1, 2, 3):
        a, b = sp.block(j, False), sp.block(j, True)
        pts[:, j - 1] = re @ a + im @ b
        d_t[:, j - 1] = re_t @ a + im_t @ b
        d_p[:, j - 1] = re_p @ a + im_p @ b
    return pts, d_t, d_p


@dataclass
class BoundarySample:
    """Quadrature sampling of a surface: points, outward unit normals,
    surface-measure weights, and the parameter grid they came from."""

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    quad_order: int

    @property
    def npts(self) -> int:
        return self.points.shape[0]


def sample_boundary(sp: SurfaceParam, order: int) -> BoundarySample:
    """Sample the surface on the reduced Gaussian grid
    :func:`boundary_quadrature` of the given order.

    Raises :class:`GeometryError` when the sampled surface is degenerate or
    not star-shaped about the origin (radius positivity and outwardness of
    the parametric normal are both checked).
    """
    quad = boundary_quadrature(order)
    tables = _grid_tables(sp.order, order)
    pts, d_t, d_p = surface_points(sp, quad.theta, quad.phi, tables=tables)
    radius = np.linalg.norm(pts, axis=1)
    if np.any(radius < 1e-12):
        raise GeometryError("surface passes through the origin")
    cross = np.cross(d_t, d_p)
    jac = np.linalg.norm(cross, axis=1)
    if np.any(jac < 1e-14):
        raise GeometryError("degenerate tangents on the sampling grid")
    normals = cross / jac[:, None]
    outward = np.sum(normals * pts, axis=1)
    if np.all(outward < 0):
        normals, outward = -normals, -outward
    if np.any(outward <= 0):
        raise GeometryError("surface is not star-shaped about the origin on the sampling grid")
    sinth = np.sin(quad.theta)
    weights = quad.weights * jac / sinth
    return BoundarySample(pts, normals, weights, quad.theta.copy(), quad.phi.copy(), order)


# ---------------------------------------------------------------------------
# Coefficient perturbations
# ---------------------------------------------------------------------------


def perturbation_q_table(sp: SurfaceParam, sample: BoundarySample) -> np.ndarray:
    """All q_i on a boundary sample at once; shape (6 (N+1)^2, npts)."""
    re, im, *_ = _grid_tables(sp.order, sample.quad_order)
    nmodes = (sp.order + 1) ** 2
    out = np.empty((6 * nmodes, sample.npts))
    for j in (1, 2, 3):
        nu_j = sample.normals[:, j - 1]
        out[2 * (j - 1) * nmodes : (2 * j - 1) * nmodes] = (re * nu_j[:, None]).T
        out[(2 * j - 1) * nmodes : 2 * j * nmodes] = (im * nu_j[:, None]).T
    return out


# ---------------------------------------------------------------------------
# Star-shaped radial function (ray casting) and cross sections
# ---------------------------------------------------------------------------


_SEED_ORDER = 8  # the boundary_quadrature whose nodes start the ray cast


def radial_function(sp: SurfaceParam, directions: np.ndarray):
    """Distance from the origin to the surface along unit directions.

    Each ray starts at the node of ``boundary_quadrature(8)`` whose surface
    point has the largest direction cosine with the ray, so the start does
    not depend on how the surface's chart is turned.  From there a damped
    Gauss-Newton on the residual F = p - (p . d) d (the component of the
    surface point transverse to the ray) moves the parameter point s on the
    unit sphere.  Each step (u, v) solves the 2x2 normal equations against
    dp/dth and (1/sin th) dp/dph, the derivatives along the unit tangents
    e_th and e_ph (the second a zero column at an exact pole), with a tiny
    Tikhonov floor; it is capped at 0.5 in length and taken as
    s <- (s + u e_th + v e_ph) / |.|.  The cast stops when |F| is below
    1e-11 times the largest radius of the seed nodes.  Requires the surface
    to be star-shaped about the origin.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    quad = boundary_quadrature(_SEED_ORDER)
    seeds, _, _ = surface_points(sp, quad.theta, quad.phi, tables=_grid_tables(sp.order, _SEED_ORDER))
    radius = np.linalg.norm(seeds, axis=1)
    scale = max(radius.max(), 1e-30)
    cosines = (d @ seeds.T) / np.maximum(radius, 1e-30)  # a node at the origin has cosine 0
    s = specfun.sph_to_cart(1.0, quad.theta, quad.phi)[np.argmax(cosines, axis=1)]
    for _ in range(80):
        _, th, ph = specfun.cart_to_sph(s)
        pts, d_t, d_p = surface_points(sp, th, ph)
        f = pts - np.sum(pts * d, axis=1)[:, None] * d
        if np.linalg.norm(f, axis=1).max() < 1e-11 * scale:
            break
        sinth = np.sin(th)[:, None]
        d_p = np.divide(d_p, sinth, out=np.zeros_like(d_p), where=sinth != 0)
        j1 = d_t - np.sum(d_t * d, axis=1)[:, None] * d
        j2 = d_p - np.sum(d_p * d, axis=1)[:, None] * d
        a11 = np.sum(j1 * j1, axis=1)
        a12 = np.sum(j1 * j2, axis=1)
        a22 = np.sum(j2 * j2, axis=1)
        b1 = -np.sum(j1 * f, axis=1)
        b2 = -np.sum(j2 * f, axis=1)
        floor = 1e-14 * (a11 + a22) + 1e-30
        a11 = a11 + floor
        a22 = a22 + floor
        det = a11 * a22 - a12**2
        u = (a22 * b1 - a12 * b2) / det
        v = (-a12 * b1 + a11 * b2) / det
        step = np.hypot(u, v)
        lim = np.where(step > 0.5, 0.5 / np.maximum(step, 1e-30), 1.0)[:, None]
        _, e_t, e_p = specfun.spherical_frame(th, ph)
        s = s + lim * (u[:, None] * e_t + v[:, None] * e_p)
        s /= np.linalg.norm(s, axis=1, keepdims=True)
    else:
        raise GeometryError("radial ray cast did not converge")
    rho = np.sum(pts * d, axis=1)
    if np.any(rho <= 0):
        raise GeometryError("ray cast landed on the back side; surface not star-shaped")
    return rho


_PLANES = {
    "x1": (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    "x2": (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])),
    "x3": (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
}


def cross_section(sp: SurfaceParam, plane: str, npts: int = 256) -> np.ndarray:
    """Intersection curve of the surface with a coordinate plane.

    Returns an (npts, 3) array of rows (t, c1, c2): the polar angle within
    the plane and the two in-plane coordinates of the surface point, with
    (c1, c2) axes given by the cyclic pair following the plane normal.
    """
    if plane not in _PLANES:
        raise GeometryError(f"unknown plane {plane!r}; expected one of {sorted(_PLANES)}")
    u1, u2 = _PLANES[plane]
    t = 2 * np.pi * np.arange(npts) / npts
    dirs = np.outer(np.cos(t), u1) + np.outer(np.sin(t), u2)
    rho = radial_function(sp, dirs)
    return np.column_stack([t, rho * np.cos(t), rho * np.sin(t)])
