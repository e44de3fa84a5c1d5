"""Outgoing elastic wavefunction basis fields.

The scattered displacement is represented as a combination of three
families of outgoing solutions of the Navier equation, all generated by
the scalar Helmholtz modes

    s_n^m(x) = [h_n(kappa r) / h_n(kappa R)] * Y_n^m(th, ph) / R,

normalized to the reference sphere of radius ``R``:

* compressional:  E_P = grad s  (with kappa = kappa_p),
* shear, magnetic type:  E_M = c_M(n) * (grad s x  x)  (kappa = kappa_s),
* shear, electric type:  E_N = c_N(n) * (2 grad s + kappa^2 s x + Hess(s) x).

The scalings c_M = kappa_s^2 R / (n(n+1)) and c_N = 1/sqrt(n(n+1)) are
chosen so that the coefficient of E_P is the scalar-potential trace
coefficient phi_n^m and the coefficients of E_N, E_M are the vector
potential trace coefficients psi_{2n}^m, psi_{3n}^m on the reference
sphere.  E_M and E_N vanish identically for n = 0.

Values, and Jacobians contracted with arbitrary directions, are assembled
one degree n at a time, with array operations over the 2n+1 orders of the
degree, from analytic spherical-frame gradients and Hessians of the scalar
modes; the only third-order derivative needed is the radial derivative of
the Hessian, which the symmetry of third derivatives reduces to
(x . grad) Hess = r d/dr Hess.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .specfun import cart_to_sph, spherical_frame


def _radial_tables(nmax: int, kappa: float, r: np.ndarray, ref_radius: float):
    """f, f', f'', f''' of f(r) = h_n(kappa r)/h_n(kappa R), shapes (nmax+1, npts)."""
    t = kappa * r
    h = specfun.spherical_h1_table(nmax, t)
    hp = specfun.spherical_h1_deriv_table(h, t)
    nn1 = (np.arange(nmax + 1) * (np.arange(nmax + 1) + 1.0))[:, None]
    hpp = -2.0 / t * hp + (nn1 / t**2 - 1.0) * h
    hppp = -2.0 / t * hpp + (2.0 / t**2 + nn1 / t**2 - 1.0) * hp - 2.0 * nn1 / t**3 * h
    href = specfun.spherical_h1_table(nmax, np.array([kappa * ref_radius]))[:, 0][:, None]
    return (h / href, kappa * hp / href, kappa**2 * hpp / href, kappa**3 * hppp / href)


def _angular_tables(nmax: int, theta: np.ndarray, phi: np.ndarray, ref_radius: float):
    """Angular factors of the scalar modes X = Y/R and their derivatives.

    Returns arrays of shape (npts, (nmax+1)^2):
      ya   = Y/R
      yt   = d(Y/R)/dth
      yps  = (1/sin th) d(Y/R)/dph
      ytt  = d^2(Y/R)/dth^2
      atp  = (1/sin th) (d_th d_ph - cot th d_ph)(Y/R)
      app  = (1/sin^2 th) d^2_ph (Y/R) + cot th * d_th (Y/R)
    """
    y, dy, dps = specfun.sph_harmonic_tables(nmax, theta, phi)
    sinth = np.sin(theta)[:, None]
    costh = np.cos(theta)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.where(sinth != 0, costh / sinth, 0.0)
        inv_sin = np.where(sinth != 0, 1.0 / sinth, 0.0)
    n, m = specfun.harmonic_columns(nmax)
    mvals = m.astype(float)  # float: -(m**2) is then -0.0 at m = 0, a sign bit the outputs carry
    nn1 = n * (n + 1.0)
    ya = y / ref_radius
    yt = dy / ref_radius
    yps = dps / ref_radius
    ytt = -cot * yt + (mvals**2 * inv_sin**2 - nn1) * ya
    atp = (-1j * mvals) * inv_sin * (yt - cot * ya)
    app = -(mvals**2) * inv_sin**2 * ya + cot * yt
    return ya, yt, yps, ytt, atp, app


class WaveBasis:
    """Outgoing wavefunction basis evaluated at a fixed point set.

    Column layout of the coefficient vector: first the (nmax+1)^2 scalar
    potential coefficients phi, then the (nmax+1)^2 - 1 coefficients psi_2
    (modes n >= 1), then psi_3 likewise.
    """

    def __init__(self, kappa_p: float, kappa_s: float, ref_radius: float, nmax: int, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        r, theta, phi = cart_to_sph(points)
        if np.any(r <= 0):
            raise specfun.DomainError("wavefunction evaluation requires r > 0")
        self.kappa_p = kappa_p
        self.kappa_s = kappa_s
        self.ref_radius = ref_radius
        self.nmax = nmax
        self.points = points
        self.npts = points.shape[0]
        self.r = r
        self.frame = spherical_frame(theta, phi)  # (e_r, e_t, e_p)
        self.ang = _angular_tables(nmax, theta, phi, ref_radius)
        self.rad_p = _radial_tables(nmax, kappa_p, r, ref_radius)
        self.rad_s = _radial_tables(nmax, kappa_s, r, ref_radius)

    @property
    def nmodes(self) -> int:
        return (self.nmax + 1) ** 2

    @property
    def ncols(self) -> int:
        return 3 * self.nmodes - 2

    def potentials_from_vector(self, vec: np.ndarray) -> np.ndarray:
        m = self.nmodes
        pot = np.zeros((m, 3), dtype=complex)
        pot[:, 0] = vec[:m]
        pot[1:, 1] = vec[m : 2 * m - 1]
        pot[1:, 2] = vec[2 * m - 1 :]
        return pot

    # -- per-degree spherical-frame building blocks --------------------------
    #
    # Every component below has shape (npts, 2n+1): one column per order m of
    # the degree n.  Spherical-frame vectors are tuples (r, th, ph) of such
    # components; per-point factors enter as (npts, 1) columns.

    def _degree_grad(self, n: int, shear: bool):
        """Scalar modes of degree n and their spherical gradients."""
        f0, f1 = (self.rad_s if shear else self.rad_p)[:2]
        ya, yt, yps = (a[:, n * n : (n + 1) ** 2] for a in self.ang[:3])
        r = self.r[:, None]
        f0n, f1n = f0[n][:, None], f1[n][:, None]
        return f0n * ya, (f1n * ya, f0n / r * yt, f0n / r * yps)

    def _degree_hess(self, n: int, shear: bool):
        """Spherical Hessian components of the scalar modes of degree n."""
        f0, f1, f2 = (self.rad_s if shear else self.rad_p)[:3]
        ya, yt, yps, ytt, atp, app = (a[:, n * n : (n + 1) ** 2] for a in self.ang)
        r = self.r[:, None]
        f0n, f1n, f2n = f0[n][:, None], f1[n][:, None], f2[n][:, None]
        c_rt = f1n / r - f0n / r**2
        return {
            "rr": f2n * ya,
            "rt": c_rt * yt,
            "rp": c_rt * yps,
            "tt": f0n / r**2 * ytt + f1n / r * ya,
            "tp": f0n / r**2 * atp,
            "pp": f0n / r**2 * app + f1n / r * ya,
        }

    def _degree_rhess(self, n: int):
        """r d/dr of the spherical Hessian components (shear wavenumber)."""
        f0, f1, f2, f3 = self.rad_s
        ya, yt, yps, ytt, atp, app = (a[:, n * n : (n + 1) ** 2] for a in self.ang)
        r = self.r[:, None]
        f0n, f1n, f2n, f3n = f0[n][:, None], f1[n][:, None], f2[n][:, None], f3[n][:, None]
        c_rt = f2n - 2 * f1n / r + 2 * f0n / r**2
        c_ang = f1n / r - 2 * f0n / r**2
        c_iso = f2n - f1n / r
        return {
            "rr": r * f3n * ya,
            "rt": c_rt * yt,
            "rp": c_rt * yps,
            "tt": c_ang * ytt + c_iso * ya,
            "tp": c_ang * atp,
            "pp": c_ang * app + c_iso * ya,
        }

    @staticmethod
    def _matvec(h, v):
        """Symmetric spherical-component matrix times spherical-component vector."""
        return (
            h["rr"] * v[0] + h["rt"] * v[1] + h["rp"] * v[2],
            h["rt"] * v[0] + h["tt"] * v[1] + h["tp"] * v[2],
            h["rp"] * v[0] + h["tp"] * v[1] + h["pp"] * v[2],
        )

    @staticmethod
    def _cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    def _to_cartesian(self, v_sph):
        """Cartesian components of a spherical-frame vector, shape (npts, 3, 2n+1)."""
        e_r, e_t, e_p = (e[:, :, None] for e in self.frame)
        cart = v_sph[0][:, None] * e_r
        cart += v_sph[1][:, None] * e_t
        cart += v_sph[2][:, None] * e_p
        return cart

    def _to_spherical(self, v_cart: np.ndarray):
        """Spherical-frame components of per-point Cartesian vectors, each (npts, 1)."""
        return tuple(np.sum(v_cart * e, axis=1)[:, None] for e in self.frame)

    def _radial(self):
        """The position vector x = r e_r in the spherical frame."""
        r = self.r[:, None]
        return (r, np.zeros_like(r), np.zeros_like(r))

    def _family_columns(self, n: int):
        """Column slices of the E_P, E_N and E_M fields of degree n."""
        lo, hi, m = n * n, (n + 1) ** 2, self.nmodes
        return slice(lo, hi), slice(m - 1 + lo, m - 1 + hi), slice(2 * m - 2 + lo, 2 * m - 2 + hi)

    # -- public assembly -----------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Basis field values: complex matrix of shape (3*npts, ncols).

        Row blocks are the Cartesian components of each point stacked as
        ``(pt0_x, pt0_y, pt0_z, pt1_x, ...)``.
        """
        out = np.empty((self.npts, 3, self.ncols), dtype=complex)
        ks = self.kappa_s
        radial = self._radial()
        r = radial[0]
        for n in range(self.nmax + 1):
            cols_p, cols_n, cols_m = self._family_columns(n)
            out[:, :, cols_p] = self._to_cartesian(self._degree_grad(n, shear=False)[1])
            if n == 0:
                continue
            nn1 = n * (n + 1)
            s_s, g_s = self._degree_grad(n, shear=True)
            # E_M = c_M * grad s x  x ; with x = r e_r the cross is in-frame
            e_m = (np.zeros_like(s_s), r * g_s[2], -r * g_s[1])
            np.multiply(ks**2 * self.ref_radius / nn1, self._to_cartesian(e_m), out=out[:, :, cols_m])
            # E_N = c_N * (2 grad s + kappa^2 s x + H x)
            ks2s = ks**2 * s_s
            hx = self._matvec(self._degree_hess(n, shear=True), radial)
            e_n = tuple(2.0 * g + ks2s * x + h for g, x, h in zip(g_s, radial, hx))
            np.divide(self._to_cartesian(e_n), math.sqrt(nn1), out=out[:, :, cols_n])
        return out.reshape(3 * self.npts, self.ncols)

    def deriv_along(self, directions: np.ndarray) -> np.ndarray:
        """Directional derivatives (d . grad) of every basis field.

        ``directions`` has shape (npts, 3) or (1, 3) for one direction at
        every point; the result has shape (3*npts, ncols) with the same row
        layout as :meth:`matrix`.
        """
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.empty((self.npts, 3, self.ncols), dtype=complex)
        ks = self.kappa_s
        nu_s = self._to_spherical(directions)
        radial = self._radial()
        for n in range(self.nmax + 1):
            cols_p, cols_n, cols_m = self._family_columns(n)
            out[:, :, cols_p] = self._to_cartesian(self._matvec(self._degree_hess(n, shear=False), nu_s))
            if n == 0:
                continue
            nn1 = n * (n + 1)
            s_s, g_s = self._degree_grad(n, shear=True)
            hnu = self._matvec(self._degree_hess(n, shear=True), nu_s)
            # J_M . nu = (H nu) x  x + grad s x nu
            jm = tuple(a + b for a, b in zip(self._cross(hnu, radial), self._cross(g_s, nu_s)))
            np.multiply(ks**2 * self.ref_radius / nn1, self._to_cartesian(jm), out=out[:, :, cols_m])
            # J_N . nu = 3 H nu + kappa^2 ((g . nu) x + s nu) + (r dH/dr) nu
            gdotnu = g_s[0] * nu_s[0] + g_s[1] * nu_s[1] + g_s[2] * nu_s[2]
            rhnu = self._matvec(self._degree_rhess(n), nu_s)
            jn = tuple(3.0 * h + ks**2 * (gdotnu * x + s_s * v) + rh for h, x, v, rh in zip(hnu, radial, nu_s, rhnu))
            np.divide(self._to_cartesian(jn), math.sqrt(nn1), out=out[:, :, cols_n])
        return out.reshape(3 * self.npts, self.ncols)
