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
from analytic spherical-frame gradients and Hessians of the scalar modes;
the only third-order derivative needed is the radial derivative of the
Hessian, which the symmetry of third derivatives reduces to
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

    def vector_from_potentials(self, pot: np.ndarray) -> np.ndarray:
        """Stack a ((nmax+1)^2, 3) potential-coefficient array into a column vector."""
        m = self.nmodes
        return np.concatenate([pot[:, 0], pot[1:, 1], pot[1:, 2]])

    def potentials_from_vector(self, vec: np.ndarray) -> np.ndarray:
        m = self.nmodes
        pot = np.zeros((m, 3), dtype=complex)
        pot[:, 0] = vec[:m]
        pot[1:, 1] = vec[m : 2 * m - 1]
        pot[1:, 2] = vec[2 * m - 1 :]
        return pot

    # -- per-mode spherical-frame building blocks ---------------------------

    def _mode_pack(self, n: int, col: int, shear: bool):
        f0, f1, f2, f3 = (self.rad_s if shear else self.rad_p)
        ya, yt, yps, ytt, atp, app = self.ang
        r = self.r
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

    def _mode_rhess(self, n: int, col: int):
        """r d/dr of the spherical Hessian components (shear wavenumber)."""
        f0, f1, f2, f3 = self.rad_s
        ya, yt, yps, ytt, atp, app = self.ang
        r = self.r
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

    @staticmethod
    def _matvec(h, v):
        """Symmetric spherical-component matrix times spherical-component vector."""
        return np.stack(
            [
                h["rr"] * v[0] + h["rt"] * v[1] + h["rp"] * v[2],
                h["rt"] * v[0] + h["tt"] * v[1] + h["tp"] * v[2],
                h["rp"] * v[0] + h["tp"] * v[1] + h["pp"] * v[2],
            ],
            axis=0,
        )

    def _to_cartesian(self, v_sph: np.ndarray) -> np.ndarray:
        e_r, e_t, e_p = self.frame
        return (
            v_sph[0][:, None] * e_r + v_sph[1][:, None] * e_t + v_sph[2][:, None] * e_p
        )

    def _to_spherical(self, v_cart: np.ndarray) -> np.ndarray:
        e_r, e_t, e_p = self.frame
        return np.stack(
            [np.sum(v_cart * e_r, axis=1), np.sum(v_cart * e_t, axis=1), np.sum(v_cart * e_p, axis=1)],
            axis=0,
        )

    @staticmethod
    def _cross(a, b):
        return np.stack(
            [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]],
            axis=0,
        )

    # -- public assembly -----------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Basis field values: complex matrix of shape (3*npts, ncols).

        Row blocks are the Cartesian components of each point stacked as
        ``(pt0_x, pt0_y, pt0_z, pt1_x, ...)``.
        """
        out = np.empty((self.npts, 3, self.ncols), dtype=complex)
        m = self.nmodes
        ks = self.kappa_s
        radial = np.stack([self.r, np.zeros_like(self.r), np.zeros_like(self.r)], axis=0)
        for n in range(self.nmax + 1):
            nn1 = n * (n + 1)
            for mm in range(-n, n + 1):
                col = specfun.flatten_index(n, mm) - 1
                s_p, g_p, _ = self._mode_pack(n, col, shear=False)
                out[:, :, col] = self._to_cartesian(g_p)
                if n == 0:
                    continue
                s_s, g_s, h_s = self._mode_pack(n, col, shear=True)
                # E_M = c_M * grad s x  x ; with x = r e_r the cross is in-frame
                e_m = np.stack([np.zeros_like(s_s), self.r * g_s[2], -self.r * g_s[1]], axis=0)
                out[:, :, 2 * m - 1 + col - 1] = (ks**2 * self.ref_radius / nn1) * self._to_cartesian(e_m)
                # E_N = c_N * (2 grad s + kappa^2 s x + H x)
                e_n = 2.0 * g_s + ks**2 * s_s * radial + self._matvec(h_s, radial)
                out[:, :, m + col - 1] = self._to_cartesian(e_n) / math.sqrt(nn1)
        return out.reshape(3 * self.npts, self.ncols)

    def deriv_along(self, directions: np.ndarray) -> np.ndarray:
        """Directional derivatives (d . grad) of every basis field.

        ``directions`` has shape (npts, 3); the result has shape
        (3*npts, ncols) with the same row layout as :meth:`matrix`.
        """
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        if directions.shape == (1, 3) and self.npts > 1:
            directions = np.broadcast_to(directions, (self.npts, 3))
        out = np.empty((self.npts, 3, self.ncols), dtype=complex)
        m = self.nmodes
        ks = self.kappa_s
        nu_s = self._to_spherical(directions)
        radial = np.stack([self.r, np.zeros_like(self.r), np.zeros_like(self.r)], axis=0)
        for n in range(self.nmax + 1):
            nn1 = n * (n + 1)
            for mm in range(-n, n + 1):
                col = specfun.flatten_index(n, mm) - 1
                s_p, g_p, h_p = self._mode_pack(n, col, shear=False)
                out[:, :, col] = self._to_cartesian(self._matvec(h_p, nu_s))
                if n == 0:
                    continue
                s_s, g_s, h_s = self._mode_pack(n, col, shear=True)
                hnu = self._matvec(h_s, nu_s)
                # J_M . nu = (H nu) x  x + grad s x nu
                jm = self._cross(hnu, radial) + self._cross(g_s, nu_s)
                out[:, :, 2 * m - 1 + col - 1] = (ks**2 * self.ref_radius / nn1) * self._to_cartesian(jm)
                # J_N . nu = 3 H nu + kappa^2 ((g . nu) x + s nu) + (r dH/dr) nu
                rh = self._mode_rhess(n, col)
                gdotnu = g_s[0] * nu_s[0] + g_s[1] * nu_s[1] + g_s[2] * nu_s[2]
                jn = 3.0 * hnu + ks**2 * (gdotnu * radial + s_s * nu_s) + self._matvec(rh, nu_s)
                out[:, :, m + col - 1] = self._to_cartesian(jn) / math.sqrt(nn1)
        return out.reshape(3 * self.npts, self.ncols)

    def evaluate(self, vec: np.ndarray) -> np.ndarray:
        """Field of a coefficient vector at the basis points, shape (npts, 3)."""
        return (self.matrix() @ vec).reshape(self.npts, 3)

    def gradient(self, vec: np.ndarray) -> np.ndarray:
        """Cartesian Jacobians du_i/dx_l of the field, shape (npts, 3, 3)."""
        cols = []
        eye = np.eye(3)
        for l in range(3):
            d = np.broadcast_to(eye[l], (self.npts, 3))
            cols.append((self.deriv_along(d) @ vec).reshape(self.npts, 3))
        return np.stack(cols, axis=2)
