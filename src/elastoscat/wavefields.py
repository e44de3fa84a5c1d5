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

Values are assembled in each point's spherical frame, where x = r e_r and
the Hankel equation leave each entry one radial factor of its degree
(f0 = h_n(kappa r)/h_n(kappa R), f1 = f0') times one angular table of Y_n^m/R;
Cartesian values are that frame matrix rotated point by point.  A basis
keeps the angular part only as the real Legendre factors and azimuthal
phases of :func:`elastoscat.specfun.sph_harmonic_factors`, a fifth of the
three complex tables' bytes at nmax = 14; each use expands its tables from them.
Directional derivatives are contracted with coefficients instead of formed
as a matrix, and are given in the point frames, where the boundary solve
takes its data; only :meth:`WaveBasis.matrix` rotates to Cartesian
components, which the measurement matrix needs.  Each entry of the
spherical-frame derivative of each family is a sum over the six angular
tables of one radial factor times one component of the direction times
that table, so one table at a time is contracted with the k coefficient
columns within each degree, weighted and summed over the degrees: k
columns hold one contracted table of k columns, and each column of the
result is bitwise that of a one-column call.  The only third-order
derivative needed is the radial derivative of the Hessian, which the
symmetry of third derivatives reduces to (x . grad) Hess = r d/dr Hess.
"""

from __future__ import annotations

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


def _angular_tables(harmonics: specfun.HarmonicFactors, ref_radius: float) -> tuple:
    """Angular factors of the scalar modes X = Y/R expanded from the harmonic
    factors, shape (npts, (nmax+1)^2) each, both from one Y:
      ya   = Y/R
      yps  = (1/sin th) d(Y/R)/dph
    :func:`_theta_table` gives the third, d(Y/R)/dth.
    """
    tables = specfun.sph_harmonic_values(harmonics)
    for t in tables:
        t /= ref_radius  # in place: no second set of (npts, nmodes) arrays
    return tables


def _theta_table(harmonics: specfun.HarmonicFactors, ref_radius: float, out=None) -> np.ndarray:
    """yt = d(Y/R)/dth, written into ``out`` when given (assembly passes the
    ya it no longer needs, so it holds at most two such tables)."""
    yt = specfun.sph_harmonic_theta_derivative(harmonics, out)
    yt /= ref_radius
    return yt


def _fill_degrees(out: np.ndarray, rad: np.ndarray, first: int) -> None:
    """Write the radial factor of each degree, ``rad`` of shape
    (nmax+1-first, npts), into the columns of that degree of ``out``, shape
    (npts, ..., ncols) with columns the flat modes from degree ``first`` on."""
    shape = (-1,) + (1,) * (out.ndim - 1)
    for d, f in enumerate(rad, start=first):
        out[..., d * d - first : (d + 1) ** 2 - first] = f.reshape(shape)


class WaveBasis:
    """Outgoing wavefunction basis evaluated at a fixed point set.

    Column layout of the coefficient vector: first the (nmax+1)^2 scalar
    potential coefficients phi, then the (nmax+1)^2 - 1 coefficients psi_2
    (modes n >= 1), then psi_3 likewise.

    A basis holds only what its constructor computes: the harmonic factors
    ``harmonics``, the radial tables ``rad_p`` and ``rad_s`` and the point
    frames ``frame``.  :meth:`matrix` and :meth:`directional_derivative`
    expand the complex angular tables they need and drop them.
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
        self.theta = theta
        self.frame = np.stack(spherical_frame(theta, phi))  # (e_r, e_t, e_p), shape (3, npts, 3)
        self.harmonics = specfun.sph_harmonic_factors(nmax, theta, phi)
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

    def to_frame(self, values: np.ndarray) -> np.ndarray:
        """(e_r, e_th, e_ph) components of Cartesian vectors at the points,
        shape (npts, 3) or (npts, 3, k) like ``values``: the frame of
        :meth:`directional_derivative` and of the boundary solve's data."""
        values = np.asarray(values)
        return np.matmul(self.frame.transpose(1, 0, 2), values.reshape(self.npts, 3, -1)).reshape(values.shape)

    def matrix(self, *, spherical: bool = False) -> np.ndarray:
        """Basis field values: complex matrix of shape (3*npts, ncols).

        Row blocks are the three components of each point stacked as
        ``(pt0_x, pt0_y, pt0_z, pt1_x, ...)``; with ``spherical`` they are the
        components along the point's (e_r, e_th, e_ph), of which the Cartesian
        rows are the rotation.  That frame is orthonormal, so residuals
        against :meth:`to_frame` data are those of the Cartesian matrix.
        """
        sph = self._frame_matrix()
        if not spherical:
            sph = np.matmul(self.frame.transpose(1, 2, 0), sph)
        return sph.reshape(3 * self.npts, self.ncols)

    def _frame_matrix(self) -> np.ndarray:
        """Spherical-frame basis field values, shape (npts, 3, ncols).

        Each degree's radial factors are written into the output and the
        angular tables multiplied in: ya and yps first, then yt expanded over
        ya, so at most two (npts, nmodes) complex tables exist at once."""
        nm = self.nmodes
        # expanded before the output is allocated: in this order glibc reuses
        # the freed blocks, and synth-cube's peak RSS was 80.9 MB, not 83.9 MB
        ya, yps = _angular_tables(self.harmonics, self.ref_radius)
        out = np.empty((self.npts, 3, self.ncols), dtype=complex)
        e_p, e_n, e_m = out[:, :, :nm], out[:, :, nm : 2 * nm - 1], out[:, :, 2 * nm - 1 :]
        # E_P = (f1 Y, f0/r dY/dth, f0/r dY/dph / sin th)
        f0, f1 = self.rad_p[:2]
        _fill_degrees(e_p[:, 0], f1, 0)
        _fill_degrees(e_p[:, 1:], f0 / self.r, 0)
        # shear families from degree 1, with c_M and c_N folded into the radial factors
        f0, f1 = (f[1:] for f in self.rad_s[:2])
        nn1 = (np.arange(1, self.nmax + 1) * np.arange(2, self.nmax + 2.0))[:, None]
        # E_M = c_M f0 (0, dY/dph / sin th, -dY/dth)
        e_m[:, 0] = 0.0
        _fill_degrees(e_m[:, 1:], self.kappa_s**2 * self.ref_radius / nn1 * f0, 1)
        # E_N = c_N (n(n+1) f0/r Y, (f1 + f0/r) dY/dth, (f1 + f0/r) dY/dph / sin th)
        f0r = f0 / self.r
        _fill_degrees(e_n[:, 0], np.sqrt(nn1) * f0r, 1)
        _fill_degrees(e_n[:, 1:], (f1 + f0r) / np.sqrt(nn1), 1)
        # each product radial times angular, in that operand order
        np.multiply(e_p[:, 0], ya, out=e_p[:, 0])
        np.multiply(e_n[:, 0], ya[:, 1:], out=e_n[:, 0])
        np.multiply(e_p[:, 2], yps, out=e_p[:, 2])
        np.multiply(e_m[:, 1], yps[:, 1:], out=e_m[:, 1])
        np.multiply(e_n[:, 2], yps[:, 1:], out=e_n[:, 2])
        del yps
        yt = _theta_table(self.harmonics, self.ref_radius, out=ya)
        np.multiply(e_p[:, 1], yt, out=e_p[:, 1])
        np.multiply(e_m[:, 2], yt[:, 1:], out=e_m[:, 2])
        np.negative(e_m[:, 2], out=e_m[:, 2])
        np.multiply(e_n[:, 1], yt[:, 1:], out=e_n[:, 1])
        return out

    def _derivative_tables(self):
        """The angular tables of :meth:`_derivative_frame`, expanded from
        ``harmonics`` one at a time: ya, yt, yps (:func:`_angular_tables`), then
        from ya and yt, once yps is dropped,
          ytt  = d^2(Y/R)/dth^2
          atp  = (1/sin th) (d_th d_ph - cot th d_ph)(Y/R)
          app  = (1/sin^2 th) d^2_ph (Y/R) + cot th * d_th (Y/R)
        """
        ya, yps = _angular_tables(self.harmonics, self.ref_radius)
        yield ya
        yt = _theta_table(self.harmonics, self.ref_radius)
        yield yt
        yield yps
        del yps
        sinth, costh = np.sin(self.theta)[:, None], np.cos(self.theta)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(sinth != 0, costh / sinth, 0.0)
        inv_sin = self.harmonics.inv_sin
        n, m = specfun.harmonic_columns(self.nmax)
        mvals = m.astype(float)  # float: -(m**2) is then -0.0 at m = 0, a sign bit the outputs carry
        nn1 = n * (n + 1.0)
        # the products and sums of ytt = -cot yt + (m^2/sin^2 - n(n+1)) ya,
        # atp = (-i m / sin) (yt - cot ya) and app = -(m^2/sin^2) ya + cot yt,
        # operands in that order, with each output the scratch of the next
        w = mvals**2 * inv_sin**2
        ytt = np.multiply(-cot, yt)
        app = np.multiply(w - nn1, ya)
        ytt += app
        yield ytt
        del ytt
        atp = np.multiply(cot, ya)
        np.subtract(yt, atp, out=atp)
        np.multiply(-1j * mvals, inv_sin, out=app)
        np.multiply(app, atp, out=atp)
        yield atp
        del atp
        np.negative(w, out=w)  # -(m^2) / sin^2: a product's sign is exact
        np.multiply(w, ya, out=app)
        app += cot * yt
        del ya, yt
        yield app

    def directional_derivative(self, directions: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """(d . grad) of the field with coefficient vector(s) ``coeffs``.

        ``directions`` has shape (npts, 3) or (1, 3) for one direction at
        every point, in Cartesian components; ``coeffs`` has shape (ncols,)
        or (ncols, k).  Returns the derivatives' components along each
        point's frame (e_r, e_th, e_ph), shape (npts, 3) or (npts, 3, k),
        as a view whose point axis is the contiguous one; with
        ``coeffs = np.eye(ncols)`` those of every basis field.  Temporaries
        are at most four (npts, (nmax+1)^2) angular tables, one contracted
        table of 3 (nmax+1) k npts entries and a scratch array of a third of
        that; column j of the result is bitwise that of a call on it alone.
        """
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        nu = np.sum(self.frame * directions, axis=2)  # spherical components, (3, npts)
        c = np.asarray(coeffs).reshape(self.ncols, -1)
        out = self._derivative_frame(nu, c, self._derivative_tables()).transpose(2, 0, 1)
        return out[:, :, 0] if np.ndim(coeffs) == 1 else out

    def _derivative_frame(self, nu: np.ndarray, c: np.ndarray, tables) -> np.ndarray:
        """Spherical-frame components, shape (3, k, npts), of the derivatives
        along ``nu`` (spherical components, (3, npts)) of the fields with
        coefficient columns ``c``, contracted from the six angular ``tables``
        of :meth:`_derivative_tables`, in that order.

        With H the spherical-frame Hessian of a scalar mode s, the
        derivatives are H nu for E_P, (H nu) x x + grad s x nu for E_M and
        (3 H + r dH/dr) nu + kappa_s^2 ((grad s . nu) x + s nu) for E_N.
        Each component of each is a sum of (radial factor) (component of
        nu) (angular table) terms, listed in ``terms``.  Each angular table
        is contracted with all three families' coefficients within each
        degree, and each term's (family, component) slice of that is
        weighted on (degree, point) and summed over the degrees into the
        output before the next table is contracted.  The weights do not
        depend on k, and each column takes the same operations as alone."""
        nm, k, deg = self.nmodes, c.shape[1], self.nmax + 1
        n = specfun.harmonic_columns(self.nmax)[0]
        nn1 = n[1:] * (n[1:] + 1.0)
        fam = np.zeros((3, k, nm), dtype=complex)  # E_P, E_N, E_M coefficients, c_N and c_M folded in
        fam[0] = c[:nm].T
        fam[1, :, 1:] = c[nm : 2 * nm - 1].T / np.sqrt(nn1)
        fam[2, :, 1:] = c[2 * nm - 1 :].T * (self.kappa_s**2 * self.ref_radius / nn1)
        fam = fam.reshape(3 * k, nm)
        r = self.r
        f0, f1, f2, _ = self.rad_p
        p_a, p_b, p_c, p_d = f2, f1 / r - f0 / r**2, f0 / r**2, f1 / r
        f0, f1, f2, f3 = self.rad_s
        ks2 = self.kappa_s**2
        m_a, m_b = f0 / r, f1
        n_b, n_c = f2 + f1 / r - f0 / r**2, f0 / r**2 + f1 / r
        n_a, n_e, n_d = 3 * f2 + r * f3 + ks2 * (r * f1 + f0), n_b + ks2 * f0, f2 + 2 * f1 / r + ks2 * f0
        nus = np.concatenate([nu, -nu])  # rows 3, 4, 5 give the terms of E_M that enter with a minus sign
        P, N, M = range(3)
        # per table (ya, yt, yps, ytt, atp, app): (family, component, radial factor, row of nus);
        # the terms of E_M in ya cancel exactly and have no entry
        terms = (
            ((P, 0, p_a, 0), (P, 1, p_d, 1), (P, 2, p_d, 2), (N, 0, n_a, 0), (N, 1, n_d, 1), (N, 2, n_d, 2)),
            ((P, 0, p_b, 1), (P, 1, p_b, 0), (M, 0, m_a, 2), (M, 2, m_b, 3), (N, 0, n_e, 1), (N, 1, n_b, 0)),
            ((P, 0, p_b, 2), (P, 2, p_b, 0), (M, 0, m_a, 4), (M, 1, m_b, 0), (N, 0, n_e, 2), (N, 2, n_b, 0)),
            ((P, 1, p_c, 1), (M, 2, m_a, 4), (N, 1, n_c, 1)),
            ((P, 1, p_c, 2), (P, 2, p_c, 1), (M, 1, m_a, 1), (M, 2, m_a, 5), (N, 1, n_c, 2), (N, 2, n_c, 1)),
            ((P, 2, p_c, 2), (M, 1, m_a, 2), (N, 2, n_c, 2)),
        )
        out = np.zeros((3, k, self.npts), dtype=complex)
        tab = np.empty((3, k, deg, self.npts), dtype=complex)
        scratch = np.empty((k, deg, self.npts), dtype=complex)
        tables = iter(tables)
        for table_terms in terms:
            t = next(tables)
            for d in range(deg):
                cols = slice(d * d, (d + 1) ** 2)
                np.matmul(fam[:, cols], t[:, cols].T, out=tab[:, :, d].reshape(3 * k, self.npts))
            del t  # a generator's table is then freed before it forms the next
            for f, comp, rad, v in table_terms:
                w = rad * nus[v]
                for j in range(k):  # one column at a time: numpy buffers a broadcast operand
                    np.multiply(w, tab[f, j], out=scratch[j])
                out[comp] += scratch.sum(axis=1)
        return out
