"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths it is used to check:
plane-wave PDE residuals come from high-precision finite differences
(mpmath), sphere scattering from per-mode block solves driven by
quadrature expansion of the boundary data, derivatives from central
differences, and the perturbations q_i from one scalar harmonic per point
instead of the table path.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from elastoscat import geometry as geo, specfun as sf


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
    j, is_imag, n, m = geo.decode_coeff_index(i, sp.order)
    y = sf.sph_harmonic((n, m), theta, phi)
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
    cu = sf.vsh_expand(data, quad, order)  # unit-sphere (t, v, w) coefficients

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
