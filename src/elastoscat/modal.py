"""Modal algebra on the measurement sphere.

Per-mode maps between displacement trace coefficients in the vector
spherical-harmonic basis (T, V, W) and potential trace coefficients
(phi, psi_2, psi_3), the Dirichlet-to-Neumann blocks G_n and M_n, and the
transparent boundary operators.  Radiating fields are evaluated by
:class:`~elastoscat.wavefields.WaveBasis`.

Matrix layout note
------------------
The stored 3x3 blocks ``G_n`` and ``M_n`` keep their classical sparsity
pattern, in which the rows (and for ``M_n`` also the columns) are ordered
(V, T, W) rather than (T, V, W):

    G_n = [[0,   0,   G13],          M_n = [[M11, 0,   0  ],
           [G21, G22, 0  ],                 [0,   M22, M23],
           [G31, G32, 0  ]]                 [0,   M32, M33]]

with columns of ``G_n`` ordered (phi, psi_2, psi_3).  The apply helpers
(:func:`apply_T`, :func:`traction_from_potentials`) accept and return
coefficient triples in the natural (T, V, W) order and permute internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import DomainError, flatten_index

_VTW_PERM = np.array([1, 0, 2])  # natural (T,V,W) -> stored (V,T,W); self-inverse


class DegenerateModeError(ValueError):
    """Tangential data requested/supplied for the n = 0 mode."""


@dataclass(frozen=True)
class Medium:
    """Homogeneous isotropic elastic medium with unit density.

    kappa_p = omega/sqrt(lam + 2 mu) and kappa_s = omega/sqrt(mu) are the
    compressional and shear wavenumbers; kappa_p < kappa_s always.
    """

    lam: float
    mu: float
    omega: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf or not 0 < self.lam + self.mu < math.inf:
            raise DomainError(f"need finite mu > 0 and lam + mu > 0, got lam={self.lam}, mu={self.mu}")
        if not 0 < self.omega < math.inf:
            raise DomainError(f"need a finite omega > 0, got {self.omega}")

    @property
    def kappa_p(self) -> float:
        return self.omega / math.sqrt(self.lam + 2 * self.mu)

    @property
    def kappa_s(self) -> float:
        return self.omega / math.sqrt(self.mu)


def default_truncation(kappa_s: float, radius: float) -> int:
    """Wiscombe-style truncation order for fields with modal content kappa_s * radius."""
    x = kappa_s * radius
    return int(math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 8))


def _mode_count(order: int) -> int:
    return (order + 1) ** 2


class _ModeArray:
    """Common container: one complex triple per (n, m), n <= order."""

    __slots__ = ("order", "data")

    def __init__(self, order: int, data: np.ndarray | None = None):
        self.order = int(order)
        if data is None:
            data = np.zeros((_mode_count(order), 3), dtype=complex)
        data = np.asarray(data, dtype=complex)
        if data.shape != (_mode_count(order), 3):
            raise ValueError(f"expected shape ({_mode_count(order)}, 3), got {data.shape}")
        self.data = data

    def block(self, n: int, m: int) -> np.ndarray:
        return self.data[flatten_index(n, m) - 1]

    def set_block(self, n: int, m: int, value) -> None:
        self.data[flatten_index(n, m) - 1] = value


class DisplacementCoeffs(_ModeArray):
    """Fourier coefficients (v1, v2, v3) of a trace field in the (T, V, W) basis.

    Only the W component can be nonzero at n = 0 (T_0^0 = V_0^0 = 0).
    """

    def __init__(self, order, data=None, radius: float = 1.0):
        super().__init__(order, data)
        self.radius = float(radius)
        if np.any(self.data[0, :2] != 0):
            raise DegenerateModeError("n = 0 block admits only a W component")


class PotentialCoeffs(_ModeArray):
    """Trace coefficients (phi, psi_2, psi_3) of the Helmholtz potentials.

    The psi entries are structurally zero at n = 0.
    """

    def __init__(self, order, data=None):
        super().__init__(order, data)
        if np.any(self.data[0, 1:] != 0):
            raise DegenerateModeError("psi coefficients are absent at n = 0")


def random_potentials(order: int, rng: np.random.Generator, decay: float = 1.0) -> PotentialCoeffs:
    """Random potential coefficients with an optional per-order decay factor."""
    m = _mode_count(order)
    data = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    for n in range(order + 1):
        sl = slice(n * n, (n + 1) ** 2)
        data[sl] *= decay**n
    data[0, 1:] = 0
    return PotentialCoeffs(order, data)


# ---------------------------------------------------------------------------
# Scalar building blocks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _z_tables(kappa_p: float, kappa_s: float, radius: float, order: int):
    zp = specfun.z_log_derivative_table(order, kappa_p * radius)
    zs = specfun.z_log_derivative_table(order, kappa_s * radius)
    zp.setflags(write=False)
    zs.setflags(write=False)
    return zp, zs


def lambda_table(med: Medium, radius: float, order: int) -> np.ndarray:
    """Lambda_n = z_n(kp R) (1 + z_n(ks R)) - n(n+1) for n = 0..order; Im Lambda_n < 0 always."""
    zp, zs = _z_tables(med.kappa_p, med.kappa_s, radius, order)
    n = np.arange(order + 1)
    return zp * (1.0 + zs) - n * (n + 1)


# ---------------------------------------------------------------------------
# Per-mode matrices
# ---------------------------------------------------------------------------


def vtp_matrix(med: Medium, radius: float, n: int) -> np.ndarray:
    """Map (phi, psi2, psi3) -> (v1, v2, v3) in the natural (T, V, W) row order."""
    zp, zs = _z_tables(med.kappa_p, med.kappa_s, radius, n)
    r = radius
    p = np.zeros((3, 3), dtype=complex)
    if n == 0:
        p[2, 0] = zp[0] / r
        return p
    s = math.sqrt(n * (n + 1))
    p[0, 0] = s / r
    p[0, 1] = (1.0 + zs[n]) / r
    p[1, 2] = med.kappa_s**2 * r / s
    p[2, 0] = zp[n] / r
    p[2, 1] = s / r
    return p


def ptv_matrix(med: Medium, radius: float, n: int) -> np.ndarray:
    """Map (v1, v2, v3) -> (phi, psi2, psi3); blockwise inverse of vtp_matrix."""
    zp, zs = _z_tables(med.kappa_p, med.kappa_s, radius, n)
    r = radius
    q = np.zeros((3, 3), dtype=complex)
    if n == 0:
        q[0, 2] = r / zp[0]
        return q
    s = math.sqrt(n * (n + 1))
    lam = lambda_table(med, radius, n)[n]
    q[0, 0] = -r * s / lam
    q[0, 2] = r * (1.0 + zs[n]) / lam
    q[1, 0] = r * zp[n] / lam
    q[1, 2] = -r * s / lam
    q[2, 1] = s / (med.kappa_s**2 * r)
    return q


def dtn_matrix_G(med: Medium, radius: float, n: int) -> np.ndarray:
    """Traction block G_n: (w_V, w_T, w_W) = (1/R^2) G_n (phi, psi2, psi3).

    Rows are stored in the (V, T, W) order (see module docstring).  At
    n = 0 only the G31 entry is meaningful; the G13 entry, which carries a
    1/sqrt(n(n+1)) factor, is stored as zero there.
    """
    zp, zs = _z_tables(med.kappa_p, med.kappa_s, radius, n)
    mu, lam = med.mu, med.lam
    tp, ts = med.kappa_p * radius, med.kappa_s * radius
    nn1 = n * (n + 1)
    g = np.zeros((3, 3), dtype=complex)
    if n >= 1:
        s = math.sqrt(nn1)
        g[0, 2] = mu * ts**2 * zs[n] / s
        g[1, 0] = mu * s * (zp[n] - 1.0)
        g[1, 1] = mu * (nn1 - ts**2 - 1.0 - zs[n])
        g[2, 1] = mu * s * (zs[n] - 1.0)
    g[2, 0] = mu * (nn1 - tp**2 - 2.0 * zp[n]) - (lam + mu) * tp**2
    return g


def dtn_matrix_M(med: Medium, radius: float, n: int) -> np.ndarray:
    """DtN block M_n with rows and columns in the stored (V, T, W) order.

    Satisfies M_n vperm = (1/R^2) G_n ptv(v) for every displacement triple v,
    where vperm is v permuted to (V, T, W).
    """
    zp, zs = _z_tables(med.kappa_p, med.kappa_s, radius, n)
    mu, lam = med.mu, med.lam
    r = radius
    tp, ts = med.kappa_p * r, med.kappa_s * r
    nn1 = n * (n + 1)
    lam_n = lambda_table(med, radius, n)[n]
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = (mu / r) * zs[n]
    m[1, 1] = -(mu / r) * (1.0 + ts**2 * zp[n] / lam_n)
    m[2, 2] = -((lam + 2 * mu) / r) * tp**2 * (1.0 + zs[n]) / lam_n - 2.0 * mu / r
    if n >= 1:
        s = math.sqrt(nn1)
        m[1, 2] = s * (mu / r) * (1.0 + ts**2 / lam_n)
        m[2, 1] = s * (mu / r + ((lam + 2 * mu) / r) * tp**2 / lam_n)
    return m


# ---------------------------------------------------------------------------
# Coefficient maps and boundary operators
# ---------------------------------------------------------------------------


def potentials_to_displacement(p: PotentialCoeffs, med: Medium, radius: float) -> DisplacementCoeffs:
    """Trace coefficients of the radiating field generated by the potentials."""
    out = DisplacementCoeffs(p.order, radius=radius)
    for n in range(p.order + 1):
        mat = vtp_matrix(med, radius, n)
        sl = slice(n * n, (n + 1) ** 2)
        out.data[sl] = p.data[sl] @ mat.T
    return out


def displacement_to_potentials(v: DisplacementCoeffs, med: Medium, radius: float) -> PotentialCoeffs:
    """Blockwise inverse of :func:`potentials_to_displacement` (Lambda_n != 0)."""
    out = PotentialCoeffs(v.order)
    for n in range(v.order + 1):
        mat = ptv_matrix(med, radius, n)
        sl = slice(n * n, (n + 1) ** 2)
        out.data[sl] = v.data[sl] @ mat.T
    return out


def apply_T(v: DisplacementCoeffs, med: Medium, radius: float) -> DisplacementCoeffs:
    """Boundary operator: traction-like coefficients b_n^m = M_n v_n^m per block."""
    out = DisplacementCoeffs(v.order, radius=radius)
    perm = _VTW_PERM
    for n in range(v.order + 1):
        sl = slice(n * n, (n + 1) ** 2)
        vperm = v.data[sl][:, perm]
        out.data[sl] = (vperm @ dtn_matrix_M(med, radius, n).T)[:, perm]
    return out


def traction_from_potentials(p: PotentialCoeffs, med: Medium, radius: float) -> DisplacementCoeffs:
    """Traction-like coefficients of the boundary operator applied to the
    radiating field of the given potentials, via the G_n blocks."""
    out = DisplacementCoeffs(p.order, radius=radius)
    perm = _VTW_PERM
    inv_r2 = 1.0 / radius**2
    for n in range(p.order + 1):
        sl = slice(n * n, (n + 1) ** 2)
        out.data[sl] = inv_r2 * (p.data[sl] @ dtn_matrix_G(med, radius, n).T)[:, perm]
    return out


def apply_T1(phi_coeffs: np.ndarray, med: Medium, radius: float) -> np.ndarray:
    """Scalar transparent-boundary operator: multiplies mode n by z_n(kp R)/R.

    ``phi_coeffs`` is a flat complex array over modes (n, m) with
    n <= order inferred from its length.
    """
    phi_coeffs = np.asarray(phi_coeffs, dtype=complex)
    order = int(round(math.sqrt(phi_coeffs.shape[0]))) - 1
    zp, _ = _z_tables(med.kappa_p, med.kappa_s, radius, order)
    scale = np.repeat(zp / radius, 2 * np.arange(order + 1) + 1)
    return phi_coeffs * scale


def apply_T2(tangential: np.ndarray, med: Medium, radius: float) -> np.ndarray:
    """Tangential transparent-boundary operator on (T, V) coefficient pairs.

    Mode n scales the T component by i ks R / (1 + z_n(ks R)) and the V
    component by its reciprocal.  1 + z_n never vanishes: Re z_n <= -1, and
    :func:`~elastoscat.specfun.z_log_derivative_table` keeps Im z_n > 0.
    """
    tangential = np.asarray(tangential, dtype=complex)
    order = int(round(math.sqrt(tangential.shape[0]))) - 1
    _, zs = _z_tables(med.kappa_p, med.kappa_s, radius, order)
    one_plus = 1.0 + zs
    iksr = 1j * med.kappa_s * radius
    t_scale = np.repeat(iksr / one_plus, 2 * np.arange(order + 1) + 1)
    v_scale = np.repeat(one_plus / iksr, 2 * np.arange(order + 1) + 1)
    out = tangential.copy()
    out[:, 0] *= t_scale
    out[:, 1] *= v_scale
    out[0] = 0.0  # no tangential content at n = 0
    return out
