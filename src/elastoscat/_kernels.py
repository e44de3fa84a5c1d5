"""Low-level numeric kernels: packed normalized Legendre tables."""

from __future__ import annotations

import numpy as np

USE_NUMBA = False  # no compiled kernel exists; perfbench/worker.py reports this among its machine facts


def tri_index(n: int, m: int) -> int:
    """Flat index of the (n, m>=0) entry in a packed triangular table."""
    return n * (n + 1) // 2 + m


def tri_size(nmax: int) -> int:
    return (nmax + 1) * (nmax + 2) // 2


# ---------------------------------------------------------------------------
# Fully normalized associated Legendre tables (no Condon-Shortley phase).
#
# nbar[n, m](x) = sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) P_n^m(x),  m >= 0,
#
# so that nbar[n, m](cos th) e^{i m ph} has unit L^2 norm on the sphere.
# The tables also return sin(th) * d/dth nbar, which is pole-safe; callers
# divide by sin(th) only on grids that exclude the poles.
# ---------------------------------------------------------------------------

_INV_SQRT4PI = 0.28209479177387814  # 1/sqrt(4 pi)


def legendre_tables(nmax: int, costh: np.ndarray, sinth: np.ndarray):
    """Normalized Legendre values and sin(th)-scaled theta-derivatives.

    Returns arrays of shape ``(npts, (nmax+1)(nmax+2)/2)`` packed by
    ``tri_index(n, m)`` for ``0 <= m <= n <= nmax``.  Degree n occupies the
    contiguous columns ``tri_index(n, 0) .. tri_index(n, n)``, so each step
    of the recurrence in n fills a whole row of orders at once.
    """
    costh = np.ascontiguousarray(costh, dtype=np.float64)
    sinth = np.ascontiguousarray(sinth, dtype=np.float64)
    npts = costh.shape[0]
    p = np.zeros((npts, tri_size(nmax)))
    sdp = np.zeros_like(p)  # sin(th) * d p / d th
    x = costh[:, None]

    p[:, 0] = _INV_SQRT4PI
    for n in range(1, nmax + 1):
        row, prev = tri_index(n, 0), tri_index(n - 1, 0)
        if n >= 2:  # three-term recurrence in n for m <= n-2
            m = np.arange(n - 1)
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(((n - 1.0) ** 2 - m * m) / (4.0 * (n - 1.0) ** 2 - 1.0))
            p[:, row : row + n - 1] = a * (x * p[:, prev : prev + n - 1] - b * p[:, tri_index(n - 2, 0) : prev])
        # first subdiagonal p[n, n-1] and diagonal p[n, n] from p[n-1, n-1]
        p[:, row + n - 1] = np.sqrt(2 * n + 1.0) * costh * p[:, prev + n - 1]
        p[:, row + n] = np.sqrt((2 * n + 1) / (2.0 * n)) * sinth * p[:, prev + n - 1]
    # sin(th) dP/dth = n cos(th) P_n^m - sqrt((n^2-m^2)(2n+1)/(2n-1)) P_{n-1}^m
    for n in range(nmax + 1):
        row, prev = tri_index(n, 0), tri_index(n - 1, 0)
        sdp[:, row : row + n + 1] = n * x * p[:, row : row + n + 1]
        if n > 0:
            m = np.arange(n)
            c = np.sqrt((n * n - m * m) * (2.0 * n + 1.0) / (2.0 * n - 1.0))
            sdp[:, row : row + n] -= c * p[:, prev : prev + n]
    return p, sdp
