"""The natural cubic spline behind ``smile_from_distribution``'s smiles.

``natural_spline(x, y)`` returns the same doubles, bit for bit, as scipy
1.17.1's ``CubicSpline(x, y, bc_type="natural")``, the smile in
(ln K, sigma).  It forms scipy's band, right-hand side and Hermite
coefficients and solves with LAPACK ``dgtsv`` as ``solve_banded`` calls it,
importing ``scipy.linalg.lapack`` on the first solve (no CLI subcommand
makes one).  It evaluates as ``PPoly`` does: on the cell
``searchsorted(side="right") - 1`` clipped to the end cells, as a power sum
in ``s = x - x[i]`` over ``s``, ``s * s`` and ``(s * s) * s``; ``jet`` adds
the derivatives from the coefficients ``PPoly.derivative`` forms.  The
builder raises ``InvalidInput``, a ``ValueError``, where scipy raises
``ValueError``.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .errors import InvalidInput


class _Cubic:
    """Piecewise cubic with breakpoints ``x`` and coefficients ``c[k, i]`` of
    ``(x - x[i])**(3 - k)`` on cell i, evaluated as scipy's ``PPoly``."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c
        self._inner = x[1:-1]

    def _cells(self, xs):
        """Each point's cell coefficients (c0, c1, c2, c3) and its offset s into the cell."""
        xs = np.asarray(xs, dtype=float)
        # The count of inner breakpoints at or below xs is PPoly's cell,
        # clipped to the end cells (NaN sorts last, into the last cell).
        i = np.searchsorted(self._inner, xs, side="right")
        return np.take(self.c, i, axis=1), xs - self.x[i]

    def __call__(self, xs) -> np.ndarray:
        (c0, c1, c2, c3), s = self._cells(xs)
        return _power_sum(c0, c1, c2, c3, s, s * s)

    def jet(self, xs):
        """Value, first and second derivative from one cell search; the derivatives
        sum ``PPoly.derivative``'s coefficients (3 c0, 2 c1, c2) and (6 c0, 2 c1)."""
        (c0, c1, c2, c3), s = self._cells(xs)
        z = s * s
        two_c1 = 2.0 * c1
        val = _power_sum(c0, c1, c2, c3, s, z)
        d1 = 0.0 + c2
        d1 += two_c1 * s
        d1 += (3.0 * c0) * z
        d2 = 0.0 + two_c1
        d2 += (6.0 * c0) * s
        return val, d1, d2


def _power_sum(c0, c1, c2, c3, s, z):
    """``PPoly``'s value on a cell, c3 + c2 s + c1 z + c0 (z s) with z = s * s, in that order."""
    out = 0.0 + c3
    out += c2 * s
    out += c1 * z
    out += c0 * (z * s)
    return out


def _check_nodes(x, y):
    """scipy's ``prepare_input`` checks; returns float x, diff(x), float y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2 or y.shape != x.shape:
        raise InvalidInput("need at least 2 nodes in 1-d x and as many values in 1-d y")
    if not np.isfinite(x).all():
        raise InvalidInput("`x` must contain only finite values.")
    if not np.isfinite(y).all():
        raise InvalidInput("`y` must contain only finite values.")
    dx = np.diff(x)
    if (dx <= 0).any():
        raise InvalidInput("`x` must be strictly increasing sequence.")
    return x, dx, y


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK ``dgtsv`` on the sub-, main and super-diagonal, as ``solve_banded`` calls it."""
    from scipy.linalg.lapack import dgtsv  # off every CLI path

    *_, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _hermite(x, dx, y, slope, dydx) -> _Cubic:
    """``CubicHermiteSpline``'s coefficients from values, secant slopes and node slopes."""
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return _Cubic(x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])))


def _band(dx, slope):
    """``CubicSpline``'s tridiagonal band (dl, d, du) and right-hand side b,
    with the interior rows filled; the boundary condition fills the end rows."""
    n = dx.shape[0] + 1
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.empty(n - 1)
    du[1:] = dx[:-1]
    dl = np.empty(n - 1)
    dl[:-1] = dx[1:]
    return dl, d, du, b


def natural_spline(x, y) -> _Cubic:
    """Natural cubic spline (zero second derivative at both ends) through y over x."""
    x, dx, y = _check_nodes(x, y)
    slope = np.diff(y) / dx
    dl, d, du, b = _band(dx, slope)
    # The end rows, with the zero second derivative entered as scipy enters it.
    d[0], du[0] = 2 * dx[0], dx[0]
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
    d[-1], dl[-1] = 2 * dx[-1], dx[-1]
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
    return _hermite(x, dx, y, slope, _gtsv(dl, d, du, b))

