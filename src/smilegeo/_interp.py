"""Ports of the scipy spline and normal CDF behind ``analysis``'s curvatures.

Each function returns the same doubles, bit for bit, as the scipy 1.17.1
routine it ports, and none imports scipy, so ``curvature`` runs in a cold
CLI process without loading it:

- ``curve_spline(t, pts)`` is ``CubicSpline(t, pts[:, i])`` (not-a-knot) for
  both coordinates of a planar curve.  The two share one tridiagonal
  matrix, so one sweep of LAPACK ``dgtsv`` in its reference operation order
  (partial pivoting included) solves for both, on Python floats.  Only
  raw point arrays are resampled through it; a RepresentationCurve's
  curvatures come from its smile's jet.
- ``ndtr(a)`` is ``scipy.special.ndtr``, Cephes ``ndtr``/``erf``/``erfc``
  (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
  1989).  The polynomials run on arrays, but ``exp`` runs per element
  through ``math.exp``: numpy's array ``exp`` differs from libm's in the
  last bit on some inputs.

The spline is evaluated as scipy's ``PPoly`` does: on the cell
``searchsorted(side="right") - 1`` clipped to the first and last cells, as
a power sum in ``s = x - x[i]`` built with ``z *= s``.  It raises
``ValueError`` where scipy does (non-finite nodes or values, nodes that do
not strictly increase), and needs at least 4 nodes; scipy solves 2 and 3
another way.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError


class _Cubic:
    """Piecewise planar cubic with breakpoints ``x`` and coefficients
    ``c[k, i]`` (one per coordinate) of ``(x - x[i])**(3 - k)`` on cell i,
    evaluated as scipy's ``PPoly``."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x = x
        self.c = c

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        i = np.searchsorted(self.x, xs, side="right") - 1
        np.clip(i, 0, len(self.x) - 2, out=i)
        s = (xs - self.x[i])[..., None]
        c0, c1, c2, c3 = np.take(self.c, i, axis=1)
        out = 0.0 + c3
        out += c2 * s
        z = s * s
        out += c1 * z
        z *= s
        out += c0 * z
        return out


def _check_nodes(x, y):
    """scipy's ``prepare_input`` checks; returns float x, diff(x), float y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1:
        raise ValueError("`x` must be 1-dimensional.")
    if x.shape[0] < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if y.ndim == 0 or y.shape[0] != x.shape[0]:
        raise ValueError("The length of `y` doesn't match the length of `x`")
    if not np.all(np.isfinite(x)):
        raise ValueError("`x` must contain only finite values.")
    if not np.all(np.isfinite(y)):
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    return x, dx, y


def _hermite(x, dx, y, dydx) -> _Cubic:
    """``CubicHermiteSpline``'s coefficients from (n, 2) values and slopes."""
    dx = dx[:, None]
    slope = np.diff(y, axis=0) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return _Cubic(x, np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])))


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK ``dgtsv``: solve a tridiagonal system for the two columns of b.

    ``dl``, ``d`` and ``du`` are the sub-, main and super-diagonal.  The
    elimination runs in the reference operation order, row interchanges
    included, on Python floats, and carries both columns in one sweep.
    """
    n = d.shape[0]
    # Step i eliminates below row i and reads these entries of row i + 1; the
    # last row has no second super-diagonal, so its 0.0 is never used.
    ahead = zip(
        dl.tolist(), d[1:].tolist(), [*du[1:].tolist(), 0.0], b[1:, 0].tolist(), b[1:, 1].tolist()
    )
    # U, row by row: diagonal, super-diagonal, the fill-in that a row
    # interchange leaves, and the eliminated right-hand sides.
    rows = []
    di, ui, xi, yi = float(d[0]), float(du[0]), float(b[0, 0]), float(b[0, 1])
    try:
        for li, dn, un, xn, yn in ahead:
            if abs(di) >= abs(li):
                fact = li / di
                rows.append((di, ui, 0.0, xi, yi))
                di = dn - fact * ui
                xi = xn - fact * xi
                yi = yn - fact * yi
            else:
                fact = di / li
                rows.append((li, dn, un, xn, yn))
                di = ui - fact * dn
                un = -fact * un
                xi = xi - fact * xn
                yi = yi - fact * yn
            ui = un
        x1 = xi / di
        y1 = yi / di
        dg, u1, _, xb, yb = rows.pop()
        x0 = (xb - u1 * x1) / dg
        y0 = (yb - u1 * y1) / dg
        xs, ys = [x1, x0], [y1, y0]
        for dg, u1, u2, xb, yb in reversed(rows):
            x0, x1 = (xb - u1 * x0 - u2 * x1) / dg, x0
            y0, y1 = (yb - u1 * y0 - u2 * y1) / dg, y0
            xs.append(x0)
            ys.append(y0)
    except ZeroDivisionError:  # a zero pivot: dgtsv's INFO > 0
        raise LinAlgError("singular matrix") from None
    out = np.empty((n, 2))
    out[::-1, 0] = xs
    out[::-1, 1] = ys
    return out


def curve_spline(t, pts) -> _Cubic:
    """Not-a-knot cubic spline through the (n, 2) points ``pts`` over ``t``."""
    t, dt, pts = _check_nodes(t, pts)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("`pts` must be an (n, 2) array")
    n = t.shape[0]
    if n < 4:
        raise ValueError("need at least 4 nodes")
    dxr = dt[:, None]
    slope = np.diff(pts, axis=0) / dxr
    b = np.empty_like(pts)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = np.empty(n)
    d[1:-1] = 2 * (dt[:-1] + dt[1:])
    du = np.empty(n - 1)
    du[1:] = dt[:-1]
    dl = np.empty(n - 1)
    dl[:-1] = dt[1:]
    # The not-a-knot rows: the third derivative is continuous at the second
    # and the second-to-last node.
    w0 = t[2] - t[0]
    d[0], du[0] = dt[1], w0
    b[0] = ((dt[0] + 2 * w0) * dt[1] * slope[0] + dt[0] ** 2 * slope[1]) / w0
    w1 = t[-1] - t[-3]
    d[-1], dl[-1] = dt[-2], w1
    b[-1] = (dt[-1] ** 2 * slope[-2] + (2 * w1 + dt[-1]) * dt[-2] * slope[-1]) / w1
    return _hermite(t, dt, pts, _gtsv(dl, d, du, b))


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1; erfc(x) =
# exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and exp(-x^2) R(x) / S(x) beyond.
# Each denominator leads with the 1 that Cephes' p1evl leaves implicit.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule in Cephes' order."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, bit for bit ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    # N = 1/2 + erf(x)/2 for |x| < 1/sqrt(2), else erfc(|x|)/2 (reflected for
    # x > 0).  erf's polynomial also serves erfc(z) = 1 - erf(z) for z < 1.
    mid = z < _SQRT1_2
    small = z < 1.0
    w = np.where(mid, x, np.where(small, z, 0.0))
    w2 = w * w
    erf_w = w * _polevl(w2, _ERF_T) / _polevl(w2, _ERF_U)
    y = np.where(mid, 0.5 + 0.5 * erf_w, 0.5 * (1.0 - erf_w))
    tail = ~small  # NaN takes this branch and stays NaN
    if tail.any():
        zt = z[tail]
        with np.errstate(over="ignore", invalid="ignore"):
            u = -zt * zt  # -inf past sqrt(max double)
            e = np.fromiter(map(math.exp, u.tolist()), float, u.size)
            near = zt < 8.0
            zn = np.where(near, zt, 1.0)
            p, q = _polevl(zn, _ERFC_P), _polevl(zn, _ERFC_Q)
            if not near.all():
                far = zt[~near]
                p[~near], q[~near] = _polevl(far, _ERFC_R), _polevl(far, _ERFC_S)
            y[tail] = 0.5 * np.where(u < -_MAXLOG, 0.0, (e * p) / q)
    up = ~mid & (x > 0.0)
    y[up] = 1.0 - y[up]
    return y
