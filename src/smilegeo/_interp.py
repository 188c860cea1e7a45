"""The cubic splines behind smiles and curvatures, and a scipy-free normal CDF.

Each function returns the same doubles, bit for bit, as the scipy 1.17.1
routine it reproduces:

- ``natural_spline(x, y)`` is ``CubicSpline(x, y, bc_type="natural")``, the
  smile of ``smile_from_distribution`` in (ln K, sigma).
- ``curve_spline(t, pts)`` is ``CubicSpline(t, pts[:, i])`` (not-a-knot) for
  both coordinates of a planar curve, solved as two right-hand sides of
  one tridiagonal system.  Only raw point arrays are resampled through it.
- ``ndtr(a)`` is ``scipy.special.ndtr``, Cephes ``ndtr``/``erf``/``erfc``
  (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
  1989), with no scipy import, so ``curvature`` runs in a cold CLI process
  without loading scipy.  The polynomials run on arrays, but ``exp`` runs
  per element through ``math.exp``: numpy's array ``exp`` differs from
  libm's in the last bit on some inputs.

The splines form scipy's band, right-hand side and Hermite coefficients and
solve with LAPACK ``dgtsv`` as ``solve_banded`` calls it, importing
``scipy.linalg.lapack`` on the first solve (no CLI subcommand makes one).
They evaluate as ``PPoly`` does: on the cell
``searchsorted(side="right") - 1`` clipped to the end cells, as a power sum
in ``s = x - x[i]`` over ``s``, ``s * s`` and ``(s * s) * s``; ``jet`` adds
the derivatives from the coefficients ``PPoly.derivative`` forms.  The builders raise ``InvalidInput``, a
``ValueError``, where scipy raises ``ValueError``; ``curve_spline`` needs
at least 4 nodes, where scipy solves 2 and 3 another way.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError

from .errors import InvalidInput


class _Cubic:
    """Piecewise cubic with breakpoints ``x`` and coefficients ``c[k, i]`` of
    ``(x - x[i])**(3 - k)`` on cell i (with a trailing axis of coordinates
    for a curve), evaluated as scipy's ``PPoly``."""

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
        s = xs - self.x[i]
        return np.take(self.c, i, axis=1), s if self.c.ndim == 2 else s[..., None]

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


def _check_nodes(x, y, y_ndim: int):
    """scipy's ``prepare_input`` checks; returns float x, diff(x), float y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2 or y.ndim != y_ndim or y.shape[0] != x.shape[0]:
        raise InvalidInput(f"need at least 2 nodes in 1-d x and as many values in {y_ndim}-d y")
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


def _band(dx, dxr, slope):
    """``CubicSpline``'s tridiagonal band (dl, d, du) and right-hand side b,
    with the interior rows filled; the boundary condition fills the end rows."""
    n = dx.shape[0] + 1
    b = np.empty((n, *slope.shape[1:]))
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = np.empty(n)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.empty(n - 1)
    du[1:] = dx[:-1]
    dl = np.empty(n - 1)
    dl[:-1] = dx[1:]
    return dl, d, du, b


def natural_spline(x, y) -> _Cubic:
    """Natural cubic spline (zero second derivative at both ends) through y over x."""
    x, dx, y = _check_nodes(x, y, 1)
    slope = np.diff(y) / dx
    dl, d, du, b = _band(dx, dx, slope)
    # The end rows, with the zero second derivative entered as scipy enters it.
    d[0], du[0] = 2 * dx[0], dx[0]
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
    d[-1], dl[-1] = 2 * dx[-1], dx[-1]
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
    return _hermite(x, dx, y, slope, _gtsv(dl, d, du, b))


def curve_spline(t, pts) -> _Cubic:
    """Not-a-knot cubic spline through the (n, 2) points ``pts`` over ``t``."""
    t, dt, pts = _check_nodes(t, pts, 2)
    if pts.shape[1] != 2 or t.shape[0] < 4:
        raise InvalidInput("need at least 4 nodes and an (n, 2) point array")
    dxr = dt[:, None]
    slope = np.diff(pts, axis=0) / dxr
    dl, d, du, b = _band(dt, dxr, slope)
    # The not-a-knot rows: the third derivative is continuous at the second
    # and the second-to-last node.
    w0 = t[2] - t[0]
    d[0], du[0] = dt[1], w0
    b[0] = ((dt[0] + 2 * w0) * dt[1] * slope[0] + dt[0] ** 2 * slope[1]) / w0
    w1 = t[-1] - t[-3]
    d[-1], dl[-1] = dt[-2], w1
    b[-1] = (dt[-1] ** 2 * slope[-2] + (2 * w1 + dt[-1]) * dt[-2] * slope[-1]) / w1
    return _hermite(t, dxr, pts, slope, _gtsv(dl, d, du, b))


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
