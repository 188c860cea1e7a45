"""Curve diagnostics: curvature profiles and density divergences.

A RepresentationCurve's curvatures come in closed form from its smile's
jet, at the curve's own strikes.  With u = ln K the curve is
rho (cos phi, sin phi), where rho = R + sigma(u) and phi(u) comes from
``georep.angle_jet``; its u-derivatives are exact, and

    kappa_E = (x' y'' - y' x'') / (x'^2 + y'^2)^{3/2}
    kappa_s = -(d kappa_E / du) / (kappa_E^2 (x'^2 + y'^2)^{1/2})

with d kappa_E / du a 5-point stencil on log-uniform strikes.  A raw (n, 2)
point array has no jet: it is resampled to CURVATURE_RESAMPLE_N points of
uniform arc length s (scipy's not-a-knot ``CubicSpline`` on the chord
length, imported on the first point array), and 5-point
stencils of x and y in s feed the same kappa_E and
kappa_s = -(x' y''' - y' x''') (x'^2 + y'^2) / C^2, where C = x' y'' - y' x''.
The general-parameter form adds 3 (x' x'' + y' y'') / C, which is 0 at
uniform arc length.

kappa_E is invariant under rotations and translations and equals 1/rho on a
circle of radius rho; kappa_s is additionally invariant under uniform
scaling and vanishes identically on circles.

The N(-d1) column comes from ``bsm.erfc_ndtr``, the standard library's
``erfc``, so a RepresentationCurve's profile loads no scipy module.
Several q against one p share p's side of the KL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsm import d1_total, erfc_ndtr
from .errors import CurveTooShort, DegenerateMass, DisjointSupport, InvalidInput
from .georep import RepresentationCurve, angle_jet
from .shapes import CircleShape
from .smile import DensityCurve

CURVATURE_RESAMPLE_N = 2001
CURVATURE_DENOM_TOL = 1e-12
CURVATURE_EDGE_TRIM = 4  # extra points dropped beyond the stencil margin
MIN_POINTS_EUCLIDEAN = 7
MIN_POINTS_SIMILARITY = 9
KL_GRID_N = 4001
KL_CLAMP_FLOOR = 1e-50
BEST_LOGNORMAL_MIN_MASS = 0.99


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvatures along a curve, with two reporting abscissas.

    Entries where the curvature falls below tolerance are NaN.
    ``angle_about_center`` is the polar angle about a fitted circle's centre
    (about the origin when no circle is given); ``n_minus_d1`` and
    ``strikes`` are available when the curve carries market context.
    """

    arc: np.ndarray
    x: np.ndarray
    y: np.ndarray
    kappa_e: np.ndarray
    kappa_s: np.ndarray
    angle_about_center: np.ndarray
    n_minus_d1: np.ndarray | None = None
    strikes: np.ndarray | None = None


def _curve_points(curve, least: int) -> np.ndarray:
    """A point array without repeats of the point before; at least ``least`` points."""
    pts = np.asarray(curve, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInput("curve must be an (n, 2) point array or a RepresentationCurve")
    kept = np.ones(len(pts), dtype=bool)
    kept[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    if not kept.all():
        pts = pts[kept]
    if len(pts) < least:
        raise CurveTooShort(f"need at least {least} points")
    return pts


def _stencil(f: np.ndarray, h: float):
    """5-point first, second, third derivatives on the interior."""
    d1 = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)
    d3 = (-f[:-4] + 2.0 * f[1:-3] - 2.0 * f[3:-1] + f[4:]) / (2.0 * h**3)
    return d1, d2, d3


def _spline_curvatures(pts: np.ndarray):
    """(arc, x, y, kappa_E, kappa_s) of a point array, resampled to uniform arc length."""
    from scipy.interpolate import CubicSpline  # point arrays only, off every CLI path

    # A non-finite point or an overflowing chord length leaves s non-finite,
    # which CubicSpline rejects: no numpy warning comes first.
    with np.errstate(over="ignore", invalid="ignore"):
        seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        s = np.concatenate([[0.0], np.cumsum(seg)])
    # Work at a total chord length in [0.5, 1): scaling by a power of two is
    # exact and every step below is homogeneous in the scale, so ordinary
    # arrays keep their bits and extreme ones neither overflow nor underflow.
    e = int(np.frexp(s[-1])[1])
    try:
        spline = CubicSpline(np.ldexp(s, -e), np.ldexp(pts, -e))
    except ValueError as exc:  # non-finite points, or chord steps lost to rounding
        raise InvalidInput(str(exc)) from exc
    s_uniform = np.linspace(0.0, np.ldexp(s[-1], -e), CURVATURE_RESAMPLE_N)
    x, y = spline(s_uniform).T
    h = float(s_uniform[1] - s_uniform[0])
    x1, x2, x3 = _stencil(x, h)
    y1, y2, y3 = _stencil(y, h)
    cross = x1 * y2 - y1 * x2
    speed2 = x1 * x1 + y1 * y1
    # cross is the scaled curve's kappa_E, within a factor 2 of kappa_E times
    # the chord length: the mask is scale-free.
    bad = np.abs(cross) <= CURVATURE_DENOM_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa_e = cross / speed2**1.5
        kappa_s = -(x1 * y3 - y1 * x3) * speed2 / (cross * cross)
    kappa_e = np.where(bad, np.nan, kappa_e)
    kappa_s = np.where(bad, np.nan, kappa_s)
    # Drop a few more points at each end: the resampling spline's first and
    # last cells feed the outermost stencils with lower-order accuracy.
    t = CURVATURE_EDGE_TRIM
    sl = slice(2 + t, -(2 + t))
    arc, x, y = (np.ldexp(v[sl], e) for v in (s_uniform, x, y))
    with np.errstate(over="ignore"):  # a subnormal curve's kappa_E leaves the float range
        kappa_e = np.ldexp(kappa_e[t:-t], -e)
    if np.isinf(kappa_e).any():
        raise InvalidInput("curvature of the point array overflows")
    return arc, x, y, kappa_e, kappa_s[t:-t]


def _jet_curvatures(curve: RepresentationCurve):
    """(arc, x, y, kappa_E, kappa_s, strikes, sigma) from the smile's jet,
    at every strike of the curve but the two at each end."""
    lnk = np.log(curve.strikes)
    sig, dsig, d2sig = curve.smile.jet_fn(lnk)
    cos, sin, dphi, d2phi = angle_jet(lnk, curve.context)
    rho = curve.radii
    x1 = dsig * cos - rho * dphi * sin
    y1 = dsig * sin + rho * dphi * cos
    x2 = d2sig * cos - 2.0 * dsig * dphi * sin - rho * (d2phi * sin + dphi * dphi * cos)
    y2 = d2sig * sin + 2.0 * dsig * dphi * cos + rho * (d2phi * cos - dphi * dphi * sin)
    speed = np.hypot(x1, y1)
    kappa_e = (x1 * y2 - y1 * x2) / speed**3
    kappa_e[np.abs(kappa_e) <= CURVATURE_DENOM_TOL] = np.nan
    dkappa = _stencil(kappa_e, float(lnk[-1] - lnk[0]) / (lnk.size - 1))[0]
    inner = slice(2, -2)
    kappa_s = -dkappa / (kappa_e[inner] ** 2 * speed[inner])
    arc = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(lnk))])
    x, y = curve.points[inner].T
    return arc[inner], x, y, kappa_e[inner], kappa_s, curve.strikes[inner], sig[inner]


def _curvatures(curve, least: int):
    """A RepresentationCurve through its jet, a point array through the spline."""
    if not isinstance(curve, RepresentationCurve):
        return (*_spline_curvatures(_curve_points(curve, least)), None, None)
    if curve.strikes.size < least:
        raise CurveTooShort(f"need at least {least} points")
    return _jet_curvatures(curve)


def euclidean_curvature(curve) -> np.ndarray:
    """kappa_E at the curve's interior points (NaN where masked)."""
    return _curvatures(curve, MIN_POINTS_EUCLIDEAN)[3]


def similarity_curvature(curve) -> np.ndarray:
    """kappa_s at the curve's interior points (NaN where masked)."""
    return _curvatures(curve, MIN_POINTS_SIMILARITY)[4]


def curvature_profile(curve, circle: CircleShape | None = None) -> CurvatureProfile:
    """Both curvatures against two reporting abscissas.

    The profile carries the polar angle about the fitted circle's centre
    (unwrapped, so it plots continuously) and, when the input is a
    RepresentationCurve, its strikes and N(-d1) of the underlying smile.  A
    RepresentationCurve of n strikes gives n - 4 rows, from its third
    strike to its third-to-last: the kappa_s stencil takes two strikes on
    each side and assumes them log-uniform.  Its ``arc`` is the trapezoid
    arc length from the curve's first point.
    """
    arc, x, y, kappa_e, kappa_s, strikes, sigma = _curvatures(curve, MIN_POINTS_SIMILARITY)
    cx, cy = circle.center if circle is not None else (0.0, 0.0)
    angle = np.unwrap(np.arctan2(y - cy, x - cx))
    n_minus_d1 = None
    if strikes is not None:
        n_minus_d1 = erfc_ndtr(-d1_total(curve.context.market, strikes, sigma)[0])
    return CurvatureProfile(
        arc=arc,
        x=x,
        y=y,
        kappa_e=kappa_e,
        kappa_s=kappa_s,
        angle_about_center=angle,
        n_minus_d1=n_minus_d1,
        strikes=strikes,
    )


@dataclass(frozen=True)
class DivergenceReport:
    """Trapezoid-rule KL divergence in nats on a shared strike window."""

    kl_nats: float
    clamped_fraction: float
    grid: np.ndarray

    @property
    def pseudo(self) -> bool:
        """True when the q side needed clamping (negative or zero densities)."""
        return self.clamped_fraction > 0.0


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with sum(w * f) the trapezoid integral of f over the grid x."""
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _unit_mass(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """values rescaled to unit trapezoid mass.  Scaling by the maximum first
    keeps the mass of an all-subnormal curve from rounding to 0."""
    values = values / float(np.max(values))
    return values / float(np.sum(w * values))


def kl_divergence(p: DensityCurve, q, clamp_floor: float = KL_CLAMP_FLOOR):
    """KL(p || q) over the overlap of the two strike windows.

    Both curves are re-sampled to a ``KL_GRID_N``-point log-uniform grid and
    rescaled to unit trapezoid mass there, which keeps the discrete
    divergence non-negative and zero exactly for identical curves.  q values
    at or below the clamp floor are raised to it (the pseudo-divergence of
    ill-posed inversions) and flagged through ``clamped_fraction``.

    ``q`` may also be a sequence of curves: the result is then a tuple of
    reports, each equal to its own call's, and p's side (grid, weights, p at
    unit mass and its log) is formed once per overlap window.
    """
    if np.any(p.values < 0.0):
        raise InvalidInput("p must be a non-negative density")
    p_sides: dict = {}
    reports = []
    for q_one in (q,) if isinstance(q, DensityCurve) else q:
        lo = max(float(p.strikes[0]), float(q_one.strikes[0]))
        hi = min(float(p.strikes[-1]), float(q_one.strikes[-1]))
        if not lo < hi:
            raise DisjointSupport(f"no strike overlap: [{lo:.6g}, {hi:.6g}]")
        if (lo, hi) not in p_sides:
            grid = np.exp(np.linspace(math.log(lo), math.log(hi), KL_GRID_N))
            w = _trapezoid_weights(grid)
            p_vals = np.interp(grid, p.strikes, p.values)
            if not np.any(p_vals > 0.0):
                raise DisjointSupport(f"p has no mass on the overlap [{lo:.6g}, {hi:.6g}]")
            # Discrete renormalisation keeps Gibbs' inequality exact.
            p_norm = _unit_mass(p_vals, w)
            support = p_norm > 0.0
            log_p = np.log(p_norm, out=np.zeros_like(p_norm), where=support)
            p_sides[lo, hi] = grid, w, p_norm, support, log_p
        grid, w, p_norm, support, log_p = p_sides[lo, hi]
        q_vals = np.interp(grid, q_one.strikes, q_one.values)
        clamped = q_vals <= clamp_floor
        q_norm = _unit_mass(np.where(clamped, clamp_floor, q_vals), w)
        # A difference of logs, not the log of a ratio: p/q of subnormal values
        # underflows to 0 and would make the sum -inf.
        log_ratio = log_p - np.log(q_norm, out=np.zeros_like(q_norm), where=support)
        kl = float(np.sum(w * np.where(support, p_norm * log_ratio, 0.0)))
        reports.append(DivergenceReport(kl, float(np.mean(clamped)), grid))
    return reports[0] if isinstance(q, DensityCurve) else tuple(reports)


def best_lognormal(p: DensityCurve):
    """The KL-optimal log-normal fit to a density on the positive axis.

    The optimum is in closed form: mu* and s*^2 are the mean and variance of
    ln X under p.
    """
    if float(p.strikes[0]) <= 0.0:
        raise InvalidInput("density must be supported on positive strikes")
    if np.any(p.values < 0.0):
        raise InvalidInput("p must be a non-negative density")
    w = _trapezoid_weights(p.strikes)
    mass = float(np.sum(w * p.values))
    if mass < BEST_LOGNORMAL_MIN_MASS:
        raise DegenerateMass(
            f"grid carries mass {mass:.4f} < {BEST_LOGNORMAL_MIN_MASS}; widen the grid"
        )
    from .distributions import LogNormal  # the CLI's curvature never fits one

    lnx = np.log(p.strikes)
    mu = float(np.sum(w * p.values * lnx)) / mass
    var = float(np.sum(w * p.values * lnx * lnx)) / mass - mu * mu
    return LogNormal(mu=mu, s=math.sqrt(var))
