"""Curve diagnostics: curvature profiles and density divergences.

Curvatures are computed after resampling the curve to CURVATURE_RESAMPLE_N
points of uniform arc length (cubic interpolation on the chord-length
parameter) with 5-point central difference stencils:

    kappa_E = (x' y'' - y' x'') / (x'^2 + y'^2)^{3/2}
    kappa_s = 3 (x' x'' + y' y'') / (x' y'' - y' x'')
              - (x' y''' - y' x''') (x'^2 + y'^2) / (x' y'' - y' x'')^2

kappa_E is invariant under rotations and translations and equals 1/rho on a
circle of radius rho; kappa_s is additionally invariant under uniform
scaling and vanishes identically on circles.

The resampling spline, the PCHIP strike map and the N(-d1) column come
from ``_interp``: numpy ports that match the reference routines bit for
bit, so a cold ``curvature`` run loads numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _interp
from .bsm import d1_total
from .distributions import DensityCurve, LogNormal
from .errors import CurveTooShort, DegenerateMass, DisjointSupport
from .georep import RepresentationCurve
from .shapes import CircleShape

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
    """Curvatures along a resampled curve, with two reporting abscissas.

    Entries where the curvature denominator falls below tolerance are NaN.
    ``angle_about_center`` is the polar angle about a fitted circle's centre
    (about the origin when no circle is given); ``n_minus_d1`` is available
    when the curve carries market context.
    """

    arc: np.ndarray
    x: np.ndarray
    y: np.ndarray
    kappa_e: np.ndarray
    kappa_s: np.ndarray
    angle_about_center: np.ndarray
    n_minus_d1: np.ndarray | None = None
    strikes: np.ndarray | None = None


def _curve_points(curve, least: int):
    """The curve's (n, 2) points without repeats of the point before.

    Returns the points kept and the mask that keeps them; CurveTooShort
    when fewer than ``least`` remain.
    """
    if isinstance(curve, RepresentationCurve):
        pts = curve.points
    else:
        pts = np.asarray(curve, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("curve must be an (n, 2) point array or a RepresentationCurve")
    kept = np.ones(len(pts), dtype=bool)
    kept[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    if not kept.all():
        pts = pts[kept]
    if len(pts) < least:
        raise CurveTooShort(f"need at least {least} points")
    return pts, kept


def _resample_uniform_arclength(pts: np.ndarray, n: int):
    """Uniform-arc-length resampling via chord-length cubic interpolation."""
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s_uniform = np.linspace(0.0, float(s[-1]), n)
    xy = _interp.curve_spline(s, pts)(s_uniform)
    return s, s_uniform, xy[:, 0], xy[:, 1]


def _stencil(f: np.ndarray, h: float):
    """5-point first, second, third derivatives on the interior."""
    d1 = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)
    d3 = (-f[:-4] + 2.0 * f[1:-3] - 2.0 * f[3:-1] + f[4:]) / (2.0 * h**3)
    return d1, d2, d3


def _curvatures(pts: np.ndarray):
    s_nodes, s_uniform, x, y = _resample_uniform_arclength(pts, CURVATURE_RESAMPLE_N)
    h = float(s_uniform[1] - s_uniform[0])
    x1, x2, x3 = _stencil(x, h)
    y1, y2, y3 = _stencil(y, h)
    cross = x1 * y2 - y1 * x2
    speed2 = x1 * x1 + y1 * y1
    bad = np.abs(cross) <= CURVATURE_DENOM_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa_e = cross / speed2**1.5
        kappa_s = 3.0 * (x1 * x2 + y1 * y2) / cross - (x1 * y3 - y1 * x3) * speed2 / (
            cross * cross
        )
    kappa_e = np.where(bad, np.nan, kappa_e)
    kappa_s = np.where(bad, np.nan, kappa_s)
    # Drop a few more points at each end: the resampling spline's first and
    # last cells feed the outermost stencils with lower-order accuracy.
    t = CURVATURE_EDGE_TRIM
    sl = slice(2 + t, -(2 + t))
    return s_nodes, s_uniform[sl], x[sl], y[sl], kappa_e[t:-t], kappa_s[t:-t]


def euclidean_curvature(curve) -> np.ndarray:
    """kappa_E at the interior resampled points (NaN where masked)."""
    return _curvatures(_curve_points(curve, MIN_POINTS_EUCLIDEAN)[0])[4]


def similarity_curvature(curve) -> np.ndarray:
    """kappa_s at the interior resampled points (NaN where masked)."""
    return _curvatures(_curve_points(curve, MIN_POINTS_SIMILARITY)[0])[5]


def curvature_profile(curve, circle: CircleShape | None = None) -> CurvatureProfile:
    """Both curvatures against two reporting abscissas.

    The profile carries the polar angle about the fitted circle's centre
    (unwrapped, so it plots continuously) and, when the input is a
    RepresentationCurve, N(-d1) of the underlying smile.  Strikes along the
    resampled curve come from a PCHIP map on the spline's own nodes, so
    repeated points drop out of both.
    """
    pts, kept = _curve_points(curve, MIN_POINTS_SIMILARITY)
    s_nodes, arc, x, y, kappa_e, kappa_s = _curvatures(pts)
    cx, cy = circle.center if circle is not None else (0.0, 0.0)
    angle = np.unwrap(np.arctan2(y - cy, x - cx))

    n_minus_d1 = None
    strikes = None
    if isinstance(curve, RepresentationCurve):
        strikes = np.exp(_interp.pchip(s_nodes, np.log(curve.strikes[kept]))(arc))
        ctx = curve.context
        # sigma along the resampled curve from the radial coordinate
        sigma = np.hypot(x, y) - ctx.radius_scale
        n_minus_d1 = _interp.ndtr(-d1_total(ctx.market, strikes, sigma)[0])
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


def kl_divergence(
    p: DensityCurve,
    q: DensityCurve,
    n: int = KL_GRID_N,
    clamp_floor: float = KL_CLAMP_FLOOR,
) -> DivergenceReport:
    """KL(p || q) over the overlap of the two strike windows.

    Both curves are re-sampled to a log-uniform grid and rescaled to unit
    trapezoid mass there, which keeps the discrete divergence non-negative
    and zero exactly for identical curves.  q values at or below the clamp
    floor are raised to it (the pseudo-divergence of ill-posed inversions)
    and flagged through ``clamped_fraction``.
    """
    if np.any(p.values < 0.0):
        raise ValueError("p must be a non-negative density")
    lo = max(float(p.strikes[0]), float(q.strikes[0]))
    hi = min(float(p.strikes[-1]), float(q.strikes[-1]))
    if not lo < hi:
        raise DisjointSupport(f"no strike overlap: [{lo:.6g}, {hi:.6g}]")
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), n))
    p_vals = np.interp(grid, p.strikes, p.values)
    q_vals = np.interp(grid, q.strikes, q.values)
    clamped = q_vals <= clamp_floor
    q_vals = np.where(clamped, clamp_floor, q_vals)

    # Discrete renormalisation keeps Gibbs' inequality exact.  Scaling by the
    # maximum first keeps the mass of an all-subnormal curve from rounding to 0.
    w = _trapezoid_weights(grid)
    p_vals = p_vals / float(np.max(p_vals))
    q_vals = q_vals / float(np.max(q_vals))
    p_norm = p_vals / float(np.sum(w * p_vals))
    q_norm = q_vals / float(np.sum(w * q_vals))
    # A difference of logs, not the log of a ratio: p/q of subnormal values
    # underflows to 0 and would make the sum -inf.
    support = p_norm > 0.0
    log_ratio = np.zeros_like(p_norm)
    np.log(p_norm, out=log_ratio, where=support)
    log_ratio -= np.log(q_norm, out=np.zeros_like(q_norm), where=support)
    kl = float(np.sum(w * np.where(support, p_norm * log_ratio, 0.0)))
    return DivergenceReport(
        kl_nats=kl,
        clamped_fraction=float(np.mean(clamped)),
        grid=grid,
    )


def best_lognormal(p: DensityCurve):
    """The KL-optimal log-normal fit to a density on the positive axis.

    The optimum is in closed form: mu* and s*^2 are the mean and variance of
    ln X under p.
    """
    if float(p.strikes[0]) <= 0.0:
        raise ValueError("density must be supported on positive strikes")
    if np.any(p.values < 0.0):
        raise ValueError("p must be a non-negative density")
    w = _trapezoid_weights(p.strikes)
    mass = float(np.sum(w * p.values))
    if mass < BEST_LOGNORMAL_MIN_MASS:
        raise DegenerateMass(
            f"grid carries mass {mass:.4f} < {BEST_LOGNORMAL_MIN_MASS}; widen the grid"
        )
    lnx = np.log(p.strikes)
    mu = float(np.sum(w * p.values * lnx)) / mass
    var = float(np.sum(w * p.values * lnx * lnx)) / mass - mu * mu
    return LogNormal(mu=mu, s=math.sqrt(var))
