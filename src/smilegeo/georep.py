"""Polar-plane representation of smiles and its inversion.

A strike maps to an angle through a stereographic slice of the unit circle:
X(K) = ln(K / K_atm) / R lands on the circle at (2X/(1+X^2), (X^2-1)/(1+X^2)),
whose polar angle runs monotonically from -pi/2 at X = 0.  The radial
coordinate is R + sigma(K), so a flat smile draws an origin-centred circle of
radius R + sigma.  Inverting a fitted shape intersects each strike's ray with
the shape and reads sigma back off the radial excess over R.  The ray
geometry itself (origin check, intersection, derivatives) belongs to the
shape classes in ``shapes``; this module maps strikes to angles and back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsm import MarketState, atm_rn_lognormal, strike_for_target_nd1
from .errors import InvalidInput
from .smile import ND1_WINDOW, SmileCurve, require_positive_vol, strikes_for_deltas

DEFAULT_CURVE_POINTS = 2001
R_UNIT_FRACTION = 0.95  # |X| the farther window strike maps to under auto R


@dataclass(frozen=True)
class ReprContext:
    """Resolved representation context: market, centre strike, and R.

    The one check on a resolved frame: ``atm_rn`` and ``radius_scale`` must
    be finite and positive.
    """

    market: MarketState
    atm_rn: float
    radius_scale: float

    def __post_init__(self):
        if not (0.0 < self.atm_rn < math.inf and 0.0 < self.radius_scale < math.inf):
            raise InvalidInput("atm_rn and radius_scale must be finite and positive")


@dataclass(frozen=True)
class RepresentationCurve:
    """Sampled polar curve {rho cos(phi), rho sin(phi)} for one smile."""

    strikes: np.ndarray
    angles: np.ndarray
    radii: np.ndarray
    points: np.ndarray
    context: ReprContext

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        radii = np.asarray(self.radii, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if np.any(np.diff(strikes) <= 0.0):
            raise InvalidInput("strikes must be strictly increasing")
        if np.any(np.diff(angles) <= 0.0):
            raise InvalidInput("angles must be strictly increasing in ln K")
        if np.any(radii <= 0.0):
            raise InvalidInput("radii must be positive")
        if points.shape != (strikes.size, 2):
            raise InvalidInput("points must be an (n, 2) array")
        for name, arr in (("strikes", strikes), ("angles", angles), ("radii", radii), ("points", points)):
            object.__setattr__(self, name, arr)

    @property
    def vols(self) -> np.ndarray:
        """sigma(K) read back from the radial coordinate."""
        return self.radii - self.context.radius_scale


def strike_to_x(strike, atm_rn: float, radius_scale: float):
    """X(K) = ln(K / atm_rn) / R, the stereographic abscissa of a strike."""
    if not (0.0 < atm_rn < math.inf and 0.0 < radius_scale < math.inf):
        raise ValueError("atm_rn and radius_scale must be finite and positive")
    strike = np.asarray(strike, dtype=float)
    if np.any(strike <= 0.0):
        raise ValueError("strike must be positive")
    with np.errstate(over="ignore"):  # a subnormal R overflows X to +-inf
        out = np.log(strike / atm_rn) / radius_scale
    return float(out) if np.ndim(out) == 0 else out


def stereographic_point(x_coord):
    """Point of the unit circle projecting to X: (2X, X^2 - 1) / (1 + X^2).

    The paper's reference map, kept for tests that check ``continuous_angle``.
    """
    x_coord = np.asarray(x_coord, dtype=float)
    denom = 1.0 + x_coord * x_coord
    px = 2.0 * x_coord / denom
    pz = (x_coord * x_coord - 1.0) / denom
    if px.ndim == 0:
        return float(px), float(pz)
    return px, pz


def polar_angle(x, z):
    """Principal polar angle of (x, z) in (-pi, pi].

    Kept with ``stereographic_point`` for tests of ``continuous_angle``.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any((x == 0.0) & (z == 0.0)):
        raise ValueError("polar angle undefined at the origin")
    out = np.arctan2(z, x)
    out = np.where((out == -math.pi), math.pi, out)
    return float(out) if np.ndim(out) == 0 else out


def continuous_angle(x_coord):
    """Monotone angle branch along the projected line: 2 arctan(X) - pi/2.

    Equals the principal polar angle modulo 2 pi, starts at -pi/2 for X = 0,
    and avoids the arctan2 branch cut that the image crosses at X = -1.
    """
    x_coord = np.asarray(x_coord, dtype=float)
    out = 2.0 * np.arctan(x_coord) - 0.5 * math.pi
    return float(out) if np.ndim(out) == 0 else out


def angle_for_strike(strike, ctx: ReprContext):
    return continuous_angle(strike_to_x(strike, ctx.atm_rn, ctx.radius_scale))


def _context(ms: MarketState, atm_rn: float, radius_scale: float | None, window_strike):
    """ReprContext at the centre strike, with R fixed or, for ``None``, automatic.

    Auto R reads ``window_strike(target)`` and places the strikes at the
    ``smile.ND1_WINDOW`` N(-d1) window just inside the unit circle, symmetrised by
    the larger log-distance.
    """
    if radius_scale is None:
        half_width = max(abs(math.log(window_strike(t) / atm_rn)) for t in ND1_WINDOW)
        radius_scale = half_width / R_UNIT_FRACTION
    return ReprContext(market=ms, atm_rn=atm_rn, radius_scale=radius_scale)


def context_for_smile(smile: SmileCurve, radius_scale: float | None = None) -> ReprContext:
    """Resolve (atm_rn, R) for a smile; ``radius_scale=None`` is auto R.

    The centre strike is the smile's delta-neutral strike; auto R reads the
    window strikes off the smile's own N(-d1).  All of them come from one
    ``strikes_for_deltas`` solve.
    """
    targets = (0.5,) if radius_scale is not None else (0.5, *ND1_WINDOW)
    strikes = dict(zip(targets, strikes_for_deltas(smile, targets).tolist()))
    return _context(smile.market, strikes[0.5], radius_scale, strikes.__getitem__)


def flat_context(ms: MarketState, atm_vol: float, radius_scale: float | None = None) -> ReprContext:
    """Context from a single at-the-money vol (three-quote market rows).

    Uses the flat-vol proxy: the delta window of a constant-vol smile is
    symmetric about its delta-neutral strike in log-strike.
    """
    return _context(
        ms,
        atm_rn_lognormal(ms, atm_vol),
        radius_scale,
        lambda t: strike_for_target_nd1(ms, atm_vol, t),
    )


def represent(
    smile: SmileCurve, ctx: ReprContext | None = None, strikes=None
) -> RepresentationCurve:
    """Map a smile to its polar-plane curve; ``ctx=None`` is ``context_for_smile(smile)``.

    Flat smiles land on an origin-centred circle of radius R + sigma; the
    angle grid is strictly monotone in ln K.
    """
    ctx = ctx or context_for_smile(smile)
    if strikes is None:
        strikes = smile.default_grid(DEFAULT_CURVE_POINTS)
    strikes = np.asarray(strikes, dtype=float)
    angles = angle_for_strike(strikes, ctx)
    radii = ctx.radius_scale + np.asarray(smile.vol(strikes), dtype=float)
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return RepresentationCurve(
        strikes=strikes, angles=angles, radii=radii, points=points, context=ctx
    )


def represent_anchors(anchors, ctx: ReprContext) -> np.ndarray:
    """Representation points of delta anchors: rows of (x, y)."""
    out = np.empty((len(anchors), 2), dtype=float)
    for i, anchor in enumerate(anchors):
        phi = angle_for_strike(anchor.strike, ctx)
        rho = ctx.radius_scale + anchor.vol
        out[i] = (rho * math.cos(phi), rho * math.sin(phi))
    return out


def smile_from_shape(shape, ctx: ReprContext, k_lo: float, k_hi: float) -> SmileCurve:
    """Invert a fitted circle or ellipse back into a smile on [k_lo, k_hi].

    sigma(K) is the radial excess over R of the ray-shape intersection at the
    strike's angle.  The origin must sit strictly inside the shape, checked
    once here, and the whole domain is swept for a positive implied vol.
    """
    shape.require_origin_inside()
    r_scale = ctx.radius_scale
    ln_atm = math.log(ctx.atm_rn)

    def angle(lnk):
        x = (np.asarray(lnk, dtype=float) - ln_atm) / r_scale
        dphi = 2.0 / ((1.0 + x * x) * r_scale)
        d2phi = -4.0 * x / ((1.0 + x * x) ** 2 * r_scale * r_scale)
        return 2.0 * np.arctan(x) - 0.5 * math.pi, dphi, d2phi

    def vol_fn(lnk):
        phi, _, _ = angle(lnk)
        return shape.ray_radius(phi) - r_scale

    def jet_fn(lnk):
        phi, dphi, d2phi = angle(lnk)
        # rho here is the same expression shape.ray_radius evaluates.
        rho, drho, d2rho = shape.ray_jet(phi)
        return rho - r_scale, drho * dphi, d2rho * dphi * dphi + drho * d2phi

    require_positive_vol(vol_fn, k_lo, k_hi, "inverted shape")
    return SmileCurve(
        market=ctx.market,
        k_lo=k_lo,
        k_hi=k_hi,
        vol_fn=vol_fn,
        jet_fn=jet_fn,
        label=f"{type(shape).__name__.lower()}-smile",
    )
