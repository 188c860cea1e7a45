"""Polar-plane representation of smiles and its inversion.

A strike maps to an angle through a stereographic slice of the unit circle:
X(K) = (ln K - ln K_atm) / R lands on the circle at (2X/(1+X^2), (X^2-1)/(1+X^2)),
whose polar angle phi = 2 arctan(X) - pi/2 (``continuous_angle``, the
principal angle modulo 2 pi) runs monotonically from -pi/2 at X = 0.  The
radial coordinate is R + sigma(K), so a flat smile draws an origin-centred
circle of radius R + sigma.  Inverting a fitted shape intersects each
strike's ray with the shape and reads sigma back off the radial excess over
R.  The ray geometry itself (origin check, intersection, derivatives)
belongs to the shape classes in ``shapes``.

X is formed in one place, ``_x``, from numpy logs, so an anchor's plane
point and a shape smile's read at its strike see the same X to the last
bit, and auto R reads its window by it.  Two direction rules follow X, kept
apart because anchors fitted through stereographic points come back exact
less often: ``polar_map`` gives phi and the points rho (cos phi, sin phi)
that ``represent``, the anchors and the CLI's table report; shape smiles
and curvatures take (cos phi, sin phi) as X's stereographic point itself,
with no arctan, cos or sin (``angle_jet``, with phi's chain rule in ln K), all
finite for R >= ``RADIUS_FLOOR``.  A curve's default grid is the smile's own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsm import MarketState, as_scalar, atm_rn_lognormal, strike_for_target_nd1
from .errors import InvalidInput, NonpositiveVol
from .smile import ND1_WINDOW, SmileCurve, lowest_clearance, strikes_for_deltas

R_UNIT_FRACTION = 0.95  # |X| the farther window strike maps to under auto R
# |ln K - ln K_atm| < 1455 for finite K > 0: |X| < 1.5e63, (1 + X^2)^2 < 5e252, phi' <= 2e60.
RADIUS_FLOOR = 1e-60


@dataclass(frozen=True)
class ReprContext:
    """Resolved representation context: market, centre strike, and R.

    The one check on a resolved frame: finite ``atm_rn`` > 0, ``radius_scale`` >= ``RADIUS_FLOOR``.
    """

    market: MarketState
    atm_rn: float
    radius_scale: float

    def __post_init__(self):
        if not (0.0 < self.atm_rn < math.inf and RADIUS_FLOOR <= self.radius_scale < math.inf):
            raise InvalidInput(f"need finite atm_rn > 0 and finite radius_scale >= {RADIUS_FLOOR:g}")


@dataclass(frozen=True)
class RepresentationCurve:
    """Sampled polar curve {rho cos(phi), rho sin(phi)} of ``smile``, whose jet
    gives the curve's exact derivatives (``analysis`` reads its curvatures there)."""

    strikes: np.ndarray
    angles: np.ndarray
    radii: np.ndarray
    points: np.ndarray
    context: ReprContext
    smile: SmileCurve

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


def _x(lnk, atm_rn: float, radius_scale: float):
    """X = (ln K - ln atm_rn) / R of log strikes: the one polar abscissa."""
    return (lnk - np.log(atm_rn)) / radius_scale


def _unit_point(x):
    """X's stereographic point (2X, X^2 - 1) / (1 + X^2), (cos phi, sin phi) to
    2^-51 relative, and 1 + X^2, of a float, numpy scalar or array."""
    den = 1.0 + x * x
    return 2.0 * x / den, (x - 1.0) * (x + 1.0) / den, den


def continuous_angle(x_coord):
    """Monotone angle branch along the projected line: 2 arctan(X) - pi/2.

    Equals the principal angle ``np.arctan2(z, x)`` of X's stereographic
    point modulo 2 pi, starts at -pi/2 for X = 0, and avoids the arctan2
    branch cut that the image crosses at X = -1.
    """
    return as_scalar(2.0 * np.arctan(np.asarray(x_coord, dtype=float)) - 0.5 * math.pi)


def angle_jet(lnk, ctx: ReprContext):
    """(cos phi, sin phi, dphi/d lnK, d^2phi/d lnK^2) of log strikes.

    The direction is X's stereographic point; the derivatives, the chain rule.
    """
    x = _x(lnk, ctx.atm_rn, ctx.radius_scale)
    cos, sin, den = _unit_point(x)
    r_scale = ctx.radius_scale
    return cos, sin, 2.0 / (den * r_scale), -4.0 * x / (den**2 * r_scale * r_scale)


def auto_context(ms: MarketState, atm_rn: float, window) -> ReprContext:
    """ReprContext at the centre strike with auto R.

    ``window`` holds the ``smile.ND1_WINDOW`` strikes; R places the farther
    one, by log-distance, at |X| = ``R_UNIT_FRACTION``.
    """
    # Under R = 1, X is the log-distance; a 0 or inf strike gives an R ReprContext rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        half_width = float(np.max(np.abs(_x(np.log(window), atm_rn, 1.0))))
    return ReprContext(market=ms, atm_rn=atm_rn, radius_scale=half_width / R_UNIT_FRACTION)


def context_for_smile(smile: SmileCurve, radius_scale: float | None = None) -> ReprContext:
    """Resolve (atm_rn, R) for a smile; ``radius_scale=None`` is auto R.

    The centre strike is the smile's delta-neutral strike; auto R reads the
    window strikes off the smile's own N(-d1), all from one delta solve.
    """
    if radius_scale is not None:
        (atm_rn,) = strikes_for_deltas(smile, (0.5,)).tolist()
        return ReprContext(market=smile.market, atm_rn=atm_rn, radius_scale=radius_scale)
    return _auto_frame(smile)[0]


def _auto_frame(smile: SmileCurve, levels=()):
    """(auto-R ctx, (k_lo, k_hi), strikes of ``levels``), one solve; each level's
    Newton arithmetic is its own, so extra levels move no bit of the ctx."""
    atm_rn, *ks = strikes_for_deltas(smile, (0.5, *ND1_WINDOW, *levels)).tolist()
    return auto_context(smile.market, atm_rn, ks[:2]), tuple(ks[:2]), ks[2:]


def flat_context(ms: MarketState, atm_vol: float) -> ReprContext:
    """Auto-R context from a single at-the-money vol (three-quote market rows).

    Uses the flat-vol proxy: the delta window of a constant-vol smile is
    symmetric about its delta-neutral strike in log-strike.
    """
    window = [strike_for_target_nd1(ms, atm_vol, t) for t in ND1_WINDOW]
    return auto_context(ms, atm_rn_lognormal(ms, atm_vol), window)


def polar_map(strikes, vols, ctx: ReprContext):
    """X, phi = 2 arctan(X) - pi/2, rho = R + sigma and points rho (cos phi, sin phi)."""
    x = _x(np.log(np.asarray(strikes, dtype=float)), ctx.atm_rn, ctx.radius_scale)
    angles = continuous_angle(x)
    radii = ctx.radius_scale + np.asarray(vols, dtype=float)
    return x, angles, radii, np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def represent(
    smile: SmileCurve, ctx: ReprContext | None = None, strikes=None
) -> RepresentationCurve:
    """Map a smile to its polar-plane curve; ``ctx=None`` is ``context_for_smile(smile)``.

    Flat smiles land on an origin-centred circle of radius R + sigma; the
    angle grid is strictly monotone in ln K.
    """
    ctx = ctx or context_for_smile(smile)
    if strikes is None:
        strikes = smile.default_grid()
    strikes = np.asarray(strikes, dtype=float)
    _, angles, radii, points = polar_map(strikes, smile.vol(strikes), ctx)
    return RepresentationCurve(
        strikes=strikes, angles=angles, radii=radii, points=points, context=ctx, smile=smile
    )


def represent_anchors(anchors, ctx: ReprContext) -> np.ndarray:
    """Representation points of delta anchors: rows of (x, y)."""
    return polar_map([a.strike for a in anchors], [a.vol for a in anchors], ctx)[3]


def smile_from_shape(shape, ctx: ReprContext, k_lo: float, k_hi: float) -> SmileCurve:
    """Invert a fitted circle or ellipse back into a smile on [k_lo, k_hi].

    sigma(K) is the radial excess over R of the ray-shape intersection along
    the strike's stereographic point.  The origin must sit strictly inside
    the shape, checked once here, and the domain is ``SmileCurve``'s to check,
    before the shape's ``clearance`` decides that every vol is positive.
    """
    shape.require_origin_inside()
    r_scale = ctx.radius_scale

    def vol_fn(lnk):
        cos, sin, _ = _unit_point(_x(lnk, ctx.atm_rn, ctx.radius_scale))
        return shape.ray_radius(cos, sin) - r_scale

    def jet_fn(lnk):
        cos, sin, dphi, d2phi = angle_jet(lnk, ctx)
        # rho here is the same expression shape.ray_radius evaluates.
        rho, drho, d2rho = shape.ray_jet(cos, sin)
        return rho - r_scale, drho * dphi, d2rho * dphi * dphi + drho * d2phi

    smile = SmileCurve(
        market=ctx.market,
        k_lo=k_lo,
        k_hi=k_hi,
        vol_fn=vol_fn,
        jet_fn=jet_fn,
        label=f"{type(shape).__name__.lower()}-smile",
    )
    ln_atm = math.log(ctx.atm_rn)
    x_lo, x_hi = (math.log(k_lo) - ln_atm) / r_scale, (math.log(k_hi) - ln_atm) / r_scale
    low, x = lowest_clearance(*shape.clearance(r_scale), x_lo, x_hi)
    if not low > 0.0:
        k_bad = math.exp(ln_atm + r_scale * x)
        raise NonpositiveVol(f"inverted shape implies vol <= 0 at strike {k_bad:.6g}")
    return smile
