"""Fit circles and ellipses to smiles through delta anchors.

``fit_shape`` is the one path from anchors to a shape: it maps the anchors
to their polar points and puts the circle through three of them or the conic
through five.  On a smile, the circle's anchors are the 25-delta put side,
the centre strike and the 25-delta call side (N(-d1) targets 0.25 / 0.5 /
0.75); a surface row's ellipse goes through its 10P / 25P / ATM / 25C / 10C
quotes.  The middle anchor is always the context's centre strike;
``anchors_at_strikes`` builds the anchors once the wing strikes are solved.
"""
from __future__ import annotations

import numpy as np

from .georep import ReprContext, context_for_smile, represent_anchors
from .shapes import CircleShape, ConicShape, circumcircle, conic_through_5
from .smile import DeltaAnchor, SmileCurve, strikes_for_deltas

CIRCLE_TARGETS = (0.25, 0.75)


def fit_shape(anchors, ctx: ReprContext) -> tuple[CircleShape | ConicShape, np.ndarray]:
    """The circle (3 anchors) or conic (5 anchors) through the anchors' polar points.

    Returns the shape and the points, rows of (x, y).
    """
    pts = represent_anchors(anchors, ctx)
    shape = circumcircle(*pts) if len(pts) == 3 else conic_through_5(pts)
    return shape, pts


def anchors_at_strikes(
    smile: SmileCurve, ctx: ReprContext, wing_targets, wing_strikes
) -> list[DeltaAnchor]:
    """Wing anchors at strikes already solved for ``wing_targets``, plus the
    centre-strike anchor, by strike.

    Each anchor's vol is a scalar read of the smile at its strike.
    """
    anchors = [
        DeltaAnchor(target=t, strike=k, vol=float(smile.vol(k)))
        for t, k in zip(wing_targets, map(float, wing_strikes))
    ]
    anchors.append(DeltaAnchor(target=0.5, strike=ctx.atm_rn, vol=float(smile.vol(ctx.atm_rn))))
    anchors.sort(key=lambda a: a.strike)
    return anchors


def fit_circle_to_smile(smile: SmileCurve) -> CircleShape:
    """Circle through the N(-d1) 0.25 / centre / 0.75 anchors, represented in
    ``context_for_smile(smile)``."""
    ctx = context_for_smile(smile)
    wing_strikes = strikes_for_deltas(smile, CIRCLE_TARGETS)
    return fit_shape(anchors_at_strikes(smile, ctx, CIRCLE_TARGETS, wing_strikes), ctx)[0]
