"""Fit circles and ellipses to smiles through delta anchors.

``fit_shape`` is the one path from anchors to a shape: it maps the anchors
to their polar points and puts the circle through three of them or the conic
through five.  On a smile, the circle's anchors are the 25-delta put side,
the centre strike and the 25-delta call side (N(-d1) targets 0.25 / 0.5 /
0.75); a surface row's ellipse goes through its 10P / 25P / ATM / 25C / 10C
quotes.  ``circle_frame`` is the one path from a smile to its circle: the one
``strikes_for_deltas`` solve behind ``context_for_smile``'s auto R also
gives the wing anchors' strikes.
"""
from __future__ import annotations

import numpy as np

from .georep import ReprContext, _auto_frame, represent_anchors
from .shapes import CircleShape, ConicShape, circumcircle, conic_through_5
from .smile import DeltaAnchor, SmileCurve

CIRCLE_TARGETS = (0.25, 0.75)


def fit_shape(anchors, ctx: ReprContext) -> tuple[CircleShape | ConicShape, np.ndarray]:
    """The circle (3 anchors) or conic (5 anchors) through the anchors' polar points.

    Returns the shape and the points, rows of (x, y).
    """
    pts = represent_anchors(anchors, ctx)
    shape = circumcircle(*pts) if len(pts) == 3 else conic_through_5(pts)
    return shape, pts


def circle_frame(smile: SmileCurve):
    """(ctx, (k_lo, k_hi), anchors, circle) of a smile, from one delta solve.

    ctx is ``context_for_smile(smile)``: the centre strike with auto R from
    the ``ND1_WINDOW`` strikes (k_lo, k_hi).  The anchors, a tuple by strike,
    are the centre and the ``CIRCLE_TARGETS`` wings, each with a scalar read
    of the smile's vol; the circle goes through them.
    """
    ctx, window, wings = _auto_frame(smile, CIRCLE_TARGETS)
    by_strike = sorted(zip((ctx.atm_rn, *wings), (0.5, *CIRCLE_TARGETS)))
    anchors = tuple(DeltaAnchor(target=t, strike=k, vol=smile.vol(k)) for k, t in by_strike)
    return ctx, window, anchors, fit_shape(anchors, ctx)[0]


def fit_circle_to_smile(smile: SmileCurve) -> CircleShape:
    """Circle through the N(-d1) 0.25 / centre / 0.75 anchors, represented in
    ``context_for_smile(smile)``."""
    return circle_frame(smile)[3]
