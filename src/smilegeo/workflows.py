"""End-to-end pipelines tying the pieces together.

``distribution_report`` runs the full study for one analytic distribution:
smile, polar representation, circle fit, inverted smile, reconstructed
densities (circle and vanna-volga), the best log-normal fit, and the KL
divergences on the ``smile.ND1_WINDOW`` N(-d1) window, the window whose
strikes also set auto R and which the report's smile covers; one
``kl_divergence`` call forms ``p_true``'s side once for all three.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import BEST_LOGNORMAL_MIN_MASS, DivergenceReport, best_lognormal, kl_divergence
from .bsm import MarketState
from .distributions import DensityCurve, Distribution, density_curve
from .errors import DegenerateMass, InconsistentForward
from .fitting import circle_frame
from .georep import RepresentationCurve, ReprContext, represent, smile_from_shape
from .shapes import CircleShape
from .smile import (
    SmileCurve,
    density_from_smile,
    density_with_margin,
    log_uniform_grid,
    smile_from_distribution,
)
from .vanna_volga import ThreeQuoteSmile, vv_smile

WINDOW_GRID_POINTS = 4001
TINY = float(np.finfo(float).tiny)  # smallest normal double


def market_state_for(
    dist: Distribution, dom_rate: float = 0.0, for_rate: float = 0.0
) -> MarketState:
    """The one-year market state whose forward equals the distribution mean.

    Raises InconsistentForward when the mean is not a positive finite
    number: no market forward can equal it.
    """
    mean = dist.mean()
    if not (mean > 0.0 and math.isfinite(mean)):
        raise InconsistentForward(
            f"distribution mean {float(mean)!r} is not a positive finite forward"
        )
    spot = mean * math.exp(-(dom_rate - for_rate))
    return MarketState(spot=spot, dom_rate=dom_rate, for_rate=for_rate, tenor=1.0)


def smile_with_coverage(dist: Distribution, ms: MarketState) -> SmileCurve:
    """``smile_from_distribution(dist, ms)``, which picks its own covering grid.

    Kept only because the benchmark's tracing wraps this name; it goes when
    that tracing reads its layers from the library instead.
    """
    return smile_from_distribution(dist, ms)


@dataclass(frozen=True)
class DistributionReport:
    """All artifacts of the circle-versus-baselines study for one distribution."""

    dist: Distribution
    market: MarketState
    smile: SmileCurve
    ctx: ReprContext
    curve: RepresentationCurve
    circle: CircleShape
    anchors: tuple
    circle_smile: SmileCurve
    vanna_volga_smile: SmileCurve
    window: tuple[float, float]
    window_grid: np.ndarray
    p_true: DensityCurve
    p_circle: DensityCurve
    p_vanna_volga: DensityCurve
    best_lognormal_fit: Distribution
    p_best_lognormal: DensityCurve
    kl_circle: DivergenceReport
    kl_vanna_volga: DivergenceReport
    kl_best_lognormal: DivergenceReport
    margin: float


def distribution_report(dist: Distribution) -> DistributionReport:
    """Run the full circle-versus-baselines study for one distribution.

    The market is ``market_state_for(dist)``, R is automatic, the anchors
    are plain N(-d1) targets and the baseline is market vanna-volga.  The
    context, the circle, its anchors and the KL window (the R window) are
    ``fitting.circle_frame``'s, from one delta solve.
    """
    ms = market_state_for(dist)
    # The best-lognormal fit grid spans the restricted 1e-5 to 1 - 1e-5 quantiles,
    # floored at the smallest normal double.  No grid of doubles carries the mass
    # below it: more than best_lognormal may miss fails before any smile is built.
    q_lo = dist.restricted_quantile(1e-5)
    if q_lo < TINY:
        p0 = dist.mass_below_zero()
        below = (dist.cdf(TINY) - p0) / (1.0 - p0)
        if below > 1.0 - BEST_LOGNORMAL_MIN_MASS:
            raise DegenerateMass(
                f"mass {below:.4g} lies below the smallest normal double {TINY:.4g}, "
                f"more than the {1.0 - BEST_LOGNORMAL_MIN_MASS:.2g} a log-normal fit may miss"
            )
        q_lo = TINY
    q_hi = dist.restricted_quantile(1.0 - 1e-5)
    fit_grid = np.exp(np.linspace(math.log(q_lo), math.log(q_hi), 8001))
    smile = smile_with_coverage(dist, ms)
    ctx, (k_lo, k_hi), anchors, circle = circle_frame(smile)
    curve = represent(smile, ctx)

    # Clipped to the window, and so to the smiles' domain.
    window_grid = log_uniform_grid(k_lo, k_hi, WINDOW_GRID_POINTS)

    circle_smile = smile_from_shape(circle, ctx, k_lo=k_lo, k_hi=k_hi)
    vv = vv_smile(ThreeQuoteSmile(anchors=anchors, market=ms), k_lo=k_lo, k_hi=k_hi)

    p_true = density_curve(dist, window_grid)
    # The circle's density and its non-negativity margin share one bracket.
    p_circle, margin = density_with_margin(circle_smile, window_grid)
    p_vv = density_from_smile(vv, window_grid)

    # Fit the log-normal on the wide quantile grid of the analysed density,
    # then judge it on the same window as the other candidates.
    best_ln = best_lognormal(density_curve(dist, fit_grid))
    p_ln = density_curve(best_ln, window_grid)
    kl_circle, kl_vv, kl_ln = kl_divergence(p_true, (p_circle, p_vv, p_ln))

    return DistributionReport(
        dist=dist,
        market=ms,
        smile=smile,
        ctx=ctx,
        curve=curve,
        circle=circle,
        anchors=anchors,
        circle_smile=circle_smile,
        vanna_volga_smile=vv,
        window=(k_lo, k_hi),
        window_grid=window_grid,
        p_true=p_true,
        p_circle=p_circle,
        p_vanna_volga=p_vv,
        best_lognormal_fit=best_ln,
        p_best_lognormal=p_ln,
        kl_circle=kl_circle,
        kl_vanna_volga=kl_vv,
        kl_best_lognormal=kl_ln,
        margin=margin,
    )
