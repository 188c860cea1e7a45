"""End-to-end pipelines tying the pieces together.

``distribution_report`` runs the full study for one analytic distribution:
smile, polar representation, circle fit, inverted smile, reconstructed
densities (circle and vanna-volga), the best log-normal fit, and the KL
divergences on the ``KL_WINDOW`` N(-d1) window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import BEST_LOGNORMAL_MIN_MASS, DivergenceReport, best_lognormal, kl_divergence
from .bsm import DeltaConvention, MarketState, d1_d2, implied_vol_grid, ndtr
from .distributions import DensityCurve, Distribution, density_curve
from .errors import DegenerateMass, InconsistentForward, TargetOutsideDomain
from .fitting import CIRCLE_TARGETS, anchors_at_strikes, fit_shape
from .georep import (
    R_WINDOW,
    RepresentationCurve,
    ReprContext,
    _context,
    represent,
    smile_from_shape,
)
from .shapes import CircleShape
from .smile import (
    GridSpec,
    SmileCurve,
    density_from_smile,
    density_with_margin,
    log_uniform_grid,
    smile_from_distribution,
    strike_grid,
    strikes_for_deltas,
)
from .vanna_volga import ThreeQuoteSmile, vv_smile

MAX_GRID_WIDENINGS = 8
KL_WINDOW = (0.01, 0.99)  # N(-d1) window the report's densities are compared on
WINDOW_GRID_POINTS = 4001
TINY = float(np.finfo(float).tiny)  # smallest normal double


def market_state_for(dist: Distribution, dom_rate: float = 0.0, for_rate: float = 0.0,
                     tenor: float = 1.0) -> MarketState:
    """The market state whose forward equals the distribution mean.

    Raises InconsistentForward when the mean is not a positive finite
    number: no market forward can equal it.
    """
    mean = dist.mean()
    if not (mean > 0.0 and math.isfinite(mean)):
        raise InconsistentForward(
            f"distribution mean {float(mean)!r} is not a positive finite forward"
        )
    spot = mean * math.exp(-(dom_rate - for_rate) * tenor)
    return MarketState(spot=spot, dom_rate=dom_rate, for_rate=for_rate, tenor=tenor)


def _ends_cover(
    dist: Distribution, ms: MarketState, grid: GridSpec, targets: tuple[float, float]
) -> bool:
    """Whether N(-d1) at the grid's end strikes lies below ``targets[0]`` and
    above ``targets[1]``.

    Inverts the two end prices alone: the smile's spline passes through the
    vols at its nodes, so no smile is built to decide a width.
    """
    ends = strike_grid(dist, ms, grid)[[0, -1]]
    vols = implied_vol_grid(ms, ends, dist.call_price(ms, ends))
    nd1_lo, nd1_hi = ndtr(-d1_d2(ms, ends, vols)[0])
    return bool(nd1_lo < targets[0] and nd1_hi > targets[1])


def smile_with_coverage(
    dist: Distribution, ms: MarketState, targets: tuple[float, float] = KL_WINDOW
) -> SmileCurve:
    """Distribution smile on a grid wide enough to bracket the delta targets.

    The default grid recipe hugs a flat-vol proxy; heavy-tailed smiles push
    their delta window past it, so the proxy window is widened by 1.6 until
    N(-d1) at the grid's two end strikes brackets ``targets`` (support
    bounds permitting).  Each width is decided from its end strikes alone,
    and the smile is built once, on the width that passes.
    """
    grid = GridSpec()
    for _ in range(MAX_GRID_WIDENINGS):
        if _ends_cover(dist, ms, grid, targets):
            return smile_from_distribution(dist, ms, grid)
        grid = replace(grid, width_mult=grid.width_mult * 1.6)
    raise TargetOutsideDomain(
        f"could not widen the grid to cover the N(-d1) window {targets}"
    )


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
    are plain N(-d1) targets and the baseline is market vanna-volga.  Every
    delta strike the report needs (the context's centre and R window, the
    circle's wing anchors and the KL window) comes from one
    ``strikes_for_deltas`` solve.
    """
    ms = market_state_for(dist)
    # The best-lognormal fit grid spans the restricted 1e-5 to 1 - 1e-5 quantiles,
    # floored at the smallest normal double.  No grid of doubles carries the mass
    # below it: more than best_lognormal may miss fails before any smile is built.
    q_lo = dist.restricted_quantile(1e-5)
    if q_lo < TINY:
        p0 = dist.mass_below_zero()
        below = (float(dist.cdf(TINY)) - p0) / (1.0 - p0)
        if below > 1.0 - BEST_LOGNORMAL_MIN_MASS:
            raise DegenerateMass(
                f"mass {below:.4g} lies below the smallest normal double {TINY:.4g}, "
                f"more than the {1.0 - BEST_LOGNORMAL_MIN_MASS:.2g} a log-normal fit may miss"
            )
        q_lo = TINY
    q_hi = dist.restricted_quantile(1.0 - 1e-5)
    fit_grid = np.exp(np.linspace(math.log(q_lo), math.log(q_hi), 8001))
    smile = smile_with_coverage(dist, ms)
    plain = tuple(dict.fromkeys((0.5, *R_WINDOW, *KL_WINDOW)))
    solved = strikes_for_deltas(smile, plain + CIRCLE_TARGETS).tolist()
    strike = dict(zip(plain, solved))
    ctx = _context(ms, strike[0.5], None, strike.__getitem__)
    curve = represent(smile, ctx)
    anchors = anchors_at_strikes(
        smile, ctx, CIRCLE_TARGETS, solved[len(plain):], DeltaConvention.FORWARD_N
    )
    circle, _ = fit_shape(anchors, ctx)

    k_lo, k_hi = strike[KL_WINDOW[0]], strike[KL_WINDOW[1]]
    # Clipped to the window, and so to the smiles' domain.
    window_grid = log_uniform_grid(k_lo, k_hi, WINDOW_GRID_POINTS)

    circle_smile = smile_from_shape(circle, ctx, k_lo=k_lo, k_hi=k_hi)
    vv = vv_smile(ThreeQuoteSmile(anchors=tuple(anchors), market=ms), k_lo=k_lo, k_hi=k_hi)

    p_true = density_curve(dist, window_grid, rescale=True)
    # The circle's density and its non-negativity margin share one bracket.
    p_circle, margin = density_with_margin(circle_smile, window_grid)
    p_vv = density_from_smile(vv, window_grid)

    # Fit the log-normal on the wide quantile grid of the analysed density,
    # then judge it on the same window as the other candidates.
    best_ln = best_lognormal(density_curve(dist, fit_grid, rescale=True))
    p_ln = density_curve(best_ln, window_grid, rescale=False)

    return DistributionReport(
        dist=dist,
        market=ms,
        smile=smile,
        ctx=ctx,
        curve=curve,
        circle=circle,
        anchors=tuple(anchors),
        circle_smile=circle_smile,
        vanna_volga_smile=vv,
        window=(k_lo, k_hi),
        window_grid=window_grid,
        p_true=p_true,
        p_circle=p_circle,
        p_vanna_volga=p_vv,
        best_lognormal_fit=best_ln,
        p_best_lognormal=p_ln,
        kl_circle=kl_divergence(p_true, p_circle),
        kl_vanna_volga=kl_divergence(p_true, p_vv),
        kl_best_lognormal=kl_divergence(p_true, p_ln),
        margin=margin,
    )
