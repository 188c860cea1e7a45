"""Tests for anchor-based circle and ellipse fits to smiles."""
import math

import numpy as np
import pytest

from smilegeo.bsm import DeltaConvention, MarketState, d1_d2
from smilegeo.distributions import Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.fitting import CIRCLE_TARGETS, circle_frame, fit_circle_to_smile, fit_shape
from smilegeo.georep import (
    ReprContext,
    context_for_smile,
    represent,
    represent_anchors,
    smile_from_shape,
)
from smilegeo.smile import (
    ND1_WINDOW,
    DeltaAnchor,
    flat_smile,
    smile_from_distribution,
    strike_for_delta,
    strikes_for_deltas,
)
from smilegeo.workflows import market_state_for

MS = MarketState(spot=100.0, dom_rate=0.0, for_rate=0.0, tenor=1.0)
GAMMA = Gamma(kappa=5.12, theta=0.64)
# The ellipse's wing targets on a smile: N(-d1) 0.10, 0.25, 0.75, 0.90, with
# the centre strike as the fifth anchor.
ELLIPSE_TARGETS = (0.10, 0.25, 0.75, 0.90)


def smile_anchors(smile, ctx, wing_targets, conv=DeltaConvention.FORWARD_N):
    """The anchors a fit to ``smile`` goes through, by strike: the wings solved
    under ``conv`` (under spot-pips a target t is the N(-d1) level t / e^{-qT})
    and the context's centre strike, each with the smile's vol there."""
    df = smile.market.df_for() if conv is DeltaConvention.SPOT_PIPS else 1.0
    wing_strikes = strikes_for_deltas(smile, [t / df for t in wing_targets]).tolist()
    anchors = [
        DeltaAnchor(target=t, strike=k, vol=smile.vol(k))
        for t, k in zip((*wing_targets, 0.5), (*wing_strikes, ctx.atm_rn))
    ]
    return sorted(anchors, key=lambda a: a.strike)


def fit_ellipse_to_smile(smile, ctx):
    """The conic through the represented ``ELLIPSE_TARGETS`` and centre anchors."""
    return fit_shape(smile_anchors(smile, ctx, ELLIPSE_TARGETS), ctx)[0]


class TestCircleFit:
    def test_flat_smile_gives_origin_circle(self):
        smile = flat_smile(MS, 0.2)
        ctx = context_for_smile(smile)
        circle = fit_circle_to_smile(smile)
        assert math.hypot(*circle.center) <= 1e-12
        assert circle.radius == pytest.approx(ctx.radius_scale + 0.2, abs=1e-12)

    def test_gamma_circle_interpolates_anchors(self):
        smile = smile_from_distribution(GAMMA, market_state_for(GAMMA))
        ctx = context_for_smile(smile)
        circle = fit_circle_to_smile(smile)
        pts = represent_anchors(smile_anchors(smile, ctx, CIRCLE_TARGETS), ctx)
        assert np.max(circle.residuals(pts)) <= 1e-10 * circle.radius

    def test_gamma_circle_is_translated_from_origin(self):
        smile = smile_from_distribution(GAMMA, market_state_for(GAMMA))
        circle = fit_circle_to_smile(smile)
        assert math.hypot(*circle.center) > 1e-3
        assert circle.contains_origin

    def test_middle_anchor_is_context_center(self):
        smile = smile_from_distribution(GAMMA, market_state_for(GAMMA))
        ctx = context_for_smile(smile)
        anchors = smile_anchors(smile, ctx, CIRCLE_TARGETS)
        assert any(a.strike == ctx.atm_rn for a in anchors)
        assert [a.strike for a in anchors] == sorted(a.strike for a in anchors)

    def test_inverted_circle_smile_hits_anchor_vols(self):
        smile = smile_from_distribution(GAMMA, market_state_for(GAMMA))
        ctx = context_for_smile(smile)
        circle = fit_circle_to_smile(smile)
        anchors = smile_anchors(smile, ctx, CIRCLE_TARGETS)
        inv = smile_from_shape(
            circle, ctx, k_lo=anchors[0].strike * 0.8, k_hi=anchors[-1].strike * 1.2
        )
        for a in anchors:
            assert float(inv.vol(a.strike)) == pytest.approx(a.vol, abs=1e-12)

    def test_spot_pips_moves_wing_anchors(self):
        ms = MarketState(spot=100.0, dom_rate=0.0, for_rate=0.03, tenor=1.0)
        dist = Gamma(kappa=5.12, theta=ms.forward() / 5.12)
        smile = smile_from_distribution(dist, ms)
        ctx = context_for_smile(smile)
        fw = smile_anchors(smile, ctx, CIRCLE_TARGETS, DeltaConvention.FORWARD_N)
        sp = smile_anchors(smile, ctx, CIRCLE_TARGETS, DeltaConvention.SPOT_PIPS)
        assert fw[0].strike != sp[0].strike  # q != 0 separates the conventions
        assert fw[1].strike == sp[1].strike  # the centre anchor never moves


class TestCircleFrame:
    @pytest.mark.parametrize(
        "dist",
        [
            GAMMA,
            Uniform(a=2.0109, b=5.4750),
            StudentT(mu=3.7322, nu=3.9565),
            StudentT(mu=3.7201, nu=7.3824),
            Normal(mu=11.3328, s=3.0),
            LogNormal(mu=1.0, s=0.25),
        ],
        ids=repr,
    )
    def test_one_solve_gives_what_the_public_paths_give(self, dist):
        # circle_frame solves every level at once; context_for_smile and the
        # wing and window solves each solve their own levels.
        smile = smile_from_distribution(dist, market_state_for(dist))
        ctx, window, anchors, circle = circle_frame(smile)
        ctx_alone = context_for_smile(smile)
        anchors_alone = smile_anchors(smile, ctx_alone, CIRCLE_TARGETS)
        assert ctx == ctx_alone
        assert window == tuple(strike_for_delta(smile, t).strike for t in ND1_WINDOW)
        assert anchors == tuple(anchors_alone)
        assert circle == fit_shape(anchors_alone, ctx_alone)[0]


class TestEllipseFit:
    def test_flat_smile_gives_circle_coefficients(self):
        smile = flat_smile(MS, 0.2)
        ctx = context_for_smile(smile)
        conic = fit_ellipse_to_smile(smile, ctx)
        a, b, c, d, e, _ = conic.coefficients
        assert b == pytest.approx(0.0, abs=1e-9)
        assert a == pytest.approx(c, abs=1e-9)
        assert d == pytest.approx(0.0, abs=1e-9)
        assert e == pytest.approx(0.0, abs=1e-9)

    def test_gamma_ellipse_interpolates_five_anchors(self):
        smile = smile_from_distribution(GAMMA, market_state_for(GAMMA))
        ctx = context_for_smile(smile)
        conic = fit_ellipse_to_smile(smile, ctx)
        pts = represent_anchors(smile_anchors(smile, ctx, ELLIPSE_TARGETS), ctx)
        assert np.max(conic.residuals(pts)) <= 1e-9

    def test_ellipse_inverts_through_anchors(self):
        smile = smile_from_distribution(GAMMA, market_state_for(GAMMA))
        ctx = context_for_smile(smile)
        conic = fit_ellipse_to_smile(smile, ctx)
        anchors = smile_anchors(smile, ctx, ELLIPSE_TARGETS)
        inv = smile_from_shape(
            conic, ctx, k_lo=anchors[0].strike * 0.9, k_hi=anchors[-1].strike * 1.1
        )
        for a in anchors:
            assert float(inv.vol(a.strike)) == pytest.approx(a.vol, abs=1e-9)


class TestRandomizedMarkets:
    def test_geometry_exact_across_market_states(self):
        # Random rates, tenors, and gamma shapes, alternating delta
        # conventions: anchors reproduce through the inversion, the inverted
        # smile re-represents onto the fitted circle, and the centre strike
        # is delta-neutral.
        import smilegeo as sg
        from smilegeo.fitting import CIRCLE_TARGETS
        from smilegeo.shapes import circumcircle

        rng = np.random.default_rng(321)
        for trial in range(20):
            r, q = rng.uniform(-0.02, 0.08, 2)
            tenor = rng.uniform(0.1, 5.0)
            kappa = rng.uniform(4.0, 40.0)
            mean = rng.uniform(0.5, 200.0)
            dist = Gamma(kappa=kappa, theta=mean / kappa)
            # The forward at the mean: spot = mean e^{-(r - q) T}.
            ms = MarketState(
                spot=dist.mean() * math.exp(-(r - q) * tenor), dom_rate=r, for_rate=q, tenor=tenor
            )
            conv = (
                DeltaConvention.SPOT_PIPS if trial % 2 else DeltaConvention.FORWARD_N
            )
            smile = smile_from_distribution(dist, ms)
            ctx = context_for_smile(smile)
            assert abs(d1_d2(ms, ctx.atm_rn, smile.vol(ctx.atm_rn))[0]) <= 1e-10
            anchors = smile_anchors(smile, ctx, CIRCLE_TARGETS, conv)
            pts = represent_anchors(anchors, ctx)
            circle = circumcircle(pts[0], pts[1], pts[2])
            inv = smile_from_shape(
                circle, ctx, k_lo=anchors[0].strike * 0.9, k_hi=anchors[-1].strike * 1.1
            )
            for a in anchors:
                assert abs(float(inv.vol(a.strike)) - a.vol) <= 1e-12
            grid = np.exp(
                np.linspace(
                    math.log(anchors[0].strike), math.log(anchors[-1].strike), 201
                )
            )
            curve = represent(inv, ctx, grid)
            dist_to_center = np.hypot(
                curve.points[:, 0] - circle.center[0],
                curve.points[:, 1] - circle.center[1],
            )
            assert np.max(np.abs(dist_to_center - circle.radius)) <= 1e-10
