"""Tests for the three-quote vanna-volga interpolation."""
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smilegeo.bsm import DeltaConvention, MarketState
from smilegeo.smile import DeltaAnchor
from smilegeo.surface import complete_expiry, parse_surface
from smilegeo.vanna_volga import ThreeQuoteSmile, _FirstOrder, _LnKWeights, vv_smile

MS = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=1.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def quotes(k1=85.0, k2=101.0, k3=118.0, s1=0.24, s2=0.20, s3=0.22, ms=MS):
    anchors = (
        DeltaAnchor(target=0.25, strike=k1, vol=s1),
        DeltaAnchor(target=0.5, strike=k2, vol=s2),
        DeltaAnchor(target=0.75, strike=k3, vol=s3),
    )
    return ThreeQuoteSmile(anchors=anchors, market=ms)


def smile_vol(q, strike, variant="first"):
    """``vv_smile(...).vol`` on a domain through the anchors and the strike(s)."""
    ks = np.asarray(strike, dtype=float)
    k1, _, k3 = q.strikes
    return vv_smile(q, min(k1, ks.min()), max(k3, ks.max()), variant).vol(strike)


def backend_vol(q, strike, variant):
    """The backend's vol at strikes the positivity decision of ``vv_smile`` may reject.

    The smile's domain hugs the middle anchor, where the vol is its quote.
    """
    k2 = q.strikes[1]
    backend = vv_smile(q, k2, k2 * (1.0 + 1e-9), variant).vol_fn.__self__
    return backend.vol(np.log(strike))


class TestFirstOrder:
    def test_flat_degeneracy(self):
        q = quotes(s1=0.2, s2=0.2, s3=0.2)
        ks = np.linspace(40.0, 260.0, 101)
        assert np.max(np.abs(np.asarray(smile_vol(q, ks)) - 0.2)) <= 1e-14

    def test_anchor_reproduction(self):
        q = quotes()
        for k, s in zip(q.strikes, q.vols):
            assert smile_vol(q, k) == pytest.approx(s, abs=1e-15)

    @given(
        k1=st.floats(50.0, 90.0),
        gap2=st.floats(5.0, 30.0),
        gap3=st.floats(5.0, 40.0),
        s1=st.floats(0.05, 0.9),
        s2=st.floats(0.05, 0.9),
        s3=st.floats(0.05, 0.9),
    )
    @settings(max_examples=300, deadline=None)
    def test_anchor_reproduction_random(self, k1, gap2, gap3, s1, s2, s3):
        q = quotes(k1=k1, k2=k1 + gap2, k3=k1 + gap2 + gap3, s1=s1, s2=s2, s3=s3)
        for k, s in zip(q.strikes, q.vols):
            assert abs(backend_vol(q, k, "first") - s) <= 1e-12

    def test_anchor_reproduction_thousand_triples(self):
        rng = np.random.default_rng(1000)
        for _ in range(1000):
            k1 = rng.uniform(50.0, 120.0)
            k2 = k1 + rng.uniform(2.0, 40.0)
            k3 = k2 + rng.uniform(2.0, 50.0)
            s1, s2, s3 = rng.uniform(0.03, 1.2, 3)
            q = quotes(k1=k1, k2=k2, k3=k3, s1=s1, s2=s2, s3=s3)
            for k, s in zip(q.strikes, q.vols):
                assert abs(backend_vol(q, k, "first") - s) <= 1e-12

    @given(k=st.floats(10.0, 600.0))
    @settings(max_examples=300, deadline=None)
    def test_weights_sum_to_one(self, k):
        w1, w2, w3 = _LnKWeights(np.log(quotes().strikes))(math.log(k))
        assert abs(w1 + w2 + w3 - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
    def test_weights_are_unit_at_shipped_anchors(self, name):
        # The weights and a smile's read take ln K from the same log.
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            for conv in DeltaConvention:
                anchors = complete_expiry(row, "vanna-volga", conv, vv_variant="first").anchors
                q = ThreeQuoteSmile(anchors=anchors, market=row.market())
                weights = _FirstOrder(q).w
                for i, k in enumerate(q.strikes):
                    assert weights(np.log(k)) == tuple(float(j == i) for j in range(3))

    def test_smooth_between_anchors(self):
        q = quotes()
        ks = np.linspace(60.0, 160.0, 2001)
        vols = np.asarray(smile_vol(q, ks))
        assert np.all(np.isfinite(vols))
        assert np.max(np.abs(np.diff(vols, 2))) < 1e-5  # quadratic: constant curvature


class TestMarketVariant:
    def test_flat_degeneracy(self):
        q = quotes(s1=0.2, s2=0.2, s3=0.2)
        ks = np.linspace(50.0, 220.0, 101)
        assert np.max(np.abs(np.asarray(smile_vol(q, ks, "market")) - 0.2)) <= 1e-12

    def test_anchor_reproduction(self):
        q = quotes()
        for k, s in zip(q.strikes, q.vols):
            assert smile_vol(q, k, "market") == pytest.approx(s, abs=1e-12)

    @given(
        k1=st.floats(60.0, 90.0),
        gap2=st.floats(8.0, 25.0),
        gap3=st.floats(8.0, 30.0),
        ds1=st.floats(-0.05, 0.08),
        s2=st.floats(0.08, 0.5),
        ds3=st.floats(-0.05, 0.08),
    )
    @settings(max_examples=300, deadline=None)
    def test_anchor_reproduction_random(self, k1, gap2, gap3, ds1, s2, ds3):
        from hypothesis import assume

        from smilegeo.bsm import d1_d2

        q = quotes(
            k1=k1, k2=k1 + gap2, k3=k1 + gap2 + gap3,
            s1=max(s2 + ds1, 0.01), s2=s2, s3=max(s2 + ds3, 0.01),
        )
        # The market formula's square root picks the anchor-exact branch only
        # while sigma2 + d1 d2 (sigma_i - sigma2) stays positive (its stated
        # validity region; market-size vol gaps always satisfy it).
        for k, s in zip(q.strikes, q.vols):
            d1, d2 = d1_d2(MS, k, s2)
            assume(s2 + d1 * d2 * (s - s2) > 1e-3)
        for k, s in zip(q.strikes, q.vols):
            assert abs(backend_vol(q, k, "market") - s) <= 1e-12

    def test_wings_bend_away_from_quadratic(self):
        q = quotes()
        far = np.array([45.0, 250.0])
        assert np.max(np.abs(backend_vol(q, far, "market") - backend_vol(q, far, "first"))) > 1e-3

    def test_smooth_across_d1d2_zero(self):
        # d1 d2 changes sign near the money; the quotient has a removable
        # singularity there and its evaluation must pass it smoothly.
        q = quotes()
        ks = np.linspace(90.0, 115.0, 4001)
        vols = np.asarray(smile_vol(q, ks, "market"))
        assert np.all(np.isfinite(vols))
        assert np.max(np.abs(np.diff(vols))) < 1e-3


class TestSmileWrapper:
    @pytest.mark.parametrize("variant", ["first", "market"])
    def test_derivatives_match_finite_differences(self, variant):
        q = quotes()
        smile = vv_smile(q, k_lo=55.0, k_hi=200.0, variant=variant)
        lnk = np.log(np.linspace(60.0, 190.0, 41))
        fd1 = (smile.vol_fn(lnk + 1e-6) - smile.vol_fn(lnk - 1e-6)) / 2e-6
        h = 1e-4  # second difference: balance roundoff against truncation
        fd2 = (smile.vol_fn(lnk + h) - 2 * smile.vol_fn(lnk) + smile.vol_fn(lnk - h)) / h**2
        _, dvol, d2vol = smile.jet_fn(lnk)
        assert np.max(np.abs(dvol - fd1)) <= 1e-7
        assert np.max(np.abs(d2vol - fd2)) <= 1e-5

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            vv_smile(quotes(), 85.0, 118.0, variant="exotic")

    def test_strikes_must_increase(self):
        anchors = (
            DeltaAnchor(target=0.25, strike=100.0, vol=0.2),
            DeltaAnchor(target=0.5, strike=90.0, vol=0.2),
            DeltaAnchor(target=0.75, strike=120.0, vol=0.2),
        )
        with pytest.raises(ValueError):
            ThreeQuoteSmile(anchors=anchors, market=MS)

    @pytest.mark.parametrize("vol", [0.0, -0.2, math.nan, math.inf])
    def test_anchor_vols_must_be_finite_and_positive(self, vol):
        with pytest.raises(ValueError, match="finite and positive"):
            quotes(s2=vol)
