"""Tests for pricing, d1/d2, and implied-vol inversion.

Derived reference values are computed by independent oracles: a Maclaurin
erf series and 50-digit mpmath for the normal CDF and quantile, Decimal
arithmetic for d1/d2, and direct quadrature of the payoff against the
log-normal density for prices.
"""
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import smilegeo.bsm as bsm_module
from smilegeo.bsm import (
    IV_BRACKET_HI,
    IV_BRACKET_LO,
    MarketState,
    OptionSide,
    atm_rn_lognormal,
    bsm_price,
    d1_d2,
    d1_d2_identity_residual,
    implied_vol_grid,
    ndtr,
    std_normal_pdf,
    strike_for_target_nd1,
)
from smilegeo.distributions import Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.errors import DegenerateTenor, PriceOutOfBand, TargetOutsideDomain
from smilegeo.smile import GridSpec, strike_grid
from smilegeo.workflows import market_state_for

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
FLAT = MarketState(spot=100.0, dom_rate=0.0, for_rate=0.0, tenor=1.0)


def erf_series(x: float) -> float:
    """High-precision Maclaurin erf, independent of scipy."""
    terms = [(-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1)) for n in range(60)]
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


N_ONE = 0.8413447460685429  # 0.5 * (1 + erf(1/sqrt(2))) by the series above


class TestNormalCdf:
    def test_zero_is_half(self):
        assert ndtr(0.0) == 0.5

    def test_tail_limit(self):
        assert abs(ndtr(10.0) - 1.0) <= 1e-15

    def test_against_series_oracle(self):
        assert abs(0.5 * (1.0 + erf_series(1.0 / math.sqrt(2.0))) - N_ONE) < 1e-16
        assert ndtr(1.0) == pytest.approx(N_ONE, abs=1e-15)

    @pytest.mark.parametrize("x", [-8.0, -3.2, -1.0, -0.1, 0.4, 2.7, 6.0])
    def test_symmetry(self, x):
        assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-10, 10, 5001)
        assert np.all(np.diff(ndtr(xs)) >= 0.0)


def ulps(got: float, want) -> int:
    """How many doubles apart got and want rounded to a double are (same sign)."""
    return abs(int(np.float64(got).view(np.int64)) - int(np.float64(float(want)).view(np.int64)))


class TestErfcNdtr:
    # Curvature's N(-d1) is 0.5 erfc(-x / sqrt 2) from math; scipy's ndtr is
    # the Cephes port the package used to carry, bit for bit.  Worst ulp over
    # 2000 seeded x per range against mpmath.ncdf at 50 digits, erfc against
    # scipy: [-3, 3] 13 against 15, [-12, -3] 210 against 221, [-37, -12]
    # 1354 against 1838, [3, 8] 1 against 0.  Both errors come from rounding
    # x / sqrt 2, so on [-3, 3] and [3, 8] either one can be worse by an ulp
    # on a given draw: over seeds 20261015-21, erfc was worse by one ulp on
    # [-3, 3] once and on [3, 8] three times, and never worse on the tails.
    @pytest.mark.parametrize("lo, hi", [(-3.0, 3.0), (-12.0, -3.0), (-37.0, -12.0), (3.0, 8.0)])
    def test_no_worse_than_scipy(self, lo, hi):
        import mpmath
        from scipy.special import ndtr as scipy_ndtr

        x = np.random.default_rng(20261019).uniform(lo, hi, 2000)
        with mpmath.workdps(50):
            want = [mpmath.ncdf(mpmath.mpf(v)) for v in x.tolist()]

        def worst(got):
            return max(ulps(g, w) for g, w in zip(got.tolist(), want))

        assert worst(bsm_module.erfc_ndtr(x)) <= worst(scipy_ndtr(x)) + 1

    def test_non_finite_and_empty(self):
        got = bsm_module.erfc_ndtr(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]))
        assert np.array_equal(got, [np.nan, 1.0, 0.0, 0.5, 0.5], equal_nan=True)
        assert bsm_module.erfc_ndtr(np.array([])).shape == (0,)


def mp_quantile(p: float):
    """The normal quantile of p to about 30 digits: two Newton steps in
    mpmath from ``ndtri``'s double, on the tail side where 1 - p is exact.
    A finite start that is off by more than a few ulp stays visibly off."""
    import mpmath

    with mpmath.workdps(50):
        upper = p > 0.5
        q = 1 - mpmath.mpf(p) if upper else mpmath.mpf(p)
        x = mpmath.mpf(bsm_module.ndtri(float(q)))
        for _ in range(2):
            x -= (mpmath.ncdf(x) - q) / mpmath.npdf(x)
        return -x if upper else x


E2 = math.exp(-2.0)
# The Cephes port's branches: the centre, each tail with z = sqrt(-2 ln y)
# below 8 and from 8 up, and the floats 1 - k 2^-53 near 1.
QUANTILE_RANGES = {
    "centre": lambda rng: rng.uniform(E2, 1.0 - E2, 1000),
    "lower": lambda rng: np.exp(-rng.uniform(2.0, 32.0, 1000)),
    "far-lower": lambda rng: np.exp(-rng.uniform(32.0, 744.0, 1000)),
    "upper": lambda rng: -np.expm1(-rng.uniform(2.0, 32.0, 1000)),
    "near-one": lambda rng: 1.0 - rng.integers(1, 2**17, 1000) * 2.0**-53,
}


# ndtri on an interpreter without the _statistics accelerator, which falls
# back to statistics' pure-Python AS241: hex floats in on stdin, out on stdout.
FALLBACK_QUANTILE_PROBE = """
import sys

sys.modules["_statistics"] = None
import smilegeo.bsm as bsm

assert "statistics" in sys.modules and not hasattr(bsm._normal_dist_inv_cdf, "__self__")
print(" ".join(bsm.ndtri(float.fromhex(y)).hex() for y in sys.stdin.read().split()))
"""


class TestNormalQuantile:
    # ndtri is AS241, statistics.NormalDist().inv_cdf's bits inside (0, 1),
    # from the C accelerator _statistics or, without it, from statistics'
    # pure-Python routine.  Worst ulp over 1000 seeded p per range: centre 5,
    # lower 4, far-lower 5, upper 4, near-one 3.
    @pytest.mark.parametrize("name", QUANTILE_RANGES)
    def test_bits_are_normal_dist_inv_cdf(self, name):
        from statistics import NormalDist

        ys = QUANTILE_RANGES[name](np.random.default_rng(20261018)).tolist()
        assert [bsm_module.ndtri(y).hex() for y in ys] == [NormalDist().inv_cdf(y).hex() for y in ys]

    def test_fallback_without_accelerator_has_the_same_bits(self):
        from statistics import NormalDist

        rng = np.random.default_rng(20261018)
        ys = [y for draw in QUANTILE_RANGES.values() for y in draw(rng).tolist()]
        proc = subprocess.run(
            [sys.executable, "-c", FALLBACK_QUANTILE_PROBE],
            input=" ".join(y.hex() for y in ys).encode(),
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == [NormalDist().inv_cdf(y).hex() for y in ys]

    @pytest.mark.parametrize("name", QUANTILE_RANGES)
    def test_within_8_ulp_of_mpmath(self, name):
        ys = QUANTILE_RANGES[name](np.random.default_rng(20261018)).tolist()
        got = [bsm_module.ndtri(y) for y in ys]
        assert all(map(math.isfinite, got))
        assert max(ulps(g, mp_quantile(y)) for g, y in zip(got, ys)) <= 8

    def test_edge_rules(self):
        ndtri = bsm_module.ndtri
        assert ndtri(0.0) == ndtri(-0.0) == -math.inf
        assert ndtri(1.0) == math.inf
        for y in (-1e-300, 1.5, math.nan, math.inf):
            assert math.isnan(ndtri(y))
        assert ndtri(0.5) == 0.0 and math.copysign(1.0, ndtri(0.5)) == 1.0
        assert math.isfinite(ndtri(5e-324)) and math.isfinite(ndtri(1.0 - 2.0**-53))
        assert ndtri(0.975) == pytest.approx(1.959963984540054, rel=1e-15)


class TestD1D2:
    def test_forward_neutral_case(self):
        d1, d2 = d1_d2(FLAT, 100.0, 0.2)
        assert d1 == pytest.approx(0.1, abs=1e-15)
        assert d2 == pytest.approx(-0.1, abs=1e-15)

    def test_difference_is_total_vol(self):
        ms = MarketState(spot=80.0, dom_rate=0.04, for_rate=0.01, tenor=0.7)
        d1, d2 = d1_d2(ms, 95.0, 0.33)
        assert d1 - d2 == pytest.approx(0.33 * math.sqrt(0.7), rel=1e-14)

    def test_extended_precision_reference(self):
        # Oracle: Decimal evaluation of the definition at 50 digits.
        getcontext().prec = 50
        s, k = Decimal(100), Decimal(110)
        r, q, sig, t = Decimal("0.03"), Decimal("0.01"), Decimal("0.25"), Decimal(2)
        total = sig * t.sqrt()
        d1_ref = ((s / k).ln() + (r - q + sig * sig / 2) * t) / total
        d2_ref = d1_ref - total
        ms = MarketState(spot=100.0, dom_rate=0.03, for_rate=0.01, tenor=2.0)
        d1, d2 = d1_d2(ms, 110.0, 0.25)
        assert d1 == pytest.approx(float(d1_ref), abs=1e-15)
        assert d2 == pytest.approx(float(d2_ref), abs=1e-15)

    def test_degenerate_tenor(self):
        with pytest.raises(DegenerateTenor):
            d1_d2(MarketState(spot=100.0, dom_rate=0.0, for_rate=0.0, tenor=0.0), 100.0, 0.2)
        with pytest.raises(DegenerateTenor):
            d1_d2(FLAT, 100.0, 0.0)


class TestPrice:
    def test_zero_vol_is_intrinsic(self):
        assert bsm_price(FLAT, 80.0, 0.0) == pytest.approx(20.0, abs=1e-14)
        assert bsm_price(FLAT, 120.0, 0.0) == 0.0

    def test_zero_tenor_is_intrinsic(self):
        ms = MarketState(spot=100.0, dom_rate=0.05, for_rate=0.0, tenor=0.0)
        assert bsm_price(ms, 90.0, 0.3) == pytest.approx(10.0, abs=1e-14)

    def test_atm_call_against_quadrature(self):
        # Oracle: payoff expectation against the log-normal density.
        mu = math.log(100.0) - 0.5 * 0.04

        def pdf(x):
            return math.exp(-0.5 * ((math.log(x) - mu) / 0.2) ** 2) / (
                x * 0.2 * math.sqrt(2 * math.pi)
            )

        oracle, est_err = quad(lambda x: (x - 100.0) * pdf(x), 100.0, np.inf, limit=400)
        assert est_err < 1e-8
        assert bsm_price(FLAT, 100.0, 0.2) == pytest.approx(oracle, abs=1e-7)
        assert bsm_price(FLAT, 100.0, 0.2) == pytest.approx(7.965567455405804, abs=1e-12)

    def test_call_decreasing_in_strike(self):
        ks = np.linspace(40.0, 260.0, 200)
        prices = bsm_price(FLAT, ks, 0.25)
        assert np.all(np.diff(prices) < 0.0)

    @given(
        spot=st.floats(1.0, 1000.0),
        k_ratio=st.floats(0.3, 3.0),
        r=st.floats(-0.05, 0.12),
        q=st.floats(-0.05, 0.12),
        vol=st.floats(0.01, 1.5),
        tenor=st.floats(0.01, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_put_call_parity(self, spot, k_ratio, r, q, vol, tenor):
        ms = MarketState(spot=spot, dom_rate=r, for_rate=q, tenor=tenor)
        k = spot * k_ratio
        call = bsm_price(ms, k, vol, OptionSide.CALL)
        put = bsm_price(ms, k, vol, OptionSide.PUT)
        target = ms.df_for() * spot - ms.df_dom() * k
        scale = max(1.0, abs(ms.df_for() * spot), abs(ms.df_dom() * k))
        assert abs(call - put - target) <= 1e-12 * scale


class TestDelta:
    """Spot deltas from d1: e^{-qT} N(d1) for a call, -e^{-qT} N(-d1) for a put."""

    def test_atm_rn_straddle_is_delta_neutral(self):
        d1, _ = d1_d2(FLAT, atm_rn_lognormal(FLAT, 0.2), 0.2)
        assert abs(ndtr(d1) - ndtr(-d1)) <= 1e-12

    def test_deep_itm_call(self):
        ms = MarketState(spot=100.0, dom_rate=0.02, for_rate=0.03, tenor=1.5)
        d1, _ = d1_d2(ms, 1e-4, 0.2)
        assert ms.df_for() * ndtr(d1) == pytest.approx(ms.df_for(), abs=1e-12)

    def test_atm_call_delta_is_cdf_value(self):
        d1, _ = d1_d2(FLAT, 100.0, 0.2)
        assert FLAT.df_for() * ndtr(d1) == pytest.approx(float(ndtr(0.1)), abs=1e-15)

    def test_put_call_delta_gap(self):
        ms = MarketState(spot=90.0, dom_rate=0.01, for_rate=0.04, tenor=2.0)
        d1, _ = d1_d2(ms, 100.0, 0.3)
        gap = ms.df_for() * ndtr(d1) + ms.df_for() * ndtr(-d1)
        assert gap == pytest.approx(ms.df_for(), rel=1e-14)


class TestImpliedVol:
    def test_round_trip(self):
        price = bsm_price(FLAT, 110.0, 0.2)
        assert implied_vol_grid(FLAT, [110.0], [price])[0] == pytest.approx(0.2, abs=1e-10)

    def test_round_trip_grid(self):
        # Strikes within two total standard deviations of the forward, so
        # every price is meaningfully inside the arbitrage band.
        vols = np.linspace(0.01, 2.0, 400)
        z = np.linspace(-2.0, 2.0, 400)
        ks = 100.0 * np.exp(z * vols)
        prices = bsm_price(FLAT, ks, vols)
        out = implied_vol_grid(FLAT, ks, prices)
        assert np.max(np.abs(out - vols)) <= 1e-10

    def test_round_trip_grid_put(self):
        # A put quote inverts as its parity call.
        ms = MarketState(spot=100.0, dom_rate=0.03, for_rate=0.01, tenor=0.75)
        vols = np.linspace(0.01, 2.0, 400)
        z = np.linspace(-2.0, 2.0, 400)
        ks = ms.forward() * np.exp(z * vols * math.sqrt(ms.tenor))
        puts = bsm_price(ms, ks, vols, OptionSide.PUT)
        out = implied_vol_grid(ms, ks, puts + ms.df_for() * ms.spot - ms.df_dom() * ks)
        assert np.max(np.abs(out - vols)) <= 1e-10

    def test_below_intrinsic_rejected(self):
        ms = MarketState(spot=100.0, dom_rate=0.02, for_rate=0.0, tenor=1.0)
        intrinsic = ms.df_for() * 100.0 - ms.df_dom() * 80.0
        with pytest.raises(PriceOutOfBand):
            implied_vol_grid(ms, [80.0], [intrinsic * 0.999])

    def test_above_forward_bound_rejected(self):
        with pytest.raises(PriceOutOfBand):
            implied_vol_grid(FLAT, [100.0], [100.0])

    def test_gamma_call_cross_check(self):
        # The smile value implied from the gamma call at the forward strike
        # must agree with the distribution-smile bridge at that strike.
        from smilegeo.distributions import Gamma
        from smilegeo.smile import smile_from_distribution
        from smilegeo.workflows import market_state_for

        dist = Gamma(kappa=5.12, theta=0.64)
        ms = market_state_for(dist)
        atmf = ms.forward()
        vol = implied_vol_grid(ms, [atmf], [float(dist.call_price(ms, atmf))])[0]
        smile = smile_from_distribution(dist, ms)
        assert vol == pytest.approx(float(smile.vol(atmf)), abs=1e-10)


def _reference_grid(dist, width_mult=1.0):
    """The strikes and model call prices a smile of ``dist`` is inverted from."""
    ms = market_state_for(dist)
    strikes = strike_grid(dist, ms, GridSpec(width_mult=width_mult))
    return ms, strikes, np.asarray(dist.call_price(ms, strikes), dtype=float)


def _bisection_vols(ms, strikes, prices, steps=200):
    """Oracle: plain bisection of the call price over the solver's vol bracket."""
    lo = np.full_like(strikes, IV_BRACKET_LO)
    hi = np.full_like(strikes, IV_BRACKET_HI)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        above = bsm_price(ms, strikes, mid) > prices
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


REFERENCE_FAMILIES = {
    "gamma": Gamma(kappa=5.12, theta=0.64),
    "uniform": Uniform(a=2.0109, b=5.4750),
    "student_negative": StudentT(mu=3.7322, nu=3.9565),
    "student": StudentT(mu=3.7201, nu=7.3824),
    "normal": Normal(mu=11.3328, s=3.0),
    "lognormal": LogNormal(mu=1.0, s=0.25),
}


class TestImpliedVolGridAccuracy:
    @pytest.mark.parametrize("width_mult", [1.0, 2.56])
    @pytest.mark.parametrize("name", list(REFERENCE_FAMILIES))
    def test_within_price_noise_of_bisection(self, name, width_mult):
        # A price known to a few ulps pins sigma to that error over vega;
        # strikes iterated past convergence drift further than this.
        ms, ks, prices = _reference_grid(REFERENCE_FAMILIES[name], width_mult)
        ref = _bisection_vols(ms, ks, prices)
        vega = ms.df_for() * ms.spot * std_normal_pdf(d1_d2(ms, ks, ref)[0]) * math.sqrt(ms.tenor)
        noise = 8.0 * np.finfo(float).eps * np.maximum(prices, 1.0) / vega
        err = np.abs(implied_vol_grid(ms, ks, prices) - ref)
        assert np.all(err <= 1e-13 * ref + noise)

    @pytest.mark.parametrize("side", [OptionSide.CALL, OptionSide.PUT])
    def test_sweep_prices_are_bsm_prices(self, side):
        # The solver prices its sweeps without bsm_price's validation and
        # branches; its calls, and puts formed from them by parity, must
        # still be bsm_price's, bit for bit.
        ms = MarketState(spot=80.0, dom_rate=0.04, for_rate=0.01, tenor=0.7)
        ks = np.geomspace(20.0, 300.0, 301)
        vols = np.linspace(1e-6, 5.0, 301)
        ln_m = np.log(ms.spot / ks) + (ms.dom_rate - ms.for_rate) * ms.tenor
        fwd_df, dfd_k = ms.df_for() * ms.spot, ms.df_dom() * ks
        price, _ = bsm_module._sweep_price(ln_m, dfd_k, vols * math.sqrt(ms.tenor), fwd_df)
        if side is OptionSide.PUT:
            price = price - fwd_df + dfd_k
        assert np.array_equal(price, bsm_price(ms, ks, vols, side))

    @pytest.mark.parametrize("side", [OptionSide.CALL, OptionSide.PUT])
    @pytest.mark.parametrize("width_mult", [1.0, 2.56])
    @pytest.mark.parametrize("name", list(REFERENCE_FAMILIES))
    def test_grid_equals_strikes_solved_alone(self, name, width_mult, side):
        # A one-strike call runs the scalar loop from its first sweep; in a
        # grid, the last few strikes finish in it.  Either way each vol is
        # the one the array sweep gives.  Put quotes invert as their parity
        # calls, which round differently from the model calls.
        ms, ks, prices = _reference_grid(REFERENCE_FAMILIES[name], width_mult)
        if side is OptionSide.PUT:
            puts = prices - ms.df_for() * ms.spot + ms.df_dom() * ks
            prices = puts + ms.df_for() * ms.spot - ms.df_dom() * ks
        grid = implied_vol_grid(ms, ks, prices)
        idx = np.unique(np.r_[0:12, 12:ks.size - 12:97, ks.size - 12:ks.size])
        alone = [implied_vol_grid(ms, [ks[i]], [prices[i]])[0] for i in idx]
        assert np.array_equal(grid[idx], alone)

    def test_converged_strikes_stop_iterating(self, monkeypatch):
        # Normal-CDF evaluations while inverting the 2001-strike gamma grid:
        # 184092 when the whole grid iterated until its slowest strike
        # converged, 43682 when each strike stops on its own.
        ms, ks, prices = _reference_grid(REFERENCE_FAMILIES["gamma"])
        evaluated = 0
        ndtr = bsm_module.ndtr

        def counting_ndtr(x):
            nonlocal evaluated
            evaluated += np.size(x)
            return ndtr(x)

        monkeypatch.setattr(bsm_module, "ndtr", counting_ndtr)
        implied_vol_grid(ms, ks, prices)
        assert 0 < evaluated <= 61364


class TestCallStrikeDerivative:
    def test_central_difference_matches_closed_form(self):
        # dcall/dK at constant vol is e^{-rT} [P(K) - 1] with P(K) = N(-d2)
        # for the log-normal model; the central difference converges at O(h^2).
        ms = MarketState(spot=100.0, dom_rate=0.03, for_rate=0.01, tenor=1.5)
        ks = np.linspace(70.0, 150.0, 41)
        _, d2 = d1_d2(ms, ks, 0.25)
        closed = ms.df_dom() * (ndtr(-d2) - 1.0)
        errs = []
        for h in (1e-2, 1e-3):
            fd = (bsm_price(ms, ks + h, 0.25) - bsm_price(ms, ks - h, 0.25)) / (2.0 * h)
            errs.append(np.max(np.abs(fd - closed)))
        assert errs[0] <= 1e-5
        assert errs[1] <= errs[0] / 50.0  # second-order convergence


class TestIdentity:
    @given(
        spot=st.floats(5.0, 500.0),
        k_ratio=st.floats(0.4, 2.5),
        r=st.floats(-0.03, 0.10),
        q=st.floats(-0.03, 0.10),
        vol=st.floats(0.02, 1.2),
        tenor=st.floats(0.05, 8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_relative(self, spot, k_ratio, r, q, vol, tenor):
        ms = MarketState(spot=spot, dom_rate=r, for_rate=q, tenor=tenor)
        k = spot * k_ratio
        d1, _ = d1_d2(ms, k, vol)
        lhs = spot * ms.df_for() * math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi)
        assert d1_d2_identity_residual(ms, k, vol) <= 1e-12 * max(lhs, 1e-300)

    def test_symmetric_case(self):
        assert d1_d2_identity_residual(FLAT, 100.0, 0.2) <= 1e-16

    def test_reference_case(self):
        ms = MarketState(spot=100.0, dom_rate=0.05, for_rate=0.02, tenor=3.0)
        d1, _ = d1_d2(ms, 137.0, 0.4)
        lhs = 100.0 * ms.df_for() * math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi)
        assert d1_d2_identity_residual(ms, 137.0, 0.4) <= 1e-12 * lhs


class TestAtmRn:
    def test_zero_vol_is_forward(self):
        ms = MarketState(spot=100.0, dom_rate=0.03, for_rate=0.01, tenor=2.0)
        assert atm_rn_lognormal(ms, 0.0) == pytest.approx(ms.forward(), rel=1e-15)

    def test_flat_reference(self):
        assert atm_rn_lognormal(FLAT, 0.2) == pytest.approx(100.0 * math.exp(0.02), rel=1e-15)

    def test_strike_for_target_at_half_is_atm_rn(self):
        ms = MarketState(spot=120.0, dom_rate=0.02, for_rate=0.05, tenor=1.3)
        assert strike_for_target_nd1(ms, 0.27, 0.5) == pytest.approx(
            atm_rn_lognormal(ms, 0.27), rel=1e-15
        )

    def test_strike_for_target_inverts(self):
        ms = MarketState(spot=1.1, dom_rate=0.02, for_rate=0.01, tenor=0.5)
        for target in (0.1, 0.25, 0.75, 0.9):
            k = strike_for_target_nd1(ms, 0.12, target)
            d1, _ = d1_d2(ms, k, 0.12)
            assert float(ndtr(-d1)) == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("target", [0.0, 1.0, 1.5])
    def test_strike_for_target_outside_unit_interval(self, target):
        with pytest.raises(TargetOutsideDomain):
            strike_for_target_nd1(FLAT, 0.2, target)
