"""Tests for the analytic distribution families.

Closed-form call prices are checked against direct quadrature of the payoff
integral; densities against unit-mass quadrature; the delta-neutral strikes
of their implied smiles against a closed form and the straddle-delta root.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from smilegeo.bsm import MarketState, d1_d2, implied_vol_grid, ndtr
from smilegeo.distributions import (
    DensityCurve,
    Gamma,
    LogNormal,
    Normal,
    StudentT,
    Uniform,
    density_curve,
    support_transform_exp,
)
from smilegeo.errors import InconsistentForward, NonFiniteDensity
from smilegeo.smile import smile_from_distribution, strikes_for_deltas
from smilegeo.workflows import market_state_for

GAMMA = Gamma(kappa=5.12, theta=0.64)
UNIFORM = Uniform(a=2.0109, b=5.4750)
STUDENT = StudentT(mu=3.7201, nu=7.3824)
STUDENT_WIDE = StudentT(mu=3.7322, nu=3.9565)
NORMAL = Normal(mu=11.3328, s=3.0)
LOGNORM = LogNormal(mu=1.0, s=0.25)

ALL = (GAMMA, UNIFORM, STUDENT, STUDENT_WIDE, NORMAL, LOGNORM)


class TestPdfCdf:
    def test_uniform_level(self):
        # 1 / (5.4750 - 2.0109) = 0.28868, quoted as 0.2887.
        assert UNIFORM.pdf(3.0) == pytest.approx(0.2887, abs=5e-5)
        assert UNIFORM.pdf(1.9) == 0.0
        assert UNIFORM.pdf(5.5) == 0.0

    def test_gamma_mode(self):
        mode = (GAMMA.kappa - 1.0) * GAMMA.theta
        xs = np.linspace(mode - 0.5, mode + 0.5, 2001)
        assert abs(xs[np.argmax(GAMMA.pdf(xs))] - mode) < 1e-3

    def test_normal_peak(self):
        assert NORMAL.pdf(NORMAL.mu) == pytest.approx(
            1.0 / (3.0 * math.sqrt(2.0 * math.pi)), rel=1e-14
        )

    def test_uniform_median(self):
        assert UNIFORM.cdf(0.5 * (UNIFORM.a + UNIFORM.b)) == pytest.approx(0.5, abs=1e-14)

    def test_student_cdf_at_center(self):
        assert STUDENT.cdf(STUDENT.mu) == pytest.approx(0.5, abs=1e-14)

    def test_gamma_cdf_matches_pdf_quadrature(self):
        for x in (1.0, 2.7, 3.2768, 5.5):
            oracle, err = quad(GAMMA.pdf, 0.0, x, limit=300, epsabs=1e-12)
            assert err < 1e-8
            assert GAMMA.cdf(x) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_density_integrates_to_one(self, dist):
        lo = dist.quantile(1e-12) if not isinstance(dist, Uniform) else dist.a
        hi = dist.quantile(1.0 - 1e-12) if not isinstance(dist, Uniform) else dist.b
        mass, err = quad(dist.pdf, lo, hi, limit=500)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_quantile_inverts_cdf(self, dist):
        for p in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-10)


class TestMean:
    def test_gamma_mean(self):
        assert GAMMA.mean() == pytest.approx(3.2768, abs=1e-12)

    def test_uniform_mean(self):
        assert UNIFORM.mean() == pytest.approx(3.74295, abs=1e-12)

    def test_student_mean(self):
        assert STUDENT.mean() == 3.7201

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_mean_matches_quadrature(self, dist):
        lo = dist.quantile(1e-13) if not isinstance(dist, Uniform) else dist.a
        hi = dist.quantile(1.0 - 1e-13) if not isinstance(dist, Uniform) else dist.b
        oracle, _ = quad(lambda x: x * dist.pdf(x), lo, hi, limit=500)
        assert dist.mean() == pytest.approx(oracle, rel=1e-7)


class TestCallPrice:
    def test_uniform_deep_itm_branch(self):
        ms = market_state_for(UNIFORM)
        k = 1.5
        assert UNIFORM.call_price(ms, k) == pytest.approx(
            ms.df_dom() * (0.5 * (UNIFORM.a + UNIFORM.b) - k), rel=1e-14
        )

    def test_far_otm_vanishes(self):
        for dist in ALL:
            ms = market_state_for(dist)
            hi = dist.quantile(1.0 - 1e-9) if not isinstance(dist, Uniform) else dist.b
            assert float(dist.call_price(ms, hi * 1.5)) <= 1e-6

    def test_gamma_call_at_mean_against_trapezoid(self):
        # Trapezoid quadrature of the payoff integral at 1e6 nodes.
        ms = market_state_for(GAMMA)
        xs = np.linspace(GAMMA.mean(), 60.0, 1_000_001)
        oracle = float(np.trapezoid((xs - GAMMA.mean()) * GAMMA.pdf(xs), xs))
        assert float(GAMMA.call_price(ms, GAMMA.mean())) == pytest.approx(oracle, abs=2e-8)
        assert float(GAMMA.call_price(ms, GAMMA.mean())) == pytest.approx(
            0.5684147225496, abs=1e-10
        )

    def test_inconsistent_forward_raises(self):
        bad = MarketState(spot=99.0, dom_rate=0.0, for_rate=0.0, tenor=1.0)
        with pytest.raises(InconsistentForward):
            GAMMA.call_price(bad, 3.0)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_closed_form_matches_quadrature(self, dist):
        # 50 deterministic pseudo-random strikes per family.
        rng = np.random.default_rng(hash(type(dist).__name__) % 2**32)
        ms = market_state_for(dist)
        lo = max(dist.quantile(0.001), 1e-6)
        hi = dist.quantile(0.999)
        upper = np.inf if not isinstance(dist, Uniform) else dist.b
        for k in np.exp(rng.uniform(math.log(lo), math.log(hi), size=50)):
            oracle, err = quad(
                lambda x: (x - k) * dist.pdf(x), k, upper,
                limit=500, epsabs=1e-13, epsrel=1e-11,
            )
            got = float(dist.call_price(ms, k))
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-11)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_put_from_parity_matches_integral(self, dist):
        ms = market_state_for(dist)
        k = dist.mean() * 1.05
        lower = dist.quantile(1e-12) if not isinstance(dist, Uniform) else dist.a
        oracle, _ = quad(lambda x: (k - x) * dist.pdf(x), lower, k, limit=500)
        put = float(dist.call_price(ms, k)) - ms.df_for() * ms.spot + ms.df_dom() * k
        assert put == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_decreasing_convex_in_strike(self, dist):
        ms = market_state_for(dist)
        lo, hi = dist.quantile(0.02), dist.quantile(0.98)
        ks = np.linspace(lo, hi, 400)
        c = np.asarray(dist.call_price(ms, ks))
        assert np.all(np.diff(c) < 0.0)
        assert np.all(np.diff(c, 2) > -1e-10)


class TestBreedenLitzenberger:
    @pytest.mark.parametrize("dist", ALL, ids=lambda d: type(d).__name__)
    def test_second_difference_recovers_density(self, dist):
        # e^{rT} * FD2[call] = pdf within 1e-4 on the central 98% of mass.
        ms = MarketState(
            spot=dist.mean() * math.exp(-0.01 * 1.0), dom_rate=0.02, for_rate=0.01, tenor=1.0
        )
        p0 = dist.mass_below_zero()
        lo = dist.quantile(p0 + 0.01 * (1 - p0))
        hi = dist.quantile(p0 + 0.99 * (1 - p0))
        ks = np.linspace(lo, hi, 301)
        h = 1e-4 * ks
        fd2 = (
            np.asarray(dist.call_price(ms, ks + h))
            - 2.0 * np.asarray(dist.call_price(ms, ks))
            + np.asarray(dist.call_price(ms, ks - h))
        ) / (h * h)
        assert np.max(np.abs(math.exp(0.02) * fd2 - dist.pdf(ks))) <= 1e-4


class TestAtmRn:
    """The delta-neutral strike is read off the implied smile."""

    def test_lognormal_closed_form(self):
        ms = MarketState(
            spot=LOGNORM.mean(), dom_rate=0.0, for_rate=0.0, tenor=1.0
        )
        k = float(strikes_for_deltas(smile_from_distribution(LOGNORM, ms), [0.5])[0])
        assert k == pytest.approx(math.exp(1.0 + 0.25**2), rel=1e-14)

    def test_gamma_root_is_straddle_neutral(self):
        ms = market_state_for(GAMMA)
        k = float(strikes_for_deltas(smile_from_distribution(GAMMA, ms), [0.5])[0])
        vol = implied_vol_grid(ms, [k], [float(GAMMA.call_price(ms, k))])[0]
        d1, _ = d1_d2(ms, k, vol)
        # Call delta e^{-qT} N(d1) plus put delta -e^{-qT} N(-d1).
        straddle = ms.df_for() * (ndtr(d1) - ndtr(-d1))
        assert abs(straddle) <= 1e-8


class TestDensityCurve:
    def test_mass_and_rescale(self):
        grid = np.linspace(STUDENT_WIDE.quantile(0.0005), STUDENT_WIDE.quantile(0.9995), 4001)
        grid = grid[grid > 0]
        curve = density_curve(STUDENT_WIDE, grid)
        assert curve.mass_below_zero == pytest.approx(STUDENT_WIDE.cdf(0.0), abs=1e-14)
        assert curve.mass_below_zero > 0.01
        assert 0.99 <= np.trapezoid(curve.values, curve.strikes) <= 1.01

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            DensityCurve(strikes=np.array([1.0, 1.0, 2.0]), values=np.zeros(3))

    def test_non_finite_values_rejected(self):
        with pytest.raises(NonFiniteDensity, match="2 of 3 grid strikes, first at 2"):
            DensityCurve(strikes=np.array([1.0, 2.0, 3.0]), values=np.array([0.1, np.inf, np.nan]))

    def test_support_transform_exp(self):
        xs = np.linspace(-8.0, 8.0, 200001)
        std_normal = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        curve = DensityCurve(strikes=xs, values=std_normal)
        out = support_transform_exp(curve)
        # Standard normal maps to log-normal(0, 1).
        ref = LogNormal(mu=0.0, s=1.0).pdf(out.strikes)
        assert np.max(np.abs(out.values - ref)) <= 1e-12
        mass = np.trapezoid(curve.values, curve.strikes)
        assert np.trapezoid(out.values, out.strikes) == pytest.approx(mass, abs=1e-8)
        assert np.all(np.diff(out.strikes) > 0.0)
