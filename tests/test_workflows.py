"""End-to-end pipeline tests across the analysed distribution families."""
import importlib.util
import math
import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import smilegeo
import smilegeo.smile as smile_module
import smilegeo.workflows as workflows_module
from smilegeo.bsm import d1_total
from smilegeo.distributions import Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.errors import DegenerateMass, InconsistentForward, PriceOutOfBand, SmileGeoError
from smilegeo.fitting import fit_circle_to_smile
from smilegeo.georep import context_for_smile, represent, smile_from_shape
from smilegeo.smile import (
    MAX_GRID_WIDENINGS,
    ND1_WINDOW,
    GridSpec,
    density_from_smile,
    nonnegativity_margin,
    smile_from_distribution,
    strike_for_delta,
)
from smilegeo.workflows import distribution_report, market_state_for

GAMMA = Gamma(kappa=5.12, theta=0.64)


def smile_d1(smile, strike):
    """d1 at the strike(s) under the smile's own vol there."""
    return d1_total(smile.market, strike, smile.vol(strike))[0]


def within(smile, strikes) -> bool:
    """Whether every strike lies in the smile's domain."""
    return bool(smile.k_lo <= np.min(strikes) and np.max(strikes) <= smile.k_hi)


class TestMarketStateFor:
    def test_forward_matches_mean(self):
        ms = market_state_for(GAMMA, dom_rate=0.03, for_rate=0.01)
        assert ms.tenor == 1.0
        assert ms.forward() == pytest.approx(GAMMA.mean(), rel=1e-14)

    @pytest.mark.parametrize("dist", [Normal(mu=-1.0, s=1.0), StudentT(mu=-0.1, nu=13.0)])
    def test_nonpositive_mean_is_inconsistent_forward(self, dist):
        with pytest.raises(InconsistentForward, match="distribution mean -"):
            market_state_for(dist)


def _load_report_outputs():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_outputs.py"
    spec = importlib.util.spec_from_file_location("report_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT_CASES = dict(_load_report_outputs().cases(smilegeo))


def _spline_read_rule(dist, ms, targets=ND1_WINDOW):
    """The width rule that builds every smile and reads N(-d1) on the spline
    just inside its ends; returns the number of widenings and the smile."""
    grid = GridSpec()
    b_lo, b_hi = dist.strike_bounds()
    bounded = b_lo > 0.0 or math.isfinite(b_hi)
    for k in range(MAX_GRID_WIDENINGS):
        smile = smile_from_distribution(dist, ms, grid)
        nd1_lo = float(ndtr(-smile_d1(smile, smile.k_lo * 1.0000001)))
        nd1_hi = float(ndtr(-smile_d1(smile, smile.k_hi * 0.9999999)))
        if (nd1_lo < targets[0] and nd1_hi > targets[1]) or bounded:
            return k, smile
        grid = replace(grid, width_mult=grid.width_mult * 1.6)
    raise AssertionError("the spline-read rule found no width")


class TestCoverage:
    HEAVY = StudentT(mu=3.7322, nu=3.9565)

    def test_heavy_tail_grid_widens(self):
        dist = self.HEAVY
        ms = market_state_for(dist)

        narrow = smile_from_distribution(dist, ms, GridSpec())
        assert float(ndtr(-smile_d1(narrow, narrow.k_lo * 1.000001))) > 0.01  # default misses

        wide = smile_from_distribution(dist, ms)
        assert float(ndtr(-smile_d1(wide, wide.k_lo * 1.000001))) < 0.01
        assert float(ndtr(-smile_d1(wide, wide.k_hi * 0.999999))) > 0.99

    def test_builds_one_smile(self, monkeypatch):
        # The proxy vol is inverted once, each width that fails is decided
        # from its two end strikes alone, and the spline is built once.
        dist = self.HEAVY
        ms = market_state_for(dist)
        k, _ = _spline_read_rule(dist, ms)
        sizes, implied_vol_grid = [], smile_module.implied_vol_grid

        def counting(ms, strikes, prices):
            sizes.append(len(strikes))
            return implied_vol_grid(ms, strikes, prices)

        monkeypatch.setattr(smile_module, "implied_vol_grid", counting)
        smile_from_distribution(dist, ms)
        assert sizes == [1] + [2] * (k + 1) + [GridSpec().n]

    def test_smile_is_the_spline_read_rules(self):
        dist = self.HEAVY
        ms = market_state_for(dist)
        k, _ = _spline_read_rule(dist, ms)
        assert k >= 1
        smile = smile_from_distribution(dist, ms)
        strikes = smile.default_grid(777)
        expected = smile_from_distribution(dist, ms, GridSpec(width_mult=1.6**k))
        assert np.array_equal(smile.vol(strikes), expected.vol(strikes))

    @pytest.mark.parametrize("name", list(REPORT_CASES))
    def test_ends_match_the_spline_read_rule(self, name):
        dist = REPORT_CASES[name]
        ms = market_state_for(dist)
        _, expected = _spline_read_rule(dist, ms)
        smile = smile_from_distribution(dist, ms)
        assert (smile.k_lo, smile.k_hi) == (expected.k_lo, expected.k_hi)


class TestBellShapedFamilies:
    """The circle reconstruction dominates both baselines and stays a
    genuine density for every bell-shaped case analysed."""

    @pytest.mark.parametrize(
        "dist",
        [GAMMA, StudentT(mu=3.7201, nu=7.3824), Normal(mu=11.3328, s=3.0)],
        ids=["gamma", "student", "normal"],
    )
    def test_circle_beats_baselines_with_positive_density(self, dist):
        report = distribution_report(dist)
        assert report.margin > 0.0
        assert not report.kl_circle.pseudo
        assert report.kl_circle.kl_nats < report.kl_vanna_volga.kl_nats
        assert report.kl_circle.kl_nats < report.kl_best_lognormal.kl_nats

    def test_gamma_circle_translated_but_encloses_origin(self):
        report = distribution_report(GAMMA)
        assert math.hypot(*report.circle.center) > 1e-3
        assert report.circle.contains_origin

    def test_circle_density_close_to_gamma_everywhere(self):
        report = distribution_report(GAMMA)
        gap = np.max(np.abs(report.p_circle.values - report.p_true.values))
        assert gap < 0.1 * np.max(report.p_true.values)
        assert report.kl_circle.kl_nats < 1e-3


class TestWindow:
    def test_window_spans_requested_targets(self):
        report = distribution_report(GAMMA)
        k_lo, k_hi = report.window
        assert float(ndtr(-smile_d1(report.smile, k_lo))) == pytest.approx(0.01, abs=1e-9)
        assert float(ndtr(-smile_d1(report.smile, k_hi))) == pytest.approx(0.99, abs=1e-9)
        assert report.window_grid[0] == pytest.approx(k_lo, rel=1e-12)
        assert report.window_grid[-1] == pytest.approx(k_hi, rel=1e-12)

    @pytest.mark.parametrize(
        "dist",
        [
            LogNormal(mu=2.3459483414117317, s=0.13333905670626447),
            StudentT(mu=10.429390320542002, nu=4.151550865318709),
        ],
        ids=["lognormal", "student"],
    )
    def test_window_grid_stays_in_the_window(self, dist):
        # exp(log(k_hi)) lands one ulp above k_hi for these parameter sets;
        # unclipped, the densities raised DomainTooNarrow.
        report = distribution_report(dist)
        k_lo, k_hi = report.window
        assert report.window_grid[0] == k_lo
        assert report.window_grid[-1] == k_hi
        assert within(report.circle_smile, report.window_grid)
        assert within(report.vanna_volga_smile, report.window_grid)

    @pytest.mark.parametrize(
        "dist",
        [GAMMA, StudentT(mu=3.7322, nu=3.9565), Uniform(a=2.0109, b=5.4750)],
        ids=["gamma", "student_negative", "uniform"],
    )
    def test_one_solve_gives_every_strike(self, dist):
        # The report's single delta solve and its shared density bracket
        # give what the public one-at-a-time functions give, bit for bit.
        report = distribution_report(dist)
        assert report.ctx == context_for_smile(report.smile)
        assert report.window == tuple(strike_for_delta(report.smile, t).strike for t in (0.01, 0.99))
        assert report.margin == nonnegativity_margin(report.circle_smile, report.window_grid)

    def test_circle_is_the_fitted_circle(self):
        # The report fits its circle through its own anchors, solved once.
        report = distribution_report(GAMMA)
        assert report.ctx == context_for_smile(report.smile)
        assert report.circle == fit_circle_to_smile(report.smile)

    def test_delta_solve_ending_in_an_ulp_cycle(self):
        # The 0.99 target's Newton iterate alternated between two strikes
        # whose residuals are one ulp of 0.99, and the budget ran out.
        report = distribution_report(StudentT(mu=3.120173330585679, nu=3.711714292082463))
        nd1_hi = float(ndtr(-smile_d1(report.smile, report.window[1])))
        assert abs(nd1_hi - 0.99) <= 4.0 * np.finfo(float).eps * 0.99

    def test_true_density_rescaled_for_negative_mass(self):
        dist = StudentT(mu=3.7322, nu=3.9565)
        report = distribution_report(dist)
        assert dist.mass_below_zero() == pytest.approx(dist.cdf(0.0), abs=1e-14)
        ratio = report.p_true.values / np.asarray(dist.pdf(report.window_grid))
        assert np.allclose(ratio, 1.0 / (1.0 - dist.cdf(0.0)), rtol=1e-12)


def test_infinite_newton_step_is_silent():
    # A vega that underflows makes an infinite Newton step, which the vol
    # solve turns into a bisection without an overflow warning.
    dist = StudentT(mu=0.782252297406306, nu=2.6166645965643442)
    ms = market_state_for(dist)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = smile_from_distribution(dist, ms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smile = smile_from_distribution(dist, ms)
        distribution_report(dist)
    strikes = smile.default_grid()
    assert np.array_equal(smile.vol(strikes), quiet.vol(strikes))


class TestUniformContrast:
    def test_uniform_worse_than_gamma(self):
        uniform = distribution_report(Uniform(a=2.0109, b=5.4750))
        gamma = distribution_report(GAMMA)
        assert uniform.kl_circle.kl_nats > 10.0 * gamma.kl_circle.kl_nats


class TestSmallShapeGamma:
    """A Gamma with a small shape holds much of its mass below 1e-12, where the
    best-lognormal fit grid once stopped (mass 0.934 at kappa = 0.1)."""

    @pytest.mark.parametrize("kappa", [0.008, 0.01, 0.05, 0.1, 0.15])
    def test_report_completes(self, kappa):
        report = distribution_report(Gamma(kappa=kappa, theta=1.0))
        kls = (report.kl_circle, report.kl_vanna_volga, report.kl_best_lognormal)
        assert all(math.isfinite(kl.kl_nats) for kl in kls)

    @pytest.mark.parametrize("mean", [0.5, 1.0, 20.0, 1000.0])
    @pytest.mark.parametrize("kappa", [0.2, 0.1, 0.05, 0.01])
    def test_report_is_scale_free(self, kappa, mean):
        # The Gamma payoff's cancellation noise grows with the strike, so a
        # far end strike's price band needs a slack that grows with it too.
        report = distribution_report(Gamma(kappa=kappa, theta=mean / kappa))
        kls = (report.kl_circle, report.kl_vanna_volga, report.kl_best_lognormal)
        assert all(math.isfinite(kl.kl_nats) for kl in kls)

    def test_smaller_shape_is_a_documented_error(self):
        # Its 1e-5 quantile underflows, and a quarter of its mass lies below
        # the smallest normal double, where the fit grid is floored.
        with pytest.raises(SmileGeoError):
            distribution_report(Gamma(kappa=0.002, theta=1.0))

    @pytest.mark.parametrize("kappa", [0.002, 0.005, 0.006])
    def test_mass_below_smallest_double_rejected_up_front(self, kappa, monkeypatch):
        # More than 1 % of the mass lies below the smallest normal double,
        # which no grid of doubles reaches: the report says so before it
        # builds a smile.
        def no_smile(*args, **kwargs):
            raise AssertionError("a smile was built")

        monkeypatch.setattr(workflows_module, "smile_with_coverage", no_smile)
        with pytest.raises(DegenerateMass, match="below the smallest normal double"):
            distribution_report(Gamma(kappa=kappa, theta=1.0))


class TestWideUniform:
    """A bounded support goes through the same end-strike coverage test as any
    other: the grid widens up to the support bounds until it covers the KL
    window."""

    @pytest.mark.parametrize("b", [30.0, 31.0, 40.0, 100.0])
    def test_report_completes(self, b):
        report = distribution_report(Uniform(a=1.0, b=b))
        kls = (report.kl_circle, report.kl_vanna_volga, report.kl_best_lognormal)
        assert all(math.isfinite(kl.kl_nats) for kl in kls)
        assert report.smile.k_lo >= 1.0 and report.smile.k_hi <= b


# Parameter ranges cover and exceed tools/report_outputs.py's seeded draws
# (annual vol about 8-45 %), with StudentT mass below zero, Uniform b/a up to 40
# and Gamma shapes down to about 0.05 (vol 4.5).  Normal and StudentT means
# reach down to -2, where no positive forward exists.
FAMILIES = {
    "lognormal": st.builds(LogNormal, mu=st.floats(-1.0, 3.0), s=st.floats(0.05, 0.6)),
    "gamma": st.builds(
        lambda vol, mean: Gamma(kappa=1.0 / (vol * vol), theta=mean * vol * vol),
        st.floats(0.05, 4.5),
        st.floats(0.5, 20.0),
    ),
    "normal": st.builds(
        lambda mu, cv: Normal(mu=mu, s=max(abs(mu), 1.0) * cv),
        st.floats(-2.0, 30.0),
        st.floats(0.05, 0.4),
    ),
    "student": st.builds(StudentT, mu=st.floats(-2.0, 15.0), nu=st.floats(2.5, 12.0)),
    "uniform": st.builds(
        lambda a, ratio: Uniform(a=a, b=a * ratio), st.floats(0.5, 8.0), st.floats(1.2, 40.0)
    ),
}


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _quick_start(dist):
    """The README quick start's chain; asserts its outputs are finite."""
    smile = smile_from_distribution(dist, market_state_for(dist))
    curve = represent(smile)
    circle = fit_circle_to_smile(smile)
    completed = smile_from_shape(circle, context_for_smile(smile), k_lo=smile.k_lo, k_hi=smile.k_hi)
    density = density_from_smile(completed, completed.default_grid())
    assert _all_finite(
        curve.points, circle.center, circle.radius, density.values,
        completed.vol(completed.default_grid()),
    ), dist


def _report(dist):
    """distribution_report; asserts its outputs are finite."""
    report = distribution_report(dist)
    assert _all_finite(
        report.circle.center, report.circle.radius, report.p_circle.values,
        report.kl_circle.kl_nats, report.kl_vanna_volga.kl_nats,
        report.kl_best_lognormal.kl_nats, report.margin,
    ), dist


class TestQuickStartProperty:
    """The README quick start and distribution_report, for every shipped family:
    finite output or a SmileGeoError, never another exception, and the quick
    start completes wherever the report does."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_finite_or_documented_error(self, family, data):
        dist = data.draw(FAMILIES[family], label="dist")
        if not dist.mean() > 0.0:
            with pytest.raises(SmileGeoError, match="mean"):
                smile_from_distribution(dist, market_state_for(dist))
            with pytest.raises(SmileGeoError, match="mean"):
                distribution_report(dist)
            return
        try:
            _report(dist)
        except SmileGeoError:
            try:
                _quick_start(dist)
            except SmileGeoError:
                pass
            return
        _quick_start(dist)

    @pytest.mark.parametrize(
        "dist",
        [Normal(10.0, 3.0), StudentT(10.0, 3.0), Gamma(0.1, 1.0), Uniform(1.0, 30.0)],
        ids=repr,
    )
    def test_both_paths_complete(self, dist):
        _quick_start(dist)
        _report(dist)

    @pytest.mark.parametrize(
        "dist",
        [StudentT(0.26060533807545944, 4.587396374623719), StudentT(0.353, 7.15)],
        ids=repr,
    )
    def test_mass_below_zero_named(self, dist):
        # The call at the forward is worth more than the discounted forward,
        # so no proxy vol exists; the message names the mass that causes it.
        assert dist.mass_below_zero() > 0.36
        match = (
            rf"mass {dist.mass_below_zero():.3g} below zero makes its call at the forward "
            r"\S+ worth \S+, more than the discounted forward"
        )
        with pytest.raises(PriceOutOfBand, match=match):
            _report(dist)
        with pytest.raises(PriceOutOfBand, match=match):
            _quick_start(dist)
