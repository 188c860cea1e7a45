"""Tests for the smile <-> density bridge."""
import math
import pathlib
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from smilegeo.bsm import DeltaConvention, MarketState, bsm_price, d1_total
from smilegeo.distributions import Gamma, LogNormal, Normal, StudentT, Uniform
from scipy.special import ndtr

import smilegeo.smile as smile_module
from smilegeo.errors import (
    DegenerateTenor,
    DomainTooNarrow,
    InconsistentForward,
    InvalidInput,
    NoConvergence,
    TargetOutsideDomain,
)
from smilegeo.shapes import CircleShape
from smilegeo.smile import (
    DELTA_SAMPLES,
    DeltaAnchor,
    GridSpec,
    SmileCurve,
    density_from_smile,
    density_with_margin,
    flat_smile,
    nonnegativity_margin,
    smile_from_distribution,
    strike_for_delta,
    strikes_for_deltas,
)
from smilegeo.surface import complete_expiry, parse_surface
from smilegeo.vanna_volga import ThreeQuoteSmile, vv_smile
from smilegeo.workflows import market_state_for

FLAT_MS = MarketState(spot=100.0, dom_rate=0.0, for_rate=0.0, tenor=1.0)
GAMMA = Gamma(kappa=5.12, theta=0.64)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
GAMMA_CSV = DATA / "synthetic_gamma_surface.csv"


def smile_d1(smile, strike):
    """d1 at the strike(s) under the smile's own vol there."""
    return d1_total(smile.market, strike, smile.vol(strike))[0]


SHIPPED_SURFACES = (DATA / "synthetic_circle_surface.csv", GAMMA_CSV)


def synthetic_sine_smile(ms: MarketState) -> SmileCurve:
    """A C^2 analytic smile: sigma(K) = 0.2 + 0.05 sin(ln K)."""
    return SmileCurve(
        market=ms,
        k_lo=ms.spot * math.exp(-1.5),
        k_hi=ms.spot * math.exp(1.5),
        vol_fn=lambda lnk: 0.2 + 0.05 * np.sin(lnk),
        jet_fn=lambda lnk: (0.2 + 0.05 * np.sin(lnk), 0.05 * np.cos(lnk), -0.05 * np.sin(lnk)),
        label="sine",
    )


class TestSmileFromDistribution:
    @pytest.mark.parametrize(
        "dist",
        [
            GAMMA,
            LogNormal(mu=1.0, s=0.25),
            Normal(mu=11.3328, s=3.0),
            StudentT(mu=3.7201, nu=7.3824),
            Uniform(a=2.0109, b=5.4750),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_prices_reproduced_on_grid(self, dist):
        ms = market_state_for(dist)
        smile = smile_from_distribution(dist, ms, GridSpec(n=501))
        ks = smile.default_grid(501)
        resid = np.abs(
            bsm_price(ms, ks, np.asarray(smile.vol(ks)))
            - np.asarray(dist.call_price(ms, ks))
        )
        assert np.max(resid) <= 1e-10

    def test_lognormal_gives_constant_vol(self):
        dist = LogNormal(mu=1.2, s=0.3)
        ms = MarketState(spot=dist.mean(), dom_rate=0.0, for_rate=0.0, tenor=1.0)
        smile = smile_from_distribution(dist, ms)
        vols = np.asarray(smile.vol(smile.default_grid(301)))
        assert np.max(np.abs(vols - 0.3)) <= 1e-8

    def test_uniform_smile_has_steep_wings(self):
        dist = Uniform(a=2.0109, b=5.4750)
        smile = smile_from_distribution(dist, market_state_for(dist))
        ks = smile.default_grid(101)
        vols = np.asarray(smile.vol(ks))
        assert vols[0] < vols[len(ks) // 2] < 1.0
        # vol collapses toward zero at the support edges
        assert vols[-1] < 0.2

    @pytest.mark.parametrize("spot", [99.0, 3.2768 * (1.0 + 1e-8)])
    def test_mismatched_forward_raises(self, spot):
        # GAMMA's mean is 3.2768; the second spot is off by 10x the tolerance.
        bad = MarketState(spot=spot, dom_rate=0.0, for_rate=0.0, tenor=1.0)
        with pytest.raises(InconsistentForward, match="distribution mean"):
            smile_from_distribution(GAMMA, bad)


class TestStrikeForDelta:
    def test_flat_smile_closed_form(self):
        smile = flat_smile(FLAT_MS, 0.2)
        anchor = strike_for_delta(smile, 0.5)
        assert anchor.strike == pytest.approx(100.0 * math.exp(0.02), rel=1e-12)

    def test_gamma_anchor_targets_hit(self):
        ms = market_state_for(GAMMA)
        smile = smile_from_distribution(GAMMA, ms)
        from scipy.special import ndtr

        for target in (0.25, 0.5, 0.75):
            anchor = strike_for_delta(smile, target)
            assert float(ndtr(-smile_d1(smile, anchor.strike))) == pytest.approx(target, abs=1e-10)

    def test_spot_pips_convention(self):
        ms = MarketState(spot=1.2, dom_rate=0.03, for_rate=0.02, tenor=2.0)
        smile = flat_smile(ms, 0.15)
        # Under spot-pips a raw |put delta| of 0.25 is the N(-d1) level 0.25 / e^{-qT}.
        anchor = strike_for_delta(smile, 0.25 / ms.df_for())
        from scipy.special import ndtr

        raw_put_delta = ms.df_for() * float(ndtr(-smile_d1(smile, anchor.strike)))
        assert raw_put_delta == pytest.approx(0.25, abs=1e-10)

    def test_monotone_target_strike(self):
        ms = market_state_for(GAMMA)
        smile = smile_from_distribution(GAMMA, ms)
        strikes = [strike_for_delta(smile, t).strike for t in (0.1, 0.25, 0.5, 0.75, 0.9)]
        assert strikes == sorted(strikes)

    def test_target_outside_domain(self):
        smile = replace(flat_smile(FLAT_MS, 0.2), k_lo=95.0, k_hi=108.0)
        with pytest.raises(TargetOutsideDomain):
            strike_for_delta(smile, 0.01)


REFERENCE_FAMILIES = {
    "gamma": GAMMA,
    "uniform": Uniform(a=2.0109, b=5.4750),
    "student_negative": StudentT(mu=3.7322, nu=3.9565),
    "student": StudentT(mu=3.7201, nu=7.3824),
    "normal": Normal(mu=11.3328, s=3.0),
    "lognormal": LogNormal(mu=1.0, s=0.25),
}
DELTA_TARGETS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
# Proxy-window widths whose grids bracket N(-d1) 0.005 and 0.995, wider than
# the default smile's window, leaving room for the spot-pips levels t / e^{-qT}.
REFERENCE_WIDTHS = {"student_negative": 1.6**3, "student": 1.6**2, "normal": 1.6}


def _smile_covering(dist, ms, width_mult, window):
    """The spline smile on GridSpec(width_mult), after checking that N(-d1)
    at its two end strikes brackets ``window``."""
    smile = smile_from_distribution(dist, ms, GridSpec(width_mult=width_mult))
    nd1_lo, nd1_hi = ndtr(-smile_d1(smile, np.array([smile.k_lo, smile.k_hi])))
    assert nd1_lo < window[0] and nd1_hi > window[1], (dist, width_mult)
    return smile


def _reference_smile(name):
    # A foreign rate makes the two conventions differ.
    dist = REFERENCE_FAMILIES[name]
    ms = market_state_for(dist, dom_rate=0.01, for_rate=0.002)
    return _smile_covering(dist, ms, REFERENCE_WIDTHS.get(name, 1.0), (0.005, 0.995))


class TestStrikesForDeltas:
    @pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("name", list(REFERENCE_FAMILIES))
    def test_targets_hit(self, name, conv):
        smile = _reference_smile(name)
        scale = smile.market.df_for() if conv is DeltaConvention.SPOT_PIPS else 1.0
        strikes = strikes_for_deltas(smile, [t / scale for t in DELTA_TARGETS])
        for target, strike in zip(DELTA_TARGETS, strikes):
            nd1 = float(ndtr(-smile_d1(smile, strike)))
            assert abs(scale * nd1 - target) <= 1e-12, (target, strike)

    @pytest.mark.parametrize("name", list(REFERENCE_FAMILIES))
    def test_together_equals_alone(self, name):
        # A target's iteration never reads another's, and spline reads do
        # not depend on the array they sit in.
        smile = _reference_smile(name)
        together = strikes_for_deltas(smile, DELTA_TARGETS)
        alone = np.array([strikes_for_deltas(smile, [t])[0] for t in DELTA_TARGETS])
        assert np.array_equal(together, alone)
        anchors = [strike_for_delta(smile, t) for t in DELTA_TARGETS]
        assert np.array_equal(together, [a.strike for a in anchors])
        assert [a.vol for a in anchors] == [float(smile.vol(k)) for k in together]

    @pytest.mark.parametrize("j", [0, 17, DELTA_SAMPLES - 1], ids=["lo_end", "sample", "hi_end"])
    def test_root_on_a_sample_point(self, monkeypatch, j):
        # The bracket is closed: a target met exactly at a sampled strike
        # (a domain end included) is solved there on the first jet read.
        smile = replace(flat_smile(FLAT_MS, 0.2), k_lo=70.0, k_hi=140.0)
        xs = np.linspace(math.log(smile.k_lo), math.log(smile.k_hi), DELTA_SAMPLES)
        target = float(ndtr(-smile_d1(smile, np.exp(xs)))[j])
        reads = 0
        jet_fn = smile.jet_fn

        def counting_jet(lnk):
            nonlocal reads
            reads += 1
            return jet_fn(lnk)

        counted = smile_module.SmileCurve(
            market=smile.market, k_lo=smile.k_lo, k_hi=smile.k_hi,
            vol_fn=smile.vol_fn, jet_fn=counting_jet,
        )
        (strike,) = strikes_for_deltas(counted, [target])
        assert reads == 1
        assert strike == np.exp(xs)[j]

    def test_unbracketed_target_raises(self):
        smile = replace(flat_smile(FLAT_MS, 0.2), k_lo=95.0, k_hi=108.0)
        with pytest.raises(TargetOutsideDomain, match="target 0.01 not bracketed"):
            strikes_for_deltas(smile, [0.5, 0.01])

    def test_no_targets(self):
        assert strikes_for_deltas(flat_smile(FLAT_MS, 0.2), []).shape == (0,)

    def test_exhausted_budget_off_the_floor_raises(self, monkeypatch):
        # After the budget, only residuals within 4 eps of the target pass.
        monkeypatch.setattr(smile_module, "DELTA_MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="delta solve iteration budget exhausted"):
            strikes_for_deltas(_reference_smile("gamma"), DELTA_TARGETS)


def strike_form_density(smile, grid, mode="analytic"):
    """The density formula's strike-space form, the reference for the library's
    log-strike form: sigma' = sigma_dot / K and sigma'' = (sigma_ddot - sigma_dot) / K^2.

    p(K) = [1 + 2K sqrt(T) d1 sigma' + K^2 T (d1 d2 sigma'^2 + sigma sigma'')]
           * e^{-d2^2/2} / (K sigma sqrt(2 pi T))
    """
    k, sig, sig_dot, sig_ddot, d1, d2 = smile_module._terms(smile, grid, mode)
    t = smile.market.tenor
    s1, s2 = sig_dot / k, (sig_ddot - sig_dot) / (k * k)
    bracket = 1.0 + 2.0 * k * math.sqrt(t) * d1 * s1 + k * k * t * (d1 * d2 * s1 * s1 + sig * s2)
    return bracket * np.exp(-0.5 * d2 * d2) / (k * sig * math.sqrt(2.0 * math.pi * t))


class TestDensityFromSmile:
    def test_flat_smile_recovers_lognormal(self):
        smile = flat_smile(FLAT_MS, 0.2)
        ln = LogNormal(mu=math.log(100.0) - 0.02, s=0.2)
        grid = np.exp(np.linspace(math.log(ln.quantile(0.01)), math.log(ln.quantile(0.99)), 1001))
        got = density_from_smile(smile, grid)
        ref = ln.pdf(grid)
        assert np.max(np.abs(got.values - ref) / ref) <= 1e-6

    @pytest.mark.parametrize("backend", ["flat", "vv-first"])
    def test_zero_tenor_is_degenerate(self, backend):
        # d1 divides by sigma sqrt(T), zero here.
        ms = replace(FLAT_MS, tenor=0.0)
        if backend == "flat":
            smile = flat_smile(ms, 0.2)
        else:
            quotes = ((90.0, 0.25), (100.0, 0.2), (110.0, 0.22))
            anchors = tuple(DeltaAnchor(0.5, k, v) for k, v in quotes)
            smile = vv_smile(ThreeQuoteSmile(anchors=anchors, market=ms), 80.0, 120.0, "first")
        grid = np.linspace(85.0, 115.0, 7)
        for read in (density_from_smile, density_with_margin, nonnegativity_margin):
            with pytest.raises(DegenerateTenor, match="density undefined at zero tenor"):
                read(smile, grid)

    def test_margin_one_for_flat(self):
        smile = flat_smile(FLAT_MS, 0.2)
        grid = smile.default_grid(101)
        assert nonnegativity_margin(smile, grid) == pytest.approx(1.0, abs=1e-12)

    def test_dual_formulas_agree_analytic(self):
        smile = synthetic_sine_smile(FLAT_MS)
        grid = smile.default_grid(501)
        a = density_from_smile(smile, grid).values
        assert np.max(np.abs(a - strike_form_density(smile, grid))) <= 1e-8

    def test_dual_formulas_agree_fd(self):
        ms = market_state_for(GAMMA)
        smile = smile_from_distribution(GAMMA, ms)
        grid = np.exp(
            np.linspace(math.log(smile.k_lo) + 0.01, math.log(smile.k_hi) - 0.01, 501)
        )
        a = density_from_smile(smile, grid, mode="fd").values
        assert np.max(np.abs(a - strike_form_density(smile, grid, mode="fd"))) <= 1e-8

    def test_fd_close_to_analytic(self):
        smile = synthetic_sine_smile(FLAT_MS)
        grid = np.exp(np.linspace(math.log(smile.k_lo) + 0.01, math.log(smile.k_hi) - 0.01, 301))
        a = density_from_smile(smile, grid).values
        b = density_from_smile(smile, grid, mode="fd").values
        # The central differences' O(h^2) error: 8.9e-11 at FD_STEP = 1e-3,
        # 3.6e-10 at twice the step; the bound is 2.25 times the first.
        assert np.max(np.abs(a - b)) <= 2e-10

    def test_domain_too_narrow(self):
        smile = replace(flat_smile(FLAT_MS, 0.2), k_lo=80.0, k_hi=120.0)
        with pytest.raises(DomainTooNarrow):
            density_from_smile(smile, np.linspace(70.0, 130.0, 50))
        with pytest.raises(DomainTooNarrow):
            density_from_smile(smile, np.linspace(80.0, 120.0, 50), mode="fd")


# The uniform smile crashes to zero vol at its support edges; recovering its
# density to 1e-5 at the 98%-mass boundary needs the denser grid.
ROUND_TRIP_CASES = [
    (LogNormal(mu=1.0, s=0.25), GridSpec(), 1e-6),
    (Gamma(kappa=5.12, theta=0.64), GridSpec(width_mult=1.3), 1e-5),
    (Normal(mu=11.3328, s=3.0), GridSpec(width_mult=1.5), 1e-5),
    (StudentT(mu=3.7201, nu=7.3824), GridSpec(width_mult=2.0), 1e-5),
    (Uniform(a=2.0109, b=5.4750), GridSpec(n=32001), 1e-5),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dist,grid,tol", ROUND_TRIP_CASES, ids=lambda v: type(v).__name__ if hasattr(v, "pdf") else ""
    )
    def test_density_recovery_central_98(self, dist, grid, tol):
        ms = market_state_for(dist)
        smile = smile_from_distribution(dist, ms, grid)
        p0 = dist.mass_below_zero()
        lo = dist.quantile(p0 + 0.01 * (1.0 - p0))
        hi = dist.quantile(p0 + 0.99 * (1.0 - p0))
        lo = max(lo, smile.k_lo * 1.001)
        hi = min(hi, smile.k_hi * 0.999)
        window = np.exp(np.linspace(math.log(lo), math.log(hi), 2001))
        got = density_from_smile(smile, window).values
        ref = np.asarray(dist.pdf(window))
        assert np.max(np.abs(got - ref) / ref) <= tol

    def test_recovered_mean_matches_forward(self):
        ms = market_state_for(GAMMA)
        smile = _smile_covering(GAMMA, ms, 1.6, (0.002, 0.998))
        grid = np.exp(
            np.linspace(math.log(smile.k_lo) + 1e-6, math.log(smile.k_hi) - 1e-6, 4001)
        )
        dens = density_from_smile(smile, grid)
        mean = np.trapezoid(grid * dens.values, grid)
        assert abs(mean - ms.forward()) <= 1e-3 * ms.forward()


def completed_1y(method, variant="market"):
    row = parse_surface(GAMMA_CSV.read_bytes())[8]
    return complete_expiry(row, method, DeltaConvention.SPOT_PIPS, vv_variant=variant).smile


JET_BACKENDS = {
    "spline": lambda: smile_from_distribution(GAMMA, market_state_for(GAMMA), GridSpec(n=501)),
    "flat": lambda: flat_smile(FLAT_MS, 0.2),
    "circle": lambda: completed_1y("circle"),
    "conic": lambda: completed_1y("ellipse"),
    "vv-first": lambda: completed_1y("vanna-volga", "first"),
    "vv-market": lambda: completed_1y("vanna-volga", "market"),
}


def completed_shipped_rows(method, variant="market"):
    """Every row of both shipped surfaces, completed under spot-pips."""
    return [
        complete_expiry(row, method, DeltaConvention.SPOT_PIPS, vv_variant=variant)
        for path in SHIPPED_SURFACES
        for row in parse_surface(path.read_bytes())
    ]


def with_market_vv_extras(market, lnk):
    """lnk plus the clamped upper wing and the two roots of d1 d2 (last four points)."""
    roots = np.array([market.a1, market.a2]) * market.c
    return np.concatenate([lnk, lnk[-1] + np.linspace(0.0, 1.0, 101), roots, roots + 1e-9])


def market_vv_branches(market, lnk):
    """The clamped mask and each branch's closed-form jet, built from ``_pieces``.

    The main branch is the rationalised quotient sigma2 + B / u with
    u = sqrt(sigma2^2 + D B) + sigma2; the clamped one, where that square-root
    argument is not positive, is sigma2 - sigma2 / D.
    """
    s2 = market.s2
    b, b1, b2, dd, dd1, dd2 = market._pieces(lnk)
    arg = s2 * s2 + dd * b
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.sqrt(arg)
        u = w + s2
        w1 = (dd1 * b + dd * b1) / (2.0 * w)
        w2 = (dd2 * b + 2.0 * dd1 * b1 + dd * b2) / (2.0 * w) - w1 * w1 / w
        main = (
            s2 + b / u,
            b1 / u - b * w1 / (u * u),
            b2 / u - (2.0 * b1 * w1 + b * w2) / (u * u) + 2.0 * b * w1 * w1 / (u * u * u),
        )
        clamped = (
            s2 - s2 / dd,
            s2 * dd1 / (dd * dd),
            s2 * (dd2 * dd - 2.0 * dd1 * dd1) / (dd * dd * dd),
        )
    return arg <= 0.0, main, clamped


class TestDensityWithoutBracket:
    """``density_from_smile``, ``density_with_margin`` and
    ``nonnegativity_margin`` read one bracket: values and margin agree bit
    for bit."""

    @staticmethod
    def _check(smile, grid):
        joint, margin = density_with_margin(smile, grid)
        alone = density_from_smile(smile, grid)
        assert np.array_equal(alone.values, joint.values)
        assert np.array_equal(alone.strikes, joint.strikes)
        assert nonnegativity_margin(smile, grid) == margin

    @pytest.mark.parametrize(
        "method, variant",
        [("circle", "market"), ("ellipse", "market"), ("vanna-volga", "market"),
         ("vanna-volga", "first")],
        ids=["circle", "ellipse", "vv-market", "vv-first"],
    )
    def test_completed_shipped_rows(self, method, variant):
        for done in completed_shipped_rows(method, variant):
            ks = sorted(done.label_strikes.values())
            self._check(done.smile, np.exp(np.linspace(math.log(ks[0]), math.log(ks[-1]), 2001)))

    @pytest.mark.parametrize("backend", list(JET_BACKENDS))
    def test_default_grid(self, backend):
        smile = JET_BACKENDS[backend]()
        self._check(smile, smile.default_grid())


class TestVolStrikeCheck:
    @pytest.mark.parametrize("strike", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("backend", ["spline", "circle", "vv-market"])
    def test_nonpositive_strike_is_invalid_input(self, backend, strike):
        smile = JET_BACKENDS[backend]()
        with pytest.raises(InvalidInput, match=f"strike {strike:g} is not positive"):
            smile.vol(strike)
        with pytest.raises(InvalidInput, match=f"strike {strike:g} is not positive"):
            smile.vol(np.array([smile.k_lo, strike, smile.k_hi]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("backend", list(JET_BACKENDS))
    @pytest.mark.parametrize("strike", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_strike_is_invalid_input(self, backend, strike):
        smile = JET_BACKENDS[backend]()
        with pytest.raises(InvalidInput, match=f"strike {strike:g} is not positive and finite"):
            smile.vol(strike)
        with pytest.raises(InvalidInput, match=f"strike {strike:g} is not positive and finite"):
            smile.vol(np.array([smile.k_lo, strike]))

    @pytest.mark.parametrize("vol", [math.nan, math.inf, 0.0, -0.1])
    def test_flat_smile_vol_must_be_finite_positive(self, vol):
        with pytest.raises(InvalidInput, match="vol .* is not positive and finite"):
            flat_smile(FLAT_MS, vol)


SCALAR_READ_BACKENDS = {
    "circle": ("circle", "market"),
    "ellipse": ("ellipse", "market"),
    "vv-market": ("vanna-volga", "market"),
    "vv-first": ("vanna-volga", "first"),
}


class TestScalarReads:
    """One strike read through ``SmileCurve.vol`` is a float equal, bit for
    bit, to its entry in one array read."""

    @staticmethod
    def _check(smile, strikes, rng):
        inside = np.exp(rng.uniform(math.log(smile.k_lo), math.log(smile.k_hi), 50))
        strikes = np.concatenate([strikes, inside])
        whole = smile.vol(strikes)
        for k, want in zip(strikes.tolist(), whole.tolist()):
            got = smile.vol(k)
            assert type(got) is float and got == want, k
            assert smile.vol(np.float64(k)) == want

    @pytest.mark.parametrize("backend", list(SCALAR_READ_BACKENDS))
    def test_completed_shipped_rows(self, backend):
        rng = np.random.default_rng(7)
        for done in completed_shipped_rows(*SCALAR_READ_BACKENDS[backend]):
            self._check(done.smile, np.array(list(done.label_strikes.values())), rng)

    @pytest.mark.parametrize("backend", ["spline", "flat"])
    def test_spline_and_flat(self, backend):
        smile = JET_BACKENDS[backend]()
        self._check(smile, smile.default_grid(9), np.random.default_rng(8))


class TestJet:
    @pytest.mark.parametrize("backend", list(JET_BACKENDS))
    def test_sigma_is_vol_fn(self, backend):
        smile = JET_BACKENDS[backend]()
        lnk = np.log(smile.default_grid(401))
        if backend == "vv-market":
            # The grid crosses both branches; the roots of d1 d2 are main-branch points.
            market = smile.jet_fn.__self__
            lnk = with_market_vv_extras(market, lnk)
            clamped, _, _ = market_vv_branches(market, lnk)
            dd = market._pieces(lnk)[3]
            assert np.any(clamped)
            assert not np.any(clamped[-4:]) and np.all(np.abs(dd[-4:]) <= 1e-8)
        assert np.array_equal(smile.jet_fn(lnk)[0], smile.vol_fn(lnk))

    def test_market_vv_branches_evaluated_apart(self):
        # One grid through the main and clamped branches, with the roots of
        # d1 d2 in the main one.  On each branch's points, jet (and vol) must
        # give that branch's closed forms, built here from _pieces.
        smile = completed_1y("vanna-volga", "market")
        market = smile.jet_fn.__self__
        lnk = with_market_vv_extras(market, np.log(smile.default_grid(401)))
        clamped, main, pinned = market_vv_branches(market, lnk)
        assert np.any(clamped) and not np.all(clamped)
        assert not np.any(clamped[-4:])
        whole = market.jet(lnk)
        for got, want_main, want_clamped in zip(whole, main, pinned):
            assert np.array_equal(got[~clamped], want_main[~clamped])
            assert np.array_equal(got[clamped], want_clamped[clamped])
        vol = market.vol(lnk)
        assert np.array_equal(vol[~clamped], main[0][~clamped])
        assert np.array_equal(vol[clamped], pinned[0][clamped])

    def test_market_vv_read_alone_equals_read_in_grid(self):
        # A strike's vol and jet do not depend on the array it is read in.
        for done in completed_shipped_rows("vanna-volga"):
            smile = done.smile
            lnk = np.log(smile.default_grid(201))
            alone_vol = [smile.vol_fn(x) for x in lnk.tolist()]
            alone_jet = np.array([smile.jet_fn(x) for x in lnk.tolist()]).T
            assert np.array_equal(smile.vol_fn(lnk), alone_vol)
            assert np.array_equal(np.array(smile.jet_fn(lnk)), alone_jet)

    def test_market_vv_clamped_wings_read_alone_equal_read_in_grid(self):
        # The shipped rows' domains hold no clamped point, so extend a few
        # rows' grids through both clamped wings and the roots of d1 d2.
        wings = np.zeros(2, dtype=int)
        for done in completed_shipped_rows("vanna-volga")[::9]:
            market = done.smile.jet_fn.__self__
            lnk = np.log(done.smile.default_grid(101))
            lower = lnk[0] - np.linspace(3.0, 0.0, 101)[:-1]
            lnk = with_market_vv_extras(market, np.concatenate([lower, lnk]))
            clamped, _, pinned = market_vv_branches(market, lnk)
            wings += [np.sum(clamped[:100]), np.sum(clamped[-105:-4])]
            alone_vol = [done.smile.vol_fn(x) for x in lnk.tolist()]
            alone_jet = np.array([done.smile.jet_fn(x) for x in lnk.tolist()]).T
            vol, jet = done.smile.vol_fn(lnk), np.array(done.smile.jet_fn(lnk))
            assert np.array_equal(vol, alone_vol)
            assert np.array_equal(jet, alone_jet)
            for got, want in zip(jet, pinned):
                assert np.array_equal(got[clamped], want[clamped])
        assert np.all(wings > 0)


def _mp_sigma(done):
    """sigma(ln K) of a completion in mpmath, from the backend's float parameters.

    Circles and conics take the fitted shape and the context; vanna-volga
    takes the anchor vols and the backend's log-strikes and d1 terms, and
    the market variant its quotient in the textbook form.
    """
    mp = mpmath.mp
    if done.shape is None:
        backend = done.smile.jet_fn.__self__
        m, vols = backend.w.m, [a.vol for a in done.anchors]

        def weights(x):
            return [
                mp.fprod((x - m[j]) / (m[i] - m[j]) for j in range(3) if j != i)
                for i in range(3)
            ]

        if done.smile.label == "vanna-volga-first":
            return lambda x: mp.fdot(weights(x), vols)
        s2, c = mp.mpf(backend.s2), mp.mpf(backend.c)

        def d1d2(x):
            return (backend.a1 - x / c) * (backend.a2 - x / c)

        def market_vv(x):
            w = weights(x)
            p = mp.fdot(w, vols) - s2
            q = mp.fsum(wi * d1d2(mi) * (si - s2) ** 2 for wi, mi, si in zip(w, m, vols))
            dd = d1d2(x)
            arg = s2 * s2 + dd * (2 * s2 * p + q)
            if arg <= 0:
                return s2 - s2 / dd
            return s2 + (-s2 + mp.sqrt(arg)) / dd

        return market_vv
    r_scale = mp.mpf(done.ctx.radius_scale)
    ln_atm = mp.log(done.ctx.atm_rn)

    def sigma(x):
        phi = 2 * mp.atan((x - ln_atm) / r_scale) - mp.pi / 2
        cos, sin = mp.cos(phi), mp.sin(phi)
        if isinstance(done.shape, CircleShape):
            cx, cy = done.shape.center
            g = cx * cos + cy * sin
            rho = g + mp.sqrt(g * g - cx * cx - cy * cy + mp.mpf(done.shape.radius) ** 2)
        else:
            a, b, cc, d, e, f = done.shape.coefficients
            quad = a * cos * cos + b * cos * sin + cc * sin * sin
            lin = d * cos + e * sin
            rho = (-lin + mp.sqrt(lin * lin - 4 * quad * f)) / (2 * quad)
        return rho - r_scale

    return sigma


ORACLE_BACKENDS = {
    "circle": ("circle", "market"),
    "conic": ("ellipse", "market"),
    "vv-first": ("vanna-volga", "first"),
    "vv-market": ("vanna-volga", "market"),
}


class TestOracle:
    @pytest.mark.parametrize("backend", list(ORACLE_BACKENDS))
    def test_jet_matches_mpmath(self, backend):
        # sigma, sigma' and sigma'' against 40-digit derivatives of the same
        # function, relative to the row's largest |sigma''| or to 1 where
        # that is smaller.  vv-first is nearly straight on the circle
        # surface's short tenors (|sigma''| about 2e-7), and its Lagrange
        # slope, a sum of terms of size sigma / (anchor spacing), is known in
        # floats only to about 1e-14 there.  Market vanna-volga adds
        # points where |d1 d2| is 1e-6 to 1e-2, around both of its roots.
        for done in completed_shipped_rows(*ORACLE_BACKENDS[backend]):
            lnk = np.log(done.smile.default_grid(41))
            if backend == "vv-market":
                market = done.smile.jet_fn.__self__
                near = np.concatenate([-np.geomspace(1e-6, 1e-2, 5), np.geomspace(1e-6, 1e-2, 5)])
                roots = (market.a1 * market.c, market.a2 * market.c)
                lnk = np.concatenate([lnk, *(root + near for root in roots)])
            with mpmath.workdps(40):
                sigma = _mp_sigma(done)
                ref = np.array(
                    [[float(v) for v in mpmath.diffs(sigma, x, 2)] for x in lnk.tolist()]
                )
            got = np.array(done.smile.jet_fn(lnk)).T
            err = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref[:, 2])), 1.0)
            assert err <= 1e-12, (done.smile.market.tenor, err)


class TestAtmRnStrike:
    def test_flat_matches_closed_form(self):
        smile = flat_smile(FLAT_MS, 0.2)
        k = float(strikes_for_deltas(smile, [0.5])[0])
        assert k == pytest.approx(100.0 * math.exp(0.02), rel=1e-12)

    def test_gamma_straddle_neutral(self):
        ms = market_state_for(GAMMA)
        smile = smile_from_distribution(GAMMA, ms)
        k = float(strikes_for_deltas(smile, [0.5])[0])
        assert float(smile_d1(smile, k)) == pytest.approx(0.0, abs=1e-10)
