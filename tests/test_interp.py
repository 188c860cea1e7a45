"""The natural spline in smilegeo._interp against the scipy routine it
reproduces, and the point-array resampling in smilegeo.analysis against
scipy's not-a-knot CubicSpline, one coordinate at a time.

Every spline comparison is bit for bit: equal NaN positions and equal bits
everywhere else (so -0.0 and 0.0 differ).
"""
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline
from scipy.special import ndtr as scipy_ndtr

from smilegeo import _interp
from smilegeo.analysis import (
    CURVATURE_EDGE_TRIM, CURVATURE_RESAMPLE_N, _spline_curvatures, curvature_profile,
)
from smilegeo.bsm import forward_log_moneyness, implied_vol_grid
from smilegeo.distributions import Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.errors import InvalidInput
from smilegeo.georep import represent
from smilegeo.smile import smile_from_distribution, strike_grid
from smilegeo.surface import complete_expiry, parse_surface
from smilegeo.workflows import distribution_report, market_state_for

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SURFACES = ("synthetic_circle_surface.csv", "synthetic_gamma_surface.csv")
FAMILIES = (
    Gamma(kappa=5.12, theta=0.64),
    Uniform(a=2.0109, b=5.4750),
    StudentT(mu=3.7322, nu=3.9565),
    Normal(mu=11.3328, s=3.0),
    LogNormal(mu=1.0, s=0.25),
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


def assert_resample_matches(pts):
    """The point array's resampled arc, x and y against a chord-length
    CubicSpline of each coordinate on its own, read at the same uniform arc."""
    arc, x, y, _, _ = _spline_curvatures(pts)
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    su = np.linspace(0.0, float(s[-1]), CURVATURE_RESAMPLE_N)
    kept = slice(2 + CURVATURE_EDGE_TRIM, -(2 + CURVATURE_EDGE_TRIM))
    assert same_bits(arc, su[kept])
    for j, got in enumerate((x, y)):
        assert same_bits(got, CubicSpline(s, pts[:, j])(su)[kept]), j


def walk(t, heading):
    """Points whose chord steps are the steps of ``t``, step i heading ``heading[i]``."""
    steps = np.diff(t)[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
    return np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])


def random_nodes(rng, n, kind):
    """Strictly increasing nodes: smooth, cubed-uniform or with rare long gaps."""
    if kind == 0:
        steps = rng.exponential(1.0, n - 1)
    elif kind == 1:
        steps = rng.uniform(0.01, 1.0, n - 1) ** 3
    else:
        steps = np.where(rng.random(n - 1) < 0.1, 50.0, 0.01) * rng.uniform(0.5, 1.0, n - 1)
    start = rng.normal()
    return np.concatenate([[start], start + np.cumsum(steps)])


class TestSpline:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_curves(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 2501)) if seed else 9
        t = random_nodes(rng, n, seed % 3)
        assert_resample_matches(walk(t, np.cumsum(rng.normal(scale=0.3, size=n - 1))))

    @pytest.mark.parametrize(
        "t",
        [
            # Chord steps that make CubicSpline's banded solve interchange rows.
            [0.0, 1.0, 2.0, 100.0, 101.0, 102.0, 300.0, 301.0, 5000.0],
            [0.0, 100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 10000.0],
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.001, 100.0],
            [0.0, 1.0, 2.0, 3.0],
        ],
    )
    def test_pivoting_spacings(self, t):
        t = np.asarray(t)
        assert_resample_matches(walk(t, np.sin(t[1:])))

    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: type(d).__name__)
    def test_report_curves(self, dist):
        assert_resample_matches(distribution_report(dist).curve.points)

    @pytest.mark.parametrize("surface", SURFACES)
    def test_cli_curves(self, surface):
        for row in parse_surface((DATA / surface).read_bytes()):
            completed = complete_expiry(row, "circle")
            curve = represent(completed.smile, completed.ctx, completed.smile.default_grid(2001))
            assert_resample_matches(curve.points)


def read_points(x):
    """The knots, the midpoints, both ends, just and well beyond both ends, and NaN."""
    span = x[-1] - x[0]
    edges = [x[0], x[-1], np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
             x[0] - 0.3 * span, x[-1] + 0.3 * span, np.nan]
    return np.concatenate([x, 0.5 * (x[:-1] + x[1:]), edges])


def assert_natural_matches(x, y):
    """The natural spline's value read and jet against CubicSpline and its
    derivative splines, on array, numpy-scalar and 0-d reads."""
    ours = _interp.natural_spline(x, y)
    ref = CubicSpline(x, y, bc_type="natural")
    refs = (ref, ref.derivative(1), ref.derivative(2))
    xs = read_points(x)
    assert same_bits(ours(xs), ref(xs))
    for j, (got, want) in enumerate(zip(ours.jet(xs), refs)):
        assert same_bits(got, want(xs)), j
    for v in xs[np.r_[0, len(x) // 2, len(x), -8:0]]:
        for read in (np.float64(v), np.asarray(v)):
            assert same_bits(ours(read), ref(read)), v
            for j, (got, want) in enumerate(zip(ours.jet(read), refs)):
                assert same_bits(got, want(read)), (v, j)


def report_nodes(dist):
    """The (ln K, vol) nodes of the smile ``distribution_report`` builds."""
    ms = market_state_for(dist)
    strikes = strike_grid(dist, ms)
    return np.log(strikes), implied_vol_grid(ms, strikes, dist.call_price(ms, strikes))


class TestNaturalSpline:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_nodes(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 2501))
        x = random_nodes(rng, n, seed % 3)
        y = np.cumsum(rng.normal(size=n)) if seed % 2 else 0.2 + 0.05 * np.sin(x)
        assert_natural_matches(x, y)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_few_nodes(self, n):
        x = np.array([0.0, 1.0, 2.5, 2.75][:n])
        assert_natural_matches(x, np.cos(x))

    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: type(d).__name__)
    def test_report_grids(self, dist):
        lnk, vols = report_nodes(dist)
        assert_natural_matches(lnk, vols)

    @pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: type(d).__name__)
    def test_smile_reads_are_scipys(self, dist):
        lnk, vols = report_nodes(dist)
        smile = smile_from_distribution(dist, market_state_for(dist))
        ref = CubicSpline(lnk, vols, bc_type="natural")
        xs = read_points(lnk)
        assert same_bits(smile.vol_fn(xs), ref(xs))
        for nu, got in enumerate(smile.jet_fn(xs)):
            assert same_bits(got, ref.derivative(nu)(xs) if nu else ref(xs)), nu


Y5 = np.sin(np.arange(5.0))
BAD_INPUTS = [
    ([0.0, 1.0, np.nan, 3.0, 4.0], Y5),
    ([0.0, 1.0, 2.0, np.inf, 4.0], Y5),
    ([0.0, 1.0, 1.0, 3.0, 4.0], Y5),  # repeated node
    ([0.0, 2.0, 1.0, 3.0, 4.0], Y5),  # decreasing node
    ([0.0, 1.0, 2.0, 3.0, 4.0], np.where(np.arange(5) == 2, np.nan, Y5)),
    ([0.0, 1.0, 2.0, 3.0, 4.0], np.where(np.arange(5) == 2, np.inf, Y5)),
]


@pytest.mark.parametrize("x, y", BAD_INPUTS)
def test_value_errors_where_scipy_raises(x, y):
    # The package raises its own InvalidInput, which is a ValueError too.
    x = np.asarray(x)
    with pytest.raises(ValueError):
        CubicSpline(x, y)
    with pytest.raises(ValueError):
        CubicSpline(x, y, bc_type="natural")
    with pytest.raises(InvalidInput):
        _interp.natural_spline(x, y)


def scipy_profile(curve):
    """curvature_profile's points, strikes and N(-d1), read off the curve and
    its smile through scipy, and its arc length by scipy's trapezoid rule on
    the polar speed (rho'^2 + rho^2 phi'^2)^(1/2)."""
    inner = slice(2, -2)
    strikes = curve.strikes[inner]
    total = curve.smile.vol(strikes) * math.sqrt(curve.context.market.tenor)
    d1 = forward_log_moneyness(curve.context.market, strikes) / total + 0.5 * total
    lnk = np.log(curve.strikes)
    x = np.log(curve.strikes / curve.context.atm_rn) / curve.context.radius_scale
    dphi = 2.0 / ((1.0 + x * x) * curve.context.radius_scale)
    speed = np.hypot(curve.smile.jet_fn(lnk)[1], curve.radii * dphi)
    arc = cumulative_trapezoid(speed, lnk, initial=0.0)[inner]
    return curve.points[inner, 0], curve.points[inner, 1], strikes, scipy_ndtr(-d1), arc


# The profile's N(-d1) is math.erfc's, not scipy's: measured within 3.6e-15
# relative of scipy's ndtr on these five families (the Uniform).
N_MINUS_D1_RTOL = 1.5e-14


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: type(d).__name__)
def test_profile_matches_scipy_pipeline(dist):
    report = distribution_report(dist)
    profile = curvature_profile(report.curve, circle=report.circle)
    *want, n_minus_d1, arc = scipy_profile(report.curve)
    for name, a, b in zip(("x", "y", "strikes"), (profile.x, profile.y, profile.strikes), want):
        assert same_bits(a, b), name
    assert np.allclose(profile.n_minus_d1, n_minus_d1, rtol=N_MINUS_D1_RTOL, atol=0.0)
    assert np.allclose(profile.arc, arc, rtol=1e-13, atol=0.0)
