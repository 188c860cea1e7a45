"""Tests for curvature profiles, KL divergence, and the log-normal fit."""
import math
import pathlib

import numpy as np
import pytest
from scipy.special import digamma, polygamma

import smilegeo.analysis as analysis_module
from smilegeo.analysis import (
    _trapezoid_weights,
    best_lognormal,
    curvature_profile,
    euclidean_curvature,
    kl_divergence,
    similarity_curvature,
)
from smilegeo.distributions import (
    DensityCurve, Gamma, LogNormal, Normal, StudentT, Uniform, density_curve,
)
from smilegeo.errors import CurveTooShort, DegenerateMass, DisjointSupport, InvalidInput
from smilegeo.georep import context_for_smile, represent
from smilegeo.shapes import CircleShape
from smilegeo.smile import smile_from_distribution
from smilegeo.surface import complete_expiry, parse_surface
from smilegeo.workflows import distribution_report, market_state_for

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SURFACES = ("synthetic_circle_surface.csv", "synthetic_gamma_surface.csv")
REFERENCE = (
    Gamma(kappa=5.12, theta=0.64),
    Uniform(a=2.0109, b=5.4750),
    StudentT(mu=3.7322, nu=3.9565),
    StudentT(mu=3.7201, nu=7.3824),
    Normal(mu=11.3328, s=3.0),
    LogNormal(mu=1.0, s=0.25),
)


def circle_arc_points(center, radius, n=4001, span=2.2):
    """Representation-style sampling: rays from the origin, angles about it."""
    phis = np.linspace(-0.5 * math.pi - span, -0.5 * math.pi + span, n)
    u = np.column_stack([np.cos(phis), np.sin(phis)])
    proj = u @ np.asarray(center)
    t = proj + np.sqrt(proj * proj - np.dot(center, center) + radius * radius)
    return u * t[:, None]


def lognormal_curve(mu, s, n=4001, span=8.0):
    dist = LogNormal(mu=mu, s=s)
    grid = np.exp(np.linspace(mu - span * s, mu + span * s, n))
    return DensityCurve(strikes=grid, values=np.asarray(dist.pdf(grid)))


class TestCurvatureOnCircles:
    def test_unit_circle(self):
        pts = circle_arc_points((0.0, 0.0), 1.0)
        ke = euclidean_curvature(pts)
        ks = similarity_curvature(pts)
        assert np.nanmax(np.abs(ke - 1.0)) <= 1e-6
        assert np.nanmax(np.abs(ks)) <= 1e-5

    def test_scaled_circle_euclidean(self):
        pts = circle_arc_points((0.0, 0.0), 1.2)
        assert np.nanmax(np.abs(euclidean_curvature(pts) - 1.0 / 1.2)) <= 1e-6

    def test_random_circles(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            radius = rng.uniform(0.5, 3.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            offset = rng.uniform(0.0, 0.8) * radius
            center = (offset * math.cos(angle), offset * math.sin(angle))
            pts = circle_arc_points(center, radius)
            assert np.nanmax(np.abs(euclidean_curvature(pts) - 1.0 / radius)) <= 1e-6
            assert np.nanmax(np.abs(similarity_curvature(pts))) <= 1e-5

    def test_similarity_invariant_under_circle_transform(self):
        pts = circle_arc_points((0.25, -0.15), 1.4)
        ks = similarity_curvature(pts)
        moved = pts * 1.7 + np.array([0.4, -0.9])
        ks2 = similarity_curvature(moved)
        assert np.nanmax(np.abs(ks2 - ks)) <= 1e-5

    def test_similarity_invariant_on_noncircular_curve(self):
        # An ellipse arc is genuinely non-circular; the profile must still be
        # similarity invariant pointwise.
        t = np.linspace(0.4, 2.8, 4001)
        pts = np.column_stack([1.8 * np.cos(t), 0.9 * np.sin(t) - 1.2])
        ks = similarity_curvature(pts)
        moved = pts * 0.6 + np.array([2.0, 0.7])
        ks2 = similarity_curvature(moved)
        mask = np.isfinite(ks) & np.isfinite(ks2)
        assert np.max(np.abs(ks[mask])) > 0.1  # non-trivial profile
        assert np.max(np.abs(ks2[mask] - ks[mask])) <= 1e-5

    def test_too_short_raises(self):
        pts = circle_arc_points((0.0, 0.0), 1.0, n=5)
        with pytest.raises(CurveTooShort):
            euclidean_curvature(pts)
        with pytest.raises(CurveTooShort):
            similarity_curvature(circle_arc_points((0.0, 0.0), 1.0, n=8))

    @pytest.mark.parametrize("bad", ["nan", "inf", "adjacent_inf", "overflow", "lost_step"])
    def test_unusable_point_array_is_invalid_input(self, bad):
        # The resampling spline needs finite, strictly increasing chord
        # lengths; anything else is the package's InvalidInput, not scipy's
        # bare ValueError, nor a numpy RuntimeWarning (inf - inf, or a chord
        # length whose running sum overflows) ahead of it.
        pts = circle_arc_points((0.0, 0.0), 1.0, n=9)
        if bad == "lost_step":  # distinct points, but 1e17 + 1 rounds to 1e17
            pts = np.column_stack([[0.0] + [1e17] * 8, np.arange(9.0)])
        elif bad == "overflow":
            pts = np.column_stack([[0.0, 1e308] * 4 + [0.0], np.arange(9.0)])
        elif bad == "adjacent_inf":
            pts[4:6, 0] = math.inf
        else:
            pts[4, 0] = float(bad)
        with pytest.raises(InvalidInput):
            curvature_profile(pts)

    @pytest.mark.parametrize("scale", [1e-120, 1e150, 1e-200, 1e300])
    def test_arc_of_extreme_scale(self, scale):
        # kappa_E scales as 1/scale and kappa_s not at all, so the profile
        # of a scaled arc is the unit arc's, with no RuntimeWarning on the way.
        t = np.linspace(0.3, 2.5, 200)
        pts = np.column_stack([np.cos(t), np.sin(t)])
        unit = curvature_profile(pts)
        scaled = curvature_profile(pts * scale)
        assert np.max(np.abs(scaled.kappa_e * scale - 1.0)) <= 2e-5
        assert np.max(np.abs(scaled.kappa_s)) <= 1e-2
        assert np.allclose(scaled.kappa_e * scale, unit.kappa_e, rtol=1e-8, atol=0.0)
        assert np.allclose(scaled.kappa_s, unit.kappa_s, rtol=0.0, atol=1e-6)
        assert np.allclose(scaled.arc / scale, unit.arc, rtol=1e-12, atol=0.0)

    def test_arc_of_subnormal_scale_is_invalid_input(self):
        # At 1e-310 the arc's kappa_E, about 1e310, leaves the float range:
        # InvalidInput, with no overflow warning from scaling it back.
        t = np.linspace(0.3, 2.5, 200)
        with pytest.raises(InvalidInput, match="overflows"):
            curvature_profile(np.column_stack([np.cos(t), np.sin(t)]) * 1e-310)


class TestCurvatureOnEllipses:
    # On a circle kappa_s is 0 and the x' y''' - y' x''' term of the point-array
    # kappa_s vanishes, so only a non-circular closed form checks its sign and
    # weight.  x = a cos t, y = b sin t with D = a^2 sin^2 t + b^2 cos^2 t has
    # kappa_E = a b / D^{3/2} and kappa_s = 3 (a^2 - b^2) sin t cos t / (a b).
    # Measured on a = 1.8, b = 0.9, t in [0.4, 2.8]: 4001 points reach
    # 2.6e-9 relative on kappa_E and 2.4e-5 on kappa_s (whose peak is 2.25),
    # 401 points 1.3e-5 and 9.2e-3.  Each bound is 4x its figure.
    @pytest.mark.parametrize(
        "n, ke_tol, ks_tol", [(4001, 4 * 2.6e-9, 4 * 2.4e-5), (401, 4 * 1.3e-5, 4 * 9.2e-3)]
    )
    def test_point_array_closed_forms(self, n, ke_tol, ks_tol):
        a, b = 1.8, 0.9
        t = np.linspace(0.4, 2.8, n)
        profile = curvature_profile(np.column_stack([a * np.cos(t), b * np.sin(t)]))
        t = np.arctan2(profile.y / b, profile.x / a)  # each row's parameter
        d = a * a * np.sin(t) ** 2 + b * b * np.cos(t) ** 2
        kappa_e = a * b / d**1.5
        kappa_s = 3.0 * (a * a - b * b) * np.sin(t) * np.cos(t) / (a * b)
        assert np.max(np.abs(profile.kappa_e / kappa_e - 1.0)) <= ke_tol
        assert np.max(np.abs(profile.kappa_s - kappa_s)) <= ks_tol


class TestCurvatureOnRepresentations:
    def test_uniform_wings_have_large_excursions(self):
        # Non-bell-shaped input: the similarity curvature blows up at the
        # wings of the representation, unlike the near-circular gamma case.
        uniform = Uniform(a=2.0109, b=5.4750)
        u_smile = smile_from_distribution(uniform, market_state_for(uniform))
        u_ks = similarity_curvature(represent(u_smile))
        gamma = Gamma(kappa=5.12, theta=0.64)
        g_smile = smile_from_distribution(gamma, market_state_for(gamma))
        g_ks = similarity_curvature(represent(g_smile))
        assert np.nanmax(np.abs(u_ks)) > 100.0
        assert np.nanmax(np.abs(g_ks)) < 1.0


class TestCurvatureProfile:
    def test_dual_abscissas_present(self):
        from smilegeo.fitting import fit_circle_to_smile

        dist = Gamma(kappa=5.12, theta=0.64)
        ms = market_state_for(dist)
        smile = smile_from_distribution(dist, ms)
        curve = represent(smile)
        circle = fit_circle_to_smile(smile)
        profile = curvature_profile(curve, circle=circle)
        assert profile.n_minus_d1 is not None
        nd1 = profile.n_minus_d1
        assert np.all((nd1 > 0.0) & (nd1 < 1.0))
        assert np.all(np.diff(nd1) > -1e-10)
        assert nd1[-1] > nd1[0]
        assert np.all(np.diff(profile.angle_about_center) > 0.0)
        # Near-constant Euclidean curvature for this bell-shaped case.
        ke = profile.kappa_e[np.isfinite(profile.kappa_e)]
        assert (ke.max() - ke.min()) / np.median(ke) < 0.25

    def test_kappa_e_independent_of_strike_set(self):
        # kappa_E is read pointwise from the jet, so any strictly increasing
        # strike set gives the log-uniform grid's values where the two share
        # a strike (kappa_s, whose stencil needs the log-uniform grid, is not
        # compared).
        dist = Gamma(kappa=5.12, theta=0.64)
        smile = smile_from_distribution(dist, market_state_for(dist))
        grid = smile.default_grid(2001)
        rng = np.random.default_rng(3)
        extra = np.exp(rng.uniform(math.log(grid[0]), math.log(grid[-1]), 300))
        uneven = np.union1d(grid[::3], extra)
        ctx = context_for_smile(smile)
        on_grid = dict(zip(grid[2:-2], euclidean_curvature(represent(smile, ctx, grid))))
        shared = [(k, ke) for k, ke in zip(
            uneven[2:-2], euclidean_curvature(represent(smile, ctx, uneven))
        ) if k in on_grid]
        assert len(shared) > 600
        assert all(ke == on_grid[k] for k, ke in shared)

    def test_repeated_point_drops_out(self):
        # A point array resamples through the spline, which needs distinct
        # chord nodes: a point equal to the one before it drops out, and the
        # profile is that of the array without the repeat.
        dist = Gamma(kappa=5.12, theta=0.64)
        pts = represent(smile_from_distribution(dist, market_state_for(dist))).points
        doubled = np.insert(pts, 701, pts[700], axis=0)
        got, want = curvature_profile(doubled), curvature_profile(pts)
        for name in ("arc", "x", "y", "kappa_e", "kappa_s", "angle_about_center"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        assert got.strikes is None and got.n_minus_d1 is None

    def test_rows_follow_grid_points(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        smile = smile_from_distribution(dist, market_state_for(dist))
        ctx = context_for_smile(smile)
        for n in (9, 50, 2001):
            curve = represent(smile, ctx, smile.default_grid(n))
            profile = curvature_profile(curve)
            assert profile.arc.size == n - 4
            assert np.array_equal(profile.strikes, curve.strikes[2:-2])
            assert np.array_equal(profile.x, curve.points[2:-2, 0])
        with pytest.raises(CurveTooShort):
            curvature_profile(represent(smile, ctx, smile.default_grid(8)))


def surface_completions(method):
    for name in SURFACES:
        for row in parse_surface((DATA / name).read_bytes()):
            completed = complete_expiry(row, method)
            curve = represent(completed.smile, completed.ctx, completed.smile.default_grid(2001))
            circle = completed.shape if method == "circle" else None
            yield completed, curvature_profile(curve, circle=circle)


def conic_curvature(coefficients, x, y):
    """Signed implicit-form curvature of the conic F = 0 through (x, y), with F's gradient."""
    a, b, c, d, e, _ = coefficients
    fx, fy = 2.0 * a * x + b * y + d, b * x + 2.0 * c * y + e
    kappa = (fy * fy * 2.0 * a - 2.0 * fx * fy * b + fx * fx * 2.0 * c) / (fx * fx + fy * fy) ** 1.5
    return kappa, fx, fy


class TestJetCurvatureClosedForms:
    def test_circle_completions(self):
        # kappa_E = 1/r and kappa_s = 0 on every row of both shipped surfaces.
        for completed, profile in surface_completions("circle"):
            assert np.max(np.abs(profile.kappa_e * completed.shape.radius - 1.0)) <= 1e-13
            assert np.max(np.abs(profile.kappa_s)) <= 1e-10

    def test_ellipse_completions(self):
        # kappa_E against the conic's implicit form at the same points, and
        # kappa_s against -(grad kappa . T) / kappa^2 of that form, with T the
        # counter-clockwise tangent (the origin is inside, where F < 0).
        h = 1e-5
        for completed, profile in surface_completions("ellipse"):
            coefs, x, y = completed.shape.coefficients, profile.x, profile.y
            kappa, fx, fy = conic_curvature(coefs, x, y)
            assert np.max(np.abs(profile.kappa_e / kappa - 1.0)) <= 1e-13
            dk_dx = (conic_curvature(coefs, x + h, y)[0] - conic_curvature(coefs, x - h, y)[0]) / (2 * h)
            dk_dy = (conic_curvature(coefs, x, y + h)[0] - conic_curvature(coefs, x, y - h)[0]) / (2 * h)
            kappa_s = (dk_dx * fy - dk_dy * fx) / (np.hypot(fx, fy) * kappa * kappa)
            assert np.max(np.abs(profile.kappa_s - kappa_s)) <= 1e-8


    @pytest.mark.parametrize("dist", [
        Gamma(kappa=5.12, theta=0.64), Uniform(a=2.0109, b=5.4750), StudentT(mu=3.7322, nu=3.9565),
        Normal(mu=11.3328, s=3.0), LogNormal(mu=1.0, s=0.25),
    ], ids=lambda d: type(d).__name__)
    def test_distribution_smiles_polar_form(self, dist):
        # kappa_E against the polar-curve form (rho^2 + 2 rho_phi^2 - rho rho_phiphi)
        # / (rho^2 + rho_phi^2)^{3/2}, with phi's ln-K derivatives written out here.
        curve = distribution_report(dist).curve
        ctx = curve.context
        u = np.log(curve.strikes[2:-2])
        x = (u - math.log(ctx.atm_rn)) / ctx.radius_scale
        dphi = 2.0 / (ctx.radius_scale * (1.0 + x * x))
        d2phi = -4.0 * x / (ctx.radius_scale * (1.0 + x * x)) ** 2
        sig, dsig, d2sig = curve.smile.jet_fn(u)
        rho, rho_phi = ctx.radius_scale + sig, dsig / dphi
        rho_phiphi = (d2sig - rho_phi * d2phi) / (dphi * dphi)
        kappa = (rho * rho + 2.0 * rho_phi**2 - rho * rho_phiphi) / (rho * rho + rho_phi**2) ** 1.5
        assert np.max(np.abs(curvature_profile(curve).kappa_e / kappa - 1.0)) <= 1e-13


class TestKlDivergence:
    def test_identical_curves_zero(self):
        p = lognormal_curve(0.0, 0.2)
        report = kl_divergence(p, p)
        assert abs(report.kl_nats) <= 1e-10
        assert not report.pseudo

    def test_lognormal_closed_form(self):
        # KL(LN(m1,s1) || LN(m2,s2)) = ln(s2/s1) + (s1^2 + (m1-m2)^2)/(2 s2^2) - 1/2
        s1, s2 = 0.2, 0.25
        p = lognormal_curve(0.0, s1, n=8001, span=10.0)
        q = lognormal_curve(0.0, s2, n=8001, span=10.0)
        expected = math.log(s2 / s1) + s1 * s1 / (2.0 * s2 * s2) - 0.5
        report = kl_divergence(p, q)
        assert report.kl_nats == pytest.approx(expected, abs=2e-5)
        assert not report.pseudo

    def test_mean_shift_closed_form(self):
        s1 = s2 = 0.3
        m1, m2 = 0.0, 0.1
        p = lognormal_curve(m1, s1, n=8001, span=10.0)
        q = lognormal_curve(m2, s2, n=8001, span=10.0)
        expected = (m1 - m2) ** 2 / (2.0 * s2 * s2)
        assert kl_divergence(p, q).kl_nats == pytest.approx(expected, abs=2e-5)

    def test_nonnegative_and_order_of_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = lognormal_curve(rng.uniform(-0.2, 0.2), rng.uniform(0.1, 0.5))
            q = lognormal_curve(rng.uniform(-0.2, 0.2), rng.uniform(0.1, 0.5))
            assert kl_divergence(p, q).kl_nats >= -1e-10

    def test_nonnegative_for_arbitrary_shapes(self, monkeypatch):
        # Gibbs' inequality holds exactly for the discretely renormalised
        # sums, whatever the curve shapes, on a coarse grid too.
        monkeypatch.setattr(analysis_module, "KL_GRID_N", 257)
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from hypothesis.extra import numpy as hnp

        grid = np.exp(np.linspace(0.0, 1.0, 64))

        @given(
            pv=hnp.arrays(np.float64, 64, elements=st.floats(0.0, 10.0)),
            qv=hnp.arrays(np.float64, 64, elements=st.floats(1e-6, 10.0)),
        )
        @settings(max_examples=200, deadline=None)
        def check(pv, qv):
            if np.sum(pv) <= 0.0:
                return
            p = DensityCurve(strikes=grid, values=pv)
            q = DensityCurve(strikes=grid, values=qv)
            assert kl_divergence(p, q).kl_nats >= -1e-10

        check()

    def test_subnormal_values_stay_finite(self, monkeypatch):
        # p/q of subnormal values underflows to 0, and the trapezoid mass of
        # an all-subnormal curve to 0; neither may turn the divergence into
        # -inf or nan.
        monkeypatch.setattr(analysis_module, "KL_GRID_N", 257)
        grid = np.exp(np.linspace(0.0, 1.0, 64))
        tiny = 5e-324
        q = DensityCurve(strikes=grid, values=np.r_[7.0, np.full(63, 0.0625)])
        for pv in (np.r_[tiny, 3.0, np.full(62, tiny)], np.full(64, tiny)):
            p = DensityCurve(strikes=grid, values=pv)
            kl = kl_divergence(p, q).kl_nats
            assert math.isfinite(kl)
            assert kl >= -1e-10

    def test_clamping_sets_pseudo_flag(self):
        p = lognormal_curve(0.0, 0.2)
        grid = p.strikes
        qv = np.asarray(LogNormal(mu=0.0, s=0.2).pdf(grid)).copy()
        qv[: len(qv) // 10] = -0.01  # corrupt one wing
        q = DensityCurve(strikes=grid, values=qv)
        report = kl_divergence(p, q)
        assert report.pseudo
        assert 0.0 < report.clamped_fraction < 0.5
        assert report.kl_nats > 0.0

    def test_negative_p_rejected(self):
        grid = np.linspace(1.0, 2.0, 50)
        p = DensityCurve(strikes=grid, values=np.full(50, -0.1))
        q = DensityCurve(strikes=grid, values=np.full(50, 1.0))
        with pytest.raises(ValueError):
            kl_divergence(p, q)

    def test_disjoint_support(self):
        p = DensityCurve(strikes=np.linspace(1.0, 2.0, 50), values=np.ones(50))
        q = DensityCurve(strikes=np.linspace(3.0, 4.0, 50), values=np.ones(50))
        with pytest.raises(DisjointSupport):
            kl_divergence(p, q)

    def test_p_without_mass_on_the_overlap(self):
        # p is 0 on [2, 3], so the overlap [2.5, 3] holds none of its mass:
        # no KL is defined there, where 0/0 once gave 0.0 nats.
        p = density_curve(Uniform(a=1.0, b=2.0), np.linspace(1.0, 3.0, 201))
        q = DensityCurve(strikes=np.linspace(2.5, 4.0, 201), values=np.ones(201))
        with pytest.raises(DisjointSupport, match=r"p has no mass on the overlap \[2.5, 3\]"):
            kl_divergence(p, q)
        with pytest.raises(DisjointSupport):
            kl_divergence(p, (p, q))

    @pytest.mark.parametrize("dist", REFERENCE, ids=lambda d: repr(d))
    def test_several_q_equal_separate_calls(self, dist):
        # One p side per window serves every q: each report is the one its
        # own call gives, for q on p's window, clamped at the floor, on a
        # narrower window and on a wider one (whose overlap is p's window).
        report = distribution_report(dist)
        p, strikes = report.p_true, report.window_grid
        n = strikes.size
        vv = report.p_vanna_volga.values
        wide = np.exp(np.linspace(math.log(strikes[0]) - 0.2, math.log(strikes[-1]) + 0.2, 3001))
        qs = (
            report.p_circle,
            report.p_vanna_volga,
            report.p_best_lognormal,
            DensityCurve(strikes=strikes, values=np.where(np.arange(n) < n // 10, 0.0, vv)),
            DensityCurve(strikes=strikes[300:-700], values=vv[300:-700]),
            density_curve(report.best_lognormal_fit, wide),
        )
        shared = kl_divergence(p, qs)
        assert len(shared) == len(qs)
        for got, q in zip(shared, qs):
            want = kl_divergence(p, q)
            assert got.kl_nats == want.kl_nats
            assert got.clamped_fraction == want.clamped_fraction
            assert np.array_equal(got.grid, want.grid)
        assert shared[3].clamped_fraction > 0.09
        assert shared[4].grid[0] > p.strikes[0] and shared[4].grid[-1] < p.strikes[-1]
        assert np.array_equal(shared[5].grid, shared[0].grid)
        in_report = (report.kl_circle, report.kl_vanna_volga, report.kl_best_lognormal)
        for got, want in zip(in_report, shared):
            assert got.kl_nats == want.kl_nats
            assert got.clamped_fraction == want.clamped_fraction
            assert np.array_equal(got.grid, want.grid)


class TestTrapezoidWeights:
    def test_span_and_linear_exact_on_uneven_grid(self):
        # The end weights carry half a cell each: the weights sum to the
        # span and integrate a linear function exactly.
        x = 1.5 + np.cumsum(np.random.default_rng(9).uniform(0.01, 1.0, 40) ** 2)
        w = _trapezoid_weights(x)
        span = x[-1] - x[0]
        assert np.sum(w) == pytest.approx(span, rel=1e-14)
        assert np.sum(w * (2.0 - 3.0 * x)) == pytest.approx(
            2.0 * span - 1.5 * (x[-1] ** 2 - x[0] ** 2), rel=1e-13
        )


class TestBestLognormal:
    def test_self_fit(self):
        p = lognormal_curve(0.7, 0.3, n=8001, span=10.0)
        fit = best_lognormal(p)
        assert fit.mu == pytest.approx(0.7, abs=1e-6)
        assert fit.s == pytest.approx(0.3, abs=1e-6)

    def test_gamma_fit_matches_log_moment_oracle(self):
        # E[ln X] = digamma(kappa) + ln(theta); Var[ln X] = polygamma(1, kappa).
        dist = Gamma(kappa=5.12, theta=0.64)
        grid = np.exp(np.linspace(math.log(dist.quantile(1e-8)), math.log(dist.quantile(1 - 1e-8)), 20001))
        fit = best_lognormal(density_curve(dist, grid))
        assert fit.mu == pytest.approx(digamma(5.12) + math.log(0.64), abs=1e-6)
        assert fit.s == pytest.approx(math.sqrt(polygamma(1, 5.12)), abs=1e-6)

    def test_perturbed_parameters_never_beat_optimum(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        grid = np.exp(
            np.linspace(math.log(dist.quantile(1e-8)), math.log(dist.quantile(1 - 1e-8)), 20001)
        )
        p = density_curve(dist, grid)
        fit = best_lognormal(p)
        base = kl_divergence(p, density_curve(fit, grid)).kl_nats
        for dmu in (-0.01, 0.0, 0.01):
            for ds in (-0.01, 0.0, 0.01):
                if dmu == ds == 0.0:
                    continue
                other = LogNormal(mu=fit.mu * (1 + dmu), s=fit.s * (1 + ds))
                kl = kl_divergence(p, density_curve(other, grid)).kl_nats
                assert kl >= base - 1e-9

    def test_degenerate_mass_raises(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        narrow = np.linspace(2.5, 4.0, 501)
        with pytest.raises(DegenerateMass):
            best_lognormal(density_curve(dist, narrow))
