"""Tests for curvature profiles, KL divergence, and the log-normal fit."""
import math

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from smilegeo.analysis import (
    best_lognormal,
    curvature_profile,
    euclidean_curvature,
    kl_divergence,
    similarity_curvature,
)
from smilegeo.distributions import DensityCurve, Gamma, LogNormal, density_curve
from smilegeo.errors import CurveTooShort, DegenerateMass, DisjointSupport
from smilegeo.shapes import CircleShape
from smilegeo.workflows import market_state_for


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


class TestCurvatureOnRepresentations:
    def test_uniform_wings_have_large_excursions(self):
        # Non-bell-shaped input: the similarity curvature blows up at the
        # wings of the representation, unlike the near-circular gamma case.
        from smilegeo.georep import represent
        from smilegeo.smile import smile_from_distribution
        from smilegeo.distributions import Uniform

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
        from smilegeo.georep import represent
        from smilegeo.smile import smile_from_distribution
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

    def test_repeated_point_drops_out(self):
        # Two strikes an ulp apart can land on one point of the curve; the
        # profile is then that of the curve without the repeat.
        from smilegeo.georep import RepresentationCurve, represent
        from smilegeo.smile import smile_from_distribution

        dist = Gamma(kappa=5.12, theta=0.64)
        curve = represent(smile_from_distribution(dist, market_state_for(dist)))
        i = 700
        doubled = RepresentationCurve(
            strikes=np.insert(curve.strikes, i + 1, np.nextafter(curve.strikes[i], np.inf)),
            angles=np.insert(curve.angles, i + 1, np.nextafter(curve.angles[i], np.inf)),
            radii=np.insert(curve.radii, i + 1, curve.radii[i]),
            points=np.insert(curve.points, i + 1, curve.points[i], axis=0),
            context=curve.context,
        )
        got, want = curvature_profile(doubled), curvature_profile(curve)
        for name in ("arc", "x", "y", "kappa_e", "kappa_s", "angle_about_center",
                     "n_minus_d1", "strikes"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


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

    def test_nonnegative_for_arbitrary_shapes(self):
        # Gibbs' inequality holds exactly for the discretely renormalised
        # sums, whatever the curve shapes.
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
            assert kl_divergence(p, q, n=257).kl_nats >= -1e-10

        check()

    def test_subnormal_values_stay_finite(self):
        # p/q of subnormal values underflows to 0, and the trapezoid mass of
        # an all-subnormal curve to 0; neither may turn the divergence into
        # -inf or nan.
        grid = np.exp(np.linspace(0.0, 1.0, 64))
        tiny = 5e-324
        q = DensityCurve(strikes=grid, values=np.r_[7.0, np.full(63, 0.0625)])
        for pv in (np.r_[tiny, 3.0, np.full(62, tiny)], np.full(64, tiny)):
            p = DensityCurve(strikes=grid, values=pv)
            kl = kl_divergence(p, q, n=257).kl_nats
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
        base = kl_divergence(p, density_curve(fit, grid, rescale=False)).kl_nats
        for dmu in (-0.01, 0.0, 0.01):
            for ds in (-0.01, 0.0, 0.01):
                if dmu == ds == 0.0:
                    continue
                other = LogNormal(mu=fit.mu * (1 + dmu), s=fit.s * (1 + ds))
                kl = kl_divergence(p, density_curve(other, grid, rescale=False)).kl_nats
                assert kl >= base - 1e-9

    def test_degenerate_mass_raises(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        narrow = np.linspace(2.5, 4.0, 501)
        with pytest.raises(DegenerateMass):
            best_lognormal(density_curve(dist, narrow))
