"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
printed lines on passing runs).  Every tolerance is pinned here; the
runtime budgets are asserted too.
"""
import math
import time

import numpy as np
import pytest

from smilegeo.analysis import (
    euclidean_curvature,
    kl_divergence,
    similarity_curvature,
)
from smilegeo.bsm import (
    MarketState,
    OptionSide,
    bsm_price,
    d1_d2,
    d1_d2_identity_residual,
    implied_vol_grid,
    std_normal_pdf,
)
from smilegeo.distributions import (
    Gamma,
    LogNormal,
    Normal,
    StudentT,
    Uniform,
    density_curve,
)
from smilegeo.errors import CollinearPoints, DegenerateConfiguration
from smilegeo.georep import ReprContext, represent
from smilegeo.shapes import circumcircle, conic_through_5, transform_circle
from smilegeo.smile import (
    GridSpec,
    density_from_smile,
    flat_smile,
    smile_from_distribution,
)
from smilegeo.surface import (
    ANCHOR_LABELS,
    DeltaConvention,
    discrepancy_table,
    parse_surface,
    synthetic_circle_surface,
    synthetic_gamma_surface,
)
from smilegeo.workflows import distribution_report, market_state_for
from test_smile import strike_form_density

GAMMA = Gamma(kappa=5.12, theta=0.64)
UNIFORM = Uniform(a=2.0109, b=5.4750)
STUDENT_NEGATIVE = StudentT(mu=3.7322, nu=3.9565)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.2f}s, budget {self.seconds:.0f}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")


def test_c01_lognormal_maps_to_circle_at_origin():
    with _Budget("1 log-normal <-> circle at origin", 1.0):
        worst_offset = worst_radius = 0.0
        for vol in (0.05, 0.1, 0.2, 0.5):
            for r_scale in (0.5, 1.0, 2.0):
                ms = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.005, tenor=1.0)
                smile = flat_smile(ms, vol)
                atm = ms.spot * math.exp((0.005 + 0.5 * vol * vol) * 1.0)
                ctx = ReprContext(market=ms, atm_rn=atm, radius_scale=r_scale)
                curve = represent(smile, ctx, smile.default_grid(501))
                radii = np.hypot(curve.points[:, 0], curve.points[:, 1])
                worst_radius = max(worst_radius, float(np.max(np.abs(radii - (r_scale + vol)))))
                n = len(curve.points)
                fitted = circumcircle(
                    curve.points[0], curve.points[n // 2], curve.points[-1]
                )
                worst_offset = max(worst_offset, math.hypot(*fitted.center))
        assert worst_offset <= 1e-10
        assert worst_radius <= 1e-10


def test_c02_bsm_identities():
    with _Budget("2 BSM identities", 5.0):
        rng = np.random.default_rng(2024)
        n = 10_000
        spot = rng.uniform(5.0, 500.0, n)
        k = spot * rng.uniform(0.4, 2.5, n)
        r = rng.uniform(-0.03, 0.10, n)
        q = rng.uniform(-0.03, 0.10, n)
        vol = rng.uniform(0.02, 1.2, n)
        tenor = rng.uniform(0.05, 8.0, n)
        worst_parity = worst_identity = 0.0
        for i in range(n):
            ms = MarketState(spot=spot[i], dom_rate=r[i], for_rate=q[i], tenor=tenor[i])
            call = bsm_price(ms, k[i], vol[i], OptionSide.CALL)
            put = bsm_price(ms, k[i], vol[i], OptionSide.PUT)
            target = ms.df_for() * spot[i] - ms.df_dom() * k[i]
            scale = max(1.0, abs(ms.df_for() * spot[i]), abs(ms.df_dom() * k[i]))
            worst_parity = max(worst_parity, abs(call - put - target) / scale)
            d1, _ = d1_d2(ms, k[i], vol[i])
            lhs = spot[i] * ms.df_for() * float(std_normal_pdf(d1))
            worst_identity = max(
                worst_identity, d1_d2_identity_residual(ms, k[i], vol[i]) / max(lhs, 1e-300)
            )
        assert worst_parity <= 1e-12
        assert worst_identity <= 1e-12

        ms = MarketState(spot=100.0, dom_rate=0.02, for_rate=0.01, tenor=1.7)
        vols = np.linspace(0.01, 2.0, 2000)
        z = np.linspace(-2.0, 2.0, 2000)
        ks = ms.forward() * np.exp(z * vols * math.sqrt(1.7))
        back = implied_vol_grid(ms, ks, bsm_price(ms, ks, vols))
        assert np.max(np.abs(back - vols)) <= 1e-10


def test_c03_breeden_litzenberger_all_families():
    with _Budget("3 Breeden-Litzenberger consistency", 10.0):
        families = (
            GAMMA,
            UNIFORM,
            StudentT(mu=3.7201, nu=7.3824),
            Normal(mu=11.3328, s=3.0),
            LogNormal(mu=1.0, s=0.25),
        )
        for dist in families:
            ms = MarketState(
                spot=dist.mean() * math.exp(-0.01), dom_rate=0.02, for_rate=0.01, tenor=1.0
            )
            p0 = dist.mass_below_zero()
            ks = np.linspace(
                dist.quantile(p0 + 0.01 * (1 - p0)),
                dist.quantile(p0 + 0.99 * (1 - p0)),
                401,
            )
            h = 1e-4 * ks
            fd2 = (
                np.asarray(dist.call_price(ms, ks + h))
                - 2.0 * np.asarray(dist.call_price(ms, ks))
                + np.asarray(dist.call_price(ms, ks - h))
            ) / (h * h)
            err = np.max(np.abs(math.exp(0.02) * fd2 - np.asarray(dist.pdf(ks))))
            assert err <= 1e-4, f"{type(dist).__name__}: {err:.3g}"


def test_c04_density_recovery_from_smile():
    with _Budget("4 density from constant-vol smile", 5.0):
        ms = MarketState(spot=100.0, dom_rate=0.015, for_rate=0.005, tenor=2.0)
        vol = 0.22
        smile = flat_smile(ms, vol)
        ln = LogNormal(mu=math.log(ms.forward()) - 0.5 * vol * vol * 2.0, s=vol * math.sqrt(2.0))
        grid = np.exp(
            np.linspace(math.log(ln.quantile(0.01)), math.log(ln.quantile(0.99)), 2001)
        )
        got = density_from_smile(smile, grid)
        ref = np.asarray(ln.pdf(grid))
        assert np.max(np.abs(got.values - ref) / ref) <= 1e-6

        dist = GAMMA
        gsmile = smile_from_distribution(dist, market_state_for(dist), GridSpec(width_mult=1.3))
        inner = np.exp(
            np.linspace(math.log(gsmile.k_lo) + 0.02, math.log(gsmile.k_hi) - 0.02, 1501)
        )
        # The log-strike form against the strike-space form: 1.1e-16 apart in
        # both modes, on a density that peaks at 0.30.
        for mode in ("analytic", "fd"):
            a = density_from_smile(gsmile, inner, mode=mode).values
            b = strike_form_density(gsmile, inner, mode=mode)
            assert np.max(np.abs(a - b)) <= 1e-8


def test_c05_gamma_circle_beats_baselines():
    with _Budget("5 gamma KL ordering", 30.0):
        report = distribution_report(GAMMA)
        kl_circle = report.kl_circle.kl_nats
        assert kl_circle < report.kl_vanna_volga.kl_nats
        assert kl_circle < report.kl_best_lognormal.kl_nats
        # Stash for criterion 6.
        test_c05_gamma_circle_beats_baselines.kl_circle = kl_circle


def test_c06_uniform_not_circle_approximable():
    with _Budget("6 uniform failure mode", 30.0):
        kl_gamma = getattr(test_c05_gamma_circle_beats_baselines, "kl_circle", None)
        if kl_gamma is None:
            kl_gamma = distribution_report(GAMMA).kl_circle.kl_nats
        report = distribution_report(UNIFORM)
        assert report.kl_circle.kl_nats > kl_gamma


def test_c07_negative_density_student():
    with _Budget("7 negative-density Student case", 30.0):
        report = distribution_report(STUDENT_NEGATIVE)
        assert report.margin < 0.0
        assert bool(np.any(report.p_circle.values < 0.0))
        assert report.kl_circle.pseudo
        assert report.kl_circle.clamped_fraction > 0.0
        assert math.isfinite(report.kl_circle.kl_nats)
        # The divergence survives the clamp floor of 1e-50.
        explicit = kl_divergence(report.p_true, report.p_circle, clamp_floor=1e-50)
        assert explicit.pseudo and math.isfinite(explicit.kl_nats)


def test_c08_curvature_on_circles():
    with _Budget("8 curvature identities", 5.0):
        rng = np.random.default_rng(88)
        for _ in range(5):
            radius = rng.uniform(0.5, 3.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            offset = rng.uniform(0.0, 0.8) * radius
            center = np.array([offset * math.cos(angle), offset * math.sin(angle)])
            phis = np.linspace(-0.5 * math.pi - 2.2, -0.5 * math.pi + 2.2, 4001)
            u = np.column_stack([np.cos(phis), np.sin(phis)])
            proj = u @ center
            t = proj + np.sqrt(proj * proj - center @ center + radius * radius)
            pts = u * t[:, None]
            kappa_e = euclidean_curvature(pts)
            kappa_s = similarity_curvature(pts)
            assert np.nanmax(np.abs(kappa_e - 1.0 / radius)) <= 1e-6
            assert np.nanmax(np.abs(kappa_s)) <= 1e-5
            scale, dx, dy = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
            moved = pts * scale + np.array([dx, dy])
            assert np.nanmax(np.abs(similarity_curvature(moved) - kappa_s)) <= 1e-5


def test_c09_surface_anchor_exactness_and_round_trip():
    with _Budget("9 surface anchors and circle round trip", 10.0):
        conv = DeltaConvention.SPOT_PIPS
        for text in (synthetic_circle_surface(), synthetic_gamma_surface()):
            rows = parse_surface(text)
            assert len(rows) == 14
            for method in ("circle", "vanna-volga"):
                table = discrepancy_table(rows, method, conv)
                assert not table.errors
                for cells in table.cells:
                    for lab in ANCHOR_LABELS:
                        assert cells[lab] == 0.0
        circle_rows = parse_surface(synthetic_circle_surface())
        assert discrepancy_table(circle_rows, "circle", conv).grand_l2 <= 1e-8


def test_c10_shape_fitting():
    with _Budget("10 shape fitting", 5.0):
        rng = np.random.default_rng(10)
        done = 0
        while done < 1000:
            center = rng.uniform(-5.0, 5.0, 2)
            radius = rng.uniform(0.1, 10.0)
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 3))
            if np.min(np.diff(angles)) < 0.05:
                continue
            pts = [
                (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a))
                for a in angles
            ]
            c = circumcircle(*pts)
            res = max(
                abs(math.hypot(p[0] - c.center[0], p[1] - c.center[1]) - c.radius)
                for p in pts
            )
            assert res <= 1e-10 * c.radius
            done += 1

        done = 0
        while done < 1000:
            a_axis, b_axis = rng.uniform(0.5, 3.0, 2)
            rot = rng.uniform(0.0, math.pi)
            center = rng.uniform(-2.0, 2.0, 2)
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 5))
            if np.min(np.diff(angles)) < 0.15:
                continue
            cr, sr = math.cos(rot), math.sin(rot)
            pts = []
            for ang in angles:
                x, y = a_axis * math.cos(ang), b_axis * math.sin(ang)
                pts.append((center[0] + cr * x - sr * y, center[1] + sr * x + cr * y))
            conic = conic_through_5(pts)
            assert max(abs(conic.evaluate(x, y)) for x, y in pts) <= 1e-9
            done += 1

        with pytest.raises(CollinearPoints):
            circumcircle((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))
        with pytest.raises(DegenerateConfiguration):
            conic_through_5([(0, 0), (1, 0), (2, 0), (0.5, 1), (1.5, -1)])

        c0 = transform_circle(circumcircle((0, 1), (1, 0), (-1, 0)), 2.0, 0.3, -0.1)
        assert c0.radius == pytest.approx(2.0, abs=1e-14)
        assert c0.center == pytest.approx((0.3, -0.1), abs=1e-14)
