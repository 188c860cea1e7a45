"""Tests for the polar-plane representation and shape inversion."""
import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest

from smilegeo.bsm import DeltaConvention, MarketState
from smilegeo.distributions import Gamma, Uniform
from smilegeo.errors import InvalidInput, NonpositiveVol, OriginOutsideShape
from smilegeo.georep import (
    RADIUS_FLOOR,
    ReprContext,
    _unit_point,
    angle_jet,
    context_for_smile,
    continuous_angle,
    flat_context,
    polar_map,
    represent,
    represent_anchors,
    smile_from_shape,
)
from smilegeo.shapes import CircleShape, ConicShape, circumcircle
from smilegeo.smile import DeltaAnchor, density_from_smile, flat_smile, smile_from_distribution
from smilegeo.surface import LABELS, complete_expiry, parse_surface
from smilegeo.workflows import distribution_report, market_state_for

FLAT_MS = MarketState(spot=100.0, dom_rate=0.0, for_rate=0.0, tenor=1.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def x_column(strikes, atm_rn, radius_scale):
    """X = (ln K - ln atm_rn) / R of each strike: the first column of ``polar_map``."""
    ctx = ReprContext(market=FLAT_MS, atm_rn=atm_rn, radius_scale=radius_scale)
    return polar_map(strikes, np.zeros(np.shape(strikes)), ctx)[0]


def stereographic_point(x_coord):
    """X's stereographic point (2X, X^2 - 1) / (1 + X^2): the direction that
    shape smiles read, ``vol_fn`` alone and ``angle_jet`` with phi's
    derivatives."""
    return _unit_point(x_coord)[:2]


class TestPolarMapX:
    def test_center_maps_to_zero(self):
        assert x_column(3.5, 3.5, 1.3) == 0.0

    def test_one_log_unit(self):
        assert x_column(3.5 * math.e, 3.5, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_minus_two(self):
        assert x_column(2.0 * math.exp(-2.4), 2.0, 1.2) == pytest.approx(-2.0, rel=1e-14)

    def test_strictly_increasing(self):
        ks = np.linspace(0.5, 8.0, 100)
        xs = x_column(ks, 3.0, 0.9)
        assert np.all(np.diff(xs) > 0.0)


class TestStereographicPoint:
    @pytest.mark.parametrize(
        "x_coord,expected",
        [(0.0, (0.0, -1.0)), (1.0, (1.0, 0.0)), (-1.0, (-1.0, 0.0))],
    )
    def test_reference_points(self, x_coord, expected):
        px, pz = stereographic_point(x_coord)
        assert px == pytest.approx(expected[0], abs=1e-15)
        assert pz == pytest.approx(expected[1], abs=1e-15)

    def test_on_unit_circle_and_invertible(self):
        xs = np.linspace(-40.0, 40.0, 4001)
        px, pz = stereographic_point(xs)
        assert np.max(np.abs(px * px + pz * pz - 1.0)) <= 1e-14
        back = px / (1.0 - pz)
        assert np.max(np.abs(back - xs)) <= 1e-12 * np.maximum(np.abs(xs), 1.0).max()

    def test_injective(self):
        xs = np.linspace(-15.0, 15.0, 2001)
        px, pz = stereographic_point(xs)
        angles = np.unwrap(np.arctan2(pz, px))
        assert np.all(np.diff(angles) > 0.0) or np.all(np.diff(angles) < 0.0)


# X where the direction is exact: (cos phi, sin phi).
EXACT_DIRECTIONS = {0.0: (0.0, -1.0), 1.0: (1.0, 0.0), -1.0: (-1.0, 0.0)}
# The largest |X| a finite positive strike reaches: ln K spans less than 1455,
# and R >= RADIUS_FLOOR.
FARTHEST_X = (math.log(np.finfo(float).max) - math.log(5e-324)) / RADIUS_FLOOR
EDGE_X = [
    0.0, 1e-300, 1e-13, 1.0 + 2.0**-52, 1.0 - 2.0**-52, 1.0, 3.0, 1e8, 1e40, FARTHEST_X
]


def mp_direction(x: float):
    """cos and sin of phi = 2 atan(X) - pi/2 to 50 significant digits: the
    working precision grows with |log10 X|, the digits the subtraction of
    pi/2 (small X) or the rounding of 2 atan X near pi (large X) cancels."""
    if x in EXACT_DIRECTIONS:
        return EXACT_DIRECTIONS[x]
    with mpmath.workdps(60 + int(abs(math.log10(abs(x))))):
        phi = 2 * mpmath.atan(mpmath.mpf(x)) - mpmath.pi / 2
        return +mpmath.cos(phi), +mpmath.sin(phi)


class TestDirectionMap:
    """``stereographic_point`` is the direction (cos phi, sin phi) that shape
    smiles and curvatures read from ``angle_jet``."""

    @staticmethod
    def seeded_x(n=10_000):
        rng = np.random.default_rng(20261019)
        sign = rng.choice([-1.0, 1.0], n)
        near = rng.uniform(-3.0, 3.0, n // 2)
        spread = sign[n // 2:] * 10.0 ** rng.uniform(-300.0, 63.0, n - n // 2)
        return np.concatenate([near, spread])

    def test_within_2_ulp_of_mpmath(self):
        xs = np.concatenate([EDGE_X, [-x for x in EDGE_X], self.seeded_x()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            px, pz = stereographic_point(xs)
        eps = 2.0**-52
        for x, got in zip(xs.tolist(), zip(px.tolist(), pz.tolist())):
            for component, want in zip(got, mp_direction(x)):
                if want in (0.0, 1.0, -1.0):
                    assert component == want, x
                else:
                    assert abs(mpmath.mpf(component) - want) <= 2 * eps * abs(want), x

    def test_scalar_reads_equal_array_read(self):
        xs = [*EDGE_X, *(-x for x in EDGE_X), *self.seeded_x(200).tolist(), math.nan]
        px, pz = stereographic_point(np.array(xs))
        for x, want in zip(xs, zip(px.tolist(), pz.tolist())):
            got = stereographic_point(x)
            assert all(type(v) is float for v in got)
            assert np.array_equal(got, want, equal_nan=True), x

    @pytest.mark.parametrize("x", [0.0, -0.0], ids=["0", "-0"])
    def test_limits_exact_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stereographic_point(x)
            got_array = stereographic_point(np.array([x, 2.0]))
        want = EXACT_DIRECTIONS[abs(x)]
        assert got == want and (got_array[0][0], got_array[1][0]) == want

    def test_far_x_is_the_limit_form(self):
        # At the farthest X under the R floor, X^2 stays finite and the point
        # is (2/X, 1) to rounding, with no warning.
        xs = np.array([FARTHEST_X, -FARTHEST_X, 1e60])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            px, pz = stereographic_point(xs)
        assert np.allclose(px, 2.0 / xs, rtol=4e-16, atol=0.0) and np.all(pz == 1.0)

    def test_angle_jet_direction_is_the_stereographic_point(self):
        ctx = ReprContext(market=FLAT_MS, atm_rn=102.0, radius_scale=0.8)
        lnk = np.log(np.geomspace(20.0, 500.0, 301))
        cos, sin, dphi, d2phi = angle_jet(lnk, ctx)
        x = (lnk - np.log(ctx.atm_rn)) / ctx.radius_scale
        assert np.array_equal(np.array([cos, sin]), np.array(stereographic_point(x)))
        # The chain rule of phi = 2 atan(X) - pi/2 in ln K.
        assert np.array_equal(dphi, 2.0 / ((1.0 + x * x) * ctx.radius_scale))
        assert np.array_equal(d2phi, -4.0 * x / ((1.0 + x * x) ** 2 * 0.8 * 0.8))
        phi = continuous_angle(x)
        assert np.max(np.abs(cos - np.cos(phi))) <= 4e-16
        assert np.max(np.abs(sin - np.sin(phi))) <= 4e-16


class TestPolarAngle:
    def test_continuous_branch_matches_modulo_2pi(self):
        xs = np.linspace(-30.0, 30.0, 1001)
        px, pz = stereographic_point(xs)
        diff = np.asarray(continuous_angle(xs)) - np.arctan2(pz, px)
        wrapped = np.abs(np.remainder(diff + math.pi, 2.0 * math.pi) - math.pi)
        assert np.max(wrapped) <= 1e-12


class TestRepresent:
    def test_flat_smile_is_origin_centered_circle(self):
        smile = flat_smile(FLAT_MS, 0.2)
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0 * math.exp(0.02), radius_scale=1.0)
        curve = represent(smile, ctx)
        radii = np.hypot(curve.points[:, 0], curve.points[:, 1])
        assert np.max(np.abs(radii - 1.2)) <= 1e-12
        spread = radii.max() - radii.min()
        assert spread <= 1e-12 * radii.mean()

    def test_angles_monotone_in_log_strike(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        smile = smile_from_distribution(dist, market_state_for(dist))
        curve = represent(smile)
        assert np.all(np.diff(curve.angles) > 0.0)

    def test_points_consistent_with_polar_data(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        smile = smile_from_distribution(dist, market_state_for(dist))
        curve = represent(smile)
        rebuilt = np.column_stack(
            [curve.radii * np.cos(curve.angles), curve.radii * np.sin(curve.angles)]
        )
        assert np.array_equal(rebuilt, curve.points)
        ctx = curve.context
        x, phi, rho, points = polar_map(curve.strikes, smile.vol(curve.strikes), ctx)
        assert np.array_equal(x, (np.log(curve.strikes) - np.log(ctx.atm_rn)) / ctx.radius_scale)
        assert np.array_equal(phi, curve.angles) and np.array_equal(rho, curve.radii)
        assert np.array_equal(points, curve.points)

    def test_vols_read_back(self):
        smile = flat_smile(FLAT_MS, 0.35)
        ctx = ReprContext(market=FLAT_MS, atm_rn=102.0, radius_scale=0.8)
        curve = represent(smile, ctx)
        vols = curve.radii - curve.context.radius_scale
        assert np.max(np.abs(vols - 0.35)) <= 1e-14


class TestRepresentAnchorsExact:
    """``polar_map`` maps all anchor strikes in one array call; each anchor's
    X, angle, radius and point must equal its own one-strike read, and
    ``represent_anchors`` must give those points."""

    @staticmethod
    def _one_by_one(anchors, ctx):
        out = []
        for anchor in anchors:
            x, phi, rho, point = polar_map([anchor.strike], [anchor.vol], ctx)
            out.append((*x.tolist(), *phi.tolist(), *rho.tolist(), *point[0].tolist()))
        return out

    @classmethod
    def _check(cls, anchors, ctx):
        strikes, vols = [a.strike for a in anchors], [a.vol for a in anchors]
        x, phi, rho, points = polar_map(strikes, vols, ctx)
        together = np.column_stack([x, phi, rho, points])
        assert [tuple(r) for r in together.tolist()] == cls._one_by_one(anchors, ctx)
        assert np.array_equal(represent_anchors(anchors, ctx), points)
        return points

    @pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
    def test_every_label_of_shipped_rows(self, name, conv):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            # The map reads an anchor's strike and vol, not its target.
            strikes = row.strikes(conv)
            anchors = [DeltaAnchor(math.nan, strikes[lab], row.vols[lab]) for lab in LABELS]
            for ctx in (flat_context(row.market(), row.vols["ATM"]),
                        row.frame(0.5)):
                assert self._check(anchors, ctx).shape == (len(LABELS), 2)

    @pytest.mark.parametrize(
        "dist", [Gamma(kappa=5.12, theta=0.64), Uniform(a=2.0109, b=5.4750)], ids=repr
    )
    def test_report_anchors(self, dist):
        rep = distribution_report(dist)
        self._check(rep.anchors, rep.ctx)


class TestOneX:
    """An anchor's plane point is placed at the X that the completed shape
    smile reads at the anchor's strike, bit for bit."""

    @pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("method", ["circle", "ellipse"])
    @pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
    def test_anchor_x_is_the_smile_x(self, name, method, conv):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            done = complete_expiry(row, method, conv)
            ctx = done.ctx
            strikes = np.array([a.strike for a in done.anchors])
            vols = [a.vol for a in done.anchors]
            # The X the smile reads: its vol is the shape's ray radius along
            # that X's stereographic point, less R.
            x_read = (np.log(strikes) - np.log(ctx.atm_rn)) / ctx.radius_scale
            ray = done.shape.ray_radius(*stereographic_point(x_read)) - ctx.radius_scale
            assert np.array_equal(done.smile.vol(strikes), ray), row.expiry_label
            # The X the anchor's point was placed at.
            x_placed, phi, rho, points = polar_map(strikes, vols, ctx)
            assert np.array_equal(phi, continuous_angle(x_placed))
            assert np.array_equal(points, np.column_stack([rho * np.cos(phi), rho * np.sin(phi)]))
            assert np.array_equal(x_placed, x_read), row.expiry_label


class TestAutoRadiusScale:
    def test_flat_context_closed_form(self):
        ctx = flat_context(FLAT_MS, 0.2)
        from scipy.special import ndtri

        expected = float(ndtri(0.99)) * 0.2 / 0.95
        assert ctx.radius_scale == pytest.approx(expected, rel=1e-12)

    def test_smile_context_uses_own_delta_window(self):
        dist = Gamma(kappa=5.12, theta=0.64)
        smile = smile_from_distribution(dist, market_state_for(dist))
        ctx = context_for_smile(smile)
        from smilegeo.smile import strike_for_delta

        k_lo = strike_for_delta(smile, 0.01).strike
        k_hi = strike_for_delta(smile, 0.99).strike
        expected = max(
            abs(math.log(k_lo / ctx.atm_rn)), abs(math.log(k_hi / ctx.atm_rn))
        ) / 0.95
        assert ctx.radius_scale == pytest.approx(expected, rel=1e-12)

    def test_explicit_radius_scale_wins(self):
        smile = flat_smile(FLAT_MS, 0.2)
        ctx = context_for_smile(smile, radius_scale=2.5)
        assert ctx.radius_scale == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_centre_and_scale_must_be_finite_and_positive(self, bad):
        for atm_rn, r_scale in ((bad, 1.0), (100.0, bad)):
            with pytest.raises(ValueError):
                ReprContext(market=FLAT_MS, atm_rn=atm_rn, radius_scale=r_scale)
        with pytest.raises(ValueError):
            context_for_smile(flat_smile(FLAT_MS, 0.2), radius_scale=bad)


class TestSmileFromShape:
    def test_origin_centered_circle_gives_flat_vol(self):
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        shape = CircleShape(center=(0.0, 0.0), radius=1.2)
        smile = smile_from_shape(shape, ctx, k_lo=60.0, k_hi=170.0)
        vols = np.asarray(smile.vol(smile.default_grid(101)))
        assert np.max(np.abs(vols - 0.2)) <= 1e-14

    def test_tiny_radius_scale_density_is_flat_without_warning(self):
        # At the R floor the grid's |X| reaches about 4e59 and (1 + X^2)^2 about
        # 3e238; at the centre strike, which the grid holds, phi' = 2/R = 2e60.
        # Every jet term is finite, and the density is the flat smile's.
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=RADIUS_FLOOR)
        smile = smile_from_shape(CircleShape(center=(0.0, 0.0), radius=0.2), ctx, 50.0, 200.0)
        assert smile.vol(120.0) == 0.2
        grid = np.linspace(60.0, 150.0, 181)
        assert 100.0 in grid
        got = density_from_smile(smile, grid).values
        assert np.array_equal(got, density_from_smile(flat_smile(FLAT_MS, 0.2), grid).values)

    @pytest.mark.parametrize("radius_scale", [np.nextafter(RADIUS_FLOOR, 0.0), 1e-80, 5e-324])
    def test_radius_scale_below_the_floor_is_invalid(self, radius_scale):
        # Below the floor, 2/R or X^2 could leave the floats on a finite strike.
        with pytest.raises(InvalidInput, match="finite radius_scale >= 1e-60"):
            ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=radius_scale)

    def test_round_trip_circle_to_smile_to_circle(self):
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        shape = CircleShape(center=(0.03, -0.05), radius=1.25)
        smile = smile_from_shape(shape, ctx, k_lo=50.0, k_hi=200.0)
        curve = represent(smile, ctx)
        dist_to_center = np.hypot(
            curve.points[:, 0] - 0.03, curve.points[:, 1] + 0.05
        )
        assert np.max(np.abs(dist_to_center - 1.25)) <= 1e-10

    @pytest.mark.parametrize(
        "shape, message",
        [
            (
                CircleShape(center=(2.0, 0.0), radius=1.0),
                "circle does not enclose the origin; rays miss it or cut it twice",
            ),
            (
                ConicShape(coefficients=(1.0, 0.0, 1.0, -4.0, 0.0, 3.0)),
                "origin not strictly inside the ellipse",
            ),
        ],
        ids=["circle", "conic"],
    )
    def test_origin_outside_raises(self, shape, message):
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        with pytest.raises(OriginOutsideShape) as exc:
            smile_from_shape(shape, ctx, k_lo=80.0, k_hi=120.0)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "shape",
        [
            CircleShape(center=(0.03, -0.05), radius=1.25),
            ConicShape(coefficients=(1.0, 0.0, 1.1, -0.06, 0.1, -1.5)),
        ],
        ids=["circle", "conic"],
    )
    def test_origin_checked_once_per_inversion(self, shape, monkeypatch):
        # The check runs before the positivity decision, not on every vol or jet read.
        calls = []
        check = type(shape).require_origin_inside
        monkeypatch.setattr(
            type(shape), "require_origin_inside", lambda s: calls.append(s) or check(s)
        )
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        smile = smile_from_shape(shape, ctx, k_lo=50.0, k_hi=200.0)
        grid = smile.default_grid(11)
        smile.vol(grid)
        smile.jet_fn(np.log(grid))
        assert calls == [shape]

    def test_nonpositive_vol_raises(self):
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        # Circle inside the radius-R ring: every implied vol would be <= 0.
        with pytest.raises(NonpositiveVol):
            smile_from_shape(
                CircleShape(center=(0.0, 0.0), radius=0.9), ctx, k_lo=80.0, k_hi=120.0
            )

    def test_conic_inversion_matches_circle(self):
        # The same circle expressed as a conic must invert identically.
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        cx, cy, r = 0.04, -0.03, 1.21
        circle = CircleShape(center=(cx, cy), radius=r)
        conic = ConicShape(
            coefficients=(1.0, 0.0, 1.0, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - r * r)
        )
        s_circle = smile_from_shape(circle, ctx, k_lo=60.0, k_hi=160.0)
        s_conic = smile_from_shape(conic, ctx, k_lo=60.0, k_hi=160.0)
        ks = s_circle.default_grid(101)
        assert np.max(np.abs(np.asarray(s_circle.vol(ks)) - np.asarray(s_conic.vol(ks)))) <= 1e-12

    def test_conic_derivatives_match_circle_derivatives(self):
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        cx, cy, r = 0.04, -0.03, 1.21
        circle = CircleShape(center=(cx, cy), radius=r)
        conic = ConicShape(
            coefficients=(1.0, 0.0, 1.0, -2.0 * cx, -2.0 * cy, cx * cx + cy * cy - r * r)
        )
        s_circle = smile_from_shape(circle, ctx, k_lo=60.0, k_hi=160.0)
        s_conic = smile_from_shape(conic, ctx, k_lo=60.0, k_hi=160.0)
        lnk = np.log(s_circle.default_grid(51))
        _, d_circle, d2_circle = s_circle.jet_fn(lnk)
        _, d_conic, d2_conic = s_conic.jet_fn(lnk)
        assert np.max(np.abs(d_circle - d_conic)) <= 1e-11
        assert np.max(np.abs(d2_circle - d2_conic)) <= 1e-10

    def test_analytic_derivatives_match_finite_differences(self):
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.1)
        shape = CircleShape(center=(0.06, -0.02), radius=1.4)
        smile = smile_from_shape(shape, ctx, k_lo=50.0, k_hi=190.0)
        lnk = np.log(smile.default_grid(41)[5:-5])
        h = 1e-5
        fd1 = (smile.vol_fn(lnk + h) - smile.vol_fn(lnk - h)) / (2 * h)
        fd2 = (smile.vol_fn(lnk + h) - 2 * smile.vol_fn(lnk) + smile.vol_fn(lnk - h)) / h**2
        _, dvol, d2vol = smile.jet_fn(lnk)
        assert np.max(np.abs(dvol - fd1)) <= 1e-9
        assert np.max(np.abs(d2vol - fd2)) <= 1e-5


class TestUniformRepresentation:
    def test_visibly_non_circular(self):
        dist = Uniform(a=2.0109, b=5.4750)
        smile = smile_from_distribution(dist, market_state_for(dist))
        curve = represent(smile)
        # Fit a circle through three spread points, then measure the worst
        # radial deviation of the rest of the curve: far from circular.
        n = len(curve.points)
        c = circumcircle(curve.points[0], curve.points[n // 2], curve.points[-1])
        dev = np.abs(
            np.hypot(curve.points[:, 0] - c.center[0], curve.points[:, 1] - c.center[1])
            - c.radius
        )
        assert dev.max() > 1e-2 * c.radius
