"""Tests for circle/conic interpolation and the circle transform."""
from itertools import combinations

import numpy as np
import pytest

from smilegeo.errors import CollinearPoints, DegenerateConfiguration, NotAnEllipse
from smilegeo.shapes import (
    COLLINEARITY_TOL,
    CircleShape,
    ConicShape,
    circumcircle,
    _any_triple_collinear,
    conic_through_5,
    transform_circle,
)


def circle_points(center, radius, angles):
    return [
        (center[0] + radius * np.cos(a), center[1] + radius * np.sin(a)) for a in angles
    ]


def ellipse_points(a_axis, b_axis, angles, rot=0.0, center=(0.0, 0.0)):
    c, s = np.cos(rot), np.sin(rot)
    out = []
    for t in angles:
        x, y = a_axis * np.cos(t), b_axis * np.sin(t)
        out.append((center[0] + c * x - s * y, center[1] + s * x + c * y))
    return out


class TestCircumcircle:
    def test_unit_circle(self):
        c = circumcircle((0.0, 1.0), (1.0, 0.0), (-1.0, 0.0))
        assert c.center == pytest.approx((0.0, 0.0), abs=1e-15)
        assert c.radius == pytest.approx(1.0, abs=1e-15)

    def test_recovers_known_circle(self):
        pts = circle_points((0.3, -0.1), 1.2, [0.3, 2.0, 4.4])
        c = circumcircle(*pts)
        assert c.center[0] == pytest.approx(0.3, abs=1e-10)
        assert c.center[1] == pytest.approx(-0.1, abs=1e-10)
        assert c.radius == pytest.approx(1.2, abs=1e-10)

    def test_collinear_raises(self):
        with pytest.raises(CollinearPoints):
            circumcircle((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))

    def test_coincident_raises(self):
        with pytest.raises(CollinearPoints):
            circumcircle((1.0, 1.0), (1.0, 1.0), (2.0, 0.0))

    def test_random_triples_residual(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            center = rng.uniform(-5.0, 5.0, 2)
            radius = rng.uniform(0.1, 10.0)
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, 3))
            if np.min(np.diff(angles)) < 0.05:
                continue
            c = circumcircle(*circle_points(center, radius, angles))
            res = [
                abs(np.hypot(p[0] - c.center[0], p[1] - c.center[1]) - c.radius)
                for p in circle_points(center, radius, angles)
            ]
            worst = max(worst, max(res) / c.radius)
        assert worst <= 1e-10


class TestConicThrough5:
    def test_unit_circle_coefficients(self):
        pts = ellipse_points(1.0, 1.0, [0.1, 1.2, 2.5, 3.9, 5.3])
        conic = conic_through_5(pts)
        a, b, c, d, e, f = conic.coefficients
        assert b == pytest.approx(0.0, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert f / a == pytest.approx(-1.0, abs=1e-10)

    def test_axis_ratio_two(self):
        pts = ellipse_points(2.0, 1.0, [0.2, 1.1, 2.3, 3.8, 5.5])
        conic = conic_through_5(pts)
        a, b, c, _, _, f = conic.coefficients
        assert b == pytest.approx(0.0, abs=1e-10)
        # x^2/4 + y^2 = 1  =>  C / A = 4
        assert c / a == pytest.approx(4.0, rel=1e-9)

    def test_three_collinear_raises(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1.0), (1.5, -1.0)]
        with pytest.raises(DegenerateConfiguration):
            conic_through_5(pts)

    def test_hyperbola_configuration_raises(self):
        pts = [(2.0, 0.1), (3.0, 0.8), (5.0, 2.2), (-2.0, -0.1), (-3.0, -0.9)]
        with pytest.raises((NotAnEllipse, DegenerateConfiguration)):
            conic_through_5(pts)

    def test_random_ellipses_residual(self):
        rng = np.random.default_rng(11)
        count = 0
        for _ in range(1000):
            a_axis = rng.uniform(0.5, 3.0)
            b_axis = rng.uniform(0.5, 3.0)
            rot = rng.uniform(0.0, np.pi)
            center = rng.uniform(-2.0, 2.0, 2)
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, 5))
            if np.min(np.diff(angles)) < 0.15:
                continue
            pts = ellipse_points(a_axis, b_axis, angles, rot, center)
            conic = conic_through_5(pts)
            res = max(abs(conic.evaluate(x, y)) for x, y in pts)
            assert res <= 1e-9
            count += 1
        assert count > 500

    def test_deterministic_coefficients(self):
        pts = ellipse_points(1.7, 0.9, [0.3, 1.4, 2.6, 4.0, 5.6], rot=0.7, center=(0.4, -0.2))
        first = conic_through_5(pts).coefficients
        for _ in range(5):
            assert conic_through_5(pts).coefficients == first

    def test_leading_coefficient_positive_unit_norm(self):
        pts = ellipse_points(1.2, 0.8, [0.5, 1.5, 2.9, 4.2, 5.8])
        coefs = np.array(conic_through_5(pts).coefficients)
        assert np.linalg.norm(coefs) == pytest.approx(1.0, rel=1e-14)
        lead = coefs[np.nonzero(np.abs(coefs) > 1e-14)[0][0]]
        assert lead > 0.0


class TestTransformCircle:
    def test_identity(self):
        c = CircleShape(center=(0.3, -0.4), radius=2.0)
        assert transform_circle(c, 1.0, 0.0, 0.0) == c

    def test_pure_scale(self):
        c = transform_circle(CircleShape(center=(0.0, 0.0), radius=1.0), 2.0, 0.0, 0.0)
        assert c.radius == 2.0
        assert c.center == (0.0, 0.0)

    def test_pure_translation(self):
        c = transform_circle(CircleShape(center=(0.0, 0.0), radius=1.0), 1.0, 0.3, -0.1)
        assert c.center == (0.3, -0.1)
        assert c.radius == 1.0

    def test_composition_is_group_action(self):
        c = CircleShape(center=(0.5, 0.7), radius=1.3)
        once = transform_circle(transform_circle(c, 2.0, 0.1, -0.2), 0.5, 0.3, 0.4)
        combined = transform_circle(c, 1.0, 0.5 * 0.1 + 0.3, 0.5 * -0.2 + 0.4)
        assert once.center == pytest.approx(combined.center, abs=1e-15)
        assert once.radius == pytest.approx(combined.radius, abs=1e-15)

    def test_transitive_unique_connection(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            src = CircleShape(center=tuple(rng.uniform(-3, 3, 2)), radius=rng.uniform(0.1, 5))
            dst = CircleShape(center=tuple(rng.uniform(-3, 3, 2)), radius=rng.uniform(0.1, 5))
            scale = dst.radius / src.radius
            dx = dst.center[0] - scale * src.center[0]
            dy = dst.center[1] - scale * src.center[1]
            moved = transform_circle(src, scale, dx, dy)
            assert moved.center == pytest.approx(dst.center, abs=1e-12)
            assert moved.radius == pytest.approx(dst.radius, rel=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            transform_circle(CircleShape(center=(0, 0), radius=1.0), -1.0, 0.0, 0.0)


class TestShapeValidation:
    def test_circle_needs_positive_radius(self):
        with pytest.raises(ValueError):
            CircleShape(center=(0.0, 0.0), radius=0.0)

    def test_conic_rejects_hyperbola(self):
        with pytest.raises(NotAnEllipse):
            ConicShape(coefficients=(1.0, 0.0, -1.0, 0.0, 0.0, -1.0))

    def test_contains_origin(self):
        assert CircleShape(center=(0.2, 0.1), radius=1.0).contains_origin
        assert not CircleShape(center=(2.0, 0.0), radius=1.0).contains_origin


def triple_collinear_loop(pts) -> bool:
    """The pair-and-triple loop form of the collinearity test, for reference."""
    n = len(pts)
    scale2 = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            scale2 = max(scale2, float(np.dot(pts[i] - pts[j], pts[i] - pts[j])))
    for i, j, k in combinations(range(n), 3):
        cross = (pts[j][0] - pts[i][0]) * (pts[k][1] - pts[i][1]) - (
            pts[j][1] - pts[i][1]
        ) * (pts[k][0] - pts[i][0])
        if abs(cross) <= 2.0 * COLLINEARITY_TOL * scale2:
            return True
    return False


class TestTripleCollinear:
    @pytest.mark.parametrize("triple", list(combinations(range(5), 3)))
    @pytest.mark.parametrize("side", [0.99, 1.01], ids=["inside", "outside"])
    def test_threshold_decision_matches_loop(self, triple, side):
        # Move the triple's last point off the line through the other two by
        # side times the threshold distance 2 COLLINEARITY_TOL scale2 / |pj - pi|.
        i, j, k = triple
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = np.array(circle_points((0.3, -0.2), 1.7, np.sort(rng.uniform(0, 2 * np.pi, 5))))
            pts[k] = pts[i] + rng.uniform(1.2, 1.6) * (pts[j] - pts[i])
            edge = pts[j] - pts[i]
            normal = np.array([-edge[1], edge[0]]) / np.hypot(*edge)
            scale2 = max(float(np.dot(p - q, p - q)) for p, q in combinations(pts, 2))
            pts[k] += normal * side * 2.0 * COLLINEARITY_TOL * scale2 / np.hypot(*edge)
            want = triple_collinear_loop(pts)
            assert want == (side < 1.0)
            assert _any_triple_collinear(pts) == want
