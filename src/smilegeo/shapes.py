"""Circles and conics: exact interpolation through 3 and 5 points.

Pure plane geometry, no market context.  The circle transform (scale plus
two translations) is the three-number group action connecting shapes.
Each shape owns its ray geometry: the origin-inside check
(``require_origin_inside``), the ray-shape intersection distance rho(phi)
(``ray_radius``), its first two angle derivatives (``ray_jet``), and the
interpolation residuals at given points (``residuals``).  A ray is given by
its direction (cos phi, sin phi), which smiles take from the strike's
stereographic point u, not by phi.  The ray methods assume the origin check
has passed; ``clearance(R)`` is a polynomial in X, > 0 exactly where R u is inside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CollinearPoints, DegenerateConfiguration, InvalidInput, NotAnEllipse, OriginOutsideShape
)

COLLINEARITY_TOL = 1e-12
CONIC_RANK_TOL = 1e-10


@dataclass(frozen=True)
class CircleShape:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise InvalidInput("radius must be positive and finite")
        center = (float(self.center[0]), float(self.center[1]))
        if not (math.isfinite(center[0]) and math.isfinite(center[1])):
            raise InvalidInput(f"center {center} must be finite")
        object.__setattr__(self, "center", center)

    @property
    def contains_origin(self) -> bool:
        """Whether every ray from the origin cuts the circle exactly once."""
        cx, cy = self.center
        return cx * cx + cy * cy < self.radius * self.radius

    def require_origin_inside(self) -> None:
        if not self.contains_origin:
            raise OriginOutsideShape(
                "circle does not enclose the origin; rays miss it or cut it twice"
            )

    def clearance(self, radius: float):
        """(coef, terms) in X: (r^2 - R^2 - |c|^2 + 2 R c.u)(1 + X^2), (r^2 + (R + |c|)^2)(1 + X^2)."""
        cx, cy = self.center
        c2, r2, near = cx * cx + cy * cy, self.radius * self.radius, radius + math.hypot(cx, cy)
        lead, tilt, terms = r2 - radius * radius - c2, 2.0 * radius * cy, r2 + near * near
        return (lead - tilt, 4.0 * radius * cx, lead + tilt), (terms, 0.0, terms)

    def _ray(self, cos, sin):
        """(g, g^2, s) with rho = g + s along the ray (cos, sin); g projects the
        centre on the ray."""
        cx, cy = self.center
        g = cx * cos + cy * sin
        gg = g * g
        return g, gg, np.sqrt(gg - (cx * cx + cy * cy) + self.radius * self.radius)

    def ray_radius(self, cos, sin):
        """rho: distance from the origin to the circle along the ray (cos phi, sin phi)."""
        g, _, s = self._ray(cos, sin)
        return g + s

    def ray_jet(self, cos, sin):
        """(rho, d rho/d phi, d^2 rho/d phi^2) along the ray (cos phi, sin phi)."""
        cx, cy = self.center
        g, gg, s = self._ray(cos, sin)
        g_hat = -cx * sin + cy * cos
        d1 = g_hat * (1.0 + g / s)
        d2 = -g + (g_hat * g_hat - gg) / s - gg * g_hat * g_hat / s**3
        return g + s, d1, d2

    def residuals(self, points) -> np.ndarray:
        """|distance to the centre - radius| at each (x, y) row of ``points``."""
        points = np.asarray(points, dtype=float)
        dist = np.hypot(points[:, 0] - self.center[0], points[:, 1] - self.center[1])
        return np.abs(dist - self.radius)


@dataclass(frozen=True)
class ConicShape:
    """Ax^2 + Bxy + Cy^2 + Dx + Ey + F = 0, unit-norm coefficients.

    Normalised so the coefficient vector has unit Euclidean norm and its
    first nonzero entry is positive; restricted to ellipses.
    """

    coefficients: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        norm = float(np.linalg.norm(coefs))
        if norm == 0.0 or not np.isfinite(coefs).all():
            raise InvalidInput("conic coefficients must be finite and not all zero")
        coefs = coefs / norm
        lead = coefs[np.nonzero(np.abs(coefs) > 1e-14)[0][0]]
        if lead < 0.0:
            coefs = -coefs
        a, b, c = coefs[0], coefs[1], coefs[2]
        if b * b - 4.0 * a * c >= 0.0:
            raise NotAnEllipse(f"discriminant {b * b - 4.0 * a * c:.6g} >= 0")
        object.__setattr__(self, "coefficients", tuple(float(v) for v in coefs))

    def evaluate(self, x, y):
        """Value of the conic polynomial at (x, y)."""
        a, b, c, d, e, f = self.coefficients
        return a * x * x + b * x * y + c * y * y + d * x + e * y + f

    def require_origin_inside(self) -> None:
        # The ellipse's value at the origin, F, shares the sign of the outside region.
        if self.coefficients[5] >= 0.0:
            raise OriginOutsideShape("origin not strictly inside the ellipse")

    def clearance(self, radius: float):
        """(coef, terms) in X: -Q(r u)(1 + X^2)^2, (r^2 (|A|+|B|+|C|) + r (|D|+|E|) + |F|)(1 + X^2)^2."""
        a, b, c, d, e, f = self.coefficients
        r, r2 = radius, radius * radius
        s = r2 * (abs(a) + abs(b) + abs(c)) + r * (abs(d) + abs(e)) + abs(f)
        coef = (-(r2 * c - r * e + f), 2.0 * r * (r * b - d), 2.0 * (r2 * c - 2.0 * r2 * a - f),
                -2.0 * r * (r * b + d), -(r2 * c + r * e + f))
        return coef, (s, 0.0, 2.0 * s, 0.0, s)

    def _ray(self, cos, sin):
        """(quad, lin, rho): the conic along the ray (cos, sin) is quad rho^2 + lin rho + F,
        and rho is its positive root (F < 0)."""
        a, b, c, d, e, f = self.coefficients
        quad = a * cos * cos + b * cos * sin + c * sin * sin
        lin = d * cos + e * sin
        disc = lin * lin - 4.0 * quad * f
        return quad, lin, (-lin + np.sqrt(disc)) / (2.0 * quad)

    def ray_radius(self, cos, sin):
        """rho: distance from the origin to the ellipse along the ray (cos phi, sin phi)."""
        return self._ray(cos, sin)[2]

    def ray_jet(self, cos, sin):
        """(rho, d rho/d phi, d^2 rho/d phi^2) along the ray (cos phi, sin phi)."""
        a, b, c, d, e, _f = self.coefficients
        quad, lin, rho = self._ray(cos, sin)
        cos2 = cos * cos - sin * sin
        quad_p = (c - a) * 2.0 * sin * cos + b * cos2
        quad_pp = 2.0 * (c - a) * cos2 - 4.0 * b * sin * cos
        lin_p = -d * sin + e * cos
        slope = 2.0 * quad * rho + lin
        d1 = -(quad_p * rho * rho + lin_p * rho) / slope
        d2 = -(
            quad_pp * rho * rho
            + 4.0 * quad_p * rho * d1
            + 2.0 * quad * d1 * d1
            - lin * rho
            + 2.0 * lin_p * d1
        ) / slope
        return rho, d1, d2

    def residuals(self, points) -> np.ndarray:
        """|conic polynomial| at each (x, y) row of ``points``."""
        points = np.asarray(points, dtype=float)
        return np.abs(self.evaluate(points[:, 0], points[:, 1]))


def _as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise InvalidInput("points must be (x, y) pairs")
    return arr


def circumcircle(p1, p2, p3) -> CircleShape:
    """The unique circle through three non-collinear points.

    Solved from the perpendicular-bisector 2x2 linear system; exact
    interpolation up to rounding.
    """
    a, b, c = _as_point(p1), _as_point(p2), _as_point(p3)
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    scale2 = max(
        float(np.dot(b - a, b - a)), float(np.dot(c - a, c - a)), float(np.dot(c - b, c - b))
    )
    if abs(cross) <= 2.0 * COLLINEARITY_TOL * scale2 or scale2 == 0.0:
        raise CollinearPoints("points are collinear or coincident")
    lhs = np.array([[b[0] - a[0], b[1] - a[1]], [c[0] - a[0], c[1] - a[1]]])
    rhs = 0.5 * np.array([np.dot(b, b) - np.dot(a, a), np.dot(c, c) - np.dot(a, a)])
    center = np.linalg.solve(lhs, rhs)
    radius = float(np.hypot(*(a - center)))
    return CircleShape(center=(float(center[0]), float(center[1])), radius=radius)


# Index rows of the 10 pairs and 10 triples of five points.
_PAIRS = np.array(list(combinations(range(5), 2))).T
_TRIPLES = np.array(list(combinations(range(5), 3))).T


def _any_triple_collinear(pts: np.ndarray) -> bool:
    """Whether some triple of the five points has a cross product within
    2 COLLINEARITY_TOL of the largest squared pairwise distance."""
    i, j = _PAIRS
    d = pts[i] - pts[j]
    # One BLAS dot per pair, bit for bit np.dot(d, d); max() keeps its NaN rule.
    scale2 = max(0.0, *np.matmul(d[:, None, :], d[:, :, None]).ravel().tolist())
    i, j, k = _TRIPLES
    pi, pj, pk = pts[i], pts[j], pts[k]
    cross = (pj[:, 0] - pi[:, 0]) * (pk[:, 1] - pi[:, 1]) - (pj[:, 1] - pi[:, 1]) * (
        pk[:, 0] - pi[:, 0]
    )
    return bool((np.abs(cross) <= 2.0 * COLLINEARITY_TOL * scale2).any())


def conic_through_5(points) -> ConicShape:
    """The unique conic through five points in general position.

    Taken as the smallest-singular-value direction of the 5x6 design matrix
    (a full orthogonal decomposition), which is deterministic and
    rank-revealing.
    """
    pts = np.asarray([_as_point(p) for p in points], dtype=float)
    if pts.shape != (5, 2):
        raise InvalidInput("exactly five points are required")
    if _any_triple_collinear(pts):
        raise DegenerateConfiguration("three of the five points are collinear")
    x, y = pts[:, 0], pts[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, sv, vt = np.linalg.svd(design)
    if sv[4] <= CONIC_RANK_TOL * sv[0]:
        raise DegenerateConfiguration("design matrix rank below 5")
    return ConicShape(coefficients=tuple(vt[-1]))


def transform_circle(c: CircleShape, scale: float, dx: float, dy: float) -> CircleShape:
    """Scale about the origin then translate: the three-number map between circles."""
    if not 0.0 < scale < math.inf:
        raise InvalidInput(f"scale {scale!r} must be positive and finite")
    return CircleShape(
        center=(scale * c.center[0] + dx, scale * c.center[1] + dy),
        radius=scale * c.radius,
    )
