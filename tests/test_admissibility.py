"""Tests for the exact positivity decision of closed-form smiles.

A circle, ellipse or vanna-volga smile is admitted only when the least value
on its domain of a polynomial that is positive exactly where its vol is
clears a rounding margin; ``NonpositiveVol`` names the strike where it is
least.  Nothing is sampled, so a dip between any two sample strikes is seen.
"""
import contextlib
import math
import pathlib
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smilegeo import georep, vanna_volga
from smilegeo.bsm import DeltaConvention, MarketState
from smilegeo.errors import InvalidInput, NonpositiveVol
from smilegeo.georep import ReprContext, _unit_point, smile_from_shape
from smilegeo.shapes import CircleShape, ConicShape
from smilegeo.smile import DeltaAnchor, lowest_clearance
from smilegeo.surface import METHODS, complete_expiry, parse_surface
from smilegeo.vanna_volga import ThreeQuoteSmile, vv_smile

MS = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=1.0)
FLAT_MS = MarketState(spot=100.0, dom_rate=0.0, for_rate=0.0, tenor=1.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SWEEP_POINTS = 4097
MARGIN = 1e-12  # smile.POSITIVITY_MARGIN: of the terms a closed form sums before they cancel


def ellipse(h, k, a, b, theta):
    """The conic of the ellipse with centre (h, k), semi-axes a, b, rotated by theta."""
    c, s = math.cos(theta), math.sin(theta)
    qa = c * c / (a * a) + s * s / (b * b)
    qb = 2.0 * c * s * (1.0 / (a * a) - 1.0 / (b * b))
    qc = s * s / (a * a) + c * c / (b * b)
    f = qa * h * h + qb * h * k + qc * k * k - 1.0
    return ConicShape((qa, qb, qc, -2.0 * qa * h - qb * k, -qb * h - 2.0 * qc * k, f))


def dipping_shape(kind, r_scale, x0, depth, reach, aspect=1.0):
    """A circle or ellipse that meets X0's ray R (1 - depth) from the origin, as its
    farthest point along that ray: the centre sits ``reach`` R behind the origin."""
    px, pz, _ = _unit_point(x0)
    semi = r_scale * (reach + 1.0 - depth)
    if kind == "circle":
        return CircleShape(center=(-reach * r_scale * px, -reach * r_scale * pz), radius=semi)
    return ellipse(
        -reach * r_scale * px, -reach * r_scale * pz, semi, semi * aspect, math.atan2(pz, px)
    )


def dipping_first_order(m0, depth, curv, logs, pad):
    """First-order quotes at the log-strikes ``logs`` of the parabola
    curv (ln K - m0)^2 - depth, and a domain ``pad`` wider at each end."""
    vols = [curv * (m - m0) ** 2 - depth for m in logs]
    q = ThreeQuoteSmile(
        anchors=tuple(DeltaAnchor(0.5, math.exp(m), v) for m, v in zip(logs, vols)), market=MS
    )
    return q, math.exp(min(logs[0], m0) - pad), math.exp(max(logs[2], m0) + pad)


class Case(NamedTuple):
    """A drawn smile.  ``build()`` makes it or raises NonpositiveVol; ``probe`` is a
    log-strike where it may dip below zero between any two sample strikes (the
    domain's middle where it has no dip).  ``vol_at`` reads sigma, without the
    decision, at the abscissa the decision names (X for a shape, ln K for
    vanna-volga), and a rejection is genuine where sigma is at most ``slack``,
    the reach of the decision's rounding margin."""

    build: Callable
    k_lo: float
    k_hi: float
    probe: float
    vol_at: Callable
    slack: float


def shape_case(shape, r_scale, k_lo, k_hi, probe):
    """The Case of a shape smile about strike 100.  Along a ray the clearance is
    quad (rho - R)(R - rho'), whose other root rho' is <= 0, so a margin of
    MARGIN times the terms' bound reaches sigma <= margin / (quad R)."""
    ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=r_scale)
    if isinstance(shape, CircleShape):
        terms, quad = shape.radius**2 + (r_scale + math.hypot(*shape.center)) ** 2, 1.0
    else:
        a, b, c, d, e, f = shape.coefficients
        terms = r_scale**2 * (abs(a) + abs(b) + abs(c)) + r_scale * (abs(d) + abs(e)) + abs(f)
        quad = 0.5 * (a + c - math.hypot(a - c, b))  # least of a cos^2 + b cos sin + c sin^2
    return Case(
        lambda: smile_from_shape(shape, ctx, k_lo, k_hi), k_lo, k_hi, probe,
        lambda x: shape.ray_radius(*_unit_point(x)[:2]) - r_scale,
        2.0 * MARGIN * terms / (quad * r_scale),
    )


def vv_case(q, k_lo, k_hi, kind, probe):
    """The Case of a vanna-volga smile.  The margin scales sigma's Lagrange terms
    (first-order), or sigma2^2 and B's terms over sigma2 (market), each within
    span^2 sum |coef_i / den_i| on the domain and the anchors."""
    m = np.log(q.strikes)
    span = max(math.log(k_hi), m[2]) - min(math.log(k_lo), m[0])
    if kind == "first":
        backend = vanna_volga._FirstOrder(q)
        vol_at, coef, base, s2 = backend.vol, q.vols, 0.0, 1.0
    else:
        backend = vanna_volga._MarketOrder(q, q.market)
        vol_at, coef, s2 = backend._vol_at, backend.b_coef, q.vols[1]
        base = s2 * s2
    terms = span * span * sum(abs(c / d) for c, d in zip(coef, backend.w.den))
    return Case(
        lambda: vv_smile(q, k_lo, k_hi, kind), k_lo, k_hi, probe, vol_at,
        2.0 * MARGIN * (base + terms) / s2,
    )


@contextlib.contextmanager
def decisions():
    """Record where each positivity decision finds its least value: X for a
    shape smile, ln K for a vanna-volga one."""
    named = []

    def wrap(decide):
        def record(*args):
            low, at = decide(*args)
            named.append(at)
            return low, at
        return record

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(georep, "lowest_clearance", wrap(lowest_clearance)))
        for backend in (vanna_volga._FirstOrder, vanna_volga._MarketOrder):
            stack.enter_context(mock.patch.object(backend, "lowest", wrap(backend.lowest)))
        yield named


@st.composite
def closed_form_smiles(draw, kind):
    """The Case of a smile of ``kind`` on its domain."""
    dip = kind != "market" and draw(st.booleans())
    # Just below zero to just above it: the decision must see a dip of 1e-9.
    depth = draw(st.floats(-1e-9, 1e-9))
    if kind in ("circle", "ellipse"):
        r_scale = draw(st.floats(0.05, 2.0))
        x_lo, x_hi = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
        k_lo, k_hi = 100.0 * math.exp(-r_scale * x_lo), 100.0 * math.exp(r_scale * x_hi)
        x0 = draw(st.floats(-x_lo, x_hi))
        if dip:
            reach, aspect = draw(st.floats(0.0, 3.0)), draw(st.floats(0.3, 3.0))
            shape = dipping_shape(kind, r_scale, x0, depth, reach, aspect)
        elif kind == "circle":
            cx, cy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
            # The nearest point R (1 + gap) from the origin: from just inside the
            # disk to well outside it; 0 touches.  The origin is always inside.
            gap = draw(st.one_of(st.floats(-0.5, 2.0), st.floats(-1e-9, 1e-9)))
            radius = r_scale * (math.hypot(cx, cy) + 1.0 + gap)
            shape = CircleShape(center=(cx * r_scale, cy * r_scale), radius=radius)
        else:
            a = r_scale * draw(st.floats(1.0, 4.0))
            b = a * draw(st.floats(0.3, 1.0))
            # The centre within 0.9 b of the origin keeps the origin inside.
            off, turn = b * draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 2.0 * math.pi))
            theta = draw(st.floats(0.0, math.pi))
            shape = ellipse(off * math.cos(turn), off * math.sin(turn), a, b, theta)
        probe = math.log(100.0) + r_scale * x0
        return shape_case(shape, r_scale, k_lo, k_hi, probe)
    if dip:
        logs = sorted(math.log(100.0) + draw(st.floats(-0.6, 0.6)) for _ in range(3))
        m0 = draw(st.floats(logs[0] - 0.3, logs[2] + 0.3))
        curv = draw(st.floats(0.5, 20.0))
        vols_ok = logs[0] < logs[1] < logs[2] and min(abs(m - m0) for m in logs) > 1e-3
        if vols_ok:
            q, k_lo, k_hi = dipping_first_order(m0, depth, curv, logs, draw(st.floats(0.0, 1.0)))
            return vv_case(q, k_lo, k_hi, kind, m0)
    k1 = 100.0 * math.exp(-draw(st.floats(0.02, 0.6)))
    k3 = 100.0 * math.exp(draw(st.floats(0.02, 0.6)))
    k2 = k1 * (k3 / k1) ** draw(st.floats(0.1, 0.9))
    s2 = draw(st.floats(0.02, 0.6))
    vols = (s2 * draw(st.floats(0.05, 3.0)), s2, s2 * draw(st.floats(0.05, 3.0)))
    ms = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=draw(st.floats(0.01, 5.0)))
    q = ThreeQuoteSmile(
        anchors=tuple(DeltaAnchor(0.5, k, v) for k, v in zip((k1, k2, k3), vols)), market=ms
    )
    pad = math.log(k3 / k1) * draw(st.floats(0.0, 3.0))
    k_lo, k_hi = k1 * math.exp(-pad), k3 * math.exp(pad)
    return vv_case(q, k_lo, k_hi, kind, math.log(k2))


class _Drawn:
    """Stands in for ``st.data()`` in an ``@example``: every draw gives ``case``."""

    def __init__(self, case):
        self.case = case

    def draw(self, strategy):
        return self.case


# A radius-R circle about (0, 1e-290): sigma is 1e-290 sin(phi) > 0 for |X| > 1,
# but r^2 - R^2 - |c|^2 cancels to 0 and every float vol reads 0.0.  Only a
# margin scaled by R^2, |c|^2 and r^2, not by the coefficients formed, rejects it.
_HAIRLINE = CircleShape(center=(0.0, 1e-290), radius=1.0)
_HAIRLINE_CASE = shape_case(
    _HAIRLINE, 1.0, 100.0 * math.exp(1.5), 100.0 * math.exp(3.0), math.log(100.0) + 2.0
)


class TestProofIsSound:
    @pytest.mark.parametrize("kind", ["circle", "ellipse", "first", "market"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @example(data=_Drawn(_HAIRLINE_CASE))
    def test_proven_smile_is_positive_on_a_dense_sweep(self, kind, data):
        # Every admitted smile reads vol > 0 on a dense sweep and at its probe,
        # and every rejected one reads a vol within the margin's reach of 0
        # where the decision finds its least value.
        case = data.draw(closed_form_smiles(kind))
        with decisions() as named:
            try:
                smile = case.build()
            except NonpositiveVol:
                assert case.vol_at(named[-1]) <= case.slack
                return
        lnk = np.linspace(math.log(case.k_lo), math.log(case.k_hi), SWEEP_POINTS)
        assert (smile.vol_fn(np.append(lnk, case.probe)) > 0.0).all()

    @pytest.mark.parametrize("kind", ["circle", "ellipse", "first"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dip_between_sweep_samples_is_rejected(self, kind, data):
        # A dip of 1e-9 to 1e-4 below zero, narrower than a sweep's spacing.
        depth = data.draw(st.floats(1e-9, 1e-4))
        if kind == "first":
            # The vertex 0.05 or more from every anchor keeps each quote positive.
            gaps = [(3.9, 4.15), (4.25, 4.55), (4.65, 4.85), (4.95, 5.2)]
            m0 = data.draw(st.sampled_from(gaps).flatmap(lambda ab: st.floats(*ab)))
            curv = data.draw(st.floats(0.5, 20.0))
            q, k_lo, k_hi = dipping_first_order(m0, depth, curv, (4.2, 4.6, 4.9), 0.5)
            build = lambda: vv_smile(q, k_lo, k_hi, kind)  # noqa: E731
        else:
            r_scale, x0 = data.draw(st.floats(0.05, 2.0)), data.draw(st.floats(-5.0, 5.0))
            reach, aspect = data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.3, 3.0))
            shape = dipping_shape(kind, r_scale, x0, depth, reach, aspect)
            ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=r_scale)
            k_lo, k_hi = 100.0 * math.exp(-6.0 * r_scale), 100.0 * math.exp(6.0 * r_scale)
            build = lambda: smile_from_shape(shape, ctx, k_lo, k_hi)  # noqa: E731
        with pytest.raises(NonpositiveVol, match="implies vol <= 0 at strike"):
            build()

    def test_circle_proof_at_the_disk_edge(self):
        # Centre (0, 0.5), radius 1: the nearest point, on X = 0's ray, is 0.5
        # from the origin, so the least vol is 0.5 - R.
        shape = CircleShape(center=(0.0, 0.5), radius=1.0)

        def build(r_scale):
            ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=r_scale)
            return smile_from_shape(shape, ctx, 80.0, 125.0)

        assert build(0.5 - 1e-9).vol(100.0) == pytest.approx(1e-9, rel=1e-6)
        for r_scale in (0.5 - 1e-13, 0.5):  # inside the rounding margin, and touching
            with pytest.raises(NonpositiveVol, match="at strike 100$"):
                build(r_scale)

    def test_ellipse_proof(self):
        # x^2 / 4 + y^2 = 1 holds the unit disk, touching it at (0, +-1).
        def ctx(r_scale):
            return ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=r_scale)

        smile_from_shape(ellipse(0.0, 0.0, 2.0, 1.0, 0.0), ctx(0.999), 80.0, 125.0)
        with pytest.raises(NonpositiveVol, match="at strike 100$"):
            smile_from_shape(ellipse(0.0, 0.0, 2.0, 1.0, 0.0), ctx(1.0), 80.0, 125.0)
        with pytest.raises(NonpositiveVol, match="at strike 100$"):
            smile_from_shape(ellipse(0.0, 0.5, 2.0, 1.0, 0.0), ctx(0.6), 80.0, 125.0)


@pytest.mark.parametrize(
    "shape, r_scale, x_lo, x_hi",
    [
        (dipping_shape("ellipse", 1.3, -2.43, 1e-9, 2.24, 2.33), 1.3, -2.9, 5.6),
        (dipping_shape("ellipse", 0.57, 2.81, 1e-9, 2.89, 1.98), 0.57, -2.7, 5.8),
        (ellipse(0.3, 0.05, 0.84, 1.46, 1.31), 1.0, -3.1, 1.3),
        (dipping_shape("ellipse", 0.9, 0.13, 1e-9, 1.76, 2.29), 0.9, -0.7, 2.1),
    ],
    ids=["least-root", "greatest-root", "middle-root", "one-real-root"],
)
def test_ellipse_is_least_at_each_kind_of_critical_point(shape, r_scale, x_lo, x_hi):
    # The quartic's derivative has three real roots or one.  In each case
    # only the root named by the id finds where the clearance dips below 0:
    # the ends and the other roots read it positive.
    ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=r_scale)
    k_lo, k_hi = 100.0 * math.exp(r_scale * x_lo), 100.0 * math.exp(r_scale * x_hi)
    with pytest.raises(NonpositiveVol):
        smile_from_shape(shape, ctx, k_lo, k_hi)


@pytest.mark.parametrize("depth", [0.01, 1e-9])
@pytest.mark.parametrize("h", [0.1, -0.1])
def test_ellipse_through_the_far_pole_with_a_dip_is_rejected(h, depth):
    # R = 1.  The ellipse with centre (h, depth / 2) and semi-axes 1.5 and b
    # passes through (0, 1), where X = +-inf points, so the quartic's leading
    # term is negligible, and X = 0's ray meets it 1 - depth from the origin.
    # Divided by that term, the cubic of critical points rounds to noise.
    k = 0.5 * depth
    shape = ellipse(h, k, 1.5, (1.0 - k) / math.sqrt(1.0 - (h / 1.5) ** 2), 0.0)
    ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=1.0)
    assert shape.ray_radius(*_unit_point(0.0)[:2]) - 1.0 == pytest.approx(-depth, rel=1e-6)
    with pytest.raises(NonpositiveVol, match="inverted shape implies vol <= 0 at strike"):
        smile_from_shape(shape, ctx, 100.0 * math.exp(-3.0), 100.0 * math.exp(3.0))


@pytest.mark.parametrize(
    "coef, lo, hi, least, root",
    [
        ((2.25 - 1e-9, 3.0, -0.5, -1.0, 0.25), -2.0, 2.0, -1e-9, -1.0),
        ((1.75 - 1e-9, -3.0, 0.5, 1.0, -0.25), -0.5, 2.5, -1e-9, 1.0),
        ((2.25 - 1e-9, 3.0, -0.5, -1.0, 0.25), 0.0, 4.0, -1e-9, 3.0),
        ((10.0 / 3.0 - 1e-9, -2.0, 0.5, -2.0 / 3.0, 0.25), 0.0, 4.0, -1e-9, 2.0),
        ((0.0, -3.0, 0.0, 1.0, 2e-6), 0.0, 2.0, -1.9999980000053332, 0.99999866667111),
    ],
    ids=["least-root", "middle-root", "greatest-root", "one-real-root", "small-leading-term"],
)
def test_least_value_of_a_quartic_is_read(coef, lo, hi, least, root):
    # The first three have P' = +-(x + 1)(x - 1)(x - 3), and P' less its cubic
    # term has its roots at 0.85 and -1.18: P is -1e-9 at the root named, its
    # least on [lo, hi], and only that root's closed form reads it.  In the
    # fourth P' = (x - 2)(x^2 + 1) has only Cardano's root, and P' less its
    # cubic term none.  The fifth's cubic of critical points is divided by
    # 8e-6, so each root needs its Newton step: unpolished, the least value
    # read is 1.3e-12 too high.  Its least value is from 60-digit arithmetic.
    low, x = lowest_clearance(coef, (0.0,) * 5, lo, hi)
    assert low == pytest.approx(least, rel=0.0, abs=1e-15)
    assert x == pytest.approx(root, rel=1e-9)


@pytest.mark.parametrize(
    "quotes, tenor, k_lo, k_hi",
    [
        (((95.736, 1.1949), (97.291, 0.54059), (105.41, 0.96067)), 0.02, 76.03, 132.73),
        (((94.436, 0.4087), (137.42, 0.15184), (151.27, 0.39829)), 0.1, 92.0, 155.29),
    ],
    ids=["unclamped", "clamped"],
)
def test_market_stretch_below_zero_is_rejected(quotes, tenor, k_lo, k_hi):
    # sigma <= 0 on a stretch inside the domain whose two ends are both zeros
    # of the unclamped quotient (roots of B + sigma2^2 (2 - D)), or both on the
    # clamped branch (roots of D - 1): only reads there see it.
    ms = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=tenor)
    q = ThreeQuoteSmile(anchors=tuple(DeltaAnchor(0.5, k, v) for k, v in quotes), market=ms)
    with pytest.raises(NonpositiveVol, match="market smile implies vol <= 0 at strike"):
        vv_smile(q, k_lo, k_hi, "market")


def test_market_smile_positive_where_b_dips_is_admitted():
    # B falls below -sigma2^2 on the domain, which sigma <= 0 needs, yet the
    # reads at the ends and the zeros admit the smile, whose vols stay above 0.14.
    ms = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=0.1)
    quotes = ((94.96, 0.347), (101.95, 0.361), (104.05, 0.356))
    q = ThreeQuoteSmile(anchors=tuple(DeltaAnchor(0.5, k, v) for k, v in quotes), market=ms)
    smile = vv_smile(q, 70.3481, 140.4528, "market")
    lnk = np.linspace(math.log(70.3481), math.log(140.4528), SWEEP_POINTS)
    assert np.min(smile.vol_fn.__self__._pieces(lnk)[0]) < -0.361 * 0.361
    assert np.min(smile.vol_fn(lnk)) > 0.14


def test_narrow_dip_is_rejected_at_its_strike():
    # R = 1 and the domain X in [-1, 1]: the circle dips inside the R-circle
    # around X0 = 1/16, between two points of a 17-point sweep of the domain.
    ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=1.0)
    x0 = 1.0 / 16.0
    phi0 = 2.0 * math.atan(x0) - 0.5 * math.pi
    depth = 1.5e-4
    # Centre at 0.5 opposite the dip's direction; there rho = r - 0.5 = 1 - depth.
    shape = CircleShape(
        center=(-0.5 * math.cos(phi0), -0.5 * math.sin(phi0)), radius=1.5 - depth
    )
    k_lo, k_hi = 100.0 * math.exp(-1.0), 100.0 * math.exp(1.0)
    x = np.linspace(-1.0, 1.0, 200001)
    cos, sin, _ = georep._unit_point(x)
    dip = x[shape.ray_radius(cos, sin) - 1.0 <= 0.0]
    width = (dip[-1] - dip[0]) / 2.0
    assert 1.0 / 512.0 < width < 1.0 / 16.0
    with pytest.raises(NonpositiveVol, match="inverted shape implies vol <= 0 at strike") as err:
        smile_from_shape(shape, ctx, k_lo, k_hi)
    named = math.log(float(str(err.value).rsplit(" ", 1)[1]) / 100.0)
    assert dip[0] <= named <= dip[-1]


class TestSampledDipsOfTheSweep:
    """Three smiles that a 513-point sweep of the domain admitted though a vol
    on it is <= 0; each is now rejected at the strike of its least vol."""

    def test_circle_between_sweep_samples(self):
        # The stereographic point u of the ln K halfway between samples 300 and
        # 301 of a 513-point sweep of [50, 200]; the centre at -0.9 u and the
        # radius 0.9 + (1 - 1e-9) read vol -1e-9 there, +1.7e-6 at each sample.
        ctx = ReprContext(market=FLAT_MS, atm_rn=100.0, radius_scale=1.0)
        sweep = np.linspace(math.log(50.0), math.log(200.0), 513)
        m0 = 0.5 * (sweep[300] + sweep[301])
        px, pz, _ = _unit_point(m0 - math.log(100.0))
        shape = CircleShape(center=(-0.9 * px, -0.9 * pz), radius=0.9 + (1.0 - 1e-9))
        with pytest.raises(NonpositiveVol, match="shape implies vol <= 0 at strike 112.805$"):
            smile_from_shape(shape, ctx, 50.0, 200.0)

    def test_first_order_parabola(self):
        # Quotes on the parabola 2 (ln K - ln 112.805)^2 - 1e-9 at 80, 100 and 125.
        logs = [math.log(k) for k in (80.0, 100.0, 125.0)]
        q, _, _ = dipping_first_order(math.log(112.805), 1e-9, 2.0, logs, 0.0)
        with pytest.raises(NonpositiveVol, match="first smile implies vol <= 0 at strike 112.805$"):
            vv_smile(q, 50.0, 200.0, "first")

    def test_market_quotes(self):
        # At T = 0.02 the market smile through these quotes reads -0.0131 at
        # K = 100.2, well inside its domain.
        ms = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=0.02)
        q = ThreeQuoteSmile(
            anchors=tuple(
                DeltaAnchor(0.5, k, v)
                for k, v in ((98.0199, 0.054885), (127.1249, 0.02), (164.8721, 0.026705))
            ),
            market=ms,
        )
        with pytest.raises(NonpositiveVol, match="market smile implies vol <= 0 at strike"):
            vv_smile(q, 31.196, 518.036, "market")


@pytest.mark.parametrize(
    "k_lo,k_hi", [(0.0, 150.0), (-1.0, 150.0), (math.nan, 150.0), (50.0, math.inf)],
    ids=["zero", "negative", "nan", "inf"],
)
@pytest.mark.parametrize("kind", ["circle", "ellipse", "first", "market"])
def test_domain_checked_before_any_proof_or_sweep(kind, k_lo, k_hi):
    # A bad domain must be InvalidInput before the positivity decision reads
    # ln k_lo (a bare ValueError at 0), a NaN strike or an infinite end.
    ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=0.6)
    quotes = ThreeQuoteSmile(
        anchors=tuple(DeltaAnchor(0.5, k, v) for k, v in ((80.0, 0.3), (100.0, 0.2), (125.0, 0.3))),
        market=MS,
    )
    circle = CircleShape(center=(0.0, 0.5), radius=1.0)
    build = {
        "circle": lambda: smile_from_shape(circle, ctx, k_lo, k_hi),
        "ellipse": lambda: smile_from_shape(ellipse(0.0, 0.5, 2.0, 1.0, 0.0), ctx, k_lo, k_hi),
        "first": lambda: vv_smile(quotes, k_lo, k_hi, "first"),
        "market": lambda: vv_smile(quotes, k_lo, k_hi, "market"),
    }[kind]
    with decisions() as named, pytest.raises(InvalidInput, match="need 0 < k_lo < k_hi < inf"):
        build()
    assert named == []


@pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
def test_every_shipped_row_completes_under_every_method(name, conv):
    # Each row of the shipped surfaces completes under every method: the
    # exact decision admits every smile they hold.
    rows = parse_surface((DATA / f"{name}.csv").read_bytes())
    completed = 0
    for method in METHODS:
        for variant in (("market", "first") if method == "vanna-volga" else ("market",)):
            for row in rows:
                complete_expiry(row, method, conv, vv_variant=variant)
                completed += 1
    assert completed == 4 * len(rows) == 56
