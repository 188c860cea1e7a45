"""Tests for the positivity proofs of closed-form smiles and their sweep fallback.

A circle or ellipse that encloses the disk of radius R, and a vanna-volga
smile whose parabola clears its bound, is proved positive at construction;
only the others run the ``require_positive_vol`` sweep, which alone rejects.
"""
import contextlib
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smilegeo import georep, smile as smile_module, vanna_volga
from smilegeo.bsm import DeltaConvention, MarketState
from smilegeo.errors import InvalidInput, NonpositiveVol
from smilegeo.georep import ReprContext, smile_from_shape
from smilegeo.shapes import CircleShape, ConicShape
from smilegeo.smile import DeltaAnchor
from smilegeo.surface import METHODS, complete_expiry, parse_surface
from smilegeo.vanna_volga import ThreeQuoteSmile, vv_smile

MS = MarketState(spot=100.0, dom_rate=0.01, for_rate=0.02, tenor=1.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SWEEP_POINTS = 4097


@contextlib.contextmanager
def sweeps():
    """The ``what`` of each admissibility sweep a closed-form smile runs."""
    calls = []

    def record(vol_fn, k_lo, k_hi, what):
        calls.append(what)
        smile_module.require_positive_vol(vol_fn, k_lo, k_hi, what)

    with mock.patch.object(georep, "require_positive_vol", record), mock.patch.object(
        vanna_volga, "require_positive_vol", record
    ):
        yield calls


def ellipse(h, k, a, b, theta):
    """The conic of the ellipse with centre (h, k), semi-axes a, b, rotated by theta."""
    c, s = math.cos(theta), math.sin(theta)
    qa = c * c / (a * a) + s * s / (b * b)
    qb = 2.0 * c * s * (1.0 / (a * a) - 1.0 / (b * b))
    qc = s * s / (a * a) + c * c / (b * b)
    f = qa * h * h + qb * h * k + qc * k * k - 1.0
    return ConicShape((qa, qb, qc, -2.0 * qa * h - qb * k, -qb * h - 2.0 * qc * k, f))


@st.composite
def closed_form_smiles(draw, kind):
    """(build, k_lo, k_hi): a smile of ``kind`` on its domain, built by ``build()``."""
    if kind in ("circle", "ellipse"):
        r_scale = draw(st.floats(0.05, 2.0))
        ctx = ReprContext(market=MS, atm_rn=100.0, radius_scale=r_scale)
        x_lo, x_hi = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
        k_lo, k_hi = 100.0 * math.exp(-r_scale * x_lo), 100.0 * math.exp(r_scale * x_hi)
        if kind == "circle":
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
        return (lambda: smile_from_shape(shape, ctx, k_lo, k_hi)), k_lo, k_hi
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
    return (lambda: vv_smile(q, k_lo, k_hi, kind)), k_lo, k_hi


class TestProofIsSound:
    @pytest.mark.parametrize("kind", ["circle", "ellipse", "first", "market"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_proven_smile_is_positive_on_a_dense_sweep(self, kind, data):
        build, k_lo, k_hi = data.draw(closed_form_smiles(kind))
        with sweeps() as calls:
            try:
                smile = build()
            except NonpositiveVol:
                assert calls  # only the sweep rejects
                return
        if not calls:
            lnk = np.linspace(math.log(k_lo), math.log(k_hi), SWEEP_POINTS)
            assert (smile.vol_fn(lnk) > 0.0).all()

    def test_circle_proof_at_the_disk_edge(self):
        # Centre (0, 0.5), radius 1: the nearest point is 0.5 from the origin.
        shape = CircleShape(center=(0.0, 0.5), radius=1.0)
        assert shape.encloses_disk(0.5 - 1e-9)
        assert not shape.encloses_disk(0.5 - 1e-13)  # inside the rounding margin
        assert not shape.encloses_disk(0.5)

    def test_ellipse_proof(self):
        # x^2 / 4 + y^2 = 1 holds the unit disk, touching it at (0, +-1).
        assert ellipse(0.0, 0.0, 2.0, 1.0, 0.0).encloses_disk(0.999)
        assert not ellipse(0.0, 0.0, 2.0, 1.0, 0.0).encloses_disk(1.0)
        assert not ellipse(0.0, 0.5, 2.0, 1.0, 0.0).encloses_disk(0.6)


def test_sweep_rejects_a_narrow_dip_the_proof_leaves_to_it():
    # R = 1 and the domain X in [-1, 1]: the circle dips inside the R-circle
    # around X0 = 1/16, between two points of a 17-point sweep of the domain,
    # so it takes the 513-point sweep to see sigma <= 0 there.
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
    assert not shape.encloses_disk(1.0)
    with pytest.raises(NonpositiveVol, match="inverted shape implies vol <= 0 at strike"):
        smile_from_shape(shape, ctx, k_lo, k_hi)


@pytest.mark.parametrize(
    "k_lo,k_hi", [(0.0, 150.0), (-1.0, 150.0), (math.nan, 150.0), (50.0, math.inf)],
    ids=["zero", "negative", "nan", "inf"],
)
@pytest.mark.parametrize("kind", ["circle", "ellipse", "first", "market"])
def test_domain_checked_before_any_proof_or_sweep(kind, k_lo, k_hi):
    # A bad domain must be InvalidInput before any proof or sweep reads
    # ln k_lo (a bare ValueError at 0), a NaN strike or an infinite end.  The
    # shapes fail their proofs, so they would be swept.
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
    with sweeps() as calls, pytest.raises(InvalidInput, match="need 0 < k_lo < k_hi < inf"):
        build()
    assert calls == []


@pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
def test_every_shipped_row_is_proved_without_a_sweep(name, conv):
    # The proofs carry the whole gain: each row of the shipped surfaces that
    # completes, under every method, builds its smile with no sweep.
    rows = parse_surface((DATA / f"{name}.csv").read_bytes())
    completed = 0
    with sweeps() as calls:
        for method in METHODS:
            for variant in (("market", "first") if method == "vanna-volga" else ("market",)):
                for row in rows:
                    complete_expiry(row, method, conv, vv_variant=variant)
                    completed += 1
    assert calls == []
    assert completed == 4 * len(rows) == 56
