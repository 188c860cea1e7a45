"""The paper's symmetries as checked properties.

The representation is built from moneyness, ln(K / K_atm) / R, so the units
of the underlying do not matter: scaling a surface's spot by c scales every
label strike by c and leaves every completed smile where it was.  Each
completed label vol must hold to ``SPOT_SCALE_TOL`` relative under circle,
ellipse and both vanna-volga completions, on the shipped surfaces and on
seeded generated ones.

First-order vanna-volga gets twice that bound.  Its Lagrange weights divide
differences of ln K, and ln K's rounding grows with |ln K|: a spot of about
140 scaled by 1e5 moves one 10P vol by 1.06e-13 (generated seed 2150190934;
the worst of 5,000 draws).  The other methods stayed below 6e-14 there.

Discounting does not enter the smile either: changing the rates (r, q) with
the forward held fixed must leave a distribution's smile within
``RATE_TOL`` relative.  And a LogNormal's smile is flat, so its report's
circle is centred at the origin: the scale-and-translate map that carries
one LogNormal report's circle onto another's is a scale alone, its
translation (dx, dy) within ``LOGNORMAL_SHIFT_TOL`` of the target radius.

Scaling the underlying of a distribution by c leaves its report's circle, R,
centre strike over c, margin and unclamped KLs where they were, each within
its ``SCALE_*`` bound; the clamped vanna-volga KL does not hold yet.
"""
import functools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smilegeo.distributions import Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.shapes import transform_circle
from smilegeo.smile import smile_from_distribution
from smilegeo.surface import CSV_HEADER, STANDARD_EXPIRIES, discrepancy_table, parse_surface
from smilegeo.workflows import distribution_report, market_state_for

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SHIPPED = tuple(
    (DATA / f"{name}.csv").read_text()
    for name in ("synthetic_circle_surface", "synthetic_gamma_surface")
)
METHODS = (
    ("circle", "market"), ("ellipse", "market"), ("vanna-volga", "market"), ("vanna-volga", "first")
)
SPOT_SCALE_TOL = 1e-13
SCALE_TOLS = (SPOT_SCALE_TOL, SPOT_SCALE_TOL, SPOT_SCALE_TOL, 2.0 * SPOT_SCALE_TOL)


def generated_surface(seed: int) -> str:
    """A 14-expiry surface from seeded ATM, 25- and 10-delta risk-reversal and
    butterfly quotes; the 15- and 35-delta labels are linear in delta."""
    rng = np.random.default_rng(seed)
    spot = math.exp(rng.uniform(math.log(0.5), math.log(150.0)))
    dom, forr = rng.uniform(-0.01, 0.06), rng.uniform(-0.01, 0.05)
    atm_base, rr_base = rng.uniform(0.07, 0.20), rng.uniform(-0.02, 0.02)
    bf_base = rng.uniform(0.002, 0.006)
    lines = [CSV_HEADER]
    for label, tenor in STANDARD_EXPIRIES:
        atm = atm_base + 0.005 * math.log(tenor) + rng.uniform(-0.003, 0.003)
        rr25, bf25 = rr_base * atm / 0.12, bf_base * atm / 0.12
        rr10, bf10 = rr25 * rng.uniform(1.7, 2.0), bf25 * rng.uniform(2.8, 3.6)
        v25p, v25c = atm + bf25 - 0.5 * rr25, atm + bf25 + 0.5 * rr25
        v10p, v10c = atm + bf10 - 0.5 * rr10, atm + bf10 + 0.5 * rr10
        vols = (
            v10p, v10p + (v25p - v10p) / 3.0, v25p, v25p + 0.4 * (atm - v25p), atm,
            v25c + 0.4 * (atm - v25c), v25c, v10c + (v25c - v10c) / 3.0, v10c,
        )
        cells = ",".join(f"{v:.12f}" for v in vols)
        lines.append(f"{label},{tenor:.10f},{spot!r},{dom!r},{forr!r},{cells}")
    return "\n".join(lines) + "\n"


def with_spot_scaled(text: str, c: float) -> str:
    header, *rows = text.strip().splitlines()
    out = [header]
    for line in rows:
        cells = line.split(",")
        cells[2] = repr(float(cells[2]) * c)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


@functools.lru_cache(maxsize=None)
def completed_vols(text: str):
    """Per method, the failed expiries and every completed label vol."""
    rows = parse_surface(text)
    out = []
    for method, variant in METHODS:
        table = discrepancy_table(rows, method, vv_variant=variant)
        out.append((set(table.errors), table.vols))
    return out


surfaces = st.one_of(st.sampled_from(SHIPPED), st.integers(0, 2**32 - 1).map(generated_surface))


@settings(max_examples=60, deadline=None)
@given(text=surfaces, log_c=st.floats(-3.0, 5.0))
@example(text=generated_surface(2150190934), log_c=5.0)
def test_spot_scale_leaves_completed_vols(text, log_c):
    scaled = with_spot_scaled(text, 10.0**log_c)
    pairs = zip(completed_vols(text), completed_vols(scaled), SCALE_TOLS)
    for (errors, vols), (errors_c, vols_c), tol in pairs:
        assert errors_c == errors
        for row, row_c in zip(vols, vols_c):
            for lab, vol in row.items():
                if vol is None:
                    assert row_c[lab] is None
                    continue
                assert abs(row_c[lab] - vol) <= tol * vol, (lab, vol, row_c[lab])


def test_generated_surfaces_complete():
    # The property above only means something where the rows complete.
    for seed in range(5):
        for errors, vols in completed_vols(generated_surface(seed)):
            assert not errors
            assert all(v is not None for row in vols for v in row.values())


# Measured over 150 seeded (r, q) in [-0.05, 0.10]^2 at 501 strikes: Gamma
# 2.7e-12, LogNormal 3.9e-13, the Normal 2.7e-13 (its grid ends 3.8e-15),
# the StudentTs 3.4e-14; (0.03, 0.01), (-0.01, 0.02) and (0.05, 0.05) give
# the Gamma 1.5e-12.  Uniform wing vols hold only to the pricing noise
# (1.1e-5), so it is not drawn here.
RATE_TOL = 1e-11
RATE_FAMILIES = (
    Gamma(kappa=5.12, theta=0.64),
    Normal(mu=11.3328, s=3.0),
    StudentT(mu=3.7322, nu=3.9565),
    StudentT(mu=3.7201, nu=7.3824),
    LogNormal(mu=1.0, s=0.25),
)


@functools.lru_cache(maxsize=None)
def zero_rate_smile(dist):
    return smile_from_distribution(dist, market_state_for(dist))


@settings(max_examples=40, deadline=None)
@given(
    dist=st.sampled_from(RATE_FAMILIES),
    dom=st.floats(-0.05, 0.10),
    forr=st.floats(-0.05, 0.10),
)
@example(dist=RATE_FAMILIES[0], dom=0.03, forr=0.01)
@example(dist=RATE_FAMILIES[0], dom=-0.01, forr=0.02)
@example(dist=RATE_FAMILIES[0], dom=0.05, forr=0.05)
def test_rates_with_forward_fixed_leave_smile(dist, dom, forr):
    base = zero_rate_smile(dist)
    moved = smile_from_distribution(dist, market_state_for(dist, dom, forr))
    lo, hi = max(base.k_lo, moved.k_lo), min(base.k_hi, moved.k_hi)
    strikes = np.exp(np.linspace(math.log(lo), math.log(hi), 501))
    vols = base.vol(strikes)
    assert np.max(np.abs(moved.vol(strikes) - vols) / vols) <= RATE_TOL


# Measured 5.2e-15 over the 144 ordered pairs of 12 seeded LogNormals.
LOGNORMAL_SHIFT_TOL = 2e-14


def test_lognormal_circles_related_by_scale_alone():
    rng = np.random.default_rng(20240611)
    dists = [LogNormal(mu=rng.uniform(-3.0, 6.0), s=rng.uniform(0.08, 0.45)) for _ in range(12)]
    circles = [distribution_report(dist).circle for dist in dists]
    for src in circles:
        for dst in circles:
            scale = dst.radius / src.radius
            dx = dst.center[0] - scale * src.center[0]
            dy = dst.center[1] - scale * src.center[1]
            assert max(abs(dx), abs(dy)) <= LOGNORMAL_SHIFT_TOL * dst.radius
            # The scale alone carries src onto dst.
            moved = transform_circle(src, scale, 0.0, 0.0)
            assert math.dist(moved.center, dst.center) <= LOGNORMAL_SHIFT_TOL * dst.radius
            assert moved.radius == pytest.approx(dst.radius, rel=1e-15)


# Scaling the underlying by c scales every strike by c; the report's frame,
# circle, margin and unclamped KLs do not move.  Measured over c = 1e-3, 7,
# 1e4 and 200 seeded log-uniform c in [1e-3, 1e4] per family: circle 5.1e-14
# and R 8.7e-14 (both the Uniform), atm_rn / c 3.1e-15, margin 3.6e-14
# absolute, and KLs 1.5e-11 relative (the Uniform's circle) or 5.1e-16
# absolute (the LogNormal's, near 1e-16).  StudentT has unit scale here.
SCALE_CIRCLE_TOL = 2e-13
SCALE_R_TOL = 4e-13
SCALE_ATM_TOL = 1.5e-14
SCALE_MARGIN_TOL = 1.5e-13
SCALE_KL_RTOL, SCALE_KL_ATOL = 6e-11, 2e-15
KL_FIELDS = ("kl_circle", "kl_vanna_volga", "kl_best_lognormal")
FAMILY_NAMES = ("normal", "gamma", "lognormal", "uniform")


def scaled_family(name: str, c: float):
    if name == "normal":
        return Normal(mu=11.3328 * c, s=3.0 * c)
    if name == "gamma":
        return Gamma(kappa=5.12, theta=0.64 * c)
    if name == "lognormal":
        return LogNormal(mu=1.0 + math.log(c), s=0.25)
    return Uniform(a=2.0109 * c, b=5.4750 * c)


@functools.lru_cache(maxsize=None)
def unit_report(name: str):
    return distribution_report(scaled_family(name, 1.0))


def assert_kl_kept(base, scaled):
    assert scaled.clamped_fraction == base.clamped_fraction
    bound = SCALE_KL_RTOL * abs(base.kl_nats) + SCALE_KL_ATOL
    assert abs(scaled.kl_nats - base.kl_nats) <= bound, (base.kl_nats, scaled.kl_nats)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(FAMILY_NAMES), c=st.floats(-3.0, 4.0).map(lambda e: 10.0**e))
@example(name="uniform", c=1e-3)
@example(name="gamma", c=7.0)
@example(name="lognormal", c=1e4)
def test_underlying_scale_leaves_report(name, c):
    base, rep = unit_report(name), distribution_report(scaled_family(name, c))
    radius = base.circle.radius
    assert math.dist(rep.circle.center, base.circle.center) <= SCALE_CIRCLE_TOL * radius
    assert abs(rep.circle.radius - radius) <= SCALE_CIRCLE_TOL * radius
    assert abs(rep.ctx.radius_scale - base.ctx.radius_scale) <= SCALE_R_TOL * base.ctx.radius_scale
    assert abs(rep.ctx.atm_rn / c - base.ctx.atm_rn) <= SCALE_ATM_TOL * base.ctx.atm_rn
    assert abs(rep.margin - base.margin) <= SCALE_MARGIN_TOL
    for field in KL_FIELDS:
        if getattr(base, field).clamped_fraction == 0.0:
            assert_kl_kept(getattr(base, field), getattr(rep, field))


# The clamped vanna-volga KL is not scale-free: kl_divergence raises q to
# KL_CLAMP_FLOOR in absolute density units (1/strike), so the clamped points'
# log-ratio shifts by about ln c.  Gamma(5.12, 0.64) reads 0.5541 nats at
# c = 1 and 0.5442 at c = 7, with clamped_fraction 0.0442 at both.
@pytest.mark.xfail(strict=True, reason="the KL clamp floor is in absolute density units")
def test_clamped_vanna_volga_kl_scale():
    base, rep = unit_report("gamma"), distribution_report(scaled_family("gamma", 7.0))
    assert base.kl_vanna_volga.clamped_fraction > 0.0
    assert_kl_kept(base.kl_vanna_volga, rep.kl_vanna_volga)
