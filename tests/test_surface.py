"""Tests for surface parsing, completion, and discrepancy tables."""
import math
import pathlib

import numpy as np
import pytest

import smilegeo
from smilegeo.bsm import DeltaConvention, MarketState, atm_rn_lognormal
from smilegeo.errors import (
    InvalidInput,
    MissingAnchor,
    ParseError,
    SmileGeoError,
    TargetOutsideDomain,
)
from smilegeo.distributions import DensityCurve, Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.georep import ReprContext, RepresentationCurve, flat_context, represent_anchors
from smilegeo.shapes import CircleShape, ConicShape, circumcircle, conic_through_5
from smilegeo.smile import DeltaAnchor, GridSpec, SmileCurve, density_from_smile, flat_smile
from smilegeo.surface import (
    ANCHOR_LABELS,
    CSV_HEADER,
    LABELS,
    METHODS,
    SurfaceQuoteRow,
    complete_expiry,
    discrepancy_table,
    effective_nd1_target,
    label_strike,
    parse_surface,
    synthetic_circle_surface,
    synthetic_gamma_surface,
)
from smilegeo.vanna_volga import ThreeQuoteSmile

CONV = DeltaConvention.SPOT_PIPS
MS = MarketState(spot=1.1, dom_rate=0.02, for_rate=0.01, tenor=1.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def flat_row(vol=0.10, expiry="1Y", tenor=1.0):
    return SurfaceQuoteRow(
        expiry_label=expiry,
        tenor_years=tenor,
        spot=1.10,
        dom_rate=0.02,
        for_rate=0.01,
        vols={lab: vol for lab in LABELS},
    )


class TestParse:
    def test_round_trip_counts(self):
        rows = parse_surface(synthetic_circle_surface())
        assert len(rows) == 14
        assert rows[0].expiry_label == "2W"
        assert set(rows[0].vols) == set(LABELS)

    def test_bytes_input(self):
        rows = parse_surface(synthetic_gamma_surface().encode())
        assert len(rows) == 14

    def test_missing_anchor_named(self):
        text = CSV_HEADER + "\n1Y,1.0,1.1,0.02,0.01,0.11,0.105,,0.1,0.1,0.1,0.1,0.1,0.11\n"
        with pytest.raises(MissingAnchor) as err:
            parse_surface(text)
        assert "25P" in str(err.value)
        assert "1Y" in str(err.value)

    def test_optional_quotes_may_be_empty(self):
        text = CSV_HEADER + "\n6M,0.5,1.1,0.02,0.01,,,0.105,,0.1,,0.099,,\n"
        rows = parse_surface(text)
        assert set(rows[0].vols) == {"25P", "ATM", "25C"}

    def test_non_numeric_cell_located(self):
        text = CSV_HEADER + "\n1Y,1.0,1.1,0.02,0.01,0.11,0.105,0.102,0.1,oops,0.1,0.1,0.1,0.11\n"
        with pytest.raises(ParseError) as err:
            parse_surface(text)
        assert err.value.line == 2
        assert err.value.field == "atm"

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_surface("a,b,c\n1,2,3\n")

    def test_field_count_mismatch(self):
        text = CSV_HEADER + "\n1Y,1.0,1.1\n"
        with pytest.raises(ParseError) as err:
            parse_surface(text)
        assert err.value.line == 2

    def test_nonpositive_tenor_rejected_with_line(self):
        text = CSV_HEADER + "\n1Y,0.0,1.1,0.02,0.01,,,0.102,,0.1,,0.099,,\n"
        with pytest.raises(ParseError) as err:
            parse_surface(text)
        assert err.value.line == 2

    def test_negative_vol_rejected_with_line(self):
        text = CSV_HEADER + "\n1Y,1.0,1.1,0.02,0.01,,,-0.102,,0.1,,0.099,,\n"
        with pytest.raises(ParseError) as err:
            parse_surface(text)
        assert err.value.line == 2

    def test_blank_lines_skipped(self):
        text = CSV_HEADER + "\n\n1Y,1.0,1.1,0.02,0.01,,,0.102,,0.1,,0.099,,\n\n"
        assert len(parse_surface(text)) == 1


def _three_quotes(strikes):
    anchors = tuple(DeltaAnchor(target=0.5, strike=k, vol=0.1) for k in strikes)
    return ThreeQuoteSmile(anchors=anchors, market=flat_row().market())


class TestConstructorErrors:
    """Bad input to a library constructor raises InvalidInput, which is both a
    SmileGeoError and a ValueError."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MarketState(spot=-1.1, dom_rate=0.02, for_rate=0.01, tenor=1.0),
            lambda: MarketState(spot=1.1, dom_rate=0.02, for_rate=0.01, tenor=-1.0),
            lambda: MarketState(spot=1.1, dom_rate=math.inf, for_rate=0.01, tenor=1.0),
            lambda: _three_quotes((1.0, 1.1)),
            lambda: _three_quotes((1.0, 1.2, 1.1)),
            lambda: CircleShape(center=(0.0, 0.0), radius=0.0),
            lambda: ConicShape(coefficients=(0.0,) * 6),
            lambda: flat_context(MS, 1e300),
            lambda: ReprContext(market=MS, atm_rn=1.1, radius_scale=-1.0),
            lambda: GridSpec(n=3),
            lambda: SmileCurve(MS, 2.0, 1.0, np.log, np.log),
            lambda: DensityCurve(strikes=np.array([1.0, 1.0]), values=np.zeros(2)),
            lambda: DensityCurve(strikes=np.ones(3), values=np.zeros(2)),
            lambda: RepresentationCurve(
                strikes=np.array([1.0, 2.0]), angles=np.array([0.1, 0.2]),
                radii=np.array([1.0, -1.0]), points=np.zeros((2, 2)),
                context=ReprContext(market=MS, atm_rn=1.1, radius_scale=0.5),
            ),
            lambda: flat_smile(MS, 0.0),
            lambda: StudentT(mu=10.0, nu=math.inf),
            lambda: StudentT(mu=10.0, nu=math.nan),
            lambda: StudentT(mu=math.nan, nu=3.0),
            lambda: StudentT(mu=10.0, nu=1.0),
            lambda: StudentT(mu=10.0, nu=3.0).quantile(1.0),
            lambda: Normal(mu=10.0, s=math.inf),
            lambda: Normal(mu=-math.inf, s=3.0),
            lambda: Normal(mu=10.0, s=0.0),
            lambda: LogNormal(mu=math.nan, s=0.2),
            lambda: LogNormal(mu=1.0, s=-0.2),
            lambda: Gamma(kappa=math.inf, theta=1.0),
            lambda: Gamma(kappa=1.0, theta=0.0),
            lambda: Uniform(a=1.0, b=math.inf),
            lambda: Uniform(a=2.0, b=1.0),
        ],
        ids=[
            "spot", "tenor", "rate", "three-anchors", "anchor-order", "radius", "conic-zero",
            "flat-context-overflow", "context-scale", "grid-points", "smile-domain",
            "density-order", "density-shape", "repr-radii", "flat-smile-vol",
            "student-inf-nu", "student-nan-nu", "student-nan-mu", "student-nu", "student-quantile",
            "normal-inf-s", "normal-inf-mu", "normal-s", "lognormal-nan-mu", "lognormal-s",
            "gamma-inf-kappa", "gamma-theta", "uniform-inf-b", "uniform-order",
        ],
    )
    def test_caught_as_both_types(self, build):
        with pytest.raises(InvalidInput) as err:
            build()
        assert isinstance(err.value, SmileGeoError)
        assert isinstance(err.value, ValueError)
        assert smilegeo.InvalidInput is InvalidInput

    def test_parse_surface_still_names_the_line(self):
        text = CSV_HEADER + "\n1Y,1.0,-1.1,0.02,0.01,,,0.102,,0.1,,0.099,,\n"
        with pytest.raises(ParseError, match="spot must be positive") as err:
            parse_surface(text)
        assert err.value.line == 2


class TestLabelStrikes:
    def test_atm_label_uses_delta_neutral_rule(self):
        row = flat_row()
        ms = row.market()
        assert label_strike(row, "ATM", CONV) == pytest.approx(
            atm_rn_lognormal(ms, 0.10), rel=1e-14
        )

    def test_put_call_strikes_bracket_atm(self):
        row = flat_row()
        ks = {lab: label_strike(row, lab, CONV) for lab in LABELS}
        assert ks["10P"] < ks["25P"] < ks["ATM"] < ks["25C"] < ks["10C"]

    def test_effective_target_conventions(self):
        ms = flat_row().market()
        fw = effective_nd1_target("25P", ms, DeltaConvention.FORWARD_N)
        sp = effective_nd1_target("25P", ms, DeltaConvention.SPOT_PIPS)
        assert fw == 0.25
        assert sp == pytest.approx(0.25 * math.exp(0.01 * 1.0), rel=1e-14)
        assert effective_nd1_target("25C", ms, DeltaConvention.FORWARD_N) == 0.75

    def test_spot_pips_target_outside_domain(self):
        # e^{-qT} = e^{-30}: the 25P target divided by it leaves (0, 1).
        ms = MarketState(spot=3.4, dom_rate=0.015, for_rate=30.0, tenor=1.0)
        with pytest.raises(TargetOutsideDomain, match="25P"):
            effective_nd1_target("25P", ms, DeltaConvention.SPOT_PIPS)
        assert effective_nd1_target("25P", ms, DeltaConvention.FORWARD_N) == 0.25


    @pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
    def test_stored_strikes_are_label_strikes(self, name):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            for conv in DeltaConvention:
                stored = row.strikes(conv)
                assert list(stored) == list(row.vols)
                for lab in row.vols:
                    assert stored[lab] == label_strike(row, lab, conv)
                stored.clear()  # a copy: the row keeps its strikes
                assert row.strikes(conv)

    def test_target_outside_domain_raised_at_completion(self):
        row = SurfaceQuoteRow(
            expiry_label="1Y", tenor_years=1.0, spot=3.4, dom_rate=0.015, for_rate=30.0,
            vols={lab: 0.1 for lab in LABELS},
        )
        with pytest.raises(TargetOutsideDomain, match="10P"):
            row.strikes(CONV)
        with pytest.raises(TargetOutsideDomain, match="10P"):
            complete_expiry(row, "vanna-volga", CONV)
        assert complete_expiry(row, "vanna-volga", DeltaConvention.FORWARD_N).label_strikes == {
            lab: label_strike(row, lab, DeltaConvention.FORWARD_N) for lab in LABELS
        }


class TestCompleteExpiry:
    @pytest.mark.parametrize("method", ["circle", "ellipse", "vanna-volga"])
    def test_flat_quotes_give_flat_smile(self, method):
        row = flat_row()
        completed = complete_expiry(row, method, CONV)
        ks = np.array(sorted(completed.label_strikes.values()))
        vols = np.asarray(completed.smile.vol(ks))
        assert np.max(np.abs(vols - 0.10)) <= 1e-10

    @pytest.mark.parametrize("method", ["circle", "ellipse", "vanna-volga"])
    def test_anchor_vols_reproduced(self, method):
        rows = parse_surface(synthetic_gamma_surface())
        completed = complete_expiry(rows[8], method, CONV)
        for anchor in completed.anchors:
            assert float(completed.smile.vol(anchor.strike)) == pytest.approx(
                anchor.vol, abs=1e-10
            )
        # The completion carries the very shape fitted through its anchors.
        if method == "vanna-volga":
            assert completed.shape is None
        else:
            pts = represent_anchors(completed.anchors, completed.ctx)
            fit = circumcircle(*pts) if method == "circle" else conic_through_5(pts)
            assert completed.shape == fit

    @pytest.mark.parametrize("method", METHODS)
    def test_density_on_default_grid(self, method):
        # exp(log(k_hi)) may overshoot k_hi by an ulp; the grid must not.
        for name in ("synthetic_circle_surface", "synthetic_gamma_surface"):
            for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
                smile = complete_expiry(row, method, CONV).smile
                density_from_smile(smile, smile.default_grid())

    def test_evaluable_at_all_labels(self):
        rows = parse_surface(synthetic_gamma_surface())
        completed = complete_expiry(rows[0], "circle", CONV)
        for lab, k in completed.label_strikes.items():
            assert float(completed.smile.vol(k)) > 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            complete_expiry(flat_row(), "spline", CONV)

    def test_ellipse_requires_ten_delta_quotes(self):
        vols = {lab: 0.1 for lab in ("25P", "ATM", "25C")}
        row = SurfaceQuoteRow(
            expiry_label="1Y", tenor_years=1.0, spot=1.1, dom_rate=0.0, for_rate=0.0, vols=vols
        )
        with pytest.raises(MissingAnchor):
            complete_expiry(row, "ellipse", CONV)


class TestDiscrepancyTable:
    def test_circle_surface_recovered_exactly(self):
        rows = parse_surface(synthetic_circle_surface())
        table = discrepancy_table(rows, "circle", CONV)
        assert not table.errors
        assert table.grand_l2 <= 1e-8

    @pytest.mark.parametrize("method", ["circle", "vanna-volga", "ellipse"])
    def test_anchor_columns_exactly_zero(self, method):
        rows = parse_surface(synthetic_gamma_surface())
        table = discrepancy_table(rows, method, CONV)
        assert not table.errors
        for cells in table.cells:
            for lab in ANCHOR_LABELS:
                assert cells[lab] == 0.0
        for lab in ANCHOR_LABELS:
            assert table.col_l2[lab] == 0.0

    def test_norm_identities(self):
        rows = parse_surface(synthetic_gamma_surface())
        table = discrepancy_table(rows, "vanna-volga", CONV)
        for cells, row_l2 in zip(table.cells, table.row_l2):
            present = [v for v in cells.values() if v is not None]
            assert row_l2 == pytest.approx(math.sqrt(sum(v * v for v in present)), abs=1e-15)
        assert table.grand_l2 == pytest.approx(
            math.sqrt(sum(v * v for v in table.row_l2)), rel=1e-12
        )
        by_cols = math.sqrt(sum(v * v for v in table.col_l2.values()))
        assert table.grand_l2 == pytest.approx(by_cols, rel=1e-12)

    def test_wings_differ_between_methods(self):
        rows = parse_surface(synthetic_gamma_surface())
        circle = discrepancy_table(rows, "circle", CONV)
        vv = discrepancy_table(rows, "vanna-volga", CONV)
        gaps = [
            abs(c["10P"] - v["10P"]) + abs(c["10C"] - v["10C"])
            for c, v in zip(circle.cells, vv.cells)
        ]
        assert min(gaps) > 0.0

    def test_failed_row_reported_not_fatal(self):
        rows = list(parse_surface(synthetic_gamma_surface()))
        # A wildly inconsistent middle quote makes the circle fit
        # inadmissible for this row; the table must carry on.
        bad = SurfaceQuoteRow(
            expiry_label="BAD",
            tenor_years=1.0,
            spot=3.4,
            dom_rate=0.015,
            for_rate=0.005,
            vols={"25P": 0.09, "ATM": 0.6, "25C": 0.09},
        )
        table = discrepancy_table(rows[:3] + [bad], "circle", CONV)
        assert "BAD" in table.errors
        assert table.row_l2[3] is None
        assert all(v is None for v in table.cells[3].values())
        assert table.row_l2[0] is not None


class TestSynthetics:
    def test_deterministic_output(self):
        assert synthetic_circle_surface() == synthetic_circle_surface()
        assert synthetic_gamma_surface() == synthetic_gamma_surface()

    def test_shipped_files_match_builders(self):
        import pathlib

        data = pathlib.Path(__file__).resolve().parent.parent / "data"
        assert (data / "synthetic_circle_surface.csv").read_text() == synthetic_circle_surface()
        assert (data / "synthetic_gamma_surface.csv").read_text() == synthetic_gamma_surface()
        assert (data / "surface_template.csv").read_text().strip() == CSV_HEADER

    @pytest.mark.parametrize(
        "name, builder",
        [
            ("synthetic_circle_surface", synthetic_circle_surface),
            ("synthetic_gamma_surface", synthetic_gamma_surface),
        ],
    )
    def test_shipped_bytes_regenerate(self, name, builder):
        # Bytes, not text: reading text would translate line endings.
        assert (DATA / f"{name}.csv").read_bytes() == builder().encode("utf-8")
