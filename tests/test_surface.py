"""Tests for surface parsing, completion, and discrepancy tables."""
import math
import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smilegeo
from smilegeo.bsm import DeltaConvention, MarketState, atm_rn_lognormal, strike_for_target_nd1
from smilegeo.errors import (
    InvalidInput,
    MissingAnchor,
    ParseError,
    SmileGeoError,
    TargetOutsideDomain,
)
from smilegeo.distributions import DensityCurve, Gamma, LogNormal, Normal, StudentT, Uniform
from smilegeo.emit import TableArtifact, render_csv
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
    parse_surface,
    synthetic_circle_surface,
    synthetic_gamma_surface,
)
from smilegeo.vanna_volga import ThreeQuoteSmile

CONV = DeltaConvention.SPOT_PIPS
MS = MarketState(spot=1.1, dom_rate=0.02, for_rate=0.01, tenor=1.0)
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
SHIPPED = [
    (DATA / f"{name}.csv").read_bytes()
    for name in ("synthetic_circle_surface", "synthetic_gamma_surface")
]
# Bytes that the decoder, csv or float() treat specially.
MUTATION_BYTES = b"\r\n\0\xff\"',;. -+e0"


def _gamma_with(index, edit):
    """The shipped gamma surface with ``edit`` applied to its line ``index``
    (0 is the header)."""
    lines = SHIPPED[1].decode().splitlines()
    lines[index] = edit(lines[index])
    return ("\n".join(lines) + "\n").encode()


def _cell(field, value):
    """An edit of a data line that sets ``field`` to ``value``."""
    at = CSV_HEADER.split(",").index(field)
    return lambda line: ",".join(value if i == at else c for i, c in enumerate(line.split(",")))


# Inputs that once ended in a traceback or a numpy warning: a CR-only file,
# a bare CR in a data row, and a 1M row whose padded domain overflows.  And a
# row whose 25P bytes are deleted: MissingAnchor, a ParseError too.
CR_ONLY = SHIPPED[1].replace(b"\n", b"\r")
BARE_CR_IN_A_ROW = _gamma_with(2, lambda line: line.replace(",", ",\r", 1))
OVERFLOWING_1M_ROW = _gamma_with(3, _cell("d15p", "131.7934453064312"))
EMPTY_ANCHOR = _gamma_with(2, _cell("d25p", ""))


@st.composite
def mutated_surfaces(draw):
    """A shipped surface with 1 to 8 bytes replaced, inserted or deleted."""
    raw = bytearray(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        at = draw(st.integers(0, len(raw) - 1))
        if op == "delete":
            del raw[at]
        else:
            raw[at:at + (op == "replace")] = bytes([draw(st.sampled_from(MUTATION_BYTES))])
    return bytes(raw)


def closed_form_strike(row, label, conv):
    """A label's strike, solved with its own vol: the rule the row applies."""
    ms = row.market()
    return strike_for_target_nd1(ms, row.vols[label], effective_nd1_target(label, ms, conv))


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
        assert str(err.value).startswith("expiry '1Y' failed: ")
        assert str(err.value).endswith(" (line 2)")
        assert err.value.line == 2

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

    def test_cr_only_file_reads_as_lf(self):
        text = (DATA / "synthetic_gamma_surface.csv").read_text()
        assert parse_surface(text.replace("\n", "\r").encode()) == parse_surface(text)

    def test_bare_cr_in_a_row_rejected_with_line(self):
        lines = synthetic_gamma_surface().splitlines()
        lines[2] = lines[2].replace(",", ",\r", 1)
        with pytest.raises(ParseError, match="expected 14 fields, found 2") as err:
            parse_surface("\n".join(lines) + "\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_quoted_line_break_in_a_label_is_kept(self, eol):
        lines = synthetic_gamma_surface().splitlines()
        lines[1] = f'"1M{eol}x"' + lines[1][lines[1].index(","):]
        rows = parse_surface((eol.join(lines) + eol).encode())
        assert len(rows) == 14
        assert rows[0].expiry_label == f"1M{eol}x"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_errors_name_the_first_physical_line_of_their_record(self, eol):
        # Row 1's quoted label holds a line break, so it spans lines 2-3 and
        # the third record starts on physical line 5, not 4.
        lines = synthetic_gamma_surface().splitlines()
        lines[1] = f'"1M{eol}x"' + lines[1][lines[1].index(","):]
        cells = lines[3].split(",")
        cells[1] = "zz0821917808"
        lines[3] = ",".join(cells)
        with pytest.raises(ParseError, match="non-numeric value 'zz0821917808'") as err:
            parse_surface(eol.join(lines) + eol)
        assert (err.value.line, err.value.field) == (5, "tenor_years")

    def test_crlf_label_survives_render_csv(self):
        def table(rows):
            cells = (
                (r.expiry_label, r.tenor_years, r.spot, r.dom_rate, r.for_rate,
                 *(r.vols.get(lab) for lab in LABELS))
                for r in rows
            )
            return TableArtifact("surface", tuple(CSV_HEADER.split(",")), tuple(cells))

        rows = parse_surface(synthetic_gamma_surface())
        rows[0] = replace(rows[0], expiry_label="1M\r\nx")
        written = render_csv(table(rows))
        read = parse_surface(written)
        assert [r.expiry_label for r in read] == [r.expiry_label for r in rows]
        assert render_csv(table(read)) == written

    def test_csv_error_rejected_with_line(self):
        lines = synthetic_gamma_surface().splitlines()
        lines[3] = "x" * 200_000 + lines[3]
        with pytest.raises(ParseError, match="unreadable CSV: field larger") as err:
            parse_surface("\n".join(lines) + "\n")
        assert err.value.line == 4

    def test_overflowing_completion_domain_rejected(self):
        # A 15P quote so large that the domain's padded end overflows: a
        # ParseError, with no numpy overflow warning first.
        lines = (DATA / "synthetic_gamma_surface.csv").read_text().splitlines()
        cells = lines[3].split(",")
        assert cells[0] == "1M"
        cells[CSV_HEADER.split(",").index("d15p")] = "131.7934453064312"
        with pytest.raises(ParseError, match="leave the floating-point range") as err:
            parse_surface("\n".join([lines[0], ",".join(cells)]) + "\n")
        assert err.value.line == 2

    @settings(max_examples=300, deadline=None)
    @given(raw=mutated_surfaces())
    @example(raw=CR_ONLY)
    @example(raw=BARE_CR_IN_A_ROW)
    @example(raw=OVERFLOWING_1M_ROW)
    @example(raw=EMPTY_ANCHOR)
    def test_mutated_bytes_give_rows_or_parse_error(self, raw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = parse_surface(raw)
            except ParseError:
                return
        assert rows and all(type(row) is SurfaceQuoteRow for row in rows)

    def test_repeated_expiry_rejected_with_line(self):
        header, first, second = synthetic_circle_surface().splitlines()[:3]
        text = "\n".join([header, first, second, first]) + "\n"
        with pytest.raises(ParseError, match="expiry '2W' is already on line 2") as err:
            parse_surface(text)
        assert err.value.line == 4


def _three_quotes(strikes):
    anchors = tuple(DeltaAnchor(target=0.5, strike=k, vol=0.1) for k in strikes)
    return ThreeQuoteSmile(anchors=anchors, market=flat_row().market())


def _three_anchor_row(atm):
    return SurfaceQuoteRow(
        expiry_label="1Y", tenor_years=1.0, spot=1.1, dom_rate=0.02, for_rate=0.01,
        vols={"25P": 0.11, "ATM": atm, "25C": 0.12},
    )


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
                smile=flat_smile(MS, 0.1),
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
            lambda: flat_row(vol=0.0),
            lambda: flat_row(vol=math.nan),
            lambda: flat_row(vol=math.inf),
            lambda: flat_row(tenor=0.0),
            lambda: flat_row(tenor=1e-30),
            lambda: flat_row(vol=900.0),
            lambda: _three_anchor_row(atm=1e-300),
        ],
        ids=[
            "spot", "tenor", "rate", "three-anchors", "anchor-order", "radius", "conic-zero",
            "flat-context-overflow", "context-scale", "grid-points", "smile-domain",
            "density-order", "density-shape", "repr-radii", "flat-smile-vol",
            "student-inf-nu", "student-nan-nu", "student-nan-mu", "student-nu", "student-quantile",
            "normal-inf-s", "normal-inf-mu", "normal-s", "lognormal-nan-mu", "lognormal-s",
            "gamma-inf-kappa", "gamma-theta", "uniform-inf-b", "uniform-order",
            "row-vol", "row-nan-vol", "row-inf-vol", "row-tenor", "row-strikes-collapse",
            "row-strikes-overflow", "row-radius-scale",
        ],
    )
    def test_caught_as_both_types(self, build):
        with pytest.raises(InvalidInput) as err:
            build()
        assert isinstance(err.value, SmileGeoError)
        assert isinstance(err.value, ValueError)
        assert smilegeo.InvalidInput is InvalidInput

    @pytest.mark.parametrize(
        "vol, reason",
        [
            (0.0, "non-positive vols"),
            (-math.inf, "non-positive vols"),
            (math.nan, "non-finite vols"),
            (math.inf, "non-finite vols"),
        ],
    )
    def test_row_vol_reason(self, vol, reason):
        # parse_surface passes the non-positive wording on in its ParseError,
        # so it stays; a non-finite vol has its own reason, not a strike range.
        with pytest.raises(InvalidInput, match=f"^expiry '1Y' failed: {reason}$"):
            flat_row(vol=vol)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ({"tenor_years": 0.0}, "tenor_years must be positive"),
            ({"spot": -1.0}, "spot must be positive and finite, got -1.0"),
            ({"dom_rate": math.inf}, "rates must be finite"),
        ],
        ids=["tenor-0", "spot-neg", "rate-inf"],
    )
    def test_row_number_error_names_the_expiry(self, edit, reason):
        fields = dict(
            expiry_label="2W", tenor_years=1.0, spot=1.1, dom_rate=0.02, for_rate=0.01,
            vols={lab: 0.1 for lab in LABELS},
        )
        with pytest.raises(InvalidInput, match=f"^expiry '2W' failed: {reason}$") as err:
            SurfaceQuoteRow(**(fields | edit))
        assert err.value.expiry == "2W"

    def test_parse_surface_still_names_the_line(self):
        text = CSV_HEADER + "\n1Y,1.0,-1.1,0.02,0.01,,,0.102,,0.1,,0.099,,\n"
        with pytest.raises(ParseError, match="spot must be positive") as err:
            parse_surface(text)
        assert err.value.line == 2


class TestLabelStrikes:
    def test_atm_label_uses_delta_neutral_rule(self):
        row = flat_row()
        ms = row.market()
        assert row.strikes(CONV)["ATM"] == pytest.approx(
            atm_rn_lognormal(ms, 0.10), rel=1e-14
        )

    def test_put_call_strikes_bracket_atm(self):
        row = flat_row()
        ks = row.strikes(CONV)
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

    def test_spot_pips_target_with_a_vanishing_discount_factor(self):
        # e^{-qT} underflows to 0 at q = 1e300: the target is inf, not a
        # ZeroDivisionError; spot-pips fails the row, forward-n completes it.
        row = SurfaceQuoteRow(
            expiry_label="2W", tenor_years=0.0383561644, spot=3.4, dom_rate=1e300,
            for_rate=1e300, vols={lab: 0.1 for lab in LABELS},
        )
        assert row.market().df_for() == 0.0
        with pytest.raises(TargetOutsideDomain, match=r"10P: effective N\(-d1\) target inf"):
            row.strikes(CONV)
        assert complete_expiry(row, "circle", DeltaConvention.FORWARD_N).label_strikes

    @pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
    def test_stored_strikes_are_label_strikes(self, name):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            for conv in DeltaConvention:
                stored = row.strikes(conv)
                assert list(stored) == list(row.vols)
                for lab in row.vols:
                    assert stored[lab] == closed_form_strike(row, lab, conv)
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
            lab: closed_form_strike(row, lab, DeltaConvention.FORWARD_N) for lab in LABELS
        }


SURFACES = ["synthetic_circle_surface", "synthetic_gamma_surface"]
VARIANTS = [("circle", "market"), ("ellipse", "market"), ("vanna-volga", "market"),
            ("vanna-volga", "first")]


class TestRowGeometry:
    """The row builds its market state and flat-ATM frame once; completion reads them."""

    @pytest.mark.parametrize("name", SURFACES)
    def test_frame_is_the_flat_context(self, name):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            ms, atm = row.market(), row.vols["ATM"]
            assert row.frame() == flat_context(ms, atm)
            assert row.frame(0.5) == replace(flat_context(ms, atm), radius_scale=0.5)
            assert row.frame(0.5).market is ms

    @pytest.mark.parametrize("name", SURFACES)
    def test_completion_reads_the_row_frame(self, name):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            for method in ("circle", "ellipse"):
                for radius_scale in (None, 0.5):
                    try:
                        done = complete_expiry(row, method, CONV, radius_scale)
                    except SmileGeoError:
                        continue  # the circle surface's short expiries at R = 0.5
                    assert done.ctx == row.frame(radius_scale)

    @pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize("name", SURFACES)
    def test_domain_pads_label_strikes_by_a_tenth(self, name, conv):
        # The completion domain is the label strikes widened by a tenth of
        # their log-span at each end.
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            strikes = row.strikes(conv).values()
            lo, hi = min(strikes), max(strikes)
            k_lo, k_hi = row.domain(conv)
            tenth = 0.1 * math.log(hi / lo)
            assert math.log(lo / k_lo) == pytest.approx(tenth, rel=1e-9), row.expiry_label
            assert math.log(k_hi / hi) == pytest.approx(tenth, rel=1e-9), row.expiry_label

    def test_market_and_frame_built_once_per_row(self, monkeypatch):
        # Parsing plus a discrepancy table and a completion of every row under
        # each method: one MarketState and one flat_context per row.
        import smilegeo.surface as surface_module

        counts = {"market": 0, "frame": 0}
        post_init = MarketState.__post_init__

        def counted_post_init(ms):
            counts["market"] += 1
            post_init(ms)

        def counted_flat_context(*args, **kwargs):
            counts["frame"] += 1
            return flat_context(*args, **kwargs)

        monkeypatch.setattr(MarketState, "__post_init__", counted_post_init)
        monkeypatch.setattr(surface_module, "flat_context", counted_flat_context)
        rows = parse_surface((DATA / "synthetic_gamma_surface.csv").read_bytes())
        for method, variant in VARIANTS:
            assert not discrepancy_table(rows, method, CONV, vv_variant=variant).errors
            for row in rows:
                complete_expiry(row, method, CONV, vv_variant=variant)
        assert counts == {"market": 14, "frame": 14}


class TestRowErrorsNameExpiry:
    def test_completion_error_names_expiry_once(self):
        # A wildly inconsistent middle quote makes the circle inadmissible.
        row = SurfaceQuoteRow(
            expiry_label="BAD", tenor_years=1.0, spot=3.4, dom_rate=0.015, for_rate=0.005,
            vols={"25P": 0.09, "ATM": 0.6, "25C": 0.09},
        )
        with pytest.raises(SmileGeoError, match=r"^expiry 'BAD' failed: ") as err:
            complete_expiry(row, "circle", CONV)
        assert err.value.expiry == "BAD"
        assert str(err.value).count("BAD") == 1
        assert err.value.named_for("BAD") is err.value
        assert str(err.value).count("BAD") == 1
        assert discrepancy_table([row], "circle", CONV).errors == {"BAD": str(err.value)}

    def test_missing_anchor_keeps_its_type(self):
        vols = {lab: 0.1 for lab in ANCHOR_LABELS}
        row = SurfaceQuoteRow(
            expiry_label="1Y", tenor_years=1.0, spot=1.1, dom_rate=0.0, for_rate=0.0, vols=vols
        )
        with pytest.raises(MissingAnchor, match=r"^expiry '1Y' failed: ellipse completion"):
            complete_expiry(row, "ellipse", CONV)


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

    def test_shape_off_its_anchors_fails_the_row(self, monkeypatch):
        # A fitted circle 1e-6 off its anchors' points is caught before its
        # smile is built: complete_expiry names the expiry, and the table
        # blanks that row and keeps the message.
        import smilegeo.fitting as fitting_module

        fit_shape = fitting_module.fit_shape

        def fit_shape_off(anchors, ctx):
            shape, pts = fit_shape(anchors, ctx)
            return replace(shape, radius=shape.radius + 1e-6), pts

        monkeypatch.setattr(fitting_module, "fit_shape", fit_shape_off)
        rows = parse_surface(SHIPPED[1])
        message = "expiry '1Y' failed: fitted shape fails to interpolate its anchors"
        with pytest.raises(SmileGeoError) as info:
            complete_expiry(rows[8], "circle", CONV)
        assert type(info.value) is SmileGeoError and str(info.value) == message
        table = discrepancy_table(rows, "circle", CONV)
        assert table.errors["1Y"] == message
        assert table.row_l2[8] is None
        assert set(table.cells[8].values()) == set(table.vols[8].values()) == {None}

    def test_ellipse_requires_ten_delta_quotes(self):
        vols = {lab: 0.1 for lab in ("25P", "ATM", "25C")}
        row = SurfaceQuoteRow(
            expiry_label="1Y", tenor_years=1.0, spot=1.1, dom_rate=0.0, for_rate=0.0, vols=vols
        )
        with pytest.raises(MissingAnchor):
            complete_expiry(row, "ellipse", CONV)


class TestLabelVolsExact:
    """``label_vols`` reads every quoted label in one array call.  Each vol must
    have the bits of a read at its strike alone: the discrepancy cells and the
    ``complete-surface`` vols are compared with such reads under ``==``."""

    @pytest.mark.parametrize("conv", list(DeltaConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "method, variant",
        [("circle", "market"), ("ellipse", "market"), ("vanna-volga", "market"),
         ("vanna-volga", "first")],
        ids=["circle", "ellipse", "vv-market", "vv-first"],
    )
    @pytest.mark.parametrize("name", ["synthetic_circle_surface", "synthetic_gamma_surface"])
    def test_equals_one_read_per_label(self, name, method, variant, conv):
        for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
            done = complete_expiry(row, method, conv, vv_variant=variant)
            want = {lab: done.smile.vol(done.label_strikes[lab]) for lab in LABELS}
            got = done.label_vols()
            assert list(got) == list(LABELS)
            assert all(type(v) is float for v in got.values())
            assert got == want, row.expiry_label


class TestAnchorLedger:
    """Anchor reproduction on both shipped surfaces under both conventions:
    |sigma(anchor strike) - quote| / quote at every anchor of every row.

    Circle and ellipse anchors come back through a fitted shape, whose
    circumcircle or conic and ray intersection both round.  40 of their 448
    anchors are exact; at least 37 must be, the count when the anchors and
    the smiles formed X by different expressions.  The worst is 1.51e-14,
    and the bound is twice that.
    The vanna-volga smiles are Lagrange forms in the anchors' own log
    strikes, and all 168 anchors of each variant are exact.
    """

    SHAPE_BOUND = 3.0e-14
    SHAPE_EXACT_AT_LEAST = 37

    @staticmethod
    def _errors(method, variant="market"):
        errs = []
        for name in ("synthetic_circle_surface", "synthetic_gamma_surface"):
            for row in parse_surface((DATA / f"{name}.csv").read_bytes()):
                for conv in DeltaConvention:
                    done = complete_expiry(row, method, conv, vv_variant=variant)
                    errs += [abs(done.smile.vol(a.strike) - a.vol) / a.vol for a in done.anchors]
        return np.array(errs)

    def test_shape_anchors(self):
        errs = np.concatenate([self._errors("circle"), self._errors("ellipse")])
        assert errs.size == 448
        assert errs.max() <= self.SHAPE_BOUND
        assert np.count_nonzero(errs == 0.0) >= self.SHAPE_EXACT_AT_LEAST

    @pytest.mark.parametrize("variant", ["market", "first"])
    def test_vanna_volga_anchors_exact(self, variant):
        errs = self._errors("vanna-volga", variant)
        assert errs.size == 168
        assert np.all(errs == 0.0)


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
        assert all(v is None for v in table.vols[3].values())
        assert table.vols[0] == complete_expiry(rows[0], "circle", CONV).label_vols()

    @pytest.mark.parametrize("method, variant", VARIANTS)
    def test_vols_are_the_completed_label_vols(self, method, variant):
        # complete-surface writes these vols; each equals the completion's own read.
        rows = parse_surface(synthetic_circle_surface())
        table = discrepancy_table(rows, method, CONV, radius_scale=0.5, vv_variant=variant)
        for row, vols in zip(rows, table.vols):
            assert list(vols) == list(LABELS)
            if row.expiry_label in table.errors:
                assert set(vols.values()) == {None}
                continue
            done = complete_expiry(row, method, CONV, 0.5, variant)
            assert vols == {lab: None for lab in LABELS} | done.label_vols()


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
