"""Delta-quoted volatility surfaces: parsing, completion, discrepancy tables.

A surface CSV holds one expiry per row with vols quoted at the nine standard
delta labels.  Completion rebuilds each expiry's full smile from the three
anchor quotes (25P / ATM / 25C) by the circle method or vanna-volga, or from
five quotes (plus 10P / 10C) by the ellipse method; the discrepancy table
compares completed vols against the quoted ones label by label, with L2
norms per row, per column, and overall.  A quoted delta becomes an N(-d1)
level here alone (``effective_nd1_target``): under spot-pips the raw
|put delta| is divided by e^{-qT}.  Every quoted label is read in one
``smile.vol`` array call, whose vols keep the bits of one numpy read per
label; ``math.*`` calls would not (see ``smile``).

A row owns its market state, label strikes and flat-ATM frame (centre strike
and radial scale R), built once.  ``discrepancy_table`` is the one loop over
a surface's rows, and every row error names its expiry.  Both synthetic
surfaces are written by one CSV writer; each generator gives its smiles.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .bsm import DeltaConvention, MarketState, strike_for_target_nd1
from .errors import InvalidInput, MissingAnchor, ParseError, SmileGeoError, TargetOutsideDomain
from .georep import ReprContext, flat_context, smile_from_shape
from .smile import DeltaAnchor, GridSpec, SmileCurve, smile_from_distribution, strikes_for_deltas

if TYPE_CHECKING:
    from .shapes import CircleShape, ConicShape

LABELS = ("10P", "15P", "25P", "35P", "ATM", "35C", "25C", "15C", "10C")
ANCHOR_LABELS = ("25P", "ATM", "25C")
ELLIPSE_LABELS = ("10P", "25P", "ATM", "25C", "10C")
_VOL_FIELDS = ("d10p", "d15p", "d25p", "d35p", "atm", "d35c", "d25c", "d15c", "d10c")
CSV_HEADER = "expiry,tenor_years,spot,dom_rate,for_rate," + ",".join(_VOL_FIELDS)
# Each label's delta and side; the ATM entry's 0.5 is its N(-d1) target.
_LABEL_DELTA = {
    "10P": (0.10, "put"),
    "15P": (0.15, "put"),
    "25P": (0.25, "put"),
    "35P": (0.35, "put"),
    "ATM": (0.5, "atm"),
    "35C": (0.35, "call"),
    "25C": (0.25, "call"),
    "15C": (0.15, "call"),
    "10C": (0.10, "call"),
}
ANCHOR_EXACTNESS_TOL = 1e-10
# The quoted labels each completion method puts its smile through.
METHOD_ANCHORS = {
    "circle": ANCHOR_LABELS, "ellipse": ELLIPSE_LABELS, "vanna-volga": ANCHOR_LABELS
}
METHODS = tuple(METHOD_ANCHORS)


@dataclass(frozen=True)
class SurfaceQuoteRow:
    """One expiry of a delta-quoted surface.

    The row owns its geometry.  Construction builds its ``MarketState`` once,
    solves every quoted label's strike with it under each delta convention,
    with the completion domain those strikes span, and keeps the
    automatic-R flat-ATM frame; ``market``, ``strikes``, ``domain`` and
    ``frame`` hand them out.
    """

    expiry_label: str
    tenor_years: float
    spot: float
    dom_rate: float
    for_rate: float
    vols: dict[str, float]
    _strikes: dict = field(init=False, repr=False, compare=False)
    _frame: ReprContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [lab for lab in ANCHOR_LABELS if lab not in self.vols]
        if missing:
            raise MissingAnchor(
                f"expiry {self.expiry_label!r} lacks anchor quote(s) {missing}"
            )
        if any(v <= 0.0 for v in self.vols.values()):
            raise InvalidInput(f"expiry {self.expiry_label!r} has non-positive vols")
        if not all(math.isfinite(v) for v in self.vols.values()):
            raise InvalidInput(f"expiry {self.expiry_label!r} has non-finite vols")
        if self.tenor_years <= 0.0:
            raise InvalidInput("tenor_years must be positive")
        ms = MarketState(self.spot, self.dom_rate, self.for_rate, self.tenor_years)
        object.__setattr__(self, "_strikes", self._check_strike_range(ms))
        try:  # the frame carries ms
            object.__setattr__(self, "_frame", flat_context(ms, self.vols["ATM"]))
        except (ValueError, OverflowError):
            raise InvalidInput(
                f"expiry {self.expiry_label!r}: radial scale R leaves the floating-point "
                "range (tenor or ATM vol out of range)"
            ) from None

    def _check_strike_range(self, ms: MarketState) -> dict:
        """Solves the label strikes under each convention; rejects numbers out of range.

        Each label's strike is solved with its own vol.  The label strikes
        are closed forms in exp(rates, tenor and vol^2); a finite but huge
        input overflows them (or underflows them to zero).
        A tiny tenor collapses them onto one another, so no two may
        coincide.  Returns, by convention, the strikes with their completion
        domain, or the TargetOutsideDomain of a convention that puts a delta
        target outside (0, 1).
        """
        solved = {}
        for conv in DeltaConvention:
            try:
                strikes = {
                    lab: strike_for_target_nd1(ms, vol, effective_nd1_target(lab, ms, conv))
                    for lab, vol in self.vols.items()
                }
            except OverflowError:
                strikes = None
            except TargetOutsideDomain as exc:
                solved[conv] = exc
                continue
            if strikes is not None and all(0.0 < k < math.inf for k in strikes.values()):
                domain = _completion_domain(strikes.values())
                if 0.0 < domain[0] and domain[1] < math.inf:
                    if len(set(strikes.values())) < len(strikes):
                        raise InvalidInput(
                            f"expiry {self.expiry_label!r}: {conv.value} label strikes "
                            "collapse onto one another (tenor or vols too small)"
                        )
                    solved[conv] = strikes, domain
                    continue
            raise InvalidInput(
                f"expiry {self.expiry_label!r}: label strikes leave the floating-point "
                "range (rates, tenor or vols too large)"
            )
        return solved

    def _solved(self, conv: DeltaConvention) -> tuple[dict[str, float], tuple[float, float]]:
        solved = self._strikes[conv]
        if isinstance(solved, TargetOutsideDomain):
            raise TargetOutsideDomain(*solved.args)
        return solved

    def strikes(self, conv: DeltaConvention) -> dict[str, float]:
        """Every quoted label's strike under ``conv``, in quote order.

        Raises TargetOutsideDomain where ``conv`` puts a target outside (0, 1).
        """
        return dict(self._solved(conv)[0])

    def domain(self, conv: DeltaConvention) -> tuple[float, float]:
        """(k_lo, k_hi) a completion under ``conv`` spans: the label strikes
        widened by a tenth of their log-span at each end."""
        return self._solved(conv)[1]

    def market(self) -> MarketState:
        return self._frame.market

    def frame(self, radius_scale: float | None = None) -> ReprContext:
        """The flat-ATM frame: automatic R for ``None``, else the same centre strike with R fixed."""
        if radius_scale is None:
            return self._frame
        return replace(self._frame, radius_scale=radius_scale)


def parse_surface(data) -> list[SurfaceQuoteRow]:
    """Parse surface CSV bytes (or text) into quote rows, in file order; expiries are unique."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    else:
        text = str(data)
    reader = csv.reader(io.StringIO(text, newline=None))  # universal newlines: CR-only files too
    try:  # each record with its last physical line (a quoted line break spans two)
        (header, _), *records = ends = [(rec, reader.line_num) for rec in reader]
    except ValueError:
        raise ParseError("empty file", line=1) from None
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None
    expected = CSV_HEADER.split(",")
    if [h.strip() for h in header] != expected:
        raise ParseError(
            f"bad header; expected {CSV_HEADER!r}", line=1
        )
    rows: list[SurfaceQuoteRow] = []
    first_line: dict[str, int] = {}  # by expiry
    for lineno, rec in ((end + 1, rec) for (rec, _), (_, end) in zip(records, ends)):
        if not rec or all(not cell.strip() for cell in rec):
            continue
        if len(rec) != len(expected):
            raise ParseError(
                f"expected {len(expected)} fields, found {len(rec)}", line=lineno
            )
        named = dict(zip(expected, (cell.strip() for cell in rec)))
        expiry = named["expiry"]
        if expiry in first_line:
            raise ParseError(f"expiry {expiry!r} is already on line {first_line[expiry]}", line=lineno)
        first_line[expiry] = lineno

        def number(fld: str) -> float:
            raw = named[fld]
            try:
                value = float(raw)
            except ValueError:
                raise ParseError(f"non-numeric value {raw!r}", line=lineno, field=fld) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {raw!r}", line=lineno, field=fld)
            return value

        vols: dict[str, float] = {}
        for lab, fld in zip(LABELS, _VOL_FIELDS):
            raw = named[fld]
            if raw == "":
                continue
            vols[lab] = number(fld)
        missing = [lab for lab in ANCHOR_LABELS if lab not in vols]
        if missing:
            raise MissingAnchor(
                f"line {lineno} (expiry {expiry!r}) lacks anchor quote(s) {missing}"
            )
        try:
            rows.append(
                SurfaceQuoteRow(
                    expiry_label=expiry,
                    tenor_years=number("tenor_years"),
                    spot=number("spot"),
                    dom_rate=number("dom_rate"),
                    for_rate=number("for_rate"),
                    vols=vols,
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return rows


def effective_nd1_target(label: str, ms: MarketState, conv: DeltaConvention) -> float:
    """The N(-d1) level a delta label pins: its delta under FORWARD_N, the raw
    |put delta| divided by e^{-qT} under SPOT_PIPS, and one minus that for a call."""
    target, side = _LABEL_DELTA[label]
    if side == "atm":
        return target
    df = ms.df_for() if conv is DeltaConvention.SPOT_PIPS else 1.0
    eff = target / df if df > 0.0 else math.inf  # e^{-qT} underflows to 0 for a huge qT
    if not 0.0 < eff < 1.0:
        raise TargetOutsideDomain(f"label {label}: effective N(-d1) target {eff:.6g} outside (0, 1)")
    return eff if side == "put" else 1.0 - eff


def anchor_labels(method: str) -> tuple[str, ...]:
    """The quoted labels a completion method fits through."""
    if method not in METHOD_ANCHORS:
        raise InvalidInput(f"unknown method {method!r}; pick one of {METHODS}")
    return METHOD_ANCHORS[method]


@dataclass(frozen=True)
class CompletedExpiry:
    """A completed smile for one surface row.

    ``shape`` is the circle or conic fitted through the anchors' polar
    points (``None`` for vanna-volga); ``smile`` is its inversion, and
    ``label_strikes`` holds every quoted label's strike.
    """

    method: str
    smile: SmileCurve
    anchors: tuple[DeltaAnchor, ...]
    ctx: ReprContext | None
    shape: CircleShape | ConicShape | None
    label_strikes: dict[str, float]

    def label_vols(self) -> dict[str, float]:
        """The completed smile's vol at every quoted label's strike, in ``LABELS`` order."""
        labs = [lab for lab in LABELS if lab in self.label_strikes]
        vols = self.smile.vol(np.array([self.label_strikes[lab] for lab in labs]))
        return dict(zip(labs, vols.tolist()))


def _completion_domain(strikes) -> tuple[float, float]:
    ks = sorted(strikes)  # Python floats: an overflow gives inf, with no numpy warning
    pad = 0.10 * (math.log(ks[-1]) - math.log(ks[0]))
    return ks[0] * math.exp(-pad), ks[-1] * math.exp(pad)


def complete_expiry(
    row: SurfaceQuoteRow,
    method: str = "circle",
    conv: DeltaConvention = DeltaConvention.SPOT_PIPS,
    radius_scale: float | None = None,
    vv_variant: str = "market",
) -> CompletedExpiry:
    """Rebuild one expiry's smile from its anchor quotes.

    The completed smile reproduces the anchor vols exactly and is evaluable
    at every quoted label strike.  Geometry failures (origin outside the
    fitted shape, non-positive vols) surface as their specific errors, with
    messages that name the expiry.
    """
    labels = anchor_labels(method)
    try:
        strikes = row.strikes(conv)
        k_lo, k_hi = row.domain(conv)
        missing = [lab for lab in labels if lab not in row.vols]
        if missing:
            raise MissingAnchor(f"{method} completion needs {labels}; missing {missing}")
        anchors = tuple(sorted(
            (DeltaAnchor(_LABEL_DELTA[lab][0], strikes[lab], row.vols[lab]) for lab in labels),
            key=lambda a: a.strike,
        ))
        # Each method imports its own module: a process loads only those it runs.
        if method == "vanna-volga":
            from .vanna_volga import ThreeQuoteSmile, vv_smile

            ctx = shape = None
            quotes = ThreeQuoteSmile(anchors=anchors, market=row.market())
            smile = vv_smile(quotes, k_lo=k_lo, k_hi=k_hi, variant=vv_variant)
        else:
            from .fitting import fit_shape

            ctx = row.frame(radius_scale)
            shape, pts = fit_shape(anchors, ctx)
            if np.max(shape.residuals(pts)) > 1e-9 * max(1.0, ctx.radius_scale):
                raise SmileGeoError("fitted shape fails to interpolate its anchors")
            smile = smile_from_shape(shape, ctx, k_lo=k_lo, k_hi=k_hi)
    except SmileGeoError as exc:
        raise exc.named_for(row.expiry_label)
    return CompletedExpiry(
        method=method, smile=smile, anchors=anchors, ctx=ctx, shape=shape, label_strikes=strikes
    )


@dataclass(frozen=True)
class DiscrepancyTable:
    """Model-minus-market vols per expiry and delta label, with L2 norms.

    Cells, vols and column norms are keyed by ``LABELS``.  Anchor cells are
    exactly zero by construction (the completion reproduces them; this is
    verified to tolerance before being pinned).  ``vols`` holds the
    completed vols behind the cells.  Cells and vols for absent quotes or
    failed rows are None; ``errors`` holds each failed expiry's message.
    """

    method: str
    expiries: tuple[str, ...]
    cells: tuple[dict[str, float | None], ...]
    vols: tuple[dict[str, float | None], ...]
    row_l2: tuple[float | None, ...]
    col_l2: dict[str, float]
    grand_l2: float
    errors: dict[str, str] = field(default_factory=dict)


def discrepancy_table(
    rows,
    method: str = "circle",
    conv: DeltaConvention = DeltaConvention.SPOT_PIPS,
    radius_scale: float | None = None,
    vv_variant: str = "market",
) -> DiscrepancyTable:
    """Completion-versus-market discrepancies with per-expiry, per-label, and grand L2 norms.

    A row that fails is left blank and its message kept; the other rows carry on.
    """
    anchor_set = anchor_labels(method)
    cells: list[dict[str, float | None]] = []
    vols: list[dict[str, float | None]] = []
    row_l2: list[float | None] = []
    errors: dict[str, str] = {}
    for row in rows:
        entry = dict.fromkeys(LABELS)
        try:
            got = complete_expiry(row, method, conv, radius_scale, vv_variant).label_vols()
            for lab, vol in got.items():
                diff = vol - row.vols[lab]
                if lab in anchor_set:
                    if abs(diff) > ANCHOR_EXACTNESS_TOL:
                        raise SmileGeoError(
                            f"anchor {lab} reproduced to {diff:.3e} only"
                        )
                    diff = 0.0
                entry[lab] = diff
            present = [v for v in entry.values() if v is not None]
            row_l2.append(math.sqrt(sum(v * v for v in present)))
        except SmileGeoError as exc:
            errors[row.expiry_label] = str(exc.named_for(row.expiry_label))
            entry, got = dict.fromkeys(LABELS), {}
            row_l2.append(None)
        cells.append(entry)
        vols.append(dict.fromkeys(LABELS) | got)
    col_l2 = {
        lab: math.sqrt(sum(e[lab] ** 2 for e in cells if e[lab] is not None)) for lab in LABELS
    }
    grand = math.sqrt(sum(v * v for v in row_l2 if v is not None))
    return DiscrepancyTable(
        method=method,
        expiries=tuple(r.expiry_label for r in rows),
        cells=tuple(cells),
        vols=tuple(vols),
        row_l2=tuple(row_l2),
        col_l2=col_l2,
        grand_l2=grand,
        errors=errors,
    )


# ----------------------------------------------------------------------
# Synthetic surfaces (the shipped data: no proprietary quotes)
# ----------------------------------------------------------------------

STANDARD_EXPIRIES = (
    ("2W", 14 / 365), ("3W", 21 / 365), ("1M", 30 / 365), ("2M", 61 / 365),
    ("3M", 91 / 365), ("4M", 122 / 365), ("6M", 182 / 365), ("9M", 273 / 365),
    ("1Y", 1.0), ("18M", 1.5), ("2Y", 2.0), ("3Y", 3.0), ("4Y", 4.0), ("5Y", 5.0),
)


def _surface_csv(spot: float, dom: float, forr: float, smile_of) -> str:
    """The 14-expiry surface CSV of ``smile_of(i, ms)``, the smile of expiry i.

    Each row solves its nine spot-pips label strikes on the smile in one
    solve and quotes the vols there.
    """
    lines = [CSV_HEADER]
    for i, (label, tenor) in enumerate(STANDARD_EXPIRIES):
        ms = MarketState(spot=spot, dom_rate=dom, for_rate=forr, tenor=tenor)
        smile = smile_of(i, ms)
        levels = [effective_nd1_target(lab, ms, DeltaConvention.SPOT_PIPS) for lab in LABELS]
        strikes = strikes_for_deltas(smile, levels).tolist()
        cells = ",".join(f"{float(smile.vol(k)):.12f}" for k in strikes)
        lines.append(f"{label},{tenor:.10f},{spot},{dom},{forr},{cells}")
    return "\n".join(lines) + "\n"


def synthetic_circle_surface() -> str:
    """A 14-expiry surface whose every smile is exactly circle-generated.

    The circle method reconstructs it to rounding; the anchor columns of any
    method's discrepancy table are zero on it.
    """
    from .shapes import CircleShape

    def smile_of(i: int, ms: MarketState) -> SmileCurve:
        atm_vol = 0.095 + 0.020 * math.sin(0.55 * i) + 0.004 * i
        ctx = flat_context(ms, atm_vol)
        r_plus_sig = ctx.radius_scale + atm_vol
        # Circle through the ATM point (0, -(R + sigma_atm)) with a small,
        # expiry-dependent centre offset.
        cx = 0.035 * math.cos(0.8 + 0.35 * i) * ctx.radius_scale
        cy = -0.020 * math.sin(0.3 + 0.25 * i) * ctx.radius_scale
        radius = math.hypot(0.0 - cx, -r_plus_sig - cy)
        shape = CircleShape(center=(cx, cy), radius=radius)
        k_band = 3.5 * atm_vol * math.sqrt(ms.tenor)
        return smile_from_shape(
            shape, ctx,
            k_lo=ctx.atm_rn * math.exp(-k_band),
            k_hi=ctx.atm_rn * math.exp(k_band),
        )

    return _surface_csv(1.1000, 0.020, 0.012, smile_of)


def synthetic_gamma_surface() -> str:
    """A 14-expiry surface generated from gamma-distribution smiles."""
    from .distributions import Gamma

    def smile_of(i: int, ms: MarketState) -> SmileCurve:
        # Relative width grows like vol * sqrt(T), so annualised vols stay
        # market-sized and the skew deepens with tenor.
        vol_scale = 0.10 + 0.008 * math.sin(0.9 * i) + 0.004 * i
        kappa = 1.0 / (vol_scale * vol_scale * ms.tenor)
        dist = Gamma(kappa=kappa, theta=ms.forward() / kappa)
        return smile_from_distribution(dist, ms, GridSpec(n=1201))

    return _surface_csv(3.40, 0.015, 0.005, smile_of)
