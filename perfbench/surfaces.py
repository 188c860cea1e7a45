"""surfaces workload: completion of one 14-expiry delta-quoted surface per op.

One op parses the CSV text, builds the discrepancy table for each of the
four completion variants, reads the completed vols at every label strike
(as ``complete-surface`` does), takes each completed smile's density on the
2001-point label-strike grid (as ``density`` does), and renders the tables
to CSV and JSON bytes in memory.  A round is the two shipped surfaces plus
six surfaces generated here from seeded quotes.
"""
from __future__ import annotations

import csv
import io
import json
import importlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

import smilegeo as sg

import calibration

sf = importlib.import_module("smilegeo.surface")
sm = importlib.import_module("smilegeo.smile")
em = importlib.import_module("smilegeo.emit")

GENERATED_PER_ROUND = 6
DENSITY_POINTS = 2001
# (name, method, vanna-volga variant)
VARIANTS = (
    ("circle", "circle", "market"),
    ("ellipse", "ellipse", "market"),
    ("vv_market", "vanna-volga", "market"),
    ("vv_first", "vanna-volga", "first"),
)
LABELS = ("10P", "15P", "25P", "35P", "ATM", "35C", "25C", "15C", "10C")
FIELDS = ("d10p", "d15p", "d25p", "d35p", "atm", "d35c", "d25c", "d15c", "d10c")
HEADER = "expiry,tenor_years,spot,dom_rate,for_rate," + ",".join(FIELDS)
ANCHORS = {"ellipse": ("10P", "25P", "ATM", "25C", "10C")}
THREE_ANCHORS = ("25P", "ATM", "25C")
EXPIRIES = (
    ("2W", 14 / 365), ("3W", 21 / 365), ("1M", 30 / 365), ("2M", 61 / 365),
    ("3M", 91 / 365), ("4M", 122 / 365), ("6M", 182 / 365), ("9M", 273 / 365),
    ("1Y", 1.0), ("18M", 1.5), ("2Y", 2.0), ("3Y", 3.0), ("4Y", 4.0), ("5Y", 5.0),
)

ANCHOR_TOL = 1e-10  # completed vol at the closed-form anchor strike vs quote
CIRCLE_TOL = 1e-12  # circle variant vs the ray-circle intersection made here
ROUND_TRIP_TOL = 1e-8  # grand L2 of the circle method on the shipped circle surface
L2_TOL = 1e-12  # relative, norms against their cells
DIGITS_TOL = 5e-10  # relative, emitted numbers at 10 significant digits


@dataclass(frozen=True)
class Quote:
    expiry: str
    tenor: float
    spot: float
    dom: float
    forr: float
    vols: dict


@dataclass(frozen=True)
class Surface:
    name: str
    text: str
    quotes: tuple[Quote, ...]


@dataclass
class Completion:
    table: object
    completed: list
    vols: list
    densities: list
    rendered: dict


def generate(rng: np.random.Generator) -> str:
    """A 14-expiry surface from seeded ATM, 25- and 10-delta RR / BF quotes.

    Wing vols are ATM + BF -/+ RR/2; the 15- and 35-delta labels are linear
    in delta between their neighbours.  Plain arithmetic, no smilegeo call.
    """
    spot = math.exp(rng.uniform(math.log(0.5), math.log(150.0)))
    dom, forr = rng.uniform(-0.01, 0.06), rng.uniform(-0.01, 0.05)
    atm_base, atm_slope = rng.uniform(0.07, 0.20), rng.uniform(-0.01, 0.01)
    rr_base, bf_base = rng.uniform(-0.02, 0.02), rng.uniform(0.002, 0.006)
    lines = [HEADER]
    for label, base_tenor in EXPIRIES:
        tenor = base_tenor * math.exp(rng.uniform(-0.08, 0.08))
        atm = atm_base + atm_slope * math.log(tenor) + rng.uniform(-0.003, 0.003)
        scale = atm / 0.12
        rr25 = (rr_base + rng.uniform(-0.002, 0.002)) * scale
        bf25 = (bf_base + rng.uniform(-0.0005, 0.0005)) * scale
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


def read_quotes(text: str) -> tuple[Quote, ...]:
    """The benchmark's own reading of a surface CSV, for the checks."""
    out = []
    for rec in csv.DictReader(io.StringIO(text)):
        out.append(
            Quote(
                expiry=rec["expiry"],
                tenor=float(rec["tenor_years"]),
                spot=float(rec["spot"]),
                dom=float(rec["dom_rate"]),
                forr=float(rec["for_rate"]),
                vols={lab: float(rec[f]) for lab, f in zip(LABELS, FIELDS) if rec[f]},
            )
        )
    return tuple(out)


def complete(surface: Surface) -> dict[str, Completion]:
    """The op."""
    rows = sf.parse_surface(surface.text)
    out = {}
    for name, method, vv in VARIANTS:
        table = sf.discrepancy_table(rows, method, sg.DeltaConvention.SPOT_PIPS, vv_variant=vv)
        completed, vols, densities = [], [], []
        for row in rows:
            done = sf.complete_expiry(row, method, sg.DeltaConvention.SPOT_PIPS, vv_variant=vv)
            completed.append(done)
            vols.append(
                tuple(
                    float(done.smile.vol(done.label_strikes[lab])) if lab in done.label_strikes else None
                    for lab in LABELS
                )
            )
            ks = sorted(done.label_strikes.values())
            grid = np.exp(np.linspace(math.log(ks[0]), math.log(ks[-1]), DENSITY_POINTS))
            densities.append(sm.density_from_smile(done.smile, grid))
        vol_table = em.TableArtifact(
            kind=f"completed-{method}",
            columns=("expiry",) + LABELS,
            rows=tuple((row.expiry_label,) + v for row, v in zip(rows, vols)),
        )
        rendered = {
            "discrepancy": (em.render_csv(table), em.render_json(table)),
            "completed": (em.render_csv(vol_table), em.render_json(vol_table)),
        }
        out[name] = Completion(table, completed, vols, densities, rendered)
    return out


class Surfaces:
    # At least 100 timed ops per run, so that ten lie beyond p90.
    min_rounds = -(-100 // (2 + GENERATED_PER_ROUND))
    reference = calibration.Kernel

    def __init__(self, seed: int, shipped):
        rng = np.random.default_rng(seed)
        texts = [(path.stem, path.read_text()) for path in shipped]
        texts += [(f"generated_{i}", generate(rng)) for i in range(GENERATED_PER_ROUND)]
        self.surfaces = [Surface(n, t, read_quotes(t)) for n, t in texts]

    def prepare(self) -> list[Surface]:
        for surface in self.surfaces:
            complete(surface)
        return self.surfaces

    def run(self, surface: Surface):
        return complete(surface)

    trace_op = run

    def check(self, surface: Surface, out: dict[str, Completion]) -> list[str]:
        problems = []

        def need(ok, what):
            if not ok:
                problems.append(f"{surface.name}: {what}")

        for name, method, _ in VARIANTS:
            res = out[name]
            table = res.table
            need(not table.errors, f"{name}: rows failed {table.errors}")
            need(len(res.completed) == len(surface.quotes), f"{name}: row count")
            for quote, done, vols, dens in zip(surface.quotes, res.completed, res.vols, res.densities):
                where = f"{name} {quote.expiry}"
                for lab in ANCHORS.get(name, THREE_ANCHORS):
                    got = float(done.smile.vol(label_strike(quote, lab)))
                    need(abs(got - quote.vols[lab]) <= ANCHOR_TOL, f"{where} {lab}: anchor vol {got!r}")
                need(
                    dens.values.shape == (DENSITY_POINTS,) and bool(np.all(np.isfinite(dens.values))),
                    f"{where}: density not finite",
                )
                if name == "circle":
                    for lab, got in zip(LABELS, vols):
                        if got is not None:
                            ref = circle_vol(quote, lab)
                            need(abs(got - ref) <= CIRCLE_TOL, f"{where} {lab}: {got!r} vs circle {ref!r}")
            for i, (quote, cells, vols) in enumerate(zip(surface.quotes, table.cells, res.vols)):
                present = []
                for lab, vol in zip(LABELS, vols):
                    cell = cells[lab]
                    if vol is None:
                        need(cell is None, f"{name} {quote.expiry} {lab}: cell for absent quote")
                        continue
                    want = 0.0 if lab in ANCHORS.get(name, THREE_ANCHORS) else vol - quote.vols[lab]
                    need(cell == want, f"{name} {quote.expiry} {lab}: cell {cell!r}, want {want!r}")
                    present.append(cell)
                need(_close(table.row_l2[i], math.hypot(*present)), f"{name} {quote.expiry}: row L2")
            for lab in LABELS:
                col = [c[lab] for c in table.cells if c[lab] is not None]
                need(_close(table.col_l2[lab], math.hypot(*col)), f"{name} {lab}: column L2")
            grand = math.hypot(*(v for v in table.row_l2 if v is not None))
            need(_close(table.grand_l2, grand), f"{name}: grand L2")
            if surface.name == "synthetic_circle_surface" and name == "circle":
                need(table.grand_l2 <= ROUND_TRIP_TOL, f"circle round trip L2 {table.grand_l2:.3g}")

            disc_rows = [
                (e,) + tuple(c[lab] for lab in LABELS) + (l2,)
                for e, c, l2 in zip(table.expiries, table.cells, table.row_l2)
            ]
            disc_rows.append(("L2 norm",) + tuple(table.col_l2[lab] for lab in LABELS) + (table.grand_l2,))
            vol_rows = [(q.expiry,) + v for q, v in zip(surface.quotes, res.vols)]
            for kind, rows in (("discrepancy", disc_rows), ("completed", vol_rows)):
                csv_bytes, json_bytes = res.rendered[kind]
                for what in emitted_mismatches(csv_bytes, json_bytes, rows):
                    need(False, f"{name} {kind}: {what}")
        return problems


def setup(seed: int, shipped, workdir) -> Surfaces:
    """Read the shipped surfaces and generate the seeded ones; no work directory."""
    return Surfaces(seed, shipped)


def _close(a, b) -> bool:
    return abs(a - b) <= L2_TOL * max(abs(b), 1e-300)


def emitted_mismatches(csv_bytes: bytes, json_bytes: bytes, rows) -> list[str]:
    """Where CSV or JSON output does not read back as ``rows`` to 10 digits."""
    out = []
    doc = json.loads(json_bytes)
    if doc.get("schema") != "smilegeo/1":
        out.append(f"JSON schema {doc.get('schema')!r}")
    parsed = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))[1:]
    for fmt, got_rows in (("CSV", parsed), ("JSON", doc.get("rows", []))):
        if len(got_rows) != len(rows):
            out.append(f"{fmt}: {len(got_rows)} rows, want {len(rows)}")
            continue
        for got_row, want_row in zip(got_rows, rows):
            for got, want in zip(got_row, want_row):
                if isinstance(want, str) or want is None:
                    ok = got == want or (fmt == "CSV" and want is None and got == "")
                else:
                    ok = got not in ("", None) and abs(float(got) - want) <= DIGITS_TOL * abs(want)
                if not ok:
                    out.append(f"{fmt}: {got!r} read for {want!r}")
    return out


# ----------------------------------------------------------------------
# Reference geometry made apart from smilegeo (spot-pips delta labels)
# ----------------------------------------------------------------------

def _strike(q: Quote, vol: float, nd1: float) -> float:
    """Strike where N(-d1) equals nd1 under a flat vol."""
    return q.spot * math.exp(
        float(ndtri(nd1)) * vol * math.sqrt(q.tenor) + (q.dom - q.forr + 0.5 * vol * vol) * q.tenor
    )


def label_strike(q: Quote, label: str) -> float:
    if label == "ATM":
        return _strike(q, q.vols[label], 0.5)
    eff = int(label[:2]) / 100.0 * math.exp(q.forr * q.tenor)
    return _strike(q, q.vols[label], eff if label.endswith("P") else 1.0 - eff)


def _frame(q: Quote) -> tuple[float, float]:
    """Centre strike and radial scale R: the ATM vol's 1 % / 99 % window at X = -/+ 0.95."""
    atm_vol = q.vols["ATM"]
    atm = _strike(q, atm_vol, 0.5)
    half = max(abs(math.log(_strike(q, atm_vol, p) / atm)) for p in (0.01, 0.99))
    return atm, half / 0.95


def _point(strike, vol, atm, radius_scale):
    phi = 2.0 * math.atan(math.log(strike / atm) / radius_scale) - 0.5 * math.pi
    return phi, (radius_scale + vol) * math.cos(phi), (radius_scale + vol) * math.sin(phi)


def circle_vol(q: Quote, label: str) -> float:
    """Vol at a label from the circle through the three represented anchors."""
    atm, r_scale = _frame(q)
    (_, ax, ay), (_, bx, by), (_, cx, cy) = (
        _point(label_strike(q, lab), q.vols[lab], atm, r_scale) for lab in THREE_ANCHORS
    )
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    radius = math.hypot(ax - ux, ay - uy)
    phi = _point(label_strike(q, label), q.vols[label], atm, r_scale)[0]
    g = ux * math.cos(phi) + uy * math.sin(phi)
    return g + math.sqrt(g * g - ux * ux - uy * uy + radius * radius) - r_scale
