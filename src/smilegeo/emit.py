"""Deterministic CSV / JSON / SVG emission of computed artifacts.

CSV output is RFC-4180 with '.' decimals, LF line endings, and 10
significant digits.  JSON documents carry the versioned schema tag
"smilegeo/1".  SVG output is SVG 1.1 with labelled axes and one polyline
per series; identical inputs produce identical bytes.  A table plots as one
float array, None and strings as NaN, against its first column, or against
the row index where that column holds row labels.  Tables, density
curves, curvature profiles and discrepancy tables render in all three
formats; a ``RepresentationScene`` renders as SVG only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .smile import DensityCurve
from .surface import LABELS, DiscrepancyTable

if TYPE_CHECKING:
    from .analysis import CurvatureProfile
    from .georep import RepresentationCurve
    from .shapes import CircleShape

JSON_SCHEMA = "smilegeo/1"
_SVG_W, _SVG_H = 800, 560
_SVG_MARGIN = 64
_SVG_COLORS = ("#1f6fb4", "#c03bb0", "#6b3bc0", "#2e8b57", "#c05a3b", "#3bbcc0")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):  # RFC 4180: quoted, its quotes doubled
            return '"' + v.replace('"', '""') + '"'
        return v
    f = float(v)
    if f == 0.0:
        return "0"
    return f"{f:.10g}"


@dataclass(frozen=True)
class TableArtifact:
    """A generic column table: first column is the abscissa for plots."""

    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class RepresentationScene:
    """A representation curve with an optional fitted circle and anchor dots."""

    curve: RepresentationCurve
    circle: CircleShape | None = None
    anchor_points: np.ndarray | None = None


def table_from_density(curve: DensityCurve) -> TableArtifact:
    rows = tuple(map(tuple, np.column_stack((curve.strikes, curve.values)).tolist()))
    return TableArtifact(kind="density", columns=("strike", "density"), rows=rows)


def table_from_curvature(profile: CurvatureProfile) -> TableArtifact:
    cols = ["arc", "angle_about_center", "kappa_e", "kappa_s"]
    data = [profile.arc, profile.angle_about_center, profile.kappa_e, profile.kappa_s]
    if profile.n_minus_d1 is not None:
        cols.append("n_minus_d1")
        data.append(profile.n_minus_d1)
    rows = tuple(map(tuple, np.column_stack(data).tolist()))
    return TableArtifact(kind="curvature", columns=tuple(cols), rows=rows)


def table_from_discrepancy(table: DiscrepancyTable) -> TableArtifact:
    cols = ("expiry",) + LABELS + ("row_l2",)
    rows = []
    for label, cell, l2 in zip(table.expiries, table.cells, table.row_l2):
        rows.append((label,) + tuple(cell[lab] for lab in LABELS) + (l2,))
    rows.append(
        ("L2 norm",)
        + tuple(table.col_l2[lab] for lab in LABELS)
        + (table.grand_l2,)
    )
    return TableArtifact(kind=f"discrepancy-{table.method}", columns=cols, rows=tuple(rows))


def _as_table(artifact) -> TableArtifact:
    if isinstance(artifact, TableArtifact):
        return artifact
    if isinstance(artifact, DiscrepancyTable):
        return table_from_discrepancy(artifact)
    if isinstance(artifact, DensityCurve):
        return table_from_density(artifact)
    # A profile was made by analysis, so this import loads nothing new: the
    # density path never loads analysis.
    from .analysis import CurvatureProfile

    if isinstance(artifact, CurvatureProfile):
        return table_from_curvature(artifact)
    raise TypeError(f"cannot emit {type(artifact).__name__}")


def render_csv(artifact) -> bytes:
    table = _as_table(artifact)
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_json(artifact) -> bytes:
    import json  # CSV and SVG runs never load it

    table = _as_table(artifact)
    doc = {
        "schema": JSON_SCHEMA,
        "kind": table.kind,
        "columns": list(table.columns),
        "rows": [
            [v if isinstance(v, str) else (None if v is None else float(v)) for v in row]
            for row in table.rows
        ],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _svg_coords(xs, ys, x_range, y_range):
    x0, x1 = x_range
    y0, y1 = y_range
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    w = _SVG_W - 2 * _SVG_MARGIN
    h = _SVG_H - 2 * _SVG_MARGIN
    px = _SVG_MARGIN + (np.asarray(xs) - x0) / span_x * w
    py = _SVG_H - _SVG_MARGIN - (np.asarray(ys) - y0) / span_y * h
    return px, py


def _svg_doc(body: list[str], x_label: str, y_label: str) -> bytes:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_H - _SVG_MARGIN}" x2="{_SVG_W - _SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" x2="{_SVG_MARGIN}" '
        f'y2="{_SVG_H - _SVG_MARGIN}" stroke="black" stroke-width="1"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 16}" font-size="14" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="18" y="{_SVG_H // 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {_SVG_H // 2})">{y_label}</text>',
    ]
    return ("\n".join(head + body) + "\n</svg>\n").encode("utf-8")


def _polyline(px, py, color: str, dasharray: str | None = None) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>'


def _tick_labels(x_range, y_range) -> list[str]:
    out = []
    for frac in (0.0, 0.5, 1.0):
        xv = x_range[0] + frac * (x_range[1] - x_range[0])
        px = _SVG_MARGIN + frac * (_SVG_W - 2 * _SVG_MARGIN)
        out.append(
            f'<text x="{px:.1f}" y="{_SVG_H - _SVG_MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.6g}</text>'
        )
        yv = y_range[0] + frac * (y_range[1] - y_range[0])
        py = _SVG_H - _SVG_MARGIN - frac * (_SVG_H - 2 * _SVG_MARGIN)
        out.append(
            f'<text x="{_SVG_MARGIN - 6}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{yv:.6g}</text>'
        )
    return out


def render_svg(artifact) -> bytes:
    """Polyline plot: representation scenes in the plane, tables as series."""
    if isinstance(artifact, RepresentationScene):
        return _render_scene_svg(artifact)
    table = _as_table(artifact)
    data = np.array(
        [[math.nan if v is None or isinstance(v, str) else float(v) for v in r] for r in table.rows]
    )
    xs, series = data[:, 0], data[:, 1:]
    if any(isinstance(r[0], str) for r in table.rows):
        # Row labels (e.g. expiries) plot against the row index.
        xs = np.arange(len(table.rows), dtype=float)
    finite = np.isfinite(series)
    if not finite.any():  # e.g. every row of a surface failed: axes, no series
        return _svg_doc([], table.columns[0], table.kind)
    y_min = float(np.nanmin(np.where(finite, series, np.nan)))
    y_max = float(np.nanmax(np.where(finite, series, np.nan)))
    x_range = (float(np.min(xs)), float(np.max(xs)))
    y_range = (y_min, y_max)
    body = _tick_labels(x_range, y_range)
    for j in range(series.shape[1]):
        col = series[:, j]
        ok = np.isfinite(col)
        if not np.any(ok):
            continue
        px, py = _svg_coords(xs[ok], col[ok], x_range, y_range)
        color = _SVG_COLORS[j % len(_SVG_COLORS)]
        body.append(_polyline(px, py, color))
        body.append(
            f'<text x="{_SVG_W - _SVG_MARGIN + 4}" y="{_SVG_MARGIN + 16 * j + 12}" '
            f'font-size="11" fill="{color}">{table.columns[j + 1]}</text>'
        )
    return _svg_doc(body, table.columns[0], table.kind)


def _render_scene_svg(scene: RepresentationScene) -> bytes:
    pts = scene.curve.points
    xs, ys = [pts[:, 0]], [pts[:, 1]]
    if scene.circle is not None:
        theta = np.linspace(0.0, 2.0 * math.pi, 361)
        xs.append(scene.circle.center[0] + scene.circle.radius * np.cos(theta))
        ys.append(scene.circle.center[1] + scene.circle.radius * np.sin(theta))
    all_x = np.concatenate(xs)
    all_y = np.concatenate(ys)
    pad_x = 0.05 * (all_x.max() - all_x.min() or 1.0)
    pad_y = 0.05 * (all_y.max() - all_y.min() or 1.0)
    x_range = (float(all_x.min() - pad_x), float(all_x.max() + pad_x))
    y_range = (float(all_y.min() - pad_y), float(all_y.max() + pad_y))
    body = _tick_labels(x_range, y_range)
    px, py = _svg_coords(pts[:, 0], pts[:, 1], x_range, y_range)
    body.append(_polyline(px, py, _SVG_COLORS[0]))
    if scene.circle is not None:
        cx, cy = _svg_coords(xs[1], ys[1], x_range, y_range)
        body.append(_polyline(cx, cy, _SVG_COLORS[1], dasharray="4,3"))
    if scene.anchor_points is not None:
        ax, ay = _svg_coords(
            scene.anchor_points[:, 0], scene.anchor_points[:, 1], x_range, y_range
        )
        for x, y in zip(ax, ay):
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>')
    return _svg_doc(body, "x", "y")

