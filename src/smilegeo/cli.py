"""Command-line interface over surface CSV files.

Subcommands: represent, fit-circle, fit-ellipse, density, curvature,
complete-surface, compare.  Exit codes: 0 on success, 2 on input/parse
errors, 3 on numeric failures (inadmissible shapes, out-of-band prices,
grids too narrow for distinct strikes).
``compare`` blanks a failed row, names it on stderr, and still exits 0.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .analysis import curvature_profile
from .bsm import DeltaConvention
from .emit import RENDERERS, RepresentationScene, TableArtifact
from .errors import DomainTooNarrow, MissingAnchor, ParseError, SmileGeoError
from .georep import (
    DEFAULT_CURVE_POINTS,
    continuous_angle,
    flat_context,
    represent,
    represent_anchors,
    strike_to_x,
)
from .smile import density_from_smile
from .surface import (
    LABELS,
    complete_expiry,
    discrepancy_table,
    parse_surface,
    row_anchors,
)

GRID_POINTS_ENV = "SMILEGEO_GRID_POINTS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smilegeo",
        description="Geometric smile completion, densities, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("surface", help="surface CSV file")
    common.add_argument(
        "--radius-scale",
        type=_radius_scale,
        default="auto",
        help="radial scale R (finite, positive), or 'auto' (default) for the delta-window rule",
    )
    common.add_argument(
        "--grid-points",
        default=os.environ.get(GRID_POINTS_ENV, "2001"),
        help=f"points per evaluation grid (default 2001, env {GRID_POINTS_ENV})",
    )
    common.add_argument(
        "--delta-convention",
        choices=["spot-pips", "forward-n"],
        default="spot-pips",
        help="how delta labels are read (default spot-pips)",
    )
    common.add_argument(
        "--method",
        choices=["circle", "ellipse", "vanna-volga"],
        default="circle",
        help="completion method (default circle)",
    )
    common.add_argument(
        "--vv-variant",
        choices=["market", "first"],
        default="market",
        help="vanna-volga flavour (default market)",
    )
    common.add_argument(
        "--output-format", choices=["csv", "json", "svg"], default="csv"
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--expiry", default=None, help="expiry label (default first row)")
    for name in (
        "represent",
        "fit-circle",
        "fit-ellipse",
        "density",
        "curvature",
        "complete-surface",
        "compare",
    ):
        sub.add_parser(name, parents=[common])
    return parser


def _radius_scale(text: str) -> float | None:
    """--radius-scale as a finite positive float, or None for 'auto'.

    Raises ParseError, which argparse lets through, so ``main`` exits 2.
    """
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ParseError(
            f"--radius-scale must be a finite positive number or 'auto', got {text!r}"
        )
    return value


def _grid_points(args, least: int) -> int:
    """--grid-points (or its environment default) as an integer of at least ``least``."""
    try:
        n = int(args.grid_points)
    except ValueError:
        n = least - 1
    if n < least:
        raise ParseError(
            f"--grid-points (default from {GRID_POINTS_ENV}) must be an integer "
            f">= {least}, got {args.grid_points!r}"
        )
    return n


def _convention(args) -> DeltaConvention:
    return DeltaConvention(args.delta_convention)


def _pick_row(rows, args):
    if args.expiry is None:
        return rows[0]
    for row in rows:
        if row.expiry_label == args.expiry:
            return row
    raise ParseError(f"expiry {args.expiry!r} not found in surface")


def _write(artifact, args) -> None:
    payload = RENDERERS[args.output_format](artifact)
    if args.out is None:
        sys.stdout.buffer.write(payload)
    else:
        with open(args.out, "wb") as fh:
            fh.write(payload)


def _complete(row, args, method=None):
    """``complete_expiry`` of one row under the command line's options."""
    return complete_expiry(
        row, method or args.method, _convention(args), args.radius_scale, args.vv_variant
    )


def _representation_points_table(rows, args) -> TableArtifact:
    row = _pick_row(rows, args)
    conv = _convention(args)
    ctx = flat_context(row.market(), row.vols["ATM"], args.radius_scale)
    labels = [lab for lab in LABELS if lab in row.vols]
    anchors = row_anchors(row, labels, conv, row.strikes(conv))
    out = []
    for lab, a, (x, y) in zip(labels, anchors, represent_anchors(anchors, ctx)):
        x_coord = strike_to_x(a.strike, ctx.atm_rn, ctx.radius_scale)
        phi = continuous_angle(x_coord)
        out.append((lab, a.strike, a.vol, x_coord, phi, ctx.radius_scale + a.vol, x, y))
    if not np.all(np.isfinite([r[1:] for r in out])):
        raise SmileGeoError(
            f"expiry {row.expiry_label!r}: representation points are not finite "
            f"under radius scale {ctx.radius_scale!r}"
        )
    return TableArtifact(
        kind="representation-points",
        columns=("label", "strike", "vol", "X", "angle", "radius", "x", "y"),
        rows=tuple(out),
    )


def _increasing(grid: np.ndarray, completed) -> np.ndarray:
    """``grid`` if it strictly increases, else DomainTooNarrow.

    Label strikes a few ulp apart (tenors near 1e-28) leave too few floats
    between the ends for every point of a grid to be distinct.
    """
    if np.all(np.diff(grid) > 0.0):
        return grid
    raise DomainTooNarrow(
        f"expiry {completed.row.expiry_label!r}: strike domain "
        f"[{float(grid[0])!r}, {float(grid[-1])!r}] is too narrow for {grid.size} distinct "
        "grid strikes"
    )


def _density_grid(completed, n: int) -> np.ndarray:
    ks = sorted(completed.label_strikes.values())
    return _increasing(np.exp(np.linspace(math.log(ks[0]), math.log(ks[-1]), n)), completed)


def _curve_grid(completed, n: int) -> np.ndarray:
    return _increasing(completed.smile.default_grid(n), completed)


def _scene(completed) -> RepresentationScene:
    curve = represent(
        completed.smile, completed.ctx, _curve_grid(completed, DEFAULT_CURVE_POINTS)
    )
    pts = represent_anchors(completed.anchors, completed.ctx)
    circle = completed.shape if completed.method == "circle" else None
    return RepresentationScene(curve=curve, circle=circle, anchor_points=pts)


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --help
        return exc.code
    # A density grid needs both ends; a short curvature grid is CurveTooShort.
    grid_points = _grid_points(args, 2 if args.command == "density" else 0)
    rows = parse_surface(open(args.surface, "rb").read())
    if not rows:
        raise ParseError("surface file has no data rows")

    if args.command == "represent":
        _write(_representation_points_table(rows, args), args)
    elif args.command in ("fit-circle", "fit-ellipse"):
        method = "circle" if args.command == "fit-circle" else "ellipse"
        completed = _complete(_pick_row(rows, args), args, method)
        if args.output_format == "svg":
            _write(_scene(completed), args)
        else:
            shape, ctx = completed.shape, completed.ctx
            if method == "circle":
                columns, values = ("cx", "cy", "radius"), (*shape.center, shape.radius)
            else:
                columns, values = ("A", "B", "C", "D", "E", "F"), shape.coefficients
            _write(
                TableArtifact(
                    kind=f"fitted-{method}",
                    columns=columns + ("atm_rn", "radius_scale"),
                    rows=((*values, ctx.atm_rn, ctx.radius_scale),),
                ),
                args,
            )
    elif args.command == "density":
        completed = _complete(_pick_row(rows, args), args)
        grid = _density_grid(completed, grid_points)
        _write(density_from_smile(completed.smile, grid), args)
    elif args.command == "curvature":
        completed = _complete(_pick_row(rows, args), args, "circle")
        curve = represent(completed.smile, completed.ctx, _curve_grid(completed, grid_points))
        profile = curvature_profile(curve, circle=completed.shape)
        _write(profile, args)
    elif args.command == "complete-surface":
        out_rows = []
        for row in rows:
            vols = _complete(row, args).label_vols()
            out_rows.append((row.expiry_label, *(vols.get(lab) for lab in LABELS)))
        _write(
            TableArtifact(
                kind=f"completed-{args.method}",
                columns=("expiry",) + LABELS,
                rows=tuple(out_rows),
            ),
            args,
        )
    elif args.command == "compare":
        table = discrepancy_table(
            rows, args.method, _convention(args), args.radius_scale, vv_variant=args.vv_variant
        )
        _write(table, args)
        for expiry, reason in table.errors.items():
            print(f"smilegeo: expiry {expiry!r} failed: {reason}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ParseError, MissingAnchor, FileNotFoundError) as exc:
        print(f"smilegeo: {exc}", file=sys.stderr)
        return 2
    except SmileGeoError as exc:
        print(f"smilegeo: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
