"""Command-line interface over surface CSV files.

Subcommands: represent, fit-circle, fit-ellipse, density, curvature,
complete-surface, compare.  One parser reads the subcommand, the surface
file and eight flags; every subcommand accepts every flag.  Exit codes: 0
on success, 2 on input/parse errors (a usage error is one line ending
``(see smilegeo --help)``) and on a surface or ``--out`` path that cannot
be opened, 3 on numeric failures (inadmissible shapes, out-of-band prices,
grids too narrow for distinct strikes).  Every row error names its
expiry: ``expiry '2W' failed: <reason>``.  ``compare`` and
``complete-surface`` blank a failed row, name it on stderr, and still exit 0.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bsm import DeltaConvention
from . import emit
from .emit import RepresentationScene, TableArtifact
from .errors import DomainTooNarrow, ParseError, SmileGeoError
from .georep import RADIUS_FLOOR, polar_map, represent, represent_anchors
from .smile import DEFAULT_GRID_POINTS, density_from_smile
from .surface import LABELS, METHODS, complete_expiry, discrepancy_table, parse_surface

COMMANDS = (
    "represent", "fit-circle", "fit-ellipse", "density", "curvature", "complete-surface", "compare",
)
# Subcommands that complete by one method whatever --method says.
_FIXED_METHOD = {"fit-circle": "circle", "fit-ellipse": "ellipse", "curvature": "circle"}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ParseErrors: one ``smilegeo:`` line, exit 2."""

    def error(self, message):
        raise ParseError(f"{message} (see {self.prog} --help)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smilegeo",
        description="Geometric smile completion, densities, and diagnostics.",
    )
    parser.add_argument("command", choices=COMMANDS, help="subcommand")
    parser.add_argument("surface", help="surface CSV file")
    parser.add_argument(
        "--radius-scale",
        type=_radius_scale,
        default="auto",
        help=f"radial scale R (finite, >= {RADIUS_FLOOR:g}) or 'auto' (default, delta-window rule)",
    )
    parser.add_argument(
        "--grid-points", default=str(DEFAULT_GRID_POINTS),
        help="points per evaluation grid (default %(default)s)",
    )
    parser.add_argument(
        "--delta-convention",
        choices=[conv.value for conv in DeltaConvention],
        default=DeltaConvention.SPOT_PIPS.value,
        help="how delta labels are read (default %(default)s)",
    )
    parser.add_argument(
        "--method",
        choices=METHODS,
        default="circle",
        help="completion method (default circle)",
    )
    parser.add_argument(
        "--vv-variant",
        choices=["market", "first"],
        default="market",
        help="vanna-volga flavour (default market)",
    )
    parser.add_argument("--output-format", choices=["csv", "json", "svg"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--expiry", default=None, help="expiry label (default first row)")
    return parser


def _radius_scale(text: str) -> float | None:
    """--radius-scale as a finite float of at least ``RADIUS_FLOOR``, or None for 'auto'.

    Raises ParseError, which argparse lets through, so ``main`` exits 2.
    """
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not RADIUS_FLOOR <= value < math.inf:
        raise ParseError(
            f"--radius-scale must be a finite number >= {RADIUS_FLOOR:g} or 'auto', got {text!r}"
        )
    return value


def _grid_points(args, least: int) -> int:
    """--grid-points as an integer of at least ``least``."""
    try:
        n = int(args.grid_points)
    except ValueError:
        n = least - 1
    if n < least:
        raise ParseError(f"--grid-points must be an integer >= {least}, got {args.grid_points!r}")
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
    # Looked up on each call, so a function swapped into emit is the one called.
    payload = getattr(emit, f"render_{args.output_format}")(artifact)
    if args.out is None:
        sys.stdout.buffer.write(payload)
    else:
        with open(args.out, "wb") as fh:
            fh.write(payload)


def _representation_points_table(row, args) -> TableArtifact:
    ctx = row.frame(args.radius_scale)
    labels = [lab for lab in LABELS if lab in row.vols]
    by_label = row.strikes(_convention(args))
    strikes, vols = [by_label[lab] for lab in labels], [row.vols[lab] for lab in labels]
    x_coords, angles, radii, points = polar_map(strikes, vols, ctx)
    table = np.column_stack([strikes, vols, x_coords, angles, radii, points])
    return TableArtifact(
        kind="representation-points",
        columns=("label", "strike", "vol", "X", "angle", "radius", "x", "y"),
        rows=tuple((lab, *cells) for lab, cells in zip(labels, table.tolist())),
    )


def _increasing(grid: np.ndarray) -> np.ndarray:
    """``grid`` if it strictly increases, else DomainTooNarrow.

    Label strikes a few ulp apart (tenors near 1e-28) leave too few floats
    between the ends for every point of a grid to be distinct.
    """
    if np.all(np.diff(grid) > 0.0):
        return grid
    raise DomainTooNarrow(
        f"strike domain [{float(grid[0])!r}, {float(grid[-1])!r}] is too narrow for "
        f"{grid.size} distinct grid strikes"
    )


def _density_grid(completed, n: int) -> np.ndarray:
    ks = sorted(completed.label_strikes.values())
    return _increasing(np.exp(np.linspace(math.log(ks[0]), math.log(ks[-1]), n)))


def _scene(completed) -> RepresentationScene:
    grid = _increasing(completed.smile.default_grid())
    curve = represent(completed.smile, completed.ctx, grid)
    pts = represent_anchors(completed.anchors, completed.ctx)
    circle = completed.shape if completed.method == "circle" else None
    return RepresentationScene(curve=curve, circle=circle, anchor_points=pts)


def _row_artifact(row, args, grid_points: int):
    """What a single-row subcommand writes for ``row``."""
    if args.command == "represent":
        return _representation_points_table(row, args)
    method = _FIXED_METHOD.get(args.command, args.method)
    completed = complete_expiry(row, method, _convention(args), args.radius_scale, args.vv_variant)
    if args.command == "density":
        return density_from_smile(completed.smile, _density_grid(completed, grid_points))
    if args.command == "curvature":
        from .analysis import curvature_profile  # the one subcommand that loads analysis

        grid = _increasing(completed.smile.default_grid(grid_points))
        curve = represent(completed.smile, completed.ctx, grid)
        return curvature_profile(curve, circle=completed.shape)
    if args.output_format == "svg":
        return _scene(completed)
    shape, ctx = completed.shape, completed.ctx
    if method == "circle":
        columns, values = ("cx", "cy", "radius"), (*shape.center, shape.radius)
    else:
        columns, values = ("A", "B", "C", "D", "E", "F"), shape.coefficients
    columns += ("atm_rn", "radius_scale")
    return TableArtifact(f"fitted-{method}", columns, ((*values, ctx.atm_rn, ctx.radius_scale),))


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's --help
        return exc.code
    # A density grid needs both ends; a short curvature grid is CurveTooShort.
    grid_points = _grid_points(args, 2 if args.command == "density" else 0)
    with open(args.surface, "rb") as fh:
        rows = parse_surface(fh.read())
    if not rows:
        raise ParseError("surface file has no data rows")

    if args.command in ("complete-surface", "compare"):
        table = discrepancy_table(
            rows, args.method, _convention(args), args.radius_scale, vv_variant=args.vv_variant
        )
        artifact = table
        if args.command == "complete-surface":
            vols = tuple((e, *v.values()) for e, v in zip(table.expiries, table.vols))
            artifact = TableArtifact(f"completed-{args.method}", ("expiry",) + LABELS, vols)
        _write(artifact, args)
        for reason in table.errors.values():
            print(f"smilegeo: {reason}", file=sys.stderr)
        return 0
    row = _pick_row(rows, args)
    try:
        artifact = _row_artifact(row, args, grid_points)
    except SmileGeoError as exc:
        raise exc.named_for(row.expiry_label)
    _write(artifact, args)
    return 0


def main(argv=None) -> int:
    try:
        code = run(argv)
        sys.stdout.flush()  # inside the try: a failed flush exits as a failed write does
        return code
    except BrokenPipeError:  # an OSError too: a closed reader is no input error
        return 0
    except (ParseError, OSError) as exc:
        print(f"smilegeo: {exc}", file=sys.stderr)
        return 2
    except SmileGeoError as exc:
        print(f"smilegeo: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    """``main`` as a process: its code through ``os._exit``, skipping interpreter teardown.

    ``main`` has flushed stdout.  An exception that escapes it takes the normal exit.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
