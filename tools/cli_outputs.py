"""Run every smilegeo CLI subcommand over the shipped surfaces and keep the bytes.

Usage: python3 tools/cli_outputs.py SRC_ROOT OUT_DIR
       python3 tools/cli_outputs.py --compare DIR_A DIR_B

SRC_ROOT is the directory that holds the ``smilegeo`` package (a checkout's
``src/``); it is imported in-process and ``cli.main`` is called once per run.
The runs cover both surfaces under ``data/`` next to this tool, in csv, json
and svg:

- per expiry: represent, fit-circle, fit-ellipse, curvature, and density
  with circle, ellipse, vanna-volga market and vanna-volga first;
- per surface: complete-surface and compare with each of those four.

density, complete-surface and compare run under both delta conventions:
the default spot-pips, and forward-n (files tagged ``-forward-n``).  The
runs above use the automatic radial scale R.  A fixed ``--radius-scale 0.5``
(files tagged ``-r0.5``) runs in csv only: per expiry, represent,
fit-circle, fit-ellipse, and density with circle and with ellipse; per
surface, complete-surface and compare with circle and with ellipse.  On
the two 14-expiry surfaces that makes 1252 runs.

Each output goes to its own file under OUT_DIR, and ``OUT_DIR/exit_codes.txt``
lists every run with its exit code (and its stderr when non-empty), in
run order.  Trees written from two checkouts by the same version of this
tool compare with ``diff -r``; versions that order or name the runs
differently give different trees.

``--compare`` lists what moved between two such trees: every output whose
bytes differ (and any that only one tree has), and for each numeric column
of a differing CSV the largest absolute move and the largest move relative
to the column's peak |value| in DIR_A.  A CSV whose row count changed
prints both counts instead.  The CSVs round to 10 significant digits,
while a JSON output carries every bit of its numbers: for each column of a
differing JSON file it prints the largest move in ulps of DIR_A's value and
how many values changed sign or finiteness (a null counts as not finite),
or that something other than the numbers differs.  SVG outputs are listed
by path only.  The last three lines give, per subcommand, the largest JSON
move with the count of sign changes and of finiteness or structure
changes, then count the differing files per subcommand, then in all, and
say whether ``exit_codes.txt`` differs.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"
SURFACES = ("synthetic_circle_surface", "synthetic_gamma_surface")
FORMATS = ("csv", "json", "svg")
METHODS = (
    ("circle", ["--method", "circle"]),
    ("ellipse", ["--method", "ellipse"]),
    ("vv-market", ["--method", "vanna-volga", "--vv-variant", "market"]),
    ("vv-first", ["--method", "vanna-volga", "--vv-variant", "first"]),
)
CONVENTIONS = (("", []), ("-forward-n", ["--delta-convention", "forward-n"]))
FIXED_R = ("-r0.5", ["--radius-scale", "0.5"])
COMMANDS = (
    "represent", "fit-circle", "fit-ellipse", "curvature", "density", "complete-surface", "compare",
)


def runs():
    """(relative output path, argv without --out) for every run."""
    for name in SURFACES:
        path = DATA / f"{name}.csv"
        with open(path, newline="") as fh:
            expiries = [rec[0] for rec in list(csv.reader(fh))[1:] if rec]
        for fmt in FORMATS:
            common = [str(path), "--output-format", fmt]
            for expiry in expiries:
                row = common + ["--expiry", expiry]
                for cmd in ("represent", "fit-circle", "fit-ellipse", "curvature"):
                    yield f"{name}/{expiry}/{cmd}.{fmt}", [cmd, *row]
                for tag, flags in METHODS:
                    for conv, conv_flags in CONVENTIONS:
                        yield (
                            f"{name}/{expiry}/density-{tag}{conv}.{fmt}",
                            ["density", *row, *flags, *conv_flags],
                        )
            for tag, flags in METHODS:
                for cmd in ("complete-surface", "compare"):
                    for conv, conv_flags in CONVENTIONS:
                        yield f"{name}/{cmd}-{tag}{conv}.{fmt}", [cmd, *common, *flags, *conv_flags]
        r_tag, r_flags = FIXED_R
        fixed = [str(path), "--output-format", "csv", *r_flags]
        for expiry in expiries:
            row = fixed + ["--expiry", expiry]
            for cmd in ("represent", "fit-circle", "fit-ellipse"):
                yield f"{name}/{expiry}/{cmd}{r_tag}.csv", [cmd, *row]
            for tag, flags in METHODS[:2]:
                yield f"{name}/{expiry}/density-{tag}{r_tag}.csv", ["density", *row, *flags]
        for tag, flags in METHODS[:2]:
            for cmd in ("complete-surface", "compare"):
                yield f"{name}/{cmd}-{tag}{r_tag}.csv", [cmd, *fixed, *flags]


def _columns(data: bytes) -> tuple[int, dict[str, list[float]]]:
    """The row count and the numeric columns, by header name, of a CSV output."""
    header, *rows = list(csv.reader(io.StringIO(data.decode())))
    out = {}
    for i, name in enumerate(header):
        try:
            out[name] = [float(row[i]) for row in rows]
        except (ValueError, IndexError):
            continue
    return len(rows), out


def _number(value) -> float | None:
    """A JSON number as a float; None for strings, booleans and null."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _json_moves(data_a: bytes, data_b: bytes) -> dict[str, list] | None:
    """Per column of two JSON tables: [largest move in ulps of the first
    table's value, values that changed sign, values that changed finiteness],
    for the columns that moved; None if anything but the numbers differs."""
    doc_a, doc_b = json.loads(data_a), json.loads(data_b)
    rows_a, rows_b = doc_a.pop("rows"), doc_b.pop("rows")
    if doc_a != doc_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    moves: dict[str, list] = {}
    for row_a, row_b in zip(rows_a, rows_b):
        for name, raw_a, raw_b in zip(doc_a["columns"], row_a, row_b):
            if raw_a == raw_b:
                continue
            a, b = _number(raw_a), _number(raw_b)
            if a is None and b is None:
                return None
            move = moves.setdefault(name, [0.0, 0, 0])
            finite_a, finite_b = (v is not None and math.isfinite(v) for v in (a, b))
            if finite_a != finite_b:
                move[2] += 1
            elif finite_a:
                move[0] = max(move[0], abs(b - a) / math.ulp(a))
                move[1] += (a > 0.0) - (a < 0.0) != (b > 0.0) - (b < 0.0)
    return moves


def _subcommand(rel: Path) -> str:
    """The subcommand whose run wrote ``rel`` (the file's own name for exit_codes.txt)."""
    return next((cmd for cmd in COMMANDS if rel.name.startswith(cmd)), rel.name)


def compare(dir_a: Path, dir_b: Path) -> None:
    files = [{p.relative_to(d) for p in d.rglob("*") if p.is_file()} for d in (dir_a, dir_b)]
    for rel in sorted(files[0] ^ files[1]):
        print(f"{rel}: only in {dir_a if rel in files[0] else dir_b}")
    common = sorted(files[0] & files[1])
    moved = [rel for rel in common if (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes()]
    json_worst: dict[str, list] = {}
    for rel in moved:
        print(rel)
        if rel.suffix == ".json":
            moves = _json_moves(*((d / rel).read_bytes() for d in (dir_a, dir_b)))
            worst = json_worst.setdefault(_subcommand(rel), [0.0, 0, 0])
            if moves is None:
                print("  something other than the numbers differs")
                worst[2] += 1
                continue
            for name, (ulps, signs, finiteness) in moves.items():
                flips = f", {signs} changed sign" if signs else ""
                flips += f", {finiteness} changed finiteness" if finiteness else ""
                print(f"  {name}: at most {ulps:.3g} ulp of the value in {dir_a}{flips}")
                worst[0] = max(worst[0], ulps)
                worst[1] += signs
                worst[2] += finiteness
            continue
        if rel.suffix != ".csv":
            continue
        (rows_a, cols_a), (rows_b, cols_b) = (_columns((d / rel).read_bytes()) for d in (dir_a, dir_b))
        if rows_a != rows_b:
            print(f"  rows: {rows_a} in {dir_a}, {rows_b} in {dir_b}")
            continue
        for name, col_a in cols_a.items():
            col_b = cols_b.get(name)
            if col_b is None:
                print(f"  {name}: missing or not numeric in {dir_b}")
                continue
            move = max((abs(a - b) for a, b in zip(col_a, col_b)), default=0.0)
            if move > 0.0:
                peak = max(abs(a) for a in col_a)
                rel_move = move / peak if peak > 0.0 else float("inf")
                print(f"  {name}: at most {move:.2g} absolute, {rel_move:.2g} of the column's peak")
    print("largest JSON move by subcommand: " + (
        ", ".join(
            f"{cmd} {ulps:.3g} ulp ({signs} sign, {other} finiteness or structure changes)"
            for cmd, (ulps, signs, other) in sorted(json_worst.items())
        ) or "none"
    ))
    by_command = collections.Counter(_subcommand(rel) for rel in moved)
    print("differing files by subcommand: " + (
        ", ".join(f"{cmd} {n}" for cmd, n in sorted(by_command.items())) or "none"
    ))
    exit_codes = Path("exit_codes.txt")
    print(
        f"{len(moved)} of {len(common)} files differ; exit_codes.txt "
        + ("differs" if exit_codes in moved else "is identical")
    )


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_root, out_dir = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src_root))
    from smilegeo import cli

    log = []
    for rel, args in runs():
        target = out_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*args, "--out", str(target)])
        note = err.getvalue().strip().replace("\n", " | ")
        log.append(f"{rel} {code}" + (f" {note}" if note else ""))
    (out_dir / "exit_codes.txt").write_text("\n".join(log) + "\n")
    failed = sum(1 for line in log if line.split(" ")[1] != "0")
    print(f"{len(log)} runs, {failed} non-zero exits, outputs in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
