"""Run every smilegeo CLI subcommand over the shipped surfaces and keep the bytes.

Usage: python3 tools/cli_outputs.py SRC_ROOT OUT_DIR

SRC_ROOT is the directory that holds the ``smilegeo`` package (a checkout's
``src/``); it is imported in-process and ``cli.main`` is called once per run.
The runs cover both surfaces under ``data/`` next to this tool, in csv, json
and svg:

- per expiry: represent, fit-circle, fit-ellipse, curvature, and density
  with circle, ellipse, vanna-volga market and vanna-volga first;
- per surface: complete-surface and compare with each of those four.

density, complete-surface and compare run under both delta conventions:
the default spot-pips, and forward-n (files tagged ``-forward-n``).

Every curvature run comes after all other runs.  curvature is the one
subcommand that imports ``scipy.interpolate`` (and with it
``scipy.special``), so the runs before it take the path of a cold CLI
process, which loads no scipy module.  The run order is also the order of
``exit_codes.txt``: compare trees written by the same version of this tool.

Each output goes to its own file under OUT_DIR, and ``OUT_DIR/exit_codes.txt``
lists every run with its exit code (and its stderr when non-empty).  Trees
written from two checkouts compare with ``diff -r``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
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


def runs():
    """(relative output path, argv without --out) for every run, curvature last."""
    return sorted(_all_runs(), key=lambda run: run[1][0] == "curvature")


def _all_runs():
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


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_root, out_dir = Path(argv[0]).resolve(), Path(argv[1])
    # The grid-size default is read from the environment; pin it.
    os.environ.pop("SMILEGEO_GRID_POINTS", None)
    sys.path.insert(0, str(src_root))
    from smilegeo import cli

    log = []
    scipy_from = "import" if "scipy" in sys.modules else None
    for rel, args in runs():
        target = out_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*args, "--out", str(target)])
        note = err.getvalue().strip().replace("\n", " | ")
        log.append(f"{rel} {code}" + (f" {note}" if note else ""))
        if scipy_from is None and "scipy" in sys.modules:
            scipy_from = rel
    (out_dir / "exit_codes.txt").write_text("\n".join(log) + "\n")
    failed = sum(1 for line in log if line.split(" ")[1] != "0")
    print(f"{len(log)} runs, {failed} non-zero exits, outputs in {out_dir}")
    print(f"scipy first loaded by: {scipy_from or 'no run'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
