"""Tests for artifact emission and the command-line interface."""
import ast
import contextlib
import gc
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smilegeo.bsm import DeltaConvention
from smilegeo.distributions import DensityCurve
from smilegeo.emit import (
    RepresentationScene,
    TableArtifact,
    render_csv,
    render_json,
    render_svg,
    table_from_discrepancy,
)
from smilegeo.surface import discrepancy_table, parse_surface, synthetic_gamma_surface

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
GAMMA_CSV = str(DATA / "synthetic_gamma_surface.csv")
CIRCLE_CSV = str(DATA / "synthetic_circle_surface.csv")


def small_table():
    return TableArtifact(
        kind="density",
        columns=("strike", "density"),
        rows=((1.0, 0.25), (2.0, 1.0 / 3.0), (3.0, 0.125)),
    )


class TestRenderers:
    def test_csv_shape_and_precision(self):
        text = render_csv(small_table()).decode()
        lines = text.split("\n")
        assert lines[0] == "strike,density"
        assert lines[1] == "1,0.25"
        assert lines[2] == "2,0.3333333333"  # ten significant digits
        assert text.endswith("\n")
        assert "\r" not in text

    def test_json_schema_tag(self):
        doc = json.loads(render_json(small_table()))
        assert doc["schema"] == "smilegeo/1"
        assert doc["kind"] == "density"
        assert doc["columns"] == ["strike", "density"]
        assert doc["rows"][0] == [1.0, 0.25]

    def test_density_curve_renders(self):
        curve = DensityCurve(strikes=np.array([1.0, 2.0, 3.0]), values=np.array([0.1, 0.5, 0.2]))
        assert render_csv(curve).decode().splitlines()[0] == "strike,density"

    def test_discrepancy_csv_column_order(self):
        rows = parse_surface(open(GAMMA_CSV, "rb").read())
        table = discrepancy_table(rows, "circle", DeltaConvention.SPOT_PIPS)
        text = render_csv(table).decode()
        header = text.splitlines()[0]
        assert header == "expiry,10P,15P,25P,35P,ATM,35C,25C,15C,10C,row_l2"
        assert text.splitlines()[-1].startswith("L2 norm,")
        # 14 expiries + header + norms row
        assert len(text.strip().splitlines()) == 16

    def test_svg_structure(self):
        payload = render_svg(small_table()).decode()
        assert payload.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in payload
        assert "<polyline" in payload
        assert "strike" in payload and "density" in payload

    def test_scene_svg_has_circle_and_dots(self):
        from smilegeo.surface import complete_expiry
        from smilegeo.georep import represent, represent_anchors
        from smilegeo.shapes import circumcircle

        rows = parse_surface(open(GAMMA_CSV, "rb").read())
        completed = complete_expiry(rows[5], "circle", DeltaConvention.SPOT_PIPS)
        curve = represent(completed.smile, completed.ctx)
        pts = represent_anchors(completed.anchors, completed.ctx)
        scene = RepresentationScene(
            curve=curve, circle=circumcircle(pts[0], pts[1], pts[2]), anchor_points=pts
        )
        payload = render_svg(scene).decode()
        assert payload.count("<polyline") == 2  # curve + circle
        assert payload.count("<circle") == 3  # three anchor dots

    def test_deterministic_bytes(self):
        rows = parse_surface(open(GAMMA_CSV, "rb").read())
        table = discrepancy_table(rows, "circle", DeltaConvention.SPOT_PIPS)
        for renderer in (render_csv, render_json, render_svg):
            assert renderer(table) == renderer(table)

    def test_emit_writes_and_counts(self, tmp_path):
        out = tmp_path / "t.csv"
        payload = render_csv(small_table())
        out.write_bytes(payload)
        assert out.stat().st_size == len(payload)
        assert out.read_bytes() == render_csv(small_table())


def edit_row(line: str, edits) -> str:
    """A surface CSV data line with the given (field, value) edits applied."""
    from smilegeo.surface import CSV_HEADER

    cells = line.split(",")
    for field, value in edits:
        cells[CSV_HEADER.split(",").index(field)] = value
    return ",".join(cells)


def one_row_csv(tmp_path, row: int, edits) -> pathlib.Path:
    """Row ``row`` (1-based) of the gamma surface alone, edited, as a CSV file."""
    lines = pathlib.Path(GAMMA_CSV).read_text().splitlines()
    out = tmp_path / "one_row.csv"
    out.write_text(lines[0] + "\n" + edit_row(lines[row], edits) + "\n")
    return out


# The process entry ends in os._exit, so only what main flushed reaches the
# reader.  Children get a buffered stdout (no PYTHONUNBUFFERED): output short
# of its 8 KiB buffer waits for the flush, and a lost flush loses it.
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(*args, stdout=subprocess.PIPE):
    """``python -m smilegeo.cli args``: (exit code, stdout bytes, stderr bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "smilegeo.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=BUFFERED_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# Run in a fresh interpreter: neither the CLI's import nor a distribution
# smile, a delta solve and a curvature profile load the spline or the
# root-finding subpackage.  The package builds its smile spline itself; the
# source scan below keeps scipy.optimize out of it, and scipy.interpolate
# inside the one function that resamples raw point arrays.
IMPORT_PATH_PROBE = """
import sys

import smilegeo.cli


def heavy():
    return sorted(
        m for m in sys.modules if m.split(".")[:2] in (["scipy", "interpolate"], ["scipy", "optimize"])
    )


assert not heavy(), heavy()

from smilegeo import (
    Gamma, curvature_profile, d1_d2, represent, smile_from_distribution, strike_for_delta
)
from smilegeo.workflows import market_state_for

dist = Gamma(kappa=5.12, theta=0.64)
smile = smile_from_distribution(dist, market_state_for(dist))
anchor = strike_for_delta(smile, 0.25)
assert abs(d1_d2(smile.market, anchor.strike, anchor.vol)[0] - 0.6744897501960817) < 1e-9
profile = curvature_profile(represent(smile))
assert profile.n_minus_d1 is not None
assert not heavy(), heavy()
"""


def test_cli_import_leaves_interpolate_and_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_PROBE],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()


# The curvature profile of a surface row's completed smile reads the smile's
# jet, and its N(-d1) comes from the standard library's math.erfc: no scipy
# module.
CURVATURE_PROBE = """
import sys

from smilegeo import curvature_profile, represent
from smilegeo.surface import complete_expiry, parse_surface

row = parse_surface(open(sys.argv[1], "rb").read())[0]
completed = complete_expiry(row, "circle")
profile = curvature_profile(represent(completed.smile, completed.ctx), circle=completed.shape)
assert profile.n_minus_d1 is not None
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""


def test_curvature_profile_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", CURVATURE_PROBE, GAMMA_CSV],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()


# A cold CLI process runs every subcommand without loading any scipy module:
# the normal quantile and curvature's normal CDF come from the standard library,
# curvature reads the completed smile's jet, and scipy's normal CDF and the
# gamma and beta functions, which import scipy.special on their first call,
# are off every subcommand's path.
SCIPY_FREE_PROBE = """
import os
import sys

from smilegeo import cli

for surface in sys.argv[1:]:
    for argv in (
        ["represent"],
        ["fit-circle"],
        ["fit-ellipse"],
        ["density", "--method", "circle"],
        ["density", "--method", "vanna-volga"],
        ["complete-surface"],
        ["compare"],
        ["curvature"],
        ["curvature", "--output-format", "json"],
    ):
        assert cli.main([argv[0], surface, *argv[1:], "--out", os.devnull]) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""


def test_cli_runs_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_PROBE, GAMMA_CSV, CIRCLE_CSV],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()


# A cold CLI process loads only the smilegeo modules its subcommand runs: the
# package namespace is lazy, and a module that one path alone needs is
# imported inside the function on that path.  No subcommand loads workflows
# or _interp, nor the standard library's statistics (bsm.ndtri reads the C
# accelerator), and only JSON output loads json.  With no subcommand the
# probe only imports the CLI.
MODULE_SET_PROBE = """
import os
import sys

from smilegeo import cli

if sys.argv[1:]:
    assert cli.main([*sys.argv[1:], "--out", os.devnull]) == 0
print(" ".join(sorted(m.partition(".")[2] for m in sys.modules if m.startswith("smilegeo."))))
print(" ".join(sorted({"json", "statistics"} & set(sys.modules))))
"""
CLI_MODULES = {"bsm", "cli", "emit", "errors", "georep", "smile", "surface"}
FIT_MODULES = CLI_MODULES | {"fitting", "shapes"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        ((), CLI_MODULES),
        (("represent", GAMMA_CSV), CLI_MODULES),
        (("fit-circle", CIRCLE_CSV), FIT_MODULES),
        (("fit-ellipse", CIRCLE_CSV, "--output-format", "svg"), FIT_MODULES),
        (("complete-surface", GAMMA_CSV, "--method", "ellipse"), FIT_MODULES),
        (("compare", GAMMA_CSV, "--method", "vanna-volga"), CLI_MODULES | {"vanna_volga"}),
        (("density", GAMMA_CSV), FIT_MODULES),
        (("density", GAMMA_CSV, "--method", "vanna-volga"), CLI_MODULES | {"vanna_volga"}),
        (("curvature", GAMMA_CSV), FIT_MODULES | {"analysis"}),
        (("curvature", GAMMA_CSV, "--output-format", "json"), FIT_MODULES | {"analysis"}),
        (("density", GAMMA_CSV, "--output-format", "svg"), FIT_MODULES),
    ],
    ids=[
        "import", "represent", "fit-circle", "fit-ellipse-svg", "complete-surface-ellipse",
        "compare-vanna-volga", "density-circle", "density-vanna-volga", "curvature",
        "curvature-json", "density-svg",
    ],
)
def test_cold_cli_loads_only_the_modules_it_runs(argv, modules):
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_SET_PROBE, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    smilegeo_modules, stdlib_modules = proc.stdout.decode().split("\n")[:2]
    assert set(smilegeo_modules.split()) == modules
    # No subcommand loads statistics; only a JSON run loads json.
    assert stdlib_modules.split() == (["json"] if "json" in argv else [])


def test_library_never_imports_scipy_optimize():
    """Nor scipy.interpolate, but inside ``analysis._spline_curvatures``: only
    a raw point array's curvature resamples through scipy's CubicSpline, and
    no module imports it at load time."""
    src = pathlib.Path(SRC) / "smilegeo"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        # The innermost function around each node: ast.walk visits outer first.
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            where = f"{path.stem}.{owner.get(node, '<module>')}"
            found += [
                f"{where}: {n}"
                for n in names
                if n.startswith("scipy.optimize")
                or (n.startswith("scipy.interpolate") and where != "analysis._spline_curvatures")
            ]
    assert found == []


def test_library_raises_no_bare_value_error():
    """Argument errors are InvalidInput, so ``except SmileGeoError`` sees them."""
    src = pathlib.Path(SRC) / "smilegeo"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


class TestCli:
    def test_compare_stdout(self):
        code, out, err = run_cli("compare", GAMMA_CSV, "--method", "circle")
        assert code == 0, err
        assert out.decode().splitlines()[0].startswith("expiry,10P")

    def test_complete_surface_all_methods(self):
        for method in ("circle", "ellipse", "vanna-volga"):
            code, out, _ = run_cli("complete-surface", GAMMA_CSV, "--method", method)
            assert code == 0
            assert len(out.decode().strip().splitlines()) == 15

    def test_density_json(self, tmp_path):
        out_path = tmp_path / "d.json"
        code, _, _ = run_cli(
            "density", GAMMA_CSV, "--expiry", "1Y",
            "--grid-points", "101", "--output-format", "json", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "smilegeo/1"
        assert len(doc["rows"]) == 101

    def test_fit_circle_svg(self, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run_cli(
            "fit-circle", CIRCLE_CSV, "--output-format", "svg", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().count("<circle") == 3

    def test_fit_ellipse_svg(self, tmp_path):
        out_path = tmp_path / "fig5.svg"
        code, _, _ = run_cli(
            "fit-ellipse", CIRCLE_CSV, "--output-format", "svg", "--out", str(out_path)
        )
        assert code == 0
        text = out_path.read_text()
        assert text.count("<circle") == 5  # five anchor dots
        assert text.count("<polyline") == 1

    def test_represent_and_curvature(self):
        code, out, _ = run_cli("represent", GAMMA_CSV, "--expiry", "2Y")
        assert code == 0
        assert out.decode().splitlines()[0].startswith("label,strike,vol,X")
        code, out, _ = run_cli("curvature", GAMMA_CSV, "--grid-points", "801")
        assert code == 0
        assert "kappa_e" in out.decode().splitlines()[0]

    @pytest.mark.parametrize("label", ['1,M "x"', "1M\nx"], ids=["comma-quote", "line-break"])
    @pytest.mark.parametrize("command", ["compare", "complete-surface"])
    def test_quoted_label_reads_back(self, tmp_path, capsys, command, label):
        # parse_surface reads its input as CSV, so a quoted expiry label may
        # hold a comma, quotes or a line break; the output quotes it back
        # (RFC 4180).
        import csv

        from smilegeo import cli

        lines = pathlib.Path(GAMMA_CSV).read_text().splitlines()
        quoted = '"' + label.replace('"', '""') + '"' + lines[1][lines[1].index(","):]
        path = tmp_path / "quoted.csv"
        path.write_text("\n".join([lines[0], quoted, *lines[2:]]) + "\n")
        assert cli.main([command, str(path)]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert rows[0][0] == label
        assert {len(row) for row in rows} == {len(header)}

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,surface\n")
        code, _, err = run_cli("compare", str(bad))
        assert code == 2
        assert b"smilegeo:" in err

    def test_cr_only_file_exit_0(self, tmp_path):
        # Line endings of a lone CR, as some spreadsheet exports write them.
        cr_only = tmp_path / "cr.csv"
        cr_only.write_bytes(pathlib.Path(GAMMA_CSV).read_bytes().replace(b"\n", b"\r"))
        code, out, err = run_cli("complete-surface", str(cr_only))
        assert (code, err) == (0, b"")
        assert out == run_cli("complete-surface", GAMMA_CSV)[1]

    def test_bare_cr_in_a_row_exit_2(self, tmp_path, capsys):
        from smilegeo import cli

        lines = pathlib.Path(GAMMA_CSV).read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(("\n".join(lines[:2] + [lines[2].replace(",", ",\r", 1)]) + "\n").encode())
        code = cli.main(["complete-surface", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "smilegeo: expected 14 fields, found 2 (line 3)\n"

    def test_overflowing_completion_domain_exit_2(self, tmp_path, capsys):
        # The 1M row's label strikes are finite, but its completion domain's
        # padded end overflows: exit 2 with no numpy warning first.
        from smilegeo import cli

        bad = one_row_csv(tmp_path, 3, (("d15p", "131.7934453064312"),))
        code = cli.main(["complete-surface", str(bad), "--method", "ellipse"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "smilegeo: expiry '1M' failed: label strikes leave the floating-point range "
            "(rates, tenor or vols too large) (line 2)\n"
        )

    @pytest.mark.parametrize(
        "edits",
        [
            (("d10p", "nan"),),
            (("d25p", "nan"),),
            (("tenor_years", "nan"),),
            (("spot", "inf"),),
            (("spot", "0"),),
            (("spot", "-3.4"),),
            # Finite but so large that the label strikes overflow.
            (("atm", "900"),),
            (("dom_rate", "200"), ("tenor_years", "5")),
            # So small that the radial scale R underflows to 0.
            (("tenor_years", "1e-300"),),
            (("atm", "1e-300"),),
            # So small that the label strikes collapse onto one another.
            (("tenor_years", "1e-30"),),
        ],
        ids=lambda edits: "-".join(f"{field}-{value}" for field, value in edits),
    )
    def test_bad_number_exit_2(self, tmp_path, capsys, edits):
        from smilegeo import cli

        lines = pathlib.Path(GAMMA_CSV).read_text().splitlines()[:3]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:2] + [edit_row(lines[2], edits)]) + "\n")
        for argv in (
            ["compare"], ["density", "--method", "circle"], ["density", "--method", "vanna-volga"]
        ):
            code = cli.main([*argv, str(bad)])
            err = capsys.readouterr().err
            assert code == 2
            assert "Traceback" not in err
            assert "line 3" in err

    @pytest.mark.parametrize("command", ["density", "fit-circle", "represent"])
    def test_delta_target_outside_domain_exit_3(self, tmp_path, capsys, command):
        # e^{-qT} = e^{-30} lifts the 10P spot-pips target to about 1e12;
        # read as plain N(-d1) values the same labels are fine.
        from smilegeo import cli

        bad = one_row_csv(tmp_path, 1, (("for_rate", "30"), ("tenor_years", "1")))
        code = cli.main([command, str(bad)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith("smilegeo: expiry '2W' failed: ") and "10P" in err
        assert cli.main([command, str(bad), "--delta-convention", "forward-n"]) == 0

    @pytest.mark.parametrize("command", ["compare", "complete-surface"])
    def test_delta_target_outside_domain_blanks_row(self, tmp_path, capsys, command):
        from smilegeo import cli

        bad = one_row_csv(tmp_path, 1, (("for_rate", "30"), ("tenor_years", "1")))
        assert cli.main([command, str(bad)]) == 0
        captured = capsys.readouterr()
        row = captured.out.splitlines()[1].split(",")
        assert row[0] == "2W" and set(row[1:]) == {""}
        prefix = "smilegeo: expiry '2W' failed: "
        failed = [ln for ln in captured.err.splitlines() if ln.startswith(prefix)]
        assert len(failed) == 1 and "10P" in failed[0]

    @pytest.mark.parametrize("method", ["circle", "vanna-volga"])
    def test_huge_domain_density_is_finite(self, tmp_path, capsys, method):
        # A 10C vol of 113.6 widens the density grid to ~1e177, where the
        # strike-space form's K^2 terms overflow from 1.5e154 up; the
        # log-strike form stays finite.  Where the density is positive (the six
        # lowest strikes, down to 2e-300) it matches the strike-space form
        # evaluated in mpmath on the smile's jet; measured at 1.3e-13 relative.
        import mpmath

        from smilegeo import cli
        from smilegeo.surface import complete_expiry

        bad = one_row_csv(tmp_path, 2, (("d10c", "113.6"),))
        out = tmp_path / "density.json"
        argv = ["density", str(bad), "--method", method, "--output-format", "json"]
        code = cli.main([*argv, "--out", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        strikes, density = np.array(json.loads(out.read_text())["rows"]).T
        assert strikes.size == 2001 and np.all(np.isfinite(density))
        smile = complete_expiry(parse_surface(bad.read_bytes())[0], method).smile
        ms = smile.market
        positive = np.flatnonzero(density > 0.0)
        assert positive.size >= 6
        for k, p in zip(strikes[positive].tolist(), density[positive].tolist()):
            sig, sig_dot, sig_ddot = (float(v[0]) for v in smile.jet_fn(np.log([k])))
            with mpmath.workdps(50):
                k_mp, t = mpmath.mpf(k), mpmath.mpf(ms.tenor)
                total = sig * mpmath.sqrt(t)
                d1 = (mpmath.log(ms.spot / k_mp) + (mpmath.mpf(ms.dom_rate) - ms.for_rate) * t) / total
                d1 += total / 2
                d2 = d1 - total
                s1, s2 = sig_dot / k_mp, (sig_ddot - sig_dot) / k_mp**2
                bracket = 1 + 2 * k_mp * mpmath.sqrt(t) * d1 * s1 + k_mp**2 * t * (
                    d1 * d2 * s1**2 + sig * s2
                )
                want = bracket * mpmath.exp(-d2 * d2 / 2) / (k_mp * sig * mpmath.sqrt(2 * mpmath.pi * t))
                assert abs(p - want) <= 1e-12 * want, k

    @pytest.mark.parametrize("field", ["d25p", "d25c"])
    @pytest.mark.parametrize("variant", ["market", "first"])
    def test_nonpositive_vv_smile_density_exit_3(self, tmp_path, capsys, variant, field):
        # A 0.001 wing anchor bends the vanna-volga smile below zero inside
        # the density grid.
        from smilegeo import cli

        bad = one_row_csv(tmp_path, 1, ((field, "0.001"),))
        argv = ["density", str(bad), "--method", "vanna-volga", "--vv-variant", variant]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "vol <= 0 at strike" in err

    @pytest.mark.parametrize("variant", ["market", "first"])
    @pytest.mark.parametrize("command", ["density", "complete-surface"])
    def test_vanishing_vv_quote_fails_the_row(self, tmp_path, capsys, command, variant):
        # A tiny 25C vol is the row's middle anchor.  The market variant
        # rejects it before dividing by its vol times sqrt(T) (at 5e-324 that
        # product is 0); the first-order smile comes out NaN or <= 0 on its
        # domain and the positivity decision rejects it.  density exits 3;
        # complete-surface blanks the row and exits 0.
        from smilegeo import cli

        for value in ("1e-300", "5e-324"):
            bad = one_row_csv(tmp_path, 2, (("d25c", value),))
            argv = [command, str(bad), "--method", "vanna-volga", "--vv-variant", variant]
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == (3 if command == "density" else 0), value
            assert "Traceback" not in captured.err
            assert captured.err.startswith("smilegeo: expiry '3W' failed: ")
            assert f"vanna-volga-{variant} smile implies vol <= 0 at strike" in captured.err
            assert "nan" not in captured.out
            if command == "complete-surface":
                assert captured.out.splitlines()[1] == "3W" + "," * 9

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--method", "circle"],
            ["density", "--method", "ellipse"],
            ["density", "--method", "vanna-volga"],
            ["density", "--method", "vanna-volga", "--vv-variant", "first"],
            ["curvature"],
            ["fit-circle", "--output-format", "svg"],
            ["fit-ellipse", "--output-format", "svg"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_ulp_apart_label_strikes_exit_3(self, tmp_path, capsys, argv):
        # A tenor of 1e-28 leaves the label strikes of gamma row 1 a few ulp
        # apart: distinct, so the row parses, but with too few floats between
        # them for a grid of distinct strikes.
        from smilegeo import cli

        bad = one_row_csv(tmp_path, 1, (("tenor_years", "1e-28"),))
        code = cli.main([argv[0], str(bad), *argv[1:], "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "smilegeo: expiry '2W' failed: strike domain [3.39999999999999" in err
        assert "too narrow" in err

    @pytest.mark.parametrize("csv_path", [CIRCLE_CSV, GAMMA_CSV], ids=["circle", "gamma"])
    def test_represent_is_the_library_polar_map(self, csv_path, capsys):
        # Each row's strike, vol, X, angle, radius and (x, y) are polar_map's
        # of the same label anchors, bit for bit.
        from smilegeo import cli
        from smilegeo.georep import flat_context, polar_map
        from smilegeo.bsm import strike_for_target_nd1
        from smilegeo.surface import effective_nd1_target

        conv = DeltaConvention.SPOT_PIPS
        for row in parse_surface(pathlib.Path(csv_path).read_bytes()):
            argv = ["represent", csv_path, "--expiry", row.expiry_label, "--output-format", "json"]
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            ms = row.market()
            labels = [lab for lab, *_ in doc["rows"]]
            strikes = [
                strike_for_target_nd1(ms, row.vols[lab], effective_nd1_target(lab, ms, conv))
                for lab in labels
            ]
            vols = [row.vols[lab] for lab in labels]
            x, phi, rho, pts = polar_map(strikes, vols, flat_context(ms, row.vols["ATM"]))
            want = np.column_stack([strikes, vols, x, phi, rho, pts]).tolist()
            assert len(doc["rows"]) == len(row.vols)
            assert doc["columns"] == ["label", "strike", "vol", "X", "angle", "radius", "x", "y"]
            assert [cells[1:] for cells in doc["rows"]] == want

    def test_repeated_expiry_exit_2(self, tmp_path, capsys):
        from smilegeo import cli

        header, first, second = pathlib.Path(GAMMA_CSV).read_text().splitlines()[:3]
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join([header, first, second, first]) + "\n")
        for command in ("compare", "complete-surface", "density"):
            assert cli.main([command, str(twice)]) == 2
            captured = capsys.readouterr()
            assert captured.err == "smilegeo: expiry '2W' is already on line 2 (line 4)\n"
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["fit-ellipse", "density"])
    def test_single_row_failure_names_expiry(self, capsys, command):
        # At R = 0.5 the circle surface's 2W anchors admit no ellipse.
        from smilegeo import cli

        argv = [command, CIRCLE_CSV, "--expiry", "2W", "--radius-scale", "0.5", "--method", "ellipse"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "smilegeo: expiry '2W' failed: discriminant 0.230626 >= 0\n"

    def test_missing_file_exit_2(self):
        code, _, _ = run_cli("compare", "/nonexistent/surface.csv")
        assert code == 2

    @pytest.mark.parametrize("where", ["surface", "--out"])
    def test_directory_path_exit_2(self, tmp_path, where):
        argv = [str(tmp_path)] if where == "surface" else [GAMMA_CSV, "--out", str(tmp_path)]
        code, out, err = run_cli("represent", *argv)
        assert code == 2
        assert out == b""
        assert err.startswith(b"smilegeo: ") and err.count(b"\n") == 1, err

    def test_surface_file_is_closed(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "smilegeo.cli", "represent", GAMMA_CSV],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_surface_file_is_closed_in_process(self, capsysbinary):
        # The process leaves through os._exit, which finalises nothing still
        # alive; here gc.collect frees what a reference cycle holds, too.
        from smilegeo import cli

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["represent", GAMMA_CSV]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unknown_expiry_exit_2(self):
        code, _, err = run_cli("density", GAMMA_CSV, "--expiry", "7Y")
        assert code == 2
        assert b"7Y" in err

    @pytest.mark.parametrize("value", ["banana", "nan", "inf", "0", "-1", "1e-400"])
    def test_bad_radius_scale_exit_2(self, value):
        code, _, err = run_cli("density", GAMMA_CSV, "--radius-scale", value)
        assert code == 2
        assert b"--radius-scale" in err and b"Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            "represent", "fit-circle", "fit-ellipse", "density",
            "curvature", "complete-surface", "compare",
        ],
    )
    def test_subnormal_radius_scale_exit_2(self, command):
        # R = 1e-320 is finite and positive, but below the floor of 1e-60, under
        # which (ln K - ln K_atm) / R or 2/R could overflow: every subcommand
        # rejects it as an input error, in one line, before reading the surface.
        code, out, err = run_cli(command, GAMMA_CSV, "--radius-scale", "1e-320")
        assert code == 2 and out == b"", err
        assert err == (
            b"smilegeo: --radius-scale must be a finite number >= 1e-60 or 'auto', got '1e-320'\n"
        )

    @pytest.mark.parametrize("radius", ["1e-60", "1e300"])
    @pytest.mark.parametrize("method", ["circle", "ellipse"])
    @pytest.mark.parametrize("surface", [GAMMA_CSV, CIRCLE_CSV], ids=["gamma", "circle"])
    def test_all_rows_failed_svg(self, surface, method, radius):
        # At these R every row fails: the SVG keeps its axes and draws no
        # series, and each row is named once, as in the CSV and JSON runs.
        code, out, err = run_cli(
            "complete-surface", surface, "--method", method, "--radius-scale", radius,
            "--output-format", "svg",
        )
        assert code == 0, err
        assert b"Traceback" not in err
        assert out.startswith(b"<?xml") and out.endswith(b"</svg>\n")
        assert b"<line " in out and b"<polyline" not in out
        expiries = [row.expiry_label for row in parse_surface(pathlib.Path(surface).read_bytes())]
        named = [line.split("'")[1] for line in err.decode().splitlines()]
        assert named == expiries

    def test_usage_error_and_help_return_codes(self):
        # In process, argparse's exits come back as main's return value.
        from smilegeo import cli

        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["represent", GAMMA_CSV, "--radius-scale", "-inf"]) == 2
        assert "expected one argument" in err.getvalue()
        assert err.getvalue() == (
            "smilegeo: argument --radius-scale: expected one argument"
            " (see smilegeo --help)\n"
        )
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["--help"]) == 0
        assert out.getvalue().startswith("usage: smilegeo")

    def test_one_parser_for_every_subcommand(self):
        # One parser: the subcommand is its first positional, and each flag's
        # choices come from the names the library defines.
        from smilegeo import cli
        from smilegeo.surface import METHODS

        parser = cli._build_parser()
        assert parser._subparsers is None
        by_dest = {action.dest: action for action in parser._actions}
        assert by_dest["command"].choices == cli.COMMANDS
        assert by_dest["delta_convention"].choices == [c.value for c in DeltaConvention]
        assert by_dest["method"].choices == METHODS
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["nope", GAMMA_CSV]) == 2
        assert err.getvalue() == (
            "smilegeo: argument command: invalid choice: 'nope' (choose from "
            + ", ".join(repr(c) for c in cli.COMMANDS) + ") (see smilegeo --help)\n"
        )

    def test_numeric_failure_exit_3(self, tmp_path):
        # An inconsistent middle quote makes the circle inadmissible.
        from smilegeo.surface import CSV_HEADER

        bad = tmp_path / "weird.csv"
        bad.write_text(
            CSV_HEADER + "\n1Y,1.0,3.4,0.015,0.005,,,0.09,,0.6,,0.09,,\n"
        )
        code, _, err = run_cli("fit-circle", str(bad))
        assert code == 3, err

    def test_determinism_end_to_end(self):
        one = run_cli("compare", GAMMA_CSV, "--method", "vanna-volga")
        two = run_cli("compare", GAMMA_CSV, "--method", "vanna-volga")
        assert one == two

    @pytest.mark.parametrize(
        "points", ["1", "0", "-5", "abc"], ids=["flag-1", "flag-0", "flag-neg5", "flag-abc"]
    )
    def test_bad_density_grid_points_exit_2(self, capsys, points):
        from smilegeo import cli

        code = cli.main(["density", GAMMA_CSV, "--grid-points", points])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "--grid-points" in err

    def test_curvature_grid_points_negative_exit_2_short_exit_3(self, capsys):
        from smilegeo import cli

        assert cli.main(["curvature", GAMMA_CSV, "--grid-points", "-5"]) == 2
        assert "--grid-points" in capsys.readouterr().err
        for points in ("0", "1", "8"):
            assert cli.main(["curvature", GAMMA_CSV, "--grid-points", points]) == 3
            assert "need at least 9 points" in capsys.readouterr().err

    def test_radius_scale_flag(self):
        code, out, _ = run_cli("fit-circle", GAMMA_CSV, "--radius-scale", "1.5")
        assert code == 0
        row = out.decode().strip().splitlines()[1].split(",")
        assert float(row[4]) == 1.5


ENTRY_COMMANDS = (
    "represent", "fit-circle", "fit-ellipse", "density", "curvature", "complete-surface", "compare",
)
ENTRY_ARGV = [
    [command, GAMMA_CSV, "--expiry", "1Y", "--output-format", fmt]
    for command in ENTRY_COMMANDS
    for fmt in ("csv", "json", "svg")
]


def cold_runs(argvs):
    """``run_cli`` of each argv, two processes at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda argv: run_cli(*argv), argvs))


def main_in_process(argv):
    """``cli.main(argv)`` here: (exit code, stdout bytes, stderr bytes)."""
    from smilegeo import cli

    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text.flush()
    return code, out.getvalue(), err.getvalue().encode()


class TestProcessEntry:
    def test_stdout_matches_main(self):
        got = cold_runs(ENTRY_ARGV)
        for argv, cold in zip(ENTRY_ARGV, got):
            assert cold == main_in_process(argv), argv
            assert cold[0] == 0 and cold[1], argv
        assert ENTRY_ARGV[9][0] == "density" and len(got[9][1]) > 8192  # past stdout's buffer

    def test_out_file_matches_main(self, tmp_path):
        # Each subcommand once, the formats in turn: a file is closed before
        # main returns, so only stdout hangs on the exit's flush.
        argvs = [ENTRY_ARGV[3 * i + i % 3] for i in range(len(ENTRY_COMMANDS))]
        paths = [tmp_path / f"cold-{i}" for i in range(len(argvs))]
        got = cold_runs([[*argv, "--out", str(path)] for argv, path in zip(argvs, paths)])
        for argv, path, (code, out, err) in zip(argvs, paths, got):
            warm = tmp_path / "warm"
            assert (code, out, err) == main_in_process([*argv, "--out", str(warm)]), argv
            assert code == 0 and path.read_bytes() == warm.read_bytes(), argv

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["represent", GAMMA_CSV, "--expiry", "7Y"], 2),
            (["curvature", GAMMA_CSV, "--expiry", "1Y", "--grid-points", "8"], 3),
        ],
    )
    def test_error_exit_matches_main(self, argv, code):
        cold = run_cli(*argv)
        assert cold == main_in_process(argv)
        assert cold[0] == code and cold[1] == b""
        assert cold[2].startswith(b"smilegeo: ") and cold[2].count(b"\n") == 1, cold[2]

    @pytest.mark.parametrize("command", ["represent", "density"])  # within and past the buffer
    def test_closed_reader_exits_0_quietly(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            assert run_cli(command, GAMMA_CSV, stdout=write_end) == (0, None, b"")
        finally:
            os.close(write_end)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_full_device_exit_2(self):
        # represent's output waits in stdout's buffer until main's flush.
        with open("/dev/full", "wb") as full:
            code, _, err = run_cli("represent", GAMMA_CSV, stdout=full)
        assert code == 2
        assert err == b"smilegeo: [Errno 28] No space left on device\n"

    def test_escaping_exception_takes_the_normal_exit(self):
        probe = "from smilegeo import cli\ncli.run = lambda argv: 1 // 0\ncli.console_entry()\n"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=BUFFERED_ENV)
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"Traceback") and b"ZeroDivisionError" in proc.stderr

    def test_console_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        from smilegeo import cli

        root = pathlib.Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["smilegeo"]
        module, _, name = target.partition(":")
        script = getattr(importlib.import_module(module), name)
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        (call,) = [node.value for node in block.body]
        assert isinstance(call, ast.Call) and not call.args
        assert getattr(cli, call.func.id) is script is cli.console_entry


SHIPPED_ROWS = [
    line.split(",")
    for path in (GAMMA_CSV, CIRCLE_CSV)
    for line in pathlib.Path(path).read_text().splitlines()[1:]
    if line
]
FUZZ_COMMANDS = [
    ["represent"],
    ["fit-circle"],
    ["fit-ellipse"],
    ["curvature"],
    ["density", "--method", "circle"],
    ["density", "--method", "ellipse"],
    ["density", "--method", "vanna-volga", "--vv-variant", "market"],
    ["density", "--method", "vanna-volga", "--vv-variant", "first"],
    ["complete-surface", "--method", "ellipse"],
    ["compare", "--method", "circle"],
    ["compare", "--method", "vanna-volga", "--vv-variant", "first"],
]
# Whole field values at the ends of the float range, zero of either sign.
FUZZ_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308]
FUZZ_RADIUS = st.one_of(
    st.just("auto"),
    st.floats(min_value=1e-4, max_value=1e4).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e-400"]),
    st.floats(max_value=-1e-300, allow_nan=False).map(repr),
    st.floats(min_value=5e-324, max_value=2.2e-308).map(repr),
)


MULTI_ROW_COMMANDS = [
    ["complete-surface", "--method", "circle"],
    ["complete-surface", "--method", "ellipse"],
    ["complete-surface", "--method", "vanna-volga", "--vv-variant", "first"],
    ["compare", "--method", "ellipse"],
    ["compare", "--method", "vanna-volga", "--vv-variant", "market"],
]
# Edits that make any shipped row fail: a vanishing 25C vol fails every
# method; a middle quote far above its wings fails all but first-order
# vanna-volga.
FAILING_EDITS = [
    (("d25c", "1e-300"),),
    (("d25p", "0.09"), ("atm", "0.6"), ("d25c", "0.09")),
]


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        row=st.sampled_from(SHIPPED_ROWS),
        factors=st.dictionaries(
            st.integers(min_value=1, max_value=13),
            st.one_of(st.just(-1.0), st.floats(min_value=0.2, max_value=10.0)),
            max_size=3,
        ),
        values=st.dictionaries(
            st.integers(min_value=1, max_value=13), st.sampled_from(FUZZ_VALUES), max_size=2
        ),
        command=st.sampled_from(FUZZ_COMMANDS),
        convention=st.sampled_from(["spot-pips", "forward-n"]),
        radius=FUZZ_RADIUS,
        one_token=st.booleans(),
    )
    @example(  # e^{-qT} underflowed to 0, and spot-pips divided by it
        row=SHIPPED_ROWS[0], factors={}, values={3: 1e300, 4: 1e300}, command=["represent"],
        convention="spot-pips", radius="auto", one_token=False,
    )
    def test_exit_code_documented_and_output_finite(
        self, row, factors, values, command, convention, radius, one_token
    ):
        # One-row surfaces from shipped rows, up to three fields scaled by 0.2
        # to 10 or sign-flipped and up to two set to a value of FUZZ_VALUES:
        # every run exits 0, 2 or 3, exit-0 output is finite, and any other
        # exit writes one "smilegeo: " line to stderr.  The radius goes as
        # "--radius-scale=VALUE" or as two tokens, where argparse reads a
        # value such as "-inf" as an option.
        from smilegeo import cli
        from smilegeo.surface import CSV_HEADER

        fields = [
            row[0],
            *(repr(values.get(i, float(v) * factors.get(i, 1.0))) for i, v in enumerate(row) if i),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            surface, out = pathlib.Path(tmp, "s.csv"), pathlib.Path(tmp, "out.csv")
            surface.write_text(CSV_HEADER + "\n" + ",".join(fields) + "\n")
            radius_args = [f"--radius-scale={radius}"] if one_token else ["--radius-scale", radius]
            argv = [
                *command, str(surface), "--delta-convention", convention,
                *radius_args, "--grid-points", "201", "--out", str(out),
            ]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            assert code in (0, 2, 3), argv
            if code == 0:
                text = out.read_text().lower()
                assert "nan" not in text and "inf" not in text, argv
            else:
                lines = err.getvalue().splitlines(keepends=True)
                assert len(lines) == 1 and lines[0].startswith("smilegeo: "), (argv, lines)
                assert lines[0].endswith("\n"), (argv, lines)

    @settings(max_examples=60, deadline=None)
    @given(
        good=st.lists(
            st.integers(min_value=0, max_value=len(SHIPPED_ROWS) - 1),
            min_size=1, max_size=2, unique=True,
        ),
        bad=st.integers(min_value=0, max_value=len(SHIPPED_ROWS) - 1),
        edits=st.sampled_from(FAILING_EDITS),
        position=st.integers(min_value=0, max_value=2),
        command=st.sampled_from(MULTI_ROW_COMMANDS),
        convention=st.sampled_from(["spot-pips", "forward-n"]),
    )
    def test_failed_row_among_good_rows(self, good, bad, edits, position, command, convention):
        # Two- and three-row surfaces of shipped rows, one edited to fail: the
        # run exits 0, the failed row is blank, the good rows keep the output
        # they give alone, and stderr is one line naming the failed expiry.
        assume("first" not in command or edits == FAILING_EDITS[0])
        from smilegeo import cli
        from smilegeo.surface import CSV_HEADER

        def run(lines):
            with tempfile.TemporaryDirectory() as tmp:
                surface, out = pathlib.Path(tmp, "s.csv"), pathlib.Path(tmp, "out.csv")
                surface.write_text(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
                argv = [*command, str(surface), "--delta-convention", convention, "--out", str(out)]
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                return code, out.read_text().splitlines(), err.getvalue()

        lines = [",".join([f"R{i}", *SHIPPED_ROWS[i][1:]]) for i in good]
        failing = edit_row(",".join(["BAD", *SHIPPED_ROWS[bad][1:]]), edits)
        code, out, err = run(lines[:position] + [failing] + lines[position:])
        assert code == 0
        assert err.startswith("smilegeo: expiry 'BAD' failed: ") and err.count("\n") == 1, err
        blank = out.pop(1 + min(position, len(lines))).split(",")
        assert blank[0] == "BAD" and set(blank[1:]) == {""}
        assert run(lines) == (0, out, "")


class TestDocsFidelity:
    def test_readme_quick_start_runs(self):
        import smilegeo as sg

        dist = sg.Gamma(kappa=5.12, theta=0.64)
        report = sg.distribution_report(dist)
        assert report.kl_circle.kl_nats < report.kl_vanna_volga.kl_nats
        assert report.margin > 0.0

        smile = sg.smile_from_distribution(dist, sg.market_state_for(dist))
        sg.represent(smile)
        fixed_r = sg.represent(smile, sg.context_for_smile(smile, radius_scale=2.5))
        assert fixed_r.context.radius_scale == 2.5
        circle = sg.fit_circle_to_smile(smile)
        completed = sg.smile_from_shape(
            circle, sg.context_for_smile(smile), k_lo=smile.k_lo, k_hi=smile.k_hi
        )
        density = sg.density_from_smile(completed, completed.default_grid())
        assert len(density.strikes) == 2001
        assert not np.any(density.values < 0.0)

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smilegeo.cli", "--help"], capture_output=True
        )
        assert proc.returncode == 0
        for sub in ("represent", "fit-circle", "density", "compare"):
            assert sub.encode() in proc.stdout
