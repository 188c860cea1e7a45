"""cli workload: one cold ``python -m smilegeo.cli`` process per op.

A round runs all seven subcommands on both shipped surface files, one after
another, with JSON, SVG and CSV outputs.  The seed picks the expiry, the
completion method and the vanna-volga variant of each invocation and the
order of the round.  Import is most of each invocation, so this is the one
workload where cold start shows.
"""
from __future__ import annotations

import csv
import importlib
import io
import json
import math
import os
import shutil
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

import calibration

cli = importlib.import_module("smilegeo.cli")

SUBCOMMANDS = (
    # (subcommand, output format, takes --method)
    ("represent", "csv", False),
    ("fit-circle", "svg", False),
    ("fit-ellipse", "json", False),
    ("density", "csv", True),
    ("curvature", "json", False),
    ("complete-surface", "csv", True),
    ("compare", "json", True),
)
METHODS = ("circle", "ellipse", "vanna-volga")
VV_VARIANTS = ("market", "first")
ANCHOR_COLUMNS = ("25P", "ATM", "25C")
DIGITS_TOL = 5e-10  # relative, numbers printed at 10 significant digits


class CliFailed(Exception):
    """A cold invocation exited with a non-zero code."""


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    subcommand: str
    fmt: str
    quotes: dict  # expiry -> {label: quoted vol}, read here from the input file


def _read_quotes(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = {"d25p": "25P", "atm": "ATM", "d25c": "25C"}
    return {r["expiry"]: {lab: float(r[f]) for f, lab in fields.items()} for r in rows}


class Cli:
    min_rounds = 2  # the second round checks that outputs repeat byte for byte
    reference = calibration.ReferenceProcess  # cold processes, calibrated alike

    def __init__(self, seed: int, shipped, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        plan = []
        for path in shipped:
            quotes = _read_quotes(path)
            for sub, fmt, with_method in SUBCOMMANDS:
                argv = [sub, str(path), "--output-format", fmt,
                        "--expiry", str(rng.choice(sorted(quotes)))]
                if with_method:
                    argv += ["--method", str(rng.choice(METHODS)),
                             "--vv-variant", str(rng.choice(VV_VARIANTS))]
                plan.append(Invocation(f"{path.stem}-{sub}", tuple(argv), sub, fmt, quotes))
        self.plan = [plan[i] for i in rng.permutation(len(plan))]
        self.first_output: dict[str, bytes] = {}
        self.child_maxrss_kib = 0

    def prepare(self) -> list[Invocation]:
        os.makedirs(self.workdir, exist_ok=True)
        return self.plan

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, inv: Invocation) -> bytes:
        """One cold process, spawned and reaped here so its own peak RSS is known."""
        out_path = os.path.join(self.workdir, inv.name + ".out")
        err_path = os.path.join(self.workdir, inv.name + ".err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        argv = [sys.executable, "-m", "smilegeo.cli", *inv.argv]
        pid = os.posix_spawn(
            sys.executable,
            argv,
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
            ],
        )
        _, status, usage = os.wait4(pid, 0)
        self.child_maxrss_kib = max(self.child_maxrss_kib, usage.ru_maxrss)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            with open(err_path, "rb") as fh:
                raise CliFailed(f"exit {code}: {fh.read().decode(errors='replace').strip()}")
        with open(out_path, "rb") as fh:
            return fh.read()

    def trace_op(self, inv: Invocation) -> bytes:
        """The same invocation through ``main(argv)`` in this process."""
        buf, err = io.BytesIO(), io.StringIO()
        text = io.TextIOWrapper(buf)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = text, err
        try:
            code = cli.main(list(inv.argv))
        finally:
            sys.stdout, sys.stderr = saved
        text.flush()
        if code != 0:
            raise CliFailed(f"exit {code}: {err.getvalue().strip()}")
        return buf.getvalue()

    def peak_rss_mib(self) -> float:
        return self.child_maxrss_kib / 1024.0

    def check(self, inv: Invocation, out: bytes) -> list[str]:
        problems = [f"{inv.name}: {p}" for p in output_problems(inv, out)]
        first = self.first_output.setdefault(inv.name, out)
        if out != first:
            problems.append(f"{inv.name}: output differs from the first run of the same input")
        return problems


def setup(seed: int, shipped, workdir) -> Cli:
    return Cli(seed, shipped, workdir)


def _number(cell) -> bool:
    try:
        return math.isfinite(float(cell))
    except (TypeError, ValueError):
        return False


def output_problems(inv: Invocation, out: bytes) -> list[str]:
    """Whether the bytes are well-formed for their format and consistent."""
    if inv.fmt == "svg":
        try:
            root = ET.fromstring(out)
        except ET.ParseError as exc:
            return [f"SVG is not well-formed XML: {exc}"]
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            return [f"SVG root is {root.tag}"]
        return []
    if inv.fmt == "json":
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return [f"JSON does not parse: {exc}"]
        if doc.get("schema") != "smilegeo/1":
            return [f"JSON schema {doc.get('schema')!r}"]
        header, rows = doc.get("columns"), doc.get("rows")
    else:
        table = list(csv.reader(io.StringIO(out.decode("utf-8"))))
        header, rows = (table[0], table[1:]) if table else (None, [])
    if not header or not rows:
        return ["empty table"]
    problems = []
    for row in rows:
        for col, cell in zip(header, row):
            if col not in ("expiry", "label") and cell not in ("", None) and not _number(cell):
                problems.append(f"{col} cell {cell!r} is not a finite number")
    if inv.subcommand in ("complete-surface", "compare"):
        # Anchor columns: the quoted vols (complete-surface) or zero (compare).
        for row in rows:
            quotes = inv.quotes.get(row[0])
            if quotes is None:
                continue
            for lab in ANCHOR_COLUMNS:
                got = float(row[header.index(lab)])
                want = quotes[lab] if inv.subcommand == "complete-surface" else 0.0
                if abs(got - want) > DIGITS_TOL * abs(want):
                    problems.append(f"{row[0]} {lab}: {got!r}, want {want!r}")
    return problems
