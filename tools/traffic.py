"""List the statements of smilegeo that the benchmark's traffic never runs.

Usage: python3 tools/traffic.py SRC_ROOT [SEED]

SRC_ROOT is the directory that holds the ``smilegeo`` package (a checkout's
``src/``); it is imported in-process and traced with ``sys.settrace``, line
by line in the files under ``SRC_ROOT/smilegeo`` only, while three kinds of
traffic run:

- one round of the ``families`` workload of ``perfbench/``:
  ``Families(SEED).prepare()``, then ``run`` on each case;
- one round of the ``surfaces`` workload: ``setup(SEED, ...).prepare()`` on
  the shipped surfaces and the seeded ones, then ``run`` on each;
- every run of ``tools/cli_outputs.py`` through ``cli.main``, writing its
  outputs to a temporary directory.

SEED defaults to 7.  The workloads' modules are imported from ``perfbench/``
next to this tool, which it only reads.  A failed op of a workload is
traffic too and counts like any other.

For each function and method of each module it prints the statement lines
that no run executed, as ranges (docstrings are not statements here).  A
compound statement counts as run when its header line ran; ``try`` and the
``else`` of a loop have no header of their own, so only their bodies count.
A function with no line run prints ``never called``.  The last line counts
the functions that ran in part and those never called.  A statement that no
traffic reaches is code that only tests keep alive, or a path to look at.
The whole trace takes about 40 s on 2 cores.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import cli_outputs

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = (
    ROOT / "data" / "synthetic_circle_surface.csv",
    ROOT / "data" / "synthetic_gamma_surface.csv",
)


def _statements(body):
    """The statements of a block, descending into compound ones, but not
    into nested functions and classes, which are reported on their own."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body)


def _span(node) -> range:
    """The lines whose execution means ``node`` ran: a simple statement's
    whole extent, or a compound statement's header up to its body."""
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if body else node.end_lineno
    return range(node.lineno, max(end, node.lineno) + 1)


def _is_docstring(node, parent_body) -> bool:
    return (
        node is parent_body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def functions(path: Path):
    """(qualified name, [(first line, span)] of its statements) per function."""
    tree = ast.parse(path.read_text())

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                name = f"{prefix}{node.name}"
                stmts = [
                    (s.lineno, _span(s))
                    for s in _statements(node.body)
                    if not isinstance(s, ast.Try) and not _is_docstring(s, node.body)
                ]
                yield name, stmts
                yield from visit(node.body, f"{name}.")

    yield from visit(tree.body, "")


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def trace(src_pkg: Path, work) -> dict[str, set[int]]:
    """The lines run in each file under ``src_pkg`` while ``work()`` runs."""
    prefix = str(src_pkg) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    sys.settrace(on_call)
    try:
        work()
    finally:
        sys.settrace(None)
    return seen


def traffic(seed: int) -> None:
    """One round of each workload, then every CLI run."""
    import families
    import surfaces
    from smilegeo import SmileGeoError, cli

    for module, workload in (
        (families, families.Families(seed)),
        (surfaces, surfaces.setup(seed, SHIPPED, None)),
    ):
        for case in workload.prepare():
            try:
                workload.run(case)
            except SmileGeoError:
                pass
        print(f"traced one round of {module.__name__}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        count = 0
        for rel, args in cli_outputs.runs():
            target = Path(tmp) / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main([*args, "--out", str(target)])
            count += 1
    print(f"traced {count} CLI runs", file=sys.stderr)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src_root = Path(argv[0]).resolve()
    seed = int(argv[1]) if len(argv) == 2 else 7
    src_pkg = src_root / "smilegeo"
    sys.path[:0] = [str(src_root), str(ROOT / "perfbench")]
    seen = trace(src_pkg, lambda: traffic(seed))
    partial = never = 0
    for path in sorted(src_pkg.glob("*.py")):
        ran = seen.get(str(path), set())
        for name, stmts in functions(path):
            missed = sorted(first for first, span in stmts if ran.isdisjoint(span))
            if not missed:
                continue
            where = f"{path.stem}.{name}"
            if len(missed) == len(stmts):
                never += 1
                print(f"{where}: never called (lines {_ranges(missed)})")
            else:
                partial += 1
                print(f"{where}: {_ranges(missed)}")
    print(f"{partial} functions ran in part, {never} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
