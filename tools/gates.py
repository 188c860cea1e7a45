"""Run both byte gates of this checkout against a git revision.

Usage: python3 tools/gates.py REV

REV is checked out as a temporary detached ``git worktree``.  This
checkout's ``tools/cli_outputs.py`` and ``tools/report_outputs.py`` then
write their outputs from REV's ``src/`` and from this working tree's
``src/`` (uncommitted edits included), so both sides are written by the
same copy of each tool.  Each gate's ``--compare`` summary is printed, then
one line per gate saying whether the outputs are equal byte for byte.
Exits 0 when both gates are equal, 1 when either differs, and 2 when REV
cannot be checked out or a tool fails.  The worktree and the outputs are
removed afterwards.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _tool(name: str, *args) -> str:
    """Output of ``tools/NAME`` run without writing bytecode; raises on a non-zero exit."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(TOOLS / name), *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def _same_tree(a: Path, b: Path) -> bool:
    """Whether both directories hold the same file names with the same bytes."""
    files = [{p.relative_to(d) for p in d.rglob("*") if p.is_file()} for d in (a, b)]
    return files[0] == files[1] and all(
        (a / rel).read_bytes() == (b / rel).read_bytes() for rel in files[0]
    )


def gates(rev_src: Path, out: Path) -> bool:
    """Run both gates on ``rev_src`` and this tree's ``src/``; print; True if both are equal."""
    sides = {"rev": rev_src, "tree": ROOT / "src"}
    for tag, src in sides.items():
        _tool("cli_outputs.py", src, out / f"cli-{tag}")
        _tool("report_outputs.py", src, out / f"report-{tag}.json")
    cli_a, cli_b = out / "cli-rev", out / "cli-tree"
    report_a, report_b = out / "report-rev.json", out / "report-tree.json"
    print("== tools/cli_outputs.py --compare REV TREE")
    print(_tool("cli_outputs.py", "--compare", cli_a, cli_b), end="")
    print("== tools/report_outputs.py --compare REV TREE")
    print(_tool("report_outputs.py", "--compare", report_a, report_b), end="")
    cli_same = _same_tree(cli_a, cli_b)
    report_same = report_a.read_bytes() == report_b.read_bytes()
    print(f"cli gate: {'equal' if cli_same else 'DIFFERS'}")
    print(f"report gate: {'equal' if report_same else 'DIFFERS'}")
    return cli_same and report_same


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="smilegeo-gates-") as tmp:
        tree = Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT), "worktree"]
        try:
            subprocess.run([*git, "add", "--detach", "--quiet", str(tree), argv[0]], check=True)
        except subprocess.CalledProcessError:
            return 2
        try:
            return 0 if gates(tree / "src", Path(tmp)) else 1
        except subprocess.CalledProcessError as exc:
            print(f"{' '.join(exc.cmd)} exited {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
            return 2
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=False)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
