"""Pin the bytes of both byte gates in a checked-in manifest.

Usage: python3 tools/manifest.py    write tools/gates_manifest.json

Both gates run on this checkout's ``src/``, as subprocesses of the running
interpreter, side by side: ``tools/cli_outputs.py`` (every CLI subcommand
over the shipped surfaces) and ``tools/report_outputs.py`` (the
``distribution_report`` cases).  The manifest holds the sha256 of each CLI
output file and of ``exit_codes.txt``, by path under the output directory,
and of each report case's record, by case name, as compact JSON with sorted
keys.  It also records the Python, numpy and scipy versions it was made
with: a JSON output carries every bit of its numbers, so an upgrade of any
of them may move outputs, and a check under other versions fails naming
both sets.  ``tests/test_gates_manifest.py`` is the check: it regenerates
both gates and compares them with the manifest.

A change that moves outputs on purpose regenerates the manifest in the same
commit, so that the manifest's diff lists the outputs it moved.
"""
from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
MANIFEST = TOOLS / "gates_manifest.json"
SHOWN = 20  # differing outputs named in a failure, at most


def versions() -> dict[str, str]:
    """Python, numpy and scipy versions of the running interpreter."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(src: Path, work: Path) -> dict:
    """The manifest of ``src``'s outputs, with both gates written under ``work``."""
    cli_dir, report = work / "cli", work / "report.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    procs = [
        subprocess.Popen(
            [sys.executable, str(TOOLS / tool), str(src), str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for tool, out in (("cli_outputs.py", cli_dir), ("report_outputs.py", report))
    ]
    for proc in procs:
        err = proc.communicate()[1]
        if proc.returncode:
            raise RuntimeError(f"{' '.join(proc.args)} exited {proc.returncode}:\n{err.decode()}")
    cli = {
        path.relative_to(cli_dir).as_posix(): _sha256(path.read_bytes())
        for path in sorted(cli_dir.rglob("*"))
        if path.is_file()
    }
    cases = {
        name: _sha256(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
        for name, rec in json.loads(report.read_text()).items()
    }
    return {"versions": versions(), "cli": cli, "report": cases}


def differences(expected: dict, actual: dict) -> list[str]:
    """What differs between two manifests, one line per finding; empty when equal."""
    lines = []
    if expected["versions"] != actual["versions"]:
        made = ", ".join(f"{k} {v}" for k, v in expected["versions"].items())
        now = ", ".join(f"{k} {v}" for k, v in actual["versions"].items())
        lines.append(f"manifest made with {made}; this run has {now}")
    for gate in ("cli", "report"):
        want, got = expected[gate], actual[gate]
        moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
        for what, names in (
            ("differ", moved),
            ("missing", sorted(want.keys() - got.keys())),
            ("new", sorted(got.keys() - want.keys())),
        ):
            if names:
                more = f" and {len(names) - SHOWN} more" if len(names) > SHOWN else ""
                lines.append(f"{gate} gate, {len(names)} {what}: {', '.join(names[:SHOWN])}{more}")
    return lines


def main(argv) -> int:
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="smilegeo-manifest-") as tmp:
        actual = generate(ROOT / "src", Path(tmp))
    MANIFEST.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
    print(f"{len(actual['cli'])} CLI files and {len(actual['report'])} report cases "
          f"written to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
