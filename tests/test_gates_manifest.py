"""Both byte gates, regenerated from this checkout, against the checked-in manifest.

``tools/gates_manifest.json`` pins the sha256 of every output of
``tools/cli_outputs.py`` and of each ``tools/report_outputs.py`` case.  An
output that moves fails here with its name; a change that moves outputs on
purpose regenerates the manifest with ``python3 tools/manifest.py``.
"""
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("gates_manifest", ROOT / "tools" / "manifest.py")
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)


def test_outputs_match_manifest(tmp_path):
    expected = json.loads(manifest.MANIFEST.read_text())
    actual = manifest.generate(ROOT / "src", tmp_path)
    problems = manifest.differences(expected, actual)
    assert not problems, "\n".join(["outputs moved from tools/gates_manifest.json:", *problems])


def test_differences_name_versions_and_outputs():
    expected = {
        "versions": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"},
        "cli": {"a.csv": "0", "b.csv": "1", "gone.json": "2"},
        "report": {"gamma": "3"},
    }
    actual = {
        "versions": {"python": "3.11.7", "numpy": "2.5.0", "scipy": "1.17.1"},
        "cli": {"a.csv": "0", "b.csv": "9", "new.svg": "4"},
        "report": {"gamma": "3"},
    }
    assert manifest.differences(expected, expected) == []
    assert manifest.differences(expected, actual) == [
        "manifest made with python 3.11.7, numpy 2.4.6, scipy 1.17.1; "
        "this run has python 3.11.7, numpy 2.5.0, scipy 1.17.1",
        "cli gate, 1 differ: b.csv",
        "cli gate, 1 missing: gone.json",
        "cli gate, 1 new: new.svg",
    ]
