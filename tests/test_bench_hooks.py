"""The benchmark's traced run wraps library functions by name, and the benchmark
and the byte-gate tools read library names off module aliases; they must exist."""
import ast
import importlib
import pathlib
import types

import pytest

from smilegeo.bsm import DeltaConvention
from smilegeo.surface import complete_expiry, parse_surface

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
DATA = PERFBENCH.parent / "data"


def test_tracing_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    undo = []
    try:
        # A name in WRAPPED that the library no longer defines raises here.
        undo = tracing.install(tracing.Recorder())
    finally:
        tracing.uninstall(undo)
    assert len(undo) >= len(tracing.WRAPPED)
    for owner, key, orig in undo:
        assert vars(owner)[key] is orig, (owner, key)


def test_package_names_follow_tracing_and_its_undo(monkeypatch):
    # The package namespace reads each name from its home module, so a traced
    # round sees the wrapper through it too, and no wrapper outlives uninstall.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import smilegeo
    from smilegeo import georep

    original = smilegeo.represent
    undo = tracing.install(tracing.Recorder())
    try:
        assert smilegeo.represent is georep.represent is not original
    finally:
        tracing.uninstall(undo)
    assert smilegeo.represent is original
    assert not set(smilegeo.__all__) & set(vars(smilegeo))  # nothing cached


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_traced_cli_op_spans_its_renderer(monkeypatch, tmp_path, fmt):
    # The CLI must reach each renderer by its name in emit, where the traced
    # run swaps it; a renderer held elsewhere would time as cli.main's own.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from smilegeo import cli

    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        rec.start_op()
        code = cli.main([
            "fit-circle", str(DATA / "synthetic_gamma_surface.csv"),
            "--output-format", fmt, "--out", str(tmp_path / f"out.{fmt}"),
        ])
        rec.finish_op(code == 0)
    finally:
        tracing.uninstall(undo)
    assert code == 0
    names = {span[0] for span in rec.ops[0]}
    assert {"cli.main", f"emit.render_{fmt}"} <= names, names


# Module aliases the benchmark and the byte-gate tools bind to smilegeo.
BENCH_ALIASES = {"sg", "wf", "an", "sm", "sf", "em", "cli"}


def _smilegeo_bindings(tree: ast.AST) -> dict[str, str]:
    """Every name the file binds to a smilegeo module or name, with its dotted path.

    Covers ``import smilegeo as sg``, ``from smilegeo[.mod] import name`` and
    ``x = importlib.import_module("smilegeo.mod")``, at any depth.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "smilegeo" and a.asname:
                    out[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "smilegeo":
            for a in node.names:
                out[a.asname or a.name] = f"{node.module}.{a.name}"
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "import_module"
            and node.value.args
            and isinstance(node.value.args[0], ast.Constant)
            and str(node.value.args[0].value).split(".")[0] == "smilegeo"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.args[0].value
    return out


def _resolve(path: str):
    """The smilegeo module or module attribute at a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_bench_and_tools_read_only_names_the_library_defines():
    # A library name the benchmark or a byte-gate tool reads, deleted or
    # renamed, would break that script long before the script is next run.
    files = sorted(PERFBENCH.glob("*.py")) + sorted((PERFBENCH.parent / "tools").glob("*.py"))
    seen_aliases, missing, checked = set(), [], 0
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        bindings = _smilegeo_bindings(tree)
        for name, dotted in bindings.items():
            try:
                bound = _resolve(dotted)
            except (ImportError, AttributeError):
                missing.append(f"{path.name}: {dotted}")
                continue
            if not isinstance(bound, types.ModuleType):
                continue
            seen_aliases.add(name)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == name
                ):
                    checked += 1
                    if not hasattr(bound, node.attr):
                        missing.append(f"{path.name}:{node.lineno}: {name}.{node.attr}")
    assert not missing, missing
    assert BENCH_ALIASES <= seen_aliases, BENCH_ALIASES - seen_aliases
    assert checked >= len(BENCH_ALIASES)


@pytest.mark.parametrize(
    "method,variant,backend",
    [
        ("circle", "market", "circle"),
        ("ellipse", "market", "ellipse"),
        ("vanna-volga", "market", "vv_market"),
        ("vanna-volga", "first", "vv_first"),
    ],
)
def test_trace_backends_name_each_completion_label(monkeypatch, method, variant, backend):
    # The traced run files density and vol spans under BACKENDS[smile.label];
    # a renamed label would move them into trace.uncovered without a word.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    row = parse_surface((DATA / "synthetic_gamma_surface.csv").read_bytes())[8]
    done = complete_expiry(row, method, DeltaConvention.SPOT_PIPS, vv_variant=variant)
    assert tracing.BACKENDS[done.smile.label] == backend
