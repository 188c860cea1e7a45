"""The package namespace: lazy, with the same public names in the same homes,
each read by the pipeline outside the tests, and each option set there."""
import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import smilegeo

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# Every public name of the package, by the module that defines it: 76 names,
# each with a reader in READERS below.
HOMES = {
    "analysis": """CurvatureProfile DivergenceReport best_lognormal curvature_profile
        euclidean_curvature kl_divergence similarity_curvature""",
    "bsm": """DeltaConvention MarketState OptionSide atm_rn_lognormal bsm_price d1_d2
        d1_d2_identity_residual strike_for_target_nd1""",
    "distributions": "Distribution Gamma LogNormal Normal StudentT Uniform density_curve",
    "emit": "RepresentationScene TableArtifact",
    "errors": """CollinearPoints CurveTooShort DegenerateConfiguration DegenerateMass
        DegenerateTenor DisjointSupport DomainTooNarrow InconsistentForward InvalidInput
        MissingAnchor NoConvergence NonFiniteDensity NonpositiveVol NotAnEllipse
        OriginOutsideShape ParseError PriceOutOfBand SmileGeoError TargetOutsideDomain""",
    "fitting": "fit_circle_to_smile",
    "georep": """RepresentationCurve ReprContext context_for_smile flat_context represent
        smile_from_shape""",
    "shapes": "CircleShape ConicShape circumcircle conic_through_5 transform_circle",
    "smile": """DeltaAnchor DensityCurve GridSpec SmileCurve density_from_smile flat_smile
        nonnegativity_margin smile_from_distribution strike_for_delta""",
    "surface": """DiscrepancyTable SurfaceQuoteRow complete_expiry discrepancy_table
        parse_surface synthetic_circle_surface synthetic_gamma_surface""",
    "vanna_volga": "ThreeQuoteSmile vv_smile",
    "workflows": "DistributionReport distribution_report market_state_for",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}

# Where the pipeline reads each public name outside the tests, by reader: the
# README's quick start, the acceptance suite (claims c01-c10), the CLI, the
# benchmark (``perfbench/tracing.py`` reads the names in its ``WRAPPED``),
# another module of the package, or, for a result type, the public function
# that returns it.  A name whose reader stops naming it fails here: give it
# another reader, or delete it.
QUICK_START = "README.md"
TRACING = "perfbench/tracing.py"
READERS = {
    QUICK_START: """CircleShape Gamma GridSpec MarketState RepresentationCurve
        context_for_smile density_from_smile distribution_report fit_circle_to_smile
        market_state_for represent smile_from_distribution smile_from_shape""",
    "tests/test_acceptance.py": """CollinearPoints DegenerateConfiguration DeltaConvention
        LogNormal Normal OptionSide ReprContext StudentT Uniform bsm_price circumcircle
        conic_through_5 d1_d2 d1_d2_identity_residual density_curve discrepancy_table
        euclidean_curvature flat_smile kl_divergence parse_surface similarity_curvature
        synthetic_circle_surface synthetic_gamma_surface transform_circle""",
    "src/smilegeo/cli.py": """DomainTooNarrow ParseError RepresentationScene SmileGeoError
        TableArtifact complete_expiry curvature_profile""",
    "perfbench/families.py": "Distribution best_lognormal",
    TRACING: "nonnegativity_margin strike_for_delta",
    "src/smilegeo/analysis.py": "CurveTooShort DegenerateMass DensityCurve DisjointSupport",
    "src/smilegeo/bsm.py": "DegenerateTenor NoConvergence PriceOutOfBand TargetOutsideDomain",
    "src/smilegeo/distributions.py": "InconsistentForward",
    "src/smilegeo/emit.py": "CurvatureProfile DiscrepancyTable",
    "src/smilegeo/fitting.py": "ConicShape DeltaAnchor",
    "src/smilegeo/georep.py": "SmileCurve atm_rn_lognormal strike_for_target_nd1",
    "src/smilegeo/shapes.py": "NotAnEllipse OriginOutsideShape",
    "src/smilegeo/smile.py": "InvalidInput NonFiniteDensity NonpositiveVol",
    "src/smilegeo/surface.py": "MissingAnchor ThreeQuoteSmile flat_context vv_smile",
    "src/smilegeo/workflows.py": "DivergenceReport",
    "distribution_report": "DistributionReport",
    "parse_surface": "SurfaceQuoteRow",
}
READER = {name: reader for reader, names in READERS.items() for name in names.split()}


def reader_text(reader: str) -> str:
    """The text in which ``reader`` names what it reads."""
    if reader in HOME:
        return inspect.getsource(getattr(smilegeo, reader))
    text = (ROOT / reader).read_text()
    if reader == QUICK_START:
        return text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    if reader == TRACING:
        (wrapped,) = (
            node for node in ast.parse(text).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "WRAPPED"
        )
        return ast.get_source_segment(text, wrapped)
    return text


def test_every_name_has_one_reader():
    names = [name for names in READERS.values() for name in names.split()]
    assert len(names) == len(READER)
    assert sorted(READER) == sorted(smilegeo.__all__)


@pytest.mark.parametrize("name", sorted(HOME))
def test_reader_names_its_name(name):
    reader = READER[name]
    assert reader not in (name, f"src/smilegeo/{HOME[name]}.py", "src/smilegeo/__init__.py")
    assert re.search(rf"\b{name}\b", reader_text(reader)), (name, reader)


# Where the pipeline sets each defaulted parameter of an exported function and
# each defaulted field of an exported dataclass, by setter: a file outside the
# tests, one of the two claim suites (the paper's claims and its symmetries),
# or, for a result type's field, the public function that builds it.  The
# setter must pass the option to a call of its owner, by keyword or by
# position.  A new option fails here until it is listed with a setter; an
# option whose setter stops setting it fails too: give it another, or delete it.
CLAIM_SUITES = ("tests/test_acceptance.py", "tests/test_symmetries.py")
OPTIONS = {
    "src/smilegeo/cli.py": """complete_expiry.method complete_expiry.conv
        complete_expiry.radius_scale complete_expiry.vv_variant discrepancy_table.method
        discrepancy_table.conv discrepancy_table.radius_scale discrepancy_table.vv_variant
        curvature_profile.circle represent.strikes RepresentationScene.circle
        RepresentationScene.anchor_points""",
    QUICK_START: "context_for_smile.radius_scale represent.ctx",
    "tests/test_acceptance.py": """bsm_price.side density_from_smile.mode
        kl_divergence.clamp_floor GridSpec.width_mult""",
    "tests/test_symmetries.py": "market_state_for.dom_rate market_state_for.for_rate",
    "src/smilegeo/surface.py": "GridSpec.n smile_from_distribution.grid vv_smile.variant",
    "src/smilegeo/georep.py": "SmileCurve.label",
    "curvature_profile": "CurvatureProfile.n_minus_d1 CurvatureProfile.strikes",
    "discrepancy_table": "DiscrepancyTable.errors",
}
SETTER = {option: setter for setter, options in OPTIONS.items() for option in options.split()}


def defaulted_options() -> set[str]:
    """``name.option`` of every defaulted parameter or dataclass field of an export."""
    found = set()
    for name in smilegeo.__all__:
        obj = getattr(smilegeo, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            found |= {f"{name}.{p.name}" for p in params if p.default is not p.empty}
        elif dataclasses.is_dataclass(obj):
            unset = (dataclasses.MISSING, dataclasses.MISSING)
            found |= {
                f"{name}.{f.name}" for f in dataclasses.fields(obj)
                if f.init and (f.default, f.default_factory) != unset
            }
    return found


def sets_option(setter: str, owner: str, option: str) -> bool:
    """Whether the setter's code calls ``owner`` with ``option``, by keyword or position."""
    text = reader_text(setter)
    if setter == QUICK_START:
        text = text.split("```python", 1)[1].split("```", 1)[0]
    position = list(inspect.signature(getattr(smilegeo, owner)).parameters).index(option)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == owner and (
                len(node.args) > position or any(kw.arg == option for kw in node.keywords)
            ):
                return True
    return False


def test_every_option_has_one_setter():
    options = [option for options in OPTIONS.values() for option in options.split()]
    assert len(options) == len(SETTER)
    assert sorted(SETTER) == sorted(defaulted_options())


@pytest.mark.parametrize("option", sorted(SETTER))
def test_setter_sets_its_option(option):
    owner, name = option.split(".")
    setter = SETTER[option]
    assert setter not in (owner, f"src/smilegeo/{HOME[owner]}.py", "src/smilegeo/__init__.py")
    assert not setter.startswith("tests/") or setter in CLAIM_SUITES
    assert sets_option(setter, owner, name), (option, setter)


def test_exports_are_the_same_names():
    assert len(HOME) == 76
    assert sorted(smilegeo.__all__) == sorted(HOME)
    assert smilegeo.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_resolves_to_its_home_object(name):
    home = importlib.import_module(f"smilegeo.{HOME[name]}")
    assert getattr(smilegeo, name) is getattr(home, name)


def test_density_curve_is_one_class_in_both_modules():
    # Defined beside smile's density kernel, so the CLI's density and
    # curvature never load distributions, which re-exports it.
    import smilegeo.distributions
    import smilegeo.smile

    assert smilegeo.DensityCurve is smilegeo.distributions.DensityCurve is smilegeo.smile.DensityCurve


def test_dir_and_star_import_list_every_name():
    assert set(HOME) <= set(dir(smilegeo))
    assert "__version__" in dir(smilegeo)
    namespace = {}
    exec("from smilegeo import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(HOME)
    assert all(namespace[name] is getattr(smilegeo, name) for name in HOME)


@pytest.mark.parametrize("name", ["no_such_name", "circle_between", "polar_angle"])
def test_unknown_name_is_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(smilegeo, name)
    assert not hasattr(smilegeo, name)


def test_names_are_read_from_the_home_module_on_each_access(monkeypatch):
    # Nothing is cached in the package: a function replaced in its home
    # module is what the package hands out, and the original once restored.
    import smilegeo.georep as georep

    original = georep.represent
    monkeypatch.setattr(georep, "represent", lambda *a, **k: None)
    assert smilegeo.represent is georep.represent is not original
    monkeypatch.undo()
    assert smilegeo.represent is original
    assert "represent" not in vars(smilegeo)


def test_cold_package_import_loads_no_submodule():
    probe = "import sys, smilegeo; print(sorted(m for m in sys.modules if m.startswith('smilegeo.')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"
