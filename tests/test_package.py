"""The package namespace: lazy, with the same public names in the same homes."""
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import smilegeo

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# Every public name of the package, by the module that defines it.  The same
# 81 names the package has exported since its import statements were eager.
HOMES = {
    "analysis": """CurvatureProfile DivergenceReport best_lognormal curvature_profile
        euclidean_curvature kl_divergence similarity_curvature""",
    "bsm": """DeltaConvention MarketState OptionSide atm_rn_lognormal bsm_price d1_d2
        d1_d2_identity_residual strike_for_target_nd1""",
    "distributions": """DensityCurve Distribution Gamma LogNormal Normal StudentT Uniform
        density_curve support_transform_exp""",
    "emit": "RepresentationScene TableArtifact",
    "errors": """CollinearPoints CurveTooShort DegenerateConfiguration DegenerateMass
        DegenerateTenor DisjointSupport DomainTooNarrow InconsistentForward InvalidInput
        MissingAnchor NoConvergence NonFiniteDensity NonpositiveVol NotAnEllipse
        OriginOutsideShape ParseError PriceOutOfBand SmileGeoError TargetOutsideDomain""",
    "fitting": "fit_circle_to_smile fit_ellipse_to_smile",
    "georep": """RepresentationCurve ReprContext context_for_smile flat_context represent
        smile_from_shape stereographic_point strike_to_x""",
    "shapes": "CircleShape ConicShape circumcircle conic_through_5 transform_circle",
    "smile": """DeltaAnchor GridSpec SmileCurve density_from_smile flat_smile
        log_strike_density nonnegativity_margin smile_from_distribution strike_for_delta""",
    "surface": """DiscrepancyTable SurfaceQuoteRow complete_expiry discrepancy_table
        parse_surface synthetic_circle_surface synthetic_gamma_surface""",
    "vanna_volga": "ThreeQuoteSmile vv_smile",
    "workflows": "DistributionReport distribution_report market_state_for",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}


def test_exports_are_the_same_names():
    assert len(HOME) == 81
    assert sorted(smilegeo.__all__) == sorted(HOME)
    assert smilegeo.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(HOME))
def test_name_resolves_to_its_home_object(name):
    home = importlib.import_module(f"smilegeo.{HOME[name]}")
    assert getattr(smilegeo, name) is getattr(home, name)


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
