"""Geometric representation of implied-volatility smiles.

Smiles map to polar-plane curves (strike -> stereographic angle, vol ->
radial excess over the scale R); log-normal distributions land on circles
centred at the origin, and near-log-normal ones on translated circles.
Fitted circles and ellipses invert back to smiles and risk-neutral
densities, with vanna-volga as the three-quote comparison baseline.

The namespace is lazy (PEP 562): importing the package imports no
submodule, and each name below imports its home module on first use, so a
CLI process loads only the modules its subcommand runs.
"""
import importlib

__version__ = "0.1.0"

_NAMES = {
    "analysis": (
        "CurvatureProfile", "DivergenceReport", "best_lognormal", "curvature_profile",
        "euclidean_curvature", "kl_divergence", "similarity_curvature",
    ),
    "bsm": (
        "DeltaConvention", "MarketState", "OptionSide", "atm_rn_lognormal", "bsm_price",
        "d1_d2", "d1_d2_identity_residual", "strike_for_target_nd1",
    ),
    "distributions": (
        "Distribution", "Gamma", "LogNormal", "Normal", "StudentT", "Uniform", "density_curve",
    ),
    "emit": ("RepresentationScene", "TableArtifact"),
    "errors": (
        "CollinearPoints", "CurveTooShort", "DegenerateConfiguration", "DegenerateMass",
        "DegenerateTenor", "DisjointSupport", "DomainTooNarrow", "InconsistentForward",
        "InvalidInput", "MissingAnchor", "NoConvergence", "NonFiniteDensity", "NonpositiveVol",
        "NotAnEllipse", "OriginOutsideShape", "ParseError", "PriceOutOfBand", "SmileGeoError",
        "TargetOutsideDomain",
    ),
    "fitting": ("fit_circle_to_smile",),
    "georep": (
        "RepresentationCurve", "ReprContext", "context_for_smile", "flat_context", "represent",
        "smile_from_shape",
    ),
    "shapes": ("CircleShape", "ConicShape", "circumcircle", "conic_through_5", "transform_circle"),
    "smile": (
        "DeltaAnchor", "DensityCurve", "GridSpec", "SmileCurve", "density_from_smile",
        "flat_smile", "nonnegativity_margin", "smile_from_distribution", "strike_for_delta",
    ),
    "surface": (
        "DiscrepancyTable", "SurfaceQuoteRow", "complete_expiry", "discrepancy_table",
        "parse_surface", "synthetic_circle_surface", "synthetic_gamma_surface",
    ),
    "vanna_volga": ("ThreeQuoteSmile", "vv_smile"),
    "workflows": ("DistributionReport", "distribution_report", "market_state_for"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Looked up in the home module on every access, never cached here: a
    # function replaced in its home module (a test's monkeypatch, a tracer)
    # is the one the package hands out, and stops being so once restored.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
