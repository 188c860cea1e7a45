"""Geometric representation of implied-volatility smiles.

Smiles map to polar-plane curves (strike -> stereographic angle, vol ->
radial excess over the scale R); log-normal distributions land on circles
centred at the origin, and near-log-normal ones on translated circles.
Fitted circles and ellipses invert back to smiles and risk-neutral
densities, with vanna-volga as the three-quote comparison baseline.
"""
from .analysis import (
    CurvatureProfile,
    DivergenceReport,
    best_lognormal,
    curvature_profile,
    euclidean_curvature,
    kl_divergence,
    similarity_curvature,
)
from .bsm import (
    DeltaConvention,
    MarketState,
    OptionSide,
    atm_rn_lognormal,
    bsm_price,
    d1_d2,
    d1_d2_identity_residual,
    strike_for_target_nd1,
)
from .distributions import (
    DensityCurve,
    Distribution,
    Gamma,
    LogNormal,
    Normal,
    StudentT,
    Uniform,
    density_curve,
    support_transform_exp,
)
from .emit import RepresentationScene, TableArtifact
from .errors import (
    CollinearPoints,
    CurveTooShort,
    DegenerateConfiguration,
    DegenerateMass,
    DegenerateTenor,
    DisjointSupport,
    DomainTooNarrow,
    InconsistentForward,
    InvalidInput,
    MissingAnchor,
    NoConvergence,
    NonFiniteDensity,
    NonpositiveVol,
    NotAnEllipse,
    OriginOutsideShape,
    ParseError,
    PriceOutOfBand,
    SmileGeoError,
    TargetOutsideDomain,
)
from .fitting import fit_circle_to_smile, fit_ellipse_to_smile
from .georep import (
    RepresentationCurve,
    ReprContext,
    context_for_smile,
    flat_context,
    represent,
    smile_from_shape,
    stereographic_point,
    strike_to_x,
)
from .shapes import CircleShape, ConicShape, circumcircle, conic_through_5, transform_circle
from .smile import (
    DeltaAnchor,
    GridSpec,
    SmileCurve,
    density_from_smile,
    flat_smile,
    log_strike_density,
    nonnegativity_margin,
    smile_from_distribution,
    strike_for_delta,
)
from .surface import (
    DiscrepancyTable,
    SurfaceQuoteRow,
    complete_expiry,
    discrepancy_table,
    parse_surface,
    synthetic_circle_surface,
    synthetic_gamma_surface,
)
from .vanna_volga import ThreeQuoteSmile, vv_smile
from .workflows import DistributionReport, distribution_report, market_state_for

__version__ = "0.1.0"
