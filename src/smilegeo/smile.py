"""Two-way bridge between volatility smiles and risk-neutral densities.

A SmileCurve is an evaluable sigma(K) on a stated strike domain with two
read paths in ln K: ``vol_fn`` gives sigma alone (label-strike reads, the
sample that brackets delta solves) and ``jet_fn`` gives sigma with its exact
first and second ln-K derivatives in one evaluation (densities, Newton steps
of delta solves).  Densities follow from the jet through the closed-form
second strike derivative of the call price; the same bracket expression
decides non-negativity of the density.

Without a grid, ``smile_from_distribution`` widens the default one until its
end strikes bracket the ``ND1_WINDOW`` N(-d1) window, which also sets auto R
and the report's KL window, and builds the spline once.

Delta strikes come from ``strikes_for_deltas``: one safeguarded Newton
solve in ln K over every target of a smile at once, each target bracketed
from one sampled ``vol_fn`` read over the domain.  A distribution report
solves all of its targets (its centre, the ``ND1_WINDOW`` strikes and two
wing anchors) together; ``strike_for_delta`` is the one-target case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bsm import (
    IV_BRACKET_HI,
    IV_BRACKET_LO,
    SQRT_2PI,
    DeltaConvention,
    MarketState,
    _sweep_price,
    atm_rn_lognormal,
    d1_total,
    forward_log_moneyness,
    implied_vol_grid,
    ndtr,
    ndtri,
)
from .distributions import DensityCurve, Distribution
from .errors import DomainTooNarrow, InvalidInput, NoConvergence, NonpositiveVol, TargetOutsideDomain

DEFAULT_GRID_POINTS = 2001
GRID_DELTA_WINDOW = (0.005, 0.995)  # flat-proxy N(-d1) window a strike grid spans
GRID_EXTEND = 0.10  # share of the window's log-width added at each end
ND1_WINDOW = (0.01, 0.99)  # N(-d1) window a default smile covers: auto R and the KL window
MAX_GRID_WIDENINGS = 8
ADMISSIBILITY_POINTS = 513  # sweep of a closed-form smile's domain at construction
FD_STEP = 1e-3  # central-difference step in ln K of mode="fd"
DELTA_SAMPLES = 65  # vol reads over the domain that bracket the delta solves
DELTA_XTOL = 1e-15  # ln-K step that ends a delta solve, plus 4 eps |ln K|
DELTA_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)
_BRACKET_VOLS = np.array([IV_BRACKET_LO, IV_BRACKET_HI])


@dataclass(frozen=True)
class GridSpec:
    """Strike-grid recipe for building smiles from distributions.

    The grid spans the ``GRID_DELTA_WINDOW`` N(-d1) window of a flat-vol
    proxy at the at-the-money-forward vol, extended by ``GRID_EXTEND`` of its
    log-strike width at each end, then clipped to the distribution's strike
    bounds.  ``width_mult`` widens the proxy window for heavy-tailed cases.
    """

    n: int = DEFAULT_GRID_POINTS
    width_mult: float = 1.0

    def __post_init__(self):
        if self.n < 16:
            raise InvalidInput("grid needs at least 16 points")


@dataclass(frozen=True)
class DeltaAnchor:
    """A strike pinned by a delta target, with the smile vol there."""

    target: float
    strike: float
    vol: float
    convention: DeltaConvention = DeltaConvention.FORWARD_N


@dataclass(frozen=True)
class SmileCurve:
    """sigma(K) on [k_lo, k_hi] with exact log-strike derivatives.

    ``vol_fn`` maps ln K -> sigma.  ``jet_fn`` maps ln K -> (sigma,
    d sigma/d lnK, d^2 sigma/d lnK^2) in one evaluation (spline derivatives
    for grid-backed curves, chain-rule closed forms for shape-backed and
    vanna-volga ones); its sigma equals ``vol_fn``'s bit for bit.
    """

    market: MarketState
    k_lo: float
    k_hi: float
    vol_fn: Callable[[np.ndarray], np.ndarray]
    jet_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    label: str = "smile"

    def __post_init__(self):
        if not 0.0 < self.k_lo < self.k_hi:
            raise InvalidInput("need 0 < k_lo < k_hi")

    def vol(self, strike):
        """Implied volatility at the given strike(s); InvalidInput unless each is > 0."""
        strike = np.asarray(strike, dtype=float)
        # False for NaN too.  One strike takes a float compare: a numpy
        # reduction costs more than the read, and a surface reads ~1,000 scalars.
        if not (float(strike) > 0.0 if strike.ndim == 0 else (strike > 0.0).all()):
            raise InvalidInput(f"strike {float(strike[~(strike > 0.0)][0]):g} is not positive")
        out = self.vol_fn(np.log(strike))
        return float(out) if np.ndim(out) == 0 else out

    def default_grid(self, n: int = DEFAULT_GRID_POINTS) -> np.ndarray:
        """n log-uniform strikes spanning the domain, ends kept inside it."""
        return log_uniform_grid(self.k_lo, self.k_hi, n)


def log_uniform_grid(k_lo: float, k_hi: float, n: int) -> np.ndarray:
    """n log-uniform strikes from k_lo to k_hi, clipped to [k_lo, k_hi]."""
    grid = np.exp(np.linspace(math.log(k_lo), math.log(k_hi), n))
    # exp(log(k)) can land one ulp outside the ends.
    return np.clip(grid, k_lo, k_hi)


def require_positive_vol(vol_fn, k_lo: float, k_hi: float, what: str) -> None:
    """Sweep ``ADMISSIBILITY_POINTS`` log-uniform strikes of [k_lo, k_hi];
    NonpositiveVol unless every vol > 0.

    The test is ``not (vol > 0)``, so a NaN vol fails it too.
    """
    sweep = np.linspace(math.log(k_lo), math.log(k_hi), ADMISSIBILITY_POINTS)
    vols = vol_fn(sweep)
    if not np.all(vols > 0.0):
        k_bad = math.exp(float(sweep[int(np.argmin(vols))]))  # argmin: first NaN, else lowest
        raise NonpositiveVol(f"{what} implies vol <= 0 at strike {k_bad:.6g}")


def flat_smile(ms: MarketState, vol: float, k_lo: float | None = None, k_hi: float | None = None) -> SmileCurve:
    """A constant-vol smile (the log-normal case)."""
    if vol <= 0.0:
        raise InvalidInput("vol must be positive")
    if k_lo is None or k_hi is None:
        width = 6.0 * vol * math.sqrt(max(ms.tenor, 1e-12)) + 0.5
        fwd = ms.forward()
        k_lo = fwd * math.exp(-width) if k_lo is None else k_lo
        k_hi = fwd * math.exp(width) if k_hi is None else k_hi

    def vol_fn(lnk):
        return np.full_like(np.asarray(lnk, dtype=float), vol)

    def jet_fn(lnk):
        zero = np.zeros_like(np.asarray(lnk, dtype=float))
        return vol_fn(lnk), zero, zero

    return SmileCurve(
        market=ms, k_lo=k_lo, k_hi=k_hi, vol_fn=vol_fn, jet_fn=jet_fn, label=f"flat({vol:g})"
    )


def _priceable(dist: Distribution, ms: MarketState, ln_k: float) -> bool:
    """Whether the model price at e^{ln_k} sits strictly inside the vol bracket's band.

    Both band ends come from one solver sweep, whose prices are ``bsm_price``'s.
    """
    k = math.exp(ln_k)
    price = float(dist.call_price(ms, k))
    lo, hi = _sweep_price(
        forward_log_moneyness(ms, k),
        ms.df_dom() * k,
        _BRACKET_VOLS * math.sqrt(ms.tenor),
        ms.df_for() * ms.spot,
    )[0]
    # The payoff's cancellation noise grows with the strike, about eps K.
    slack = 1e-13 * max(1.0, abs(price), k)
    return price - lo > slack and hi - price > slack


def _shrink_to_priceable(
    dist: Distribution, ms: MarketState, ln_center: float, ln_edge: float
) -> float:
    """Pull an edge toward the centre until the price there is resolvable."""
    if _priceable(dist, ms, ln_edge):
        return ln_edge
    good, bad = ln_center, ln_edge
    for _ in range(60):
        mid = 0.5 * (good + bad)
        if _priceable(dist, ms, mid):
            good = mid
        else:
            bad = mid
    return good


def strike_grid(dist: Distribution, ms: MarketState, grid: GridSpec | None = None) -> np.ndarray:
    """Log-uniform strike grid per the GridSpec recipe, or for ``None`` the
    first default-recipe width whose grid covers ``ND1_WINDOW``.

    Edges are clipped to the distribution's strike bounds and pulled inward
    where tail prices collapse onto the arbitrage band within float
    resolution (no implied vol is recoverable there).  Without a GridSpec the
    proxy window widens by 1.6 until N(-d1) at the two end strikes, inverted
    on their own, lies below and above the window: a spline smile passes
    through the vols at its nodes, so no smile is built to decide a width.
    """
    given = grid is not None
    grid = grid or GridSpec()
    fwd, sqrt_t = ms.forward(), math.sqrt(ms.tenor)
    proxy = float(implied_vol_grid(ms, [fwd], [float(dist.call_price(ms, fwd))])[0])
    ln_atm, ln_fwd = math.log(atm_rn_lognormal(ms, proxy)), math.log(fwd)
    half_lo = ndtri(GRID_DELTA_WINDOW[0]) * proxy * sqrt_t
    half_hi = ndtri(GRID_DELTA_WINDOW[1]) * proxy * sqrt_t
    b_lo, b_hi = dist.strike_bounds()
    for _ in range(MAX_GRID_WIDENINGS):
        ln_lo = ln_atm + half_lo * grid.width_mult
        ln_hi = ln_atm + half_hi * grid.width_mult
        width = ln_hi - ln_lo
        ln_lo -= GRID_EXTEND * width
        ln_hi += GRID_EXTEND * width
        if b_lo > 0.0:
            ln_lo = max(ln_lo, math.log(b_lo))
        if math.isfinite(b_hi):
            ln_hi = min(ln_hi, math.log(b_hi))
        ln_lo = _shrink_to_priceable(dist, ms, ln_fwd, ln_lo)
        ln_hi = _shrink_to_priceable(dist, ms, ln_fwd, ln_hi)
        if ln_hi <= ln_lo:
            raise DomainTooNarrow("strike bounds leave no room for the requested grid")
        strikes = np.exp(np.linspace(ln_lo, ln_hi, grid.n))
        if given:
            return strikes
        ends = strikes[[0, -1]]
        vols = implied_vol_grid(ms, ends, dist.call_price(ms, ends))
        nd1_lo, nd1_hi = ndtr(-d1_total(ms, ends, vols)[0])
        if nd1_lo < ND1_WINDOW[0] and nd1_hi > ND1_WINDOW[1]:
            return strikes
        grid = replace(grid, width_mult=grid.width_mult * 1.6)
    raise TargetOutsideDomain(f"could not widen the grid to cover the N(-d1) window {ND1_WINDOW}")


def smile_from_distribution(
    dist: Distribution, ms: MarketState, grid: GridSpec | None = None
) -> SmileCurve:
    """Invert the distribution's call prices into a C^2 smile.

    The smile is backed by a natural cubic spline in (ln K, sigma); at every
    grid strike the BSM price at the spline value reproduces the
    distribution call price to solver accuracy.  Without ``grid`` the grid
    is the first width that covers ``ND1_WINDOW`` (``strike_grid``); a given
    GridSpec is built as it stands.  A forward other than the distribution
    mean raises InconsistentForward from ``call_price``.
    """
    from scipy.interpolate import CubicSpline  # kept off the CLI import path

    strikes = strike_grid(dist, ms, grid)
    prices = np.asarray(dist.call_price(ms, strikes), dtype=float)
    vols = implied_vol_grid(ms, strikes, prices)
    lnk = np.log(strikes)
    spline = CubicSpline(lnk, vols, bc_type="natural")
    # Precomputed derivative splines: spline(x, nu) rounds differently.
    dspline, d2spline = spline.derivative(1), spline.derivative(2)
    return SmileCurve(
        market=ms,
        k_lo=float(strikes[0]),
        k_hi=float(strikes[-1]),
        vol_fn=spline,
        jet_fn=lambda x: (spline(x), dspline(x), d2spline(x)),
        label=f"{type(dist).__name__.lower()}-smile",
    )


def nd1_level(ms: MarketState, target: float, conv: DeltaConvention) -> float:
    """The N(-d1) level a delta target pins: the target itself under FORWARD_N,
    the raw |put delta| divided by e^{-qT} under SPOT_PIPS."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    eff = target / ms.df_for() if conv is DeltaConvention.SPOT_PIPS else target
    if not 0.0 < eff < 1.0:
        raise TargetOutsideDomain(f"effective N(-d1) target {eff:.6g} outside (0, 1)")
    return eff


def strikes_for_deltas(
    smile: SmileCurve, targets, conv: DeltaConvention = DeltaConvention.FORWARD_N
) -> np.ndarray:
    """Strikes where the smile's N(-d1) (or raw |put delta|) hits each target.

    One solve for all targets: ``DELTA_SAMPLES`` vol reads over the domain
    give each target the first closed interval of ln K where N(-d1) crosses
    it; a safeguarded Newton step on ``jet_fn`` (bisection when the step
    leaves the interval) then runs on every target at once.  Each target's
    arithmetic is its own, so a spline smile gives the same strike whether
    a target is solved alone or with others.
    """
    targets = [float(t) for t in targets]
    ms = smile.market
    eff = np.array([nd1_level(ms, t, conv) for t in targets], dtype=float)
    sqrt_t = math.sqrt(ms.tenor)
    xs = np.linspace(math.log(smile.k_lo), math.log(smile.k_hi), DELTA_SAMPLES)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = ndtr(-d1_total(ms, np.exp(xs), smile.vol_fn(xs))[0])[:, None] - eff
    crosses = ((gap[:-1] <= 0.0) & (gap[1:] >= 0.0)) | ((gap[:-1] >= 0.0) & (gap[1:] <= 0.0))
    missing = ~crosses.any(axis=0)
    if missing.any():
        raise TargetOutsideDomain(
            f"target {targets[int(np.argmax(missing))]:g} not bracketed on "
            f"[{smile.k_lo:.6g}, {smile.k_hi:.6g}]"
        )
    cols = np.arange(eff.size)
    first = np.argmax(crosses, axis=0)
    a, b = xs[first], xs[first + 1]
    g_a, g_b = gap[first, cols], gap[first + 1, cols]
    # Ends of the bracket where N(-d1) is below / above the target.
    below, above = np.where(g_a <= 0.0, a, b), np.where(g_a <= 0.0, b, a)
    tol = DELTA_XTOL + 4.0 * _EPS * np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        # Regula falsi in the bracket, exact where a sample hits the target.
        x = np.where(g_a == 0.0, a, np.where(g_b == 0.0, b, a - g_a * (b - a) / (g_b - g_a)))
        done = np.zeros(eff.size, dtype=bool)
        for _ in range(DELTA_MAX_ITER):
            sig, sig_dot, _ = smile.jet_fn(x)
            d1, total = d1_total(ms, np.exp(x), sig)
            d2 = d1 - total
            h = ndtr(-d1) - eff
            # d N(-d1) / d ln K = n(d1) (1 + sqrt(T) sigma' d2) / (sigma sqrt(T)).
            slope = np.exp(-0.5 * d1 * d1) * (1.0 + sqrt_t * sig_dot * d2) / (SQRT_2PI * total)
            below = np.where(h < 0.0, x, below)
            above = np.where(h > 0.0, x, above)
            cand = x - h / slope
            # The bracket is closed: a step onto either end is kept.
            cand = np.where((cand - below) * (cand - above) <= 0.0, cand, 0.5 * (below + above))
            step_done = (h == 0.0) | (np.abs(cand - x) <= tol)
            x = np.where(done | (h == 0.0), x, cand)
            done |= step_done
            if done.all():
                return np.exp(x)
        # A Newton iterate can cycle between strikes one ulp of the target
        # apart; a residual at that floor is converged too.
        h = ndtr(-d1_total(ms, np.exp(x), smile.vol_fn(x))[0]) - eff
    if not np.all(done | (np.abs(h) <= 4.0 * _EPS * eff)):
        raise NoConvergence("delta solve iteration budget exhausted")
    return np.exp(x)


def strike_for_delta(
    smile: SmileCurve, target: float, conv: DeltaConvention = DeltaConvention.FORWARD_N
) -> DeltaAnchor:
    """Strike where the smile's N(-d1) (or raw |put delta|) hits ``target``."""
    strike = float(strikes_for_deltas(smile, [target], conv)[0])
    return DeltaAnchor(target=target, strike=strike, vol=float(smile.vol(strike)), convention=conv)


def _derivs_on_grid(smile: SmileCurve, strikes: np.ndarray, mode: str):
    lnk = np.log(strikes)
    if mode == "analytic":
        return smile.jet_fn(lnk)
    if mode != "fd":
        raise ValueError(f"unknown derivative mode {mode!r}")
    h = FD_STEP
    if strikes[0] * math.exp(-h) < smile.k_lo or strikes[-1] * math.exp(h) > smile.k_hi:
        raise DomainTooNarrow("finite-difference stencil leaves the smile domain")
    sig = smile.vol_fn(lnk)
    up = smile.vol_fn(lnk + h)
    dn = smile.vol_fn(lnk - h)
    return sig, (up - dn) / (2.0 * h), (up - 2.0 * sig + dn) / (h * h)


def _bracket_terms(smile: SmileCurve, strikes: np.ndarray, mode: str):
    """sigma, d1, d2 and the non-negativity bracket of the density formula."""
    ms = smile.market
    sqrt_t = math.sqrt(ms.tenor)
    sig, sig_dot, sig_ddot = _derivs_on_grid(smile, strikes, mode)
    if np.any(sig <= 0.0):
        k_bad = strikes[int(np.argmax(sig <= 0.0))]
        raise NonpositiveVol(f"smile implies vol <= 0 at strike {k_bad:.6g}")
    d1, total = d1_total(ms, strikes, sig)
    d2 = d1 - total
    t = ms.tenor
    bracket = (
        1.0
        + sqrt_t * (d1 + d2) * sig_dot
        + t * d1 * d2 * sig_dot * sig_dot
        + t * sig * sig_ddot
    )
    return sig, sig_dot, sig_ddot, d1, d2, bracket


def _check_grid(smile: SmileCurve, strikes) -> np.ndarray:
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or strikes.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 strikes")
    if not (strikes.min() >= smile.k_lo and strikes.max() <= smile.k_hi):
        raise DomainTooNarrow(
            f"grid [{strikes.min():.6g}, {strikes.max():.6g}] exceeds smile domain "
            f"[{smile.k_lo:.6g}, {smile.k_hi:.6g}]"
        )
    return strikes


def density_from_smile(smile: SmileCurve, strikes, mode: str = "analytic") -> DensityCurve:
    """Implied density via the strike-space second derivative of the call.

    p(K) = [1 + 2K sqrt(T) d1 sigma' + K^2 T (d1 d2 sigma'^2 + sigma sigma'')]
           * e^{-d2^2/2} / (K sigma sqrt(2 pi T))

    with primes denoting strike derivatives.  Negative values are reported
    as-is; use ``nonnegativity_margin`` to detect them.
    """
    return density_with_margin(smile, strikes, mode)[0]


def density_with_margin(
    smile: SmileCurve, strikes, mode: str = "analytic"
) -> tuple[DensityCurve, float]:
    """``density_from_smile`` and ``nonnegativity_margin`` from one bracket evaluation."""
    strikes = _check_grid(smile, strikes)
    ms = smile.market
    sqrt_t = math.sqrt(ms.tenor)
    sig, sig_dot, sig_ddot, d1, d2, bracket = _bracket_terms(smile, strikes, mode)
    # Strike-space derivatives from the log-strike ones.  Overflow on a huge
    # domain is reported by DensityCurve (NonFiniteDensity), not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sig_p = sig_dot / strikes
        sig_pp = (sig_ddot - sig_dot) / (strikes * strikes)
        bracket_k = (
            1.0
            + 2.0 * strikes * sqrt_t * d1 * sig_p
            + strikes * strikes * ms.tenor * (d1 * d2 * sig_p * sig_p + sig * sig_pp)
        )
        values = bracket_k * np.exp(-0.5 * d2 * d2) / (strikes * sig * SQRT_2PI * sqrt_t)
    return DensityCurve(strikes=strikes, values=values), float(np.min(bracket))


def log_strike_density(smile: SmileCurve, strikes, mode: str = "analytic") -> DensityCurve:
    """Same density through the log-strike form of the formula.

    p(K) = [1 + sqrt(T)(d1 + d2) sigma_dot + T d1 d2 sigma_dot^2
            + T sigma sigma_ddot] * e^{-d2^2/2} / (K sigma sqrt(2 pi T))

    with dots denoting ln-K derivatives; serves as an internal cross-check
    of ``density_from_smile``.
    """
    strikes = _check_grid(smile, strikes)
    sqrt_t = math.sqrt(smile.market.tenor)
    sig, _, _, _, d2, bracket = _bracket_terms(smile, strikes, mode)
    values = bracket * np.exp(-0.5 * d2 * d2) / (strikes * sig * SQRT_2PI * sqrt_t)
    return DensityCurve(strikes=strikes, values=values)


def nonnegativity_margin(smile: SmileCurve, strikes, mode: str = "analytic") -> float:
    """Minimum over the grid of the density-sign bracket.

    A negative return value is equivalent to the implied density taking
    negative values somewhere on the grid.
    """
    strikes = _check_grid(smile, strikes)
    _, _, _, _, _, bracket = _bracket_terms(smile, strikes, mode)
    return float(np.min(bracket))
