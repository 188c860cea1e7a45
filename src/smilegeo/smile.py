"""Two-way bridge between volatility smiles and risk-neutral densities.

A SmileCurve is an evaluable sigma(K) on a stated strike domain with two
read paths in ln K: ``vol_fn`` gives sigma alone (label-strike reads, the
sample that brackets delta solves) and ``jet_fn`` gives sigma with its exact
first and second ln-K derivatives in one evaluation (densities, Newton steps
of delta solves).  Densities follow from the jet through the log-strike
form of the call price's second strike derivative, whose bracket also
decides non-negativity: one kernel checks the grid, reads the jet and forms
both, and ``nonnegativity_margin`` is its margin.  A closed-form smile's vols
are all positive when ``lowest_clearance`` finds its polynomial clear of zero.

Many strikes are read in one array call: array and numpy-scalar calls of
``log``, ``exp``, ``arctan``, ``cos``, ``sin`` and ``sqrt`` agree bit for bit
(numpy 2.4, x86-64), so a vol has the same bits read alone or in any array.
``SmileCurve.vol`` reads one strike as the numpy scalar ``np.log(k)``, which
the closed-form smiles carry through their arithmetic unwrapped, and hands
back a float.  ``math.log``, ``math.atan`` and ``math.exp`` differ from
numpy in the last bit on some inputs, so none of them stands in for a numpy
call.

Without a grid, ``smile_from_distribution`` widens the default one until its
end strikes bracket the ``ND1_WINDOW`` N(-d1) window, which also sets auto R
and the report's KL window, and builds the spline once: ``_interp``'s natural
spline, scipy's bit for bit, whose ``jet`` reads sigma and both ln-K
derivatives from one cell search.

Delta strikes come from ``strikes_for_deltas``: one safeguarded Newton
solve in ln K over every N(-d1) level of a smile at once, each level
bracketed from one sampled ``vol_fn`` read over the domain.  A distribution
report solves all of its levels (its centre, the ``ND1_WINDOW`` strikes and
two wing anchors) together; ``strike_for_delta`` is the one-level case.  A
quoted delta's level under the spot-pips rule is ``surface``'s to form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bsm import (
    IV_BRACKET_HI,
    IV_BRACKET_LO,
    SQRT_2PI,
    MarketState,
    _sweep_price,
    atm_rn_lognormal,
    d1_total,
    forward_log_moneyness,
    implied_vol_grid,
    ndtr,
    ndtri,
    positive_strikes,
)
from .errors import (
    DegenerateTenor, DomainTooNarrow, InvalidInput, NoConvergence, NonFiniteDensity, NonpositiveVol,
    PriceOutOfBand, TargetOutsideDomain,
)

if TYPE_CHECKING:
    from .distributions import Distribution

DEFAULT_GRID_POINTS = 2001
GRID_DELTA_WINDOW = (0.005, 0.995)  # flat-proxy N(-d1) window a strike grid spans
GRID_EXTEND = 0.10  # share of the window's log-width added at each end
ND1_WINDOW = (0.01, 0.99)  # N(-d1) window a default smile covers: auto R and the KL window
MAX_GRID_WIDENINGS = 8
POSITIVITY_MARGIN = 1e-12  # of the terms a closed form sums before they cancel
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
        if not 0.0 < self.k_lo < self.k_hi < math.inf:
            raise InvalidInput("need 0 < k_lo < k_hi < inf")

    def vol(self, strike):
        """Implied volatility at the given strike(s); InvalidInput unless each
        is positive and finite.  One strike gives a float, an array an array."""
        strike = np.asarray(strike, dtype=float)
        if strike.ndim == 0:
            # A float compare (False for NaN too), then a numpy-scalar read: a ``surfaces``
            # benchmark op reads 504 single strikes, and ``positive_strikes`` with ``as_scalar``
            # here raised its op_ms_p50 by 10 %.
            k = float(strike)
            if not 0.0 < k < math.inf:
                raise InvalidInput(f"strike {k:g} is not positive and finite")
            return float(self.vol_fn(np.log(k)))
        return self.vol_fn(np.log(positive_strikes(strike)))

    def default_grid(self, n: int = DEFAULT_GRID_POINTS) -> np.ndarray:
        """n log-uniform strikes spanning the domain, ends kept inside it."""
        return log_uniform_grid(self.k_lo, self.k_hi, n)


def log_uniform_grid(k_lo: float, k_hi: float, n: int) -> np.ndarray:
    """n log-uniform strikes from k_lo to k_hi, clipped to [k_lo, k_hi]."""
    grid = np.exp(np.linspace(math.log(k_lo), math.log(k_hi), n))
    # exp(log(k)) can land one ulp outside the ends.
    return np.clip(grid, k_lo, k_hi)


def real_roots(coef, lo: float, hi: float) -> list[float]:
    """Real roots inside (lo, hi) of sum coef[i] x^i, degree <= 2, stable for a negligible coef[2]."""
    c, b, a = (*coef, 0.0)[:3]
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if disc >= 0.0 else 0.0
    ts = [c / q, *([q / a] if a else [])] if q else [0.0] if a and disc == 0.0 else []
    return [t for t in ts if lo < t < hi]


def lowest_clearance(coef, terms, lo: float, hi: float) -> tuple[float, float]:
    """(value, x): the least on [lo, hi] (an end or a critical point; a NaN reads -inf) of
    sum coef[i] x^i, degree 2 or 4, less ``POSITIVITY_MARGIN`` times its terms' bound ``terms``."""
    p0, p1, p2, p3, p4 = (*[c - POSITIVITY_MARGIN * t for c, t in zip(coef, terms)], 0.0, 0.0)[:5]
    at = real_roots((p1, 2.0 * p2, 3.0 * p3), -math.inf, math.inf)  # P' less its cubic term
    if p4:  # P' / (4 p4) = x^3 + b x^2 + c x + d: Vieta's trigonometric form or Cardano's
        b, c, d = 0.75 * p3 / p4, 0.5 * p2 / p4, 0.25 * p1 / p4
        q, r = (b * b - 3.0 * c) / 9.0, (b * (2.0 * b * b - 9.0 * c) + 27.0 * d) / 54.0
        if r * r < q * q * q:
            theta = math.acos(max(-1.0, min(1.0, r / math.sqrt(q * q * q))))
            at += [-2.0 * q**0.5 * math.cos((theta + k * math.pi) / 3) - b / 3 for k in (0, 2, -2)]
        else:
            s = -math.copysign(math.cbrt(abs(r) + math.sqrt(r * r - q * q * q)), r)
            at += [s + (q / s if s else 0.0) - b / 3.0]
        # Divided by a negligible p4, the smaller roots are noise, and those of P' less
        # its cubic term stand in.  One Newton step on P' polishes each candidate.
        at += [x - (((4.0 * p4 * x + 3.0 * p3) * x + 2.0 * p2) * x + p1)
               / ((12.0 * p4 * x + 6.0 * p3) * x + 2.0 * p2 or math.inf) for x in at]
    at = [lo, hi, *(x for x in at if lo < x < hi)]
    values = [(((p4 * x + p3) * x + p2) * x + p1) * x + p0 for x in at]
    return min((v if v == v else -math.inf, x) for v, x in zip(values, at))


def flat_smile(ms: MarketState, vol: float) -> SmileCurve:
    """A constant-vol smile (the log-normal case) on the forward times
    e^{+-(6 vol sqrt(T) + 0.5)}."""
    if not 0.0 < vol < math.inf:
        raise InvalidInput(f"vol {vol!r} is not positive and finite")
    width = 6.0 * vol * math.sqrt(max(ms.tenor, 1e-12)) + 0.5
    fwd = ms.forward()
    k_lo, k_hi = fwd * math.exp(-width), fwd * math.exp(width)

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
    k, df = math.exp(ln_k), ms.df_dom()
    price = dist.call_price(ms, k)
    lo, hi = _sweep_price(
        forward_log_moneyness(ms, k),
        df * k,
        _BRACKET_VOLS * math.sqrt(ms.tenor),
        ms.df_for() * ms.spot,
    )[0]
    # The payoff's cancellation noise grows with the strike, about eps K;
    # the slack is discounted like the price it is compared with.
    slack = 1e-13 * max(df, abs(price), df * k)
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
    price = dist.call_price(ms, fwd)
    try:
        proxy = float(implied_vol_grid(ms, [fwd], [price])[0])
    except PriceOutOfBand:
        p0, dfwd = dist.mass_below_zero(), ms.df_dom() * fwd
        if p0 > 0.0 and price > dfwd:  # no vol prices a call above the discounted forward
            raise PriceOutOfBand(
                f"the distribution's mass {p0:.3g} below zero makes its call at the forward "
                f"{fwd:.6g} worth {price:.6g}, more than the discounted forward {dfwd:.6g}"
            ) from None
        raise
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
    from ._interp import natural_spline  # no CLI subcommand builds a spline

    strikes = strike_grid(dist, ms, grid)
    vols = implied_vol_grid(ms, strikes, dist.call_price(ms, strikes))
    spline = natural_spline(np.log(strikes), vols)
    return SmileCurve(
        market=ms,
        k_lo=float(strikes[0]),
        k_hi=float(strikes[-1]),
        vol_fn=spline,
        jet_fn=spline.jet,
        label=f"{type(dist).__name__.lower()}-smile",
    )


def strikes_for_deltas(smile: SmileCurve, targets) -> np.ndarray:
    """Strikes where the smile's N(-d1) hits each target level in (0, 1).

    One solve for all targets: ``DELTA_SAMPLES`` vol reads over the domain
    give each target the first closed interval of ln K where N(-d1) crosses
    it; a safeguarded Newton step on ``jet_fn`` (bisection when the step
    leaves the interval) then runs on every target at once.  Each target's
    arithmetic is its own, so a spline smile gives the same strike whether
    a target is solved alone or with others.
    """
    targets = [float(t) for t in targets]
    if not all(0.0 < t < 1.0 for t in targets):
        raise InvalidInput("target must lie in (0, 1)")
    ms = smile.market
    eff = np.array(targets, dtype=float)
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


def strike_for_delta(smile: SmileCurve, target: float) -> DeltaAnchor:
    """Strike where the smile's N(-d1) hits the level ``target``, with the vol there."""
    strike = float(strikes_for_deltas(smile, [target])[0])
    return DeltaAnchor(target=target, strike=strike, vol=float(smile.vol(strike)))


def _terms(smile: SmileCurve, strikes, mode: str):
    """The checked grid, sigma with its two ln-K derivatives, d1 and d2."""
    if smile.market.tenor <= 0.0:
        raise DegenerateTenor("density undefined at zero tenor")
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or strikes.size < 2:
        raise InvalidInput("grid must be a 1-d array with at least 2 strikes")
    if not (strikes.min() >= smile.k_lo and strikes.max() <= smile.k_hi):
        raise DomainTooNarrow(
            f"grid [{strikes.min():.6g}, {strikes.max():.6g}] exceeds smile domain "
            f"[{smile.k_lo:.6g}, {smile.k_hi:.6g}]"
        )
    lnk = np.log(strikes)
    if mode == "analytic":
        sig, sig_dot, sig_ddot = smile.jet_fn(lnk)
    elif mode == "fd":
        h = FD_STEP
        if strikes[0] * math.exp(-h) < smile.k_lo or strikes[-1] * math.exp(h) > smile.k_hi:
            raise DomainTooNarrow("finite-difference stencil leaves the smile domain")
        sig, up, dn = smile.vol_fn(lnk), smile.vol_fn(lnk + h), smile.vol_fn(lnk - h)
        sig_dot, sig_ddot = (up - dn) / (2.0 * h), (up - 2.0 * sig + dn) / (h * h)
    else:
        raise InvalidInput(f"unknown derivative mode {mode!r}")
    if (sig <= 0.0).any():
        k_bad = strikes[int(np.argmax(sig <= 0.0))]
        raise NonpositiveVol(f"smile implies vol <= 0 at strike {k_bad:.6g}")
    d1, total = d1_total(smile.market, strikes, sig)
    return strikes, sig, sig_dot, sig_ddot, d1, d1 - total


@dataclass(frozen=True)
class DensityCurve:
    """A sampled density: ascending strike grid, values per unit price.

    ``distributions.density_curve`` rescales a family supported partly on
    the negative axis by 1/(1 - P(0)), so its restriction to positive
    strikes integrates to one.
    """

    strikes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if strikes.ndim != 1 or strikes.shape != values.shape:
            raise InvalidInput("strikes and values must be 1-d arrays of equal length")
        if strikes.size < 2 or (np.diff(strikes) <= 0.0).any():
            raise InvalidInput("strikes must be strictly increasing")
        if not np.isfinite(values).all():
            bad = ~np.isfinite(values)
            raise NonFiniteDensity(
                f"density is not finite at {int(bad.sum())} of {values.size} grid "
                f"strikes, first at {strikes[np.argmax(bad)]:.6g}"
            )
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "values", values)


def density_from_smile(smile: SmileCurve, strikes, mode: str = "analytic") -> DensityCurve:
    """Implied density via the log-strike form of the call's second strike derivative.

    p(K) = [1 + sqrt(T)(d1 + d2) sigma_dot + T d1 d2 sigma_dot^2
            + T sigma sigma_ddot] * e^{-d2^2/2} / (K sigma sqrt(2 pi T))

    with dots denoting ln-K derivatives.  Negative values are reported
    as-is; the bracket is ``nonnegativity_margin``'s.
    """
    return _density(smile, _terms(smile, strikes, mode))[0]


def density_with_margin(smile: SmileCurve, strikes) -> tuple[DensityCurve, float]:
    """``density_from_smile`` and ``nonnegativity_margin`` from one bracket."""
    return _density(smile, _terms(smile, strikes, "analytic"))


def _density(smile: SmileCurve, terms) -> tuple[DensityCurve, float]:
    """The density of ``_terms``' output, with the minimum of its bracket."""
    strikes, sig, sig_dot, sig_ddot, d1, d2 = terms
    t = smile.market.tenor
    # Overflow on a huge domain is reported by DensityCurve (NonFiniteDensity),
    # not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # The bracket decides the density's sign.
        bracket = 1.0 + math.sqrt(t) * (d1 + d2) * sig_dot + t * d1 * d2 * sig_dot * sig_dot
        bracket += t * sig * sig_ddot
        values = bracket * np.exp(-0.5 * d2 * d2)
        values /= strikes * sig * SQRT_2PI * math.sqrt(t)
    return DensityCurve(strikes=strikes, values=values), float(np.min(bracket))


def nonnegativity_margin(smile: SmileCurve, strikes) -> float:
    """Minimum over the grid of the density-sign bracket.

    A negative return value is equivalent to the implied density taking
    negative values somewhere on the grid; the grid and the density are
    checked as in ``density_from_smile``.
    """
    return density_with_margin(smile, strikes)[1]
