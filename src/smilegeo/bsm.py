"""Black-Scholes-Merton pricing, d1/d2, and implied-volatility inversion.

Everything here is a pure function of its arguments; prices and d's accept
numpy arrays for the strike/vol slots and broadcast in the usual way.  Every
strike argument of the pricing layer passes ``positive_strikes`` and every
one-point result ``as_scalar``: one point in gives a float out.  Only
``SmileCurve.vol``'s one-strike fast path spells the check inline.

This module is the package's one home of the standard normal CDF and
quantile.  ``ndtr`` is ``scipy.special.ndtr``, imported on its first call;
the inversion, density and delta-solve arrays run through it.  The paths
that never call it take the standard library's instead: ``ndtri`` is the
AS241 routine (Wichura) behind ``statistics.NormalDist().inv_cdf``, bit for
bit, read from the C accelerator ``_statistics`` without importing
``statistics`` (which loads ``fractions``, ``decimal`` and ``random``), and
``erfc_ndtr``, curvature's N(-d1), is ``math.erfc`` per element.  A cold CLI
process thus loads no scipy module and no ``statistics``: importing
``scipy.special`` costs more than the CLI's own work.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the accelerator
    from statistics import _normal_dist_inv_cdf

import numpy as np

from .errors import DegenerateTenor, InvalidInput, NoConvergence, PriceOutOfBand, TargetOutsideDomain

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Implied-vol solver: safeguarded Newton on a per-strike bracket, swept only
# over the strikes still iterating.  A strike stops once its price residual
# is within IV_PRICE_TOL (just above the double-precision pricing noise
# floor) and its Newton step within IV_VOL_TOL of sigma: vol-space second
# derivatives downstream need every digit, and a strike iterated past that
# point only gets bisected off its root.  Once at most IV_SCALAR_TAIL
# strikes are left (at once for a single strike), each finishes in a scalar
# loop of the same expressions: an array sweep costs tens of microseconds of
# call overhead however few strikes it holds, and the wing strikes of wide
# grids take dozens of sweeps.  The loop calls the same ufuncs (``ndtr``,
# ``np.exp``, never ``math.exp``), so every vol is the same bit for bit.
IV_BRACKET_LO = 1e-6
IV_BRACKET_HI = 5.0
IV_MAX_ITER = 100
IV_PRICE_TOL = 1e-14
IV_VOL_TOL = 1e-15
IV_SCALAR_TAIL = 4


class OptionSide(enum.Enum):
    CALL = "call"
    PUT = "put"


class DeltaConvention(enum.Enum):
    """How a delta target is read.

    FORWARD_N: the target is a plain N(-d1) value.
    SPOT_PIPS: the target is a raw |put delta| = e^{-qT} N(-d1).
    """

    FORWARD_N = "forward-n"
    SPOT_PIPS = "spot-pips"


@dataclass(frozen=True)
class MarketState:
    """Market context (S0, r, q, T) carried by every pricing call.

    Rates are continuously compounded per year; tenor is in years.
    """

    spot: float
    dom_rate: float
    for_rate: float
    tenor: float

    def __post_init__(self):
        if not (self.spot > 0.0 and math.isfinite(self.spot)):
            raise InvalidInput(f"spot must be positive and finite, got {self.spot}")
        if self.tenor < 0.0 or not math.isfinite(self.tenor):
            raise InvalidInput(f"tenor must be >= 0 and finite, got {self.tenor}")
        if not (math.isfinite(self.dom_rate) and math.isfinite(self.for_rate)):
            raise InvalidInput("rates must be finite")

    def forward(self) -> float:
        return self.spot * math.exp((self.dom_rate - self.for_rate) * self.tenor)

    def df_dom(self) -> float:
        """Domestic discount factor e^{-rT}."""
        return math.exp(-self.dom_rate * self.tenor)

    def df_for(self) -> float:
        """Foreign discount factor e^{-qT}."""
        return math.exp(-self.for_rate * self.tenor)


_scipy_ndtr = None


def ndtr(x):
    """Standard normal CDF N(x): ``scipy.special.ndtr``, imported on the first call."""
    global _scipy_ndtr
    if _scipy_ndtr is None:
        from scipy.special import ndtr as _scipy_ndtr
    return _scipy_ndtr(x)


def erfc_ndtr(x) -> np.ndarray:
    """Standard normal CDF per element as 0.5 erfc(-x / sqrt 2), with no scipy import.

    NaN, inf and -inf give NaN, 1 and 0, with no warning.
    """
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def ndtri(y: float) -> float:
    """Standard normal quantile of a scalar: ``NormalDist().inv_cdf``'s bits inside (0, 1).

    -inf at 0, inf at 1, NaN outside [0, 1] or for NaN.
    """
    y = float(y)
    if 0.0 < y < 1.0:
        return _normal_dist_inv_cdf(y, 0.0, 1.0)
    if y == 0.0:
        return -math.inf
    return math.inf if y == 1.0 else math.nan


def std_normal_pdf(x):
    """Standard normal density n(x)."""
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def forward_log_moneyness(ms: MarketState, strike):
    """ln(S/K) + (r - q)T, the numerator of every d1 in the package."""
    return np.log(ms.spot / strike) + (ms.dom_rate - ms.for_rate) * ms.tenor


def d1_total(ms: MarketState, strike, vol):
    """d1 and the total vol vol sqrt(T), unchecked (``d1_d2`` checks first).

    Every d1 but the pricing sweep's and the vanna-volga quadratics' is this one.
    """
    total = vol * math.sqrt(ms.tenor)
    return forward_log_moneyness(ms, strike) / total + 0.5 * total, total


def positive_strikes(strike) -> np.ndarray:
    """The strike(s) as a float array; InvalidInput names the first one not positive and finite."""
    strike = np.asarray(strike, dtype=float)
    bad = ~((strike > 0.0) & (strike < math.inf))
    if bad.any():
        raise InvalidInput(f"strike {float(strike[bad][0]):g} is not positive and finite")
    return strike


def as_scalar(out):
    """A 0-d result as a float, any other result as it is: one point in, one float out."""
    return float(out) if np.ndim(out) == 0 else out


def d1_d2(ms: MarketState, strike, vol):
    """The BSM d1 and d2 for the given strike(s) and vol(s).

    Raises DegenerateTenor when T = 0 or vol = 0, where pricing is continuous but the d's are
    not (callers branch to intrinsic), and InvalidInput for a vol < 0 or not finite.
    """
    vol = np.asarray(vol, dtype=float)
    if ms.tenor <= 0.0:
        raise DegenerateTenor("d1/d2 undefined at zero tenor")
    if not np.all((vol >= 0.0) & (vol < math.inf)):
        raise InvalidInput("vol must be >= 0 and finite")
    if np.any(vol == 0.0):
        raise DegenerateTenor("d1/d2 undefined at zero volatility")
    d1, total = d1_total(ms, positive_strikes(strike), vol)
    return as_scalar(d1), as_scalar(d1 - total)


def bsm_price(ms: MarketState, strike, vol, side: OptionSide = OptionSide.CALL):
    """European vanilla price; T = 0 and vol = 0 return discounted intrinsic."""
    strike = positive_strikes(strike)
    vol = np.asarray(vol, dtype=float)
    if not np.all((vol >= 0.0) & (vol < math.inf)):
        raise InvalidInput("vol must be >= 0 and finite")
    dff, dfd = ms.df_for(), ms.df_dom()
    if ms.tenor <= 0.0 or np.all(vol == 0.0):
        call = np.maximum(dff * ms.spot - dfd * strike, 0.0)
    else:
        total = vol * math.sqrt(ms.tenor)
        # A zero total is a 0/0 or x/0 in _sweep_price; its intrinsic replaces it.
        with np.errstate(divide="ignore", invalid="ignore"):
            live, _ = _sweep_price(
                forward_log_moneyness(ms, strike), dfd * strike, total, dff * ms.spot
            )
        call = np.where(total > 0.0, live, np.maximum(dff * ms.spot - dfd * strike, 0.0))
    out = call if side is OptionSide.CALL else call - dff * ms.spot + dfd * strike
    return as_scalar(out)


def d1_d2_identity_residual(ms: MarketState, strike, vol) -> float:
    """|S0 e^{-qT} n(d1) - K e^{-rT} n(d2)|, zero in exact arithmetic."""
    d1, d2 = d1_d2(ms, strike, vol)
    lhs = ms.spot * ms.df_for() * std_normal_pdf(d1)
    rhs = np.asarray(strike, dtype=float) * ms.df_dom() * std_normal_pdf(d2)
    return as_scalar(np.abs(lhs - rhs))


def atm_rn_lognormal(ms: MarketState, vol: float) -> float:
    """Strike zeroing the call+put delta under a flat vol: S0 e^{(r-q+vol^2/2)T}."""
    return strike_for_target_nd1(ms, vol, 0.5)


def strike_for_target_nd1(ms: MarketState, vol: float, target: float) -> float:
    """Strike where N(-d1(K)) equals ``target`` under a flat vol.

    Closed form: K = S0 exp(z vol sqrt(T) + (r - q + vol^2/2) T) with
    z the normal quantile of the target (exactly 0 at 0.5).
    """
    if not 0.0 <= vol < math.inf:
        raise InvalidInput("vol must be >= 0 and finite")
    if not 0.0 < target < 1.0:
        raise TargetOutsideDomain(f"N(-d1) target {target:.6g} outside (0, 1)")
    z = ndtri(target)
    return ms.spot * math.exp(
        z * vol * math.sqrt(ms.tenor)
        + (ms.dom_rate - ms.for_rate + 0.5 * vol * vol) * ms.tenor
    )


def _sweep_price(ln_m, dfd_k, total, fwd_df: float):
    """Call price and d1 from ln(S/K) + (r - q)T, e^{-rT} K and vol sqrt(T) > 0.

    The one Black-Scholes price formula: ``bsm_price`` prices through it too,
    and forms puts from it by parity.
    """
    d1 = ln_m / total + 0.5 * total
    return fwd_df * ndtr(d1) - dfd_k * ndtr(d1 - total), d1


def implied_vol_grid(ms: MarketState, strikes, prices):
    """Vectorised implied vol for arrays of in-band call prices.

    Safeguarded Newton on a per-element bracket; every price strictly
    inside the band of the [IV_BRACKET_LO, IV_BRACKET_HI] vol range
    converges, and any other price, NaN included, raises PriceOutOfBand.
    Each sweep prices only the strikes not yet converged and takes the vega
    from the same d1.
    """
    if ms.tenor <= 0.0:
        raise PriceOutOfBand("implied vol undefined at zero tenor")
    strikes = np.atleast_1d(positive_strikes(strikes))
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    if strikes.shape != prices.shape:
        raise InvalidInput(f"strikes and prices differ in length: {strikes.size} and {prices.size}")
    sqrt_t = math.sqrt(ms.tenor)
    fwd_df = ms.df_for() * ms.spot
    vega_df = fwd_df * sqrt_t / SQRT_2PI
    ln_m = forward_log_moneyness(ms, strikes)
    dfd_k = ms.df_dom() * strikes
    lo_p, _ = _sweep_price(ln_m, dfd_k, IV_BRACKET_LO * sqrt_t, fwd_df)
    hi_p, _ = _sweep_price(ln_m, dfd_k, IV_BRACKET_HI * sqrt_t, fwd_df)
    inside = (prices > lo_p) & (prices < hi_p)
    if not inside.all():
        bad = int(np.argmin(inside))
        raise PriceOutOfBand(
            f"price {prices[bad]:.6g} at strike {strikes[bad]:.6g} outside the "
            f"attainable band ({lo_p[bad]:.6g}, {hi_p[bad]:.6g})"
        )
    sig = np.empty_like(strikes)
    # Per-strike state of the strikes still iterating; ``idx`` maps it back.
    idx = np.arange(strikes.size)
    c = prices
    tol = IV_PRICE_TOL * np.maximum(np.abs(c), 1.0)
    lo = np.full_like(strikes, IV_BRACKET_LO)
    hi = np.full_like(strikes, IV_BRACKET_HI)
    s = np.full_like(strikes, 0.25)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(IV_MAX_ITER):
            if idx.size <= IV_SCALAR_TAIL:
                for j in range(idx.size):
                    sig[idx[j]] = _newton_scalar(
                        ln_m[j], dfd_k[j], c[j], tol[j], lo[j], hi[j], s[j],
                        sqrt_t, fwd_df, vega_df, IV_MAX_ITER - sweep,
                    )
                return sig
            model, d1 = _sweep_price(ln_m, dfd_k, s * sqrt_t, fwd_df)
            f = model - c
            np.maximum(lo, s, out=lo, where=f < 0.0)
            np.minimum(hi, s, out=hi, where=f > 0.0)
            vega = vega_df * np.exp(-0.5 * d1 * d1)
            af = np.abs(f)
            conv = (af <= tol) & (af <= IV_VOL_TOL * s * vega)
            cand = s - f / vega
            cand = np.where((cand > lo) & (cand < hi), cand, 0.5 * (lo + hi))
            # Stagnation at the pricing-noise floor also ends a strike.
            done = conv | (np.abs(cand - s) <= 1e-16 * cand)
            s = np.where(conv, s, cand)
            if done.any():
                sig[idx[done]] = s[done]
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    return sig
                idx, c, ln_m, dfd_k, tol, lo, hi, s = (
                    a[keep] for a in (idx, c, ln_m, dfd_k, tol, lo, hi, s)
                )
    sig[idx] = s
    f = _sweep_price(ln_m, dfd_k, s * sqrt_t, fwd_df)[0] - c
    if np.any(np.abs(f) > 1e-8 * np.maximum(np.abs(c), 1.0)):
        raise NoConvergence("implied vol iteration budget exhausted")
    return sig


def _newton_scalar(ln_m, dfd_k, c, tol, lo, hi, s, sqrt_t, fwd_df, vega_df, budget):
    """One strike of ``implied_vol_grid``'s sweep, iterated on numpy scalars.

    The operations are the sweep's, element for element, so the vol is the
    one the array loop would give.  Runs inside its error-state block:
    a vega that underflows to 0 gives an inf or NaN step, then a bisection.
    """
    for _ in range(budget):
        model, d1 = _sweep_price(ln_m, dfd_k, s * sqrt_t, fwd_df)
        f = model - c
        if f < 0.0:
            lo = max(lo, s)
        elif f > 0.0:
            hi = min(hi, s)
        vega = vega_df * np.exp(-0.5 * d1 * d1)
        af = abs(f)
        if af <= tol and af <= IV_VOL_TOL * s * vega:
            return s
        cand = s - f / vega
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        # Stagnation at the pricing-noise floor also ends a strike.
        if abs(cand - s) <= 1e-16 * cand:
            return cand
        s = cand
    f = _sweep_price(ln_m, dfd_k, s * sqrt_t, fwd_df)[0] - c
    if abs(f) > 1e-8 * max(abs(c), 1.0):
        raise NoConvergence("implied vol iteration budget exhausted")
    return s
