"""Black-Scholes-Merton pricing, d1/d2, and implied-volatility inversion.

Everything here is a pure function of its arguments; prices and d's accept
numpy arrays for the strike/vol slots and broadcast in the usual way.

This module is the package's one home of the standard normal CDF and
quantile.  ``ndtr`` is ``scipy.special.ndtr``, imported on its first call;
the inversion and density arrays run through it.  ``cephes_ndtr`` (numpy,
for curvature's N(-d1)) and ``ndtri`` (scalar, pure Python) port the Cephes
``ndtr`` and ``ndtri`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989) that scipy runs: the same rational
approximations, coefficients and Horner order (``_polevl``), so each
returns scipy's doubles bit for bit.  The ports exist because importing
``scipy.special`` costs a cold process more than the CLI's own work (its
array-API layer loads ``numpy.testing``, ``numpy.f2py`` and ``numpy.ma``),
and no subcommand needs it; ``math``'s ``erf``/``erfc`` and
``statistics.NormalDist`` differ from scipy in the last bits.  The CDF port
costs about ten times as much per element as scipy's, so the arrays here
keep scipy's.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def _polevl(x, coef):
    """Horner's rule in Cephes' order: polevl, and p1evl for coefficients led by a 1.

    Every denominator table below leads with the 1 that p1evl leaves implicit:
    1 * x + c1 is x + c1.
    """
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1; erfc(x) =
# exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and exp(-x^2) R(x) / S(x) beyond.
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)


def cephes_ndtr(a) -> np.ndarray:
    """Standard normal CDF, bit for bit ``scipy.special.ndtr``, with no scipy import.

    The polynomials run on arrays, but ``exp`` per element through
    ``math.exp``: numpy's array ``exp`` differs from libm's in the last bit
    on some inputs.
    """
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    # N = 1/2 + erf(x)/2 for |x| < 1/sqrt(2), else erfc(|x|)/2 (reflected for
    # x > 0).  erf's polynomial also serves erfc(z) = 1 - erf(z) for z < 1.
    mid = z < _SQRT1_2
    small = z < 1.0
    w = np.where(mid, x, np.where(small, z, 0.0))
    w2 = w * w
    erf_w = w * _polevl(w2, _ERF_T) / _polevl(w2, _ERF_U)
    y = np.where(mid, 0.5 + 0.5 * erf_w, 0.5 * (1.0 - erf_w))
    tail = ~small  # NaN takes this branch and stays NaN
    if tail.any():
        zt = z[tail]
        with np.errstate(over="ignore", invalid="ignore"):
            u = -zt * zt  # -inf past sqrt(max double)
            e = np.fromiter(map(math.exp, u.tolist()), float, u.size)
            near = zt < 8.0
            zn = np.where(near, zt, 1.0)
            p, q = _polevl(zn, _ERFC_P), _polevl(zn, _ERFC_Q)
            if not near.all():
                far = zt[~near]
                p[~near], q[~near] = _polevl(far, _ERFC_R), _polevl(far, _ERFC_S)
            y[tail] = 0.5 * np.where(u < -_MAXLOG, 0.0, (e * p) / q)
    up = ~mid & (x > 0.0)
    y[up] = 1.0 - y[up]
    return y


# Cephes ndtri.  Central branch: |y - 1/2| <= 1/2 - e^-2, in y - 1/2.  Tail
# branches in z = 1/sqrt(-2 ln y): P1/Q1 for y > e^-32, P2/Q2 below.
_NDTRI_S2PI = 2.50662827463100050242e0
_NDTRI_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _ndtri_term(x: float, p, q) -> float:
    """x P(x) / Q(x) in Cephes' order: (x * P(x)) / Q(x)."""
    return x * _polevl(x, p) / _polevl(x, q)


def ndtri(y: float) -> float:
    """Standard normal quantile, bit for bit ``scipy.special.ndtri`` on a scalar.

    -inf at 0, inf at 1, NaN outside [0, 1] or for NaN.
    """
    y = float(y)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _NDTRI_EXP_M2
    if upper:
        y = 1.0 - y
    if y > _NDTRI_EXP_M2:
        y = y - 0.5
        return (y + y * _ndtri_term(y * y, _NDTRI_P0, _NDTRI_Q0)) * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    if x < 8.0:
        tail = _ndtri_term(1.0 / x, _NDTRI_P1, _NDTRI_Q1)
    else:
        tail = _ndtri_term(1.0 / x, _NDTRI_P2, _NDTRI_Q2)
    x = (x - math.log(x) / x) - tail
    return x if upper else -x


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


def d1_d2(ms: MarketState, strike, vol):
    """The BSM d1 and d2 for the given strike(s) and vol(s).

    Raises DegenerateTenor when T = 0 or vol = 0; pricing is continuous
    there but the d's are not, so callers must branch to intrinsic value.
    """
    strike = np.asarray(strike, dtype=float)
    vol = np.asarray(vol, dtype=float)
    if ms.tenor <= 0.0:
        raise DegenerateTenor("d1/d2 undefined at zero tenor")
    if np.any(vol <= 0.0):
        raise DegenerateTenor("d1/d2 undefined at zero volatility")
    if np.any(strike <= 0.0):
        raise InvalidInput("strike must be positive")
    d1, total = d1_total(ms, strike, vol)
    d2 = d1 - total
    if d1.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


def bsm_price(ms: MarketState, strike, vol, side: OptionSide = OptionSide.CALL):
    """European vanilla price; T = 0 and vol = 0 return discounted intrinsic."""
    strike = np.asarray(strike, dtype=float)
    vol = np.asarray(vol, dtype=float)
    if np.any(strike <= 0.0):
        raise InvalidInput("strike must be positive")
    if np.any(vol < 0.0):
        raise InvalidInput("vol must be >= 0")
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
    return float(out) if np.ndim(out) == 0 else out


def d1_d2_identity_residual(ms: MarketState, strike, vol) -> float:
    """|S0 e^{-qT} n(d1) - K e^{-rT} n(d2)|, zero in exact arithmetic."""
    d1, d2 = d1_d2(ms, strike, vol)
    lhs = ms.spot * ms.df_for() * std_normal_pdf(d1)
    rhs = np.asarray(strike, dtype=float) * ms.df_dom() * std_normal_pdf(d2)
    res = np.abs(lhs - rhs)
    return float(res) if np.ndim(res) == 0 else res


def atm_rn_lognormal(ms: MarketState, vol: float) -> float:
    """Strike zeroing the call+put delta under a flat vol: S0 e^{(r-q+vol^2/2)T}."""
    if vol < 0.0:
        raise InvalidInput("vol must be >= 0")
    return strike_for_target_nd1(ms, vol, 0.5)


def strike_for_target_nd1(ms: MarketState, vol: float, target: float) -> float:
    """Strike where N(-d1(K)) equals ``target`` under a flat vol.

    Closed form: K = S0 exp(z vol sqrt(T) + (r - q + vol^2/2) T) with
    z the normal quantile of the target (exactly 0 at 0.5).
    """
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

    Safeguarded Newton on a per-element bracket; every in-band price inside
    the [IV_BRACKET_LO, IV_BRACKET_HI] vol range converges; a price outside
    that range's band raises PriceOutOfBand.  Each sweep prices only the
    strikes not yet converged and takes the vega from the same d1.  A put
    quote inverts as its parity call.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    if ms.tenor <= 0.0:
        raise PriceOutOfBand("implied vol undefined at zero tenor")
    if np.any(strikes <= 0.0):
        raise InvalidInput("strike must be positive")
    sqrt_t = math.sqrt(ms.tenor)
    fwd_df = ms.df_for() * ms.spot
    vega_df = fwd_df * sqrt_t / SQRT_2PI
    ln_m = forward_log_moneyness(ms, strikes)
    dfd_k = ms.df_dom() * strikes
    lo_p, _ = _sweep_price(ln_m, dfd_k, IV_BRACKET_LO * sqrt_t, fwd_df)
    hi_p, _ = _sweep_price(ln_m, dfd_k, IV_BRACKET_HI * sqrt_t, fwd_df)
    if np.any(prices <= lo_p) or np.any(prices >= hi_p):
        bad = int(np.argmax((prices <= lo_p) | (prices >= hi_p)))
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
