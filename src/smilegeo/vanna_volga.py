"""Vanna-volga smile interpolation from three quotes.

``vv_smile`` wraps either flavour as a SmileCurve.  The first-order smile
is a weighted combination of the three anchor vols with log-ratio
(quadratic Lagrange in ln K) weights that sum to one.  It reproduces the
anchors exactly and reduces to the flat value for equal quotes.  The
market-consistency variant is built on the same weights (one
``_LnKWeights`` serves both),

    sigma(K) = sigma2 + (-sigma2 + sqrt(sigma2^2 + d1 d2 (2 sigma2 P + Q)))
               / (d1 d2),

with d1, d2 evaluated at the middle vol, P the first-order correction and
Q the anchor convexity term.  Its wings bend away from the quadratic, which
is what makes it the interesting comparison baseline; where the square-root
argument turns negative (far wings) it is clamped at zero.

The quotient is evaluated rationalised (``_MarketOrder``).  Array vols and
the jet share one sigma expression; a single strike's vol takes a scalar
path: float arithmetic with the branch picked by ``if``.  B and its slopes
are formed as the elementwise sum ``c1*w1 + c2*w2 + c3*w3`` over the three
weights.  A dot product would round each strike's sum by its position in the
array, so a vol could change with the grid it is read on; the elementwise
sum gives a strike the same bits alone, inside any grid, and on the float
path.  ``lowest`` decides exactly if a vol is <= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsm import MarketState
from .errors import InvalidInput, NonpositiveVol
from .smile import POSITIVITY_MARGIN, DeltaAnchor, SmileCurve, lowest_clearance, real_roots


@dataclass(frozen=True)
class ThreeQuoteSmile:
    """Exactly three anchors with strictly increasing strikes."""

    anchors: tuple[DeltaAnchor, DeltaAnchor, DeltaAnchor]
    market: MarketState

    def __post_init__(self):
        if len(self.anchors) != 3:
            raise InvalidInput("exactly three anchors are required")
        k1, k2, k3 = (a.strike for a in self.anchors)
        if not k1 < k2 < k3:
            raise InvalidInput("anchor strikes must be strictly increasing")
        if not all(0.0 < a.vol < math.inf for a in self.anchors):
            raise InvalidInput("anchor vols must be finite and positive")

    @property
    def strikes(self) -> tuple[float, float, float]:
        return tuple(a.strike for a in self.anchors)

    @property
    def vols(self) -> tuple[float, float, float]:
        return tuple(a.vol for a in self.anchors)


class _LnKWeights:
    """The quadratic Lagrange weights in ln K through the log-strikes m.

    The denominators and the constant second derivatives ``wpp`` are fixed
    at construction.  Both backends pass m = ``np.log`` of the anchor
    strikes, the log a smile reads a strike by, so at each anchor the
    weights are exactly 1, 0 and 0.
    """

    def __init__(self, m):
        m1, m2, m3 = self.m = tuple(float(v) for v in m)
        self.den = ((m1 - m2) * (m1 - m3), (m2 - m1) * (m2 - m3), (m3 - m1) * (m3 - m2))
        self.wpp = tuple(2.0 / d for d in self.den)

    def __call__(self, lnk):
        m1, m2, m3 = self.m
        den1, den2, den3 = self.den
        return (
            (lnk - m2) * (lnk - m3) / den1,
            (lnk - m1) * (lnk - m3) / den2,
            (lnk - m1) * (lnk - m2) / den3,
        )

    def slopes(self, lnk):
        """The weights' first ln-K derivatives."""
        m1, m2, m3 = self.m
        den1, den2, den3 = self.den
        return (
            (2.0 * lnk - m2 - m3) / den1,
            (2.0 * lnk - m1 - m3) / den2,
            (2.0 * lnk - m1 - m2) / den3,
        )

    def parabola(self, coef, m_lo: float, m_hi: float):
        """(p(m2), p'(m2), p''/2) of p = sum coef_i w_i, its coefficients in y = ln K - m2;
        span^2 sum |coef_i / den_i|, which bounds sum |coef_i w_i| there; [m_lo, m_hi] in y."""
        span, m2 = max(m_hi, self.m[2]) - min(m_lo, self.m[0]), self.m[1]
        terms = span * span * sum(abs(c / d) for c, d in zip(coef, self.den))
        p = (coef[1], _sum3(coef, self.slopes(m2)), 0.5 * _sum3(coef, self.wpp))
        return p, (terms, 0.0, 0.0), m_lo - m2, m_hi - m2


class _FirstOrder:
    """sigma(lnK) in Lagrange form: exact at the anchors by construction."""

    def __init__(self, q: ThreeQuoteSmile):
        self.sig = q.vols
        self.w = _LnKWeights(np.log(q.strikes))
        s1, s2, s3 = q.vols
        den = self.w.den
        # sum(1 / den) = 0, so the gaps to s2 give the same sum without cancelling.
        self.curv = 2.0 * ((s1 - s2) / den[0] + (s3 - s2) / den[2])

    def vol(self, lnk):
        return _sum3(self.sig, self.w(lnk))

    def jet(self, lnk):
        lnk = np.asarray(lnk, dtype=float)
        m1, m2, m3 = self.w.m
        den = self.w.den
        s1, s2, s3 = self.sig
        # Vol times slope numerator, then / den: w.slopes would round differently.
        dsig = (
            s1 * (2.0 * lnk - m2 - m3) / den[0]
            + s2 * (2.0 * lnk - m1 - m3) / den[1]
            + s3 * (2.0 * lnk - m1 - m2) / den[2]
        )
        return self.vol(lnk), dsig, np.full_like(lnk, self.curv)

    def lowest(self, m_lo: float, m_hi: float):
        low, y = lowest_clearance(*self.w.parabola(self.sig, m_lo, m_hi))  # sigma is a parabola
        return low, self.w.m[1] + y


class _MarketOrder:
    """Market vanna-volga vol with exact ln-K derivatives.

    All building blocks are quadratics in m = ln K: the Lagrange terms P and
    Q, and D = d1 d2 at the middle vol.  With B = 2 sigma2 P + Q,
    w = sqrt(sigma2^2 + D B) and u = w + sigma2, the quotient
    (w - sigma2) / D is rationalised to B / u: since (w - sigma2) u = D B,
    it is the same function, but it never divides by D.  So it needs no
    series where D crosses zero, and its derivatives lose no digits there:

        sigma   = sigma2 + B / u
        sigma'  = B' / u - B w' / u^2
        sigma'' = B'' / u - 2 B' w' / u^2 - B w'' / u^2 + 2 B w'^2 / u^3

    Where the square-root argument is not positive the clamped branch
    sigma2 - sigma2 / D takes over (D B < -sigma2^2 there, so D != 0):
    ``np.where`` writes it over the quotient on those points.
    """

    def __init__(self, q: ThreeQuoteSmile, ms: MarketState):
        s1, s2, s3 = q.vols
        self.s2 = s2
        c = s2 * math.sqrt(ms.tenor)
        # Every d1, d2 divides by c and the jet by c * c: a middle vol that
        # leaves either 0 in floats is no vol at all.
        if not c * c > 0.0:
            raise NonpositiveVol(
                f"vanna-volga-market smile implies vol <= 0 at strike {q.strikes[1]:.6g} "
                f"(middle anchor vol {s2:.6g} times sqrt(T) squares to 0)"
            )
        a1 = (math.log(ms.spot) + (ms.dom_rate - ms.for_rate) * ms.tenor) / c + 0.5 * c
        self.c = c
        self.a1 = a1
        self.a2 = a1 - c
        m = np.log(q.strikes)
        self.w = _LnKWeights(m)
        # B = 2 sigma2 P + Q is one sum over the weights.  The weights sum to
        # one, so P = sum (sigma_i - sigma2) w_i: written with the gaps to the
        # middle vol, B loses no digits where it is small.
        d_anchor = (self.a1 - m / c) * (self.a2 - m / c)
        gap = np.array([s1 - s2, 0.0, s3 - s2])
        self.b_coef = tuple((gap * (2.0 * s2 + d_anchor * gap)).tolist())
        # B's second derivative is constant: the weights are quadratics.
        self.b2 = _sum3(self.b_coef, self.w.wpp)

    def _d1_d2(self, lnk):
        scaled = lnk / self.c
        return self.a1 - scaled, self.a2 - scaled

    def _pieces(self, lnk):
        """B and D = d1 d2 with their first and second ln-K derivatives."""
        lnk = np.asarray(lnk, dtype=float)
        b = _sum3(self.b_coef, self.w(lnk))
        b1 = _sum3(self.b_coef, self.w.slopes(lnk))
        d1, d2_ = self._d1_d2(lnk)
        dd1 = -(d1 + d2_) / self.c
        dd2 = 2.0 / (self.c * self.c)
        return b, b1, self.b2, d1 * d2_, dd1, dd2

    def _sigma(self, b, dd):
        """sigma from B and D on arrays, with w, u and the clamped mask the jet reuses;
        callers silence the warnings of clamped points and non-finite B or D."""
        s2 = self.s2
        arg = s2 * s2 + dd * b
        w_ = np.sqrt(arg)
        u = w_ + s2
        sig = s2 + b / u
        clamped = arg <= 0.0
        if clamped.any():  # sqrt argument pinned at zero
            sig = np.where(clamped, s2 - s2 / dd, sig)
        return sig, w_, u, clamped

    def jet(self, lnk):
        s2 = self.s2
        b, b1, b2, dd, dd1, dd2 = self._pieces(lnk)
        with np.errstate(divide="ignore", invalid="ignore"):
            sig, w_, u, clamped = self._sigma(b, dd)
            w1_ = (dd1 * b + dd * b1) / (2.0 * w_)
            w2_ = (dd2 * b + 2.0 * dd1 * b1 + dd * b2) / (2.0 * w_) - w1_ * w1_ / w_
            dsig = b1 / u - b * w1_ / (u * u)
            d2sig = (
                b2 / u
                - (2.0 * b1 * w1_ + b * w2_) / (u * u)
                + 2.0 * b * w1_ * w1_ / (u * u * u)
            )
            if clamped.any():
                dsig = np.where(clamped, s2 * dd1 / (dd * dd), dsig)
                d2sig = np.where(
                    clamped, s2 * (dd2 * dd - 2.0 * dd1 * dd1) / (dd * dd * dd), d2sig
                )
        return sig, dsig, d2sig

    def vol(self, lnk):
        """sigma alone: the jet's sigma without the derivative terms."""
        if np.ndim(lnk) == 0:
            return self._vol_at(float(lnk))
        lnk = np.asarray(lnk, dtype=float)
        d1, d2_ = self._d1_d2(lnk)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._sigma(_sum3(self.b_coef, self.w(lnk)), d1 * d2_)[0]

    def _vol_at(self, x: float) -> float:
        """sigma at one ln K in float arithmetic, branch picked by ``if``."""
        s2 = self.s2
        b = _sum3(self.b_coef, self.w(x))
        d1, d2_ = self._d1_d2(x)
        dd = d1 * d2_
        arg = s2 * s2 + dd * b
        if arg <= 0.0:
            return s2 - s2 / dd
        return s2 + b / (math.sqrt(arg) + s2)

    def lowest(self, m_lo: float, m_hi: float):
        """(value, ln K): sigma less its rounding margin, least of its reads (a NaN reads -inf)
        at the ends and its zeros, the roots of the quadratics B + sigma2^2 (2 - D) (unclamped)
        and D - 1 (clamped) in ln K: a stretch of sigma <= 0 holds a zero or an end."""
        s2, m2, ss = self.s2, self.w.m[1], self.s2 * self.s2
        (_, b1, b2), (terms, _, _), y_lo, y_hi = self.w.parabola(self.b_coef, m_lo, m_hi)
        d1, d2 = self._d1_d2(m2)
        dd, dd1, dd2 = d1 * d2, -(d1 + d2) / self.c, 2.0 / (self.c * self.c)  # D, D', D'' at m2
        zeros = real_roots((ss * (2.0 - dd), b1 - ss * dd1, b2 - 0.5 * ss * dd2), y_lo, y_hi)
        at = [m2 + y for y in (y_lo, y_hi, *zeros, *real_roots((dd - 1.0, dd1, 0.5 * dd2), y_lo, y_hi))]
        bar = POSITIVITY_MARGIN * (ss + terms) / s2
        return min((v - bar if v == v else -math.inf, m) for v, m in zip(map(self._vol_at, at), at))


def _sum3(coef, w):
    """coef[0] w[0] + coef[1] w[1] + coef[2] w[2], element by element."""
    return coef[0] * w[0] + coef[1] * w[1] + coef[2] * w[2]


def vv_smile(q: ThreeQuoteSmile, k_lo: float, k_hi: float, variant: str = "market") -> SmileCurve:
    """Wrap a three-quote interpolation as a SmileCurve on [k_lo, k_hi].

    ``variant`` selects "first" (first-order approximation) or "market".
    Extrapolation beyond the anchors is permitted.  ``SmileCurve`` checks
    the domain first; then, unless the backend's ``lowest`` shows every vol
    positive, NonpositiveVol names the strike where it is least.
    """
    if variant == "first":
        backend = _FirstOrder(q)
    elif variant == "market":
        backend = _MarketOrder(q, q.market)
    else:
        raise InvalidInput(f"unknown vanna-volga variant {variant!r}")
    smile = SmileCurve(
        market=q.market,
        k_lo=k_lo,
        k_hi=k_hi,
        vol_fn=backend.vol,
        jet_fn=backend.jet,
        label=f"vanna-volga-{variant}",
    )
    low, m = backend.lowest(math.log(k_lo), math.log(k_hi))
    if not low > 0.0:
        raise NonpositiveVol(f"{smile.label} smile implies vol <= 0 at strike {math.exp(m):.6g}")
    return smile
