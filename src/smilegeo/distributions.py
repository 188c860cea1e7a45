"""The five analytic terminal-price distribution families.

Each family knows its density, CDF, mean, quantile, and the closed form of
the undiscounted call payoff expectation; ``call_price`` wraps that with the
discount factor after checking that the distribution mean matches the market
forward (the consistency constraint every implied density must satisfy).

The normal CDF and quantile come from ``bsm``; the gamma and beta functions
of ``scipy.special`` are imported where they are used, which keeps
``scipy.special`` off the CLI's import path.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .bsm import SQRT_2PI, MarketState, ndtr, ndtri
from .errors import InconsistentForward, InvalidInput, NonFiniteDensity

FORWARD_CONSISTENCY_TOL = 1e-9
UNIFORM_EDGE_MARGIN = 1e-6  # fraction of (b - a) kept away from the kinks


@dataclass(frozen=True)
class DensityCurve:
    """A sampled density: ascending strike grid, values per unit price.

    ``mass_below_zero`` records P(0) for families supported partly on the
    negative axis; curves restricted to positive strikes are rescaled by
    1/(1 - P(0)) so the restriction integrates to one.
    """

    strikes: np.ndarray
    values: np.ndarray
    mass_below_zero: float = 0.0

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if strikes.ndim != 1 or strikes.shape != values.shape:
            raise InvalidInput("strikes and values must be 1-d arrays of equal length")
        if strikes.size < 2 or np.any(np.diff(strikes) <= 0.0):
            raise InvalidInput("strikes must be strictly increasing")
        if not np.all(np.isfinite(values)):
            bad = ~np.isfinite(values)
            raise NonFiniteDensity(
                f"density is not finite at {int(bad.sum())} of {values.size} grid "
                f"strikes, first at {strikes[np.argmax(bad)]:.6g}"
            )
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "values", values)


def _require_finite(**params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")


class Distribution(ABC):
    """Common surface of the Table-of-families distributions."""

    @abstractmethod
    def pdf(self, x):
        ...

    @abstractmethod
    def cdf(self, x):
        ...

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def quantile(self, p: float) -> float:
        ...

    @abstractmethod
    def expected_call_payoff(self, strike):
        """Undiscounted E[(X - K)^+]."""

    def mass_below_zero(self) -> float:
        return 0.0

    def strike_bounds(self) -> tuple[float, float]:
        """Open interval of strikes where the implied smile is evaluated."""
        return 0.0, math.inf

    def call_price(self, ms: MarketState, strike):
        """Discounted call price e^{-rT} E[(X - K)^+].

        Raises InconsistentForward unless mean() equals the market forward,
        the constraint linking the density to (S0, r, q, T).
        """
        fwd = ms.forward()
        if abs(self.mean() - fwd) > FORWARD_CONSISTENCY_TOL * max(1.0, abs(fwd)):
            raise InconsistentForward(
                f"distribution mean {self.mean():.12g} != forward {fwd:.12g}"
            )
        strike = np.asarray(strike, dtype=float)
        if np.any(strike <= 0.0):
            raise ValueError("strike must be positive")
        out = ms.df_dom() * self.expected_call_payoff(strike)
        return float(out) if np.ndim(out) == 0 else out

    def restricted_quantile(self, p: float) -> float:
        """Quantile of the distribution restricted to positive values."""
        p0 = self.mass_below_zero()
        return self.quantile(p0 + p * (1.0 - p0))


@dataclass(frozen=True)
class LogNormal(Distribution):
    """ln X ~ N(mu, s^2)."""

    mu: float
    s: float

    def __post_init__(self):
        _require_finite(mu=self.mu, s=self.s)
        if self.s <= 0.0:
            raise InvalidInput("s must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(np.where(x > 0, x, 1.0)) - self.mu) / self.s
            vals = np.exp(-0.5 * z * z) / (x * self.s * SQRT_2PI)
        out = np.where(x > 0, vals, 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, ndtr((np.log(np.where(x > 0, x, 1.0)) - self.mu) / self.s), 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.s * self.s)

    def quantile(self, p: float) -> float:
        return math.exp(self.mu + self.s * ndtri(p))

    def expected_call_payoff(self, strike):
        strike = np.asarray(strike, dtype=float)
        d1 = (self.mu + self.s * self.s - np.log(strike)) / self.s
        d2 = (self.mu - np.log(strike)) / self.s
        return self.mean() * ndtr(d1) - strike * ndtr(d2)


@dataclass(frozen=True)
class Gamma(Distribution):
    kappa: float
    theta: float

    def __post_init__(self):
        _require_finite(kappa=self.kappa, theta=self.theta)
        if self.kappa <= 0.0 or self.theta <= 0.0:
            raise InvalidInput("kappa and theta must be positive")

    def pdf(self, x):
        from scipy.special import gammaln

        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0, x, 1.0)
        logp = (
            (self.kappa - 1.0) * np.log(safe)
            - safe / self.theta
            - self.kappa * math.log(self.theta)
            - gammaln(self.kappa)
        )
        out = np.where(x > 0, np.exp(logp), 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, gammainc(self.kappa, np.maximum(x, 0.0) / self.theta), 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.kappa * self.theta

    def quantile(self, p: float) -> float:
        from scipy.special import gammaincinv

        return self.theta * float(gammaincinv(self.kappa, p))

    def expected_call_payoff(self, strike):
        from scipy.special import gammainc

        strike = np.asarray(strike, dtype=float)
        k, th = self.kappa, self.theta
        out = th * k * (1.0 - gammainc(k + 1.0, strike / th)) - strike * (
            1.0 - gammainc(k, strike / th)
        )
        return np.maximum(out, 0.0)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float
    s: float

    def __post_init__(self):
        _require_finite(mu=self.mu, s=self.s)
        if self.s <= 0.0:
            raise InvalidInput("s must be positive")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.s
        out = np.exp(-0.5 * z * z) / (self.s * SQRT_2PI)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        out = ndtr((np.asarray(x, dtype=float) - self.mu) / self.s)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.mu

    def quantile(self, p: float) -> float:
        return self.mu + self.s * ndtri(p)

    def mass_below_zero(self) -> float:
        return float(ndtr(-self.mu / self.s))

    def expected_call_payoff(self, strike):
        z = (self.mu - np.asarray(strike, dtype=float)) / self.s
        return (self.mu - strike) * ndtr(z) + self.s * np.exp(-0.5 * z * z) / SQRT_2PI


@dataclass(frozen=True)
class StudentT(Distribution):
    """Standard Student's t translated to expectation mu (unit scale)."""

    mu: float
    nu: float

    def __post_init__(self):
        _require_finite(mu=self.mu, nu=self.nu)
        if self.nu <= 1.0:
            raise InvalidInput("nu must exceed 1 for a finite mean")

    @property
    def _norm_const(self) -> float:
        from scipy.special import gammaln

        return math.exp(gammaln(0.5 * (self.nu + 1.0)) - gammaln(0.5 * self.nu)) / math.sqrt(
            self.nu * math.pi
        )

    def pdf(self, x):
        t = np.asarray(x, dtype=float) - self.mu
        out = self._norm_const * (1.0 + t * t / self.nu) ** (-0.5 * (self.nu + 1.0))
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        from scipy.special import betainc

        t = np.asarray(x, dtype=float) - self.mu
        y = self.nu / (self.nu + t * t)
        upper_tail = 0.5 * betainc(0.5 * self.nu, 0.5, y)
        out = np.where(t >= 0.0, 1.0 - upper_tail, upper_tail)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return self.mu

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise InvalidInput("p must lie in (0, 1)")
        from scipy.special import betaincinv

        tail = 2.0 * min(p, 1.0 - p)
        y = float(betaincinv(0.5 * self.nu, 0.5, tail))
        t = math.sqrt(self.nu * (1.0 - y) / y) if y < 1.0 else 0.0
        return self.mu + math.copysign(t, p - 0.5)

    def mass_below_zero(self) -> float:
        return float(self.cdf(0.0))

    def expected_call_payoff(self, strike):
        from scipy.special import betainc

        strike = np.asarray(strike, dtype=float)
        mu, nu = self.mu, self.nu
        tail_term = (
            nu
            / (nu - 1.0)
            * self._norm_const
            * (1.0 + (mu - strike) ** 2 / nu) ** (0.5 * (1.0 - nu))
        )
        y = nu / (nu + (mu - strike) ** 2)
        inc_beta = betainc(0.5 * nu, 0.5, y)
        return tail_term + 0.5 * (mu - strike) * np.where(strike >= mu, inc_beta, 2.0 - inc_beta)


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float
    b: float

    def __post_init__(self):
        _require_finite(a=self.a, b=self.b)
        if self.a < 0.0 or self.b <= self.a:
            raise InvalidInput("need 0 <= a < b")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        return float(out) if np.ndim(out) == 0 else out

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def quantile(self, p: float) -> float:
        return self.a + p * (self.b - self.a)

    def strike_bounds(self) -> tuple[float, float]:
        # The smile kinks at the support edges; stay a hair inside.
        margin = UNIFORM_EDGE_MARGIN * (self.b - self.a)
        return self.a + margin, self.b - margin

    def expected_call_payoff(self, strike):
        strike = np.asarray(strike, dtype=float)
        a, b = self.a, self.b
        mid = (b - strike) ** 2 / (2.0 * (b - a))
        out = np.where(strike <= a, 0.5 * (a + b) - strike, np.where(strike < b, mid, 0.0))
        return out


def density_curve(dist: Distribution, strikes, rescale: bool = True) -> DensityCurve:
    """Sample the density on a strike grid.

    With ``rescale`` the values are divided by 1 - P(0) so the positive-axis
    restriction integrates to one (a no-op for positively supported families).
    """
    strikes = np.asarray(strikes, dtype=float)
    p0 = dist.mass_below_zero() if rescale else 0.0
    values = np.asarray(dist.pdf(strikes), dtype=float) / (1.0 - p0)
    return DensityCurve(strikes=strikes, values=values, mass_below_zero=p0)


def support_transform_exp(curve: DensityCurve) -> DensityCurve:
    """Map a density on the real line to one on the positive axis via x -> e^x.

    The transformed density is p_hat(e^x) = p(x) e^{-x}; total mass is
    preserved and grid order is maintained.
    """
    new_x = np.exp(curve.strikes)
    return DensityCurve(
        strikes=new_x,
        values=curve.values / new_x,
        mass_below_zero=curve.mass_below_zero,
    )
