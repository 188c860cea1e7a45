"""The five analytic terminal-price distribution families.

Each family knows its density, CDF, mean, quantile, and the closed form of
the undiscounted call payoff expectation; ``call_price`` wraps that with the
discount factor after checking that the distribution mean matches the market
forward (the consistency constraint every implied density must satisfy).
A family implements ``_pdf``, ``_cdf`` and ``expected_call_payoff`` on float
arrays; ``pdf``, ``cdf`` and ``call_price`` convert and check the argument.

The normal CDF and quantile come from ``bsm``; the gamma and beta functions
of ``scipy.special`` are imported where they are used, which keeps
``scipy.special`` off the CLI's import path.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .bsm import SQRT_2PI, MarketState, as_scalar, ndtr, ndtri, positive_strikes
from .errors import InconsistentForward, InvalidInput
from .smile import DensityCurve  # defined beside the kernel that makes it on the CLI path

FORWARD_CONSISTENCY_TOL = 1e-9
UNIFORM_EDGE_MARGIN = 1e-6  # fraction of (b - a) kept away from the kinks


def _require_finite(**params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")


class Distribution(ABC):
    """Common surface of the families: a subclass implements ``_pdf``, ``_cdf`` and
    ``expected_call_payoff`` on a float array, each giving back an array of its shape."""

    def pdf(self, x):
        """Density at x: a float for one point, an array of x's shape for an array."""
        return as_scalar(self._pdf(np.asarray(x, dtype=float)))

    def cdf(self, x):
        """P(X <= x), read like ``pdf``."""
        return as_scalar(self._cdf(np.asarray(x, dtype=float)))

    @abstractmethod
    def _pdf(self, x: np.ndarray) -> np.ndarray:
        ...

    @abstractmethod
    def _cdf(self, x: np.ndarray) -> np.ndarray:
        ...

    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def quantile(self, p: float) -> float:
        ...

    @abstractmethod
    def expected_call_payoff(self, strike: np.ndarray) -> np.ndarray:
        """Undiscounted E[(X - K)^+] at a float array of positive, finite strikes."""

    def mass_below_zero(self) -> float:
        return 0.0

    def strike_bounds(self) -> tuple[float, float]:
        """Open interval of strikes where the implied smile is evaluated."""
        return 0.0, math.inf

    def call_price(self, ms: MarketState, strike):
        """Discounted call price e^{-rT} E[(X - K)^+].

        Raises InconsistentForward unless mean() equals the market forward,
        the constraint linking the density to (S0, r, q, T), and InvalidInput
        naming the first strike that is not positive and finite.
        """
        fwd = ms.forward()
        if abs(self.mean() - fwd) > FORWARD_CONSISTENCY_TOL * max(1.0, abs(fwd)):
            raise InconsistentForward(
                f"distribution mean {self.mean():.12g} != forward {fwd:.12g}"
            )
        return as_scalar(ms.df_dom() * self.expected_call_payoff(positive_strikes(strike)))

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

    def _pdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(np.where(x > 0, x, 1.0)) - self.mu) / self.s
            vals = np.exp(-0.5 * z * z) / (x * self.s * SQRT_2PI)
        return np.where(x > 0, vals, 0.0)

    def _cdf(self, x):
        return np.where(x > 0, ndtr((np.log(np.where(x > 0, x, 1.0)) - self.mu) / self.s), 0.0)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.s * self.s)

    def quantile(self, p: float) -> float:
        return math.exp(self.mu + self.s * ndtri(p))

    def expected_call_payoff(self, strike):
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

    def _pdf(self, x):
        from scipy.special import gammaln

        safe = np.where(x > 0, x, 1.0)
        logp = (
            (self.kappa - 1.0) * np.log(safe)
            - safe / self.theta
            - self.kappa * math.log(self.theta)
            - gammaln(self.kappa)
        )
        return np.where(x > 0, np.exp(logp), 0.0)

    def _cdf(self, x):
        from scipy.special import gammainc

        return np.where(x > 0, gammainc(self.kappa, np.maximum(x, 0.0) / self.theta), 0.0)

    def mean(self) -> float:
        return self.kappa * self.theta

    def quantile(self, p: float) -> float:
        from scipy.special import gammaincinv

        return self.theta * float(gammaincinv(self.kappa, p))

    def expected_call_payoff(self, strike):
        from scipy.special import gammainc

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

    def _pdf(self, x):
        z = (x - self.mu) / self.s
        return np.exp(-0.5 * z * z) / (self.s * SQRT_2PI)

    def _cdf(self, x):
        return ndtr((x - self.mu) / self.s)

    def mean(self) -> float:
        return self.mu

    def quantile(self, p: float) -> float:
        return self.mu + self.s * ndtri(p)

    def mass_below_zero(self) -> float:
        return float(ndtr(-self.mu / self.s))

    def expected_call_payoff(self, strike):
        z = (self.mu - strike) / self.s
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

    def _pdf(self, x):
        t = x - self.mu
        return self._norm_const * (1.0 + t * t / self.nu) ** (-0.5 * (self.nu + 1.0))

    def _cdf(self, x):
        from scipy.special import betainc

        t = x - self.mu
        y = self.nu / (self.nu + t * t)
        upper_tail = 0.5 * betainc(0.5 * self.nu, 0.5, y)
        return np.where(t >= 0.0, 1.0 - upper_tail, upper_tail)

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
        return self.cdf(0.0)

    def expected_call_payoff(self, strike):
        from scipy.special import betainc

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

    def _pdf(self, x):
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def quantile(self, p: float) -> float:
        return self.a + p * (self.b - self.a)

    def strike_bounds(self) -> tuple[float, float]:
        # The smile kinks at the support edges; stay a hair inside.
        margin = UNIFORM_EDGE_MARGIN * (self.b - self.a)
        return self.a + margin, self.b - margin

    def expected_call_payoff(self, strike):
        a, b = self.a, self.b
        mid = (b - strike) ** 2 / (2.0 * (b - a))
        return np.where(strike <= a, 0.5 * (a + b) - strike, np.where(strike < b, mid, 0.0))


def density_curve(dist: Distribution, strikes) -> DensityCurve:
    """Sample the density on a strike grid.

    The values are divided by 1 - P(0) so the positive-axis restriction
    integrates to one; for positively supported families P(0) is 0.0 and
    the division is exact.
    """
    strikes = np.asarray(strikes, dtype=float)
    values = dist.pdf(strikes) / (1.0 - dist.mass_below_zero())
    return DensityCurve(strikes=strikes, values=values)

