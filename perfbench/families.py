"""families workload: the paper's study of one distribution per op.

One op is ``distribution_report(dist)`` followed by
``curvature_profile(report.curve, circle=report.circle)``.  A round is the
six reference cases of the acceptance suite, two fixed cases that hit the
window-grid endpoint fault, and twelve seeded draws of each of the five
families.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtr

import smilegeo as sg

import calibration

wf = importlib.import_module("smilegeo.workflows")
an = importlib.import_module("smilegeo.analysis")
sm = importlib.import_module("smilegeo.smile")

FAMILIES = ("Gamma", "LogNormal", "Normal", "StudentT", "Uniform")
DRAWS_PER_FAMILY = 12
REDRAW_LIMIT = 20

REFERENCE = (
    ("gamma", sg.Gamma(kappa=5.12, theta=0.64)),
    ("uniform", sg.Uniform(a=2.0109, b=5.4750)),
    ("student_negative", sg.StudentT(mu=3.7322, nu=3.9565)),
    ("student", sg.StudentT(mu=3.7201, nu=7.3824)),
    ("normal", sg.Normal(mu=11.3328, s=3.0)),
    ("lognormal", sg.LogNormal(mu=1.0, s=0.25)),
)
# Parameter sets on which distribution_report's window grid overshoots the
# smile domain by one ulp (DomainTooNarrow), every time.
FAULT = (
    ("fault_lognormal", sg.LogNormal(mu=2.3459483414117317, s=0.13333905670626447)),
    ("fault_student", sg.StudentT(mu=10.429390320542002, nu=4.151550865318709)),
)

# Check tolerances, set 10x or more above the worst seen at this commit.
REPRICE_TOL = 1e-13  # |Black(sigma(K)) - C(K)| / max(C(K), 1) at grid nodes
PDF_TOL = 1e-12  # |p_true - pdf| / max pdf on the window
CIRCLE_TOL = 1e-12  # anchor distance to the circle, relative to its radius
DELTA_TOL = 1e-12  # anchor N(-d1) against its target
KL_FLOOR = -1e-12  # round-off below zero (LogNormal vs vanna-volga: -1.8e-16)
FLAT_TOL = 1e-11  # LogNormal: smile vol against s/sqrt(T)
CENTRE_TOL = 1e-12  # LogNormal: circle centre offset, relative to its radius
KL_LOGNORMAL_TOL = 1e-12  # LogNormal: |kl_circle|
FIT_MU_TOL = 1e-9  # LogNormal: best_lognormal mu, relative to max(1, |mu|)
# best_lognormal fits on a grid cut at the 1e-5 quantiles, which shrinks s
# by about 2e-4 of itself.
FIT_S_TOL = 1e-3
CURVATURE_TOL = 1e-5  # LogNormal: kappa_E * radius against 1


@dataclass(frozen=True)
class Case:
    name: str
    dist: sg.Distribution


def _draw(rng: np.random.Generator, family: str, u: float) -> sg.Distribution:
    """One distribution with market-like width (annual vol about 8-45 %).

    ``u`` in (0, 1) places the parameter that sets the width, and so most
    of the op's cost, within its range; the other parameters are uniform.
    """
    if family == "Gamma":
        vol = 0.10 + 0.35 * u
        fwd = rng.uniform(1.0, 10.0)
        kappa = 1.0 / (vol * vol)
        return sg.Gamma(kappa=kappa, theta=fwd / kappa)
    if family == "LogNormal":
        return sg.LogNormal(mu=rng.uniform(-0.5, 2.5), s=0.08 + 0.37 * u)
    if family == "Normal":
        mu = rng.uniform(2.0, 20.0)
        return sg.Normal(mu=mu, s=mu * (0.08 + 0.22 * u))
    if family == "StudentT":
        return sg.StudentT(mu=rng.uniform(3.0, 12.0), nu=3.0 + 7.0 * u)
    a = rng.uniform(1.0, 5.0)
    return sg.Uniform(a=a, b=a * (1.5 + 2.0 * u))


def _is_window_fault(exc: Exception) -> bool:
    return isinstance(exc, sg.DomainTooNarrow) and "exceeds smile domain" in str(exc)


def study(case: Case):
    """The op: the full study of one distribution, then its curvature profile."""
    report = wf.distribution_report(case.dist)
    profile = an.curvature_profile(report.curve, circle=report.circle)
    return report, profile


class Families:
    min_rounds = 2  # at least 100 timed ops per run, so that ten lie beyond p90
    reference = calibration.Kernel

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        # Draw i of a family sits in the i-th of DRAWS_PER_FAMILY equal
        # strata of its width range, so every seed spans the range alike.
        self.draws = [
            Case(f"{fam.lower()}_{i}", _draw(self.rng, fam, self._u(i)))
            for i in range(DRAWS_PER_FAMILY)
            for fam in FAMILIES
        ]
        self.screened: list[str] = []
        self.kl_circle_gamma: float | None = None

    def _u(self, stratum: int) -> float:
        return (stratum + self.rng.uniform()) / DRAWS_PER_FAMILY

    def prepare(self) -> list[Case]:
        """Warm up on every case; redraw seeded draws that hit the window fault.

        The fault is deterministic per parameter set, so a draw that hits it
        would fail on some seeds only and make the failed share depend on the
        seed.  It is replaced by a fresh draw of the same family; the fault
        stays measured through the fixed ``FAULT`` cases.
        """
        for _, dist in REFERENCE + FAULT:
            try:
                study(Case("warm", dist))
            except sg.SmileGeoError:
                pass
        cases = []
        for i, case in enumerate(self.draws):
            family, stratum = type(case.dist).__name__, i // len(FAMILIES)
            for _ in range(REDRAW_LIMIT):
                try:
                    study(case)
                    break
                except sg.SmileGeoError as exc:
                    if not _is_window_fault(exc):
                        break  # any other failure stays in and is counted
                    self.screened.append(f"{case.name}: {case.dist!r}")
                    case = Case(case.name, _draw(self.rng, family, self._u(stratum)))
            cases.append(case)
        return [Case(n, d) for n, d in REFERENCE + FAULT] + cases

    def run(self, case: Case):
        return study(case)

    trace_op = run

    def notes(self) -> list[str]:
        return [f"screened out (window-grid fault): {s}" for s in self.screened]

    def check(self, case: Case, out) -> list[str]:
        report, profile = out
        problems = []
        dist = case.dist

        def need(ok, what):
            if not ok:
                problems.append(f"{case.name}: {what}")

        # Repricing at interior grid nodes, where the spline passes through
        # the inverted vols: Black at sigma(K) against the partial
        # expectation of the family's density, both computed here.
        smile, ms = report.smile, report.market
        n = sm.DEFAULT_GRID_POINTS
        idx = np.unique(np.round(np.linspace(1, n - 2, 16)).astype(int))
        nodes = np.exp(np.linspace(math.log(smile.k_lo), math.log(smile.k_hi), n))[idx]
        vols = np.asarray(smile.vol(nodes))
        disc = math.exp(-ms.dom_rate * ms.tenor)
        ref = disc * partial_expectation(dist, nodes)
        err = np.max(np.abs(black_call(ms, nodes, vols) - ref) / np.maximum(ref, 1.0))
        need(err <= REPRICE_TOL, f"repricing error {err:.3g} > {REPRICE_TOL:g}")

        grid = report.window_grid
        pdf = scipy_pdf(dist, grid)
        err = np.max(np.abs(report.p_true.values - pdf)) / np.max(pdf)
        need(err <= PDF_TOL, f"p_true off the scipy.stats pdf by {err:.3g}")

        # The fitted circle passes through the anchors, mapped here.
        ctx, circle = report.ctx, report.circle
        for anchor in report.anchors:
            x, y = polar_point(anchor.strike, anchor.vol, ctx.atm_rn, ctx.radius_scale)
            gap = abs(math.hypot(x - circle.center[0], y - circle.center[1]) - circle.radius)
            need(gap <= CIRCLE_TOL * circle.radius, f"anchor {anchor.target} off circle by {gap:.3g}")
            nd1 = float(ndtr(-d1(ms, anchor.strike, anchor.vol)))
            need(abs(nd1 - anchor.target) <= DELTA_TOL, f"anchor {anchor.target} at N(-d1)={nd1:.12g}")

        negative = bool(np.any(report.p_circle.values < 0.0))
        need((report.margin < 0.0) == negative, f"margin {report.margin:.3g} but negative={negative}")
        for label in ("kl_circle", "kl_vanna_volga", "kl_best_lognormal"):
            kl = getattr(report, label)
            need(math.isfinite(kl.kl_nats) and kl.kl_nats >= KL_FLOOR, f"{label} = {kl.kl_nats!r}")
            need(kl.pseudo == (kl.clamped_fraction > 0.0), f"{label} pseudo flag disagrees")
        need(
            profile.kappa_e.shape == profile.arc.shape == profile.kappa_s.shape
            and np.mean(np.isfinite(profile.kappa_e)) > 0.9,
            "curvature profile malformed",
        )

        if isinstance(dist, sg.LogNormal):
            sigma = dist.s / math.sqrt(ms.tenor)
            need(np.max(np.abs(vols - sigma)) <= FLAT_TOL, "LogNormal smile is not flat")
            offset = math.hypot(*circle.center)
            need(offset <= CENTRE_TOL * circle.radius, f"LogNormal circle centre off by {offset:.3g}")
            kl = report.kl_circle.kl_nats
            need(abs(kl) <= KL_LOGNORMAL_TOL, f"LogNormal kl_circle = {kl:.3g}")
            fit = report.best_lognormal_fit
            need(
                abs(fit.mu - dist.mu) <= FIT_MU_TOL * max(1.0, abs(dist.mu))
                and abs(fit.s - dist.s) <= FIT_S_TOL * dist.s,
                f"best_lognormal gave ({fit.mu!r}, {fit.s!r})",
            )
            bend = np.nanmax(np.abs(profile.kappa_e * circle.radius - 1.0))
            need(bend <= CURVATURE_TOL, f"LogNormal curvature off 1/radius by {bend:.3g}")

        # The paper's orderings on its reference cases.
        kl_c = report.kl_circle.kl_nats
        if case.name == "gamma":
            self.kl_circle_gamma = kl_c
            need(kl_c < report.kl_vanna_volga.kl_nats, "gamma: circle KL not below vanna-volga")
            need(kl_c < report.kl_best_lognormal.kl_nats, "gamma: circle KL not below log-normal")
        elif case.name == "uniform":
            need(
                self.kl_circle_gamma is not None and kl_c > self.kl_circle_gamma,
                "uniform: circle KL not above gamma's",
            )
        elif case.name == "student_negative":
            need(report.margin < 0.0 and negative, "student_negative: density not negative")
            need(report.kl_circle.pseudo, "student_negative: KL not flagged pseudo")
        return problems


def setup(seed: int, shipped, workdir) -> Families:
    """Draw the inputs; the shipped files and the work directory are not used."""
    return Families(seed)


# ----------------------------------------------------------------------
# Reference computations made apart from smilegeo
# ----------------------------------------------------------------------

def d1(ms, strike, vol):
    total = vol * math.sqrt(ms.tenor)
    return (np.log(ms.spot / strike) + (ms.dom_rate - ms.for_rate) * ms.tenor) / total + 0.5 * total


def black_call(ms, strike, vol):
    """e^{-rT} (F N(d1) - K N(d2))."""
    fwd = ms.spot * math.exp((ms.dom_rate - ms.for_rate) * ms.tenor)
    a = d1(ms, strike, vol)
    b = a - vol * math.sqrt(ms.tenor)
    return math.exp(-ms.dom_rate * ms.tenor) * (fwd * ndtr(a) - strike * ndtr(b))


def partial_expectation(dist, strike):
    """E[(X - K)^+] as the closed-form integral of the density via scipy.stats."""
    k = np.asarray(strike, dtype=float)
    if isinstance(dist, sg.LogNormal):
        mean = math.exp(dist.mu + 0.5 * dist.s**2)
        upper = stats.lognorm(dist.s, scale=math.exp(dist.mu + dist.s**2)).sf(k)
        return mean * upper - k * stats.lognorm(dist.s, scale=math.exp(dist.mu)).sf(k)
    if isinstance(dist, sg.Gamma):
        kt = dist.kappa * dist.theta
        return kt * stats.gamma(dist.kappa + 1.0, scale=dist.theta).sf(k) - k * stats.gamma(
            dist.kappa, scale=dist.theta
        ).sf(k)
    if isinstance(dist, sg.Normal):
        z = (dist.mu - k) / dist.s
        return (dist.mu - k) * stats.norm.cdf(z) + dist.s * stats.norm.pdf(z)
    if isinstance(dist, sg.StudentT):
        t = stats.t(dist.nu)
        u = k - dist.mu
        return (dist.nu + u * u) / (dist.nu - 1.0) * t.pdf(u) - u * t.sf(u)
    a, b = dist.a, dist.b
    inside = (b - np.clip(k, a, b)) ** 2 / (2.0 * (b - a))
    return np.where(k < a, 0.5 * (a + b) - k, inside)


def scipy_pdf(dist, x):
    """The family's density restricted to x > 0, renormalised there."""
    if isinstance(dist, sg.LogNormal):
        return stats.lognorm(dist.s, scale=math.exp(dist.mu)).pdf(x)
    if isinstance(dist, sg.Gamma):
        return stats.gamma(dist.kappa, scale=dist.theta).pdf(x)
    if isinstance(dist, sg.Normal):
        law = stats.norm(dist.mu, dist.s)
    elif isinstance(dist, sg.StudentT):
        law = stats.t(dist.nu, loc=dist.mu)
    else:
        return stats.uniform(dist.a, dist.b - dist.a).pdf(x)
    return law.pdf(x) / law.sf(0.0)


def polar_point(strike, vol, atm, radius_scale):
    """Stereographic angle 2 atan(ln(K/atm)/R) - pi/2 at radius R + vol."""
    phi = 2.0 * math.atan(math.log(strike / atm) / radius_scale) - 0.5 * math.pi
    rho = radius_scale + vol
    return rho * math.cos(phi), rho * math.sin(phi)
