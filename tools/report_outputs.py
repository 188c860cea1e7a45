"""Dump what distribution_report gives for reference and seeded distributions.

Usage: python3 tools/report_outputs.py SRC_ROOT OUT
       python3 tools/report_outputs.py --compare OUT_A OUT_B

SRC_ROOT is the directory that holds the ``smilegeo`` package (a checkout's
``src/``); it is imported in-process.  The cases are the six reference
distributions of the acceptance suite and DRAWS seeded draws of each of the
five families, with market-like widths (annual vol about 8-45 %).

OUT is a JSON file with one record per case: the ends of the smile's
strike grid (``k_lo``, ``k_hi``), the KL window, the anchors (target,
strike, vol), the fitted circle, the three KL values with their
``clamped_fraction``, the non-negativity margin, three accuracy figures, or
the error a case raised, and sha256 hashes of the bytes of:

- each of the densities ``p_true``, ``p_circle`` and ``p_vanna_volga`` on
  the KL window;
- the smile's jet (sigma and its first and second ln-K derivatives) at the
  nodes of its strike grid and at the midpoints between them;
- ``curvature_profile(report.curve, circle=report.circle)``'s ``kappa_e``,
  ``kappa_s``, ``arc`` and ``n_minus_d1``.

The accuracy figures are measured against independent references:

- ``delta_residual``: the worst |N(-d1) - target| at the five strikes the
  report solves (the centre, both ends of the KL window and both circle
  wings), with d1 from the smile's vol at each strike and N from
  ``mpmath.ncdf`` at 50 digits;
- ``round_trip``: the largest |p - pdf| of
  ``density_from_smile(report.smile, window_grid)`` against the
  distribution's own ``pdf`` on the KL window, over the pdf's peak there;
- ``anchor_residual``: the worst |sigma - vol| / vol of the circle's smile
  at its three anchors' strikes, against the anchors' own vols.

Floats are written with ``repr``, so files from two checkouts compare
exactly; an array that moves by one bit changes its hash, where the KL
values may not show it.  ``--compare`` prints, for each numeric field, how
many cases differ, the largest absolute change, the largest change
relative to the field's largest magnitude in its case, and the largest
distance in units in the last place between values of one sign (a value
near zero, such as a centred circle's centre or the KL of a perfect fit,
can change sign); for each hash, how many cases differ; and for each
accuracy figure, its median and worst case in each file.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

DRAWS = 12
SEED = 20240611
ACCURACY = ("delta_residual", "round_trip", "anchor_residual")


def cases(sg):
    yield from (
        ("gamma", sg.Gamma(kappa=5.12, theta=0.64)),
        ("uniform", sg.Uniform(a=2.0109, b=5.4750)),
        ("student_negative", sg.StudentT(mu=3.7322, nu=3.9565)),
        ("student", sg.StudentT(mu=3.7201, nu=7.3824)),
        ("normal", sg.Normal(mu=11.3328, s=3.0)),
        ("lognormal", sg.LogNormal(mu=1.0, s=0.25)),
    )
    rng = np.random.default_rng(SEED)
    for i in range(DRAWS):
        u = (i + rng.uniform()) / DRAWS
        vol = 0.10 + 0.35 * u
        kappa = 1.0 / (vol * vol)
        yield f"gamma_{i}", sg.Gamma(kappa=kappa, theta=rng.uniform(1.0, 10.0) / kappa)
        yield f"lognormal_{i}", sg.LogNormal(mu=rng.uniform(-0.5, 2.5), s=0.08 + 0.37 * u)
        mu = rng.uniform(2.0, 20.0)
        yield f"normal_{i}", sg.Normal(mu=mu, s=mu * (0.08 + 0.22 * u))
        yield f"student_{i}", sg.StudentT(mu=rng.uniform(3.0, 12.0), nu=3.0 + 7.0 * u)
        a = rng.uniform(1.0, 5.0)
        yield f"uniform_{i}", sg.Uniform(a=a, b=a * (1.5 + 2.0 * u))


def record(sg, dist) -> dict:
    try:
        rep = sg.distribution_report(dist)
    except sg.SmileGeoError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    profile = sg.curvature_profile(rep.curve, circle=rep.circle)
    kls = (rep.kl_circle, rep.kl_vanna_volga, rep.kl_best_lognormal)
    return {
        "grid": [rep.smile.k_lo, rep.smile.k_hi],
        "window": list(rep.window),
        "atm_rn": rep.ctx.atm_rn,
        "radius_scale": rep.ctx.radius_scale,
        "anchors": [[a.target, a.strike, a.vol] for a in rep.anchors],
        "circle": [*rep.circle.center, rep.circle.radius],
        "kl": [k.kl_nats for k in kls],
        "clamped": [k.clamped_fraction for k in kls],
        "margin": rep.margin,
        "delta_residual": _delta_residual(sg, rep),
        "round_trip": _round_trip(sg, dist, rep),
        "anchor_residual": _anchor_residual(rep),
        "density_sha256": {
            name: _sha256(getattr(rep, name).values) for name in ("p_true", "p_circle", "p_vanna_volga")
        },
        "jet_sha256": _jet_hashes(sg, dist, rep),
        "curvature_sha256": {
            name: _sha256(getattr(profile, name)) for name in ("kappa_e", "kappa_s", "arc", "n_minus_d1")
        },
    }


def _delta_residual(sg, rep) -> float:
    """Worst |N(-d1) - target| at the report's five solved strikes, in mpmath."""
    import mpmath

    ms = rep.market
    solved = [(0.5, rep.ctx.atm_rn), *zip(sg.smile.ND1_WINDOW, rep.window)]
    solved += [(a.target, a.strike) for a in rep.anchors if a.target != 0.5]
    worst = 0.0
    with mpmath.workdps(50):
        for target, strike in solved:
            total = mpmath.mpf(rep.smile.vol(strike)) * mpmath.sqrt(ms.tenor)
            ln_m = mpmath.log(mpmath.mpf(ms.spot) / strike) + (
                mpmath.mpf(ms.dom_rate) - ms.for_rate
            ) * ms.tenor
            nd1 = mpmath.ncdf(-(ln_m / total + total / 2))
            worst = max(worst, float(abs(nd1 - target)))
    return worst


def _round_trip(sg, dist, rep) -> float:
    """Largest |density_from_smile - pdf| on the KL window, over the pdf's peak."""
    pdf = np.asarray(dist.pdf(rep.window_grid), dtype=float)
    got = sg.density_from_smile(rep.smile, rep.window_grid).values
    return float(np.max(np.abs(got - pdf)) / np.max(pdf))


def _anchor_residual(rep) -> float:
    """Worst |sigma - vol| / vol of the circle's smile at its three anchors."""
    return max(abs(rep.circle_smile.vol(a.strike) - a.vol) / a.vol for a in rep.anchors)


def _jet_hashes(sg, dist, rep) -> dict:
    """Hashes of the smile's sigma and its two ln-K derivatives at the nodes
    of its strike grid and at the midpoints between them."""
    nodes = np.log(sg.smile.strike_grid(dist, rep.market))
    out = {}
    for where, lnk in (("nodes", nodes), ("midpoints", 0.5 * (nodes[:-1] + nodes[1:]))):
        for name, values in zip(("sigma", "dsigma", "d2sigma"), rep.smile.jet_fn(lnk)):
            out[f"{name}_{where}"] = _sha256(values)
    return out


def _sha256(values) -> str:
    """Hex sha256 of the values as little-endian doubles."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def dump(src_root: Path, out: Path) -> None:
    sys.path.insert(0, str(src_root))
    import smilegeo as sg

    doc = {name: record(sg, dist) for name, dist in cases(sg)}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum("error" in rec for rec in doc.values())
    print(f"{len(doc)} cases, {failed} raised, written to {out}")


def _ulps(a, b) -> int:
    """Largest distance in units in the last place between same-sign elements."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = np.signbit(a) == np.signbit(b)
    bits_a, bits_b = np.abs(a[same]).view(np.int64), np.abs(b[same]).view(np.int64)
    return int(np.max(np.abs(bits_a - bits_b), initial=0))


def compare(path_a: Path, path_b: Path) -> None:
    doc_a, doc_b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    if doc_a.keys() != doc_b.keys():
        print("case lists differ")
        return
    fields: dict[str, list[tuple[float, float, int]]] = {}
    hashes: dict[str, list[bool]] = {}
    for name in doc_a:
        rec_a, rec_b = doc_a[name], doc_b[name]
        if "error" in rec_a or "error" in rec_b:
            if rec_a != rec_b:
                print(f"{name}: {rec_a.get('error', 'ok')} -> {rec_b.get('error', 'ok')}")
            continue
        for key in rec_a:
            if key.endswith("_sha256"):
                for name, digest in rec_a[key].items():
                    hashes.setdefault(name, []).append(digest != rec_b[key][name])
                continue
            a, b = np.ravel(rec_a[key]), np.ravel(rec_b[key])
            change = float(np.max(np.abs(a - b)))
            rel = change / max(float(np.max(np.abs(a))), 1e-300)
            fields.setdefault(key, []).append((change, rel, _ulps(a, b)))
    for key, per_case in fields.items():
        change, rel, ulps = (max(col) for col in zip(*per_case))
        moved = sum(c > 0.0 for c, _, _ in per_case)
        print(
            f"{key:14s} {moved:3d} of {len(per_case)} cases differ; at most {change:.2g} "
            f"absolute, {rel:.2g} relative, {ulps} ulp"
        )
    for name, moved in hashes.items():
        print(f"{name:17s} {sum(moved):3d} of {len(moved)} cases differ in their sha256")
    for key in ACCURACY:
        sides = [
            [rec[key] for rec in doc.values() if key in rec] for doc in (doc_a, doc_b)
        ]
        print(f"{key:14s} " + " -> ".join(
            f"median {np.median(v):.2g}, worst {max(v):.2g}" if v else "absent" for v in sides
        ))


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    dump(Path(argv[0]).resolve(), Path(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
