"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric named in BENCHMARK.json is printed with its unit.  Then feeds
deliberately wrong outputs into each workload's checks and asserts that the
checks catch them.  Exits non-zero on the first assertion that fails.
"""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import types

import numpy as np

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_json(workload: str, trace: int):
    argv = [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300,
                         cwd=bench.ROOT)
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def test_every_metric_printed():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, res = run_json(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True, text
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert f"  {name} = " in text and text.split(f"  {name} = ")[1].split("\n")[0].endswith(unit)
            failed, per = families_failed_share() if workload == "families" else (0, 1)
            assert res["failed"] * per == failed * res["attempted"], (workload, res["failed"])
            if trace:
                check_trace(workload, {n: m["value"] for n, m in res["metrics"].items()})
            print(f"PASS {workload} trace={trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")


def families_failed_share() -> tuple[int, int]:
    """The fixed window-fault cases fail in every round, and nothing else."""
    import families as F

    return len(F.FAULT), len(F.REFERENCE) + len(F.FAULT) + len(F.FAMILIES) * F.DRAWS_PER_FAMILY


def check_trace(workload: str, m: dict[str, float]):
    """Layer self times plus the uncovered remainder make up the traced op."""
    import tracing

    layers = sum(m[f"{name}_ms"] for name in tracing.LAYER_TIMES)
    total = layers + m["trace.uncovered_ms"]
    assert math.isclose(total, m["trace.op_ms"], rel_tol=1e-9), (workload, total, m["trace.op_ms"])
    if workload == "families":
        assert m["bsm.strikes_inverted"] > 0 and m["bsm.implied_vol_grid_ms"] > 0
    else:
        assert m["bsm.strikes_inverted"] == 0, workload
    if workload == "surfaces":
        assert m["surface.rows_completed"] == 8 * 14 and m["surface.rows_failed"] == 0


def caught(problems: list[str], needle: str) -> bool:
    return any(needle in p for p in problems)


def test_families_checks_catch_wrong_outputs():
    import families as F

    wl = F.setup(3, bench.SHIPPED, None)
    for name, dist in F.REFERENCE:
        if name in ("gamma", "lognormal"):
            case = F.Case(name, dist)
            report, profile = F.study(case)
            assert wl.check(case, (report, profile)) == [], name
    smile = report.smile
    off = dataclasses.replace(smile, vol_fn=lambda lnk: smile.vol_fn(lnk) + 1e-6)
    assert caught(wl.check(case, (dataclasses.replace(report, smile=off), profile)), "repricing")
    flipped = dataclasses.replace(report.p_circle, values=-report.p_circle.values)
    assert caught(wl.check(case, (dataclasses.replace(report, p_circle=flipped), profile)), "margin")
    cx, cy = report.circle.center
    moved = dataclasses.replace(report.circle, center=(cx + 1e-6, cy))
    assert caught(wl.check(case, (dataclasses.replace(report, circle=moved), profile)), "off circle")
    negative = dataclasses.replace(report.kl_vanna_volga, kl_nats=-1e-9)
    assert caught(wl.check(case, (dataclasses.replace(report, kl_vanna_volga=negative), profile)), "kl_vanna_volga")
    print("PASS families checks catch a vol off by 1e-6, a flipped density, a moved circle, a negative KL")


def test_surfaces_checks_catch_wrong_outputs():
    import surfaces as S

    wl = S.setup(3, bench.SHIPPED, None)
    surface = wl.surfaces[0]
    out = S.complete(surface)
    assert wl.check(surface, out) == []
    res = out["circle"]

    vols = [list(v) for v in res.vols]
    vols[3][0] += 1e-6
    bad = {**out, "circle": dataclasses.replace(res, vols=[tuple(v) for v in vols])}
    assert caught(wl.check(surface, bad), "vs circle")

    nan_density = types.SimpleNamespace(values=np.full(S.DENSITY_POINTS, math.nan))
    bad = {**out, "circle": dataclasses.replace(res, densities=[nan_density] + res.densities[1:])}
    assert caught(wl.check(surface, bad), "density not finite")

    csv_bytes, json_bytes = res.rendered["completed"]
    at = csv_bytes.index(b"0.", csv_bytes.index(b"\n")) + 4  # a digit of the first vol
    bumped = str((int(chr(csv_bytes[at])) + 1) % 10).encode()
    wrong = csv_bytes[:at] + bumped + csv_bytes[at + 1:]
    rendered = {**res.rendered, "completed": (wrong, json_bytes)}
    bad = {**out, "circle": dataclasses.replace(res, rendered=rendered)}
    assert caught(wl.check(surface, bad), "CSV")
    print("PASS surfaces checks catch a vol off by 1e-6, a NaN density, a changed CSV digit")


def test_cli_checks_catch_wrong_outputs():
    import cli_runs as C

    wl = C.setup(3, bench.SHIPPED, bench.ROOT / ".bench_build" / "perfbench-selftest")
    plan = wl.prepare()
    try:
        by_fmt = {inv.fmt: inv for inv in plan}
        for inv in by_fmt.values():
            assert wl.check(inv, wl.run(inv)) == [], inv.name
        inv = by_fmt["json"]
        out = wl.trace_op(inv)
        assert wl.check(inv, out) == [], "in-process output differs from the cold one"
        assert caught(wl.check(inv, out.replace(b"smilegeo/1", b"smilegeo/0")), "schema")
        svg = by_fmt["svg"]
        assert caught(wl.check(svg, wl.run(svg)[:-20]), "well-formed")
        assert caught(wl.check(svg, wl.run(svg) + b"<!-- -->"), "differs from the first run")
        missing = dataclasses.replace(inv, name="missing", argv=(inv.argv[0], "no-such.csv"))
        try:
            wl.run(missing)
        except C.CliFailed as exc:
            assert str(exc).startswith("exit 2"), exc
        else:
            raise AssertionError("a failing invocation was not reported")
    finally:
        wl.close()
    print("PASS cli checks catch a wrong schema, malformed SVG, changed bytes, a non-zero exit")


if __name__ == "__main__":
    bench.use_checkout()
    test_families_checks_catch_wrong_outputs()
    test_surfaces_checks_catch_wrong_outputs()
    test_cli_checks_catch_wrong_outputs()
    test_every_metric_printed()
