"""Benchmark of smilegeo: the families, surfaces and cli workloads.

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
It prints a summary, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  Times are calibrated: each is scaled by reference work timed
next to it (calibration.py).  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import tracing

# One BLAS thread: the load is one process running one op at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED = (
    ROOT / "data" / "synthetic_circle_surface.csv",
    ROOT / "data" / "synthetic_gamma_surface.csv",
)
WORKLOADS = {"families": "families", "surfaces": "surfaces", "cli": "cli_runs"}
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
)
SETUP_SAMPLES = 3  # this process's own set-up plus fresh-process probes
PROCESS_SAMPLES = 3  # per process probe of the traced run


class Tally:
    """Ops attempted and failed, latencies of completed ops, check findings."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.failed_items: dict[tuple[str, str], str] = {}
        self.latencies: list[float] = []  # calibrated seconds, completed ops
        self.wall: list[float] = []  # the same ops' wall-clock seconds
        self.busy = 0.0  # wall-clock seconds inside ops, failed ones included
        self.calibrated_busy = 0.0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.failed_items.update(other.failed_items)
        self.latencies += other.latencies
        self.wall += other.wall
        self.busy += other.busy
        self.calibrated_busy += other.calibrated_busy
        self.problems += other.problems


def run_round(wl, items, op, tally: Tally, reference, rec=None) -> None:
    """Each item once, timed one op at a time; checks run outside the timer.

    Each op's time is calibrated by the reference samples taken right
    before and right after it.
    """
    after = reference.sample()
    for item in items:
        before = after
        if rec is not None:
            rec.start_op()
        t0 = time.perf_counter()
        try:
            out = op(item)
        except Exception as exc:  # a failed op is counted, and the run goes on
            ok = False
            cls = type(exc).__name__
            tally.failures[cls] += 1
            tally.failed_items[(item.name, cls)] = str(exc)
        else:
            ok = True
        dt = time.perf_counter() - t0
        if rec is not None:
            dt = rec.finish_op(ok)
        after = reference.sample()
        factor = calibration.factor(reference, before, after)
        tally.attempted += 1
        tally.busy += dt
        tally.calibrated_busy += dt * factor
        if ok:
            if rec is not None:
                rec.factors.append(factor)
            tally.latencies.append(dt * factor)
            tally.wall.append(dt)
            tally.problems += wl.check(item, out)


def measure(wl, items, seconds: float) -> Tally:
    """Whole rounds until the ops have taken ``seconds``."""
    tally, rounds, reference = Tally(), 0, wl.reference()
    while tally.busy < seconds or rounds < wl.min_rounds:
        run_round(wl, items, wl.run, tally, reference)
        rounds += 1
    return tally


def measure_traced(wl, items, seconds: float, rec):
    """Untraced and traced rounds in turn, for the overhead of the spans.

    Traced ops run in this process (for ``cli``, as ``main(argv)``), so the
    in-process kernel calibrates them.
    """
    plain, traced, rounds, kernel = Tally(), Tally(), 0, calibration.Kernel()
    while plain.busy + traced.busy < seconds or rounds < 2 * wl.min_rounds:
        if rounds % 2:
            undo = tracing.install(rec)
            try:
                run_round(wl, items, wl.trace_op, traced, kernel, rec)
            finally:
                tracing.uninstall(undo)
        else:
            run_round(wl, items, wl.trace_op, plain, kernel)
        rounds += 1
    return plain, traced


def calibrated_process_ms(argv) -> float:
    """Calibrated wall time of one process run to exit, in ms."""
    reference = calibration.ReferenceProcess()
    before = reference.sample()
    ms = calibration.process_ms(argv)
    return ms * calibration.factor(reference, before, reference.sample())


def timed_setup(workload: str, seed: int):
    """The workload, and its calibrated set-up time in seconds."""
    reference = calibration.ReferenceProcess()
    before = reference.sample()
    t0 = time.perf_counter()
    wl = load(workload, seed)
    seconds = time.perf_counter() - t0
    return wl, seconds * calibration.factor(reference, before, reference.sample())


def setup_probe_seconds(workload: str, seed: int) -> float:
    argv = [sys.executable, str(Path(__file__)), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def use_checkout() -> None:
    """Import smilegeo from the checkout's src/, here and in child processes."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )


def load(workload: str, seed: int):
    """Import smilegeo and make the inputs: the set-up that setup_s times."""
    module = importlib.import_module(WORKLOADS[workload])
    return module.setup(seed, SHIPPED, ROOT / ".bench_build" / f"perfbench-{os.getpid()}")


def percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(wl, tally: Tally, setup_s: float) -> dict[str, float]:
    peak_rss = getattr(wl, "peak_rss_mib", None)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(tally.latencies) / tally.calibrated_busy,
        "op_ms_p50": statistics.median(tally.latencies) * 1e3,
        "op_ms_p90": percentile_ms(tally.latencies, 90),
        "peak_rss_mib": peak_rss() if peak_rss else
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: Tally, traced: Tally, rec) -> dict[str, float]:
    figures = tracing.layer_figures(rec.ops, rec.factors)
    for name, code in (("cli.interpreter", "pass"), ("cli.import", "import smilegeo.cli")):
        samples = [calibrated_process_ms([sys.executable, "-c", code]) for _ in range(PROCESS_SAMPLES)]
        figures[name] = statistics.median(samples)
    if plain.latencies and traced.latencies:
        figures["trace.overhead"] = (
            statistics.median(traced.latencies) - statistics.median(plain.latencies)
        ) * 1e3
    return {name: figures.get(name[:-3] if unit == "ms" else name, 0.0)
            for name, unit in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "smilegeo" / "__init__.py", *SHIPPED) if not p.is_file()]
    if missing:
        print(f"run.py: not a smilegeo checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    use_checkout()

    wl, setup_s = timed_setup(args.workload, args.seed)
    setup_samples = [setup_s]
    if args.setup_probe:
        print(setup_samples[0])
        return 0
    if not args.trace:
        setup_samples += [setup_probe_seconds(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]

    try:
        items = wl.prepare()
        if args.trace:
            rec = tracing.Recorder()
            plain, traced = measure_traced(wl, items, args.seconds, rec)
            metrics = per_layer(plain, traced, rec)
            units = dict(tracing.PER_LAYER)
            tally = plain
            tally.merge(traced)
        else:
            tally = measure(wl, items, args.seconds)
            metrics = end_to_end(wl, tally, statistics.median(setup_samples))
            units = dict(END_TO_END)
    finally:
        getattr(wl, "close", lambda: None)()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} ops attempted, {tally.failed} failed, "
          f"{len(tally.problems)} check findings; wall-clock op median "
          f"{statistics.median(tally.wall) * 1e3:.6g} ms, calibrated {statistics.median(tally.latencies) * 1e3:.6g} ms")
    for cls, count in sorted(tally.failures.items()):
        print(f"  failed: {count} x {cls}")
    for (name, cls), message in sorted(tally.failed_items.items()):
        print(f"  failed op {name}: {cls}: {message}")
    for note in getattr(wl, "notes", lambda: [])():
        print(f"  {note}")
    for problem in tally.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
