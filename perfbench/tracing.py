"""Spans around calls into smilegeo's public functions, kept in memory.

The traced run wraps each public function listed in ``WRAPPED`` wherever a
smilegeo module (or the benchmark) looks it up by name, so the call tree
recorded is the library's own: nothing is replayed, and the package source
is untouched.  Wrappers are installed only for traced rounds and removed
afterwards, so untraced rounds run the plain functions.

Each span has a name, start, end, parent and op id.  A layer's figure is
its self time (span minus child spans) summed over the op, averaged over
ops; with the op root's own self time as the uncovered remainder, the
layer figures add up to the traced op time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

BACKENDS = {
    "circleshape-smile": "circle",
    "conicshape-smile": "ellipse",
    "vanna-volga-market": "vv_market",
    "vanna-volga-first": "vv_first",
}
VARIANTS = ("circle", "ellipse", "vv_market", "vv_first")

# Per-layer metrics in the order they are printed: (name, unit).  Times are
# ms of self time per op; counts are per op.
LAYER_TIMES = (
    "bsm.implied_vol_grid",
    "distributions.call_price",
    "distributions.density_curve",
    "workflows.distribution_report",
    "workflows.smile_with_coverage",
    "smile.strike_grid",
    "smile.smile_from_distribution",
    "smile.strike_for_delta",
    *(f"smile.density_from_smile.{v}" for v in VARIANTS),
    *(f"smile.vol.{v}" for v in VARIANTS),
    "smile.nonnegativity_margin",
    "georep.context_for_smile",
    "georep.represent",
    "georep.flat_context",
    "georep.smile_from_shape",
    "fitting.fit_circle_to_smile",
    "shapes.circumcircle",
    "shapes.conic_through_5",
    "vanna_volga.vv_smile",
    "analysis.curvature_profile",
    "analysis.kl_divergence",
    "analysis.best_lognormal",
    "surface.parse_surface",
    *(f"surface.complete_expiry.{v}" for v in VARIANTS),
    *(f"surface.discrepancy_table.{v}" for v in VARIANTS),
    "emit.render_csv",
    "emit.render_json",
    "emit.render_svg",
    "cli.main",
)
PROBE_TIMES = ("cli.interpreter", "cli.import")
TRACE_TIMES = ("trace.op", "trace.uncovered", "trace.overhead")
COUNTS = (
    "bsm.strikes_inverted",
    "smile.smile_from_distribution_calls",
    "smile.strike_for_delta_calls",
    "smile.density_points",
    "surface.rows_completed",
    "surface.rows_failed",
)
PER_LAYER = (
    tuple((f"{n}_ms", "ms") for n in LAYER_TIMES + PROBE_TIMES + TRACE_TIMES)
    + tuple((n, "count") for n in COUNTS)
)
UNCOVERED = "trace.uncovered"


def _backend(smile) -> str:
    return BACKENDS.get(smile.label, smile.label)


def _variant(args, kwargs, method_pos: int, vv_pos: int) -> str:
    method = args[method_pos] if len(args) > method_pos else kwargs.get("method", "circle")
    if method != "vanna-volga":
        return method
    vv = args[vv_pos] if len(args) > vv_pos else kwargs.get("vv_variant", "market")
    return f"vv_{vv}"


def _size(pos: int, key: str):
    """Length of the array argument at ``pos`` (or keyword ``key``)."""
    return lambda args, kwargs: len(args[pos] if len(args) > pos else kwargs[key])


def _vol_span(args, kwargs):
    # Only the closed-form backends: the spline smile's vol is evaluated
    # inside delta solves, where it belongs to strike_for_delta.
    backend = BACKENDS.get(args[0].label)
    return None if backend is None else f"smile.vol.{backend}"


# (module, attribute, span name or namer(args, kwargs) -> name | None, size fn)
WRAPPED = (
    ("smilegeo.bsm", "implied_vol_grid", "bsm.implied_vol_grid", _size(1, "strikes")),
    ("smilegeo.distributions", "Distribution.call_price", "distributions.call_price", None),
    ("smilegeo.distributions", "density_curve", "distributions.density_curve", None),
    ("smilegeo.workflows", "distribution_report", "workflows.distribution_report", None),
    ("smilegeo.workflows", "smile_with_coverage", "workflows.smile_with_coverage", None),
    ("smilegeo.smile", "strike_grid", "smile.strike_grid", None),
    ("smilegeo.smile", "smile_from_distribution", "smile.smile_from_distribution", None),
    ("smilegeo.smile", "strike_for_delta", "smile.strike_for_delta", None),
    (
        "smilegeo.smile",
        "density_from_smile",
        lambda a, k: f"smile.density_from_smile.{_backend(a[0])}",
        _size(1, "strikes"),
    ),
    ("smilegeo.smile", "SmileCurve.vol", _vol_span, None),
    ("smilegeo.smile", "nonnegativity_margin", "smile.nonnegativity_margin", None),
    ("smilegeo.georep", "context_for_smile", "georep.context_for_smile", None),
    ("smilegeo.georep", "represent", "georep.represent", None),
    ("smilegeo.georep", "flat_context", "georep.flat_context", None),
    ("smilegeo.georep", "smile_from_shape", "georep.smile_from_shape", None),
    ("smilegeo.fitting", "fit_circle_to_smile", "fitting.fit_circle_to_smile", None),
    ("smilegeo.shapes", "circumcircle", "shapes.circumcircle", None),
    ("smilegeo.shapes", "conic_through_5", "shapes.conic_through_5", None),
    ("smilegeo.vanna_volga", "vv_smile", "vanna_volga.vv_smile", None),
    ("smilegeo.analysis", "curvature_profile", "analysis.curvature_profile", None),
    ("smilegeo.analysis", "kl_divergence", "analysis.kl_divergence", None),
    ("smilegeo.analysis", "best_lognormal", "analysis.best_lognormal", None),
    ("smilegeo.surface", "parse_surface", "surface.parse_surface", None),
    (
        "smilegeo.surface",
        "complete_expiry",
        lambda a, k: f"surface.complete_expiry.{_variant(a, k, 1, 4)}",
        None,
    ),
    (
        "smilegeo.surface",
        "discrepancy_table",
        lambda a, k: f"surface.discrepancy_table.{_variant(a, k, 1, 4)}",
        None,
    ),
    ("smilegeo.emit", "render_csv", "emit.render_csv", None),
    ("smilegeo.emit", "render_json", "emit.render_json", None),
    ("smilegeo.emit", "render_svg", "emit.render_svg", None),
    ("smilegeo.cli", "main", "cli.main", None),
)


class Recorder:
    """Spans of the current op; finished ops are kept for aggregation.

    A span is [name, start, end, parent, size, raised]; parent indexes the
    op's own span list, and the op root is span 0.
    """

    def __init__(self):
        self.ops: list[list[list]] = []
        self.factors: list[float] = []  # calibration factor of each kept op
        self._spans: list[list] | None = None
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return self._spans is not None

    def open(self, name: str, size: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), None, parent, size, False])
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, raised: bool = False) -> None:
        span = self._spans[idx]
        span[2] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def start_op(self) -> None:
        self._spans, self._stack = [], []
        self.open("op")

    def finish_op(self, ok: bool) -> float:
        """Close the root span; keep the op's spans only if it completed."""
        self.close(0)
        spans, self._spans = self._spans, None
        if ok:
            self.ops.append(spans)
        return spans[0][2] - spans[0][1]


def _wrap(fn, name, size, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = name(args, kwargs) if callable(name) else name
        if span is None:
            return fn(*args, **kwargs)
        idx = rec.open(span, size(args, kwargs) if size else 0)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, raised=True)
            raise
        rec.close(idx)
        return out

    return traced


def install(rec: Recorder) -> list:
    """Wrap every ``WRAPPED`` function at each place it is looked up.

    Module-level functions are replaced in every loaded smilegeo module
    whose globals hold them (the defining module and each importer);
    methods are replaced on their class.  Returns what ``uninstall`` needs.
    """
    for modname, _, _, _ in WRAPPED:
        importlib.import_module(modname)
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "smilegeo"]
    undo = []
    for modname, attr, name, size in WRAPPED:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(orig, name, size, rec))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(orig, name, size, rec)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is orig]:
                undo.append((m, key, orig))
                setattr(m, key, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def layer_figures(ops: list[list[list]], factors: list[float]) -> dict[str, float]:
    """Mean per op of each layer's calibrated self time (ms) and of each count.

    Self time of spans not named in ``LAYER_TIMES`` (the op root, and any
    call the table does not name) is the uncovered remainder.
    """
    declared = set(LAYER_TIMES)
    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for spans, factor in zip(ops, factors, strict=True):
        ms = 1e3 * factor
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, size, raised) in enumerate(spans):
            add(name if name in declared else UNCOVERED, (t1 - t0 - child[i]) * ms)
            if name == "bsm.implied_vol_grid":
                add("bsm.strikes_inverted", size)
            elif name.startswith("smile.density_from_smile."):
                add("smile.density_points", size)
            elif name == "smile.strike_for_delta":
                add("smile.strike_for_delta_calls", 1)
            elif name == "smile.smile_from_distribution":
                add("smile.smile_from_distribution_calls", 1)
            elif name.startswith("surface.complete_expiry."):
                add("surface.rows_failed" if raised else "surface.rows_completed", 1)
        add("trace.op", (spans[0][2] - spans[0][1]) * ms)
    n = max(len(ops), 1)
    return {key: value / n for key, value in total.items()}
