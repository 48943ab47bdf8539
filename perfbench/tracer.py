"""Outside-in span tracer for the phasekit layers.

The tracer replaces the public functions of ``numerics``, ``receivers``,
``helstrom``, ``montecarlo``, ``scan``, ``_parallel`` and ``cli`` with
wrappers that record one span per call: layer name, start, end, parent span
and operation id. The package itself is not modified.

The modules import each other's functions by name (``from .numerics import
poisson_tail_cutoff``), so a function is bound in several module namespaces
at once. Every binding that is the original function object is replaced,
otherwise calls made through the rebound name would never be seen. Pool
threads do not inherit the caller's span, so ``parallel_map`` is wrapped to
hand each item span the caller's context. ``Tracer.uninstall`` (or leaving
the ``with`` block) puts every original function back.

Spans are kept in memory; ``summarize`` turns the spans of one pass into
per-layer metrics, where a layer's self time is its span time minus the part
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

PACKAGE = "phasekit"
MODULES = ("numerics", "receivers", "helstrom", "montecarlo", "scan", "_parallel", "cli")


def _figure_layer(args, kwargs, parent):
    fig_id = kwargs.get("fig_id", args[0] if args else None)
    return f"scan.figure{fig_id}"


def _table_layer(default):
    # a figure-table function called from figure_table belongs to that figure
    def layer(args, kwargs, parent):
        if parent is not None and parent.layer.startswith("scan.figure"):
            return parent.layer
        return default

    return layer


def _ml_cells(args, kwargs, result):
    meta = result.metadata
    if "n_cut" not in meta:
        return {"cells": 0}
    return {"cells": (meta["n_cut"] + 1) * (meta["m_cut"] + 1)}


def _block_entries(args, kwargs, result):
    # sum over blocks N = 0 .. n_max of (N + 1)^2 matrix entries, computed
    # from the basis size rather than measured
    n = result.n_max
    return {"block_entries": (n + 1) * (n + 2) * (2 * n + 3) // 6}


def _pmf_elements(args, kwargs, result):
    # values produced: the pmf vector's length, or 1 for a scalar
    return {"elements": int(getattr(result, "size", 1))}


# (module, function) -> (layer or layer(args, kwargs, parent), counter or None);
# public functions not listed here land in "<module>.other"
LAYERS = {
    ("numerics", "poisson_tail_cutoff"): ("numerics.cutoff", None),
    ("numerics", "poisson_upper_tail"): ("numerics.cutoff", None),
    ("numerics", "log_poisson_pmf_array"): ("numerics.pmf", _pmf_elements),
    ("numerics", "log_factorial"): ("numerics.pmf", _pmf_elements),
    ("numerics", "log_poisson_pmf"): ("numerics.pmf", _pmf_elements),
    ("numerics", "eigenvalues_symmetric"): (
        "numerics.eigen",
        lambda a, k, r: {"sweeps": int(r.sweeps)},
    ),
    ("receivers", "p_beamsplitter_ml"): ("receivers.ml", _ml_cells),
    ("receivers", "p_homodyne_generalized"): ("receivers.homodyne", None),
    ("receivers", "best_angle"): ("receivers.best_angle", None),
    ("helstrom", "build_rho_diff"): ("helstrom.build", _block_entries),
    ("helstrom", "p_err_optimal"): ("helstrom.optimal", None),
    ("helstrom", "small_alpha_spectrum"): ("helstrom.series", None),
    ("helstrom", "small_alpha_series_cutoff"): ("helstrom.series", None),
    ("helstrom", "d_err_small_alpha"): ("helstrom.series", None),
    ("montecarlo", "run_trials"): (
        "montecarlo.run",
        lambda a, k, r: {"trials": int(r.trials)},
    ),
    ("scan", "figure_table"): (_figure_layer, lambda a, k, r: {"rows": len(r.rows)}),
    ("scan", "figure_kennedy_ratios"): (_table_layer("scan.figure1"), None),
    ("scan", "figure_homodyne_ratios"): (_table_layer("scan.figure2"), None),
    ("scan", "figure_angle_sweep"): (_table_layer("scan.angle_sweep"), None),
    ("scan", "figure_optimal_ratio"): (_table_layer("scan.figure5"), None),
    ("scan", "write_csv"): ("scan.write", None),
    ("scan", "write_json"): ("scan.write", None),
    ("scan", "format_value"): ("scan.write", None),
    ("cli", "main"): ("cli.main", None),
}

# layers whose element counts are taken only at the outermost span, so that
# log_factorial called from log_poisson_pmf_array is not counted twice
_NON_REENTRANT_COUNTS = {"numerics.pmf"}


class Span:
    __slots__ = ("id", "parent", "layer", "op", "item", "thread", "start", "end", "counts")

    def __init__(self, span_id, parent, layer, op, item=False):
        self.id = span_id
        self.thread = threading.get_ident()  # spans are created in the thread they time
        self.parent = parent
        self.layer = layer
        self.op = op
        self.item = item
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "layer": self.layer,
            "op": self.op,
            "item": self.item,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the package's public functions and records spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # context: the current span and operation id of this thread
    def _context(self):
        return getattr(self._local, "span", None), getattr(self._local, "op", None)

    def _set_context(self, span, op) -> None:
        self._local.span = span
        self._local.op = op

    def begin_op(self, op_id) -> None:
        """Tag the spans that follow in this thread with an operation id."""
        self._set_context(None, op_id)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, layer, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, op = tracer._context()
            name = layer(args, kwargs, parent) if callable(layer) else layer
            span = Span(next(tracer._ids), parent, name, op)
            tracer._set_context(span, op)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._set_context(parent, op)
                tracer.spans.append(span)
            if count is not None and not (
                name in _NON_REENTRANT_COUNTS and parent is not None and parent.layer == name
            ):
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def _wrap_parallel_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_map(item_fn, items):
            parent, op = tracer._context()
            items = list(items)
            map_span = Span(next(tracer._ids), parent, "parallel.map", op)
            map_span.counts = {"items": len(items)}
            # item work belongs to the layer that asked for the map
            item_layer = parent.layer if parent is not None else "parallel.item"

            def traced_item(x):
                saved = tracer._context()
                span = Span(next(tracer._ids), map_span, item_layer, op, item=True)
                tracer._set_context(span, op)
                span.start = time.perf_counter()
                try:
                    return item_fn(x)
                finally:
                    span.end = time.perf_counter()
                    tracer._set_context(*saved)
                    tracer.spans.append(span)

            tracer._set_context(map_span, op)
            map_span.start = time.perf_counter()
            try:
                return fn(traced_item, items)
            finally:
                map_span.end = time.perf_counter()
                tracer._set_context(parent, op)
                tracer.spans.append(map_span)

        return traced_map

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        # a missing layer module fails the traced run rather than reading 0
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for name, fn in _public_functions(module):
                if short == "_parallel" and name == "parallel_map":
                    wrappers[id(fn)] = (fn, self._wrap_parallel_map(fn))
                    continue
                layer, count = LAYERS.get((short, name), (f"{short.lstrip('_')}.other", None))
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, count))
        # rebind every name that refers to an original, in every module of
        # the package (including the re-exports in __init__)
        package = importlib.import_module(PACKAGE)
        namespaces = [package] + [m for _, m in sorted(_package_modules().items())]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, hit[1])
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def patched(self) -> list[tuple[str, str]]:
        return [(m.__name__, n) for m, n, _ in self._patches]


def _package_modules() -> dict:
    prefix = PACKAGE + "."
    return {n: m for n, m in list(sys.modules.items()) if n.startswith(prefix) and m is not None}


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _has_ancestor(span, layer) -> bool:
    p = span.parent
    while p is not None:
        if p.layer == layer and not p.item:
            return True
        p = p.parent
    return False


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one pass.

    Returns ``<layer>.calls`` (item spans of a parallel map are not calls),
    ``<layer>.self_s``, ``<layer>.<counter>`` for every recorded counter, and
    the derived names used by the benchmark: ``receivers.best_angle.evals``,
    ``helstrom.block_entries``, ``helstrom.bytes_computed``,
    ``montecarlo.blocks``, ``montecarlo.trials``, ``scan.rows``,
    ``parallel.queue_wait_s`` and ``cli.main_s``.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        add(f"{s.layer}.self_s", selfs[s.id])
        if not s.item:
            add(f"{s.layer}.calls", 1)
        if s.counts:
            for key, value in s.counts.items():
                add(f"{s.layer}.{key}", value)
    evals = sum(
        1 for s in spans
        if s.layer == "receivers.ml" and _has_ancestor(s, "receivers.best_angle")
    )
    blocks = sum(
        s.counts["items"] for s in spans
        if s.layer == "parallel.map" and s.parent is not None
        and s.parent.layer == "montecarlo.run"
    )
    # every item span is the child of its map span
    queue_wait = sum(s.start - s.parent.start for s in spans if s.item)
    entries = out.get("helstrom.build.block_entries", 0)
    out.update(
        {
            "receivers.best_angle.evals": evals,
            "helstrom.block_entries": entries,
            # 8-byte floats per entry, from array sizes, not a measured transfer
            "helstrom.bytes_computed": 8 * entries,
            "montecarlo.blocks": blocks,
            "montecarlo.trials": out.get("montecarlo.run.trials", 0),
            "scan.rows": sum(v for k, v in out.items() if k.startswith("scan.figure") and k.endswith(".rows")),
            "parallel.queue_wait_s": queue_wait,
            "cli.main_s": sum(s.end - s.start for s in spans if s.layer == "cli.main"),
        }
    )
    return out


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")


def is_count(metric: str) -> bool:
    """True for work counts, which must repeat exactly from pass to pass."""
    return not metric.endswith("_s")
