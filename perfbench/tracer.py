"""Outside-in layer tracer for the pipeline benchmark.

The program is not instrumented for this: the tracer replaces the public
entry points of each ``repro`` module (see :data:`LAYERS`) with timing
wrappers for the length of one traced pass, then puts the originals back.
A module-level function is replaced in every loaded ``repro`` module that
holds it, so ``from .parser import parse as parse_js`` call sites are
covered too; a method is replaced on each class that defines it.

Every outermost call into a layer opens a span: layer, start, end and the
index of the enclosing span.  A call into a layer from inside the same
layer (``concurrent`` calling ``happens_before``, ``add_edge`` calling
``add_operation``, nested ``execute_body``) stays inside the outer span, so
a layer's span count is the number of times the pipeline entered it.
Spans live in flat arrays for the whole pass and are reduced at the end:
a layer's self time is the sum of its span durations minus the parts
covered by child spans.  Counts are taken at the same boundaries, from
the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: ``(layer, entry points)``; an entry point is ``"module:qualname"``.
#: ``repro.js.lexer`` … ``repro.core.trace`` are the ``src/repro`` module
#: boundaries.  ``browser.task`` is the body of every event-loop task
#: outside the other layers (page orchestration in ``browser/page.py``,
#: timers, XHR), so that ``browser.event_loop`` keeps only the scheduler's
#: own work.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("js.lexer", ("repro.js.lexer:tokenize",)),
    ("js.parser", ("repro.js.parser:parse",)),
    (
        "js.interpreter",
        (
            "repro.js.interpreter:Interpreter.execute_body",
            "repro.js.interpreter:Interpreter.call_function",
        ),
    ),
    (
        "html",
        (
            "repro.html.tokenizer:tokenize_html",
            "repro.html.parser:IncrementalHtmlParser.next_unit",
        ),
    ),
    ("browser.task", ()),
    (
        "browser.instrument",
        (
            "repro.browser.instrument:Monitor.record",
            "repro.browser.instrument:Monitor.new_operation",
        ),
    ),
    ("browser.event_loop", ("repro.browser.event_loop:EventLoop.step",)),
    (
        "browser.network",
        (
            "repro.browser.network:NetworkSimulator.fetch",
            "repro.browser.network:ConnectionNetworkSimulator.fetch",
        ),
    ),
    ("dom", ("repro.dom.document:Document.insert",)),
    (
        "core.detector",
        (
            "repro.core.detector:RaceDetector.on_access",
            "repro.core.full_detector:FullHistoryDetector.on_access",
        ),
    ),
    (
        "core.hb.maintain",
        tuple(
            f"{module}:{cls}.{method}"
            for module, cls in (
                ("repro.core.hb.graph", "HBGraph"),
                ("repro.core.hb.backend", "ChainBackedGraph"),
                ("repro.core.hb.backend", "CrosscheckGraph"),
                ("repro.core.hb.chains", "IncrementalChainClocks"),
            )
            for method in ("add_operation", "add_edge")
        ),
    ),
    (
        "core.hb.query",
        tuple(
            f"{module}:{cls}.{method}"
            for module, cls, methods in (
                ("repro.core.hb.graph", "HBGraph", ("happens_before", "concurrent", "chc")),
                ("repro.core.hb.backend", "ChainBackedGraph", ("happens_before", "concurrent")),
                ("repro.core.hb.backend", "CrosscheckGraph", ("happens_before", "concurrent")),
                ("repro.core.hb.chains", "IncrementalChainClocks", ("happens_before", "concurrent", "chc")),
            )
            for method in methods
        ),
    ),
    ("core.filters", ("repro.core.filters:FilterChain.apply",)),
    ("core.report", ("repro.core.report:build_report",)),
    (
        "core.hb.shb",
        ("repro.core.hb.shb:predict_races", "repro.core.hb.shb:classify_pair"),
    ),
    (
        "explain",
        (
            "repro.explain.evidence:build_race_evidence",
            "repro.explain.fingerprint:race_fingerprint",
        ),
    ),
    ("core.trace", ("repro.core.trace:Trace.accesses_to",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)
_TASK_LAYER = LAYER_NAMES.index("browser.task")


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``"module:qualname"``."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path and attribute not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner.__name__}")
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Spans and boundary counts of one traced pass."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.layers = array("B")
        self.parents = array("i")
        #: Span index at which each page began (spans of a page share it).
        self.page_marks: List[Tuple[str, int]] = []
        self.counts: Dict[str, float] = {}
        self.sources: set = set()
        self._stack: List[int] = []
        self._stack_layers: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` and :data:`COUNTED`.

        Counting wrappers go on after the span wrappers, so an entry point
        in both (``classify_pair``) is counted on every call, including
        the calls nested inside its own layer.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer_id, (_name, targets) in enumerate(LAYERS):
            for target in targets:
                owner, attribute, original = _resolve(target)
                self._replace(
                    owner, attribute, original,
                    self._span_wrapper(layer_id, original, OBSERVED.get(target)),
                )
        for target, observe in COUNTED.items():
            owner, attribute, original = _resolve(target)
            self._replace(
                owner, attribute, original, _count_wrapper(self, original, observe)
            )
        owner, attribute, original = _resolve("repro.browser.event_loop:EventLoop.post")
        self._replace(owner, attribute, original, self._post_wrapper(original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _replace(self, owner, attribute, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
            return
        # A module function: rebind it wherever a repro module imported it.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, layer_id: int, fn, observe=None, metadata=True):
        clock = time.perf_counter
        starts, ends = self.starts, self.ends
        layers, parents = self.layers, self.parents
        stack, stack_layers = self._stack, self._stack_layers

        def wrapper(*args, **kwargs):
            if stack_layers and stack_layers[-1] == layer_id:
                return fn(*args, **kwargs)
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            layers.append(layer_id)
            ends.append(0.0)
            stack.append(index)
            stack_layers.append(layer_id)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                stack_layers.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return functools.wraps(fn)(wrapper) if metadata else wrapper

    def _post_wrapper(self, post):
        """Run each task body posted to the event loop in a
        ``browser.task`` span."""

        @functools.wraps(post)
        def wrapper(loop, action, *args, **kwargs):
            task_body = self._span_wrapper(_TASK_LAYER, action, metadata=False)
            return post(loop, task_body, *args, **kwargs)

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def mark_page(self, label: str) -> None:
        """Start attributing spans to page ``label``."""
        self.page_marks.append((label, len(self.starts)))

    # ------------------------------------------------------------------
    # reduction

    def self_times(self) -> List[float]:
        """Per-layer self time: span durations minus child coverage."""
        totals = [0.0] * len(LAYER_NAMES)
        starts, ends, layers, parents = self.starts, self.ends, self.layers, self.parents
        for index in range(len(starts)):
            duration = ends[index] - starts[index]
            totals[layers[index]] += duration
            parent = parents[index]
            if parent >= 0:
                totals[layers[parent]] -= duration
        return totals

    def span_counts(self) -> List[int]:
        counts = [0] * len(LAYER_NAMES)
        for layer in self.layers:
            counts[layer] += 1
        return counts

    def covered(self) -> float:
        """Total duration of the outermost spans."""
        return sum(
            self.ends[index] - self.starts[index]
            for index in range(len(self.starts))
            if self.parents[index] < 0
        )

    def child_spans(self, parent_layer: str, child_layer: str) -> int:
        """How many ``child_layer`` spans opened directly inside
        ``parent_layer`` spans."""
        parent_id = LAYER_NAMES.index(parent_layer)
        child_id = LAYER_NAMES.index(child_layer)
        layers, parents = self.layers, self.parents
        return sum(
            1
            for index in range(len(layers))
            if layers[index] == child_id
            and parents[index] >= 0
            and layers[parents[index]] == parent_id
        )

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line naming the arrays and their
        typecodes, then the raw arrays in that order, each ``spans`` long."""
        header = {
            "layers": list(LAYER_NAMES),
            "spans": len(self.starts),
            "arrays": [
                [name, getattr(self, name).typecode]
                for name in ("starts", "ends", "layers", "parents")
            ],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds",
            "pages": self.page_marks,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for name in ("starts", "ends", "layers", "parents"):
                getattr(self, name).tofile(handle)


# ----------------------------------------------------------------------
# boundary counts


def _tokens(tracer, args, result):
    tracer.count("js.lexer.tokens", len(result))


def _source(tracer, args, result):
    tracer.sources.add(args[0])


def _concurrent(tracer, args, result):
    tracer.count("core.hb.query.concurrent_calls")
    if result:
        tracer.count("core.hb.query.concurrent_true")


def _recorded(tracer, args, result):
    if result is not None:
        tracer.count("browser.instrument.accesses")


def _operation(tracer, args, result):
    tracer.count("browser.instrument.operations")


def _stepped(tracer, args, result):
    if result:
        tracer.count("browser.event_loop.steps")


def _fetched(tracer, args, result):
    tracer.count("browser.network.requests")


def _filtered(tracer, args, result):
    tracer.count("core.filters.races_in", len(args[1]))
    tracer.count("core.filters.races_out", len(result))


def _reported(tracer, args, result):
    tracer.count("core.report.races_in", len(args[0]))


def _predicted(tracer, args, result):
    tracer.count("core.hb.shb.predictions", len(result.predictions))


def _classified(tracer, args, result):
    tracer.count("core.hb.shb.classify_calls")


def _run(tracer, args, result):
    tracer.count("predict.runs")


def _witness_run(tracer, args, result):
    tracer.count("predict.witness_runs")


def _predict_page(tracer, args, result):
    tracer.count("predict.predictions", len(result.predictions))
    tracer.count("predict.confirmed", len(result.confirmed()))


def _page_end(tracer, args, result):
    tracer.count("core.hb.query.cells", result.monitor.graph.memory_cells())
    tracer.count("core.detector.races", len(result.monitor.detector.races))


def _count_wrapper(tracer: Tracer, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        observe(tracer, args, result)
        return result

    return wrapper


#: Span entry points whose arguments or results carry a count (outermost
#: calls only).
OBSERVED: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "repro.js.lexer:tokenize": _tokens,
    "repro.js.parser:parse": _source,
    "repro.core.hb.graph:HBGraph.concurrent": _concurrent,
    "repro.core.hb.graph:HBGraph.chc": _concurrent,
    "repro.core.hb.backend:ChainBackedGraph.concurrent": _concurrent,
    "repro.core.hb.backend:CrosscheckGraph.concurrent": _concurrent,
    "repro.core.hb.chains:IncrementalChainClocks.concurrent": _concurrent,
    "repro.core.hb.chains:IncrementalChainClocks.chc": _concurrent,
    "repro.browser.instrument:Monitor.record": _recorded,
    "repro.browser.instrument:Monitor.new_operation": _operation,
    "repro.browser.event_loop:EventLoop.step": _stepped,
    "repro.browser.network:NetworkSimulator.fetch": _fetched,
    "repro.browser.network:ConnectionNetworkSimulator.fetch": _fetched,
    "repro.core.filters:FilterChain.apply": _filtered,
    "repro.core.report:build_report": _reported,
    "repro.core.hb.shb:predict_races": _predicted,
}

#: Entry points counted on every call, without a span of their own.
COUNTED: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "repro.core.hb.shb:classify_pair": _classified,
    "repro.schedule_runner:run_page_once": _run,
    "repro.schedule_runner:run_page_schedule": _witness_run,
    "repro.predict:predict_page": _predict_page,
    "repro.browser.page:Page.run": _page_end,
}


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced pass that took ``wall_s``."""
    self_s = dict(zip(LAYER_NAMES, tracer.self_times()))
    spans = dict(zip(LAYER_NAMES, tracer.span_counts()))
    counts = tracer.counts

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    extras = {
        "js.lexer": {
            "tokens": (counts.get("js.lexer.tokens", 0), "count"),
            "tokens_per_s": (
                share(counts.get("js.lexer.tokens", 0), self_s["js.lexer"]),
                "1/s",
            ),
        },
        "js.parser": {
            "calls": (spans["js.parser"], "count"),
            "distinct_frac": (
                share(len(tracer.sources), spans["js.parser"]),
                "fraction",
            ),
        },
        "browser.instrument": {
            "accesses": (counts.get("browser.instrument.accesses", 0), "count"),
            "operations": (counts.get("browser.instrument.operations", 0), "count"),
        },
        "browser.event_loop": {
            "steps": (counts.get("browser.event_loop.steps", 0), "count"),
        },
        "browser.network": {
            "requests": (counts.get("browser.network.requests", 0), "count"),
        },
        "core.detector": {
            "accesses": (spans["core.detector"], "count"),
            "chc_queries": (
                tracer.child_spans("core.detector", "core.hb.query"),
                "count",
            ),
            "races": (counts.get("core.detector.races", 0), "count"),
        },
        "core.hb.query": {
            "calls": (spans["core.hb.query"], "count"),
            "concurrent_frac": (
                share(
                    counts.get("core.hb.query.concurrent_true", 0),
                    counts.get("core.hb.query.concurrent_calls", 0),
                ),
                "fraction",
            ),
            "cells": (counts.get("core.hb.query.cells", 0), "count"),
        },
        "core.filters": {
            "races_in": (counts.get("core.filters.races_in", 0), "count"),
            "removed_frac": (
                share(
                    counts.get("core.filters.races_in", 0)
                    - counts.get("core.filters.races_out", 0),
                    counts.get("core.filters.races_in", 0),
                ),
                "fraction",
            ),
        },
        "core.report": {
            "races_in": (counts.get("core.report.races_in", 0), "count"),
        },
        "core.hb.shb": {
            "predictions": (counts.get("core.hb.shb.predictions", 0), "count"),
            "classify_calls": (counts.get("core.hb.shb.classify_calls", 0), "count"),
        },
    }
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        for name, value in extras.get(
            layer, {"calls": (spans[layer], "count")}
        ).items():
            metrics[f"{layer}.{name}"] = value
    metrics["unattributed.self_s"] = (wall_s - tracer.covered(), "s")
    metrics["predict.runs"] = (counts.get("predict.runs", 0), "count")
    metrics["predict.witness_runs"] = (counts.get("predict.witness_runs", 0), "count")
    metrics["predict.confirmed_frac"] = (
        share(counts.get("predict.confirmed", 0), counts.get("predict.predictions", 0)),
        "fraction",
    )
    metrics["trace.spans"] = (len(tracer.starts), "count")
    return {name: (float(value), unit) for name, (value, unit) in metrics.items()}
