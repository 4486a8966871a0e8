"""Outside-in wall-clock ledger for traced runs.

The program's own tracer (:mod:`repro.obs.trace`) records simulated
time and, while active, forces the scalar engine and turns collapsing
off, so it would measure a different program.  This ledger instead
wraps the public functions of each layer from outside: the wrappers
live here, are installed only for a traced pass and are removed after
it, and the program runs its shipped code path in between.

Each wrapped call records one span ``(name, start, end, parent)`` in
memory (``time.perf_counter``, which is system-wide monotonic on Linux,
so spans from a server process line up with the client's).  A call
made while a span of the same layer is already innermost is counted
but opens no span: its time is that layer's self time either way, and
skipping it keeps hot per-segment helpers cheap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Span names whose layer is the full name (one layer per exhibit and
#: per serve op); every other span's layer is its first dotted part.
_FULL_NAME_LAYERS = ("exhibit.", "serve.handle.")

#: Serve ops with their own handle layer; anything else is ``other``.
SERVE_OPS = ("open", "stream", "end", "report", "close")


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    if name.startswith(_FULL_NAME_LAYERS):
        return name
    return name.split(".", 1)[0]


class Ledger:
    """Spans and call counts of one traced run, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent_index, run_id]`` per span.
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.run_id]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def innermost_layer(self) -> str | None:
        if not self._stack:
            return None
        return layer_of(self.spans[self._stack[-1]][0])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-side span around the ``with`` body."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """Run ``fn`` inside a span named ``name`` (counted always,
        spanned unless the same layer is innermost)."""
        self.counts[name] += 1
        if self.innermost_layer() == layer_of(name):
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def closed_spans(self) -> list[tuple[str, float, float, int | None]]:
        """Every finished span as an immutable tuple."""
        return [
            (name, start, end, parent)
            for name, start, end, parent, _ in self.spans
            if end is not None
        ]

    def to_payload(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": [span for span in self.spans if span[2] is not None],
            "counts": dict(self.counts),
        }

    def write(self, path: Path) -> None:
        """Write every span and count as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle)

    def absorb(self, payload: dict[str, Any]) -> None:
        """Merge another process's spans (a serve server's) into this
        ledger: each of its root spans is re-parented under the
        innermost local span whose interval contains it.  Spans outside
        every local span (and their descendants) lie outside the traced
        interval and are dropped."""
        local = self.closed_spans()
        # Their index in this ledger, or None when dropped.
        placed: list[int | None] = []
        for name, start, end, parent, run_id in payload["spans"]:
            if parent is None:
                parent = _innermost_container(local, start, end)
            else:
                parent = placed[parent]
            if parent is None:
                placed.append(None)
                continue
            placed.append(len(self.spans))
            self.spans.append([name, start, end, parent, run_id])
        self.counts.update(payload["counts"])


def _innermost_container(spans, start: float, end: float) -> int | None:
    best = None
    best_len = None
    for index, (_, s, e, _) in enumerate(spans):
        if s <= start and end <= e and (best_len is None or e - s < best_len):
            best, best_len = index, e - s
    return best


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


class _TimedIterator:
    """A generator stand-in that spans each ``next`` and counts the
    items it yields under ``count_key``."""

    def __init__(self, ledger: Ledger, name: str, inner, count_key):
        self._ledger = ledger
        self._name = name
        self._inner = iter(inner)
        self._count_key = count_key

    def __iter__(self):
        return self

    def __next__(self):
        item = self._ledger.call(self._name, next, self._inner)
        if self._count_key:
            self._ledger.counts[self._count_key] += 1
        return item


def _plain(ledger: Ledger, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return ledger.call(name, fn, *args, **kwargs)

    return wrapper


def _generator(ledger: Ledger, name: str, fn: Callable,
               count_key: str | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedIterator(ledger, name, fn(*args, **kwargs), count_key)

    return wrapper


def _serve_handle(ledger: Ledger, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, payload, *args, **kwargs):
        op = payload.get("op") if isinstance(payload, dict) else None
        name = f"serve.handle.{op if op in SERVE_OPS else 'other'}"
        return ledger.call(name, fn, self, payload, *args, **kwargs)

    return wrapper


def _rolling_observe(ledger: Ledger, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        # Eviction scans every retained sample for the newest
        # timestamp, the one just appended included.
        ledger.counts["metrics.scanned"] += len(self.samples) + 1
        return ledger.call("metrics.rolling", fn, self, *args, **kwargs)

    return wrapper


def _fresh_run(ledger: Ledger, fn: Callable) -> Callable:
    """``FrameWindowSimulator.run``: also counts the frames a freshly
    simulated run (not a memo hit) consumed."""
    from repro.obs import metrics as obs_metrics

    runs = obs_metrics.registry().counter("sim.runs")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = runs.value
        result = ledger.call("sim.run", fn, *args, **kwargs)
        if runs.value > before:
            ledger.counts["sim.frames_consumed"] += (
                result.stats.new_frame_windows
            )
        return result

    return wrapper


# (module, dotted attribute, span name) for plain wrappers.
_PLAIN_TARGETS = (
    ("repro.pipeline.sim", "StreamingSimulator.push", "sim.push"),
    ("repro.pipeline.sim", "StreamingSimulator.end", "sim.end"),
    ("repro.pipeline.sim", "StreamingSimulator.result", "sim.result"),
    ("repro.pipeline.batch", "PlanMatrix.from_timeline", "sim.plan_matrix"),
    ("repro.pipeline.batch", "PlanMatrix.digest", "sim.plan_digest"),
    ("repro.pipeline.timeline", "Segment.shifted", "timeline.shifted"),
    ("repro.pipeline.timeline", "Timeline.extend", "timeline.extend"),
    ("repro.pipeline.timeline", "Timeline.concatenate",
     "timeline.concatenate"),
    ("repro.pipeline.timeline", "TimelineSummary.add_segment",
     "timeline.add_segment"),
    ("repro.pipeline.timeline", "TimelineSummary.absorb", "timeline.absorb"),
    ("repro.pipeline.timeline", "TimelineSummary.absorb_scaled",
     "timeline.absorb_scaled"),
    ("repro.pipeline.timeline", "TimelineSummary.from_timeline",
     "timeline.from_timeline"),
    ("repro.pipeline.timeline", "TimelineSummary.window_digest",
     "timeline.window_digest"),
    ("repro.pipeline.timeline", "TimelineSummary.copy", "timeline.copy"),
    ("repro.pipeline.timeline", "TimelineSummary.to_payload",
     "timeline.to_payload"),
    ("repro.power.model", "PowerModel.__init__", "price.model_built"),
    ("repro.power.model", "PowerModel.report", "price.report"),
    ("repro.power.model", "PowerModel.report_summary",
     "price.report_summary"),
    ("repro.power.model", "PowerModel.report_timeline",
     "price.report_timeline"),
    ("repro.power.model", "PowerModel.price_plan_matrix",
     "price.plan_matrix"),
    ("repro.power.model", "PowerModel.class_component_energies",
     "price.class_energies"),
    ("repro.power.model", "PowerModel.segment_power", "price.segment"),
    ("repro.power.model", "PowerModel.segment_component_powers",
     "price.segment"),
    ("repro.analysis.runner", "SimulationCache.load", "cache.load"),
    ("repro.analysis.runner", "SimulationCache.load_plan", "cache.load"),
    ("repro.analysis.runner", "SimulationCache.store", "cache.store"),
    ("repro.analysis.runner", "SimulationCache.store_plan", "cache.store"),
    ("repro.analysis.figures", "figure_records", "figures.records"),
    ("repro.analysis.figures", "figure_csv", "figures.csv"),
    ("repro.analysis.figures", "vega_lite_spec", "figures.vega"),
    ("repro.analysis.figures", "write_figure_files", "figures.write"),
    ("repro.analysis.vega", "validate_spec", "figures.validate"),
    ("repro.fleet.sampler", "sample_device", "sampler.sample"),
    ("repro.fleet.sampler", "simulate_device", "sampler.device"),
    ("repro.fleet.aggregate", "FleetAggregate.add_device",
     "aggregate.add_device"),
    ("repro.fleet.aggregate", "FleetAggregate.merge", "aggregate.merge"),
    ("repro.fleet.aggregate", "FleetAggregate.to_payload",
     "aggregate.to_payload"),
    ("repro.fleet.aggregate", "FleetAggregate.from_payload",
     "aggregate.from_payload"),
    ("repro.fleet.aggregate", "FleetAggregate.report", "aggregate.report"),
    ("repro.fleet.aggregate", "FleetAggregate.report_json",
     "aggregate.report"),
    ("repro.fleet.checkpoint", "FleetCheckpoint.initialize",
     "checkpoint.initialize"),
    ("repro.fleet.checkpoint", "FleetCheckpoint.write_shard",
     "checkpoint.write_shard"),
    ("repro.fleet.checkpoint", "FleetCheckpoint.read_shard",
     "checkpoint.read_shard"),
    ("repro.fleet.checkpoint", "FleetCheckpoint.completed_shards",
     "checkpoint.completed"),
    ("repro.fleet.checkpoint", "FleetCheckpoint.write_cursor",
     "checkpoint.write_cursor"),
    ("repro.fleet.pool", "run_fleet", "pool.run_fleet"),
)

#: Packages whose ``plan_window`` implementations form the plan layer.
_SCHEME_PACKAGES = ("repro.core", "repro.baselines", "repro.pipeline")


class Instrumentation:
    """Installs the ledger's wrappers; :meth:`remove` restores every
    patched attribute to the exact object it replaced."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching helpers ---------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _patch_function(self, original: Callable, wrapped: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        holds it, so ``from x import f`` callers see the wrapper too."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def _target(self, module_name: str, dotted: str, make) -> None:
        module = sys.modules.get(module_name) or __import__(
            module_name, fromlist=["_"]
        )
        owner_name, _, attr = dotted.rpartition(".")
        if owner_name:
            self._patch_method(getattr(module, owner_name), attr, make)
        else:
            original = getattr(module, attr)
            self._patch_function(original, make(original))

    # -- install / remove ---------------------------------------------------

    def install(self) -> "Instrumentation":
        ledger = self.ledger
        import repro.cli  # noqa: F401  (loads every layer)
        import repro.fleet.pool  # noqa: F401
        import repro.obs.serve  # noqa: F401
        import repro.video.network  # noqa: F401
        from repro.analysis import experiments, runner

        for module_name, dotted, name in _PLAIN_TARGETS:
            self._target(
                module_name, dotted,
                lambda fn, name=name: _plain(ledger, name, fn),
            )
        self._target(
            "repro.video.source", "AnalyticContentModel.iter_frames",
            lambda fn: _generator(
                ledger, "source.iter_frames", fn, "source.frames"
            ),
        )
        self._target(
            "repro.video.network", "NetworkFrameSource.__iter__",
            lambda fn: _generator(ledger, "source.network", fn, None),
        )
        self._target(
            "repro.pipeline.sim", "FrameWindowSimulator.run",
            lambda fn: _fresh_run(ledger, fn),
        )
        self._target(
            "repro.obs.serve", "PowerAdvisorService.handle",
            lambda fn: _serve_handle(ledger, fn),
        )
        self._target(
            "repro.obs.metrics", "RollingGauge.observe",
            lambda fn: _rolling_observe(ledger, fn),
        )
        for cls in _scheme_classes():
            self._patch_method(
                cls, "plan_window",
                lambda fn: _plain(ledger, "plan.window", fn),
            )
        for key, fn in runner.exhibit_registry().items():
            for attr, value in list(vars(experiments).items()):
                if value is fn:
                    self._set(
                        experiments, attr,
                        _plain(ledger, f"exhibit.{key}", fn),
                    )
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _scheme_classes() -> list[type]:
    """Every loaded class that defines its own ``plan_window``."""
    found = []
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(_SCHEME_PACKAGES):
            continue
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and value not in seen
                and "plan_window" in value.__dict__
                and value.__module__.startswith(_SCHEME_PACKAGES)
                and not getattr(value, "_is_protocol", False)
            ):
                seen.add(value)
                found.append(value)
    return found


def counter_deltas(before: dict[str, dict], after: dict[str, dict]
                   ) -> dict[str, float]:
    """Counter and histogram movement between two registry snapshots
    (``MetricsRegistry.snapshot()``): counters as ``name``, histograms
    as ``name.count`` and ``name.sum``."""
    deltas: dict[str, float] = {}
    for name, state in after.items():
        old = before.get(name, {})
        if state.get("type") == "counter":
            deltas[name] = state["value"] - old.get("value", 0)
        elif state.get("type") == "histogram":
            deltas[f"{name}.count"] = state["count"] - old.get("count", 0)
            deltas[f"{name}.sum"] = state["sum"] - old.get("sum", 0.0)
    return deltas
