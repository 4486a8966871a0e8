"""The frame-window simulator.

A :class:`DisplayScheme` plans one refresh window at a time: given the
window kind (new frame vs repeat), the frame's sizes, and any VR
projection work, it produces that window's package C-state timeline with
full datapath annotations.  The simulator walks the refresh cadence,
validates every window, and stitches the results into a run-level
timeline plus statistics — the input to the analytical power model.

Two walkers cover the cadence: the batch window engine
(:meth:`FrameWindowSimulator._run_batch`, untraced runs of schemes with
``plan_key()``) and the window-by-window :class:`StreamingSimulator`
(everything else, including ``repro serve`` sessions).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from ..config import SystemConfig
from ..display.timing import RefreshTiming, WindowKind, WindowPlan
from ..errors import ConfigurationError, DeadlineMissError, SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..soc.cstates import PackageCState
from ..video.source import FrameDescriptor, FrameSource, as_frame_source
from .batch import CachedPlan, PlanMatrix
from .timeline import PanelMode, Timeline, TimelineSummary

#: What a run keeps: the full per-segment timeline, or only the online
#: summary (O(1) memory for hours-long traces).
RETAIN_MODES = ("full", "summary")

#: Segment count at which the batch engine digests a fresh plan through
#: :class:`~repro.pipeline.batch.PlanMatrix` instead of the per-segment
#: :meth:`TimelineSummary.window_digest` loop.  Both are bit-identical;
#: below this, numpy array construction costs more than it saves.
_MATRIX_MIN_SEGMENTS = 32

#: Windows per cadence chunk in the batch engine.  The engine never
#: materializes the whole window table — chunks keep its memory flat in
#: run length (the long-trace memory gate pins this).
_CADENCE_CHUNK = 1024


def _plan_digest(
    timeline: Timeline, kind: str, duration: float
) -> TimelineSummary:
    """One-window digest of a fresh plan, via the cheaper of the two
    bit-identical paths (np.bincount accumulates weights sequentially in
    row order, exactly the per-segment loop)."""
    if len(timeline.segments) >= _MATRIX_MIN_SEGMENTS:
        return PlanMatrix.from_timeline(timeline, kind).digest(
            kind, duration
        )
    return TimelineSummary.window_digest(timeline, kind, duration)


def _shifted(timeline: Timeline, delta: float) -> Timeline:
    """``timeline`` translated in time by ``delta`` seconds."""
    if delta == 0.0:
        return timeline
    return Timeline([segment.shifted(delta) for segment in timeline.segments])


def _check_window(
    scheme: "DisplayScheme", config: SystemConfig, index: int,
    result: "WindowResult", duration: float | None = None,
) -> None:
    """Validate planned window ``index``: non-empty and ``duration``
    long (when given; a cached plan was checked when first planned),
    and on time under ``strict_deadlines``."""
    timeline = result.timeline
    if duration is not None and not timeline.segments:
        raise SimulationError(f"{scheme.name}: window {index} is empty")
    if duration is not None and abs(timeline.duration - duration) > 1e-7:
        raise SimulationError(
            f"{scheme.name}: window {index} covers "
            f"{timeline.duration:.6f}s, expected {duration:.6f}s"
        )
    if result.deadline_missed and config.strict_deadlines:
        raise DeadlineMissError(
            f"{scheme.name}: window {index} missed its deadline"
        )


def _count_run(stats: "RunStats", collapse: tuple[int, int] | None) -> None:
    """Registry counters every completed (non-memo) run bumps;
    ``collapse`` is ``(hits, misses)`` when collapsing was enabled."""
    registry = obs_metrics.registry()
    registry.counter(
        "sim.runs", "simulator runs completed (cache misses only)"
    ).inc()
    registry.counter(
        "sim.windows", "refresh windows planned"
    ).inc(stats.windows)
    registry.counter(
        "sim.deadline_misses", "windows that missed their deadline"
    ).inc(stats.deadline_misses)
    if collapse is not None:
        registry.counter(
            "sim.collapse.hit",
            "windows replayed from the repeat-window memo",
        ).inc(collapse[0])
        registry.counter(
            "sim.collapse.miss",
            "windows planned fresh with collapsing enabled",
        ).inc(collapse[1])


def _stamp_content(
    result: "WindowResult", frame: "FrameDescriptor | None"
) -> "WindowResult":
    """Stamp the presented frame's content attributes onto a planned
    window.

    Schemes plan from frame sizes/type alone (see
    :class:`DisplayScheme`), so displayed-content attributes ride on
    the frame and are applied *after* planning: every displaying
    segment inherits the frame's APL, which content-aware power terms
    integrate through the summary's ``apl_seconds``.  Content-agnostic
    frames (no attributes, or APL 0) return the result unchanged —
    byte-identical to the historical pipeline.
    """
    attributes = frame.attributes if frame is not None else None
    if attributes is None or attributes.apl == 0.0:
        return result
    apl = attributes.apl
    segments = [
        dataclasses.replace(segment, apl=apl)
        if segment.panel_mode is not PanelMode.OFF
        and segment.apl != apl
        else segment
        for segment in result.timeline.segments
    ]
    return dataclasses.replace(result, timeline=Timeline(segments))


class _FrameFeed:
    """The frame (and VR work) a walker presents, pulled lazily — at
    most one pull per new-frame window, so sources cost O(1) frame
    memory.  ``next_frame`` returns ``None`` once frames run out."""

    def __init__(
        self,
        next_frame: "Callable[[], FrameDescriptor | None]",
        vr_work: "Sequence[VrWork] | None",
    ) -> None:
        self.next_frame = next_frame
        self.vr_iter = iter(vr_work) if vr_work is not None else None
        self.frame: FrameDescriptor | None = None
        self.vr: VrWork | None = None
        self.pulled = 0

    @classmethod
    def of(
        cls, source: FrameSource, vr_work: "Sequence[VrWork] | None"
    ) -> "_FrameFeed":
        """A feed pulling from ``source``, its first frame current."""
        feed = cls(functools.partial(next, iter(source), None), vr_work)
        feed.first()
        return feed

    def first(self) -> None:
        """Pull the first frame (every cadence starts with one)."""
        self.pull_through(0)
        if self.frame is None:
            raise SimulationError("cannot simulate an empty frame list")

    def pull_through(self, frame_index: int) -> None:
        """Pull until ``frame_index`` is current or the frames run out
        (later windows then re-present the last frame, clamped)."""
        while self.pulled <= frame_index:
            frame = self.next_frame()
            if frame is None:
                return
            if self.vr_iter is not None:
                try:
                    self.vr = next(self.vr_iter)
                except StopIteration:
                    raise SimulationError(
                        "vr_work exhausted before frames "
                        f"(frame {self.pulled})"
                    ) from None
            self.frame = frame
            self.pulled += 1


@dataclass(frozen=True)
class VrWork:
    """Per-frame VR projection work (paper Sec. 2.4, "Projection").

    The decoded 360-degree source frame (``source_bytes``) is larger than
    the panel frame; the GPU spends ``projection_s`` mapping the viewport
    onto the ``projected_bytes`` panel frame.
    """

    source_bytes: float
    projection_s: float
    projected_bytes: float

    def __post_init__(self) -> None:
        if self.source_bytes <= 0 or self.projected_bytes <= 0:
            raise SimulationError("VR frame sizes must be positive")
        if self.projection_s < 0:
            raise SimulationError("VR projection time must be >= 0")


@dataclass(frozen=True)
class WindowContext:
    """Everything a scheme needs to plan one refresh window."""

    config: SystemConfig
    window: WindowPlan
    #: The frame presented in this window (decoded/encoded sizes).
    frame: FrameDescriptor
    #: VR projection work, or None for planar video.
    vr: VrWork | None = None
    #: C-state the system is in when the window opens.
    initial_state: PackageCState = PackageCState.C0
    #: Override for the bytes shipped to the panel (used by schemes that
    #: decouple decode volume from display volume, e.g. batch decoding).
    display_bytes_override: float | None = None

    @property
    def display_bytes(self) -> float:
        """Bytes the DC must deliver to the panel this window: the
        projected frame for VR, the decoded frame for planar (capped at
        the panel's own frame size — a smaller video is upscaled by the
        DC at no extra DRAM cost in this model)."""
        if self.display_bytes_override is not None:
            return self.display_bytes_override
        if self.vr is not None:
            return self.vr.projected_bytes
        return min(
            self.frame.decoded_bytes, float(self.config.panel.frame_bytes)
        )


@dataclass
class WindowResult:
    """One planned window."""

    timeline: Timeline
    deadline_missed: bool = False
    vd_wakes: int = 0
    used_psr: bool = False
    bypassed_dram: bool = False
    burst: bool = False


class DisplayScheme(Protocol):
    """The strategy interface every display scheme implements.

    Contract relied on by the batch window engine: a scheme plans from
    the frame's *content* (``frame_type`` and byte sizes) and the
    window's kind/duration/entry state — never from the frame's stream
    position.  A scheme whose plan legitimately depends on position
    (e.g. Zhang's batch cadence) declares exactly which function of the
    index matters via ``frame_phase(frame_index)``.
    """

    name: str

    def plan_window(self, ctx: WindowContext) -> WindowResult:
        """Plan one refresh window; the returned timeline must span
        exactly ``ctx.window.start`` to ``ctx.window.end``."""
        ...  # pragma: no cover - protocol


@dataclass
class RunStats:
    """Aggregate statistics over a simulated run."""

    windows: int = 0
    new_frame_windows: int = 0
    repeat_windows: int = 0
    deadline_misses: int = 0
    vd_wakes: int = 0
    psr_windows: int = 0
    bypassed_windows: int = 0
    burst_windows: int = 0

    def record(self, plan: WindowPlan, result: WindowResult,
               new_frame: bool | None = None) -> None:
        """Fold one window into the totals.

        ``new_frame``, when given, overrides the plan's own kind: the
        simulator passes the *effective* kind, so a clamped window that
        re-presents the exhausted stream's last frame counts as a repeat
        even though the cadence called for a new frame (otherwise
        ``effective_fps`` would be inflated).
        """
        self.windows += 1
        if plan.is_new_frame if new_frame is None else new_frame:
            self.new_frame_windows += 1
        else:
            self.repeat_windows += 1
        self.deadline_misses += int(result.deadline_missed)
        self.vd_wakes += result.vd_wakes
        self.psr_windows += int(result.used_psr)
        self.bypassed_windows += int(result.bypassed_dram)
        self.burst_windows += int(result.burst)


@dataclass
class RunResult:
    """A complete simulated run: timeline and/or summary, stats, and
    identity.

    ``timeline`` is ``None`` for ``retain="summary"`` runs; ``summary``
    is always populated by the simulator.  Aggregate accessors
    (duration, residencies, byte totals) read the summary, so they
    return the same values whatever the run retains.
    """

    scheme: str
    config: SystemConfig
    timeline: Timeline | None
    stats: RunStats
    video_fps: float
    #: Online aggregation of the run (always built by the simulator).
    summary: TimelineSummary | None = None
    #: Content hash of the run's full input descriptor (config, scheme
    #: identity + state, frames, cadence); ``None`` when the inputs were
    #: not fingerprintable.  Set by the simulator; memo layers key on it.
    cache_key: str | None = field(default=None, compare=False)

    @property
    def aggregate(self) -> "Timeline | TimelineSummary":
        """The run-level aggregate: the online summary, or the full
        timeline for a run built without one."""
        if self.summary is not None:
            return self.summary
        if self.timeline is not None:
            return self.timeline
        raise SimulationError(
            "run retains neither a timeline nor a summary"
        )

    @property
    def duration(self) -> float:
        """Simulated wall-clock seconds."""
        return self.aggregate.duration

    @property
    def effective_fps(self) -> float:
        """Frames presented *on time* per second: new-frame windows
        minus deadline misses, over the run duration — the jank-aware
        quality-of-service figure."""
        if self.duration <= 0:
            raise SimulationError("run covers no time")
        on_time = max(
            0, self.stats.new_frame_windows - self.stats.deadline_misses
        )
        return on_time / self.duration

    def residency_fractions(self) -> dict[PackageCState, float]:
        """Package C-state residency over the whole run."""
        return self.aggregate.residency_fractions()

    @property
    def dram_read_bytes(self) -> float:
        """Total bytes read from DRAM."""
        return self.aggregate.dram_read_bytes

    @property
    def dram_write_bytes(self) -> float:
        """Total bytes written to DRAM."""
        return self.aggregate.dram_write_bytes

    @property
    def dram_total_bytes(self) -> float:
        """Total DRAM traffic both directions."""
        return self.aggregate.dram_total_bytes

    @property
    def edp_bytes(self) -> float:
        """Total bytes moved over the eDP link."""
        return self.aggregate.edp_bytes


# ---------------------------------------------------------------------------
# Run fingerprints and the memoization hook
# ---------------------------------------------------------------------------


def freeze(value: Any) -> Any:
    """A canonical, hashable, repr-stable form of ``value``.

    Covers everything a run descriptor contains: primitives (floats via
    their exact hex form), enums, dataclasses (including attributes
    attached after ``__post_init__``, e.g. a scheme's PMU), sequences,
    mappings, and numpy scalars.  Raises ``TypeError`` for anything
    else, which callers treat as "not cacheable".
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return ("f", value.hex())
    if isinstance(value, enum.Enum):
        return ("e", type(value).__qualname__, value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            "d",
            type(value).__qualname__,
            tuple(
                (name, freeze(attr))
                for name, attr in sorted(vars(value).items())
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("l", tuple(freeze(item) for item in value))
    if isinstance(value, (dict,)):
        return (
            "m",
            tuple(
                (freeze(k), freeze(v))
                for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ),
        )
    if isinstance(value, (set, frozenset)):
        return ("s", tuple(sorted(repr(freeze(item)) for item in value)))
    if isinstance(value, np.generic):
        return freeze(value.item())
    if hasattr(value, "__dict__") and not callable(value):
        return (
            "o",
            type(value).__qualname__,
            tuple(
                (name, freeze(attr))
                for name, attr in sorted(vars(value).items())
            ),
        )
    raise TypeError(f"cannot freeze {type(value).__qualname__}")


def run_fingerprint(
    config: SystemConfig,
    scheme: DisplayScheme,
    frames: "FrameSource | Sequence[FrameDescriptor]",
    video_fps: float,
    vr_work: list[VrWork] | None = None,
    max_windows: int | None = None,
    retain: str = "full",
) -> str | None:
    """A stable content hash identifying one simulator run, or ``None``
    when some input cannot be canonically frozen (such runs simply
    bypass any installed memo).

    ``frames`` may be a materialized list or any :class:`FrameSource`;
    sources are fingerprinted through their ``fingerprint_token`` (O(1)
    for generated streams).  ``retain`` is part of the key so a
    summary-only cached run never serves a full-timeline caller.
    Collapse state is deliberately *not* part of the key: collapsed and
    fresh plans agree to float-shift precision (well inside the 1e-9
    parity budget), and keying on it would make traced runs (collapse
    off) miss the memo populated by untraced ones.
    """
    if isinstance(frames, (list, tuple)):
        frames_token: Any = ("frames/list", tuple(frames))
    else:
        token = getattr(frames, "fingerprint_token", None)
        if token is None:
            return None
        try:
            frames_token = token()
        except TypeError:
            return None
    try:
        descriptor = freeze(
            (
                "run/v2",
                config,
                type(scheme).__qualname__,
                scheme,
                frames_token,
                float(video_fps),
                vr_work,
                max_windows,
                retain,
            )
        )
    except TypeError:
        return None
    return hashlib.sha256(repr(descriptor).encode()).hexdigest()


class RunMemo(Protocol):
    """Anything that can memoize simulator runs by fingerprint."""

    def load(self, key: str) -> "RunResult | None":
        """A previously stored run for ``key``, or ``None``."""
        ...  # pragma: no cover - protocol

    def store(self, key: str, run: "RunResult") -> None:
        """Record a freshly simulated run under ``key``."""
        ...  # pragma: no cover - protocol


#: The process-wide run memo (installed by ``repro.analysis.runner``;
#: ``None`` means every run simulates from scratch).
_active_memo: RunMemo | None = None


def install_run_memo(memo: RunMemo | None) -> RunMemo | None:
    """Install ``memo`` as the process-wide simulator memo; returns the
    previously installed one (pass ``None`` to disable memoization)."""
    global _active_memo
    previous = _active_memo
    _active_memo = memo
    return previous


def active_run_memo() -> RunMemo | None:
    """The currently installed run memo, if any."""
    return _active_memo


#: Process-wide retain default used when ``run(retain=None)``.
_default_retain = "full"


def set_default_retain(mode: str) -> str:
    """Set the process-wide retain default; returns the previous mode.

    Workers running summary-only exhibits set this once instead of
    threading ``retain=`` through every call site.
    """
    global _default_retain
    if mode not in RETAIN_MODES:
        raise SimulationError(f"unknown retain mode {mode!r}")
    previous = _default_retain
    _default_retain = mode
    return previous


def default_retain() -> str:
    """The process-wide retain default."""
    return _default_retain


#: Process-wide plan-cache override; ``None`` defers to the
#: ``REPRO_PLAN_CACHE`` environment variable (default off).
_plan_cache_override: bool | None = None


def set_plan_cache(enabled: bool | None) -> bool | None:
    """Enable/disable the cross-run plan cache process-wide; returns
    the previous override (``None`` means "follow
    ``REPRO_PLAN_CACHE``")."""
    global _plan_cache_override
    previous = _plan_cache_override
    _plan_cache_override = enabled
    return previous


def plan_cache_active() -> bool:
    """Whether the batch engine consults the cross-run plan cache."""
    if _plan_cache_override is not None:
        return _plan_cache_override
    return os.environ.get("REPRO_PLAN_CACHE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


class PlanMemo(Protocol):
    """Anything that can memoize single window plans by content key.

    ``repro.analysis.runner.SimulationCache`` implements this next to
    :class:`RunMemo`; the batch engine consults it (when
    :func:`plan_cache_active`) for plans whose run-level fingerprints
    differ — e.g. the same scheme swept across frame rates or window
    counts."""

    def load_plan(self, key: str) -> "CachedPlan | None":
        """A previously stored plan for ``key``, or ``None``."""
        ...  # pragma: no cover - protocol

    def store_plan(self, key: str, plan: "CachedPlan") -> None:
        """Record a freshly planned window under ``key``."""
        ...  # pragma: no cover - protocol


def _check_max_windows(max_windows: Any) -> None:
    """Reject a ``max_windows`` that is not ``None`` or an int >= 0."""
    if max_windows is None:
        return
    if (
        isinstance(max_windows, bool)
        or not isinstance(max_windows, (int, np.integer))
        or max_windows < 0
    ):
        raise ConfigurationError(
            f"max_windows must be a non-negative integer, got "
            f"{max_windows!r}"
        )


@dataclass
class _CollapseEntry:
    """The memoized previous window for repeat-window collapsing."""

    key: tuple
    start: float
    result: WindowResult
    digest: TimelineSummary
    final_state: PackageCState


@dataclass
class _BatchEntry:
    """One distinct plan in a batch-engine run, with its replay count."""

    start: float
    result: WindowResult
    #: One-window summary for scaled replay.  ``None`` until someone
    #: needs it — unique windows absorb their segments directly at
    #: finalization instead, matching the streaming walker's cost.
    digest: TimelineSummary | None
    final_state: PackageCState
    #: The window kind the digest (or direct absorption) files under.
    effective_kind: str
    #: Whether occurrences count as (effective) new-frame windows.
    effective_new: bool
    #: False when planning mutated the scheme's ``plan_key()`` — such
    #: plans are single-use (the run-wide memo must not replay them).
    stored: bool = False
    count: int = 0


@dataclass
class FrameWindowSimulator:
    """Walks the refresh cadence and applies a scheme window by window."""

    config: SystemConfig
    scheme: DisplayScheme

    def run(
        self,
        frames: "FrameSource | Sequence[FrameDescriptor]",
        video_fps: float,
        vr_work: list[VrWork] | None = None,
        max_windows: int | None = None,
        retain: str | None = None,
    ) -> RunResult:
        """Simulate displaying ``frames`` at ``video_fps``.

        ``frames`` may be a materialized list or any
        :class:`~repro.video.source.FrameSource`; the simulator pulls at
        most one frame per new-frame window, so streaming sources run in
        O(1) frame memory.  ``vr_work`` (parallel to ``frames``) marks a
        VR run.  The run covers every window needed to present all
        frames, or ``max_windows`` if given (mandatory for length-less
        sources).

        ``retain`` selects what the result keeps: ``"full"`` (the
        per-segment timeline, the historical behavior) or ``"summary"``
        (only the online :class:`TimelineSummary`); ``None`` defers to
        :func:`default_retain`.

        The cadence walker follows from what the run can observe.  An
        untraced run of a scheme exposing ``plan_key()`` takes the
        batch window engine: windows group by ``(plan_key, kind, frame,
        entry state)``, each distinct plan is priced once and replayed
        as a count, and — when :func:`plan_cache_active` — new groups
        are first looked up in the cross-run plan cache.  Every other
        run (an active tracer, or a scheme without ``plan_key()``) is
        walked window by window by :class:`StreamingSimulator`, which
        keeps traced runs byte-identical to the golden traces.
        """
        retain_mode = _default_retain if retain is None else retain
        if retain_mode not in RETAIN_MODES:
            raise SimulationError(f"unknown retain mode {retain_mode!r}")
        _check_max_windows(max_windows)
        source = as_frame_source(frames)
        try:
            frame_count: int | None = len(source)  # type: ignore[arg-type]
        except TypeError:
            frame_count = None
        if frame_count == 0:
            raise SimulationError("cannot simulate an empty frame list")
        if (
            vr_work is not None
            and frame_count is not None
            and len(vr_work) != frame_count
        ):
            raise SimulationError(
                "vr_work must parallel frames "
                f"({len(vr_work)} vs {frame_count})"
            )
        memo = _active_memo
        key = None
        if memo is not None:
            key = run_fingerprint(
                self.config, self.scheme, source, video_fps,
                vr_work=vr_work, max_windows=max_windows,
                retain=retain_mode,
            )
            if key is not None:
                cached = memo.load(key)
                if cached is not None:
                    return cached
        timing = RefreshTiming(self.config.panel.refresh_hz, video_fps)
        if max_windows is not None:
            window_count = max_windows
        elif frame_count is not None:
            window_count = int(
                round(frame_count * timing.windows_per_frame)
            )
        else:
            raise SimulationError(
                "a frame source without a length needs max_windows"
            )
        if (
            obs_trace.active() is None
            and getattr(self.scheme, "plan_key", None) is not None
        ):
            run = self._run_batch(
                source, video_fps, vr_work, retain_mode, memo, timing,
                window_count,
            )
        else:
            run = StreamingSimulator(
                self.config, self.scheme, video_fps,
                max_windows=window_count, vr_work=vr_work,
                retain=retain_mode,
            )._drain(source, frame_count)
        run.cache_key = key
        if memo is not None and key is not None:
            memo.store(key, run)
        return run

    def _run_batch(
        self, source: FrameSource, video_fps: float,
        vr_work: list[VrWork] | None, retain_mode: str,
        memo: RunMemo | None, timing: RefreshTiming, window_count: int,
    ) -> RunResult:
        """The batch window engine: price each distinct plan once.

        Windows group by ``(plan_key, kind, frame content, entry
        state)`` — frame *content*, not the descriptor, because schemes
        never read ``frame.index`` (index-dependence is declared via
        ``frame_phase``), so re-indexed copies of one frame share; the
        cadence is walked as chunked numpy tables so repeat runs
        between new frames cost O(1) instead of O(windows), at flat
        memory in run length.  Its aggregates match the streaming
        walker to the collapse parity budget, with identical
        :class:`RunStats`.
        """
        scheme = self.scheme
        config = self.config
        duration = timing.frame_window

        def group_starts():
            """``(window index, frame index)`` of each new-frame
            window, walked in fixed-size chunks so memory stays flat
            in run length."""
            base = 0
            while base < window_count:
                size = min(_CADENCE_CHUNK, window_count - base)
                due, new = timing.window_table(size, start=base)
                for offset in np.flatnonzero(new):
                    yield base + int(offset), int(due[offset])
                base += size

        feed = _FrameFeed.of(source, vr_work)
        plan_key = scheme.plan_key()
        phase_fn = getattr(scheme, "frame_phase", None)
        retain_full = retain_mode == "full"

        plan_cache: Any = None
        cache_prefix = None
        if (
            memo is not None
            and plan_cache_active()
            and hasattr(memo, "load_plan")
        ):
            try:
                prefix = freeze(
                    ("plan/v1", config, type(scheme).__qualname__)
                )
            except TypeError:
                prefix = None
            if prefix is not None:
                plan_cache = memo
                cache_prefix = hashlib.sha256(repr(prefix).encode())

        state = PackageCState.C0
        stats = RunStats()
        timelines: list[Timeline] = []
        summary = TimelineSummary()
        entries: dict[tuple, _BatchEntry] = {}
        order: list[_BatchEntry] = []
        fresh_plans = 0
        cache_hits = 0
        cache_misses = 0

        def resolve(
            index: int,
            kind: WindowKind,
            frame_index: int,
            effective_kind: str,
            effective_new: bool,
            wkey: tuple,
        ) -> _BatchEntry:
            """Plan (or cache-load) the first occurrence of ``wkey``."""
            nonlocal plan_key, fresh_plans, cache_hits, cache_misses
            cache_token = None
            if plan_cache is not None:
                try:
                    frozen = repr(freeze((
                        plan_key, kind, effective_kind, wkey[3], wkey[4],
                        feed.vr, state, duration,
                    )))
                except TypeError:
                    frozen = None
                if frozen is not None:
                    hasher = cache_prefix.copy()
                    hasher.update(frozen.encode())
                    cache_token = hasher.hexdigest()
                    cached = plan_cache.load_plan(cache_token)
                    if cached is not None:
                        _check_window(scheme, config, index, cached.result)
                        cache_hits += 1
                        entry = _BatchEntry(
                            start=cached.start,
                            result=cached.result,
                            digest=cached.digest,
                            final_state=cached.final_state,
                            effective_kind=effective_kind,
                            effective_new=effective_new,
                            stored=True,
                        )
                        entries[wkey] = entry
                        order.append(entry)
                        return entry
                    cache_misses += 1
            plan = WindowPlan(
                index=index,
                start=index * duration,
                duration=duration,
                kind=kind,
                frame_index=frame_index,
            )
            ctx = WindowContext(
                config=config,
                window=plan,
                frame=feed.frame,  # type: ignore[arg-type]
                vr=feed.vr,
                initial_state=state,
            )
            result = _stamp_content(scheme.plan_window(ctx), feed.frame)
            _check_window(scheme, config, index, result, duration)
            fresh_plans += 1
            entry = _BatchEntry(
                start=plan.start,
                result=result,
                digest=None,
                final_state=result.timeline.segments[-1].state,
                effective_kind=effective_kind,
                effective_new=effective_new,
            )
            order.append(entry)
            post_key = scheme.plan_key()
            if post_key == plan_key:
                # Planning left the scheme's state untouched, so the
                # plan is safe to replay anywhere in the run — and in
                # other runs, via the plan cache.
                entry.stored = True
                entries[wkey] = entry
                if cache_token is not None:
                    entry.digest = _plan_digest(
                        result.timeline, effective_kind, duration
                    )
                    plan_cache.store_plan(
                        cache_token,
                        CachedPlan(
                            start=entry.start,
                            result=result,
                            digest=entry.digest,
                            final_state=entry.final_state,
                        ),
                    )
            else:
                plan_key = post_key
            return entry

        def replay(entry: _BatchEntry, index: int) -> None:
            """Account one occurrence of ``entry`` at window ``index``."""
            nonlocal state
            entry.count += 1
            if retain_full:
                timelines.append(
                    _shifted(
                        entry.result.timeline, index * duration - entry.start
                    )
                )
            state = entry.final_state

        starts = group_starts()
        pending = next(starts, None)
        while pending is not None:
            i0, frame_index = pending
            pending = next(starts, None)
            i1 = pending[0] if pending is not None else window_count
            if feed.pulled <= frame_index:
                feed.pull_through(frame_index)
            frame, vr = feed.frame, feed.vr
            clamped = frame_index > feed.pulled - 1
            effective_new = not clamped
            effective_kind = "new_frame" if effective_new else "repeat"
            phase = (
                phase_fn(frame_index)
                if phase_fn is not None
                else frame_index
            )
            # Key on the frame's *content*: sources may re-issue the
            # same frame under fresh indices (e.g. ambient redraws),
            # and schemes plan from content alone (see DisplayScheme).
            frame_token = (
                frame.frame_type,  # type: ignore[union-attr]
                frame.encoded_bytes,  # type: ignore[union-attr]
                frame.decoded_bytes,  # type: ignore[union-attr]
                frame.attributes,  # type: ignore[union-attr]
            )
            wkey = (
                plan_key,
                WindowKind.NEW_FRAME,
                effective_kind,
                phase,
                frame_token,
                vr,
                state,
                duration,
            )
            entry = entries.get(wkey)
            if entry is None:
                entry = resolve(
                    i0, WindowKind.NEW_FRAME, frame_index,
                    effective_kind, effective_new, wkey,
                )
            replay(entry, i0)

            remaining = i1 - i0 - 1
            index = i0 + 1
            while remaining > 0:
                wkey = (
                    plan_key,
                    WindowKind.REPEAT,
                    "repeat",
                    None,
                    frame_token,
                    vr,
                    state,
                    duration,
                )
                entry = entries.get(wkey)
                if entry is None:
                    entry = resolve(
                        index, WindowKind.REPEAT, frame_index,
                        "repeat", False, wkey,
                    )
                if (
                    not retain_full
                    and entry.stored
                    and entry.final_state is state
                ):
                    # Steady state: the window re-enters its own entry
                    # state, so every remaining repeat in the group is
                    # this same plan — account them all at once.
                    entry.count += remaining
                    break
                replay(entry, index)
                index += 1
                remaining -= 1

        for entry in order:
            count = entry.count
            result = entry.result
            stats.windows += count
            if entry.effective_new:
                stats.new_frame_windows += count
            else:
                stats.repeat_windows += count
            stats.deadline_misses += count * int(result.deadline_missed)
            stats.vd_wakes += count * result.vd_wakes
            stats.psr_windows += count * int(result.used_psr)
            stats.bypassed_windows += count * int(result.bypassed_dram)
            stats.burst_windows += count * int(result.burst)
            if entry.digest is not None:
                summary.absorb_scaled(entry.digest, count)
            elif count == 1:
                # Unique window: fold its segments straight into the
                # run summary — one pass, exactly the streaming walker.
                timeline = result.timeline
                kind = entry.effective_kind
                for segment in timeline.segments:
                    summary.add_segment(segment, kind)
                summary.close_window(kind, duration, timeline.duration)
            else:
                summary.absorb_scaled(
                    _plan_digest(
                        result.timeline, entry.effective_kind, duration
                    ),
                    count,
                )

        run = RunResult(
            scheme=scheme.name,
            config=config,
            timeline=(
                Timeline.concatenate(timelines) if retain_full else None
            ),
            stats=stats,
            video_fps=video_fps,
            summary=summary,
        )
        registry = obs_metrics.registry()
        registry.histogram(
            "sim.window_s", "planned refresh-window durations (s)",
            buckets=obs_metrics.LATENCY_BUCKETS,
        ).observe_many(duration, stats.windows)
        registry.counter(
            "sim.batch.runs", "runs executed by the batch window engine"
        ).inc()
        _count_run(stats, (stats.windows - fresh_plans, fresh_plans))
        group_sizes = registry.histogram(
            "sim.batch.group_windows",
            "windows replayed per batch-engine plan group",
        )
        for entry in order:
            group_sizes.observe(entry.count)
        if plan_cache is not None:
            registry.counter(
                "sim.plan_cache.hit",
                "plan groups first served from the cross-run plan cache",
            ).inc(cache_hits)
            registry.counter(
                "sim.plan_cache.miss",
                "plan-cache lookups that fell through to fresh planning",
            ).inc(cache_misses)
        return run


# ---------------------------------------------------------------------------
# The window-by-window walker: traced runs, plan_key-less schemes, serve
# ---------------------------------------------------------------------------

#: Effectively-infinite window count for the streaming cadence walker.
#: ``RefreshTiming.windows`` is a ``range()``-driven generator, so the
#: huge bound costs nothing and every yielded plan is bit-identical to
#: the one a finite offline run would compute for the same index.
_STREAM_HORIZON = 1 << 62


@dataclass(frozen=True)
class StreamingWindow:
    """One refresh window advanced by :class:`StreamingSimulator`.

    Carries what a live observer prices per window: the plan, the
    *effective* kind (a clamped cadence new-frame counts as a repeat),
    and the one-window digest.  Collapse hits share the memo entry's
    digest object, so ``id(digest)``-keyed pricing caches hit for free.
    """

    plan: WindowPlan
    effective_kind: str
    digest: TimelineSummary
    final_state: PackageCState
    collapsed: bool
    deadline_missed: bool

    @property
    def effective_new_frame(self) -> bool:
        return self.effective_kind == "new_frame"


class StreamingSimulator:
    """The window-by-window cadence walker.

    Frames are either *pushed* by a live caller (``repro serve``
    sessions, as frames arrive over the wire) or pulled lazily from a
    source when :meth:`FrameWindowSimulator.run` falls back here
    (traced runs, schemes without ``plan_key()``).  Both drive the
    same :meth:`_step` — same plans, pull/clamp logic, collapsing (on
    when the scheme exposes ``plan_key()`` and no tracer is active)
    and digest order — so a pushed stream's result is byte-identical
    to the offline run of the same stream: live observation never
    perturbs the simulation.

    While a pushed stream is open the walker only advances windows
    whose frames are certain to exist in any completed stream
    (``index < round(frames_seen * windows_per_frame)``); a caller
    that cannot advance is *stalled* (backpressure).  :meth:`end`
    declares the stream complete, fixing the total window count the
    way ``run()`` computes it, and drains the remaining windows
    (re-presenting the last frame, clamped, exactly like an exhausted
    offline source).

    ``vr_work`` (one entry per frame, consumed in step with the
    frames) marks a VR run; ``retain`` selects what :meth:`result`
    keeps, as in ``run()``.  Under an active tracer every window emits
    its ``sim.window`` span and ``sim.segment`` events inside one
    ``sim.run`` span.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: DisplayScheme,
        video_fps: float,
        max_windows: int | None = None,
        vr_work: Sequence[VrWork] | None = None,
        retain: str = "summary",
    ) -> None:
        if retain not in RETAIN_MODES:
            raise SimulationError(f"unknown retain mode {retain!r}")
        _check_max_windows(max_windows)
        self.config = config
        self.scheme = scheme
        self.video_fps = float(video_fps)
        self.max_windows = max_windows
        self._timing = RefreshTiming(config.panel.refresh_hz, video_fps)
        self._plans = self._timing.windows(_STREAM_HORIZON)
        self._tracer = obs_trace.active()
        self._run_span: int | None = None
        self._collapse_enabled = (
            self._tracer is None
            and getattr(scheme, "plan_key", None) is not None
        )
        self._window_seconds = obs_metrics.registry().histogram(
            "sim.window_s", "planned refresh-window durations (s)",
            buckets=obs_metrics.LATENCY_BUCKETS,
        )
        self._buffer: "deque[FrameDescriptor]" = deque()
        self._feed = _FrameFeed(self._pop_buffered, vr_work)
        self.frames_seen = 0
        self._ended = False
        self._done = False
        self._next_index = 0
        self._state = PackageCState.C0
        self.stats = RunStats()
        self.summary = TimelineSummary()
        self._timelines: list[Timeline] | None = (
            [] if retain == "full" else None
        )
        self._collapse_entry: _CollapseEntry | None = None
        self._collapse_hits = 0
        self._collapse_misses = 0
        self._result: RunResult | None = None

    # -- feeding ------------------------------------------------------------

    def push(self, frame: FrameDescriptor) -> list[StreamingWindow]:
        """Append one frame and advance every window it unblocks."""
        if self._ended:
            raise SimulationError("cannot push frames after the stream ended")
        self._buffer.append(frame)
        self.frames_seen += 1
        if self._feed.frame is None:
            self._open(frames=-1)
        return self.advance()

    def end(self) -> list[StreamingWindow]:
        """Declare the stream complete and drain remaining windows."""
        if self.frames_seen == 0:
            raise SimulationError("cannot simulate an empty frame list")
        self._ended = True
        return self.advance()

    def _pop_buffered(self) -> FrameDescriptor | None:
        return self._buffer.popleft() if self._buffer else None

    def _drain(
        self, source: FrameSource, frame_count: int | None
    ) -> RunResult:
        """Walk a whole offline run of ``max_windows`` windows, pulling
        frames lazily from ``source`` (O(1) frame memory)."""
        self._feed.next_frame = functools.partial(next, iter(source), None)
        self._open(frames=frame_count if frame_count is not None else -1)
        step = self._step
        for plan in self._timing.windows(self.max_windows):
            step(plan)
        self._next_index = self.max_windows
        self._ended = self._done = True
        return self._finish()

    def _open(self, frames: int) -> None:
        """Open the traced ``sim.run`` span and pull the first frame
        (the cadence needs one before any window)."""
        if self._tracer is not None:
            self._run_span = self._tracer.begin_span(
                "sim.run",
                t=0.0,
                scheme=self.scheme.name,
                video_fps=self.video_fps,
                frames=frames,
                windows=-1 if self.max_windows is None else self.max_windows,
                vr=self._feed.vr_iter is not None,
            )
        self._feed.first()

    # -- advancing ----------------------------------------------------------

    @property
    def _horizon(self) -> int:
        """How far the walker may advance right now.

        Open streams stop at the conservative frame-backed horizon (a
        larger ``max_windows`` must wait for frames that may still
        arrive); ended streams stop at exactly the window count
        ``run()`` would compute for the same inputs.
        """
        natural = int(
            round(self.frames_seen * self._timing.windows_per_frame)
        )
        if self.max_windows is None:
            return natural
        if self._ended:
            return self.max_windows
        return min(natural, self.max_windows)

    def advance(self) -> list[StreamingWindow]:
        """Advance every window :attr:`_horizon` allows; returns them
        (empty is the *stalled* case for an open stream)."""
        produced: list[StreamingWindow] = []
        while not self._done:
            if self._next_index >= self._horizon:
                if self._ended:
                    self._done = True
                break
            plan = next(self._plans)
            kind, digest, collapsed, missed = self._step(plan)
            produced.append(StreamingWindow(
                plan, kind, digest, self._state, collapsed, missed
            ))
            self._next_index += 1
        return produced

    @property
    def stalled(self) -> bool:
        """An open stream that cannot advance until frames arrive."""
        return (
            not self._ended and self._next_index >= self._horizon
        )

    @property
    def windows_simulated(self) -> int:
        return self._next_index

    @property
    def finished(self) -> bool:
        return self._done

    def _step(
        self, plan: WindowPlan
    ) -> tuple[str, TimelineSummary, bool, bool]:
        """Advance one window; returns its effective kind, digest,
        whether it was a collapse hit, and whether it missed its
        deadline."""
        feed = self._feed
        if feed.pulled <= plan.frame_index:
            feed.pull_through(plan.frame_index)
        #: The stream ran out and this window re-presents the last
        #: frame: effectively a repeat regardless of the cadence.
        clamped = plan.frame_index > feed.pulled - 1
        effective_new_frame = plan.is_new_frame and not clamped
        effective_kind = "new_frame" if effective_new_frame else "repeat"
        frame, vr, state = feed.frame, feed.vr, self._state
        tracer = self._tracer
        window_span = None
        if tracer is not None:
            window_span = tracer.begin_span(
                "sim.window",
                t=plan.start,
                index=plan.index,
                kind="new_frame" if plan.is_new_frame else "repeat",
                frame=feed.pulled - 1,
                initial_state=state,
            )
        self._window_seconds.observe(plan.duration)
        window_key: tuple | None = None
        if self._collapse_enabled:
            window_key = (
                self.scheme.plan_key(),
                plan.kind,
                plan.frame_index if plan.is_new_frame else None,
                frame,
                vr,
                state,
                plan.duration,
            )
            entry = self._collapse_entry
            if entry is not None and entry.key == window_key:
                self._collapse_hits += 1
                result = entry.result
                if self._timelines is not None:
                    self._timelines.append(
                        _shifted(result.timeline, plan.start - entry.start)
                    )
                self.stats.record(plan, result, new_frame=effective_new_frame)
                self.summary.absorb(entry.digest)
                self._state = entry.final_state
                return (effective_kind, entry.digest, True,
                        result.deadline_missed)
        ctx = WindowContext(
            config=self.config,
            window=plan,
            frame=frame,  # type: ignore[arg-type]
            vr=vr,
            initial_state=state,
        )
        result = _stamp_content(self.scheme.plan_window(ctx), frame)
        _check_window(
            self.scheme, self.config, plan.index, result, plan.duration
        )
        self.stats.record(plan, result, new_frame=effective_new_frame)
        digest = TimelineSummary.window_digest(
            result.timeline, effective_kind, plan.duration
        )
        self.summary.absorb(digest)
        if self._timelines is not None:
            self._timelines.append(result.timeline)
        self._state = result.timeline.segments[-1].state
        if self._collapse_enabled:
            self._collapse_misses += 1
            self._collapse_entry = _CollapseEntry(
                key=window_key,  # type: ignore[arg-type]
                start=plan.start,
                result=result,
                digest=digest,
                final_state=self._state,
            )
        if tracer is not None:
            for segment in result.timeline:
                tracer.event(
                    "sim.segment",
                    t=segment.start,
                    state=segment.state,
                    duration=segment.duration,
                    label=segment.label,
                    transition=segment.transition,
                )
            tracer.end_span(
                window_span,  # type: ignore[arg-type]
                t=plan.end,
                deadline_missed=result.deadline_missed,
                vd_wakes=result.vd_wakes,
                used_psr=result.used_psr,
                bypassed_dram=result.bypassed_dram,
                burst=result.burst,
                final_state=self._state,
            )
        return effective_kind, digest, False, result.deadline_missed

    # -- completion ---------------------------------------------------------

    def result(self) -> RunResult:
        """The completed run, with the run-level registry counters
        incremented (and the traced ``sim.run`` span closed) exactly
        once."""
        if not self._done:
            raise SimulationError(
                "streaming run still has windows pending "
                "(call end() first)"
            )
        return self._finish()

    def _finish(self) -> RunResult:
        if self._result is not None:
            return self._result
        stats = self.stats
        run = RunResult(
            scheme=self.scheme.name,
            config=self.config,
            timeline=(
                Timeline.concatenate(self._timelines)
                if self._timelines is not None
                else None
            ),
            stats=stats,
            video_fps=self.video_fps,
            summary=self.summary,
        )
        _count_run(
            stats,
            (self._collapse_hits, self._collapse_misses)
            if self._collapse_enabled else None,
        )
        if self._run_span is not None:
            self._tracer.end_span(  # type: ignore[union-attr]
                self._run_span,
                t=run.aggregate.end,
                **dataclasses.asdict(stats),
            )
        self._result = run
        return run
