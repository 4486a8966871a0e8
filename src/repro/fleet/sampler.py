"""Deterministic device sampling and per-device simulation.

Every device in a fleet is one weighted draw from the spec's scenario
matrix.  The draw for device ``i`` depends only on ``(spec.seed, i)``
— never on which shard or process simulates it — so any partition of
the device range produces the same population, shard boundaries can
move between runs, and a resumed run re-derives exactly the devices it
still owes.

A device simulates under the baseline and every candidate scheme with
``retain="summary"`` (streaming :class:`~repro.pipeline.timeline.
TimelineSummary` aggregation, O(1) memory at any session length) and
reduces to a small result record: per-scheme average power, battery
life via :mod:`repro.analysis.battery`, energy reduction vs the
baseline, and the winning scheme.  The finite content-seed pool keeps
the number of distinct simulations bounded, so the process-wide run
memo (:class:`repro.analysis.runner.SimulationCache`) turns most of a
large fleet into cache hits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.battery import BatteryLife
from ..config import Resolution, SystemConfig, skylake_tablet
from ..errors import SimulationError
from ..pipeline.sim import DisplayScheme, FrameWindowSimulator, RunResult
from ..power.model import PowerModel
from ..video.source import AnalyticFrameSource, AnalyticContentModel
from ..workloads.oled import OledVideoWorkload, oled_video_run
from ..workloads.standby import (
    AmbientStandbyWorkload,
    ambient_standby_run,
)
from ..workloads.streaming import (
    NetworkStreamWorkload,
    network_stream_run,
)
from .spec import RESOLUTIONS, SCHEMES, FleetSpec, WorkloadSpec

#: Large odd multiplier decorrelating the per-device RNG streams
#: derived from ``(spec.seed, device index)``.
_SEED_STRIDE = 0x9E3779B1


@dataclass(frozen=True)
class DeviceSample:
    """One device's draw from the scenario matrix."""

    index: int
    workload: WorkloadSpec
    resolution_label: str
    refresh_hz: float
    fps: float
    content_seed: int

    @property
    def resolution(self) -> Resolution:
        return RESOLUTIONS[self.resolution_label]

    @property
    def stratum(self) -> str:
        """The population stratum this device reports under."""
        return (
            f"{self.workload.name}|{self.resolution_label}"
            f"|{self.refresh_hz:g}Hz|{self.fps:g}fps"
        )


def _weighted_choice(
    rng: random.Random, values: tuple, weights: tuple[float, ...]
):
    """One weighted draw (inline cumulative scan: the axes are tiny
    and this keeps the draw's RNG consumption at exactly one float)."""
    target = rng.random() * sum(weights)
    cumulative = 0.0
    for value, weight in zip(values, weights):
        cumulative += weight
        if target < cumulative:
            return value
    return values[-1]


def sample_device(spec: FleetSpec, index: int) -> DeviceSample:
    """The deterministic draw for device ``index`` (0-based)."""
    rng = random.Random(spec.seed * _SEED_STRIDE + index)
    workload = _weighted_choice(
        rng,
        spec.workloads,
        tuple(w.weight for w in spec.workloads),
    )
    resolution = _weighted_choice(
        rng, spec.resolution.values, spec.resolution.weights
    )
    refresh = float(
        _weighted_choice(
            rng, spec.refresh_hz.values, spec.refresh_hz.weights
        )
    )
    fps = float(
        _weighted_choice(rng, spec.fps.values, spec.fps.weights)
    )
    content_seed = rng.randrange(spec.content_seeds)
    return DeviceSample(
        index=index,
        workload=workload,
        resolution_label=str(resolution),
        refresh_hz=refresh,
        fps=min(fps, refresh),
        content_seed=content_seed,
    )


@dataclass(frozen=True)
class _VideoSession:
    """A streaming video session: the platform and its frame stream."""

    config: SystemConfig
    source: AnalyticFrameSource
    fps: float


def _video_session(sample: DeviceSample) -> _VideoSession:
    return _VideoSession(
        config=skylake_tablet(sample.resolution, sample.refresh_hz),
        source=AnalyticFrameSource(
            AnalyticContentModel(content=sample.workload.content_class),
            sample.resolution,
            sample.workload.frames,
            seed=sample.content_seed,
        ),
        fps=sample.fps,
    )


def _video_run(
    session: _VideoSession, scheme: DisplayScheme, with_drfb: bool
) -> RunResult:
    config = session.config.with_drfb() if with_drfb else session.config
    return FrameWindowSimulator(config, scheme).run(
        session.source, session.fps, retain="summary"
    )


def _standby_session(sample: DeviceSample) -> AmbientStandbyWorkload:
    return AmbientStandbyWorkload(
        resolution=sample.resolution,
        refresh_hz=sample.refresh_hz,
        update_fps=sample.workload.update_fps,
        duration_s=sample.workload.duration_s,
        content=sample.workload.content_class,
        seed=sample.content_seed,
    )


def _oled_session(sample: DeviceSample) -> OledVideoWorkload:
    return OledVideoWorkload(
        resolution=sample.resolution,
        fps=sample.fps,
        refresh_hz=sample.refresh_hz,
        brightness=sample.workload.brightness,
        content=sample.workload.content_class,
        frame_count=sample.workload.frames,
        seed=sample.content_seed,
    )


def _netstream_session(sample: DeviceSample) -> NetworkStreamWorkload:
    return NetworkStreamWorkload(
        resolution=sample.resolution,
        fps=sample.fps,
        refresh_hz=sample.refresh_hz,
        bandwidth_mbps=sample.workload.bandwidth_mbps,
        content=sample.workload.content_class,
        frame_count=sample.workload.frames,
        seed=sample.content_seed,
    )


#: Workload kind -> (build the device's session, run it under a scheme).
_SESSIONS: dict[str, tuple[Callable, Callable]] = {
    "video": (_video_session, _video_run),
    "standby": (_standby_session, ambient_standby_run),
    "oled": (_oled_session, oled_video_run),
    "netstream": (_netstream_session, network_stream_run),
}


def _scheme_power(
    spec: FleetSpec, sample: DeviceSample
) -> dict[str, float]:
    """Per-scheme average power (mW) for the device's session, baseline
    first."""
    build, run = _SESSIONS[sample.workload.kind]
    session = build(sample)
    model = PowerModel()
    power: dict[str, float] = {}
    for label in spec.scheme_labels():
        factory, needs_drfb = SCHEMES[label]
        power[label] = model.report(
            run(session, factory(), with_drfb=needs_drfb)
        ).average_power_mw
    return power


def simulate_device(
    spec: FleetSpec, sample: DeviceSample
) -> dict[str, Any]:
    """Simulate one device under every scheme; returns its compact
    result record (a JSON-safe dict — the aggregate's input unit)."""
    power = _scheme_power(spec, sample)
    battery = {
        label: BatteryLife(spec.battery_wh, mw).hours
        for label, mw in power.items()
    }
    base = power[spec.baseline]
    if base <= 0:
        raise SimulationError(
            f"device {sample.index}: baseline consumed no energy"
        )
    reduction = {
        label: 1.0 - power[label] / base for label in spec.schemes
    }
    winner = min(
        spec.scheme_labels(), key=lambda label: (power[label], label)
    )
    return {
        "index": sample.index,
        "stratum": sample.stratum,
        "power_mw": power,
        "battery_h": battery,
        "reduction": reduction,
        "winner": winner,
    }


__all__ = [
    "DeviceSample",
    "sample_device",
    "simulate_device",
]
