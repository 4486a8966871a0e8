"""Substrate micro-benchmarks: the functional codec and the frame-window
simulator themselves (how fast the reproduction machinery runs, not a
paper exhibit).

The simulator benches run with memoization disabled — they time the raw
simulator, not a cache load.  Set ``REPRO_BENCH_QUICK=1`` for the CI
smoke configuration (shorter simulated runs, same code paths).
"""

import os

import numpy as np

from repro.analysis.runner import cache_disabled
from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme
from repro.pipeline import (
    ConventionalScheme,
    FrameWindowSimulator,
    StreamingSimulator,
)
from repro.video import Codec, CodecConfig
from repro.video.frames import FrameType
from repro.video.source import AnalyticContentModel

#: Frames per simulated run; CI smoke mode trades precision for speed.
_SIM_FRAMES = 24 if os.environ.get("REPRO_BENCH_QUICK") else 120


def _test_frame(size=96):
    ys, xs = np.mgrid[0:size, 0:size]
    base = (xs * 3 + ys * 2) % 256
    return np.stack(
        [base, 255 - base, base // 2], axis=-1
    ).astype(np.uint8)


def test_codec_encode_throughput(benchmark):
    codec = Codec(CodecConfig(qstep=12.0))
    frame = _test_frame()

    encoded, _ = benchmark(
        codec.encode_frame, 0, frame, FrameType.I
    )
    pixels = frame.shape[0] * frame.shape[1]
    print(f"\nencoded {pixels} px -> {encoded.size_bytes} B")


def test_codec_decode_throughput(benchmark):
    codec = Codec(CodecConfig(qstep=12.0))
    encoded, _ = codec.encode_frame(0, _test_frame(), FrameType.I)

    decoded = benchmark(codec.decode_frame, encoded)
    print(f"\ndecoded to {decoded.size_bytes} B")


def test_simulator_throughput_baseline(benchmark):
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        with cache_disabled():
            return FrameWindowSimulator(
                config, ConventionalScheme()
            ).run(frames, 60.0)

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s)")


def test_simulator_throughput_burstlink(benchmark):
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        with cache_disabled():
            return FrameWindowSimulator(
                config, BurstLinkScheme()
            ).run(frames, 60.0)

    result = benchmark(run)
    print(f"\n{result.stats.windows} windows simulated")


def test_simulator_streaming_walker(benchmark):
    """The window-by-window walker (:class:`StreamingSimulator`, frames
    pushed) — the batch engine's baseline."""
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        walker = StreamingSimulator(config, BurstLinkScheme(), 60.0)
        for frame in frames:
            walker.push(frame)
        walker.end()
        return walker.result()

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s, streaming walker)")


def test_simulator_batch_engine(benchmark):
    """The vectorized batch engine on the same run as the streaming
    bench above — the before/after pair behind the README table."""
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, _SIM_FRAMES)

    def run():
        with cache_disabled():
            return FrameWindowSimulator(config, BurstLinkScheme()).run(
                frames, 60.0, retain="summary"
            )

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s, batch engine)")


def test_simulator_batch_engine_standby(benchmark):
    """The batch engine's best case: a repeating ambient frame where
    nearly every window replays one cached plan."""
    from repro.core.burstlink import BurstLinkScheme as _BL
    from repro.workloads.standby import (
        AmbientStandbyWorkload,
        ambient_standby_run,
    )

    workload = AmbientStandbyWorkload(
        duration_s=15.0 if os.environ.get("REPRO_BENCH_QUICK") else 60.0
    )

    def run():
        with cache_disabled():
            return ambient_standby_run(workload, _BL())

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s, ambient standby)")


def test_simulator_streaming_walker_standby(benchmark):
    """The streaming walker on the same ambient standby run — the
    reference column of the README table's standby row."""
    from repro.core.burstlink import BurstLinkScheme as _BL
    from repro.workloads.standby import AmbientStandbyWorkload

    workload = AmbientStandbyWorkload(
        duration_s=15.0 if os.environ.get("REPRO_BENCH_QUICK") else 60.0
    )
    config = workload.system_config()

    def run():
        walker = StreamingSimulator(
            config, _BL(), workload.update_fps,
            max_windows=workload.window_count,
        )
        for frame in workload.source():
            walker.push(frame)
        walker.end()
        return walker.result()

    result = benchmark(run)
    rate = result.stats.windows / benchmark.stats["mean"]
    print(f"\n{result.stats.windows} windows simulated "
          f"({rate:,.0f} windows/s, streaming walker, ambient standby)")


def test_serve_session_stream(benchmark):
    """One in-process ``repro serve`` session: open, 300 frames in 30
    ``stream`` chunks of 10, close — the walker plus per-window digest
    pricing and rolling gauges, without the socket."""
    from repro.obs.serve import PowerAdvisorService

    service = PowerAdvisorService()

    def run():
        sid = service.handle(
            {"op": "open", "scheme": "burstlink", "resolution": "FHD",
             "fps": 30.0}
        )["session"]
        for start in range(0, 300, 10):
            service.handle(
                {"op": "stream", "session": sid, "count": 10,
                 "start": start, "seed": 1}
            )
        return service.handle(
            {"op": "close", "session": sid, "retire": True}
        )

    final = benchmark(run)
    windows = final["final"]["stats"]["windows"]
    rate = windows / benchmark.stats["mean"]
    print(f"\n{windows} windows served "
          f"({rate:,.0f} windows/s, in-process serve session)")
