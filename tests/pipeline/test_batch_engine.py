"""The batch window engine and the cross-run plan cache.

The reference walker throughout is the window-by-window
:class:`~repro.pipeline.sim.StreamingSimulator` (itself pinned against
``tests/golden/walker_oracle.json``); the batch engine must match it
to the 1e-9 parity budget with identical stats."""

import dataclasses

import pytest

from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme, FrameBurstingScheme
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import (
    StreamingSimulator,
    install_run_memo,
    set_plan_cache,
)
from repro.power import PowerModel
from repro.video.source import AnalyticContentModel, RepeatingFrameSource


@pytest.fixture(autouse=True)
def no_memo():
    """These tests measure the simulator itself, not the run cache."""
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


@pytest.fixture
def frames():
    return AnalyticContentModel().frames(FHD, 12, seed=5)


def _counter(name):
    return obs_metrics.registry().counter(name, "").value


def _run(config, scheme, frames, fps, **kwargs):
    return FrameWindowSimulator(config, scheme).run(
        frames, fps, **kwargs
    )


def _scalar(config, scheme, frames, fps, max_windows=None,
            retain="full"):
    """The reference: the window-by-window walker, frames pushed."""
    walker = StreamingSimulator(
        config, scheme, fps, max_windows=max_windows, retain=retain
    )
    for frame in frames:
        walker.push(frame)
    walker.end()
    return walker.result()


def _assert_same_aggregates(reference, other, rel=1e-9):
    assert other.stats == reference.stats
    assert other.duration == pytest.approx(
        reference.duration, rel=rel
    )
    ref_res = reference.residency_fractions()
    other_res = other.residency_fractions()
    assert set(ref_res) == set(other_res)
    for state, fraction in ref_res.items():
        assert other_res[state] == pytest.approx(
            fraction, rel=rel, abs=1e-12
        )
    assert other.dram_total_bytes == pytest.approx(
        reference.dram_total_bytes, rel=rel
    )
    assert other.edp_bytes == pytest.approx(
        reference.edp_bytes, rel=rel
    )
    ref_kinds = reference.summary.window_counts
    oth_kinds = other.summary.window_counts
    assert ref_kinds == oth_kinds


def _assert_same_power(reference, other, rel=1e-9):
    ref = PowerModel().report(reference)
    oth = PowerModel().report(other)
    assert oth.total_energy_mj == pytest.approx(
        ref.total_energy_mj, rel=rel
    )
    assert set(ref.by_component_mj) == set(oth.by_component_mj)
    for component, mj in ref.by_component_mj.items():
        assert oth.by_component_mj[component] == pytest.approx(
            mj, rel=rel, abs=1e-9
        )


class TestEngineSelection:
    def test_batch_engine_runs_by_default(self, fhd_config, frames):
        before = _counter("sim.batch.runs")
        _run(fhd_config, ConventionalScheme(), frames, 30.0)
        assert _counter("sim.batch.runs") == before + 1

    def test_collapse_off_forces_scalar(self, fhd_config, frames):
        """A scheme without ``plan_key()`` cannot collapse, so ``run()``
        walks it window by window."""
        from repro.core import WindowedVideoScheme

        before = _counter("sim.batch.runs")
        _run(
            fhd_config.with_drfb(), WindowedVideoScheme(), frames, 30.0,
        )
        assert _counter("sim.batch.runs") == before


class TestTracedFallback:
    """An active tracer must force the window-by-window walker — golden
    traces stay byte-exact."""

    def test_tracer_forces_scalar(self, fhd_config, frames):
        before = _counter("sim.batch.runs")
        with obs_trace.tracing():
            traced = _run(
                fhd_config, ConventionalScheme(), frames, 30.0,
            )
        assert _counter("sim.batch.runs") == before
        untraced = _run(
            fhd_config, ConventionalScheme(), frames, 30.0,
        )
        assert _counter("sim.batch.runs") == before + 1
        _assert_same_aggregates(traced, untraced)

    def test_traced_spans_unchanged_by_engine(self, fhd_config, frames):
        with obs_trace.tracing() as tracer:
            _run(fhd_config, ConventionalScheme(), frames, 30.0)
        names = [
            event.get("name")
            for event in tracer.events
            if event.get("kind") == "B"
        ]
        assert "sim.run" in names
        assert "sim.window" in names


class TestBatchParity:
    SCHEMES = (
        ("conventional", ConventionalScheme, False),
        ("burstlink", BurstLinkScheme, True),
        ("bursting", FrameBurstingScheme, True),
    )

    @pytest.mark.parametrize(
        "name,scheme_cls,needs_drfb", SCHEMES,
        ids=[s[0] for s in SCHEMES],
    )
    @pytest.mark.parametrize("retain", ["full", "summary"])
    def test_matches_scalar(
        self, fhd_config, frames, name, scheme_cls, needs_drfb, retain
    ):
        config = (
            fhd_config.with_drfb() if needs_drfb else fhd_config
        )
        scalar = _scalar(
            config, scheme_cls(), frames, 30.0, retain=retain,
        )
        batch = _run(config, scheme_cls(), frames, 30.0, retain=retain)
        _assert_same_aggregates(scalar, batch)
        _assert_same_power(scalar, batch)

    def test_full_retain_timeline_is_contiguous(
        self, fhd_config, frames
    ):
        run = _run(
            fhd_config, ConventionalScheme(), frames, 15.0,
            retain="full",
        )
        segments = run.timeline.segments
        for previous, current in zip(segments, segments[1:]):
            assert current.start == pytest.approx(
                previous.end, abs=1e-12
            )

    def test_clamped_stream_matches_scalar(self, fhd_config):
        frames = AnalyticContentModel().frames(FHD, 4, seed=2)
        scalar = _scalar(
            fhd_config, ConventionalScheme(), frames, 30.0,
            max_windows=40,
        )
        batch = _run(
            fhd_config, ConventionalScheme(), frames, 30.0,
            max_windows=40,
        )
        assert batch.stats == scalar.stats
        assert batch.stats.windows == 40
        _assert_same_aggregates(scalar, batch)

    def test_stateful_scheme_matches_scalar(self, fhd_config, frames):
        from repro.baselines import FrameBufferCompressionScheme

        scalar = _scalar(
            fhd_config, FrameBufferCompressionScheme(), frames, 30.0,
        )
        batch = _run(
            fhd_config, FrameBufferCompressionScheme(), frames, 30.0,
        )
        _assert_same_aggregates(scalar, batch)
        _assert_same_power(scalar, batch)

    def test_repeating_source_shares_plans(self, fhd_config):
        """Re-indexed copies of one frame must share a single batch
        entry: the engine keys on frame content, not the descriptor."""
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        source = RepeatingFrameSource(frame, 12)
        before = _counter("sim.collapse.miss")
        run = _run(
            fhd_config, ConventionalScheme(), source, 30.0,
            max_windows=24,
        )
        fresh = _counter("sim.collapse.miss") - before
        # One new-frame plan + at most a couple of repeat plans; the
        # eleven re-issued identical frames plan nothing new.
        assert fresh <= 3
        assert run.stats.windows == 24


class TestBatchCounters:
    def test_counters_cover_every_window(self, fhd_config, frames):
        before_hit = _counter("sim.collapse.hit")
        before_miss = _counter("sim.collapse.miss")
        run = _run(
            fhd_config, ConventionalScheme(), frames, 15.0,
        )
        hits = _counter("sim.collapse.hit") - before_hit
        misses = _counter("sim.collapse.miss") - before_miss
        assert hits + misses == run.stats.windows
        assert hits > 0

    def test_group_histogram_observes_entries(self, fhd_config, frames):
        histogram = obs_metrics.registry().histogram(
            "sim.batch.group_windows", ""
        )
        before = histogram.count
        _run(
            fhd_config, ConventionalScheme(), frames, 15.0,
        )
        assert histogram.count > before

    def test_plan_cache_counters_silent_without_cache(
        self, fhd_config, frames
    ):
        before_hit = _counter("sim.plan_cache.hit")
        before_miss = _counter("sim.plan_cache.miss")
        _run(
            fhd_config, ConventionalScheme(), frames, 30.0,
        )
        assert _counter("sim.plan_cache.hit") == before_hit
        assert _counter("sim.plan_cache.miss") == before_miss


class TestPlanCache:
    @pytest.fixture
    def plan_cache(self, tmp_path):
        from repro.analysis.runner import SimulationCache

        cache = SimulationCache(directory=tmp_path)
        previous_memo = install_run_memo(cache)
        previous_active = set_plan_cache(True)
        yield cache
        set_plan_cache(previous_active)
        install_run_memo(previous_memo)

    def test_cross_run_hits(self, fhd_config, plan_cache):
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 12), 30.0, max_windows=24,
        )
        assert plan_cache.stats.plan_stores > 0
        baseline = dataclasses.replace(plan_cache.stats)
        # A different window budget is a run-level miss but replays
        # every plan from the cache.
        _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 24), 30.0, max_windows=48,
        )
        stats = plan_cache.stats
        assert stats.misses - baseline.misses == 1
        assert stats.plan_hits > baseline.plan_hits
        assert stats.plan_misses == baseline.plan_misses

    def test_disk_round_trip(self, fhd_config, tmp_path, plan_cache):
        from repro.analysis.runner import SimulationCache

        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 12), 30.0, max_windows=24,
        )
        # A cold cache sharing the directory reads plans from disk.
        cold = SimulationCache(directory=plan_cache.directory)
        install_run_memo(cold)
        _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 24), 30.0, max_windows=48,
        )
        assert cold.stats.plan_disk_hits > 0
        assert cold.stats.plan_misses == 0

    def test_config_change_invalidates(self, fhd_config, plan_cache):
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 12), 30.0, max_windows=24,
        )
        baseline = dataclasses.replace(plan_cache.stats)
        changed = dataclasses.replace(
            fhd_config,
            orchestration=dataclasses.replace(
                fhd_config.orchestration,
                baseline_per_frame=(
                    fhd_config.orchestration.baseline_per_frame * 2
                ),
            ),
        )
        _run(
            changed, ConventionalScheme(),
            RepeatingFrameSource(frame, 12), 30.0, max_windows=24,
        )
        stats = plan_cache.stats
        assert stats.plan_hits == baseline.plan_hits
        assert stats.plan_misses > baseline.plan_misses

    def test_cached_run_matches_scalar(self, fhd_config, plan_cache):
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 12), 30.0, max_windows=24,
        )
        warm = _run(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 24), 30.0, max_windows=48,
        )
        assert plan_cache.stats.plan_hits > 0
        install_run_memo(None)
        scalar = _scalar(
            fhd_config, ConventionalScheme(),
            RepeatingFrameSource(frame, 24), 30.0, max_windows=48,
        )
        _assert_same_aggregates(scalar, warm)
        _assert_same_power(scalar, warm)

    def test_strict_deadlines_raise_through_batch(self, plan_cache):
        from repro.errors import DeadlineMissError

        config = skylake_tablet(FHD)
        slow = dataclasses.replace(
            config,
            orchestration=dataclasses.replace(
                config.orchestration, baseline_per_frame=0.050
            ),
            strict_deadlines=False,
        )
        frame = AnalyticContentModel().frames(FHD, 1, seed=9)[0]
        lenient = _run(
            slow, ConventionalScheme(),
            RepeatingFrameSource(frame, 4), 30.0, max_windows=8,
        )
        assert lenient.stats.deadline_misses > 0
        strict = dataclasses.replace(slow, strict_deadlines=True)
        with pytest.raises(DeadlineMissError):
            _run(
                strict, ConventionalScheme(),
                RepeatingFrameSource(frame, 4), 30.0, max_windows=8,
            )
