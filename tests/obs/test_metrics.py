"""The metrics registry: counters, gauges, histograms, reports."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RollingGauge,
    labelled,
    linear_buckets,
    registry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == 55.5
        assert histogram.minimum == 0.5
        assert histogram.maximum == 50.0
        assert histogram.mean == 18.5

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_snapshot_buckets(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        histogram.observe(2.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"le_1": 1, "le_inf": 1}


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ConfigurationError):
            reg.gauge("a")

    def test_snapshot_and_json(self):
        reg = MetricsRegistry()
        reg.counter("z").inc(2)
        reg.gauge("a").set(1.5)
        snapshot = reg.snapshot()
        assert list(snapshot) == ["a", "z"]  # sorted
        assert snapshot["z"] == {"type": "counter", "value": 2}
        parsed = json.loads(reg.to_json())
        assert parsed["a"]["value"] == 1.5

    def test_table_report(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits").inc(3)
        reg.histogram("wall_s").observe(0.5)
        table = reg.table()
        assert "cache.hits" in table
        assert "counter" in table
        assert "n=1" in table

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0

    def test_process_wide_registry_is_shared(self):
        assert registry() is registry()


class TestInstrumentationFeedsRegistry:
    def test_simulator_updates_counters(self):
        from repro.analysis.runner import cache_disabled
        from repro.config import FHD, skylake_tablet
        from repro.pipeline import ConventionalScheme, FrameWindowSimulator
        from repro.video.source import AnalyticContentModel

        reg = registry()
        before = reg.counter("sim.windows").value
        frames = AnalyticContentModel().frames(FHD, 2, seed=3)
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(frames, 30.0)
        assert (
            reg.counter("sim.windows").value - before == run.stats.windows
        )

    def test_power_model_updates_counters(self):
        from repro.analysis.runner import cache_disabled
        from repro.config import FHD, skylake_tablet
        from repro.pipeline import ConventionalScheme, FrameWindowSimulator
        from repro.power import PowerModel
        from repro.video.source import AnalyticContentModel

        reg = registry()
        before = reg.counter("power.reports").value
        frames = AnalyticContentModel().frames(FHD, 2, seed=3)
        with cache_disabled():
            run = FrameWindowSimulator(
                skylake_tablet(FHD), ConventionalScheme()
            ).run(frames, 30.0)
        PowerModel().report(run)
        assert reg.counter("power.reports").value == before + 1

    def test_codec_updates_counters(self):
        import numpy as np

        from repro.video.codec import Codec
        from repro.video.frames import FrameType

        reg = registry()
        before_enc = reg.counter("codec.frames_encoded").value
        before_dec = reg.counter("codec.frames_decoded").value
        frame = np.zeros((32, 32, 3), dtype=np.uint8)
        codec = Codec()
        encoded, _ = codec.encode_frame(0, frame, FrameType.I)
        codec.decode_frame(encoded)
        assert reg.counter("codec.frames_encoded").value == before_enc + 1
        assert reg.counter("codec.frames_decoded").value == before_dec + 1
        assert reg.counter("codec.macroblocks_encoded").value >= 4


class TestQuantileEdges:
    """Histogram.quantile and linear_buckets boundary behaviour."""

    def test_empty_histogram_quantile_is_zero(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        assert histogram.quantile(0.5) == 0.0

    def test_quantile_bounds_rejected_outside_unit_interval(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        with pytest.raises(ConfigurationError):
            histogram.quantile(-0.01)
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.01)

    def test_q0_and_q1_pin_to_observed_extremes(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.25, 3.0, 42.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.25
        assert histogram.quantile(1.0) == 42.0

    def test_single_bucket_interpolates_between_extremes(self):
        # All mass in one bucket: min/max tighten the edges, so every
        # quantile lies inside [min, max].
        histogram = Histogram("h", buckets=(100.0,))
        for value in (10.0, 20.0, 30.0, 40.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 10.0
        assert histogram.quantile(1.0) == 40.0
        assert 10.0 <= histogram.quantile(0.5) <= 40.0

    def test_overflow_bucket_quantile_capped_at_maximum(self):
        histogram = Histogram("h", buckets=(1.0,))
        for value in (5.0, 7.0, 9.0):
            histogram.observe(value)
        assert histogram.quantile(0.99) <= 9.0
        assert histogram.quantile(1.0) == 9.0

    def test_merge_then_quantile_matches_union_stream(self):
        bounds = linear_buckets(0.0, 1.0, 10)
        left = Histogram("h", buckets=bounds)
        right = Histogram("h", buckets=bounds)
        union = Histogram("h", buckets=bounds)
        for value in (0.5, 2.5, 4.5):
            left.observe(value)
            union.observe(value)
        for value in (1.5, 8.5, 9.5):
            right.observe(value)
            union.observe(value)
        left.merge_snapshot(right.snapshot())
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert left.quantile(q) == union.quantile(q)

    def test_linear_buckets_single_bucket(self):
        assert linear_buckets(5.0, 2.0, 1) == (5.0,)

    def test_linear_buckets_edges_are_exact(self):
        bounds = linear_buckets(0.0, 0.1, 5)
        assert bounds == tuple(0.0 + i * 0.1 for i in range(5))

    def test_linear_buckets_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            linear_buckets(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            linear_buckets(0.0, 0.0, 4)
        with pytest.raises(ConfigurationError):
            linear_buckets(0.0, -1.0, 4)


class TestRollingGauge:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ConfigurationError):
            RollingGauge("r", window_s=0.0)

    def test_mean_over_surviving_samples(self):
        gauge = RollingGauge("r", window_s=5.0)
        gauge.observe(0.0, 10.0)
        gauge.observe(1.0, 20.0)
        assert gauge.value == 15.0
        assert gauge.latest == 20.0

    def test_eviction_drops_samples_behind_the_window(self):
        gauge = RollingGauge("r", window_s=2.0)
        gauge.observe(0.0, 100.0)
        gauge.observe(1.0, 50.0)
        gauge.observe(3.5, 10.0)
        # Eviction keeps samples with t > max_t - window_s = 1.5, so
        # both earlier samples are gone.
        assert len(gauge) == 1
        assert gauge.value == 10.0

    def test_eviction_boundary_is_exclusive(self):
        gauge = RollingGauge("r", window_s=2.0)
        gauge.observe(1.0, 40.0)
        gauge.observe(3.0, 60.0)
        # t=1.0 is exactly max_t - window_s and is evicted.
        assert len(gauge) == 1
        assert gauge.value == 60.0

    def test_empty_gauge_reads_zero(self):
        gauge = RollingGauge("r", window_s=1.0)
        assert gauge.value == 0.0
        assert gauge.latest == 0.0
        assert gauge.render() == "n=0"

    def test_merge_interleaves_then_reevicts(self):
        left = RollingGauge("r", window_s=4.0)
        right = RollingGauge("r", window_s=4.0)
        left.observe(0.0, 1.0)
        left.observe(2.0, 3.0)
        right.observe(5.0, 7.0)
        left.merge_snapshot(right.snapshot())
        # max_t=5.0, window 4.0: the t=0 sample dies, t=2 and t=5 live.
        assert len(left) == 2
        assert left.value == 5.0

    def test_merge_rejects_window_mismatch(self):
        left = RollingGauge("r", window_s=4.0)
        right = RollingGauge("r", window_s=2.0)
        with pytest.raises(ConfigurationError):
            left.merge_snapshot(right.snapshot())

    def test_registry_roundtrip_via_snapshot(self):
        source = MetricsRegistry()
        gauge = source.rolling_gauge("serve.mw", window_s=3.0)
        gauge.observe(1.0, 10.0)
        gauge.observe(2.0, 30.0)
        target = MetricsRegistry()
        merged = target.merge_snapshot(
            json.loads(json.dumps(source.snapshot()))
        )
        assert merged == 1
        restored = target.rolling_gauge("serve.mw", window_s=3.0)
        assert restored.value == 20.0

    def test_remove_and_remove_prefix(self):
        reg = MetricsRegistry()
        reg.counter("serve.a")
        reg.rolling_gauge('serve.win.mw{sid="x"}', window_s=1.0)
        reg.rolling_gauge('serve.win.mw{sid="y"}', window_s=1.0)
        assert reg.remove("serve.a") is True
        assert reg.remove("serve.a") is False
        assert reg.remove_prefix("serve.win.mw{") == 2
        assert "serve.a" not in reg.names()


class _ScanningGauge(RollingGauge):
    """The reference: evicts behind a full ``max()`` scan of every
    retained sample on each update."""

    def _evict(self):
        if not self.samples:
            return
        horizon = max(t for t, _ in self.samples) - self.window_s
        while self.samples and self.samples[0][0] <= horizon:
            self.samples.popleft()


_timestamps = st.floats(allow_nan=False)
_samples = st.tuples(_timestamps, st.floats(-1e6, 1e6))
_merges = st.lists(_samples, max_size=6).map(
    lambda batch: ("merge", batch)
)


@settings(max_examples=200, deadline=None)
@given(
    window_s=st.floats(1e-3, 1e3),
    steps=st.lists(st.one_of(_samples, _merges), max_size=40),
)
def test_rolling_eviction_matches_full_scan(window_s, steps):
    """Random and out-of-order timestamps (infinities and magnitudes
    beyond ``window_s``'s resolution included), with merged snapshots
    interleaved: the tracked-newest gauge keeps exactly the samples,
    mean and latest reading of the full-scan reference."""
    gauge = RollingGauge("r", window_s=window_s)
    reference = _ScanningGauge("r", window_s=window_s)
    for step in steps:
        if step[0] == "merge":
            other = RollingGauge("r", window_s=window_s)
            for t, v in step[1]:
                other.observe(t, v)
            gauge.merge_snapshot(other.snapshot())
            reference.merge_snapshot(other.snapshot())
        else:
            gauge.observe(*step)
            reference.observe(*step)
        assert list(gauge.samples) == list(reference.samples)
        assert gauge.value == reference.value
        assert gauge.latest == reference.latest


class TestLabelled:
    def test_no_labels_is_identity(self):
        assert labelled("serve.fps", {}) == "serve.fps"

    def test_labels_sorted_and_quoted(self):
        key = labelled("serve.fps", {"sid": "s1", "ns": "fleet"})
        assert key == 'serve.fps{ns="fleet",sid="s1"}'

    def test_label_values_escaped(self):
        key = labelled("m", {"sid": 'we"ird\\x\nline'})
        assert key == 'm{sid="we\\"ird\\\\x\\nline"}'
