"""Tests for the benchmark's own statistics.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import stats  # noqa: E402
from ledger import Ledger, layer_of  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ("other", 0.0, 10.0, None),
        ("sim.run", 1.0, 6.0, 0),
        ("plan.window", 2.0, 3.0, 1),
        ("price.report", 7.0, 9.0, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 4.0, 1.0, 2.0])


def test_self_times_sum_to_root_duration():
    spans = [
        ("other", 0.0, 5.0, None),
        ("a", 0.5, 4.0, 0),
        ("b", 1.0, 2.0, 1),
        ("c", 2.5, 3.5, 1),
        ("d", 4.2, 4.9, 0),
    ]
    assert sum(stats.self_times(spans)) == pytest.approx(5.0)


def test_overlapping_children_count_once_and_clip_to_parent():
    # Children from another process may overlap each other or stick
    # out of the parent; covered time never exceeds the parent's.
    assert stats.covered((0.0, 10.0), [(1.0, 4.0), (3.0, 5.0)]) == 4.0
    assert stats.covered((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert stats.covered((0.0, 1.0), [(0.0, 5.0), (0.2, 0.4)]) == 1.0
    assert stats.covered((0.0, 1.0), []) == 0.0


def test_layer_self_times_group_by_layer():
    spans = [
        ("other", 0.0, 10.0, None),
        ("price.report", 0.0, 2.0, 0),
        ("price.plan_matrix", 3.0, 4.0, 0),
        ("exhibit.fig09", 5.0, 9.0, 0),
        ("plan.window", 6.0, 7.0, 3),
    ]
    totals = stats.sum_by(spans, stats.self_times(spans), layer_of)
    assert totals == pytest.approx(
        {"other": 3.0, "price": 3.0, "exhibit.fig09": 3.0, "plan": 1.0}
    )


def test_ledger_nested_same_layer_is_counted_not_spanned():
    ledger = Ledger("t")

    def inner():
        return 1

    def outer():
        return ledger.call("price.class_energies", inner) + 1

    with ledger.span("other"):
        assert ledger.call("price.report", outer) == 2
    names = [span[0] for span in ledger.closed_spans()]
    assert names == ["other", "price.report"]
    assert ledger.counts["price.class_energies"] == 1
    assert ledger.counts["price.report"] == 1


def test_absorbed_spans_reparent_by_interval():
    client = Ledger("client")
    client.spans = [
        ["other", 0.0, 10.0, None, "client"],
        ["wire.op", 1.0, 4.0, 0, "client"],
    ]
    client.absorb({
        "spans": [
            ["serve.handle.stream", 2.0, 3.0, None, "s"],
            ["source.iter_frames", 2.1, 2.2, 0, "s"],
            ["serve.handle.close", 20.0, 21.0, None, "s"],
            ["price.class_energies", 20.1, 20.2, 2, "s"],
        ],
        "counts": {"source.frames": 5},
    })
    assert client.closed_spans() == [
        ("other", 0.0, 10.0, None),
        ("wire.op", 1.0, 4.0, 0),
        ("serve.handle.stream", 2.0, 3.0, 1),
        ("source.iter_frames", 2.1, 2.2, 2),
    ]
    assert client.counts["source.frames"] == 5
    assert [span[4] for span in client.spans] == ["client"] * 2 + ["s"] * 2
    assert sum(stats.self_times(client.closed_spans())) == pytest.approx(10.0)


def test_layer_names():
    assert layer_of("exhibit.fig11a") == "exhibit.fig11a"
    assert layer_of("serve.handle.stream") == "serve.handle.stream"
    assert layer_of("cache.load") == "cache"
    assert layer_of("other") == "other"


# -- the percentile rule -----------------------------------------------------


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_p99_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 1001)]
    pct, value = stats.tail_percentile(values)
    assert (pct, value) == (99, 990.0)
    assert sum(v > value for v in values) == 10


def test_tail_steps_down_with_fewer_samples():
    values = [float(i) for i in range(1, 73)]
    pct, value = stats.tail_percentile(values)
    assert pct == 86
    assert sum(v > value for v in values) >= 10
    # One more percentile point would leave fewer than ten beyond.
    assert 72 - stats.nearest_rank(values, pct + 1) < 10


def test_tail_never_below_median():
    assert stats.tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0)
    assert stats.tail_percentile([4.0, 1.0, 3.0, 2.0]) == (50, 2.5)


def test_999_samples_cannot_claim_p99():
    pct, _ = stats.tail_percentile([float(i) for i in range(999)])
    assert pct == 98


# -- failed_ratio ------------------------------------------------------------


def test_failed_ratio_counts_failed_over_attempted():
    tally = stats.OpTally()
    for ok in (True, True, False, True):
        tally.record(ok)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_ratio == 0.25


def test_check_failures_are_capped_by_attempts():
    tally = stats.OpTally()
    tally.record(True)
    tally.record(False)
    tally.fail_checked(5)
    assert tally.failed == 2
    assert tally.failed_ratio == 1.0


def test_no_ops_is_no_failure():
    assert stats.OpTally().failed_ratio == 0.0


# -- pins --------------------------------------------------------------------


def test_pins_allow_ulp_drift_but_not_more():
    pinned = {"a": 1.0, "n": 3, "s": "x", "l": [0.5, 2.0]}
    assert checks.pin_mismatches(
        {"a": 1.0 + 1e-13, "n": 3, "s": "x", "l": [0.5, 2.0]}, pinned
    ) == []
    assert checks.pin_mismatches(
        {"a": 1.0 + 1e-6, "n": 3, "s": "x", "l": [0.5, 2.0]}, pinned
    ) == ["/a: 1.000001 != pinned 1.0"]


def test_pins_compare_counts_exactly():
    assert checks.pin_mismatches({"n": 4}, {"n": 3})
    assert checks.pin_mismatches({"n": 3.0}, {"n": 3})
    assert checks.pin_mismatches({"n": 3, "m": 1}, {"n": 3}) == ["extra /m"]
    assert checks.pin_mismatches({}, {"n": 3}) == ["missing /n"]


def test_non_finite_leaves_are_found():
    assert checks.non_finite({"a": [1.0, float("nan")], "b": 2}) == ["/a/1"]


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_lists_what_run_prints():
    import json
    import re

    import run

    root = Path(__file__).resolve().parent.parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units()
    )
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
