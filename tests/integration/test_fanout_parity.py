"""Every batch fan-out gives the same answer at ``jobs=1`` and
``jobs=2``, and the same merged trace; ``--progress`` at ``jobs=1``
prints pinned lines."""

import re

import pytest

from repro.analysis import runner
from repro.analysis.runner import cache_disabled, run_exhibits
from repro.fleet import run_fleet
from repro.fleet.checkpoint import FleetCheckpoint
from repro.fleet.spec import spec_from_dict
from repro.obs.dist import normalized_jsonl
from repro.obs.trace import tracing
from repro.pipeline import sim
from repro.stats.replicate import (
    replicate_exhibits,
    replicate_expectations,
)

EXHIBITS = ["fig04", "fig07"]


def small_spec():
    return spec_from_dict(
        {
            "fleet": {
                "devices": 8,
                "seed": 5,
                "shard_size": 4,
                "schemes": ["burstlink"],
                "content_seeds": 2,
            },
            "axes": {"resolution": {"values": ["FHD", "QHD"]}},
            "workloads": [
                {"name": "stream", "kind": "video", "frames": 8}
            ],
        }
    )


def _replicate(jobs):
    replication = replicate_exhibits(EXHIBITS, seeds=2, jobs=jobs)
    return (
        replication.results,
        [o.metrics.name for o in replication.outcomes],
    )


def _expectations(jobs):
    return replicate_expectations(("fig04",), seeds=2, jobs=jobs)


def _fleet(jobs):
    return run_fleet(small_spec(), jobs=jobs).aggregate.report_json()


FANOUTS = {
    "replicate_exhibits": _replicate,
    "replicate_expectations": _expectations,
    "run_fleet": _fleet,
}


@pytest.mark.parametrize("fanout", sorted(FANOUTS))
def test_results_match_across_jobs(fanout):
    run = FANOUTS[fanout]
    assert run(1) == run(2)


@pytest.mark.parametrize("fanout", sorted(FANOUTS))
def test_merged_trace_matches_sequential(fanout):
    run = FANOUTS[fanout]
    traces = []
    for jobs in (1, 2):
        # Cache hits skip simulation spans, so compare uncached runs.
        with cache_disabled(), tracing() as tracer:
            run(jobs)
        traces.append(normalized_jsonl(tracer.events))
    assert traces[0] == traces[1]
    assert traces[0]


@pytest.fixture
def fresh_cache():
    """A cold in-memory cache, so progress cache counters are fixed."""
    previous = sim.active_run_memo()
    runner.configure_cache()
    yield
    sim.install_run_memo(previous)


def _mask_timing(lines):
    return [re.sub(r" in \d+\.\d\ds ", " in <t>s ", line) for line in lines]


def test_exhibit_progress_lines_at_one_job(fresh_cache):
    lines = []
    run_exhibits(EXHIBITS, jobs=1, progress=lines.append)
    assert _mask_timing(lines) == [
        "fig04 started [worker 0]",
        "[1/2] fig04 done in <t>s (hits=0 misses=1 windows=60) "
        "[worker 0]",
        "fig07 started [worker 0]",
        "[2/2] fig07 done in <t>s (hits=0 misses=2 windows=24) "
        "[worker 0]",
    ]


def test_fleet_progress_lines_at_one_job(fresh_cache, tmp_path):
    store = FleetCheckpoint(tmp_path)
    lines = []

    def progress(line):
        # Each done line follows its shard's checkpoint write.
        lines.append(f"{line} | shards={len(store.completed_shards())}")

    run_fleet(small_spec(), jobs=1, checkpoint=tmp_path, progress=progress)
    assert _mask_timing(lines) == [
        "fleet shard 0 [0:4) started [worker 0] | shards=0",
        "[1/2] fleet shard 0 [0:4) done in <t>s "
        "(hits=4 misses=4 windows=64) [worker 0] | shards=1",
        "fleet shard 1 [4:8) started [worker 0] | shards=1",
        "[2/2] fleet shard 1 [4:8) done in <t>s "
        "(hits=4 misses=4 windows=64) [worker 0] | shards=2",
    ]
