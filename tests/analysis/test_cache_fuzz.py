"""Fuzzed cache payload loaders: any well-formed JSON file, including a
mutated real entry, reads as a valid entry or as a miss — never as an
exception out of ``SimulationCache.load`` / ``load_plan``."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import (
    SimulationCache,
    cache_disabled,
    plan_from_payload,
    plan_to_payload,
    run_from_payload,
    run_to_payload,
)
from repro.config import FHD, skylake_tablet
from repro.errors import ConfigurationError
from repro.core import BurstLinkScheme
from repro.pipeline import FrameWindowSimulator
from repro.pipeline.batch import CachedPlan
from repro.pipeline.sim import RunResult
from repro.video.source import AnalyticContentModel

from .test_cache_v3 import _plan

KEY = "f" * 64

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**1024)  # overflows a float
    | st.floats()
    | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=5)
        | st.dictionaries(st.text(max_size=8), children, max_size=5)
    ),
    max_leaves=20,
)


def _run_payload():
    config = skylake_tablet(FHD).with_drfb()
    frames = AnalyticContentModel().frames(FHD, 3, seed=2)
    with cache_disabled():
        run = FrameWindowSimulator(config, BurstLinkScheme()).run(
            frames, 30.0, retain="full"
        )
    return json.loads(json.dumps(run_to_payload(run)))


RUN_PAYLOAD = _run_payload()
PLAN_PAYLOAD = json.loads(json.dumps(plan_to_payload(_plan())))


def _paths(value, prefix=()):
    """Every location inside ``value`` that a mutation can target."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, payload):
    """``payload`` with one to three locations dropped, truncated or
    replaced by an arbitrary JSON value."""
    value = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(value))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["drop", "truncate", "replace"]))
        if action == "drop":
            del parent[key]
        elif action == "truncate" and isinstance(parent[key], list):
            parent[key] = parent[key][: draw(
                st.integers(0, max(0, len(parent[key]) - 1))
            )]
        else:
            parent[key] = draw(json_values)
    return value


def _load_both(value):
    """Write ``value`` as both a run and a plan entry, then load each
    through a cold cache; the files must be gone after a miss."""
    with tempfile.TemporaryDirectory() as directory:
        text = json.dumps(value)
        run_path = Path(directory) / f"{KEY}.json"
        plan_path = Path(directory) / f"{KEY}.plan.json"
        run_path.write_text(text, encoding="utf-8")
        plan_path.write_text(text, encoding="utf-8")
        cache = SimulationCache(directory=directory)
        run = cache.load(KEY)
        plan = cache.load_plan(KEY)
        assert run is None or isinstance(run, RunResult)
        assert plan is None or isinstance(plan, CachedPlan)
        assert run is not None or not run_path.exists()
        assert plan is not None or not plan_path.exists()
        return run, plan


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_arbitrary_json_reads_as_entry_or_miss(value):
    _load_both(value)


@settings(max_examples=150, deadline=None)
@given(mutated(RUN_PAYLOAD))
def test_mutated_run_payload_reads_as_entry_or_miss(value):
    _load_both(value)


@settings(max_examples=150, deadline=None)
@given(mutated(PLAN_PAYLOAD))
def test_mutated_plan_payload_reads_as_entry_or_miss(value):
    _load_both(value)


def test_real_payloads_read_back():
    """The unmutated payloads are hits, each as its own kind only."""
    run, plan = _load_both(RUN_PAYLOAD)
    assert isinstance(run, RunResult) and plan is None
    assert run_to_payload(run) == RUN_PAYLOAD
    run, plan = _load_both(PLAN_PAYLOAD)
    assert run is None and isinstance(plan, CachedPlan)
    assert plan_to_payload(plan) == PLAN_PAYLOAD


@pytest.mark.parametrize("value", [None, [1, 2], "x", 3, 2.5, True])
def test_non_object_payloads_raise_configuration_error(value):
    with pytest.raises(ConfigurationError):
        run_from_payload(value)
    with pytest.raises(ConfigurationError):
        plan_from_payload(value)


@pytest.mark.parametrize("loader, payload, records", [
    (run_from_payload, RUN_PAYLOAD, ("segments",)),
    (run_from_payload, RUN_PAYLOAD, ("summary", "buckets")),
    (plan_from_payload, PLAN_PAYLOAD, ("segments",)),
    (plan_from_payload, PLAN_PAYLOAD, ("digest", "buckets")),
], ids=["run-segment", "run-class", "plan-segment", "plan-class"])
def test_truncated_record_raises_configuration_error(
    loader, payload, records
):
    value = copy.deepcopy(payload)
    container = value
    for key in records:
        container = container[key]
    assert container, "payload must hold at least one record"
    container[0] = container[0][:-1]
    with pytest.raises(ConfigurationError):
        loader(value)


def test_float_overflowing_field_raises_configuration_error():
    value = copy.deepcopy(RUN_PAYLOAD)
    value["segments"][0][1] = 2**1024  # the end time; overflows a float
    with pytest.raises(ConfigurationError):
        run_from_payload(value)
