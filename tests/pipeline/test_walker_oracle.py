"""Parity of both cadence walkers against a pinned reference.

``tests/golden/walker_oracle.json`` pins, for a fixed grid of runs,
the exact :class:`RunStats`, the ``summary.to_payload()`` and a SHA-256
of the full-retention segments.  Every case is pinned twice: untraced
(repeat-window collapsing on wherever the scheme exposes
``plan_key()``) and traced (collapsing off; the trace bytes are pinned
too).  The two differ at ulp level at low frame rates, so each mode
keeps its own pin.

* :class:`~repro.pipeline.sim.StreamingSimulator` must match every
  pin byte for byte, whether frames are pushed or ``run()`` drives it.
* The batch engine (untraced ``run()`` on a ``plan_key()`` scheme)
  keeps its parity budget: identical stats, aggregates within 1e-9.

Regenerating the oracle (after an intentional change)::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/pipeline/test_walker_oracle.py

then review the diff of ``tests/golden/walker_oracle.json``.
"""

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.config import FHD, skylake_tablet
from repro.core import BurstLinkScheme, WindowedVideoScheme
from repro.baselines import VipScheme
from repro.obs import trace as obs_trace
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.pipeline.sim import StreamingSimulator, install_run_memo
from repro.video.source import AnalyticContentModel

ORACLE = (
    Path(__file__).resolve().parent.parent / "golden" / "walker_oracle.json"
)

#: Frames per planar case.
FRAMES = 8
#: Frame rates: whole, fractional and sparse windows per frame.
FPS = (30.0, 24.0, 10.0)
#: Planar schemes: (label, factory, needs DRFB).
SCHEMES = (
    ("conventional", ConventionalScheme, False),
    ("burstlink", BurstLinkScheme, True),
    ("vip", VipScheme, False),
    ("windowed", lambda: WindowedVideoScheme(composition_windows=5), True),
)
#: Run lengths: natural, ``max_windows`` short of it, and past the last
#: frame (the tail re-presents the last frame, clamped).
LENGTHS = ("natural", "short", "past")


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    config: object
    scheme_factory: object
    frames: list
    fps: float
    vr_work: list | None
    max_windows: int | None


def _max_windows(length: str, fps: float, refresh_hz: float = 60.0):
    natural = int(round(FRAMES * refresh_hz / fps))
    return {"natural": None, "short": natural // 2 - 1,
            "past": natural + 7}[length]


def _cases() -> list[Case]:
    frames = AnalyticContentModel().frames(FHD, FRAMES, seed=11)
    cases = []
    for label, factory, drfb in SCHEMES:
        config = skylake_tablet(FHD)
        if drfb:
            config = config.with_drfb()
        for fps in FPS:
            for length in LENGTHS:
                cases.append(Case(
                    f"{label}/{fps:g}fps/{length}", config, factory,
                    frames, fps, None, _max_windows(length, fps),
                ))
    from repro.workloads.vr import VR_WORKLOADS, build_vr_setup

    setup = build_vr_setup(VR_WORKLOADS["Elephant"], frame_count=6)
    cases.append(Case(
        "vr-burstlink/30fps/natural", setup.config.with_drfb(),
        BurstLinkScheme, setup.frames, 30.0, setup.vr_work, None,
    ))
    return cases


CASES = _cases()
MODES = ("untraced", "traced")


def _token(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.name
    return repr(value)


def measure(run, tracer=None) -> dict:
    """The pinned outputs of one full-retention run."""
    digest = hashlib.sha256()
    for segment in run.timeline.segments:
        digest.update(
            ",".join(
                _token(getattr(segment, f.name))
                for f in dataclasses.fields(segment)
            ).encode()
            + b"\n"
        )
    out = {
        "stats": dataclasses.asdict(run.stats),
        "summary": run.summary.to_payload(),
        "segments": len(run.timeline.segments),
        "segments_sha256": digest.hexdigest(),
    }
    if tracer is not None:
        out["trace_sha256"] = hashlib.sha256(
            tracer.to_jsonl().encode()
        ).hexdigest()
    return out


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _offline(case: Case, traced: bool) -> dict:
    """``run()`` with full retention, optionally under a fresh tracer."""
    simulator = FrameWindowSimulator(case.config, case.scheme_factory())
    kwargs = dict(vr_work=case.vr_work, max_windows=case.max_windows,
                  retain="full")
    if not traced:
        return measure(simulator.run(case.frames, case.fps, **kwargs))
    with obs_trace.tracing() as tracer:
        run = simulator.run(case.frames, case.fps, **kwargs)
    return measure(run, tracer)


def _pushed(case: Case, traced: bool) -> dict:
    """The streaming walker fed frame by frame (collapsing follows the
    tracer, exactly as in ``run()``)."""

    def walk():
        sim = StreamingSimulator(
            case.config, case.scheme_factory(), case.fps,
            max_windows=case.max_windows, vr_work=case.vr_work,
            retain="full",
        )
        for frame in case.frames:
            sim.push(frame)
        sim.end()
        return sim.result()

    if not traced:
        return measure(walk())
    with obs_trace.tracing():
        return measure(walk())


@pytest.fixture(autouse=True)
def no_memo():
    previous = install_run_memo(None)
    yield
    install_run_memo(previous)


@pytest.fixture(scope="module")
def oracle() -> dict:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        previous = install_run_memo(None)
        cases = {}
        for case in CASES:
            for mode in MODES:
                traced = mode == "traced"
                cases[f"{case.name}/{mode}"] = (
                    _offline(case, True) if traced
                    else _pushed(case, False)
                )
        install_run_memo(previous)
        ORACLE.write_text(
            json.dumps({"schema": "walker-oracle/v1", "cases": cases},
                       indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return json.loads(ORACLE.read_text(encoding="utf-8"))["cases"]


def test_oracle_covers_the_grid(oracle):
    assert sorted(oracle) == sorted(
        f"{case.name}/{mode}" for case in CASES for mode in MODES
    )


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
@pytest.mark.parametrize("mode", MODES)
def test_pushed_streaming_matches_oracle(oracle, case, mode):
    expected = dict(oracle[f"{case.name}/{mode}"])
    expected.pop("trace_sha256", None)
    assert _canonical(_pushed(case, mode == "traced")) == _canonical(
        expected
    )


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_traced_run_matches_oracle(oracle, case):
    """A traced ``run()`` takes the streaming walker: outputs and trace
    bytes are pinned exactly."""
    assert _canonical(_offline(case, True)) == _canonical(
        oracle[f"{case.name}/traced"]
    )


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_untraced_run_within_parity_budget(oracle, case):
    """Untraced ``run()``: exact on the streaming fallback (no
    ``plan_key()``), within the batch parity budget otherwise."""
    expected = oracle[f"{case.name}/untraced"]
    actual = _offline(case, False)
    if not hasattr(case.scheme_factory(), "plan_key"):
        assert _canonical(actual) == _canonical(expected)
        return
    assert actual["stats"] == expected["stats"]
    assert actual["segments"] == expected["segments"]
    got, want = actual["summary"], expected["summary"]
    assert got["windows"] == want["windows"]
    assert got["window_counts"] == want["window_counts"]
    assert got["end"] == pytest.approx(want["end"], rel=1e-9)
    assert set(got["buckets"]) == set(want["buckets"])
    for key, totals in want["buckets"].items():
        for field, value in totals.items():
            assert got["buckets"][key][field] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            ), (key, field)
