"""The in-process workloads: exhibits, fleet and longrun.

Each workload builds its inputs from the seed, then runs *passes*: a
cold pass starts from empty result caches, a warm pass repeats the
same inputs with the caches the cold pass filled.  A pass returns a
:class:`PassResult`; :meth:`check` compares the outputs of all passes
with each other, with invariants, and (at the default seed) with the
pins in ``perfbench/pins``.

Why each workload is in the benchmark is recorded beside it in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@dataclass
class PassResult:
    """What one pass did and how long it took."""

    kind: str  # "cold" or "warm"
    wall_s: float
    #: Client-visible latency of each op in the pass.
    op_ms: list[float]
    #: Ops the pass attempted (each may fail its output check).
    ops: int
    #: Simulated devices (fleet), sessions (serve, longrun) or
    #: simulator runs (exhibits) the pass covered.
    units: int
    #: Simulated refresh windows the pass's inputs cover.
    windows: int
    output: Any = None
    extra: dict[str, float] = field(default_factory=dict)
    #: Factor bringing this pass's host times to reference machine
    #: speed (see ``speed.py``); set by the runner.
    speed: float = 1.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _counter(name: str) -> float:
    from repro.obs import metrics as obs_metrics

    return obs_metrics.registry().counter(name).value


# ---------------------------------------------------------------------------
# exhibits
# ---------------------------------------------------------------------------


class Exhibits:
    name = "exhibits"

    #: Seconds one cold+warm pair takes on a 2-core x86 container;
    #: sets how many pairs fill --seconds.
    pair_seconds = 14.0

    #: Passes whose ops feed the latency percentiles.
    op_kinds = ("cold",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def build_inputs(self) -> None:
        from repro.analysis import figures

        self.figures = figures.figure_registry()
        self.pins = checks.load_pins("exhibits")

    def _pass(self, kind: str, index: int) -> PassResult:
        from repro.analysis import figures, runner

        cache_dir = self.work / f"exhibits-cache-{index}"
        out = self.work / f"exhibits-{kind}-{index}"
        # A fresh in-memory cache either way; the warm pass reads the
        # disk entries its cold pass wrote.
        runner.configure_cache(directory=cache_dir)
        runs0, windows0 = _counter("sim.runs"), _counter("sim.windows")
        started = time.perf_counter()
        outcomes = runner.run_exhibits(jobs=1, seed_offset=self.seed)
        results = {o.name: o.result for o in outcomes}
        for figure in self.figures.values():
            figures.write_figure_files(
                out, figure,
                figures.figure_records(figure, results[figure.exhibit]),
            )
        wall = time.perf_counter() - started
        extra = {"cache.disk_bytes": float(_dir_bytes(cache_dir))}
        # One op is the whole regeneration, as `repro figures` does it:
        # single exhibits differ by 100x in cost and move with the
        # content seed, so their percentiles say little.  Each figure
        # is still checked, and counts as an attempt, on its own.
        return PassResult(
            kind=kind,
            wall_s=wall,
            op_ms=[1e3 * wall],
            ops=len(self.figures),
            units=int(_counter("sim.runs") - runs0),
            windows=int(_counter("sim.windows") - windows0),
            output={p.name: p.read_text() for p in sorted(out.iterdir())},
            extra=extra,
        )

    def cold_pass(self, index: int) -> PassResult:
        return self._pass("cold", index)

    def warm_pass(self, index: int) -> PassResult:
        return self._pass("warm", index)

    def ops_per_pass(self) -> int:
        return len(self.figures)

    def pin_payload(self, passes: list[PassResult]) -> Any:
        return {
            name: checks.parse_csv(text)
            for name, text in passes[0].output.items()
            if name.endswith(".csv")
        }

    def check(self, passes: list[PassResult]) -> list[str]:
        """Problems, each ``"<figure>: <what>"``: one failed op per
        figure named."""
        from repro.analysis.vega import spec_problems

        problems: list[str] = []
        first = passes[0].output
        for result in passes[1:]:
            problems += [
                f"{name.split('.')[0]}: {result.kind} pass {name} differs "
                "from the first cold pass"
                for name in first if result.output.get(name) != first[name]
            ]
        for name, text in sorted(first.items()):
            stem = name.split(".")[0]
            golden = GOLDEN / "specs" / name
            if name.endswith(".vl.json"):
                spec = json.loads(text)
                problems += [f"{stem}: {p}" for p in spec_problems(spec)]
                if golden.is_file() and json.loads(golden.read_text()) != spec:
                    problems.append(f"{stem}: {name} differs from golden")
                continue
            rows = checks.parse_csv(text)
            problems += [
                f"{stem}: non-finite {p}" for p in checks.non_finite(rows)
            ]
            pinned = (self.pins or {}).get(name)
            if pinned is None:
                problems.append(f"{stem}: no pin for {name}")
            elif checks.csv_shape(rows) != checks.csv_shape(pinned):
                problems.append(f"{stem}: rows or labels differ from pin")
            elif self.seed == checks.DEFAULT_SEED:
                problems += [
                    f"{stem}: {p}"
                    for p in checks.pin_mismatches(rows, pinned)
                ]
                if golden.is_file():
                    problems += [
                        f"{stem}: vs golden {p}"
                        for p in checks.pin_mismatches(
                            rows, checks.parse_csv(golden.read_text())
                        )
                    ]
        return problems


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

#: Devices per fleet pass: enough that cells repeat (about 60 distinct
#: cells in 128 devices), small enough for several passes per run.
FLEET_DEVICES = 128

#: Candidate spec seeds searched per benchmark seed (see Fleet).
FLEET_CANDIDATES = 64


def _fleet_sample(spec) -> dict[str, Any]:
    """The sampled devices and the quantities a pass's cost follows."""
    from repro.fleet.sampler import sample_device

    samples = [sample_device(spec, i) for i in range(spec.devices)]
    runs = len(spec.scheme_labels())
    windows = 0
    for sample in samples:
        workload = sample.workload
        if workload.kind == "standby":
            per_run = max(1, round(workload.duration_s * sample.refresh_hz))
        else:
            per_run = round(workload.frames * sample.refresh_hz / sample.fps)
        windows += runs * per_run
    cells = {
        (s.workload.name, s.resolution_label, s.refresh_hz, s.fps,
         s.content_seed)
        for s in samples
    }
    mix = {"windows": windows, "cells": len(cells)}
    for sample in samples:
        for key in (sample.workload.name, sample.resolution_label,
                    f"{sample.refresh_hz:g}Hz"):
            mix[key] = mix.get(key, 0) + 1
    # A cold pass simulates each distinct cell once: match their kinds.
    for workload, resolution, *_ in cells:
        for key in (f"cells/{workload}", f"cells/{resolution}"):
            mix[key] = mix.get(key, 0) + 1
    return {"windows": windows, "cells": len(cells), "mix": mix}


#: How much each cost factor counts in the mix distance: the window
#: total and the distinct cells (simulated once per cold pass) set a
#: pass's cost more than any one axis count.
_MIX_WEIGHTS = {"windows": 4.0, "cells": 2.0}


def _mix_distance(mix: dict[str, int], reference: dict[str, int]) -> float:
    return sum(
        _MIX_WEIGHTS.get(key, 1.0) * abs(mix.get(key, 0) - value) / value
        for key, value in reference.items()
    )


class Fleet:
    name = "fleet"

    #: Seconds one cold+warm pair takes on a 2-core x86 container;
    #: sets how many pairs fill --seconds.
    pair_seconds = 6.0

    #: Passes whose ops feed the latency percentiles.
    op_kinds = ("cold",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def build_inputs(self) -> None:
        """The golden fleet spec resized to ``FLEET_DEVICES``.

        The default seed keeps the golden spec seed.  Another seed
        searches ``FLEET_CANDIDATES`` spec seeds of its own and keeps
        the one whose sample is closest to the golden sample in workload,
        resolution and refresh mix, window total and distinct cells:
        the devices differ from seed to seed, the amount of work does
        not, so throughput moves with the program and not the draw.
        """
        from repro.fleet.spec import load_spec, spec_from_dict

        golden = load_spec(GOLDEN / "fleet_small.toml")
        payload = {**golden.to_payload(), "devices": FLEET_DEVICES}
        self.spec = spec_from_dict(payload)
        sample = _fleet_sample(self.spec)
        if self.seed != checks.DEFAULT_SEED:
            reference = sample["mix"]
            best = None
            for j in range(FLEET_CANDIDATES):
                spec = spec_from_dict({
                    **payload,
                    "seed": golden.seed + 1 + self.seed * FLEET_CANDIDATES
                    + j,
                })
                candidate = _fleet_sample(spec)
                distance = _mix_distance(candidate["mix"], reference)
                if best is None or distance < best[0]:
                    best = (distance, spec, candidate)
            _, self.spec, sample = best
        self.windows = sample["windows"]
        self.distinct_cell_share = sample["cells"] / self.spec.devices
        self.pins = checks.load_pins(f"fleet_{FLEET_DEVICES}")

    def _pass(self, kind: str, index: int) -> PassResult:
        from repro.analysis import runner
        from repro.fleet import pool

        if kind == "cold":
            runner.configure_cache()
        checkpoint = self.work / f"fleet-{kind}-{index}"
        marks: list[tuple[float, str]] = []

        def progress(line: str) -> None:
            marks.append((time.perf_counter(), line))

        started = time.perf_counter()
        outcome = pool.run_fleet(
            self.spec, jobs=1, checkpoint=checkpoint, progress=progress
        )
        report = outcome.aggregate.report()
        wall = time.perf_counter() - started
        # Shard latency: each shard's "started" line to its "done".
        op_ms = []
        opened = None
        for stamp, line in marks:
            if " started " in line:
                opened = stamp
            elif " done" in line and opened is not None:
                op_ms.append(1e3 * (stamp - opened))
                opened = None
        return PassResult(
            kind=kind,
            wall_s=wall,
            op_ms=op_ms,
            ops=len(op_ms),
            units=self.spec.devices,
            windows=self.windows,
            output=report,
            extra={"checkpoint.bytes": float(_dir_bytes(checkpoint))},
        )

    def cold_pass(self, index: int) -> PassResult:
        return self._pass("cold", index)

    def warm_pass(self, index: int) -> PassResult:
        return self._pass("warm", index)

    def ops_per_pass(self) -> int:
        return len(self.spec.shard_ranges())

    def pin_payload(self, passes: list[PassResult]) -> Any:
        return passes[0].output

    def check(self, passes: list[PassResult]) -> list[str]:
        """Problems, each ``"report: <what>"``."""
        report = passes[0].output
        problems = [
            f"{r.kind} pass report differs from the first cold pass"
            for r in passes[1:] if r.output != report
        ]
        problems += [f"non-finite {p}" for p in checks.non_finite(report)]
        fleet = report["fleet"]
        if fleet["devices"] != self.spec.devices or not fleet["complete"]:
            problems.append("device count or completeness wrong")
        strata = fleet["strata"]
        if sum(s["devices"] for s in strata.values()) != self.spec.devices:
            problems.append("strata device counts do not add up")
        if not math.isclose(sum(s["share"] for s in strata.values()), 1.0,
                            rel_tol=1e-9):
            problems.append("strata shares do not sum to 1")
        for label, block in fleet["schemes"].items():
            if not 0.0 <= block["win_rate"] <= 1.0:
                problems.append(f"{label} win rate out of [0, 1]")
        if self.seed == checks.DEFAULT_SEED:
            if self.pins is None:
                problems.append("no pin")
            else:
                problems += checks.pin_mismatches(report, self.pins)
        return [f"report: {p}" for p in problems]


# ---------------------------------------------------------------------------
# longrun
# ---------------------------------------------------------------------------

#: Hours per ambient-standby session.
LONGRUN_HOURS = 4.0
LONGRUN_REFRESH_HZ = (60.0, 120.0)
LONGRUN_UPDATE_FPS = (0.2, 1.0, 5.0)
#: Rounds of the session set per warm pass: one round takes a few
#: milliseconds, too short to time steadily on its own.
WARM_ROUNDS = 20


class Longrun:
    name = "longrun"

    #: Seconds one cold+warm pair takes on a 2-core x86 container;
    #: sets how many pairs fill --seconds.
    pair_seconds = 3.5

    #: Passes whose ops feed the latency percentiles.
    op_kinds = ("cold",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def build_inputs(self) -> None:
        from repro.core import BurstLinkScheme
        from repro.pipeline import ConventionalScheme
        from repro.workloads.standby import AmbientStandbyWorkload

        schemes = (
            ("conventional", ConventionalScheme, False),
            ("burstlink", BurstLinkScheme, True),
        )
        self.sessions = [
            (
                f"{hz:g}Hz/{fps:g}fps/{label}",
                AmbientStandbyWorkload(
                    refresh_hz=hz,
                    update_fps=fps,
                    duration_s=LONGRUN_HOURS * 3600.0,
                    seed=self.seed,
                ),
                factory,
                drfb,
            )
            for hz in LONGRUN_REFRESH_HZ
            for fps in LONGRUN_UPDATE_FPS
            for label, factory, drfb in schemes
        ]
        self.windows = sum(w.window_count for _, w, _, _ in self.sessions)
        self.pins = checks.load_pins("longrun")

    def _pass(self, kind: str) -> PassResult:
        """One pass; a warm pass (memo hits and pricing, ~2 ms a
        session) repeats the session set ``WARM_ROUNDS`` times and
        reports the time per round."""
        from repro.analysis import runner
        from repro.power.model import PlatformExtras, PowerModel
        from repro.workloads.standby import ambient_standby_run

        rounds = 1
        if kind == "cold":
            runner.configure_cache()
        else:
            rounds = WARM_ROUNDS
        model = PowerModel(
            extras=PlatformExtras(streaming=False, local_playback=False)
        )
        op_ms = []
        started = time.perf_counter()
        for _ in range(rounds):
            output = {}
            for label, workload, factory, drfb in self.sessions:
                op_started = time.perf_counter()
                run = ambient_standby_run(workload, factory(), with_drfb=drfb)
                power = model.report(run).average_power_mw
                op_ms.append(1e3 * (time.perf_counter() - op_started))
                output[label] = {
                    "power_mw": power,
                    "windows": run.stats.windows,
                    "new_frame_windows": run.stats.new_frame_windows,
                    "repeat_windows": run.stats.repeat_windows,
                    "expected_windows": workload.window_count,
                    "residency_sum": sum(
                        run.residency_fractions().values()
                    ),
                }
        wall = (time.perf_counter() - started) / rounds
        return PassResult(
            kind=kind, wall_s=wall, op_ms=op_ms, ops=len(op_ms),
            units=len(self.sessions), windows=self.windows, output=output,
        )

    def cold_pass(self, index: int) -> PassResult:
        return self._pass("cold")

    def warm_pass(self, index: int) -> PassResult:
        return self._pass("warm")

    def ops_per_pass(self) -> int:
        return len(self.sessions)

    def pin_payload(self, passes: list[PassResult]) -> Any:
        return {
            label: {k: v for k, v in row.items() if k != "residency_sum"}
            for label, row in passes[0].output.items()
        }

    def check(self, passes: list[PassResult]) -> list[str]:
        output = passes[0].output
        problems = [
            f"{label}: {r.kind} pass differs from the first cold pass"
            for r in passes[1:]
            for label in output if r.output.get(label) != output[label]
        ]
        for label, row in output.items():
            if row["windows"] != row["expected_windows"]:
                problems.append(f"{label}: window count != inputs")
            if row["new_frame_windows"] + row["repeat_windows"] != row[
                "windows"
            ]:
                problems.append(f"{label}: window kinds do not add up")
            if not math.isclose(row["residency_sum"], 1.0, rel_tol=1e-9):
                problems.append(f"{label}: residencies do not sum to 1")
            if not (math.isfinite(row["power_mw"]) and row["power_mw"] > 0):
                problems.append(f"{label}: power not finite and positive")
        if self.seed == checks.DEFAULT_SEED:
            if self.pins is None:
                problems.append("pins: none")
            else:
                problems += [
                    f"pins: {p}"
                    for p in checks.pin_mismatches(
                        self.pin_payload(passes), self.pins
                    )
                ]
        return problems


IN_PROCESS = {w.name: w for w in (Exhibits, Fleet, Longrun)}
