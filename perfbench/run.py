"""The repository's benchmark: host time of the BurstLink simulator on
four workloads, with output checks.

    python3 perfbench/run.py --workload exhibits --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` runs one untraced cold+warm pair, then the
same pair again with the ledger's wrappers installed (see
``ledger.py``), and reports per-layer self time and counts plus the
tracing overhead.  Every metric is printed as a table; the last line of
standard output is the JSON result.  ``perfbench/README.md`` defines
each metric.

The program runs with its shipped defaults: ``REPRO_*`` variables are
removed from the environment and no engine, plan-cache or retention
option is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs leave their spans.
TRACES = HERE / ".traces"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from ledger import (  # noqa: E402
    SERVE_OPS,
    Instrumentation,
    Ledger,
    counter_deltas,
    layer_of,
)

WORKLOADS = ("exhibits", "fleet", "serve", "longrun")

#: Set-up is repeated this many times per run; the median is reported.
SETUP_SAMPLES = 3

#: The 18 registered exhibits, one self-time metric each.
EXHIBITS = (
    "fig01", "fig03", "fig04", "fig06", "fig07", "table2", "fig09",
    "fig10", "fig11a", "fig11b", "fig12", "fig13", "sec64", "fig14a",
    "fig14b", "standby", "oled", "netstream",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "devices_per_s": "1/s",
    "windows_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "anchors_in_band": "count",
    "paper_err_pct": "%",
}


#: The self-time metric of every layer the ledger can attribute time to.
SELF_METRICS = {
    "source": "source.self_s",
    "plan": "plan.self_s",
    "sim": "sim.self_s",
    "timeline": "timeline.self_s",
    "price": "price.self_s",
    "cache": "cache.self_s",
    **{f"exhibit.{name}": f"exhibit.{name}.self_s" for name in EXHIBITS},
    "figures": "figures.self_s",
    "sampler": "sampler.self_s",
    "aggregate": "aggregate.self_s",
    "checkpoint": "checkpoint.self_s",
    "pool": "pool.self_s",
    **{f"serve.handle.{op}": f"serve.handle.{op}_s"
       for op in SERVE_OPS + ("other",)},
    "wire": "wire.self_s",
    "metrics": "metrics.rolling_self_s",
    "other": "other.self_s",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "startup.import_s": "s",
        "source.self_s": "s",
        "source.frames_generated": "count",
        "source.useful_ratio": "ratio",
        "plan.self_s": "s",
        "plan.calls": "count",
        "plan.windows_per_call": "ratio",
        "sim.self_s": "s",
        "sim.windows": "count",
        "batch.repeat_share": "ratio",
        "batch.group_windows": "count",
        "plan_cache.hit_ratio": "ratio",
        "timeline.self_s": "s",
        "price.self_s": "s",
        "price.reports": "count",
        "price.models_built": "count",
        "price.class_energy_calls": "count",
        "cache.self_s": "s",
        "cache.hit_ratio": "ratio",
        "cache.load_s": "s",
        "cache.store_s": "s",
        "cache.disk_bytes": "bytes",
    }
    units.update({f"exhibit.{name}.self_s": "s" for name in EXHIBITS})
    units.update({
        "figures.self_s": "s",
        "sampler.self_s": "s",
        "fleet.device_p50_ms": "ms",
        "fleet.device_p99_ms": "ms",
        "fleet.distinct_cell_share": "ratio",
        "aggregate.self_s": "s",
        "checkpoint.self_s": "s",
        "checkpoint.bytes": "bytes",
        "pool.self_s": "s",
    })
    units.update(
        {f"serve.handle.{op}_s": "s" for op in SERVE_OPS + ("other",)}
    )
    units.update({
        "serve.wire_ms": "ms",
        "wire.self_s": "s",
        "metrics.rolling_self_s": "s",
        "metrics.rolling_scan_per_observe": "count",
        "other.self_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "failed_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def shipped_environment(work: Path) -> dict[str, str]:
    """This process's environment without ``REPRO_*`` knobs, with
    temporary files kept inside the checkout, for this process and
    every child."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workload(name: str, seed: int, work: Path, env: dict[str, str]):
    if name == "serve":
        from serving import Serve

        return Serve(seed, work, env)
    from workloads import IN_PROCESS

    return IN_PROCESS[name](seed, work)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int, work: Path) -> None:
    """Child-process body: import the CLI and build the inputs, report
    the import time."""
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - started
    bench = make_workload(workload, seed, work, dict(os.environ))
    bench.build_inputs()
    print(json.dumps({"import_s": import_s}))


def setup_samples(name: str, seed: int, env: dict[str, str], bench,
                  traced: bool) -> tuple[list[float], list[float]]:
    """Set-up seconds and import seconds, ``SETUP_SAMPLES`` each.

    In-process workloads time a fresh interpreter that imports the CLI
    and builds the inputs.  ``serve`` times server start until ready
    plus connect, keeps the last server running, and probes the import
    alone only when ``traced`` asks for it.
    """
    setup, imports = [], []
    probes = SETUP_SAMPLES if name != "serve" or traced else 0
    before = speed.probe()
    for index in range(probes):
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120,
            cwd=str(ROOT),
        )
        wall = time.perf_counter() - started
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        imports.append(json.loads(child.stdout.splitlines()[-1])["import_s"])
        after = speed.probe()
        if name != "serve":
            setup.append(wall * speed.scale(before, after))
        before = after
    if name == "serve":
        for index in range(SETUP_SAMPLES):
            wall = bench.start()
            after = speed.probe()
            setup.append(wall * speed.scale(before, after))
            before = after
            if index < SETUP_SAMPLES - 1:
                bench.stop()
    return setup, imports


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def run_pairs(bench, pairs: int, first_index: int = 0):
    """``pairs`` cold+warm pass pairs, each pass between two speed
    probes.  Returns the passes and the error text if a pass raised."""
    passes = []
    before = speed.probe()
    for index in range(first_index, first_index + pairs):
        for run_pass in (bench.cold_pass, bench.warm_pass):
            try:
                result = run_pass(index)
            except Exception:  # the program failed: report, do not crash
                return passes, traceback.format_exc()
            after = speed.probe()
            result.speed = speed.scale(before, after)
            before = after
            passes.append(result)
    return passes, None


def pairs_for(bench, seconds: float) -> int:
    """Pass pairs that fill ``seconds`` at the workload's nominal pair
    time.  A fixed count, not a deadline, so every run on any machine
    takes the same number of samples and the same tail percentile."""
    return max(1, int(seconds // bench.pair_seconds))


def drift_gate() -> tuple[int, int, float]:
    """Anchors in band, anchors checked, and the mean relative error
    (%) against the paper's own anchors."""
    from repro.obs import drift

    report = drift.check_drift(
        sections=drift.DRIFT_SECTIONS + drift.SCENARIO_SECTIONS
    )
    paper = [
        row for row in report.rows
        if row.expectation.section in drift.DRIFT_SECTIONS
    ]
    error = 100.0 * sum(
        abs(row.actual - row.expectation.paper) / abs(row.expectation.paper)
        for row in paper
    ) / len(paper)
    in_band = sum(row.ok for row in report.rows)
    return in_band, len(report.rows) + len(report.skipped), error


def verify(bench, passes, error: str | None) -> tuple[stats.OpTally,
                                                        list[str]]:
    """Check every pass's outputs; tally ops attempted and failed."""
    tally = stats.OpTally()
    for result in passes:
        for _ in range(result.ops):
            tally.record(True)
    problems = bench.check(passes) if passes else []
    # A problem reads "<op>: <what>"; each op named fails once.
    tally.fail_checked(len({p.split(":", 1)[0] for p in problems}))
    if error is not None:
        problems.append(f"pass raised:\n{error}")
        for _ in range(bench.ops_per_pass()):
            tally.record(False)
    return tally, problems


def end_to_end(bench, passes, setup, tally, drift, rss_mb) -> dict:
    """The end-to-end metrics; host times at reference machine speed,
    the unscaled medians in the notes."""
    cold = [p.wall_s * p.speed for p in passes if p.kind == "cold"]
    warm = [p.wall_s * p.speed for p in passes if p.kind == "warm"]
    # Warm ops of a cached workload are orders of magnitude faster than
    # cold ones; mixing them would put the median on the gap between.
    ops = [
        ms * p.speed
        for p in passes if p.kind in bench.op_kinds for ms in p.op_ms
    ]
    in_band, _, paper_err = drift
    tail_pct, tail = stats.tail_percentile(ops)
    values = {
        "setup_s": stats.median(setup),
        "cold_s": stats.median(cold),
        "warm_s": stats.median(warm),
        "devices_per_s": stats.median([
            p.units / (p.wall_s * p.speed)
            for p in passes if p.kind == "cold"
        ]),
        "windows_per_s": stats.median([
            p.windows / (p.wall_s * p.speed)
            for p in passes if p.kind == "cold"
        ]),
        "op_p50_ms": stats.median(ops),
        "op_p99_ms": tail,
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1.0 - tally.failed_ratio,
        "anchors_in_band": float(in_band),
        "paper_err_pct": paper_err,
    }
    notes = {
        "op_samples": len(ops),
        "op_tail_percentile": tail_pct,
        "passes": len(passes),
        "failed_ratio": tally.failed_ratio,
        "speed_scale_median": stats.median([p.speed for p in passes]),
        "cold_s_unscaled": stats.median(
            [p.wall_s for p in passes if p.kind == "cold"]
        ),
        "warm_s_unscaled": stats.median(
            [p.wall_s for p in passes if p.kind == "warm"]
        ),
    }
    return values, notes


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced_pair(bench, name: str, work: Path):
    """One cold+warm pair under the ledger.  Returns the passes, the
    ledger and the registry counter movement."""
    from repro.obs import metrics as obs_metrics

    ledger = Ledger(run_id=f"{name}-{os.getpid()}")
    if name == "serve":
        spans_path = work / "server-spans.json"
        bench.start(spans_path=spans_path)
        bench.ledger = ledger
        with ledger.span("other"):
            passes, error = run_pairs(bench, 1, first_index=1)
        bench.ledger = None
        bench.stop()
        server = json.loads(spans_path.read_text())
        ledger.absorb(server)
        return passes, error, ledger, server["counters"]
    before = obs_metrics.registry().snapshot()
    instrumentation = Instrumentation(ledger).install()
    try:
        with ledger.span("other"):
            passes, error = run_pairs(bench, 1, first_index=1)
    finally:
        instrumentation.remove()
    deltas = counter_deltas(before, obs_metrics.registry().snapshot())
    return passes, error, ledger, deltas


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(bench, ledger, deltas, passes, imports, untraced_wall,
              tally) -> tuple[dict, list[str]]:
    """Every per-layer metric from the traced pair's spans, call counts
    and registry counter movement."""
    spans = ledger.closed_spans()
    selfs = stats.self_times(spans)
    layers = stats.sum_by(spans, selfs, layer_of)
    self_by_name = stats.sum_by(spans, selfs, str)
    durations: dict[str, list[float]] = {}
    for span_name, start, end, _ in spans:
        durations.setdefault(span_name, []).append(end - start)
    counts = ledger.counts
    _, root_start, root_end, _ = spans[0]
    traced_wall = root_end - root_start
    generated = counts["source.frames"]
    consumed = counts["sim.frames_consumed"] + counts["sim.push"]
    devices = [1e3 * d for d in durations.get("sampler.device", [])]
    plan_calls = len(durations.get("plan.window", []))
    wire_ops = len(durations.get("wire.op", []))
    extra: dict[str, float] = {}
    for result in passes:
        for key, value in result.extra.items():
            extra[key] = max(extra.get(key, 0.0), value)

    def delta(name: str) -> float:
        return deltas.get(name, 0.0)

    def hit_ratio(prefix: str) -> float:
        hits = delta(f"{prefix}.hit")
        return _ratio(hits, hits + delta(f"{prefix}.miss"))

    values = {
        metric: layers.get(layer, 0.0)
        for layer, metric in SELF_METRICS.items()
    }
    values.update({
        "startup.import_s": stats.median(imports),
        "source.frames_generated": float(generated),
        "source.useful_ratio": min(1.0, _ratio(consumed, generated)),
        "plan.calls": float(plan_calls),
        "plan.windows_per_call": _ratio(delta("sim.windows"), plan_calls),
        "sim.windows": delta("sim.windows"),
        "batch.repeat_share": hit_ratio("sim.collapse"),
        "batch.group_windows": _ratio(
            delta("sim.batch.group_windows.sum"),
            delta("sim.batch.group_windows.count"),
        ),
        "plan_cache.hit_ratio": hit_ratio("sim.plan_cache"),
        "price.reports": delta("power.reports"),
        "price.models_built": float(counts["price.model_built"]),
        "price.class_energy_calls": float(counts["price.class_energies"]),
        "cache.hit_ratio": hit_ratio("cache"),
        "cache.load_s": self_by_name.get("cache.load", 0.0),
        "cache.store_s": self_by_name.get("cache.store", 0.0),
        "cache.disk_bytes": extra.get("cache.disk_bytes", 0.0),
        "fleet.device_p50_ms": stats.median(devices) if devices else 0.0,
        "fleet.device_p99_ms": (
            stats.tail_percentile(devices)[1] if devices else 0.0
        ),
        "fleet.distinct_cell_share": getattr(
            bench, "distinct_cell_share", 0.0
        ),
        "checkpoint.bytes": extra.get("checkpoint.bytes", 0.0),
        "serve.wire_ms": 1e3 * _ratio(layers.get("wire", 0.0), wire_ops),
        "metrics.rolling_scan_per_observe": _ratio(
            counts["metrics.scanned"], counts["metrics.rolling"]
        ),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "failed_ratio": tally.failed_ratio,
    })
    problems = []
    unknown = sorted(set(layers) - set(SELF_METRICS))
    if unknown:
        problems.append(f"layers without a metric: {unknown}")
    attributed = sum(layers.values())
    if not math.isclose(attributed, traced_wall, rel_tol=1e-6):
        problems.append(
            f"layer self times sum to {attributed:.6f} s, "
            f"traced wall is {traced_wall:.6f} s"
        )
    return values, problems


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def emit(values: dict, units: dict, notes: dict, correct: bool,
         attempted: int, failed: int, problems: list[str]) -> None:
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {values[name]:>16.6g}  {unit}")
    for name, value in notes.items():
        print(f"# {name} = {value}")
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))


def run(args, work: Path, env: dict[str, str]) -> int:
    bench = make_workload(args.workload, args.seed, work, env)
    try:
        setup, imports = setup_samples(
            args.workload, args.seed, env, bench, bool(args.trace)
        )
        import repro.cli  # noqa: F401

        bench.build_inputs()
        if args.trace:
            started = time.perf_counter()
            untraced, error = run_pairs(bench, 1)
            untraced_wall = time.perf_counter() - started
            if args.workload == "serve":
                bench.stop()
            traced, traced_error, ledger, deltas = traced_pair(
                bench, args.workload, work
            )
            passes = untraced + traced
            error = error or traced_error
        else:
            passes, error = run_pairs(bench, pairs_for(bench, args.seconds))
        if args.workload == "serve":
            rss_mb = bench.peak_rss_mb() if bench.proc is not None else 0.0
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally, problems = verify(bench, passes, error)
        drift = drift_gate()
    finally:
        if args.workload == "serve":
            bench.stop()
    in_band, anchors, _ = drift
    if in_band != anchors:
        problems.append(f"drift gate: {anchors - in_band} anchors out of band")
    if args.trace:
        values, layer_problems = per_layer(
            bench, ledger, deltas, traced, imports, untraced_wall, tally
        )
        problems += layer_problems
        units = per_layer_units()
        spans_path = TRACES / f"{args.workload}-seed{args.seed}.json.gz"
        ledger.write(spans_path)
        notes = {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "spans": f"{len(ledger.spans)} written to "
                     f"{spans_path.relative_to(ROOT)}",
        }
    else:
        values, notes = end_to_end(
            bench, passes, setup, tally, drift, rss_mb
        )
        units = END_TO_END_UNITS
    emit(values, units, notes, not problems, tally.attempted,
         tally.failed, problems)
    return 0


def write_pins(args, work: Path, env: dict[str, str]) -> int:
    """Regenerate the pins of ``--workload`` from one pair at the
    default seed (after a deliberate change to what the model
    computes)."""
    bench = make_workload(args.workload, checks.DEFAULT_SEED, work, env)
    import repro.cli  # noqa: F401

    bench.build_inputs()
    try:
        if args.workload == "serve":
            bench.start()
        passes, error = run_pairs(bench, 1)
    finally:
        if args.workload == "serve":
            bench.stop()
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    name = args.workload
    if name == "fleet":
        from workloads import FLEET_DEVICES

        name = f"fleet_{FLEET_DEVICES}"
    print(checks.write_pins(name, bench.pin_payload(passes)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the BurstLink simulator."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate this workload's pins and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = HERE / ".work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = shipped_environment(work)
        if args.probe_setup:
            probe_setup(args.workload, args.seed, work)
            return 0
        if args.write_pins:
            return write_pins(args, work, env)
        return run(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
