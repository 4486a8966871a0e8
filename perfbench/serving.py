"""The ``serve`` workload: one ``repro serve`` subprocess and one NDJSON
client in a closed loop (the next op is sent when the previous reply
arrives).

A cycle is nine sessions: burstlink, conventional and bursting at FHD,
QHD and 4K.  Each session opens, pushes ``SESSION_FRAMES`` frames as
``stream`` chunks of ``CHUNK`` frames, ends, reports and closes, so one
session is ``SESSION_FRAMES / CHUNK + 4`` ops.  A cold cycle streams
fresh content; a warm cycle repeats the previous cold cycle's requests
exactly (the service keeps no result cache across sessions, so today
the two cost the same).
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import checks
from workloads import PassResult

SCHEMES = ("burstlink", "conventional", "bursting")
RESOLUTIONS = ("FHD", "QHD", "4K")
SESSION_FRAMES = 300
CHUNK = 10
FPS = 30.0
#: Seconds to wait for a server to report its ports.
READY_TIMEOUT_S = 60.0

HERE = Path(__file__).resolve().parent


def _offline_run(scheme: str, resolution: str, seed: int):
    """The same stream simulated offline, uncached."""
    from repro.analysis.runner import cache_disabled
    from repro.config import PLANAR_RESOLUTIONS, skylake_tablet
    from repro.core import BurstLinkScheme, FrameBurstingScheme
    from repro.pipeline import ConventionalScheme
    from repro.pipeline.sim import FrameWindowSimulator
    from repro.video.source import AnalyticContentModel

    factories = {
        "burstlink": (BurstLinkScheme, True),
        "conventional": (ConventionalScheme, False),
        "bursting": (FrameBurstingScheme, True),
    }
    factory, drfb = factories[scheme]
    res = {str(r): r for r in PLANAR_RESOLUTIONS}[resolution]
    config = skylake_tablet(res)
    if drfb:
        config = config.with_drfb()
    frames = AnalyticContentModel().frames(res, SESSION_FRAMES, seed=seed)
    with cache_disabled():
        return FrameWindowSimulator(config, factory()).run(
            frames, FPS, retain="summary"
        )


class Serve:
    #: Seconds one cold+warm pair takes on a 2-core x86 container;
    #: sets how many pairs fill --seconds.
    pair_seconds = 8.0

    #: Passes whose ops feed the latency percentiles.
    op_kinds = ("cold", "warm")

    def __init__(self, seed: int, work: Path, env: dict[str, str]) -> None:
        self.seed = seed
        self.work = work
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.ledger = None
        self._last_cold: list[tuple[str, str, int]] = []
        self.pins = None

    # -- inputs -------------------------------------------------------------

    def build_inputs(self) -> None:
        from repro.config import PLANAR_RESOLUTIONS, skylake_tablet

        self.pins = checks.load_pins("serve")
        # Windows a session covers, from its inputs: frames at FPS on
        # the platform's refresh cadence.
        self.session_windows = {
            str(r): round(
                SESSION_FRAMES * skylake_tablet(r).panel.refresh_hz / FPS
            )
            for r in PLANAR_RESOLUTIONS if str(r) in RESOLUTIONS
        }

    def cycle_plan(self, index: int) -> list[tuple[str, str, int]]:
        base = (self.seed * 1000 + index) * 16
        return [
            (scheme, resolution, base + i)
            for i, (scheme, resolution) in enumerate(
                (s, r) for s in SCHEMES for r in RESOLUTIONS
            )
        ]

    def ops_per_pass(self) -> int:
        return len(SCHEMES) * len(RESOLUTIONS) * (SESSION_FRAMES // CHUNK + 4)

    # -- server lifetime ----------------------------------------------------

    def start(self, spans_path: Path | None = None) -> float:
        """Start a server (through the ledger launcher when
        ``spans_path`` is given) and connect; returns the seconds from
        spawn until the client is connected."""
        from repro.obs.serve import SessionClient

        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--spans", str(spans_path)]
        command += ["--port", "0", "--http-port", "0"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env=self.env, cwd=str(self.work), text=True,
        )
        line = self._ready_line()
        # "serving sessions on HOST:PORT  metrics on http://..."
        port = int(line.split()[3].rsplit(":", 1)[1])
        self.client = SessionClient("127.0.0.1", port, timeout=60.0)
        return time.perf_counter() - started

    def _ready_line(self) -> str:
        import selectors

        assert self.proc is not None and self.proc.stdout is not None
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout=READY_TIMEOUT_S):
                raise RuntimeError("serve did not report ready in time")
        finally:
            selector.close()
        line = self.proc.stdout.readline()
        if not line.startswith("serving sessions on "):
            raise RuntimeError(f"unexpected serve output: {line!r}")
        return line

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Shut the server down and wait for it to exit."""
        if self.client is not None:
            try:
                self.client.call(op="shutdown")
            except (OSError, ValueError, RuntimeError):
                pass
            self.client.close()
            self.client = None
        if self.proc is not None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None

    # -- passes -------------------------------------------------------------

    def _call(self, op_ms: list[float], failures: list[str], **payload):
        assert self.client is not None
        started = time.perf_counter()
        if self.ledger is not None:
            with self.ledger.span("wire.op"):
                reply = self.client.call(**payload)
        else:
            reply = self.client.call(**payload)
        op_ms.append(1e3 * (time.perf_counter() - started))
        if not reply.get("ok"):
            failures.append(
                f"{payload['op']} op {len(op_ms)}: {reply.get('error')}"
            )
        return reply

    def _cycle(self, kind: str, plan) -> PassResult:
        op_ms: list[float] = []
        failures: list[str] = []
        artifacts = []
        started = time.perf_counter()
        for scheme, resolution, seed in plan:
            sid = self._call(
                op_ms, failures, op="open", scheme=scheme,
                resolution=resolution, fps=FPS,
            ).get("session")
            for start in range(0, SESSION_FRAMES, CHUNK):
                self._call(op_ms, failures, op="stream", session=sid,
                           count=CHUNK, start=start, seed=seed)
            self._call(op_ms, failures, op="end", session=sid)
            status = self._call(op_ms, failures, op="report", session=sid)
            final = self._call(op_ms, failures, op="close", session=sid)
            # The rolling gauges are the only served numbers priced by
            # the power model; the close artifact is simulation only.
            artifacts.append((
                (scheme, resolution, seed),
                final.get("final"),
                status.get("rolling"),
            ))
        wall = time.perf_counter() - started
        return PassResult(
            kind=kind, wall_s=wall, op_ms=op_ms, ops=len(op_ms),
            units=len(plan),
            windows=sum(self.session_windows[r] for _, r, _ in plan),
            output={"artifacts": artifacts, "failures": failures},
        )

    def cold_pass(self, index: int) -> PassResult:
        self._last_cold = self.cycle_plan(index)
        return self._cycle("cold", self._last_cold)

    def warm_pass(self, index: int) -> PassResult:
        return self._cycle("warm", self._last_cold)

    # -- checks -------------------------------------------------------------

    def pin_payload(self, passes: list[PassResult]) -> Any:
        return {
            f"{scheme}/{resolution}": {
                "summary": art["summary"],
                "stats": art["stats"],
                "rolling": rolling,
            }
            for (scheme, resolution, _), art, rolling
            in passes[0].output["artifacts"]
        }

    def check(self, passes: list[PassResult]) -> list[str]:
        problems: list[str] = []
        offline: dict[tuple, Any] = {}
        served: dict[tuple, Any] = {}
        for result in passes:
            problems += result.output["failures"]
            for key, art, rolling in result.output["artifacts"]:
                if art is None:
                    continue
                label = "/".join(map(str, key))
                # A warm cycle repeats its cold cycle's requests exactly.
                if served.setdefault(key, (art, rolling)) != (art, rolling):
                    problems.append(f"close {label}: repeat differs")
                if key not in offline:
                    offline[key] = _offline_run(*key)
                run = offline[key]
                # The offline run takes the batch engine, which sums in
                # another order: equal within the pin tolerance.
                if checks.pin_mismatches(
                    art["summary"], run.summary.to_payload()
                ):
                    problems.append(f"close {label}: summary != offline run")
                if art["stats"] != dataclasses.asdict(run.stats):
                    problems.append(f"close {label}: stats != offline run")
                if art["stats"]["windows"] != self.session_windows[key[1]]:
                    problems.append(f"close {label}: windows != inputs")
                problems += [
                    f"close {label}: non-finite {p}"
                    for p in checks.non_finite([art, rolling])
                ]
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

