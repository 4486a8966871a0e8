"""Machine-speed probe.

On a shared host the same pass of the same code takes 3.1 to 5.2 s
within a few minutes (fleet cold pass, 2-core x86 container), because
other tenants' load slows the cores for minutes at a time; medians
within one run cannot remove that.  A fixed pure-Python loop slows with
it.  The benchmark times this probe between passes and reports each
host time scaled to the speed at which the probe takes
:data:`REFERENCE_S`: a pass that took ``t`` seconds between probes of
``p1`` and ``p2`` seconds reports ``t * REFERENCE_S / ((p1 + p2) / 2)``.
The program's code never runs inside the probe, so a change to the
program moves the scaled time exactly as it moves the host time.
"""

from __future__ import annotations

import time

#: Iterations of the probe loop (~0.15 s on the reference machine).
LOOPS = 1_500_000

#: The probe's time on the reference machine: a quiet 2-core x86
#: container with Python 3.11.
REFERENCE_S = 0.15


def probe() -> float:
    """Seconds the fixed loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """The factor that brings a time measured between probes of
    ``before`` and ``after`` seconds to reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
