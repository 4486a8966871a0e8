"""The multi-seed replication engine.

One replication = the cross product of exhibits × seed offsets, run as
a task list through the one fan-out driver every batch uses
(:func:`repro.obs.dist.fan_out`, namespace ``"stats"``) with the
exhibit task of :mod:`repro.analysis.runner` and the process-wide
:class:`~repro.analysis.runner.SimulationCache`.  Seed offsets shift
every workload's content seed at once
(:func:`repro.analysis.experiments.set_seed_offset`), so distinct seeds
simulate distinct frame sequences while seed-invariant exhibits re-hit
the cache — the per-task cache counters in the replication's metrics
make that dedup visible.

:func:`replicate_exhibits` feeds the figure registry
(:mod:`repro.analysis.figures`): per-metric samples across seeds,
bootstrap interval estimates, and BurstLink-vs-conventional effect
sizes.  :func:`replicate_expectations` feeds the drift gate: the same
fan-out over :func:`repro.obs.drift.measure_expectations`, giving each
paper anchor a sample per seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigurationError
from ..obs import dist
from ..pipeline import sim
from .bootstrap import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    IntervalEstimate,
    cohens_d,
    estimate_metrics,
)

#: Shard-protocol namespace for replication fan-outs (worker heartbeats
#: and trace shards are tagged with it, distinguishing a ``repro stats
#: run`` from a plain ``repro figures`` in the telemetry plane).
STATS_NAMESPACE = "stats"

#: Treatment-vs-baseline metric pairs the effect-size report covers:
#: BurstLink against the conventional scheme, on the two exhibits that
#: expose both as same-unit scalars.
EFFECT_PAIRS: tuple[tuple[str, str], ...] = (
    ("table2.burstlink.all.avg_mw", "table2.baseline.all.avg_mw"),
    ("standby.burstlink.power_mw", "standby.conventional.power_mw"),
)


def _task_label(name: str, seed: int) -> str:
    return f"{name}@s{seed}"


@dataclass
class Replication:
    """Everything one multi-seed fan-out produced."""

    #: Number of seed offsets replicated (0 .. seeds-1; offset 0 is the
    #: canonical single-seed run).
    seeds: int
    #: One outcome per (exhibit, seed) task, exhibit-major order; each
    #: ``metrics.name`` carries the ``name@s<seed>`` task label.
    outcomes: "list[Any]"
    #: Exhibit name -> results ordered by seed offset.
    results: dict[str, list[Any]]

    def metric_samples(
        self, figures: list[str] | tuple[str, ...] | None = None
    ) -> dict[str, list[float]]:
        """Per-metric value lists (one entry per seed), keyed by the
        figure registry's metric keys."""
        from ..analysis import figures as figmod

        selected = (
            list(figures)
            if figures is not None
            else [
                name
                for name, figure in figmod.figure_registry().items()
                if figure.exhibit in self.results
            ]
        )
        samples: dict[str, list[float]] = {}
        for name in selected:
            figure = figmod.get_figure(name)
            for result in self.results[figure.exhibit]:
                for key, value in figmod.figure_metrics(
                    figure, result
                ).items():
                    samples.setdefault(key, []).append(value)
        return samples

    def estimates(
        self,
        figures: list[str] | tuple[str, ...] | None = None,
        confidence: float = DEFAULT_CONFIDENCE,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> dict[str, IntervalEstimate]:
        """A bootstrap :class:`IntervalEstimate` per metric."""
        return estimate_metrics(
            self.metric_samples(figures),
            confidence=confidence,
            resamples=resamples,
        )

    def effect_sizes(
        self,
        samples: dict[str, list[float]] | None = None,
    ) -> dict[str, float]:
        """Cohen's d for every :data:`EFFECT_PAIRS` pair present."""
        if samples is None:
            samples = self.metric_samples()
        return {
            f"{treatment} vs {baseline}": cohens_d(
                samples[treatment], samples[baseline]
            )
            for treatment, baseline in EFFECT_PAIRS
            if treatment in samples and baseline in samples
        }


def _relabel(outcome: Any, seed: int) -> Any:
    """Tag an outcome's metrics with its ``name@s<seed>`` task label
    (``outcome.name`` stays the exhibit name for grouping)."""
    from ..analysis.runner import ExhibitOutcome

    return ExhibitOutcome(
        name=outcome.name,
        result=outcome.result,
        metrics=dataclasses.replace(
            outcome.metrics,
            name=_task_label(outcome.name, seed),
        ),
    )


def replicate_exhibits(
    names: tuple[str, ...] | list[str] | None = None,
    seeds: int = 2,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> Replication:
    """Regenerate exhibits under seed offsets ``0 .. seeds-1``.

    The task list is the exhibit × seed cross product, exhibit-major so
    one exhibit's replicas run back to back (seed-invariant exhibits
    then re-hit the in-process cache immediately).  It runs through the
    same task function and driver as
    :func:`repro.analysis.runner.run_exhibits`, under the ``"stats"``
    namespace; each task is labelled ``name@s<seed>``.
    """
    from ..analysis.runner import (
        _exhibit_task,
        _metrics_heartbeat,
        _select_exhibits,
    )

    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    selected = _select_exhibits(names)
    pairs = [(name, seed) for name in selected for seed in range(seeds)]
    outcomes = dist.fan_out(
        STATS_NAMESPACE,
        _exhibit_task,
        [
            (_task_label(name, seed), (name, seed, cache_dir))
            for name, seed in pairs
        ],
        jobs=jobs,
        progress=progress,
        summarize=_metrics_heartbeat,
    )
    outcomes = [
        _relabel(outcome, seed)
        for outcome, (_, seed) in zip(outcomes, pairs)
    ]
    results: dict[str, list[Any]] = {name: [] for name in selected}
    for outcome in outcomes:
        results[outcome.name].append(outcome.result)
    return Replication(
        seeds=seeds, outcomes=outcomes, results=results
    )


# ---------------------------------------------------------------------------
# Drift-anchor replication
# ---------------------------------------------------------------------------


def _expectation_task(
    sections: tuple[str, ...],
    seed: int,
    library: Any,
    *,
    disable_memo: bool,
) -> dict[str, float]:
    """Fan-out task: one seed's worth of drift-anchor actuals, measured
    with memoization off when the caller runs without it."""
    from ..analysis import experiments
    from ..obs import drift

    if disable_memo:
        sim.install_run_memo(None)
    previous_offset = experiments.set_seed_offset(seed)
    try:
        return drift.measure_expectations(sections, library=library)
    finally:
        experiments.set_seed_offset(previous_offset)


def _anchor_count(actuals: dict[str, float]) -> dict[str, Any]:
    """The done-heartbeat payload for one seed's drift measurement."""
    return {"anchors": len(actuals)}


def replicate_expectations(
    sections: tuple[str, ...] | None = None,
    seeds: int = 1,
    jobs: int = 1,
    library: Any = None,
) -> dict[str, list[float]]:
    """Per-anchor actual-value samples across seed offsets.

    Each seed re-measures every drift anchor in ``sections`` under its
    shifted content seed; the returned lists feed
    :func:`repro.obs.drift.check_drift_interval`.  ``library``
    (an alternative calibrated power library, used by the perturbation
    tests) forces the sequential path — worker fan-out requires
    picklable defaults.
    """
    from ..obs import drift

    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    sections = (
        tuple(sections) if sections is not None
        else drift.DRIFT_SECTIONS
    )
    drift.expectations_for(sections)  # validates section names
    samples: dict[str, list[float]] = {}
    for actuals in dist.fan_out(
        STATS_NAMESPACE,
        _expectation_task,
        [
            (_task_label("drift", seed), (sections, seed, library))
            for seed in range(seeds)
        ],
        jobs=jobs if library is None else 1,
        summarize=_anchor_count,
    ):
        for key, value in actuals.items():
            samples.setdefault(key, []).append(value)
    return samples
