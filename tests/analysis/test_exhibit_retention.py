"""Exhibit batches run at summary retention, and the figure data must
not show it: for every figure, the Vega-Lite spec and CSV emitted from
``run_exhibits`` equal the ones emitted from the exhibit function called
directly at full retention with memoization off."""

import pytest

from repro.analysis.figures import (
    figure_records,
    figure_registry,
    write_figure_files,
)
from repro.analysis.runner import (
    SimulationCache,
    cache_disabled,
    exhibit_registry,
    run_exhibits,
)
from repro.pipeline.sim import install_run_memo, set_default_retain

FIGURES = figure_registry()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """``{figure: (batch files, full-retention files)}``."""
    previous = install_run_memo(SimulationCache())
    try:
        batch = {o.name: o.result for o in run_exhibits()}
    finally:
        install_run_memo(previous)
    registry = exhibit_registry()
    previous_retain = set_default_retain("full")
    try:
        with cache_disabled():
            full = {name: registry[name]() for name in registry}
    finally:
        set_default_retain(previous_retain)
    batch_dir = tmp_path_factory.mktemp("batch")
    full_dir = tmp_path_factory.mktemp("full")
    return {
        name: tuple(
            write_figure_files(
                directory,
                figure,
                figure_records(figure, results[figure.exhibit]),
            )
            for directory, results in (
                (batch_dir, batch), (full_dir, full)
            )
        )
        for name, figure in FIGURES.items()
    }


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_batch_figure_matches_full_retention(emitted, name):
    batch_files, full_files = emitted[name]
    assert [p.name for p in batch_files] == [p.name for p in full_files]
    for batch, full in zip(batch_files, full_files):
        assert batch.read_text(encoding="utf-8") == full.read_text(
            encoding="utf-8"
        ), f"{batch.name} differs between summary and full retention"
