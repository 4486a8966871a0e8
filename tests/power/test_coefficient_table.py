"""The process-wide coefficient table: every model over the same
registry, library and extras prices from one shared set of
coefficients, and a different library or registry never reads another
one's entries."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import FHD, skylake_tablet
from repro.obs import serve
from repro.pipeline import ConventionalScheme, FrameWindowSimulator
from repro.power.calibration import SKYLAKE_TABLET_POWER
from repro.power.model import PlatformExtras, PowerModel
from repro.power.terms import PowerTerm, default_registry
from repro.video.source import AnalyticContentModel

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def run():
    config = skylake_tablet(FHD)
    frames = AnalyticContentModel().frames(FHD, 4, seed=0)
    return FrameWindowSimulator(config, ConventionalScheme()).run(
        frames, 30.0, retain="summary"
    )


@pytest.fixture
def energy_calls(monkeypatch):
    """Counts :meth:`PowerModel.class_component_energies` calls."""
    calls = []
    original = PowerModel.class_component_energies

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PowerModel, "class_component_energies", counted)
    return calls


def _scalar_components(model, run):
    """The same run priced bucket by bucket through the scalar pricer."""
    totals = model.registry.zeros()
    for cls_key, bucket in run.summary.buckets.items():
        for key, energy in model.class_component_energies(
            cls_key, bucket, run.config.panel
        ).items():
            totals[key] += energy
    return totals


def _assert_priced_by(model, run):
    report = model.report(run)
    expected = _scalar_components(model, run)
    assert list(report.by_component_mj) == list(expected)
    for key, energy in expected.items():
        assert report.by_component_mj[key] == pytest.approx(
            energy, rel=1e-12, abs=1e-12
        )
    return report


class TestSharedEntries:
    def test_models_share_one_entry(self):
        assert PowerModel()._coefficients is PowerModel()._coefficients

    def test_second_model_prices_without_probing(self, run, energy_calls):
        first = PowerModel().report(run)
        energy_calls.clear()
        second = PowerModel().report(run)
        assert energy_calls == []
        assert second == first

    def test_one_probe_per_quantity_column(self, run, energy_calls):
        # A fresh library object keys a fresh, empty entry.
        library = dataclasses.replace(SKYLAKE_TABLET_POWER)
        PowerModel(library=library).report(run)
        classes = len(run.summary.buckets)
        assert len(energy_calls) == classes * len(
            PowerModel.QUANTITY_COLUMNS
        )

    def test_extras_key_their_own_entry(self, run):
        local = PlatformExtras(streaming=False, local_playback=True)
        assert (
            PowerModel(extras=local)._coefficients
            is not PowerModel()._coefficients
        )
        assert (
            PowerModel(extras=local)._coefficients
            is PowerModel(extras=PlatformExtras(False, True))._coefficients
        )
        _assert_priced_by(PowerModel(extras=local), run)


class TestNoStaleHits:
    def test_replaced_library_gets_its_own_coefficients(self, run):
        default = PowerModel().report(run)
        busier = dataclasses.replace(
            SKYLAKE_TABLET_POWER,
            cpu_active=SKYLAKE_TABLET_POWER.cpu_active + 500.0,
        )
        model = PowerModel(library=busier)
        assert model._coefficients is not PowerModel()._coefficients
        report = _assert_priced_by(model, run)
        assert report.by_component_mj["cpu"] > (
            default.by_component_mj["cpu"]
        )
        assert report.by_component_mj["soc_floor"] == (
            default.by_component_mj["soc_floor"]
        )

    def test_short_lived_libraries_never_collide(self, run):
        """Libraries built and dropped on the fly (as sensitivity
        analysis does) each price with their own constants."""
        for extra in (100.0, 200.0, 300.0, 400.0):
            library = dataclasses.replace(
                SKYLAKE_TABLET_POWER,
                cpu_active=SKYLAKE_TABLET_POWER.cpu_active + extra,
            )
            _assert_priced_by(PowerModel(library=library), run)
            del library

    def test_extended_registry_gets_its_own_coefficients(self, run):
        default = PowerModel().report(run)
        registry = default_registry().extended(
            PowerTerm(
                "heater",
                lambda segment, panel, ctx: 7.0,
                lambda cls, totals, panel, ctx: 7.0 * totals.seconds,
                "a constant 7 mW load",
            )
        )
        model = PowerModel(registry=registry)
        assert model._coefficients is not PowerModel()._coefficients
        report = _assert_priced_by(model, run)
        assert report.by_component_mj["heater"] == pytest.approx(
            7.0 * run.duration, rel=1e-12
        )
        for key, energy in default.by_component_mj.items():
            assert report.by_component_mj[key] == energy


def _loop_price(model, digest, panel):
    """One window digest priced the way serve did before the shared
    table: a :meth:`class_component_energies` call per class."""
    panel_mj = dram_mj = edp_mj = total_mj = 0.0
    for cls_key, totals in digest.buckets.items():
        energies = model.class_component_energies(cls_key, totals, panel)
        panel_mj += energies["panel"]
        dram_mj += energies["dram_background"] + energies["dram_traffic"]
        edp_mj += energies["edp"]
        total_mj += sum(energies.values())
    return panel_mj, dram_mj, edp_mj, total_mj


def _served_prices(monkeypatch, sid):
    """Stream one 60-frame FHD BurstLink session; returns every
    ``(pricer, digest, price)`` its rolling series were fed."""
    priced = []
    original = serve._DigestPricer.price

    def recorded(self, digest):
        price = original(self, digest)
        priced.append((self, digest, price))
        return price

    monkeypatch.setattr(serve._DigestPricer, "price", recorded)
    service = serve.PowerAdvisorService()
    service.handle(
        {"op": "open", "session": sid, "scheme": "burstlink",
         "resolution": "FHD", "fps": 30.0}
    )
    for start in range(0, 60, 10):
        assert service.handle(
            {"op": "stream", "session": sid, "count": 10,
             "start": start, "seed": 2}
        )["ok"]
    service.handle({"op": "close", "session": sid, "retire": True})
    monkeypatch.setattr(serve._DigestPricer, "price", original)
    return priced


class TestServeDigestPricing:
    def test_window_prices_match_the_class_loop(self, monkeypatch):
        priced = _served_prices(monkeypatch, "loop")
        assert len(priced) > 100
        for pricer, digest, price in priced:
            expected = _loop_price(pricer.model, digest, pricer.panel)
            assert price == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_second_session_probes_nothing(self, monkeypatch, energy_calls):
        _served_prices(monkeypatch, "first")
        energy_calls.clear()
        assert _served_prices(monkeypatch, "second")
        assert energy_calls == []


def test_fleet_probes_each_class_once_per_process():
    """A fresh process pricing the golden fleet probes a few hundred
    classes on its first pass and none on the next."""
    script = """
import json, sys
from repro.analysis import runner
from repro.fleet import load_spec, run_fleet
from repro.power.model import PowerModel

calls = [0]
original = PowerModel.class_component_energies

def counted(self, *args, **kwargs):
    calls[0] += 1
    return original(self, *args, **kwargs)

PowerModel.class_component_energies = counted
spec = load_spec(sys.argv[1])
passes = []
for _ in range(2):
    runner.configure_cache()
    run_fleet(spec, jobs=1)
    passes.append(calls[0])
    calls[0] = 0
print(json.dumps(passes))
"""
    result = subprocess.run(
        [
            sys.executable, "-c", script,
            str(ROOT / "tests" / "golden" / "fleet_small.toml"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    first, second = json.loads(result.stdout)
    assert 0 < first <= 1000
    assert second == 0
