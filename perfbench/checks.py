"""Output checks: pinned numbers for the default seed, invariants for
every seed.

Pins are numeric leaves, not byte digests, so a change that moves
results in the last few bits (re-associated sums) still passes while a
change to what the model computes does not.  Floats match within
:data:`RTOL`; integers, booleans and strings match exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Any

#: Relative tolerance for pinned floats.
RTOL = 1e-9

#: The seed whose outputs are pinned; other seeds check invariants.
DEFAULT_SEED = 0

PINS_DIR = Path(__file__).resolve().parent / "pins"


def flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    """Every leaf of a JSON-like value keyed by its ``/``-joined path."""
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key in sorted(value):
            out.update(flatten(value[key], f"{prefix}/{key}"))
        return out
    if isinstance(value, (list, tuple)):
        out = {}
        for index, item in enumerate(value):
            out.update(flatten(item, f"{prefix}/{index}"))
        return out
    return {prefix or "/": value}


def _leaf_matches(actual: Any, pinned: Any) -> bool:
    if isinstance(pinned, bool) or isinstance(actual, bool):
        return actual is pinned
    if isinstance(pinned, int) and isinstance(actual, int):
        return actual == pinned
    if isinstance(pinned, (int, float)) and isinstance(actual, (int, float)):
        if isinstance(pinned, int) != isinstance(actual, int):
            return False
        if not (math.isfinite(actual) and math.isfinite(pinned)):
            return actual == pinned
        return math.isclose(actual, pinned, rel_tol=RTOL, abs_tol=1e-12)
    return actual == pinned


def pin_mismatches(actual: Any, pinned: Any) -> list[str]:
    """Paths where ``actual`` departs from ``pinned`` (missing and extra
    leaves included)."""
    got, want = flatten(actual), flatten(pinned)
    problems = [f"missing {path}" for path in want if path not in got]
    problems += [f"extra {path}" for path in got if path not in want]
    problems += [
        f"{path}: {got[path]!r} != pinned {want[path]!r}"
        for path in want
        if path in got and not _leaf_matches(got[path], want[path])
    ]
    return problems


def non_finite(value: Any) -> list[str]:
    """Paths of float leaves that are NaN or infinite."""
    return [
        path for path, leaf in flatten(value).items()
        if isinstance(leaf, float) and not math.isfinite(leaf)
    ]


def parse_csv(text: str) -> list[list[Any]]:
    """CSV rows with numeric cells as floats (header row kept as text)."""
    rows = list(csv.reader(io.StringIO(text)))
    parsed = [rows[0]] if rows else []
    for row in rows[1:]:
        cells: list[Any] = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        parsed.append(cells)
    return parsed


def csv_shape(rows: list[list[Any]]) -> list[list[Any]]:
    """The CSV with every number blanked: what must hold at any seed."""
    return [
        [None if isinstance(cell, float) else cell for cell in row]
        for row in rows
    ]


def load_pins(name: str) -> Any:
    path = PINS_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def write_pins(name: str, value: Any) -> Path:
    PINS_DIR.mkdir(parents=True, exist_ok=True)
    path = PINS_DIR / f"{name}.json"
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")
    return path
