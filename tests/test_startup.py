"""CLI startup stays light: importing the CLI pulls in no scipy (the
codec and the SSIM metric import it when first called)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_leaves_scipy_unloaded():
    result = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys, repro.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
