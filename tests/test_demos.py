"""Every demo script runs to completion against the library under src/.

Each demo is run from a copy of demos/ (scripts and bundled scenarios) in a
temporary directory, so the outputs it writes next to itself stay out of the
checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script: str, tmp_path: Path) -> None:
    copy = tmp_path / "demos"
    shutil.copytree(DEMOS, copy, ignore=shutil.ignore_patterns("output"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(copy / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
