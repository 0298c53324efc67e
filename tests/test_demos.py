"""The demo scripts, and the benchmark's tracer, must run clean from a fresh checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize(
    "script, args",
    [
        ("build_one_aircraft.py", ["--seed", "7", "--n-half", "1"]),
        ("contract_backends.py", []),
        ("replay_forensics.py", ["--seed", "99"]),
    ],
)
def test_demo_runs_clean(script, args):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "NOT DETECTED" not in proc.stdout


def test_benchmark_tracer_installs():
    """Every name the traced benchmark wraps (``perfbench/spans.py``) still exists."""
    root = DEMOS.parent
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer, install; install(Tracer())"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
