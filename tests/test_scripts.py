"""Smoke runs of the scripts under ``scripts/`` on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, first_line",
    [
        ("compat_census.py", ["--samples", "20", "--m", "2", "--seed", "7"], "samples=20 shape=(2,2) seed=7"),
        ("spde_demo.py", ["--d", "0", "--steps", "2", "--trials", "1", "--seed", "1"], "d=0 steps=2 seed tree has 1 term"),
    ],
    ids=["compat_census", "spde_demo"],
)
def test_script_runs_and_prints_its_header(script, args, first_line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first_line
