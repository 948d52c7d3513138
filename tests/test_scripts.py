"""The study scripts in scripts/ run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("oracle_sweep.py", ["--radii", "0.5", "1.05", "--chains", "500",
                         "--steps", "50"]),
    ("mixture_study.py", ["--variants", "vae", "daae", "--train-size", "128",
                          "--epochs", "1", "--chains", "50",
                          "--eval-size", "100"]),
])
def test_script_runs(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
