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
])
def test_script_runs(script, args):
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", ["oracle_sweep.py"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_script_refuses_a_seed_outside_64_bits_as_a_usage_error(script, seed):
    """A script parses `--seed` with the `seed` key's parser, as `latentwalk`
    does, so a bad value exits 2 before any work, with no traceback."""
    proc = _run(script, ["--seed", seed])
    assert proc.returncode == 2, proc.stderr
    assert "argument --seed" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-0.5"])
def test_oracle_sweep_refuses_a_radius_that_is_not_positive_and_finite(radius):
    """`--radii` goes through the one number parser: no traceback for a
    non-finite radius, no `nan%` row for 0, no silent sign flip for -0.5."""
    proc = _run("oracle_sweep.py", ["--radii", radius])
    assert proc.returncode == 2, proc.stderr
    assert "argument --radii: bad value" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


def _run(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
