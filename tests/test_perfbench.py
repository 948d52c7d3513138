"""The benchmark in perfbench/ still fits the package: its tracer wraps every
name it looks for, and traced CLI calls run without errors. Each check runs
in its own interpreter, as the benchmark does, so no wrapper leaks into
other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _run(argv, cwd=None):
    path = os.pathsep.join(p for p in (str(BENCH), str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_tracer_leaves_no_unwrapped_reference():
    proc = _run(["-c", "from tracer import Tracer, install, remaining_references\n"
                       "print(remaining_references(install(Tracer())))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_traced_train_and_sample_count_no_errors(tmp_path):
    (tmp_path / "small.cfg").write_text(
        "train_size = 128\ntest_size = 64\nepochs = 1\nbatch_size = 32\n"
        "chains = 16\nsteps = 0,1\n")
    # Each call, the one data writer it runs and the file that writer leaves.
    calls = {"train": (["train", "--variant", "daae", "--config", "small.cfg",
                        "--seed", "1", "--out", "train"],
                       "data.save_checkpoint", "train/model.ckpt"),
             "sample": (["sample", "--checkpoint", "train/model.ckpt",
                         "--config", "small.cfg", "--seed", "1",
                         "--out", "sample"],
                        "data.export_trace", "sample/trace.bin")}
    for name, (argv, writer, written) in calls.items():
        proc = _run([str(BENCH / "traced_cli.py"), f"{name}.json", *argv],
                    cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / f"{name}.json").read_text())
        assert not any(summary["errors"].values()), summary["errors"]
        assert summary["spans"][f"cli.{name}"]["calls"] == 1
        assert summary["spans"][writer]["calls"] == 1
        assert (summary["counts"]["data.bytes_written"]
                == (tmp_path / written).stat().st_size)


def test_traced_oracle_check_counts_every_chain_of_the_walk(tmp_path):
    """32,768 chains walk check 4 in one run_chain call."""
    proc = _run([str(BENCH / "traced_cli.py"), "oracle.json", "oracle-check",
                 "--chains", "32768", "--spectral-radius", "0.9",
                 "--out", "oracle"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "oracle.json").read_text())
    assert not any(summary["errors"].values()), summary["errors"]
    # Check 4 walks 200 steps of every chain; check 6, 20 steps of 64.
    assert summary["counts"]["chain.transitions"] == 200 * 32768 + 20 * 64
    # One run_chain call each: check 4's walk and check 6's.
    spans = summary["spans"]
    assert spans["chain.run_chain"]["calls"] == 2
    assert spans["chain.run_chain"]["self_s"] > 0
    assert spans["rng.normal"]["self_s"] > 0
