"""Checks on the output directory of one latentwalk CLI call.

Every file the manifest lists must exist, and every file in the directory
must parse: JSON, CSV with finite numbers, binary PGM, and the GAEC container
read back through `load_arrays` / `load_checkpoint` so that its CRC is
verified.  The digests returned let the caller compare two repetitions byte
for byte, with the manifest compared modulo its timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

ORACLE_CHECKS = 6

_PATTERN = re.compile(r"^(?P<stem>.+)<k> for k in \[(?P<ks>[\d, ]*)\]$")


class CheckFailed(Exception):
    """An output is missing, malformed, non-finite or of the wrong size."""


def _listed_outputs(manifest: dict, cwd: Path, out: Path) -> list[str]:
    """Missing outputs among those the manifest lists."""
    missing = []
    for entry in manifest["outputs"]:
        m = _PATTERN.match(entry)
        if m is None:
            if not (cwd / entry).is_file():
                missing.append(entry)
            continue
        # `interpolate` lists its grids as "grid_step<k> for k in [...]".
        for k in m.group("ks").replace(" ", "").split(","):
            stem = m.group("stem") + k
            if not any(p.name.startswith(stem + suffix)
                       for suffix in (".", "_") for p in out.iterdir()):
                missing.append(stem)
    return missing


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise CheckFailed(f"{path.name}: no header row")
    return rows[1:]


def _check_numeric(path: Path, rows: list[list[str]]) -> None:
    for i, row in enumerate(rows):
        cells = [c for c in row if c != ""]
        if not cells:
            raise CheckFailed(f"{path.name}: row {i} is empty")
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                raise CheckFailed(
                    f"{path.name}: row {i}: {cell!r} is not a number") from None
            if not math.isfinite(value):
                raise CheckFailed(f"{path.name}: row {i}: non-finite {cell}")


def _check_pgm(path: Path) -> None:
    blob = path.read_bytes()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise CheckFailed(f"{path.name}: not an 8-bit binary PGM")
    width, height = (int(v) for v in parts[1].split())
    if len(parts[3]) != width * height:
        raise CheckFailed(f"{path.name}: {len(parts[3])} pixels for "
                          f"{width}x{height}")


def _check_file(path: Path, oracle: bool) -> int | None:
    """Parse one output; returns its CSV data rows or trace step count."""
    from latentwalk.data import load_arrays, load_checkpoint
    from latentwalk.errors import LatentWalkError

    suffix = path.suffix
    if suffix == ".json":
        json.loads(path.read_text())
    elif suffix == ".csv":
        rows = _csv_rows(path)
        if not (oracle and path.name == "checks.csv"):
            _check_numeric(path, rows)
        return len(rows)
    elif suffix == ".pgm":
        _check_pgm(path)
    elif suffix == ".bin":
        try:
            arrays, extra = load_arrays(path)
        except LatentWalkError as exc:
            raise CheckFailed(f"{path.name}: {exc}") from None
        if not all(np.all(np.isfinite(a)) for a in arrays.values()):
            raise CheckFailed(f"{path.name}: non-finite values")
        return int(extra["steps"])
    elif suffix == ".ckpt":
        try:
            model = load_checkpoint(path)
        except LatentWalkError as exc:
            raise CheckFailed(f"{path.name}: {exc}") from None
        if not all(np.all(np.isfinite(p.data)) for p in model.all_params()):
            raise CheckFailed(f"{path.name}: non-finite parameters")
    else:
        raise CheckFailed(f"unexpected output file {path.name}")
    return None


def _check_oracle(out: Path, stdout: str) -> None:
    rows = _csv_rows(out / "checks.csv")
    failed = [r[0] for r in rows if r[1] != "true"]
    if len(rows) != ORACLE_CHECKS or failed:
        raise CheckFailed(f"oracle checks: {len(rows)} rows, failed {failed}")
    if f"{ORACLE_CHECKS}/{ORACLE_CHECKS} checks passed" not in stdout:
        raise CheckFailed("oracle-check did not report all checks passed")


def _digest(path: Path) -> str:
    if path.name != "manifest.json":
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()
    manifest = json.loads(path.read_text())
    manifest.pop("timestamp")
    for key in ("inputs", "outputs"):
        manifest[key] = [Path(p).name for p in manifest[key]]
    text = json.dumps(manifest, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(out: Path, cwd: Path, expect: dict[str, int | None],
                 stdout: str) -> tuple[dict, dict]:
    """Check one call's output directory `out`; `cwd` is the call's cwd.

    `expect` maps each required file name to its CSV data-row count, its
    trace step count, or None; expecting `checks.csv` marks an oracle-check
    call.  Returns (digest per file, deterministic facts).
    """
    oracle = "checks.csv" in expect
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise CheckFailed("no manifest.json")
    missing = _listed_outputs(json.loads(manifest_path.read_text()), cwd, out)
    if missing:
        raise CheckFailed(f"manifest outputs missing: {missing}")
    sizes = {p.name: _check_file(p, oracle) for p in sorted(out.iterdir())}
    for name, want in expect.items():
        if name not in sizes:
            raise CheckFailed(f"{name} missing")
        if want is not None and sizes[name] != want:
            raise CheckFailed(f"{name}: {sizes[name]} rows/steps, expected {want}")
    if oracle:
        _check_oracle(out, stdout)
    facts = {}
    if "report.csv" in sizes:
        with open(out / "report.csv", newline="") as fh:
            series = [float(r["mmd_to_encoded"]) for r in csv.DictReader(
                line for line in fh if not line.startswith("#"))]
        facts["mmd_to_encoded"] = [series[0], series[-1]]
    return {name: _digest(out / name) for name in sizes}, facts
