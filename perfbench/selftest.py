"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that

* the synthetic IDX generator is a pure function of its seed and that
  `latentwalk.data.load_idx` accepts its files;
* after `tracer.install`, no `latentwalk` module still holds a direct
  reference to an unwrapped function, an activation counts as one tensor op,
  and LatentWalkErrors are counted;
* two traced runs of every workload agree bit for bit on the exact counts,
  every per-layer metric reads non-zero on the workload where its layer does
  most of the work, no layer reports an error, and the traced counts match
  the work units `run.py` computes from the input sizes.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracer import LAYERS

SEED = 1

# Where each layer does most of its work: its metrics must read non-zero there.
HOME = {
    "train-mixture": (
        "tensor.backward.calls", "tensor.backward.self_s", "tensor.ops.calls",
        "tensor.ops.self_s", "tensor.matmul.self_s", "tensor.ops_per_step",
        "layers.dense.self_s", "layers.batchnorm.self_s",
        "layers.activation.self_s", "layers.dropout.self_s",
        "optim.adam_step.calls", "optim.adam_step.us_per_call",
        "objectives.train_epoch.self_s", "objectives.losses.self_s",
        "objectives.corrupt.self_s", "objectives.examples",
        "models.forward.self_s", "rng.uniform.draws", "rng.uniform.self_s",
        "cli.train.self_s"),
    "walk-verify": (
        "models.chain_encode.rows", "models.chain_encode.self_s",
        "models.chain_decode.rows", "models.chain_decode.self_s",
        "metrics.mmd_rbf.calls", "metrics.mmd_rbf.self_s",
        "metrics.kernel_pairs", "metrics.kernel_reuse_ratio",
        "metrics.bandwidth.self_s", "metrics.chain_diagnostics.self_s",
        "chain.transitions", "chain.run_chain.self_s", "chain.trace_bytes",
        "chain.kept_step_ratio", "data.export_trace.self_s",
        "data.bytes_written", "data.write_mb_per_s", "data.load.self_s",
        "rng.normal.draws", "rng.normal.self_s", "rng.normal.ns_per_draw",
        "rng.normal.raw_per_draw", "oracle.solve_stationary_cov.calls",
        "oracle.solve_stationary_cov.self_s", "oracle.sample_chain.row_steps",
        "oracle.sample_chain.self_s", "oracle.suite.self_s",
        "cli.sample.self_s", "cli.evaluate.self_s", "cli.reconstruct.self_s",
        "cli.interpolate.self_s", "cli.oracle-check.self_s"),
}

# The traced counts that sum to each workload's units of work.
WORK_COUNTS = {"train-mixture": ("objectives.examples",),
               "walk-verify": ("chain.transitions", "oracle.sample_chain.row_steps")}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def test_idx(tmp: Path, seed: int) -> None:
    from idxgen import write_idx_pair
    from latentwalk.data import load_idx
    dirs = [tmp / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    pairs = [write_idx_pair(d, s, run.IMG_TRAIN, run.IMG_TEST)
             for d, s in zip(dirs, (seed, seed, seed + 1))]
    same = all(x.read_bytes() == y.read_bytes() for x, y in zip(pairs[0], pairs[1]))
    check(same, "idx: the same seed gives byte-identical files")
    check(pairs[0][0].read_bytes() != pairs[2][0].read_bytes(),
          "idx: another seed gives other files")
    train, test = (load_idx(p) for p in pairs[0])
    check(train.samples.shape == (run.IMG_TRAIN, 784)
          and test.samples.shape == (run.IMG_TEST, 784),
          "idx: load_idx reads 28x28 train and test sets")
    check((train.split, test.split) == ("train", "test"),
          "idx: load_idx names the splits from the file names")


def test_wrappers() -> None:
    from tracer import Tracer, install, remaining_references
    from latentwalk import chain, cli, layers, objectives, tensor
    from latentwalk.errors import DomainError
    tracer = Tracer()
    originals = install(tracer)
    left = remaining_references(originals)
    check(not left, f"wrappers: no unwrapped references left {left}")
    direct = {"cli.run_chain": cli.run_chain,
              "cli.chain_diagnostics": cli.chain_diagnostics,
              "cli._DISPATCH['sample']": cli._DISPATCH["sample"],
              "objectives.encode_vae": objectives.encode_vae,
              "objectives.decode": objectives.decode,
              "chain.corrupt": chain.corrupt}
    for name, fn in direct.items():
        check(hasattr(fn, "__wrapped__"), f"wrappers: {name} is wrapped")
    ops_before = sum(n.startswith("tensor.op.") for n in tracer.names)
    layers.Activation("tanh")(tensor.Tensor([0.5]))
    ops = sum(n.startswith("tensor.op.") for n in tracer.names) - ops_before
    check(ops == 1, f"wrappers: one activation call records one tensor op ({ops})")
    try:
        tensor.log(tensor.Tensor([-1.0]))
    except DomainError:
        pass
    check(tracer.errors.get("tensor") == 1,
          "wrappers: a DomainError raised in tensor.log counts as tensor.errors")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: traced run is correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced(workload: str, seed: int) -> None:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    for name in run.EXACT_COUNTS:
        check(repr(first[name]) == repr(second[name]),
              f"{workload}: {name} repeats exactly ({first[name]!r})")
    for name in HOME[workload]:
        check(first[name] > 0, f"{workload}: {name} is non-zero ({first[name]!r})")
    for layer in LAYERS:
        check(first[f"{layer}.errors"] == 0, f"{workload}: no {layer} errors")
    items = sum(c.items for c in run.WORKLOADS[workload].sequence(seed))
    traced = sum(first[name] for name in WORK_COUNTS[workload])
    check(traced == items, f"{workload}: traced {'+'.join(WORK_COUNTS[workload])} "
          f"= {traced} equals the {items} work units of items_per_s")


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    tmp = run.WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        test_idx(tmp, SEED)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    for workload in run.WORKLOADS:
        test_traced(workload, SEED)
    test_wrappers()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
