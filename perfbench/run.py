"""End-to-end and per-layer benchmark of the latentwalk CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a closed loop of
CLI calls: every call is its own child process (`python3 -m latentwalk`,
program defaults, `src/` on `PYTHONPATH`), and the next starts only when the
previous one has exited, so one child runs at a time.  The seed makes the
workload's inputs and is the `--seed` of every call; the program sees only
the generated files and its argv.

A run sets the workload up (inputs, checkpoints, a warm-up call) until
`SETUP_SECONDS` have passed, at least once, and reports the median set-up
time, because single set-ups of under a second vary by 15% or more from one
to the next on a shared 2-core host.  It then repeats the measured call
sequence for `--seconds`, rounded to a whole number of repetitions at the
mean repetition time, and at least twice.  `wall_s` is the sum of each
call's median wall time over the run.  Every call is checked (exit code,
every output parses and is finite, row counts, oracle verdicts) and its
outputs must be byte-identical to the same call's in the first repetition.
A repetition's output directory is deleted once checked.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics.  With `--trace 1` repetitions alternate between plain calls and
calls run under the span tracer (`traced_cli.py`), and the object holds the
per-layer metrics.  The lines before it name every metric with its unit and
record machine facts and the deterministic facts of the run.

Self-tests of the benchmark itself: `python3 perfbench/selftest.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_SECONDS = 5.0
MIN_REPS = 2
CHILD_TIMEOUT_S = 150.0

# Input sizes.  Settings not named here keep the program's defaults.
# Ten epochs rather than the default twenty keep a repetition of the four
# trainings near ten seconds, so a run takes the median of several.
TRAIN_SIZE, EPOCHS, BATCH = 2048, 10, 64
VARIANTS = ("vae", "dvae", "aae", "daae")
IMG_TRAIN, IMG_TEST, IMG_LATENT, IMG_EPOCHS, IMG_CHAINS = 2048, 512, 8, 5, 256
IMG_SAMPLE_STEPS, IMG_EVAL_STEPS = (0, 1, 5, 10, 50, 100), (0, 1, 5, 10)
IMG_RECON, IMG_GRID = 64, 8
IMG_CFG = (f"dataset = images-train.idx\ndataset_test = images-test.idx\n"
           f"latent_dim = {IMG_LATENT}\nepochs = {IMG_EPOCHS}\n"
           f"chains = {IMG_CHAINS}\n")
ORACLE_CHAINS, ORACLE_RADIUS, ORACLE_WARMUP_CHAINS = 100_000, 0.9, 10_000
# Row-steps of oracle_sample_chain in run_oracle_suite: 200 steps over the
# chains, two single steps over them, and one 20-step run of 64 chains,
# which the suite repeats through run_chain.
ORACLE_ROW_STEPS = ORACLE_CHAINS * 200 + 2 * ORACLE_CHAINS + 64 * 20
ORACLE_RUN_CHAIN_STEPS = 64 * 20


class SetupFailed(Exception):
    """A set-up call failed, so the workload cannot be measured."""


@dataclass
class Call:
    """One CLI call: argv after `latentwalk`, its output directory (relative
    to the workload directory) and what the directory must hold."""

    argv: list[str]
    out: str
    expect: dict
    items: int = 0


@dataclass
class Result:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Rep:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    items: int = 0
    traced: bool = False
    call_walls: list = field(default_factory=list)
    summaries: list = field(default_factory=list)


# -- child processes ----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str], cwd: Path, summary: Path | None = None) -> Result:
    """Run one CLI call to completion; wall time and peak RSS of the child."""
    if summary is None:
        cmd = [sys.executable, "-m", "latentwalk", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(summary), *argv]
    log = cwd / "child.log"
    with open(log, "w+") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        stdout = fh.read()
    log.unlink()
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


# -- workloads ----------------------------------------------------------------


def _train_call(variant: str, cfg: str, out: str, seed: int,
                epochs: int = EPOCHS) -> Call:
    return Call(["train", "--variant", variant, "--config", cfg,
                 "--seed", str(seed), "--out", out],
                out, {"losses.csv": epochs, "model.ckpt": None},
                items=epochs * (TRAIN_SIZE // BATCH) * BATCH)


def _steps(steps) -> str:
    return ",".join(map(str, steps))


def setup_train_mixture(d: Path, seed: int) -> None:
    for name, epochs in (("mixture.cfg", EPOCHS), ("warmup.cfg", 1)):
        (d / name).write_text(f"train_size = {TRAIN_SIZE}\nepochs = {epochs}\n")
    setup_call(_train_call("vae", "warmup.cfg", "warmup", seed, epochs=1), d)


def seq_train_mixture(seed: int) -> list[Call]:
    return [_train_call(v, "mixture.cfg", f"rep/train-{v}", seed)
            for v in VARIANTS]


def _oracle_call(chains: int, out: str, seed: int) -> Call:
    return Call(["oracle-check", "--chains", str(chains), "--spectral-radius",
                 str(ORACLE_RADIUS), "--seed", str(seed), "--out", out],
                out, {"checks.csv": 6})


def setup_walk_verify(d: Path, seed: int) -> None:
    from idxgen import write_idx_pair
    write_idx_pair(d, seed, IMG_TRAIN, IMG_TEST)
    (d / "images.cfg").write_text(IMG_CFG)
    call = Call(["train", "--variant", "dvae", "--config", "images.cfg",
                 "--seed", str(seed), "--out", "ckpt-dvae"],
                "ckpt-dvae", {"losses.csv": IMG_EPOCHS, "model.ckpt": None})
    setup_call(call, d)
    setup_call(_oracle_call(ORACLE_WARMUP_CHAINS, "warmup", seed), d)


def seq_walk_verify(seed: int) -> list[Call]:
    """Walk the image dvae's chain, then check the oracle chain.  The work
    unit of both is one chain row-step."""
    common = ["--checkpoint", "ckpt-dvae/model.ckpt", "--config", "images.cfg",
              "--seed", str(seed)]
    sample = {f"samples_step{s}{kind}": rows for s in IMG_SAMPLE_STEPS
              for kind, rows in ((".pgm", None), ("_latents.csv", IMG_CHAINS))}
    sample["trace.bin"] = max(IMG_SAMPLE_STEPS)
    grid_steps = (0, 1, 5, 10)  # the program's default `steps`
    oracle = _oracle_call(ORACLE_CHAINS, "rep/oracle", seed)
    oracle.items = ORACLE_ROW_STEPS + ORACLE_RUN_CHAIN_STEPS
    return [
        Call(["sample", *common, "--steps", _steps(IMG_SAMPLE_STEPS),
              "--out", "rep/sample"], "rep/sample", sample,
             items=IMG_CHAINS * max(IMG_SAMPLE_STEPS)),
        Call(["evaluate", *common, "--steps", _steps(IMG_EVAL_STEPS),
              "--out", "rep/evaluate"], "rep/evaluate",
             {"report.csv": max(IMG_EVAL_STEPS) + 1},
             items=IMG_CHAINS * max(IMG_EVAL_STEPS)),
        Call(["reconstruct", *common, "--n", str(IMG_RECON),
              "--out", "rep/reconstruct"], "rep/reconstruct",
             {"errors.csv": IMG_RECON, "clean.pgm": None,
              "corrupted.pgm": None, "reconstructed.pgm": None}),
        Call(["interpolate", *common, "--out", "rep/interpolate"],
             "rep/interpolate", {f"grid_step{s}.pgm": None for s in grid_steps},
             items=IMG_GRID * IMG_GRID * max(grid_steps)),
        oracle,
    ]


@dataclass
class Workload:
    setup: Callable[[Path, int], None]
    sequence: Callable[[int], list[Call]]
    sizes: dict


WORKLOADS = {
    "train-mixture": Workload(setup_train_mixture, seq_train_mixture, {
        "variants": list(VARIANTS), "train_size": TRAIN_SIZE, "epochs": EPOCHS,
        "batch_size": BATCH, "hidden_dims": [64, 64]}),
    "walk-verify": Workload(setup_walk_verify, seq_walk_verify, {
        "idx_train": IMG_TRAIN, "idx_test": IMG_TEST, "pixels": 784,
        "variant": "dvae", "latent_dim": IMG_LATENT, "epochs": IMG_EPOCHS,
        "chains": IMG_CHAINS, "sample_steps": list(IMG_SAMPLE_STEPS),
        "evaluate_steps": list(IMG_EVAL_STEPS), "reconstruct_n": IMG_RECON,
        "interpolate_grid": [IMG_GRID, IMG_GRID],
        "oracle_chains": ORACLE_CHAINS, "spectral_radius": ORACLE_RADIUS,
        "oracle_warmup_chains": ORACLE_WARMUP_CHAINS}),
}


# -- checking and measuring ------------------------------------------------------


def check_call(call: Call, res: Result, d: Path) -> tuple[dict, dict]:
    """Digests and facts of a call's outputs; raises CheckFailed."""
    from checks import CheckFailed, check_output
    if res.code != 0:
        raise CheckFailed(f"exit code {res.code}: {res.stdout[-500:]}")
    return check_output(d / call.out, d, call.expect, res.stdout)


def setup_call(call: Call, d: Path) -> None:
    """Run and check a set-up call; set-up failures end the run."""
    from checks import CheckFailed
    try:
        check_call(call, run_child(call.argv, d), d)
    except CheckFailed as exc:
        raise SetupFailed(f"{' '.join(call.argv)}: {exc}") from None


class Runner:
    """Runs repetitions of one workload's sequence in its directory."""

    def __init__(self, calls: list[Call], d: Path):
        self.calls = calls
        self.dir = d
        self.reference: dict[str, dict] = {}
        self.facts: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0

    def rep(self, traced: bool) -> Rep:
        from checks import CheckFailed
        rep = Rep(traced=traced)
        for i, call in enumerate(self.calls):
            summary = self.dir / f"spans-{i}.json" if traced else None
            res = run_child(call.argv, self.dir, summary)
            rep.wall_s += res.wall_s
            rep.call_walls.append(res.wall_s)
            rep.peak_rss_mb = max(rep.peak_rss_mb, res.rss_mb)
            rep.items += call.items
            self.attempted += 1
            try:
                digests, facts = check_call(call, res, self.dir)
                want = self.reference.setdefault(call.out, digests)
                if digests != want:
                    changed = sorted(k for k in set(want) | set(digests)
                                     if want.get(k) != digests.get(k))
                    raise CheckFailed(f"outputs differ from the first "
                                      f"repetition: {changed}")
                for key, value in facts.items():
                    self.facts[f"{call.out.removeprefix('rep/')}.{key}"] = value
            except CheckFailed as exc:
                self.failed += 1
                print(f"FAIL {' '.join(call.argv)}: {exc}", file=sys.stderr)
            if summary is not None:
                rep.summaries.append(json.loads(summary.read_text())
                                     if summary.exists() else {})
                summary.unlink(missing_ok=True)
        shutil.rmtree(self.dir / "rep", ignore_errors=True)
        return rep


def measure(runner: Runner, seconds: float, traced: bool) -> list[Rep]:
    """Repeat the sequence for `seconds`, rounded to a whole number of
    repetitions and at least `MIN_REPS`; with tracing, alternate plain and
    traced repetitions, starting plain."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(runner.rep(traced=traced and len(reps) % 2 == 1))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) / 2 >= seconds:
            return reps


# -- metrics ---------------------------------------------------------------------


def end_to_end(reps: list[Rep], setups: list[float], runner: Runner) -> dict:
    """The sequence's wall time is the sum of each call's median over the
    run, so a slow spell costs one call's sample, not a repetition's."""
    ok = (runner.attempted - runner.failed) / runner.attempted
    wall = sum(statistics.median(calls) for calls in zip(*(r.call_walls for r in reps)))
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (reps[0].items / wall, "items/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in reps), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_ratio": (ok, "ratio"),
    }


def _merge(summaries: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    errors: dict[str, int] = {}
    for s in summaries:
        for name, agg in s.get("spans", {}).items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for target, source in ((counts, s.get("counts", {})),
                               (errors, s.get("errors", {}))):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value
    return {"spans": spans, "counts": counts, "errors": errors}


def per_layer(rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    from tracer import CLI_SPANS, DATA_WRITERS, LAYERS
    merged = _merge(rep.summaries)
    spans, counts, errors = merged["spans"], merged["counts"], merged["errors"]

    def span(name, key="self_s"):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ops = [n for n in spans if n.startswith("tensor.op.")]
    op_calls = sum(span(n, "calls") for n in ops)
    steps = span("optim.adam_step", "calls")
    # Op calls of the processes that train, so walks do not dilute the ratio.
    train_op_calls = sum(
        agg["calls"] for s in rep.summaries if "optim.adam_step" in s.get("spans", {})
        for name, agg in s["spans"].items() if name.startswith("tensor.op."))
    normal_draws = counts.get("rng.normal.draws", 0)
    written = counts.get("data.bytes_written", 0)
    m = {
        "tensor.backward.calls": (span("tensor.backward", "calls"), "count"),
        "tensor.backward.self_s": (span("tensor.backward"), "s"),
        "tensor.ops.calls": (op_calls, "count"),
        "tensor.ops.self_s": (sum(span(n) for n in ops), "s"),
        "tensor.matmul.self_s": (span("tensor.op.matmul"), "s"),
        "tensor.ops_per_step": (ratio(train_op_calls, steps), "count"),
        "optim.adam_step.calls": (steps, "count"),
        "optim.adam_step.us_per_call": (
            ratio(span("optim.adam_step", "total_s"), steps) * 1e6, "us"),
        "objectives.examples": (counts.get("objectives.examples", 0), "count"),
        "models.chain_encode.rows": (
            counts.get("models.chain_encode.rows", 0), "count"),
        "models.chain_decode.rows": (
            counts.get("models.chain_decode.rows", 0), "count"),
        "chain.transitions": (counts.get("chain.transitions", 0), "count"),
        "chain.trace_bytes": (counts.get("chain.trace_bytes", 0), "bytes"),
        "chain.kept_step_ratio": (ratio(counts.get("chain.asked_steps", 0),
                                        counts.get("chain.stored_steps", 0)), "ratio"),
        "rng.normal.draws": (normal_draws, "count"),
        "rng.normal.ns_per_draw": (
            ratio(span("rng.normal", "total_s"), normal_draws) * 1e9, "ns"),
        "rng.normal.raw_per_draw": (
            ratio(counts.get("rng.normal.raw", 0), normal_draws), "count"),
        "rng.uniform.draws": (counts.get("rng.uniform.draws", 0), "count"),
        "metrics.mmd_rbf.calls": (span("metrics.mmd_rbf", "calls"), "count"),
        "metrics.kernel_pairs": (counts.get("metrics.kernel_pairs", 0), "count"),
        "metrics.kernel_reuse_ratio": (
            ratio(counts.get("metrics.kernel_pairs_reused", 0),
                  counts.get("metrics.kernel_pairs", 0)), "ratio"),
        "oracle.solve_stationary_cov.calls": (
            span("oracle.solve_stationary_cov", "calls"), "count"),
        "oracle.sample_chain.row_steps": (
            counts.get("oracle.sample_chain.row_steps", 0), "count"),
        "data.bytes_written": (written, "bytes"),
        "data.write_mb_per_s": (
            ratio(written, sum(span(n, "total_s") for n in DATA_WRITERS)) / 1e6,
            "MB/s"),
    }
    for name in ("layers.dense", "layers.batchnorm", "layers.activation",
                 "layers.dropout", "objectives.train_epoch", "objectives.losses",
                 "objectives.corrupt", "models.chain_encode",
                 "models.chain_decode", "models.forward", "chain.run_chain",
                 "rng.normal", "rng.uniform", "metrics.mmd_rbf",
                 "metrics.bandwidth", "metrics.chain_diagnostics",
                 "oracle.solve_stationary_cov", "oracle.sample_chain",
                 "oracle.suite", "data.export_trace", "data.load"):
        m[f"{name}.self_s"] = (span(name), "s")
    for sub in CLI_SPANS.values():
        m[f"cli.{sub}.self_s"] = (span(f"cli.{sub}"), "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    return m


# Counts that depend only on the input sizes; two traced repetitions (or
# runs) must agree on them exactly.
EXACT_COUNTS = ("tensor.ops_per_step", "rng.normal.draws", "rng.normal.raw_per_draw",
                "metrics.kernel_pairs", "chain.trace_bytes", "chain.transitions",
                "oracle.sample_chain.row_steps")


def traced_metrics(reps: list[Rep]) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced repetitions, the overhead ratio,
    and the exact counts that differ between traced repetitions."""
    traced = [per_layer(r) for r in reps if r.traced]
    plain = statistics.median(r.wall_s for r in reps if not r.traced)
    differ = [k for k in EXACT_COUNTS
              if len({t[k][0] for t in traced}) != 1]
    m = {name: (statistics.median(t[name][0] for t in traced), unit)
         for name, (_, unit) in traced[0].items()}
    m["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in reps if r.traced) / plain, "ratio")
    return m, differ


# -- facts and output ------------------------------------------------------------


def _blas_threads() -> tuple[str, int | None]:
    """BLAS library and its default thread count, read from the loaded library."""
    import ctypes
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return name, None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def machine_facts(seed: int) -> dict:
    import numpy as np
    blas, threads = _blas_threads()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "git_commit": _git_commit(), "workload_seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latentwalk" / "cli.py").is_file():
        print(f"error: no latentwalk sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setups: list[float] = []
        while sum(setups) < SETUP_SECONDS:
            d = work / f"setup{len(setups)}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(d, args.seed)
            setups.append(time.perf_counter() - start)
            if len(setups) > 1:
                shutil.rmtree(work / f"setup{len(setups) - 2}")
        runner = Runner(workload.sequence(args.seed), d)
        reps = measure(runner, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    differ: list[str] = []
    if args.trace:
        metrics, differ = traced_metrics(reps)
        for name in differ:
            print(f"FAIL exact count {name} differs between traced repetitions",
                  file=sys.stderr)
    else:
        metrics = end_to_end(reps, setups, runner)
    facts = {"machine": machine_facts(args.seed), "workload": args.workload,
             "sizes": workload.sizes, "setup_s": setups,
             "repetition_wall_s": [r.wall_s for r in reps],
             "traced_repetitions": sum(r.traced for r in reps),
             "call_wall_s": {c.out: [r.call_walls[i] for r in reps]
                             for i, c in enumerate(runner.calls)},
             "deterministic": runner.facts}
    print("# facts " + json.dumps(facts, sort_keys=True))
    metrics_shown = dict(metrics)
    metrics_shown["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
    width = max(map(len, metrics_shown))
    for name, (value, unit) in metrics_shown.items():
        print(f"# {name:<{width}}  {value!r} {unit}")
    print(f"# samples: {len(reps)} repetitions ({facts['traced_repetitions']} "
          f"traced) of {len(runner.calls)} calls, {len(setups)} set-ups")
    result = {"correct": runner.failed == 0 and not differ,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
