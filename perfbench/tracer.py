"""In-memory span tracer that wraps latentwalk's layers from outside the package.

`install(tracer)` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent) and, for some entry points, counts
of the work done.  A module-level function is replaced in the module that
defines it and in every `latentwalk` module that imported it by name (as
`cli.py` does with `run_chain`), including module-level dispatch tables such
as `cli._DISPATCH`.  Spans stay in memory; `summary()` folds them into call
counts and self times (span time minus the time covered by child spans) when
the traced process ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("tensor", "layers", "optim", "objectives", "models", "chain", "rng",
          "metrics", "oracle", "data", "cli")

CLI_SPANS = {"cmd_train": "train", "cmd_sample": "sample",
             "cmd_evaluate": "evaluate", "cmd_reconstruct": "reconstruct",
             "cmd_interpolate": "interpolate", "cmd_oracle_check": "oracle-check"}

# Writers of the GAEC container.  PGM and CSV writing stay in the cli spans.
DATA_WRITERS = ("data.export_trace", "data.save_checkpoint")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        # Steps the CLI asked `run_chain` for, set just before the call.
        self.asked_steps: int | None = None
        # Digests of the sample sets seen by the MMD calls of one report.
        self.report_seen: set | None = None

    def count_error(self, layer: str, exc: BaseException) -> None:
        """Count a LatentWalkError once per layer it passes through."""
        seen = exc.__dict__.setdefault("_perfbench_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def summary(self) -> dict:
        """Per-span-name calls, self and total seconds, plus counters."""
        ids: dict[str, int] = {}
        name_ids = np.array([ids.setdefault(n, len(ids)) for n in self.names],
                            dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        width = len(ids)
        calls = np.bincount(name_ids, minlength=width)
        self_s = np.bincount(name_ids, weights=dur - child, minlength=width)
        total_s = np.bincount(name_ids, weights=dur, minlength=width)
        spans = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                        "total_s": float(total_s[i])}
                 for name, i in ids.items()}
        return {"spans": spans, "counts": dict(self.counts),
                "errors": dict(self.errors)}


def _wrap(tracer: Tracer, name: str | None, layer: str, fn, before=None,
          after=None):
    """Wrapper recording a span (unless `name` is None) and running hooks.

    `before(args, kwargs)` runs before the call and its result is handed to
    `after(args, kwargs, result, state)`, which runs once the span is closed.
    """
    from latentwalk.errors import LatentWalkError

    names, starts, ends = tracer.names, tracer.starts, tracer.ends
    parents, stack = tracer.parents, tracer.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        if name is None:
            result = fn(*args, **kwargs)
        else:
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except LatentWalkError as exc:
                tracer.count_error(layer, exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
        if after is not None:
            after(args, kwargs, result, state)
        return result

    return wrapper


def _argument(fn, name: str):
    """Getter for argument `name` of a call to `fn`, default included."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _latentwalk_namespaces():
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "latentwalk" or mod_name.startswith("latentwalk."):
            yield vars(mod)


def _replace_everywhere(orig, wrapper) -> None:
    """Point every module-level reference to `orig` at `wrapper`."""
    for ns in _latentwalk_namespaces():
        for key, value in list(ns.items()):
            if value is orig:
                ns[key] = wrapper
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper


def remaining_references(originals) -> list[str]:
    """Module-level names that still point at an unwrapped original."""
    left = []
    ids = {id(o) for o in originals}
    for ns in _latentwalk_namespaces():
        for key, value in ns.items():
            if id(value) in ids:
                left.append(f"{ns['__name__']}.{key}")
            elif type(value) is dict:
                left += [f"{ns['__name__']}.{key}[{k!r}]"
                         for k, v in value.items() if id(v) in ids]
    return left


# Looks a primitive up by name and calls it; a span of its own would count
# each primitive it dispatches twice.
DISPATCHERS = ("apply_primitive",)


def tensor_ops() -> list[str]:
    """Public functions defined in `latentwalk.tensor`, found at run time,
    less the dispatchers."""
    from latentwalk import tensor
    return sorted(name for name, obj in vars(tensor).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__ == tensor.__name__
                  and name not in DISPATCHERS)


def _digest(a) -> tuple:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def install(tracer: Tracer) -> list:
    """Wrap every traced entry point; returns the replaced originals."""
    import latentwalk  # noqa: F401  (imports every module of the package)
    from latentwalk import (chain, cli, data, layers, metrics, models,
                            objectives, optim, oracle, rng, tensor)

    counts = tracer.counts
    originals = []

    def function(module, attr, name, layer, before=None, after=None):
        orig = getattr(module, attr)
        _replace_everywhere(orig, _wrap(tracer, name, layer, orig, before, after))
        originals.append(orig)

    def method(cls, attr, name, layer, before=None, after=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, name, layer, orig, before, after))
        originals.append(orig)

    # tensor: every public function, plus the backward pass.
    for op in tensor_ops():
        function(tensor, op, f"tensor.op.{op}", "tensor")
    method(tensor.Tensor, "backward", "tensor.backward", "tensor")

    # layers
    for cls, name in ((layers.DenseLayer, "dense"),
                      (layers.BatchNormLayer, "batchnorm"),
                      (layers.Activation, "activation"),
                      (layers.Dropout, "dropout")):
        method(cls, "__call__", f"layers.{name}", "layers")

    # optim
    method(optim.Adam, "step", "optim.adam_step", "optim")

    # objectives
    def epoch_examples(args, kwargs, result, state):
        batch = cfg_of(args, kwargs).batch_size
        n = len(ds_of(args, kwargs))  # a Dataset or an array of rows
        counts["objectives.examples"] += (n // batch) * batch

    ds_of = _argument(objectives.train_epoch, "dataset")
    cfg_of = _argument(objectives.train_epoch, "cfg")
    function(objectives, "train_epoch", "objectives.train_epoch", "objectives",
             after=epoch_examples)
    for loss in ("recon_cross_entropy", "recon_squared_error",
                 "kl_prior_gaussian", "adversarial_losses"):
        function(objectives, loss, "objectives.losses", "objectives")
    function(objectives, "corrupt", "objectives.corrupt", "objectives")

    # models
    def rows(key, batch_of):
        def after(args, kwargs, result, state):
            counts[key] += np.shape(batch_of(args, kwargs))[0]
        return after

    Model = models.GenerativeAutoencoder
    method(Model, "chain_encode", "models.chain_encode", "models",
           after=rows("models.chain_encode.rows",
                      _argument(Model.chain_encode, "x")))
    method(Model, "chain_decode", "models.chain_decode", "models",
           after=rows("models.chain_decode.rows",
                      _argument(Model.chain_decode, "z")))
    for fwd in ("encode_vae", "encode_aae", "encode_mean", "decode",
                "adversary_score"):
        function(models, fwd, "models.forward", "models")

    # chain
    steps_of = _argument(chain.run_chain, "steps")

    def chain_counts(args, kwargs, result, state):
        steps = steps_of(args, kwargs)
        counts["chain.transitions"] += steps * len(result.z0)
        counts["chain.stored_steps"] += steps + 1
        counts["chain.asked_steps"] += (tracer.asked_steps
                                        if tracer.asked_steps is not None
                                        else steps + 1)
        tracer.asked_steps = None
        held = result.z0.values.nbytes
        for step in result.steps:
            held += step.x.nbytes + step.z.values.nbytes
            if step.x_tilde is not None:
                held += step.x_tilde.nbytes
        counts["chain.trace_bytes"] += held

    function(chain, "run_chain", "chain.run_chain", "chain", after=chain_counts)
    snapshot_steps_of = _argument(cli._snapshot_steps, "steps")

    def ask(args, kwargs):
        tracer.asked_steps = len(set(snapshot_steps_of(args, kwargs)))

    function(cli, "_snapshot_steps", None, "cli", before=ask)

    # rng
    def draws(kind):
        def before(args, kwargs):
            return args[0].counter

        def after(args, kwargs, result, counter_before):
            counts[f"rng.{kind}.draws"] += int(np.size(result))
            counts[f"rng.{kind}.raw"] += args[0].counter - counter_before
        return before, after

    for kind in ("normal", "uniform"):
        before, after = draws(kind)
        method(rng.Rng, kind, f"rng.{kind}", "rng", before=before, after=after)

    # metrics
    a_of = _argument(metrics.mmd_rbf, "a")
    b_of = _argument(metrics.mmd_rbf, "b")

    def kernel_pairs(args, kwargs, result, state):
        a, b = np.asarray(a_of(args, kwargs)), np.asarray(b_of(args, kwargs))
        na, nb = a.shape[0], b.shape[0]
        counts["metrics.kernel_pairs"] += na * na + nb * nb + na * nb
        seen = tracer.report_seen if tracer.report_seen is not None else set()
        da, db = _digest(a), _digest(b)
        for key, pairs in ((da, na * na), (db, nb * nb),
                           (frozenset((da, db)), na * nb)):
            if key in seen:
                counts["metrics.kernel_pairs_reused"] += pairs
            seen.add(key)

    def open_report(args, kwargs):
        tracer.report_seen = set()

    def close_report(args, kwargs, result, state):
        tracer.report_seen = None

    function(metrics, "mmd_rbf", "metrics.mmd_rbf", "metrics",
             after=kernel_pairs)
    function(metrics, "median_heuristic_bandwidth", "metrics.bandwidth",
             "metrics")
    function(metrics, "chain_diagnostics", "metrics.chain_diagnostics",
             "metrics", before=open_report, after=close_report)

    # oracle
    oracle_steps_of = _argument(oracle.oracle_sample_chain, "steps")

    def row_steps(args, kwargs, result, state):
        counts["oracle.sample_chain.row_steps"] += (
            oracle_steps_of(args, kwargs) * result.shape[1])

    function(oracle, "solve_stationary_cov", "oracle.solve_stationary_cov",
             "oracle")
    function(oracle, "oracle_sample_chain", "oracle.sample_chain", "oracle",
             after=row_steps)
    function(oracle, "run_oracle_suite", "oracle.suite", "oracle")

    # data: writers count the bytes they leave on disk.
    def written(fn):
        path_of = _argument(fn, "path")

        def after(args, kwargs, result, state):
            counts["data.bytes_written"] += os.path.getsize(path_of(args, kwargs))
        return after

    for writer in DATA_WRITERS:
        attr = writer.split(".", 1)[1]
        function(data, attr, writer, "data", after=written(getattr(data, attr)))
    for loader in ("load_checkpoint", "read_checkpoint_header", "load_idx",
                   "load_arrays", "gen_gaussian_mixture"):
        function(data, loader, "data.load", "data")

    # cli: one span per subcommand.
    for attr, sub in CLI_SPANS.items():
        function(cli, attr, f"cli.{sub}", "cli")
    return originals
