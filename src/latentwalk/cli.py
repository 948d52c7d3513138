"""Command-line workflow: train, sample, interpolate, reconstruct, evaluate,
oracle-check.

Every subcommand takes ``--config``, ``--seed``, and ``--out``; equal seeds
and inputs give byte-identical artifacts (the manifest, which carries a
timestamp, is the one exception). Exit codes: 0 success, 1 failed check or
module error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .chain import LatentBatch, interpolation_grid, run_chain, sample_prior
from .data import (_CONFIG_KEYS, Dataset, RunOptions, _parse_count,
                   _parse_int_list, _parse_number, _read_config, export_trace,
                   gen_gaussian_mixture, load_checkpoint, load_idx,
                   parse_config, save_checkpoint, write_csv, write_image_grid,
                   write_loss_log)
from .errors import ConfigError, ContractViolation, LatentWalkError
from .metrics import chain_diagnostics, write_report
from .models import (CorruptionSpec, GenerativeAutoencoder, encode_mean,
                     resolve_variant, set_norm_mode)
from .objectives import TrainConfig, corrupt, train_model
from .oracle import run_oracle_suite
from .rng import Rng
from .tensor import Tensor


# -- shared plumbing -----------------------------------------------------------


def _flag_type(parse):
    """An argparse `type` from a config-table parser, so a flag and its
    config key accept and reject the same values."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") \
                from None
    return convert


def _indices_arg(text: str) -> tuple[int, ...]:
    items = _flag_type(_parse_int_list)(text)
    if len(items) != 4:
        raise argparse.ArgumentTypeError("need exactly four corner indices")
    return items


def _resolve(args) -> tuple[TrainConfig, RunOptions, dict]:
    """Config file (if any) merged with the flags that set config keys: the
    settings, and the parsed value of each key that the file or a flag gave.
    A file that cannot be read is a ConfigError at line 0."""
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config!r}", 0) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config!r}: {exc}",
                          0) from None
    overrides = {k: v for k, v in vars(args).items()
                 if k in _CONFIG_KEYS and v is not None}
    given = _read_config(text, overrides)
    return (*parse_config("", given), given)


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path("runs") / default
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LatentWalkError(f"{out}: cannot create output directory "
                              f"({exc.strerror or exc})") from None
    return out


def _write_manifest(out: Path, subcommand: str, cfg: TrainConfig,
                    opts: RunOptions, inputs: list[str],
                    outputs: list[str], **facts) -> None:
    manifest = {
        "subcommand": subcommand,
        "seed": cfg.seed,
        "config": {"train": asdict(cfg), "options": asdict(opts)},
        "inputs": inputs,
        "outputs": outputs,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **facts,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_split(opts: RunOptions, seed: int, split: str) -> Dataset:
    if opts.dataset == "mixture":
        n = opts.train_size if split == "train" else opts.test_size
        return gen_gaussian_mixture(n, k=opts.mixture_components,
                                    radius=opts.mixture_radius,
                                    std=opts.mixture_std, seed=seed, split=split)
    path = opts.dataset if split == "train" else (opts.dataset_test or opts.dataset)
    return load_idx(path)


def _latent_dim(opts: RunOptions) -> int:
    if opts.latent_dim is not None:
        return opts.latent_dim
    return 2 if opts.dataset == "mixture" else 8


def _write_array_csv(path: Path, array: np.ndarray, prefix: str) -> None:
    write_csv(path, [f"{prefix}{i}" for i in range(array.shape[1])], array)


def _write_batch(out: Path, stem: str, batch: np.ndarray,
                 image_shape: tuple[int, int] | None,
                 grid: tuple[int, int] | None = None, csv_tag: str = "") -> None:
    """Image data: the first rows*cols items as a `{stem}.pgm` grid (`grid`,
    else 8 columns and the rows they need). Other data: `{stem}{csv_tag}.csv`."""
    if image_shape is None:
        _write_array_csv(out / f"{stem}{csv_tag}.csv", batch, "x")
        return
    cols = min(len(batch), 8)
    rows, cols = grid or (math.ceil(len(batch) / cols), cols)
    write_image_grid(out / f"{stem}.pgm", batch[:rows * cols], rows, cols,
                     *image_shape)


def _snapshot_steps(model, z0: LatentBatch, steps: tuple[int, ...],
                    spec: CorruptionSpec | None, rng: Rng,
                    trace_path: Path | None = None) -> dict[int, np.ndarray]:
    """Run one chain to max(steps), keeping only `steps`; return {step: latents}
    in step order. With `trace_path`, every step is streamed to that file."""
    walk = (model, z0, max(steps), spec, rng)
    trace = (run_chain(*walk, keep=steps) if trace_path is None
             else export_trace(*walk, keep=steps, path=trace_path))
    kept = {0: trace.z0.values, **{step.t: step.z.values for step in trace.steps}}
    return {s: kept[s] for s in sorted(steps)}


def _open(args, subcommand: str):
    """Settings, output directory, checkpoint in the chosen norm mode and the
    image shape, if any. The settings carry the model's variant,
    architecture, denoising flag and precision, not the config file's, and as
    `cfg.corruption` the corruption the command uses (the flag, else the
    config key, else the model's): the walk's kernel for a denoising model,
    None for a plain model's walk, which does not corrupt, and which refuses
    both flag and key. `reconstruct` always corrupts."""
    cfg, opts, given = _resolve(args)
    out = _out_dir(args, subcommand)
    model, header = load_checkpoint(args.checkpoint, with_header=True)
    set_norm_mode(model, opts.bn_mode)
    corrupts = model.denoising or subcommand == "reconstruct"
    if "corruption_variance" in given and not corrupts:
        raise ContractViolation(
            f"--corruption-variance / corruption_variance: {model.name} is "
            f"not a denoising model, so its walk does not corrupt")
    corruption = CorruptionSpec(given.get("corruption_variance",
                                          model.corruption_variance))
    cfg = replace(cfg, denoising=model.denoising,
                  corruption=corruption if corrupts else None)
    opts = replace(opts, variant=model.name, latent_dim=model.latent_dim,
                   hidden_dims=model.hidden_dims,
                   adversary_dims=model.adversary_dims,
                   precision="single" if model.dtype == np.float32 else "double")
    shape = header.get("data_shape")
    return cfg, opts, out, model, tuple(shape) if shape else None


# -- subcommands ----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg, opts, _ = _resolve(args)
    out = _out_dir(args, "train")
    data = _load_split(opts, cfg.seed, "train")
    base, denoising = resolve_variant(opts.variant)
    model = GenerativeAutoencoder(
        base, data_dim=data.dim, latent_dim=_latent_dim(opts),
        hidden_dims=opts.hidden_dims, adversary_dims=opts.adversary_dims,
        denoising=denoising, corruption_variance=cfg.corruption.variance,
        init_seed=cfg.seed,
        dtype=np.float32 if opts.precision == "single" else np.float64)
    ckpt = out / "model.ckpt"
    losses = out / "losses.csv"
    _write_manifest(out, "train", cfg, opts, inputs=[data.source],
                    outputs=[str(ckpt), str(losses)])
    stats = train_model(model, data, cfg)
    write_loss_log(losses, stats)
    save_checkpoint(model, ckpt, train_config=cfg,
                    data_shape=data.image_shape)
    final = stats[-1]
    print(f"trained {opts.variant} for {cfg.epochs} epochs "
          f"(final recon loss {final.recon_loss:.6f})")
    print(f"wrote {ckpt} and {losses}")
    return 0


def cmd_sample(args) -> int:
    cfg, opts, out, model, shape = _open(args, "sample")
    n = opts.chains
    _write_manifest(out, "sample", cfg, opts, inputs=[str(args.checkpoint)],
                    outputs=[str(out / "trace.bin")])
    rng = Rng(cfg.seed).derive("sample")
    z0 = sample_prior(n, model.prior, rng)
    snaps = _snapshot_steps(model, z0, opts.steps, cfg.corruption, rng,
                            trace_path=out / "trace.bin")
    render_rng = Rng(cfg.seed).derive("render")
    for s, latents in snaps.items():
        decoded = model.chain_decode(latents, render_rng)
        _write_batch(out, f"samples_step{s}", decoded, shape,  # first 64
                     grid=(min(math.ceil(n / 8), 8), min(n, 8)),
                     csv_tag="_decoded")
        _write_array_csv(out / f"samples_step{s}_latents.csv", latents, "z")
    print(f"sampled {n} chains at steps {','.join(map(str, snaps))}; "
          f"outputs in {out}")
    return 0


def cmd_interpolate(args) -> int:
    cfg, opts, out, model, shape = _open(args, "interpolate")
    data = _load_split(opts, cfg.seed, "test")
    _write_manifest(out, "interpolate", cfg, opts,
                    inputs=[str(args.checkpoint), data.source],
                    outputs=[f"grid_step<k> for k in {list(opts.steps)}"])
    if max(args.indices) >= len(data):
        raise LatentWalkError(
            f"corner index {max(args.indices)} out of range for "
            f"{len(data)} test items")
    corners = encode_mean(
        model, Tensor(data.samples[list(args.indices)], dtype=model.dtype)).data
    grid = interpolation_grid(corners, args.rows, args.cols)
    rng = Rng(cfg.seed).derive("interpolate")
    snaps = _snapshot_steps(model, grid, opts.steps, cfg.corruption, rng)
    render_rng = Rng(cfg.seed).derive("render")
    for s, latents in snaps.items():
        decoded = model.chain_decode(latents, render_rng)
        _write_batch(out, f"grid_step{s}", decoded, shape,
                     grid=(args.rows, args.cols), csv_tag="_decoded")
        if shape is None:
            _write_array_csv(out / f"grid_step{s}_latents.csv", latents, "z")
    print(f"interpolated {args.rows}x{args.cols} grid at steps "
          f"{','.join(map(str, snaps))}; outputs in {out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg, opts, out, model, shape = _open(args, "reconstruct")
    data = _load_split(opts, cfg.seed, "test")
    n = min(args.n, len(data))
    errors_path = out / "errors.csv"
    _write_manifest(out, "reconstruct", cfg, opts,
                    inputs=[str(args.checkpoint), data.source],
                    outputs=[str(errors_path)])
    rng = Rng(cfg.seed).derive("reconstruct")
    clean = data.samples[:n]
    corrupted = corrupt(clean, cfg.corruption, rng)
    z = model.chain_encode(corrupted, rng)
    recon = model.chain_decode(z, rng)
    for stem, batch in (("clean", clean), ("corrupted", corrupted),
                        ("reconstructed", recon)):
        _write_batch(out, stem, batch, shape)
    corr_err = np.sum((corrupted - clean) ** 2, axis=1)
    rec_err = np.sum((recon - clean) ** 2, axis=1)
    write_csv(errors_path,
              ["index", "corruption_sq_error", "reconstruction_sq_error"],
              zip(range(n), corr_err, rec_err))
    mean_corr, mean_rec = float(np.mean(corr_err)), float(np.mean(rec_err))
    print(f"reconstructed {n} items: mean corruption error {mean_corr:.6f}, "
          f"mean reconstruction error {mean_rec:.6f}; outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, opts, out, model, _ = _open(args, "evaluate")
    if opts.chains <= model.latent_dim:
        raise ContractViolation(
            f"chains ({opts.chains}) must exceed latent_dim "
            f"({model.latent_dim}) to fit each step's latent covariance")
    data = _load_split(opts, cfg.seed, "test")
    report_path = out / "report.csv"
    kind = "clean" if cfg.corruption is None else "corrupted"
    _write_manifest(out, "evaluate", cfg, opts,
                    inputs=[str(args.checkpoint), data.source],
                    outputs=[str(report_path)], reference=kind)
    rng = Rng(cfg.seed).derive("evaluate")
    rows = data.samples[:min(len(data), opts.chains)]
    # A denoising walk re-encodes corrupted outputs, so it targets encodings
    # of corrupted rows: the walk's own spec, on a stream of its own.
    if cfg.corruption is not None:
        rows = corrupt(rows, cfg.corruption,
                       Rng(cfg.seed).derive("evaluate-reference"))
    reference = LatentBatch(model.chain_encode(rows, rng), provenance="encoded")
    z0 = sample_prior(opts.chains, model.prior, rng)
    # chain_diagnostics reads latents only: keep each step without its batches.
    steps = []
    trace = run_chain(model, z0, max(opts.steps), cfg.corruption, rng, keep=(),
                      sink=lambda step: steps.append(
                          replace(step, x=None, x_tilde=None)))
    trace.steps = steps
    report = chain_diagnostics(trace, reference, model.prior,
                               rng=Rng(cfg.seed).derive("metrics-prior"))
    write_report(replace(report, reference=kind), report_path)
    first, last = report.mmd_to_encoded[0], report.mmd_to_encoded[-1]
    print(f"evaluated {opts.chains} chains over {max(opts.steps)} steps: "
          f"mmd_to_encoded {first:.6f} -> {last:.6f}; report at {report_path}")
    return 0


def cmd_oracle_check(args) -> int:
    cfg, opts, given = _resolve(args)
    opts = replace(opts, chains=given.get("chains", 10_000))
    out = _out_dir(args, "oracle-check")
    checks_path = out / "checks.csv"
    _write_manifest(out, "oracle-check", cfg, opts, inputs=[],
                    outputs=[str(checks_path)])
    results = run_oracle_suite(seed=cfg.seed, radius=args.spectral_radius,
                               n_chains=opts.chains)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    write_csv(checks_path, ["check", "passed", "detail"],
              ((r.name, r.passed, r.detail) for r in results))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentwalk",
        description="Train generative autoencoders and refine their samples "
                    "by walking a Markov chain in latent space.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def key(p, name, help=None, *, aliases=(), **kw):
        """A flag that sets config key `name`, parsed by that key's parser;
        `aliases` are further option strings of the same flag."""
        parse = _CONFIG_KEYS[name]
        if hasattr(parse, "choices"):
            kw["metavar"] = "{" + ",".join(parse.choices) + "}"
        p.add_argument("--" + name.replace("_", "-"), *aliases,
                       type=_flag_type(parse), help=help, **kw)

    def common(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="path to a `key = value` config file")
        key(p, "seed", "run seed (default 0)")
        p.add_argument("--out", help="output directory")
        return p

    def walk(name, help):
        p = common(name, help)
        p.add_argument("--checkpoint", required=True)
        key(p, "bn_mode")
        return p

    p_train = common("train", "train a model variant")
    key(p_train, "variant")
    key(p_train, "corruption_variance")

    p_sample = walk("sample", "prior samples refined by the chain")
    key(p_sample, "chains", "number of parallel chains", aliases=("--n",))
    key(p_sample, "steps", "comma-separated step indices (default 0,1,5,10)")
    key(p_sample, "corruption_variance")

    p_interp = walk("interpolate", "slerp grid, optionally refined")
    p_interp.add_argument("--indices", type=_indices_arg, default=(0, 1, 2, 3),
                          help="four test-item corner indices")
    side = _flag_type(_parse_number(int, 2))
    p_interp.add_argument("--rows", type=side, default=8)
    p_interp.add_argument("--cols", type=side, default=8)
    key(p_interp, "steps")

    p_recon = walk("reconstruct", "denoise corrupted test items")
    p_recon.add_argument("--n", type=_flag_type(_parse_count), default=16)
    key(p_recon, "corruption_variance")

    p_eval = walk("evaluate", "distribution metrics along the chain")
    key(p_eval, "chains")
    key(p_eval, "steps")

    p_oracle = common("oracle-check", "closed-form verification suite")
    p_oracle.add_argument("--spectral-radius",
                          type=_flag_type(_parse_number(float)), default=0.5,
                          help="contraction of the base system (>= 1 to "
                               "demonstrate divergence detection)")
    key(p_oracle, "chains", "number of chains in the sampled checks "
                            "(default 10000)")
    return parser


_DISPATCH = {
    "train": cmd_train,
    "sample": cmd_sample,
    "interpolate": cmd_interpolate,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "oracle-check": cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.subcommand](args)
    except LatentWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
