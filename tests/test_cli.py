"""End-to-end runs of every subcommand through main(argv)."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from latentwalk import (CheckResult, ConfigError, CorruptionSpec, DomainError,
                        GenerativeAutoencoder, OracleSystem, PriorSpec,
                        Rng, corrupt, gen_gaussian_mixture, load_arrays,
                        load_checkpoint, parse_config, read_checkpoint_header,
                        run_chain, sample_prior, save_checkpoint,
                        set_norm_mode)
from latentwalk import cli as cli_module
from latentwalk import data as data_module
from latentwalk.cli import main

FAST = ("train_size = 96\n"
        "test_size = 64\n"
        "epochs = 2\n"
        "batch_size = 32\n"
        "chains = 24\n"
        "steps = 0,1\n")


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST)
    return str(path)


def _train(tmp_path, fast_cfg, variant="vae", seed=1):
    out = tmp_path / f"{variant}-run"
    code = main(["train", "--variant", variant, "--seed", str(seed),
                 "--config", fast_cfg, "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# train


def test_train_writes_expected_artifacts(tmp_path, fast_cfg):
    out = _train(tmp_path, fast_cfg)
    assert (out / "manifest.json").exists()
    assert (out / "losses.csv").exists()
    assert (out / "model.ckpt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert manifest["config"]["train"]["epochs"] == 2
    assert manifest["seed"] == 1
    header = read_checkpoint_header(out / "model.ckpt")
    assert header["model"]["variant"] == "vae"
    lines = (out / "losses.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epochs


def test_single_precision_train_leaves_the_next_call_in_double(tmp_path, fast_cfg):
    before = _train(tmp_path / "before", fast_cfg)
    single = tmp_path / "single.cfg"
    single.write_text(FAST + "precision = single\n")
    _train(tmp_path / "single", str(single))
    after = _train(tmp_path / "after", fast_cfg)
    assert ((after / "model.ckpt").read_bytes()
            == (before / "model.ckpt").read_bytes())


def test_train_all_four_variants(tmp_path, fast_cfg):
    for variant in ("vae", "dvae", "aae", "daae"):
        out = _train(tmp_path, fast_cfg, variant=variant)
        header = read_checkpoint_header(out / "model.ckpt")
        expected_base = "vae" if variant in ("vae", "dvae") else "aae"
        assert header["model"]["variant"] == expected_base
        assert header["model"]["denoising"] == variant.startswith("d")


# ---------------------------------------------------------------------------
# sample


def test_sample_produces_grids_and_trace(tmp_path, fast_cfg):
    run = _train(tmp_path, fast_cfg)
    out = tmp_path / "samples"
    code = main(["sample", "--checkpoint", str(run / "model.ckpt"),
                 "--seed", "9", "--config", fast_cfg, "--out", str(out)])
    assert code == 0
    for step in (0, 1):
        assert (out / f"samples_step{step}_decoded.csv").exists()
        assert (out / f"samples_step{step}_latents.csv").exists()
    arrays, extra = load_arrays(out / "trace.bin")
    assert "z0" in arrays
    assert extra["steps"] == 1
    latents = np.loadtxt(out / "samples_step0_latents.csv", delimiter=",",
                         skiprows=1)
    assert latents.shape == (24, 2)


@pytest.mark.parametrize("flag", ["--n", "--chains"])
def test_sample_records_the_chains_it_walks(tmp_path, fast_cfg, flag):
    """`--n` is an alias of `--chains`; the manifest used to record the
    config's `chains` whatever `--n` said."""
    run = _train(tmp_path, fast_cfg)
    out = tmp_path / "samples"
    code = main(["sample", "--checkpoint", str(run / "model.ckpt"),
                 "--config", fast_cfg, flag, "3", "--out", str(out)])
    assert code == 0
    latents = np.loadtxt(out / "samples_step0_latents.csv", delimiter=",",
                         skiprows=1, ndmin=2)
    assert latents.shape[0] == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["options"]["chains"] == 3


def _idx_images(path, n, height, width):
    images = np.random.default_rng(0).integers(0, 256, size=(n, height, width))
    path.write_bytes(bytes([0, 0, 0x08, 3])
                     + struct.pack(">3I", n, height, width)
                     + images.astype(np.uint8).tobytes())


@pytest.mark.parametrize("height,width", [(16, 64), (28, 20)])
def test_image_shape_comes_from_the_idx_header(tmp_path, height, width):
    """Not from the square root of the row length: a 16x64 set was saved
    as 32x32 and a 28x20 set walked to CSV."""
    idx = tmp_path / "images.idx"
    _idx_images(idx, 24, height, width)
    cfg = tmp_path / "images.cfg"
    cfg.write_text(f"dataset = {idx}\nepochs = 1\nbatch_size = 8\n"
                   f"hidden_dims = 8\nlatent_dim = 2\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    header = read_checkpoint_header(run / "model.ckpt")
    assert header["data_shape"] == [height, width]
    out = tmp_path / "samples"
    assert main(["sample", "--checkpoint", str(run / "model.ckpt"),
                 "--config", str(cfg), "--n", "3", "--steps", "0",
                 "--out", str(out)]) == 0
    grid = (out / "samples_step0.pgm").read_bytes()
    assert grid.startswith(f"P5\n{3 * width + 2 * 2} {height}\n".encode())


def test_train_on_an_idx_file_with_a_zero_size_exits_one(tmp_path, capsys):
    idx = tmp_path / "images.idx"
    idx.write_bytes(bytes([0, 0, 0x08, 3]) + struct.pack(">3I", 3, 0, 5))
    cfg = tmp_path / "images.cfg"
    cfg.write_text(f"dataset = {idx}\n")
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "byte offset 8" in err


def _image_checkpoint(tmp_path, denoising=True):
    """An untrained 16x16 model: sampling cost depends only on the sizes."""
    model = GenerativeAutoencoder("vae", data_dim=256, latent_dim=4,
                                  hidden_dims=(16,), denoising=denoising,
                                  corruption_variance=0.1, init_seed=3)
    path = tmp_path / "image.ckpt"
    save_checkpoint(model, path, data_shape=(16, 16))
    return path


def test_sample_streams_the_trace_export_trace_writes(tmp_path,
                                                     save_whole_walk):
    ckpt = _image_checkpoint(tmp_path)
    out = tmp_path / "samples"
    code = main(["sample", "--checkpoint", str(ckpt), "--seed", "4", "--n", "8",
                 "--steps", "0,2,7", "--out", str(out)])
    assert code == 0
    model = load_checkpoint(ckpt)
    rng = Rng(4).derive("sample")
    z0 = sample_prior(8, PriorSpec(model.latent_dim), rng)
    trace = run_chain(model, z0, 7,
                      spec=CorruptionSpec(model.corruption_variance), rng=rng)
    save_whole_walk(trace, tmp_path / "whole.bin", denoising=True)
    assert (out / "trace.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


def test_a_walk_reads_its_checkpoint_once(tmp_path, monkeypatch):
    """All four walks open their checkpoint through one `_open`."""
    ckpt = _image_checkpoint(tmp_path)
    reads = []
    read_container = data_module._read_container

    def counted(path, kind):
        reads.append(path)
        return read_container(path, kind)

    monkeypatch.setattr(data_module, "_read_container", counted)
    code = main(["sample", "--checkpoint", str(ckpt), "--seed", "4", "--n", "4",
                 "--steps", "0,1", "--out", str(tmp_path / "out")])
    assert code == 0
    assert reads == [str(ckpt)]


def test_sample_on_a_descriptor_that_is_not_an_object_exits_one(tmp_path,
                                                                 capsys):
    ckpt = tmp_path / "list.ckpt"
    head = b"[]"
    ckpt.write_bytes(b"GAEC" + bytes([1]) + struct.pack("<I", len(head)) + head
                     + struct.pack("<Q", 0) + struct.pack("<I", 0))
    code = main(["sample", "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _rewrite_header(ckpt, edit):
    """Apply `edit` to the checkpoint's JSON header in place; the payload and
    its checksum are untouched."""
    blob = ckpt.read_bytes()
    (head_len,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9:9 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    ckpt.write_bytes(blob[:5] + struct.pack("<I", len(head)) + head
                     + blob[9 + head_len:])


def test_sample_on_a_checkpoint_with_a_bad_data_shape_exits_one(tmp_path,
                                                               capsys):
    ckpt = _image_checkpoint(tmp_path)
    _rewrite_header(ckpt, lambda h: h.update(data_shape=5))
    code = main(["sample", "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("variant", 5),
                                          ("init_seed", "abc"),
                                          ("init_seed", -1),
                                          ("init_seed", 2**64),
                                          ("denoising", "no"),
                                          ("corruption_variance", True),
                                          ("corruption_variance", "x"),
                                          ("corruption_variance", 10**400)])
def test_sample_on_a_malformed_model_descriptor_exits_one(tmp_path, capsys,
                                                          field, value):
    ckpt = _image_checkpoint(tmp_path)
    _rewrite_header(ckpt, lambda h: h["model"].update({field: value}))
    code = main(["sample", "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sample_into_a_directory_it_cannot_create_exits_one(tmp_path, capsys):
    ckpt = _image_checkpoint(tmp_path)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    code = main(["sample", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err


@pytest.mark.parametrize("subcommand", ["train", "evaluate"])
def test_a_missing_dataset_exits_one(tmp_path, capsys, subcommand):
    missing = tmp_path / "missing.idx"
    cfg = tmp_path / "images.cfg"
    cfg.write_text(f"dataset = {missing}\n")
    argv = [subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if subcommand == "evaluate":
        argv += ["--checkpoint", str(_image_checkpoint(tmp_path))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


def test_sample_holds_a_few_steps_not_the_walk(tmp_path):
    ckpt = _image_checkpoint(tmp_path)
    n, steps = 64, 60
    step_bytes = 2 * n * 256 * 8  # decoded and corrupted batch of one step
    tracemalloc.start()
    try:
        code = main(["sample", "--checkpoint", str(ckpt), "--seed", "1",
                     "--n", str(n), "--steps", f"0,{steps}",
                     "--out", str(tmp_path / "samples")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * step_bytes, f"peak {peak} bytes for {step_bytes}-byte steps"


def test_evaluate_holds_latents_not_the_walk(tmp_path):
    ckpt = _image_checkpoint(tmp_path)
    n, steps = 64, 60
    step_bytes = 2 * n * 256 * 8  # decoded and corrupted batch of one step
    images = np.random.default_rng(0).integers(0, 256, size=(n, 16, 16))
    idx = tmp_path / "images.idx"
    idx.write_bytes(bytes([0, 0, 0x08, 3]) + struct.pack(">3I", n, 16, 16)
                    + images.astype(np.uint8).tobytes())
    cfg = tmp_path / "images.cfg"
    cfg.write_text(f"dataset = {idx}\nchains = {n}\n")
    argv = ["evaluate", "--checkpoint", str(ckpt), "--seed", "1",
            "--config", str(cfg), "--out", str(tmp_path / "evaluate")]
    # An untraced first call makes the imports a fresh process makes on first
    # use (`numpy.ma` under `np.median`, `locale` under argparse), so the
    # traced call measures the walk alone, whichever tests ran before.
    assert main(argv + ["--steps", "0,1"]) == 0
    tracemalloc.start()
    try:
        code = main(argv + ["--steps", f"0,{steps}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * step_bytes, f"peak {peak} bytes for {step_bytes}-byte steps"


def test_sample_one_chain_with_train_mode_batch_norm_is_rejected(
        tmp_path, capsys):
    ckpt = _image_checkpoint(tmp_path)
    out = tmp_path / "samples"
    code = main(["sample", "--checkpoint", str(ckpt), "--n", "1",
                 "--bn-mode", "train", "--steps", "0,3", "--out", str(out)])
    assert code == 1
    assert "at least 2 rows" in capsys.readouterr().err
    assert not (out / "trace.bin").exists()


def test_sample_missing_checkpoint_fails_cleanly(tmp_path, fast_cfg, capsys):
    code = main(["sample", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--config", fast_cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# interpolate / reconstruct


def test_interpolate_grid_outputs(tmp_path, fast_cfg):
    run = _train(tmp_path, fast_cfg)
    out = tmp_path / "interp"
    code = main(["interpolate", "--checkpoint", str(run / "model.ckpt"),
                 "--seed", "2", "--config", fast_cfg, "--out", str(out),
                 "--rows", "3", "--cols", "3", "--indices", "0,1,2,3"])
    assert code == 0
    grid = np.loadtxt(out / "grid_step0_latents.csv", delimiter=",", skiprows=1)
    assert grid.shape == (9, 2)
    # The corners are encoded test rows, so the manifest lists the test data
    # next to the checkpoint, and the test mixture is told from the train one.
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    train_inputs = json.loads((run / "manifest.json").read_text())["inputs"]
    assert inputs[0] == str(run / "model.ckpt")
    assert inputs[1].endswith("split=test)")
    assert train_inputs[0].endswith("split=train)")


def test_interpolate_bad_indices_rejected(tmp_path, fast_cfg):
    run = _train(tmp_path, fast_cfg)
    code = main(["interpolate", "--checkpoint", str(run / "model.ckpt"),
                 "--config", fast_cfg, "--out", str(tmp_path / "o"),
                 "--indices", "0,1,2,100000"])
    assert code == 1


def test_interpolate_negative_index_is_usage_error(tmp_path, fast_cfg, capsys):
    run = _train(tmp_path, fast_cfg)
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--checkpoint", str(run / "model.ckpt"),
              "--config", fast_cfg, "--out", str(tmp_path / "o"),
              "--indices=-1,0,1,2"])
    assert exc.value.code == 2
    assert "argument --indices" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--rows", "--cols"])
@pytest.mark.parametrize("value", ["1", "-2"])
def test_interpolate_grid_side_below_two_is_usage_error(tmp_path, capsys,
                                                        flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--checkpoint", str(tmp_path / "none.ckpt"),
              "--out", str(tmp_path / "o"), f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n", ["-3", "0"])
def test_reconstruct_needs_at_least_one_item(tmp_path, fast_cfg, capsys, n):
    run = _train(tmp_path, fast_cfg, variant="dvae")
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--checkpoint", str(run / "model.ckpt"),
              "--config", fast_cfg, "--out", str(tmp_path / "o"), f"--n={n}"])
    assert exc.value.code == 2
    assert "argument --n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reconstruct_reports_errors_per_sample(tmp_path, fast_cfg):
    run = _train(tmp_path, fast_cfg, variant="dvae")
    out = tmp_path / "recon"
    code = main(["reconstruct", "--checkpoint", str(run / "model.ckpt"),
                 "--seed", "4", "--config", fast_cfg, "--out", str(out),
                 "--n", "8"])
    assert code == 0
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "index,corruption_sq_error,reconstruction_sq_error"
    assert len(lines) == 9


# ---------------------------------------------------------------------------
# evaluate


@pytest.mark.parametrize("variant,reference", [
    ("vae", "clean"), ("dvae", "corrupted"), ("aae", "clean"),
    ("daae", "corrupted")])
def test_evaluate_writes_report(tmp_path, fast_cfg, variant, reference):
    """Train, walk and score, for every variant: a denoising model is scored
    against encodings of corrupted rows."""
    run = _train(tmp_path, fast_cfg, variant=variant)
    out = tmp_path / "eval"
    code = main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                 "--seed", "6", "--config", fast_cfg, "--out", str(out)])
    assert code == 0
    text = (out / "report.csv").read_text()
    assert "mmd_to_encoded" in text
    assert f"# reference = {reference}" in text.splitlines()
    data_lines = [l for l in text.splitlines()
                  if l and not l.startswith("#") and not l.startswith("step")]
    assert len(data_lines) == 2  # steps 0 and 1


def test_evaluate_scores_a_denoising_walk_against_corrupted_rows(
        tmp_path, fast_cfg, monkeypatch):
    """The reference of a daae's walk encodes test rows corrupted by the
    walk's spec on the stream "evaluate-reference", and the encoder draws
    from the "evaluate" stream; a plain model's encodes clean rows."""
    seen = []
    original = cli_module.chain_diagnostics

    def diagnostics(trace, reference, *args, **kwargs):
        seen.append(reference.values)
        return original(trace, reference, *args, **kwargs)

    monkeypatch.setattr(cli_module, "chain_diagnostics", diagnostics)
    test_rows = gen_gaussian_mixture(64, seed=2, split="test").samples[:24]
    for variant, kind in (("daae", "corrupted"), ("vae", "clean")):
        run = _train(tmp_path, fast_cfg, variant=variant)
        out = tmp_path / f"eval-{variant}"
        assert main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                     "--seed", "2", "--config", fast_cfg,
                     "--out", str(out)]) == 0
        model = load_checkpoint(run / "model.ckpt")
        set_norm_mode(model, "train")
        rows = test_rows
        if kind == "corrupted":
            rows = corrupt(rows, CorruptionSpec(model.corruption_variance),
                           Rng(2).derive("evaluate-reference"))
        expected = model.chain_encode(rows, Rng(2).derive("evaluate"))
        assert np.array_equal(seen.pop(), expected)
        assert f"# reference = {kind}\n" in (out / "report.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["reference"] == kind


def test_evaluate_is_seed_deterministic(tmp_path, fast_cfg):
    run = _train(tmp_path, fast_cfg)
    outs = []
    for tag in ("e1", "e2"):
        out = tmp_path / tag
        assert main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                     "--seed", "11", "--config", fast_cfg,
                     "--out", str(out)]) == 0
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_refuses_no_more_chains_than_latent_dims(tmp_path, fast_cfg,
                                                          capsys):
    run = _train(tmp_path, fast_cfg)
    out = tmp_path / "eval"
    code = main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                 "--config", fast_cfg, "--out", str(out), "--chains", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "chains (2)" in err and "latent_dim (2)" in err
    assert not (out / "manifest.json").exists()
    assert not (out / "report.csv").exists()


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes_by_default(tmp_path, capsys):
    code = main(["oracle-check", "--out", str(tmp_path / "oc"),
                 "--chains", "2000"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    assert "FAIL" not in printed


def test_oracle_check_fails_cleanly_when_the_walk_raises(tmp_path, capsys,
                                                        monkeypatch):
    """A DomainError in check 4's decode of its 100 chains."""
    decode = OracleSystem.chain_decode

    def refuse_the_walk(self, z, rng):
        if len(z) == 100:
            raise DomainError("walk refused")
        return decode(self, z, rng)

    monkeypatch.setattr(OracleSystem, "chain_decode", refuse_the_walk)
    code = main(["oracle-check", "--out", str(tmp_path / "oc"),
                 "--chains", "100"])
    assert code == 1
    assert "error: walk refused" in capsys.readouterr().err


def _record_suite_chains(monkeypatch) -> list[int]:
    """Replace the oracle suite with one passing check; the returned list
    gets each call's `n_chains`."""
    counts = []

    def suite(seed, radius, n_chains, **kwargs):
        counts.append(n_chains)
        return [CheckResult("recorded", True, "")]

    monkeypatch.setattr(cli_module, "run_oracle_suite", suite)
    return counts


def test_oracle_check_takes_chains_from_the_flag_else_the_file(
        tmp_path, monkeypatch):
    """The flag, else the config file's `chains`, else 10000, and the
    manifest records the count the suite walked. The flag had a default
    that overrode the file, so a file's `chains` was never used."""
    counts = _record_suite_chains(monkeypatch)
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("chains = 12000\n")
    for flags, chains in (([], 10_000), (["--config", str(cfg)], 12_000),
                          (["--config", str(cfg), "--chains", "500"], 500)):
        out = tmp_path / f"oc{chains}"
        assert main(["oracle-check", *flags, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["options"]["chains"] == chains
        assert counts[-1] == chains


def test_oracle_check_has_no_tolerance_flag(tmp_path, capsys):
    """The suite owns its covariance tolerance."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--out", str(tmp_path / "oc"),
              "--tol-cov", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-cov" in capsys.readouterr().err


def test_oracle_check_flags_divergence(tmp_path, capsys):
    code = main(["oracle-check", "--out", str(tmp_path / "oc"),
                 "--chains", "500", "--spectral-radius", "1.1"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_oracle_check_rejects_a_radius_that_is_not_finite(tmp_path, capsys):
    """A usage error, like every numeric flag: exit 2 before any output."""
    for radius in ("nan", "inf", "1e400"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--out", str(tmp_path / "oc"),
                  "--chains", "500", "--spectral-radius", radius])
        assert exc.value.code == 2
        assert "argument --spectral-radius" in capsys.readouterr().err
        assert not (tmp_path / "oc").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_oracle_check_refuses_a_seed_outside_64_bits(tmp_path, capsys, seed):
    """Seeds are not taken modulo 2**64: that would give two recorded seeds
    one stream."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--out", str(tmp_path / "oc"),
              "--chains", "500", "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "oc").exists()


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sample"])  # --checkpoint is required
    assert exc.value.code == 2


def test_bad_config_file_returns_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs = tomorrow\n")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_config_flag_reads_the_file_it_names(tmp_path, capsys, monkeypatch):
    """`--config` is always a path: one under a directory named with `=` is
    read as a file, and a missing one is a ConfigError at line 0."""
    counts = _record_suite_chains(monkeypatch)
    cfg = tmp_path / "lr=0.1" / "oracle.cfg"
    cfg.parent.mkdir()
    cfg.write_text("chains = 64\n")
    assert main(["oracle-check", "--config", str(cfg),
                 "--out", str(tmp_path / "oc")]) == 0
    assert counts == [64]
    missing = str(tmp_path / "no" / "lr=0.1.cfg")
    assert main(["oracle-check", "--config", missing,
                 "--out", str(tmp_path / "oc2")]) == 1
    assert (capsys.readouterr().err ==
            f"error: line 0: config file not found: {missing!r}\n")
    assert counts == [64] and not (tmp_path / "oc2").exists()


def test_config_file_that_is_not_utf8_returns_one(tmp_path, capsys):
    bad = tmp_path / "bytes.cfg"
    bad.write_bytes(b"\xff\xfe\x00epochs = 2\n")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 0:") and str(bad) in err


def test_a_plain_walk_takes_and_records_no_corruption(tmp_path, fast_cfg,
                                                      capsys):
    """A plain model's walk does not corrupt: `sample` refuses the flag and
    walk manifests record no corruption. `reconstruct` always corrupts and
    records the variance it used."""
    ckpt = str(_train(tmp_path, fast_cfg) / "model.ckpt")
    assert main(["sample", "--checkpoint", ckpt, "--config", fast_cfg,
                 "--corruption-variance", "0.5",
                 "--out", str(tmp_path / "refused")]) == 1
    assert "--corruption-variance" in capsys.readouterr().err
    for sub, flags, corruption in (
            ("sample", [], None), ("evaluate", [], None),
            ("interpolate", [], None), ("reconstruct", [], {"variance": 0.25}),
            ("reconstruct", ["--corruption-variance", "0.5"],
             {"variance": 0.5})):
        out = tmp_path / f"{sub}-{len(flags)}"
        assert main([sub, "--checkpoint", ckpt, "--config", fast_cfg,
                     "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["corruption"] == corruption, sub


@pytest.mark.parametrize("key,value,why", [
    ("steps", "-1,2", "must be >= 0"),
    ("variant", "gan", "must be one of"),
    ("corruption_variance", "nan", "non-finite"),
    ("bn_mode", "frozen", "must be one of"),
    ("seed", "-1", "must be >= 0"),
    ("seed", str(2**64), f"< {2**64}"),
    ("epochs", "0", "must be >= 1"),
    ("batch_size", "0", "must be >= 1"),
    ("corruption_variance", "-1", "must be >= 0"),
    ("latent_dim", "0", "must be >= 1"),
    ("train_size", "0", "must be >= 1"),
    ("test_size", "-3", "must be >= 1"),
    ("mixture_components", "0", "must be >= 1"),
    ("hidden_dims", "64,0", "entries must be >= 1"),
    ("adversary_dims", "0", "entries must be >= 1"),
    ("mixture_std", "0", "must be > 0"),
    ("mixture_std", "-0.5", "must be > 0"),
    ("mixture_radius", "-1", "must be >= 0"),
    ("alpha", "0", "must be > 0"),
    ("alpha", "-1", "must be > 0"),
    ("alpha", "inf", "non-finite"),
    ("beta1", "1", "must be >= 0 and < 1"),
    ("beta1", "2", "must be >= 0 and < 1"),
    ("beta2", "1", "must be >= 0 and < 1"),
    ("beta2", "-0.5", "must be >= 0 and < 1"),
    ("epsilon", "0", "must be > 0"),
])
def test_flag_and_config_key_reject_the_same_values(tmp_path, capsys, key,
                                                     value, why):
    """A flag parses with its config key's parser: the same value fails as
    a usage error on the command line and as a ConfigError in a file.
    Config-only keys are checked in a file only."""
    flag = "--" + key.replace("_", "-")
    argv = (["train"] if key == "variant" else
            ["sample", "--checkpoint", str(tmp_path / "none.ckpt")])
    if key in ("steps", "variant", "corruption_variance", "bn_mode", "seed"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and why in err
    with pytest.raises(ConfigError) as bad:
        parse_config(f"epochs = 2\n{key} = {value}\n")
    assert bad.value.line == 2 and why in str(bad.value)


def test_walk_manifests_record_the_corruption_the_walk_used(tmp_path, fast_cfg):
    """Without the flag a walk corrupts with the checkpoint's variance, not
    the config's default, and its manifest must say so."""
    run = tmp_path / "dvae-run"
    assert main(["train", "--variant", "dvae", "--corruption-variance", "0.1",
                 "--config", fast_cfg, "--out", str(run)]) == 0
    ckpt = str(run / "model.ckpt")
    for sub, flags, variance in (("sample", [], 0.1), ("evaluate", [], 0.1),
                                 ("reconstruct", [], 0.1),
                                 ("interpolate", [], 0.1),
                                 ("sample", ["--corruption-variance", "0.3"], 0.3),
                                 ("reconstruct", ["--corruption-variance", "0.3"],
                                  0.3)):
        out = tmp_path / f"{sub}-{variance}"
        assert main([sub, "--checkpoint", ckpt, "--config", fast_cfg,
                     "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["corruption"] == {"variance": variance}


def test_a_walk_takes_its_variance_from_the_config_key(tmp_path, fast_cfg):
    """The walk's variance is the flag, else the config key, else the
    checkpoint's: a dvae trained at 0.25 walks at a config's 0.9, which
    changes the trace, and `--corruption-variance` wins over the key."""
    ckpt = str(_train(tmp_path, fast_cfg, variant="dvae") / "model.ckpt")
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(FAST + "corruption_variance = 0.9\n")
    runs = {}
    for name, cfg, flags, variance in (
            ("model", fast_cfg, [], 0.25), ("key", str(keyed), [], 0.9),
            ("flag", str(keyed), ["--corruption-variance", "0.5"], 0.5)):
        out = tmp_path / name
        assert main(["sample", "--checkpoint", ckpt, "--config", cfg,
                     "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["corruption"] == {"variance": variance}
        runs[name] = (out / "trace.bin").read_bytes()
    assert len(set(runs.values())) == 3


def test_a_plain_walk_refuses_the_config_key(tmp_path, fast_cfg, capsys):
    """A plain model's walk does not corrupt, so a config that sets
    `corruption_variance` is refused as the flag is; `reconstruct`, which
    always corrupts, takes the key."""
    ckpt = str(_train(tmp_path, fast_cfg) / "model.ckpt")
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(FAST + "corruption_variance = 0.9\n")
    for sub in ("sample", "evaluate", "interpolate"):
        assert main([sub, "--checkpoint", ckpt, "--config", str(keyed),
                     "--out", str(tmp_path / sub)]) == 1
        assert "corruption_variance" in capsys.readouterr().err
    out = tmp_path / "reconstruct"
    assert main(["reconstruct", "--checkpoint", ckpt, "--config", str(keyed),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["corruption"] == {"variance": 0.9}


@pytest.mark.parametrize("variant", ["dvae", "daae"])
def test_walk_manifests_record_the_model_that_ran(tmp_path, fast_cfg, variant):
    """A walk's manifest names the checkpoint's variant and denoising flag
    and the precision the walk ran in, which is the checkpoint's, not what a
    config file that names no variant and asks for single precision says."""
    run = _train(tmp_path, fast_cfg, variant=variant)
    walk_cfg = tmp_path / "single.cfg"
    walk_cfg.write_text(FAST + "precision = single\n")
    for sub in ("sample", "evaluate", "reconstruct", "interpolate"):
        out = tmp_path / f"{variant}-{sub}"
        assert main([sub, "--checkpoint", str(run / "model.ckpt"),
                     "--config", str(walk_cfg), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["options"]["variant"] == variant
        assert config["train"]["denoising"] is True
        assert config["options"]["precision"] == "double"


def test_walk_manifests_record_the_architecture_that_ran(tmp_path):
    """A walk without a config file records the checkpoint's latent,
    hidden and adversary sizes, not the config defaults."""
    arch = tmp_path / "arch.cfg"
    arch.write_text(FAST + "latent_dim = 3\nhidden_dims = 16,16\n"
                    "adversary_dims = 8\n")
    run = _train(tmp_path, str(arch), variant="daae")
    out = tmp_path / "samples"
    assert main(["sample", "--checkpoint", str(run / "model.ckpt"),
                 "--n", "8", "--steps", "0,1", "--out", str(out)]) == 0
    options = json.loads((out / "manifest.json").read_text())["config"]["options"]
    assert options["latent_dim"] == 3
    assert options["hidden_dims"] == [16, 16]
    assert options["adversary_dims"] == [8]


def test_single_precision_model_is_walked_in_single(tmp_path, fast_cfg,
                                                    save_whole_walk):
    """A model trained in single precision is stored, loaded and walked in
    float32, whatever the walk config's precision."""
    single = tmp_path / "single.cfg"
    single.write_text(FAST + "precision = single\n")
    ckpt = _train(tmp_path, str(single), variant="dvae") / "model.ckpt"
    model = load_checkpoint(ckpt)
    assert model.dtype == np.float32
    out = tmp_path / "samples"
    assert main(["sample", "--checkpoint", str(ckpt), "--seed", "4",
                 "--config", fast_cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["options"]["precision"] == "single"
    rng = Rng(4).derive("sample")
    z0 = sample_prior(24, PriorSpec(model.latent_dim), rng)
    trace = run_chain(model, z0, 1,
                      spec=CorruptionSpec(model.corruption_variance), rng=rng)
    save_whole_walk(trace, tmp_path / "single.bin", denoising=True)
    assert (out / "trace.bin").read_bytes() == (tmp_path / "single.bin").read_bytes()


def test_manifest_written_before_outputs(tmp_path, fast_cfg):
    """Interpolate with out-of-range corners still leaves a manifest behind."""
    run = _train(tmp_path, fast_cfg)
    out = tmp_path / "doomed"
    code = main(["interpolate", "--checkpoint", str(run / "model.ckpt"),
                 "--config", fast_cfg, "--out", str(out),
                 "--indices", "0,1,2,100000"])
    assert code == 1
    assert (out / "manifest.json").exists()
