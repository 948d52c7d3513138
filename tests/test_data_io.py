"""Datasets, binary containers, IDX parsing, image grids, CSV tables, and run
configs."""

import hashlib
import json
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentwalk import (CheckpointError, ChecksumError, ConfigError,
                        ContractViolation, CorruptionSpec, Dataset,
                        GenerativeAutoencoder, IdxFormatError, LatentBatch,
                        Rng, RunOptions, TrainConfig, VersionError,
                        encode_mean, export_trace, gen_gaussian_mixture,
                        load_arrays, load_checkpoint, load_idx, parse_config,
                        read_checkpoint_header, resolve_variant, run_chain,
                        sample_prior, save_arrays, save_checkpoint,
                        write_csv, write_image_grid)
from latentwalk.cli import main


# ---------------------------------------------------------------------------
# datasets


def test_dataset_validation():
    Dataset(np.full((4, 2), 0.5))
    with pytest.raises(ContractViolation):
        Dataset(np.zeros((0, 2)))
    with pytest.raises(ContractViolation):
        Dataset(np.zeros(4))  # 1-d
    with pytest.raises(ContractViolation):
        Dataset(np.full((4, 2), 1.5))  # out of [0,1]
    with pytest.raises(ContractViolation):
        Dataset(np.array([[np.nan, 0.5]]))


def test_mixture_shape_domain_and_balance():
    data = gen_gaussian_mixture(800, k=8, seed=0)
    assert data.samples.shape == (800, 2)
    assert data.dim == 2
    assert np.all(data.samples >= 0.0) and np.all(data.samples <= 1.0)
    # components are assigned round-robin, so all eight are populated equally
    centers = gen_gaussian_mixture(8, k=8, std=1e-12, seed=0).samples
    assert len(np.unique(np.round(centers, 6), axis=0)) == 8


def test_mixture_is_seeded_and_split_aware():
    a = gen_gaussian_mixture(64, seed=3)
    b = gen_gaussian_mixture(64, seed=3)
    assert np.array_equal(a.samples, b.samples)
    test_split = gen_gaussian_mixture(64, seed=3, split="test")
    assert not np.array_equal(a.samples, test_split.samples)
    assert test_split.split == "test"
    assert a.source.endswith("seed=3, split=train)")
    assert test_split.source.endswith("seed=3, split=test)")


def test_mixture_modes_form_a_ring():
    centers = gen_gaussian_mixture(8, k=8, std=1e-12, seed=1).samples
    radii = np.linalg.norm(centers - 0.5, axis=1)
    assert np.allclose(radii, radii[0], atol=1e-6)


# ---------------------------------------------------------------------------
# idx files


def _idx_bytes(dims, payload):
    header = bytes([0, 0, 0x08, len(dims)]) + struct.pack(f">{len(dims)}I", *dims)
    return header + bytes(payload)


def test_idx_roundtrip(tmp_path):
    path = tmp_path / "probe-images.idx"
    path.write_bytes(_idx_bytes((2, 2, 2), range(8)))
    data = load_idx(path)
    assert data.samples.shape == (2, 4)
    assert data.split == "train"
    assert np.allclose(data.samples[1] * 255.0, [4, 5, 6, 7])
    assert data.samples.max() <= 1.0


def test_idx_test_split_detected_from_name(tmp_path):
    path = tmp_path / "t10k-images.idx"
    path.write_bytes(_idx_bytes((1, 4), [0, 64, 128, 255]))
    assert load_idx(path).split == "test"


@pytest.mark.parametrize("name,split", [
    ("latest-train.idx", "train"), ("images-train.idx", "train"),
    ("images-test.idx", "test"), ("t10k-images-idx3-ubyte", "test"),
    ("mnist_test.idx", "test"), ("contest.idx", "train"),
])
def test_idx_split_is_a_whole_token_of_the_name(tmp_path, name, split):
    """`test` inside another word (`latest`, `contest`) does not make the
    test split."""
    path = tmp_path / name
    path.write_bytes(_idx_bytes((1, 4), [0, 64, 128, 255]))
    assert load_idx(path).split == split


def test_idx_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "x.idx"
    path.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(IdxFormatError) as err:
        load_idx(path)
    assert err.value.offset == 0


def test_idx_bad_type_code_offset_two(tmp_path):
    path = tmp_path / "x.idx"
    path.write_bytes(b"\x00\x00\x0e\x01" + struct.pack(">I", 1) + b"\x00")
    with pytest.raises(IdxFormatError) as err:
        load_idx(path)
    assert err.value.offset == 2


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "x.idx"
    path.write_bytes(_idx_bytes((4, 4), range(10)))  # 10 < 16
    with pytest.raises(IdxFormatError) as err:
        load_idx(path)
    assert "truncated" in str(err.value)


def test_idx_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.idx"
    path.write_bytes(_idx_bytes((1, 2), [1, 2, 3]))  # one byte too many
    with pytest.raises(IdxFormatError) as err:
        load_idx(path)
    assert "trailing" in str(err.value)


def test_idx_short_file(tmp_path):
    path = tmp_path / "x.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(IdxFormatError):
        load_idx(path)


def test_idx_image_shape_comes_from_a_3_dim_header(tmp_path):
    """A 3-dim file's rows are images of its last two sizes, square or not;
    any other rank holds no images."""
    path = tmp_path / "x.idx"
    path.write_bytes(_idx_bytes((2, 16, 64), [7] * 2 * 16 * 64))
    assert load_idx(path).image_shape == (16, 64)
    path.write_bytes(_idx_bytes((2, 16), [7] * 2 * 16))
    assert load_idx(path).image_shape is None
    assert gen_gaussian_mixture(8).image_shape is None


@pytest.mark.parametrize("dims", [(3, 0, 5), (3, 5, 0), (3, 0)])
def test_idx_zero_size_after_the_first_is_rejected_at_its_offset(tmp_path,
                                                                 dims):
    """Used to escape as a raw `ValueError` from the reshape."""
    path = tmp_path / "x.idx"
    path.write_bytes(_idx_bytes(dims, []))
    with pytest.raises(IdxFormatError) as err:
        load_idx(path)
    assert err.value.offset == 4 + 4 * dims.index(0, 1)


# ---------------------------------------------------------------------------
# image grids


def test_image_grid_golden_bytes(tmp_path):
    """One 1x2 image in a 1x1 grid: header plus the two scaled pixels."""
    path = tmp_path / "grid.pgm"
    write_image_grid(path, np.array([[0.0, 1.0]]), rows=1, cols=1,
                     height=1, width=2)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 1\n255\n")
    assert blob[-2:] == bytes([0, 255])


def test_image_grid_separator_and_layout(tmp_path):
    path = tmp_path / "grid.pgm"
    imgs = np.stack([np.zeros(4), np.ones(4)])
    write_image_grid(path, imgs, rows=1, cols=2, height=2, width=2)
    blob = path.read_bytes()
    head, payload = blob.split(b"\n255\n", 1)
    w = int(head.split()[1])
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(-1, w)
    assert set(pixels.flatten()) == {0, 128, 255}  # cells plus separator gray


def test_image_grid_rounding(tmp_path):
    path = tmp_path / "grid.pgm"
    write_image_grid(path, np.array([[0.5]]), rows=1, cols=1, height=1, width=1)
    assert path.read_bytes()[-1] == 128  # floor(0.5*255 + 0.5)


def test_image_grid_validation(tmp_path):
    with pytest.raises(ContractViolation):
        write_image_grid(tmp_path / "g.pgm", np.zeros((5, 4)), rows=2, cols=2,
                         height=2, width=2)  # 5 images > 4 cells
    with pytest.raises(ContractViolation):
        write_image_grid(tmp_path / "g.pgm", np.zeros((1, 4)), rows=1, cols=1,
                         height=3, width=3)  # 4 != 9


# ---------------------------------------------------------------------------
# tables


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "x", "x32", "loss", "ok", "name"],
              [(3, 0.1, np.float32(0.1), None, True, "a,b"),
               (np.int64(4), np.float64(2.5), np.float32(-1.5), 1e-20, False,
                "c")],
              meta=[("bandwidth", 0.25), ("n_chain", 3), ("flag", False),
                    ("reference", "clean")])
    assert path.read_bytes() == (
        b"# bandwidth = 0.25\n"
        b"# n_chain = 3\n"
        b"# flag = false\n"
        b"# reference = clean\n"
        b"n,x,x32,loss,ok,name\r\n"
        b'3,0.10000000000000001,0.10000000149011612,,true,"a,b"\r\n'
        b"4,2.5,-1.5,9.9999999999999995e-21,false,c\r\n")


# ---------------------------------------------------------------------------
# binary container


def test_array_container_roundtrip(tmp_path):
    path = tmp_path / "dump.bin"
    named = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([[-1.5]])}
    save_arrays(path, named, extra={"note": "probe"})
    loaded, extra = load_arrays(path)
    assert extra == {"note": "probe"}
    assert set(loaded) == {"a", "b"}
    assert np.array_equal(loaded["a"], named["a"])
    assert np.array_equal(loaded["b"], named["b"])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
def test_array_container_roundtrip_fuzz(tmp_path, seed, n, m):
    path = tmp_path / f"fuzz-{seed}-{n}x{m}.bin"
    arr = np.random.default_rng(seed).normal(size=(n, m))
    save_arrays(path, {"x": arr})
    loaded, _ = load_arrays(path)
    assert np.array_equal(loaded["x"], arr)


def test_container_detects_payload_corruption(tmp_path):
    path = tmp_path / "dump.bin"
    save_arrays(path, {"x": np.ones((4, 4))})
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF  # flip a payload byte, away from the crc field
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_arrays(path)


def test_container_rejects_foreign_magic(tmp_path):
    path = tmp_path / "dump.bin"
    save_arrays(path, {"x": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_container_rejects_future_version(tmp_path):
    path = tmp_path / "dump.bin"
    save_arrays(path, {"x": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[4] = 250  # version byte lives after the 4-byte magic
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        load_arrays(path)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_preserves_model(tmp_path, tiny_vae, tiny_dataset):
    from latentwalk import train_model
    train_model(tiny_vae, tiny_dataset, TrainConfig(epochs=1, batch_size=32))
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_vae, path,
                    train_config=TrainConfig(epochs=1, batch_size=32),
                    data_shape=(96, 2))
    clone = load_checkpoint(path)
    assert clone.fingerprint() == tiny_vae.fingerprint()
    assert clone.variant == "vae"
    assert clone.hidden_dims == tiny_vae.hidden_dims
    # same encodings bit for bit
    x = Rng(1).uniform((8, 2))
    assert np.array_equal(clone.chain_encode(x, Rng(2)),
                          tiny_vae.chain_encode(x, Rng(2)))


def test_checkpoint_header_echoes_run_settings(tmp_path, tiny_aae):
    path = tmp_path / "model.ckpt"
    cfg = TrainConfig(epochs=3, corruption=CorruptionSpec(0.1))
    save_checkpoint(tiny_aae, path, train_config=cfg, data_shape=(10, 2))
    header = read_checkpoint_header(path)
    assert header["kind"] == "model"
    assert header["model"]["variant"] == "aae"
    assert header["model"] == tiny_aae.arch()
    assert header["train_config"] == asdict(cfg)
    assert header["data_shape"] == [10, 2]


# The tensor names, order and shapes of two checkpoint architectures: old
# checkpoints load only while `named_arrays()` keeps this layout.
_VAE_LAYOUT = [
    ("encoder.0.weights", (4, 5)), ("encoder.0.bias", (4,)),
    ("encoder.1.gamma", (4,)), ("encoder.1.beta", (4,)),
    ("encoder.1.running_mean", (4,)), ("encoder.1.running_var", (4,)),
    ("encoder.3.weights", (3, 4)), ("encoder.3.bias", (3,)),
    ("encoder.4.gamma", (3,)), ("encoder.4.beta", (3,)),
    ("encoder.4.running_mean", (3,)), ("encoder.4.running_var", (3,)),
    ("encoder.6.weights", (4, 3)), ("encoder.6.bias", (4,)),
    ("decoder.0.weights", (4, 2)), ("decoder.0.bias", (4,)),
    ("decoder.1.gamma", (4,)), ("decoder.1.beta", (4,)),
    ("decoder.1.running_mean", (4,)), ("decoder.1.running_var", (4,)),
    ("decoder.3.weights", (3, 4)), ("decoder.3.bias", (3,)),
    ("decoder.4.gamma", (3,)), ("decoder.4.beta", (3,)),
    ("decoder.4.running_mean", (3,)), ("decoder.4.running_var", (3,)),
    ("decoder.6.weights", (5, 3)), ("decoder.6.bias", (5,))]
_AAE_LAYOUT = ([(n, (2, 3) if n == "encoder.6.weights"
                 else (2,) if n == "encoder.6.bias" else shape)
                for n, shape in _VAE_LAYOUT]
               + [("adversary.0.weights", (3, 2)), ("adversary.0.bias", (3,)),
                  ("adversary.3.weights", (2, 3)), ("adversary.3.bias", (2,)),
                  ("adversary.6.weights", (1, 2)), ("adversary.6.bias", (1,))])


@pytest.mark.parametrize("variant,layout", [("vae", _VAE_LAYOUT),
                                            ("aae", _AAE_LAYOUT)])
def test_checkpoint_tensor_layout_is_pinned(variant, layout):
    model = GenerativeAutoencoder(variant, data_dim=5, latent_dim=2,
                                  hidden_dims=(4, 3), adversary_dims=(3, 2),
                                  init_seed=1)
    assert [(n, a.shape) for n, a in model.named_arrays()] == layout


@pytest.mark.parametrize("model,digest", [
    (dict(variant="aae", data_dim=6, latent_dim=2, hidden_dims=(5, 4),
          adversary_dims=(3,), denoising=True, init_seed=3),
     "26da2956b15d259e1198433b1a714c2cee94d6e5a70e601f7d6f49ceabd7cbfa"),
    (dict(variant="vae", data_dim=6, latent_dim=2, hidden_dims=(5,),
          init_seed=4, dtype=np.float32),
     "ab1a36cb9ae4ab16b128d64322b9343f6de4f7391aa92abf7d433eb25090cb08"),
], ids=["float64-daae", "float32-vae"])
def test_fresh_checkpoint_bytes_are_pinned(tmp_path, model, digest):
    """Init draws are elementwise, so these bytes do not depend on the BLAS."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(GenerativeAutoencoder(**model), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _edit_model_entry(path, edit):
    """Apply `edit` to a checkpoint header's `model` entry in place; the
    payload and its CRC stay as they were."""
    blob = path.read_bytes()
    (head_len,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9:9 + head_len])
    edit(header["model"])
    head = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:5] + struct.pack("<I", len(head)) + head
                     + blob[9 + head_len:])


def test_checkpoint_without_a_dtype_loads_in_double(tmp_path, tiny_aae):
    """Checkpoints written before the header named a dtype held float64
    models."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_aae, path)
    _edit_model_entry(path, lambda m: m.pop("dtype"))
    clone = load_checkpoint(path)
    assert clone.dtype == np.float64
    for (name, a), (_, b) in zip(clone.named_arrays(), tiny_aae.named_arrays()):
        assert a.dtype == np.float64 and np.array_equal(a, b), name


@pytest.mark.parametrize("entry", [{"width": 3}, {"dtype": "float3"},
                                   {"dtype": "float16"}, {"dtype": 32}],
                         ids=["unknown-key", "unreadable-dtype",
                              "unsupported-dtype", "dtype-not-a-name"])
def test_checkpoint_with_a_foreign_model_entry_is_rejected(tmp_path, tiny_vae,
                                                           entry):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_vae, path)
    _edit_model_entry(path, lambda m: m.update(entry))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_kind_enforced(tmp_path):
    path = tmp_path / "arrays.bin"
    save_arrays(path, {"x": np.ones(2)})
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_export_trace_layout(tmp_path, tiny_vae):
    z0 = sample_prior(6, tiny_vae.prior, Rng(3))
    for spec in (None, CorruptionSpec(0.1)):
        path = tmp_path / "trace.bin"
        trace = export_trace(tiny_vae, z0, 2, spec=spec, rng=Rng(4), path=path)
        arrays, extra = load_arrays(path)
        # steps are numbered from 1, as ChainStep.t numbers them
        names = {"z0", "step0001.x", "step0001.z", "step0002.x", "step0002.z"}
        if spec is not None:
            names |= {"step0001.x_tilde", "step0002.x_tilde"}
        assert set(arrays) == names
        assert extra == {"denoising": spec is not None, "steps": 2}
        assert np.array_equal(arrays["z0"], trace.z0.values)
        assert np.array_equal(arrays["step0002.z"], trace.steps[1].z.values)


def test_export_trace_streams_a_chain_as_a_finished_trace(tmp_path, tiny_vae,
                                                         save_whole_walk):
    z0 = sample_prior(6, tiny_vae.prior, Rng(3))
    spec = CorruptionSpec(0.1)
    save_whole_walk(run_chain(tiny_vae, z0, steps=5, spec=spec, rng=Rng(4)),
                    tmp_path / "whole.bin", denoising=True)
    trace = export_trace(tiny_vae, z0, 5, spec=spec, rng=Rng(4), keep=(5,),
                         path=tmp_path / "streamed.bin")
    assert ((tmp_path / "streamed.bin").read_bytes()
            == (tmp_path / "whole.bin").read_bytes())
    assert [step.t for step in trace.steps] == [5]


class _FailsAtDecode:
    """A model that raises on its `fail_at`-th decode."""

    def __init__(self, model, fail_at):
        self.model = model
        self.latent_dim = model.latent_dim
        self.data_dim = model.data_dim
        self.decodes = 0
        self.fail_at = fail_at

    def chain_decode(self, z, rng):
        self.decodes += 1
        if self.decodes == self.fail_at:
            raise ContractViolation("decoder failed mid-chain")
        return self.model.chain_decode(z, rng)

    def chain_encode(self, x, rng):
        return self.model.chain_encode(x, rng)


def test_chain_failing_mid_walk_leaves_no_readable_trace(tmp_path, tiny_vae):
    path = tmp_path / "trace.bin"
    model = _FailsAtDecode(tiny_vae, fail_at=3)
    z0 = sample_prior(4, tiny_vae.prior, Rng(7))
    with pytest.raises(ContractViolation):
        export_trace(model, z0, 5, rng=Rng(8), path=path)
    assert model.decodes == 3
    if path.exists():
        with pytest.raises(CheckpointError):
            load_arrays(path)


def test_container_rejects_truncated_payload(tmp_path):
    path = tmp_path / "dump.bin"
    save_arrays(path, {"x": np.ones((4, 4))})
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(CheckpointError):
        load_arrays(path)


def test_save_arrays_refuses_to_write_past_its_header(tmp_path):
    from latentwalk.data import _ContainerWriter
    path = tmp_path / "dump.bin"
    with pytest.raises(ContractViolation):
        with _ContainerWriter(path, "arrays", [("x", (2,))], {}) as writer:
            writer.write(np.ones(3))
    assert not path.exists()


def _write_container(path, descriptor, payload):
    """A container around any JSON descriptor, with true framing and CRC."""
    head = json.dumps(descriptor).encode()
    path.write_bytes(b"GAEC" + bytes([1]) + struct.pack("<I", len(head)) + head
                     + struct.pack("<Q", len(payload)) + payload
                     + struct.pack("<I", zlib.crc32(payload)))


@pytest.mark.parametrize("descriptor,payload", [
    ([], b""),
    ({"kind": "arrays", "tensors": [{"shape": [1]}]}, bytes(8)),
    ({"kind": "arrays", "tensors": [{"name": "x", "shape": [-1, -1]}]},
     bytes(8)),
    ({"kind": "arrays", "tensors": [{"name": "x", "shape": [1]},
                                    {"name": "x", "shape": [1]}]}, bytes(16)),
    ({"kind": "arrays", "tensors": [], "extra": 5}, b""),
    ({"kind": "model", "tensors": [], "model": 5}, b""),
    ({"kind": "model", "tensors": [], "model": {}, "train_config": 5}, b""),
    ({"kind": "model", "tensors": [], "model": {}, "data_shape": 5}, b""),
    ({"kind": "model", "tensors": [], "model": {}, "data_shape": [28]}, b""),
    ({"kind": "model", "tensors": [], "model": {}, "data_shape": [0, 28]},
     b""),
    ({"kind": "model", "tensors": [], "model": {},
      "data_shape": ["28", 28]}, b""),
], ids=["not-an-object", "nameless-tensor", "negative-dimension",
        "duplicate-name", "extra-not-an-object", "model-not-an-object",
        "train-config-not-an-object", "data-shape-not-a-list",
        "data-shape-of-one-size", "data-shape-of-a-zero-size",
        "data-shape-of-a-string"])
def test_container_rejects_a_malformed_descriptor(tmp_path, descriptor,
                                                  payload):
    """Every reader refuses a descriptor that frames a payload of the right
    length but does not name each tensor once with a real shape, or whose
    metadata is not of its kind's types."""
    path = tmp_path / "dump.bin"
    _write_container(path, descriptor, payload)
    for read in (load_arrays, load_checkpoint, read_checkpoint_header):
        with pytest.raises(CheckpointError):
            read(path)


# ---------------------------------------------------------------------------
# variants and config files


def test_resolve_variant_table():
    assert resolve_variant("vae") == ("vae", False)
    assert resolve_variant("dvae") == ("vae", True)
    assert resolve_variant("aae") == ("aae", False)
    assert resolve_variant("daae") == ("aae", True)
    with pytest.raises(ContractViolation):
        resolve_variant("gan")


def test_parse_config_empty_gives_defaults():
    cfg, opts = parse_config("")
    assert cfg == TrainConfig()
    assert opts == RunOptions()


def test_parse_config_inline_text():
    cfg, opts = parse_config("""
    # comment line
    epochs = 5
    variant = daae
    steps = 0,1,5
    mixture_std = 0.1
    """)
    assert cfg.epochs == 5
    assert cfg.denoising is True  # derived from the variant name
    assert opts.variant == "daae"
    assert opts.steps == (0, 1, 5)
    assert opts.mixture_std == 0.1


def test_parse_config_overrides_win_over_the_text():
    cfg, opts = parse_config("variant = vae\ncorruption_variance = 0.5\n"
                             "epochs = 5\n",
                             {"variant": "daae", "corruption_variance": 0.1,
                              "steps": (0, 3)})
    assert cfg.epochs == 5
    assert cfg.denoising is True and cfg.corruption.variance == 0.1
    assert opts.variant == "daae" and opts.steps == (0, 3)
    with pytest.raises(ContractViolation):
        parse_config("", {"n": 3})


def test_parse_config_from_file(tmp_path):
    """A file's text, read by the caller (the CLI reads `--config`)."""
    path = tmp_path / "run.cfg"
    path.write_text("batch_size = 16\nchains = 123\n")
    cfg, opts = parse_config(path.read_text())
    assert cfg.batch_size == 16
    assert opts.chains == 123


def test_parse_config_reads_a_str_path_under_a_directory_named_with_equals(
        tmp_path):
    """A config file under a directory named with `=` is read by its caller
    and its text parsed; the path itself, passed as the text, is not taken
    for a file or for an empty config but refused at line 1."""
    path = tmp_path / "lr=0.1" / "fast.cfg"
    path.parent.mkdir()
    path.write_text("epochs = 3\n")
    cfg, _ = parse_config(path.read_text())
    assert cfg.epochs == 3
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert err.value.line == 1


def test_parse_config_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = 5\nnot_a_key = 1\n")
    assert err.value.line == 2


def test_parse_config_bad_value_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = soon\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config("\nalpha = fast\n")
    assert err.value.line == 2


def test_parse_config_bad_choice():
    with pytest.raises(ConfigError):
        parse_config("bn_mode = frozen\n")
    with pytest.raises(ConfigError):
        parse_config("variant = gan\n")


def test_parse_config_missing_file(tmp_path, capsys):
    """parse_config reads no file, so a missing one named as the text is a
    ConfigError; the CLI, which reads `--config`, reports it at line 0."""
    with pytest.raises(ConfigError):
        parse_config("no/such/file.cfg")
    missing = str(tmp_path / "no" / "such" / "file.cfg")
    assert main(["train", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 1
    assert (capsys.readouterr().err ==
            f"error: line 0: config file not found: {missing!r}\n")
    assert not (tmp_path / "o").exists()


def test_parse_config_takes_one_line_of_text_and_reports_a_mistyped_path():
    """Config text needs no final newline, and a path passed as the text is
    never an empty config: it is a ConfigError at line 1."""
    cfg, _ = parse_config("epochs = 5")
    assert cfg.epochs == 5
    for source, why in (("no/lr=0.1/x.cfg", "unknown key 'no/lr'"),
                        ("no/such/file.cfg", "expected `key = value`")):
        with pytest.raises(ConfigError) as err:
            parse_config(source)
        assert err.value.line == 1 and why in str(err.value)


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError) as err:
        parse_config("epochs = 5\njust some words\n")
    assert err.value.line == 2
