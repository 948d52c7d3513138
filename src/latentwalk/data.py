"""Datasets, image grids, checkpoints, array dumps, and run configuration.

One binary container format (magic ``GAEC``, version byte, JSON descriptor,
little-endian float64 payload, CRC-32 trailer) backs both model checkpoints
and trace/array dumps, so round-trips are bit-exact and corruption is caught
by checksum rather than by downstream weirdness. One streaming writer
produces every container, so a chain is written step by step as it runs.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .chain import Chain, ChainStep, ChainTrace
from .errors import (CheckpointError, ChecksumError, ConfigError,
                     ContractViolation, IdxFormatError, VersionError)
from .models import VARIANT_NAMES, GenerativeAutoencoder, resolve_variant
from .objectives import (RECONSTRUCTION_LOSSES, CorruptionSpec, TrainConfig)
from .rng import Rng

_MAGIC = b"GAEC"
_VERSION = 1
_IDX_UBYTE = 0x08


# -- datasets ---------------------------------------------------------------------


@dataclass
class Dataset:
    """Rows of [0,1]-valued samples plus provenance."""

    samples: np.ndarray
    split: str = "train"
    source: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ContractViolation(
                f"dataset must be a non-empty (n, a) array, got {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ContractViolation("dataset contains non-finite values")
        if np.any(self.samples < 0.0) or np.any(self.samples > 1.0):
            raise ContractViolation("dataset values must lie in [0,1]")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def gen_gaussian_mixture(n: int, k: int = 8, radius: float = 1.0,
                         std: float = 0.05, seed: int = 0,
                         split: str = "train") -> Dataset:
    """2-D mixture with components evenly spaced on a circle.

    Membership is balanced (counts differ by at most one) and the layout is
    affinely rescaled into [0.05, 0.95]^2; stray tail samples are clipped into
    [0,1].
    """
    if n < 1 or k < 1:
        raise ContractViolation("n and k must be >= 1")
    if std <= 0 or radius < 0:
        raise ContractViolation("std must be > 0 and radius >= 0")
    angles = 2.0 * np.pi * np.arange(k) / k
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = Rng(seed).derive(f"mixture-{split}")
    members = np.arange(n) % k
    raw = means[members] + std * rng.normal((n, 2))
    half_extent = radius + 4.0 * std
    mapped = 0.5 + 0.45 * raw / half_extent
    np.clip(mapped, 0.0, 1.0, out=mapped)
    return Dataset(mapped, split=split,
                   source=f"mixture(k={k}, radius={radius}, std={std}, "
                          f"n={n}, seed={seed})")


def load_idx(path: str | Path) -> Dataset:
    """Parse a big-endian IDX file of unsigned bytes into rows scaled to [0,1]."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 4:
        raise IdxFormatError("file too short for a magic number", 0)
    if blob[0] != 0 or blob[1] != 0:
        raise IdxFormatError(f"bad magic prefix {blob[0]:#04x}{blob[1]:02x}", 0)
    type_code, ndim = blob[2], blob[3]
    if type_code != _IDX_UBYTE:
        raise IdxFormatError(f"unsupported type code {type_code:#04x}", 2)
    if ndim < 1:
        raise IdxFormatError("dimension count must be >= 1", 3)
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise IdxFormatError("header truncated before dimension sizes", len(blob))
    dims = struct.unpack(f">{ndim}I", blob[4:header_len])
    expected = int(np.prod(dims, dtype=np.int64))
    actual = len(blob) - header_len
    if actual < expected:
        raise IdxFormatError(
            f"payload truncated: expected {expected} bytes, found {actual}",
            len(blob))
    if actual > expected:
        raise IdxFormatError(
            f"trailing data: expected {expected} payload bytes, found {actual}",
            header_len + expected)
    data = np.frombuffer(blob, dtype=np.uint8, offset=header_len)
    n = dims[0]
    per_row = expected // n if n else 0
    samples = data.astype(np.float64).reshape(n, max(per_row, 1)) / 255.0
    name = path.name.lower()
    split = "test" if ("t10k" in name or "test" in name) else "train"
    return Dataset(samples, split=split, source=str(path))


# -- image grids --------------------------------------------------------------------


def write_image_grid(path: str | Path, images: np.ndarray, rows: int, cols: int,
                     height: int, width: int) -> None:
    """Render rows*cols images into one 8-bit binary PGM (P5) file.

    Values are clamped to [0,1] and rounded to bytes; cells are separated by
    2-pixel gutters at intensity 128, which also fills unused trailing cells.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] > rows * cols:
        raise ContractViolation(
            f"need at most {rows * cols} images as 2-d rows, got {images.shape}"
        )
    if images.shape[1] != height * width:
        raise ContractViolation(
            f"each image row must hold {height}x{width}={height * width} values, "
            f"got {images.shape[1]}"
        )
    if rows < 1 or cols < 1:
        raise ContractViolation("grid must be at least 1x1")
    as_bytes = np.floor(np.clip(images, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    sep = 2
    grid_h = rows * height + (rows - 1) * sep
    grid_w = cols * width + (cols - 1) * sep
    canvas = np.full((grid_h, grid_w), 128, dtype=np.uint8)
    for i in range(min(images.shape[0], rows * cols)):
        r, c = divmod(i, cols)
        top = r * (height + sep)
        left = c * (width + sep)
        canvas[top:top + height, left:left + width] = \
            as_bytes[i].reshape(height, width)
    header = f"P5\n{grid_w} {grid_h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + canvas.tobytes())


# -- binary container (checkpoints and array dumps) -----------------------------------


class _ContainerWriter:
    """Streams one container to disk.

    The header lists every tensor's shape, so it and the payload length are
    written first; each tensor's buffer then goes straight to the file as it
    arrives, with the CRC carried along, and `close` appends the CRC. A
    writer left by an exception removes its partial file.
    """

    def __init__(self, path: str | Path, header: dict):
        self.path = Path(path)
        self._shapes = [tuple(spec["shape"]) for spec in header["tensors"]]
        payload_len = 8 * sum(int(np.prod(s, dtype=np.int64)) for s in self._shapes)
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        self._crc = 0
        self._written = 0
        self._fh = open(self.path, "wb")
        self._fh.write(_MAGIC)
        self._fh.write(bytes([_VERSION]))
        self._fh.write(struct.pack("<I", len(head)))
        self._fh.write(head)
        self._fh.write(struct.pack("<Q", payload_len))

    def write(self, array: np.ndarray) -> None:
        """Append the next tensor the header lists."""
        i = self._written
        if i == len(self._shapes) or np.shape(array) != self._shapes[i]:
            want = self._shapes[i] if i < len(self._shapes) else "nothing"
            raise ContractViolation(
                f"{self.path}: tensor {i} has shape {np.shape(array)}, "
                f"the header lists {want}")
        buf = np.ascontiguousarray(array, dtype="<f8")
        self._fh.write(buf)
        self._crc = zlib.crc32(buf, self._crc)
        self._written += 1

    def close(self) -> None:
        if self._written != len(self._shapes):
            raise ContractViolation(
                f"{self.path}: {self._written} of {len(self._shapes)} tensors "
                f"written")
        self._fh.write(struct.pack("<I", self._crc))
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()
            self.path.unlink(missing_ok=True)
        return False


_READ_CHUNK = 1 << 20


def _read_container(path: str | Path) -> tuple[dict, list[tuple[tuple, int]]]:
    """The descriptor and each tensor's (shape, file offset), after checking
    the framing and the payload CRC in one pass over fixed-size chunks."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read container ({exc})") from exc
    with fh:
        prefix = fh.read(9)
        if len(prefix) < 9 or prefix[:4] != _MAGIC:
            raise CheckpointError(f"{path}: not a recognized container file")
        if prefix[4] != _VERSION:
            raise VersionError(f"{path}: unknown format version {prefix[4]}")
        (head_len,) = struct.unpack("<I", prefix[5:9])
        head = fh.read(head_len)
        length = fh.read(8)
        if len(head) < head_len or len(length) < 8:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(head.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable descriptor ({exc})") from None
        (payload_len,) = struct.unpack("<Q", length)
        crc = 0
        remaining = payload_len
        while remaining:
            chunk = fh.read(min(remaining, _READ_CHUNK))
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
        trailer = fh.read(4)
    if remaining or len(trailer) < 4:
        raise CheckpointError(f"{path}: truncated payload")
    if struct.unpack("<I", trailer)[0] != crc:
        raise ChecksumError(f"{path}: payload checksum mismatch")
    tensors = []
    offset = 9 + head_len + 8
    try:
        for spec in header.get("tensors", []):
            shape = tuple(int(d) for d in spec["shape"])
            tensors.append((shape, offset))
            offset += 8 * int(np.prod(shape, dtype=np.int64))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed tensor list ({exc})") from None
    if offset != 9 + head_len + 8 + payload_len:
        raise CheckpointError(
            f"{path}: payload length {payload_len} does not match descriptor "
            f"({offset - 9 - head_len - 8} bytes expected)")
    return header, tensors


def _read_tensor(path: str | Path, shape: tuple, offset: int) -> np.ndarray:
    count = int(np.prod(shape, dtype=np.int64))
    arr = np.fromfile(path, dtype="<f8", count=count, offset=offset)
    if arr.size != count:
        raise CheckpointError(f"{path}: truncated payload")
    return arr.astype(np.float64, copy=False).reshape(shape)


class _ArrayDump(Mapping):
    """The named tensors of a checked array dump. A lookup reads its tensor
    from the file, so a reader walking a long trace holds one array at a time."""

    def __init__(self, path: str | Path, index: dict[str, tuple[tuple, int]]):
        self._path = path
        self._index = index

    def __getitem__(self, name: str) -> np.ndarray:
        return _read_tensor(self._path, *self._index[name])

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def save_arrays(path: str | Path, named: dict[str, np.ndarray],
                extra: dict | None = None) -> None:
    """Dump named float arrays; order preserved, metadata in `extra`."""
    header = {
        "kind": "arrays",
        "tensors": [{"name": k, "shape": list(np.asarray(v).shape)}
                    for k, v in named.items()],
        "extra": extra or {},
    }
    with _ContainerWriter(path, header) as writer:
        for v in named.values():
            writer.write(v)


def load_arrays(path: str | Path) -> tuple[Mapping[str, np.ndarray], dict]:
    """Named arrays and metadata of an array dump, CRC checked. The arrays are
    read from the file as they are looked up."""
    header, tensors = _read_container(path)
    if header.get("kind") != "arrays":
        raise CheckpointError(f"{path}: container is not an array dump")
    index = {spec["name"]: t for spec, t in zip(header["tensors"], tensors)}
    return _ArrayDump(path, index), header.get("extra", {})


class _TraceWriter(_ContainerWriter):
    """An array dump of a chain: z0, then each step's decoded, corrupted (for
    denoising chains) and latent batches. Called with each step in order, it
    is a `run_chain` sink."""

    def __init__(self, path: str | Path, chain: Chain):
        n, b = chain.z0.values.shape
        a = int(chain.model.data_dim)
        denoising = chain.spec is not None
        tensors = [{"name": "z0", "shape": [n, b]}]
        for t in range(1, chain.steps + 1):
            tensors.append({"name": f"step{t:04d}.x", "shape": [n, a]})
            if denoising:
                tensors.append({"name": f"step{t:04d}.x_tilde", "shape": [n, a]})
            tensors.append({"name": f"step{t:04d}.z", "shape": [n, b]})
        super().__init__(path, {
            "kind": "arrays",
            "tensors": tensors,
            "extra": {"denoising": denoising, "steps": chain.steps},
        })
        self._denoising = denoising
        self._t = 0
        self.write(chain.z0.values)

    def __call__(self, step: ChainStep) -> None:
        if step.t != self._t + 1:
            raise ContractViolation(
                f"{self.path}: got step {step.t} after step {self._t}")
        self._t = step.t
        self.write(step.x)
        if self._denoising:
            self.write(step.x_tilde)
        self.write(step.z.values)


def export_trace(chain: Chain, path: str | Path) -> ChainTrace:
    """Run `chain` and persist it: z0 plus per-step decoded, corrupted (when
    the chain has a corruption spec) and latent arrays.

    The open file is the walk's sink, so each step is written as it is made
    and only the steps the chain keeps stay in memory. Returns the trace.
    """
    with _TraceWriter(path, chain) as writer:
        return chain.run(sink=writer)


# -- checkpoints ---------------------------------------------------------------------


def save_checkpoint(model: GenerativeAutoencoder, path: str | Path,
                    train_config: TrainConfig | None = None,
                    data_shape: tuple[int, int] | None = None) -> None:
    """Write the model (`arch()`, parameters, running stats) plus optional
    training-config echo and source image shape."""
    named = list(model.named_arrays())
    header = {
        "kind": "model",
        "model": model.arch(),
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in named],
        "train_config": asdict(train_config) if train_config else None,
        "data_shape": list(data_shape) if data_shape is not None else None,
    }
    with _ContainerWriter(path, header) as writer:
        for _, a in named:
            writer.write(a)


def read_checkpoint_header(path: str | Path) -> dict:
    header, _ = _read_container(path)
    if header.get("kind") != "model":
        raise CheckpointError(f"{path}: container is not a model checkpoint")
    return header


def load_checkpoint(path: str | Path, with_header: bool = False):
    """Reconstruct the model in its stored dtype (float64 when the header
    names none); every parameter and running stat is bit-exact. With
    `with_header`, returns (model, header) from the one read of the file."""
    header, tensors = _read_container(path)
    if header.get("kind") != "model":
        raise CheckpointError(f"{path}: container is not a model checkpoint")
    try:
        model = GenerativeAutoencoder(**header["model"])
    except (KeyError, TypeError, ContractViolation) as exc:
        raise CheckpointError(f"{path}: malformed model descriptor ({exc})") from None
    named = list(model.named_arrays())
    specs = header.get("tensors", [])
    if len(named) != len(specs):
        raise CheckpointError(
            f"{path}: descriptor lists {len(specs)} tensors, "
            f"model expects {len(named)}")
    for (name, target), spec, tensor in zip(named, specs, tensors):
        if spec["name"] != name or tuple(spec["shape"]) != target.shape:
            raise CheckpointError(
                f"{path}: tensor {spec['name']} does not match "
                f"expected {name} with shape {target.shape}")
        target[...] = _read_tensor(path, *tensor)
    return (model, header) if with_header else model


# -- run configuration ----------------------------------------------------------------

@dataclass
class RunOptions:
    """Workflow-level settings that are not part of the training objective."""

    variant: str = "vae"
    latent_dim: int | None = None
    hidden_dims: tuple[int, ...] = (64, 64)
    adversary_dims: tuple[int, ...] = (64, 64)
    dataset: str = "mixture"
    dataset_test: str | None = None
    mixture_components: int = 8
    mixture_radius: float = 1.0
    mixture_std: float = 0.05
    train_size: int = 4096
    test_size: int = 1024
    chains: int = 500
    steps: tuple[int, ...] = (0, 1, 5, 10)
    bn_mode: str = "train"
    precision: str = "double"


def _parse_int(v: str) -> int:
    return int(v, 10)


def _parse_float(v: str) -> float:
    out = float(v)
    if not np.isfinite(out):
        raise ValueError("non-finite value")
    return out


def _parse_count(v: str) -> int:
    out = int(v, 10)
    if out < 1:
        raise ValueError("must be >= 1")
    return out


def _parse_variance(v: str) -> float:
    out = _parse_float(v)
    if out < 0:
        raise ValueError("must be >= 0")
    return out


def _parse_positive(v: str) -> float:
    out = _parse_float(v)
    if out <= 0:
        raise ValueError("must be > 0")
    return out


def _parse_int_list(v: str, low: int = 0) -> tuple[int, ...]:
    items = tuple(int(p.strip(), 10) for p in v.split(",") if p.strip())
    if not items:
        raise ValueError("empty list")
    if any(i < low for i in items):
        raise ValueError(f"entries must be >= {low}")
    return items


def _parse_choice(options):
    def parse(v: str) -> str:
        v = v.lower()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    parse.choices = options
    return parse


_CONFIG_KEYS = {
    # training objective
    "epochs": _parse_count,
    "batch_size": _parse_count,
    "alpha": _parse_float,
    "beta1": _parse_float,
    "beta2": _parse_float,
    "epsilon": _parse_float,
    "seed": _parse_int,
    "corruption_variance": _parse_variance,
    "reconstruction_loss": _parse_choice(RECONSTRUCTION_LOSSES),
    # run options
    "variant": _parse_choice(VARIANT_NAMES),
    "latent_dim": _parse_count,
    "hidden_dims": partial(_parse_int_list, low=1),
    "adversary_dims": partial(_parse_int_list, low=1),
    "dataset": str,
    "dataset_test": str,
    "mixture_components": _parse_count,
    "mixture_radius": _parse_variance,
    "mixture_std": _parse_positive,
    "train_size": _parse_count,
    "test_size": _parse_count,
    "chains": _parse_count,
    "steps": _parse_int_list,
    "bn_mode": _parse_choice(("train", "eval")),
    "precision": _parse_choice(("double", "single")),
}

_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig)
                    if f.name in _CONFIG_KEYS)


def parse_config(source: str | Path, overrides: Mapping | None = None
                 ) -> tuple[TrainConfig, RunOptions]:
    """Parse `key = value` config text (a path to it, or the text itself).

    Omitted keys keep their defaults (20 epochs; Adam 2e-4/0.5/0.999;
    corruption variance 0.25). Unknown keys and bad values raise with the
    1-based line number. `overrides` maps config keys to values already
    parsed by the key's parser in `_CONFIG_KEYS`; they win over the text.
    """
    if isinstance(source, str) and (not source.strip() or "=" in source
                                    or "\n" in source):
        text = source
    elif Path(source).is_file():
        text = Path(source).read_text()
    else:
        raise ConfigError(f"config file not found: {str(source)!r}", 0)

    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", lineno)
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(_CONFIG_KEYS))
    if unknown:
        raise ContractViolation(f"unknown config keys {unknown}")
    values.update(overrides)

    variant = values.get("variant", "vae")
    _, denoising = resolve_variant(variant)
    cfg = TrainConfig(
        denoising=denoising,
        corruption=CorruptionSpec(values.get("corruption_variance", 0.25)),
        **{k: values[k] for k in _TRAIN_KEYS if k in values},
    )
    opts = RunOptions(**{f.name: values[f.name] for f in fields(RunOptions)
                         if f.name in values})
    return cfg, opts
