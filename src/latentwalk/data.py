"""Datasets, image grids, CSV tables, checkpoints, array dumps, and run
configuration.

One binary container format (magic ``GAEC``, version byte, JSON descriptor,
little-endian float64 payload, CRC-32 trailer) backs both model checkpoints
and trace/array dumps, so round-trips are bit-exact and corruption is caught
by checksum rather than by downstream weirdness. One streaming writer
produces every container, so a chain is written step by step as it runs.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .chain import ChainStep, ChainTrace, LatentBatch, run_chain
from .errors import (CheckpointError, ChecksumError, ConfigError,
                     ContractViolation, IdxFormatError, LatentWalkError,
                     VersionError)
from .models import (VARIANT_NAMES, CorruptionSpec, GenerativeAutoencoder,
                     resolve_variant)
from .objectives import RECONSTRUCTION_LOSSES, EpochStats, TrainConfig
from .rng import Rng

_MAGIC = b"GAEC"
_VERSION = 1
_IDX_UBYTE = 0x08


# -- datasets ---------------------------------------------------------------------


@dataclass
class Dataset:
    """Rows of [0,1]-valued samples plus provenance; `image_shape` is
    (height, width) when each row is an image, else None."""

    samples: np.ndarray
    split: str = "train"
    source: str = ""
    image_shape: tuple[int, int] | None = None

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
                          f"n={n}, seed={seed}, split={split})")


def load_idx(path: str | Path) -> Dataset:
    """Parse a big-endian IDX file of unsigned bytes into rows scaled to [0,1];
    a 3-dim file's rows are images of its last two sizes. The split is
    `test` when `test` or `t10k` is a whole alphanumeric token of the name."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise LatentWalkError(f"{path}: cannot read IDX file "
                              f"({exc.strerror or exc})") from None
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
    for i in range(1, ndim):
        if dims[i] == 0:
            raise IdxFormatError(f"dimension {i} has size 0", 4 + 4 * i)
    expected = math.prod(dims)
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
    samples = data.astype(np.float64).reshape(dims[0], math.prod(dims[1:])) / 255.0
    tokens = set(re.split(r"[^a-z0-9]+", path.name.lower()))
    split = "test" if tokens & {"test", "t10k"} else "train"
    return Dataset(samples, split=split, source=str(path),
                   image_shape=dims[1:] if ndim == 3 else None)


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


# -- tables ---------------------------------------------------------------------------


def _cell(v):
    """A float (NumPy's too) with 17 significant digits, None as an empty
    cell, a bool as true/false; anything else as is."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return "" if v is None else v


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable],
              meta: Iterable[tuple[str, object]] = ()) -> None:
    """The one table writer: a `# key = value` line (LF) per `meta` pair,
    then the header and the rows as CSV lines (CRLF), each cell by `_cell`."""
    with open(path, "w", newline="") as fh:
        for key, value in meta:
            fh.write(f"# {key} = {_cell(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_loss_log(path: str | Path, stats: list[EpochStats]) -> None:
    """One row per epoch; loss fields the variant does not have stay empty."""
    write_csv(path, [f.name for f in fields(EpochStats)],
              (astuple(s) for s in stats))


# -- binary container (checkpoints and array dumps) -----------------------------------


class _ContainerWriter:
    """Streams one container to disk.

    The header (the kind, each tensor's name and shape, the kind's metadata)
    and the payload length are written first; each tensor's buffer then goes
    straight to the file as it arrives, with the CRC carried along, and
    `close` appends the CRC. A writer left by an exception removes its file.
    """

    def __init__(self, path: str | Path, kind: str,
                 tensors: list[tuple[str, tuple]], metadata: dict):
        self.path = Path(path)
        self._shapes = [tuple(shape) for _, shape in tensors]
        payload_len = 8 * sum(int(np.prod(s, dtype=np.int64)) for s in self._shapes)
        header = {"kind": kind, **metadata, "tensors": [
            {"name": name, "shape": list(shape)} for name, shape in tensors]}
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


def _read_container(path: str | Path, kind: str
                    ) -> tuple[dict, dict[str, tuple[tuple, int]]]:
    """The descriptor of a container of `kind` and {name: (shape, file
    offset)} of its tensors, in file order; any fault is a CheckpointError.

    The one reader of every container and the one check of its descriptor:
    a JSON object of `kind` whose `tensors` are objects with unique string
    names and shapes of non-negative integers, framing a payload of the
    length they add up to, with its CRC checked in fixed-size chunks. An
    array dump's `extra` is an object; a model's `model` is an object, its
    `train_config` an object or null and its `data_shape` null or two
    positive sizes.
    """
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
    specs = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(specs, list) or header.get("kind") != kind:
        raise CheckpointError(
            f"{path}: descriptor is not a {kind!r} object with a tensor list")
    if kind == "arrays" and not isinstance(header.get("extra", {}), dict):
        raise CheckpointError(f"{path}: extra is not an object")
    if kind == "model":
        shape = header.get("data_shape")
        if not isinstance(header.get("model"), dict):
            raise CheckpointError(f"{path}: model is not an object")
        if not isinstance(header.get("train_config"), (dict, type(None))):
            raise CheckpointError(f"{path}: train_config is not an object or null")
        if shape is not None and not (isinstance(shape, list) and len(shape) == 2
                                      and all(type(d) is int and d > 0 for d in shape)):
            raise CheckpointError(f"{path}: data_shape is not null or two sizes > 0")
    start = offset = 9 + head_len + 8
    index = {}
    for spec in specs:
        name, shape = ((spec.get("name"), spec.get("shape"))
                       if isinstance(spec, dict) else (None, None))
        if (not isinstance(name, str) or name in index
                or not isinstance(shape, list)
                or not all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: tensor entry {spec!r} needs a name of "
                                  f"its own and a list of non-negative sizes")
        index[name] = (tuple(shape), offset)
        offset += 8 * math.prod(shape)
    if offset != start + payload_len:
        raise CheckpointError(
            f"{path}: payload length {payload_len} does not match descriptor "
            f"({offset - start} bytes expected)")
    return header, index


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
    tensors = [(k, np.shape(v)) for k, v in named.items()]
    with _ContainerWriter(path, "arrays", tensors,
                          {"extra": extra or {}}) as writer:
        for v in named.values():
            writer.write(v)


def load_arrays(path: str | Path) -> tuple[Mapping[str, np.ndarray], dict]:
    """Named arrays and metadata of an array dump, CRC checked. The arrays are
    read from the file as they are looked up."""
    header, index = _read_container(path, "arrays")
    return _ArrayDump(path, index), header.get("extra", {})


def export_trace(model, z0: LatentBatch, steps: int,
                 spec: CorruptionSpec | None = None, rng: Rng | None = None,
                 keep: Iterable[int] | None = None, *,
                 path: str | Path) -> ChainTrace:
    """`run_chain(model, z0, steps, spec, rng, keep)`, streamed to the array
    dump at `path`: z0, then each step's decoded, corrupted (when `spec` is
    given) and latent batches, with `extra` {"denoising", "steps"}.

    The open file is the walk's sink, so each step is written as it is made
    and only the steps in `keep` stay in memory. Returns the walk's trace.
    """
    n, b = z0.values.shape
    parts = ("x", "x_tilde", "z") if spec is not None else ("x", "z")
    tensors = [("z0", (n, b))] + [
        (f"step{t:04d}.{part}", (n, b if part == "z" else int(model.data_dim)))
        for t in range(1, steps + 1) for part in parts]
    extra = {"denoising": spec is not None, "steps": steps}
    with _ContainerWriter(path, "arrays", tensors, {"extra": extra}) as writer:
        writer.write(z0.values)

        def sink(step: ChainStep) -> None:
            writer.write(step.x)
            if spec is not None:
                writer.write(step.x_tilde)
            writer.write(step.z.values)

        return run_chain(model, z0, steps, spec, rng, keep=keep, sink=sink)


# -- checkpoints ---------------------------------------------------------------------


def save_checkpoint(model: GenerativeAutoencoder, path: str | Path,
                    train_config: TrainConfig | None = None,
                    data_shape: tuple[int, int] | None = None) -> None:
    """Write the model (`arch()`, parameters, running stats) plus optional
    training-config echo and source image shape."""
    named = list(model.named_arrays())
    with _ContainerWriter(path, "model", [(n, a.shape) for n, a in named], {
        "model": model.arch(),
        "train_config": asdict(train_config) if train_config else None,
        "data_shape": list(data_shape) if data_shape is not None else None,
    }) as writer:
        for _, a in named:
            writer.write(a)


def read_checkpoint_header(path: str | Path) -> dict:
    return _read_container(path, "model")[0]


def load_checkpoint(path: str | Path, with_header: bool = False):
    """Reconstruct the model in its stored dtype (float64 when the header
    names none); every parameter and running stat is bit-exact. With
    `with_header`, returns (model, header) from the one read of the file."""
    header, index = _read_container(path, "model")
    try:
        model = GenerativeAutoencoder(**header["model"])
    except (TypeError, OverflowError, ContractViolation) as exc:
        raise CheckpointError(f"{path}: malformed model descriptor ({exc})") from None
    named = list(model.named_arrays())
    listed = [(name, shape) for name, (shape, _) in index.items()]
    expected = [(name, a.shape) for name, a in named]
    if listed != expected:
        raise CheckpointError(f"{path}: descriptor lists tensors {listed}, "
                              f"the model expects {expected}")
    for name, target in named:
        target[...] = _read_tensor(path, *index[name])
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


def _parse_number(cast, low=-math.inf, high=math.inf, low_open=False):
    """A parser of one finite `cast` value v with low <= v < high, or with
    low < v < high when `low_open`."""
    bounds = " and ".join(f"{op} {limit}" for op, limit in
                          ((">" if low_open else ">=", low), ("<", high))
                          if math.isfinite(limit))

    def parse(v: str):
        out = cast(v)
        if cast is float and not math.isfinite(out):
            raise ValueError("non-finite value")
        if out < low or (low_open and out == low) or out >= high:
            raise ValueError(f"must be {bounds}")
        return out
    return parse


_parse_count = _parse_number(int, 1)
_parse_variance = _parse_number(float, 0)
_parse_positive = _parse_number(float, 0, low_open=True)
_parse_decay = _parse_number(float, 0, 1)


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
    "alpha": _parse_positive,
    "beta1": _parse_decay,
    "beta2": _parse_decay,
    "epsilon": _parse_positive,
    "seed": _parse_number(int, 0, 2**64),
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


def _read_config(text: str, overrides: Mapping | None = None) -> dict:
    """The keys that `key = value` config text and `overrides` give, each
    with its parsed value; an unknown key or a bad value is a ConfigError at
    its 1-based line. `overrides` maps config keys to values already parsed
    by their parsers in `_CONFIG_KEYS`; they win over the text. A key that
    neither gives is absent."""
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
    return values


def parse_config(text: str, overrides: Mapping | None = None
                 ) -> tuple[TrainConfig, RunOptions]:
    """Settings from `_read_config(text, overrides)`; omitted keys keep the
    defaults of `TrainConfig`, `CorruptionSpec` and `RunOptions`."""
    values = _read_config(text, overrides)
    variant = values.get("variant", "vae")
    _, denoising = resolve_variant(variant)
    cfg = TrainConfig(
        denoising=denoising,
        corruption=CorruptionSpec(values.get("corruption_variance",
                                             CorruptionSpec.variance)),
        **{k: values[k] for k in _TRAIN_KEYS if k in values},
    )
    opts = RunOptions(**{f.name: values[f.name] for f in fields(RunOptions)
                         if f.name in values})
    return cfg, opts
