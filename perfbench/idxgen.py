"""Synthetic 28x28 image data in the IDX format that `latentwalk.data.load_idx` reads.

Each image is the sum of three Gaussian blobs whose centres come from one of
ten prototypes, shifted by up to three pixels and overlaid with pixel noise,
so a small denoising VAE has structure to learn.  The bytes are a pure
function of the seed: the benchmark's own NumPy generator makes them, not the
program's `Rng`.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
N_PROTOTYPES = 10
BLOBS = 3
BLOB_STD = 2.5
SHIFT = 3
PIXEL_NOISE = 0.05


def idx_images(n: int, seed: int, split: str) -> bytes:
    """One IDX3 (unsigned byte, n x 28 x 28) file as bytes."""
    prototypes = np.random.default_rng([seed, 0])
    centres = prototypes.uniform(8.0, SIDE - 8.0, size=(N_PROTOTYPES, BLOBS, 2))
    rng = np.random.default_rng([seed, 1 if split == "train" else 2])
    labels = rng.permutation(np.arange(n) % N_PROTOTYPES)
    shifts = rng.integers(-SHIFT, SHIFT + 1, size=(n, 1, 2))
    at = centres[labels] + shifts                                  # (n, blobs, 2)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    dy = yy[None, None] - at[:, :, 0, None, None]
    dx = xx[None, None] - at[:, :, 1, None, None]
    images = np.exp(-(dy * dy + dx * dx) / (2.0 * BLOB_STD ** 2)).sum(axis=1)
    images += PIXEL_NOISE * rng.standard_normal(images.shape)
    pixels = np.floor(np.clip(images, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    header = struct.pack(">BBBBIII", 0, 0, 0x08, 3, n, SIDE, SIDE)
    return header + pixels.tobytes()


def write_idx_pair(directory: Path, seed: int, n_train: int,
                   n_test: int) -> tuple[Path, Path]:
    """Write `images-train.idx` and `images-test.idx`; return their paths."""
    paths = (directory / "images-train.idx", directory / "images-test.idx")
    for path, n, split in zip(paths, (n_train, n_test), ("train", "test")):
        path.write_bytes(idx_images(n, seed, split))
    return paths
