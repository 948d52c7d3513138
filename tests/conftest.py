"""Shared fixtures: tiny models and datasets that train in well under a second."""

import numpy as np
import pytest

from latentwalk import (Dataset, GenerativeAutoencoder, Rng, TrainConfig,
                        gen_gaussian_mixture, save_arrays)


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def tiny_vae():
    return GenerativeAutoencoder("vae", data_dim=2, latent_dim=2,
                                 hidden_dims=(8, 8), init_seed=0)


@pytest.fixture
def tiny_aae():
    return GenerativeAutoencoder("aae", data_dim=2, latent_dim=2,
                                 hidden_dims=(8, 8), adversary_dims=(8,),
                                 init_seed=0)


@pytest.fixture
def tiny_dataset():
    return gen_gaussian_mixture(96, seed=0)


@pytest.fixture
def fast_config():
    return TrainConfig(epochs=2, batch_size=32, seed=0)


@pytest.fixture
def box_samples():
    """A small batch strictly inside (0, 1), usable as reconstruction targets."""
    vals = Rng(77).uniform((16, 2)) * 0.9 + 0.05
    return np.asarray(vals)


@pytest.fixture
def save_whole_walk():
    """`save(trace, path, denoising)` dumps a finished walk that kept every
    step with `save_arrays`, in the layout `export_trace` streams: an
    independent writer to compare trace files against."""
    def save(trace, path, denoising):
        named = {"z0": trace.z0.values}
        for step in trace.steps:
            named[f"step{step.t:04d}.x"] = step.x
            if denoising:
                named[f"step{step.t:04d}.x_tilde"] = step.x_tilde
            named[f"step{step.t:04d}.z"] = step.z.values
        save_arrays(path, named,
                    extra={"denoising": denoising, "steps": len(trace.steps)})
    return save
