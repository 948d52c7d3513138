"""Latent-space walk mechanics: prior draws, transitions, traces, slerp."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import (ContractViolation, CorruptionSpec,
                        DegenerateGeometryError, LatentBatch, PriorSpec, Rng,
                        denoising_transition_step, interpolation_grid,
                        run_chain, sample_prior, slerp, transition_step)
from latentwalk.chain import ChainTrace


# ---------------------------------------------------------------------------
# prior sampling and containers


def test_sample_prior_moments_and_provenance():
    batch = sample_prior(50_000, PriorSpec(3), Rng(0))
    assert batch.values.shape == (50_000, 3)
    assert batch.provenance == "prior"
    assert np.allclose(batch.values.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(batch.values.std(axis=0), 1.0, atol=0.02)


def test_latent_batch_validation():
    with pytest.raises(ContractViolation):
        LatentBatch(np.zeros((3,)))  # must be 2-d
    with pytest.raises(ContractViolation):
        LatentBatch(np.zeros((0, 2)))


def test_sample_prior_is_seeded():
    a = sample_prior(10, PriorSpec(2), Rng(5)).values
    b = sample_prior(10, PriorSpec(2), Rng(5)).values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# transitions and traces


def test_transition_step_shapes(tiny_vae):
    z0 = sample_prior(7, tiny_vae.prior, Rng(1))
    x, z1 = transition_step(tiny_vae, z0, Rng(2))
    assert x.shape == (7, 2)
    assert z1.values.shape == (7, 2)
    assert z1.provenance == "chain"
    _, z2 = transition_step(tiny_vae, z1, Rng(3))
    assert z2.provenance == "chain"


def test_denoising_step_records_corrupted_batch(tiny_vae):
    z0 = sample_prior(7, tiny_vae.prior, Rng(1))
    x, x_tilde, z1 = denoising_transition_step(tiny_vae, z0,
                                               CorruptionSpec(0.25), Rng(2))
    assert x_tilde.shape == x.shape
    assert not np.array_equal(x_tilde, x)
    assert z1.provenance == "chain"


def test_zero_variance_denoising_matches_plain_step_bitwise(tiny_vae):
    """The corruption kernel at variance 0 must vanish entirely."""
    z0 = sample_prior(16, tiny_vae.prior, Rng(3))
    x_p, z_p = transition_step(tiny_vae, z0, Rng(4))
    x_n, x_tilde, z_n = denoising_transition_step(tiny_vae, z0,
                                                  CorruptionSpec(0.0), Rng(4))
    assert np.array_equal(z_p.values, z_n.values)
    assert np.array_equal(x_p, x_n)
    assert np.array_equal(x_tilde, x_n)


def test_run_chain_records_every_step(tiny_vae):
    """ChainStep.t numbers the steps; every step's latents say "chain"."""
    z0 = sample_prior(5, tiny_vae.prior, Rng(5))
    trace = run_chain(tiny_vae, z0, steps=100, rng=Rng(6))
    lat = trace.latents()
    assert len(lat) == 101  # z0 plus every step
    assert np.array_equal(lat[0], z0.values)
    assert [step.t for step in trace.steps] == list(range(1, 101))
    assert {step.z.provenance for step in trace.steps} == {"chain"}


def test_run_chain_is_seed_deterministic(tiny_vae):
    z0 = sample_prior(5, tiny_vae.prior, Rng(7))
    a = run_chain(tiny_vae, z0, steps=3, rng=Rng(8))
    b = run_chain(tiny_vae, z0, steps=3, rng=Rng(8))
    for za, zb in zip(a.latents(), b.latents()):
        assert np.array_equal(za, zb)


def test_run_chain_keeps_only_named_steps(tiny_vae):
    z0 = sample_prior(5, tiny_vae.prior, Rng(20))
    spec = CorruptionSpec(0.1)
    full = run_chain(tiny_vae, z0, steps=6, spec=spec, rng=Rng(21))
    seen = []
    kept = run_chain(tiny_vae, z0, steps=6, spec=spec, rng=Rng(21),
                     keep=(0, 2, 6), sink=seen.append)
    assert [step.t for step in seen] == [1, 2, 3, 4, 5, 6]
    assert [step.t for step in kept.steps] == [2, 6]
    assert kept.z0 is z0
    for step in kept.steps:
        twin = full.steps[step.t - 1]
        assert np.array_equal(step.z.values, twin.z.values)
        assert np.array_equal(step.x, twin.x)
        assert np.array_equal(step.x_tilde, twin.x_tilde)


@pytest.mark.parametrize("spec", [None, CorruptionSpec(0.3)],
                         ids=["plain", "denoising"])
def test_run_chain_spec_alone_selects_the_kernel(tiny_vae, spec):
    """A spec walks the denoising kernel, None the plain one: each step's
    bytes are those of the matching single-step kernel, chained."""
    z = z0 = sample_prior(3, tiny_vae.prior, Rng(9))
    trace = run_chain(tiny_vae, z0, steps=3, spec=spec, rng=Rng(10))
    rng = Rng(10)
    for step in trace.steps:
        if spec is None:
            x, z = transition_step(tiny_vae, z, rng)
            assert step.x_tilde is None
        else:
            x, x_tilde, z = denoising_transition_step(tiny_vae, z, spec, rng)
            assert step.x_tilde.tobytes() == x_tilde.tobytes()
        assert step.x.tobytes() == x.tobytes()
        assert step.z.values.tobytes() == z.values.tobytes()


def test_run_chain_zero_steps(tiny_vae):
    z0 = sample_prior(3, tiny_vae.prior, Rng(11))
    trace = run_chain(tiny_vae, z0, steps=0, rng=Rng(12))
    assert trace.steps == []
    assert len(trace.latents()) == 1


def test_chain_dim_mismatch_rejected(tiny_vae):
    bad = LatentBatch(np.zeros((4, 5)))
    with pytest.raises(ContractViolation):
        run_chain(tiny_vae, bad, steps=1, rng=Rng(13))


def test_aae_chain_is_noise_free_after_z0(tiny_aae):
    """Deterministic encoder: same z0 and any rngs give the same walk."""
    z0 = sample_prior(6, tiny_aae.prior, Rng(14))
    a = run_chain(tiny_aae, z0, steps=3, rng=Rng(100))
    b = run_chain(tiny_aae, z0, steps=3, rng=Rng(200))
    assert np.array_equal(a.latents()[-1], b.latents()[-1])


# ---------------------------------------------------------------------------
# slerp


def test_slerp_oracle_midpoint():
    out = slerp(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
    assert np.allclose(out, [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-12)


def test_slerp_endpoints_exact():
    a = np.array([0.3, -1.2, 0.5])
    b = np.array([-0.7, 0.1, 2.0])
    assert np.array_equal(slerp(a, b, 0.0), a)
    assert np.array_equal(slerp(a, b, 1.0), b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.0, max_value=1.0))
def test_slerp_preserves_unit_norm(seed, t):
    r = np.random.default_rng(seed)
    a = r.normal(size=4)
    b = r.normal(size=4)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    out = slerp(a, b, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_slerp_nearly_parallel_falls_back_to_linear():
    a = np.array([1.0, 0.0])
    out = slerp(a, a * (1 + 1e-12), 0.5)
    assert np.allclose(out, a, atol=1e-9)


def test_slerp_antipodal_rejected():
    a = np.array([1.0, 0.0])
    with pytest.raises(DegenerateGeometryError):
        slerp(a, -a, 0.5)


def test_slerp_validation():
    a = np.array([1.0, 0.0])
    with pytest.raises(ContractViolation):
        slerp(a, np.array([1.0, 0.0, 0.0]), 0.5)
    with pytest.raises(ContractViolation):
        slerp(a, a, 1.5)
    with pytest.raises(ContractViolation):
        slerp(np.zeros(2), a, 0.5)


def test_interpolation_grid_corners_and_shape():
    corners = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
               np.array([0.0, 0.0, 1.0]), np.ones(3) / np.sqrt(3)]
    grid = interpolation_grid(corners, rows=3, cols=3)
    vals = grid.values
    assert vals.shape == (9, 3)
    assert np.allclose(vals[0], corners[0], atol=1e-12)   # top-left
    assert np.allclose(vals[2], corners[1], atol=1e-12)   # top-right
    assert np.allclose(vals[6], corners[2], atol=1e-12)   # bottom-left
    assert np.allclose(vals[8], corners[3], atol=1e-12)   # bottom-right
    # unit corners walk the unit sphere everywhere
    assert np.allclose(np.linalg.norm(vals, axis=1), 1.0, atol=1e-9)


def test_interpolation_grid_degenerate_all_equal():
    z = np.array([0.4, -0.8])
    grid = interpolation_grid([z, z, z, z], rows=4, cols=5)
    assert np.allclose(grid.values, z, atol=1e-12)


def test_interpolation_grid_center_matches_nested_slerp():
    tl, tr = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    bl, br = np.array([0.0, 0.0, 1.0]), np.ones(3) / np.sqrt(3)
    grid = interpolation_grid([tl, tr, bl, br], rows=3, cols=3)
    center = slerp(slerp(tl, bl, 0.5), slerp(tr, br, 0.5), 0.5)
    assert np.allclose(grid.values[4], center, atol=1e-12)


def test_interpolation_grid_validation():
    corners = [np.array([1.0, 0.0])] * 4
    with pytest.raises(ContractViolation):
        interpolation_grid(corners[:3], rows=2, cols=2)
    with pytest.raises(ContractViolation):
        interpolation_grid(corners, rows=1, cols=2)


# ---------------------------------------------------------------------------
# trace container


def test_trace_latents_are_copies(tiny_vae):
    z0 = sample_prior(3, tiny_vae.prior, Rng(15))
    trace = run_chain(tiny_vae, z0, steps=2, rng=Rng(16))
    lat = trace.latents()
    lat[0][0, 0] = 999.0
    lat[2][0, 0] = 999.0
    assert trace.z0.values[0, 0] != 999.0
    assert trace.steps[1].z.values[0, 0] != 999.0


def test_trace_defaults():
    z0 = LatentBatch(np.zeros((2, 2)))
    trace = ChainTrace(z0)
    assert trace.steps == []
