"""Counter-based random stream tests: reproducibility, derivation, and shape."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import ContractViolation, Rng
from latentwalk import rng as rng_module

BLOCK = rng_module._BLOCK


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_equal_seeds_equal_streams(seed):
    a = Rng(seed)
    b = Rng(seed)
    assert np.array_equal(a.uniform((100,)), b.uniform((100,)))
    assert np.array_equal(a.normal((100,)), b.normal((100,)))


def test_seeds_outside_64_bits_are_refused_not_aliased():
    for seed in (2**64, -1, 2**65 + 3):
        with pytest.raises(ContractViolation):
            Rng(seed)
    with pytest.raises(TypeError):
        Rng(3.5)
    assert Rng(2**64 - 1).seed == np.uint64(2**64 - 1)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(0).uniform((64,)), Rng(1).uniform((64,)))


def test_draw_order_advances_state():
    r = Rng(5)
    first = r.uniform((10,))
    second = r.uniform((10,))
    assert not np.array_equal(first, second)


def test_derive_is_deterministic_and_distinct():
    base = Rng(42)
    assert np.array_equal(Rng(42).derive("a").uniform((32,)),
                          Rng(42).derive("a").uniform((32,)))
    assert not np.array_equal(Rng(42).derive("a").uniform((32,)),
                              Rng(42).derive("b").uniform((32,)))
    # deriving does not disturb the parent stream
    underived = Rng(42).uniform((32,))
    base.derive("anything")
    assert np.array_equal(base.uniform((32,)), underived)


def test_uniform_range_and_normal_moments():
    u = Rng(9).uniform((100_000,))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    z = Rng(9).normal((100_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_permutation_is_a_permutation():
    perm = Rng(11).permutation(257)
    assert sorted(perm.tolist()) == list(range(257))


def test_permutation_repeatable():
    assert np.array_equal(Rng(11).permutation(100), Rng(11).permutation(100))


def test_shapes_respected():
    assert Rng(0).normal((3, 4)).shape == (3, 4)
    assert Rng(0).uniform((2, 2, 2)).shape == (2, 2, 2)


# ---------------------------------------------------------------------------
# the stream, pinned


def _reference_uniform(seed, counter, n):
    """One-shot splitmix64: uniforms of raw draws counter+1 .. counter+n."""
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    x = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)) * (2.0 ** -53)


def _reference_normal(seed, counter, n):
    u1 = 1.0 - _reference_uniform(seed, counter, n)
    u2 = _reference_uniform(seed, counter + n, n)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.mark.parametrize("shape", [(), (0, 3), 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 5])
def test_draws_equal_the_one_shot_reference(shape):
    n = int(np.prod(shape))
    start = 123_457
    for kind, draws_per_value, reference in (
            ("uniform", 1, _reference_uniform),
            ("normal", 2, _reference_normal)):
        r = Rng(2016, counter=start)
        got = getattr(r, kind)(shape)
        expected = reference(2016, start, max(n, 1) if shape == () else n)
        assert r.counter == start + draws_per_value * n
        assert np.shape(got) == np.shape(np.empty(shape))
        assert np.asarray(got).dtype == np.float64
        if shape == ():
            assert got == expected[0]
        else:
            assert np.asarray(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [1, 7, BLOCK])
def test_block_size_never_changes_a_value(monkeypatch, block):
    shapes = [(), 1, 6, 7, 8, 50, (3, 70)]
    expected = [(Rng(5, 99).uniform(s), Rng(5, 99).normal(s)) for s in shapes]
    monkeypatch.setattr(rng_module, "_BLOCK", block)
    for shape, (u, z) in zip(shapes, expected):
        n = int(np.prod(shape))
        ru, rz = Rng(5, 99), Rng(5, 99)
        assert np.asarray(ru.uniform(shape)).tobytes() == np.asarray(u).tobytes()
        assert np.asarray(rz.normal(shape)).tobytes() == np.asarray(z).tobytes()
        assert (ru.counter, rz.counter) == (99 + n, 99 + 2 * n)


def test_stream_digests_are_pinned():
    """SHA-256 of the float64 bytes, recorded before draws were blocked."""
    digests = {
        "normal": "2576180fa7477225bfdf35f21b4aa94ad227e9675af4d0c77b0dd9ad9d663948",
        "uniform": "441cbdfeeed172011c0e0ab7ed7c7878430cc39e95d5a03ea3140538d51cde4f",
    }
    for kind, digest in digests.items():
        draws = getattr(Rng(2016), kind)((3, 70001))
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest, kind
