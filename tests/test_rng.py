"""Random stream tests: reproducibility, derivation, and shape."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import ContractViolation, Rng


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


@pytest.mark.parametrize("seed,tag,derived", [
    (0, "", 9674187198854108257),
    (2016, "sample", 8954262085714324536),
    (2**64 - 1, "oracle-suite", 9412680503864727111),
    (7, "\u00e9", 9092118220038366947),
])
def test_derived_seeds_are_pinned(seed, tag, derived):
    """FNV-1a of the tag's UTF-8 bytes, xored into the seed, then
    splitmix64's finalizer. Runs record derived seeds (report.csv's
    `prior_seed`), so these values never change with the generator."""
    assert int(Rng(seed).derive(tag).seed) == derived


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


def _reference(seed):
    """The one-shot reference: a bare NumPy Generator on Philox keyed by the
    seed, asked for each whole request in one call."""
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("shape", [(), (0, 3), 1, 32767, 32768, 32769, 98309,
                                   7, (3, 70)])
def test_draws_equal_the_one_shot_reference(shape):
    for kind, method in (("uniform", "random"),
                         ("normal", "standard_normal")):
        got = getattr(Rng(2016), kind)(shape)
        expected = getattr(_reference(2016), method)(shape)
        assert np.shape(got) == np.shape(expected)
        if shape == ():
            assert type(got) is np.float64
        else:
            assert got.dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert np.array_equal(Rng(2016).permutation(50),
                          _reference(2016).permutation(50))


def test_a_request_split_across_calls_keeps_the_sequence():
    for kind in ("uniform", "normal"):
        r = Rng(7)
        split = np.concatenate([getattr(r, kind)(5), getattr(r, kind)(6)])
        whole = getattr(Rng(7), kind)(11)
        assert split.tobytes() == whole.tobytes(), kind


@pytest.mark.parametrize("block", [1, 7, 32768])
def test_block_size_never_changes_a_value(block):
    """A request drawn in calls of `block` values gives the values of one
    call: Philox hands out raw values in order, and neither transform keeps
    anything from one call to the next."""
    n = 32768 + 11
    for kind in ("uniform", "normal"):
        r = Rng(5)
        parts = [getattr(r, kind)(min(block, n - i)) for i in range(0, n, block)]
        one = Rng(5)
        whole = getattr(one, kind)(n)
        assert np.concatenate(parts).tobytes() == whole.tobytes(), kind
        assert r.counter == one.counter


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 1001])
def test_counter_counts_the_raw_values_consumed(n):
    r = Rng(3)
    assert r.counter == 0
    r.uniform(2)
    r.uniform((n,))
    assert r.counter == 2 + n
    r.normal(n)
    r.permutation(n)
    # the next values are those a bare stream gives after `counter` raw ones
    bits = np.random.Philox(key=3)
    bits.random_raw(r.counter)
    assert np.array_equal(r.uniform(9), np.random.Generator(bits).random(9))


def test_stream_digests_are_pinned():
    """SHA-256 of the float64 bytes, recorded on NumPy 2.4.6."""
    digests = {
        "normal": "9bba7918fc127cec57e81f5a6bee5f89439734a80fc5d8576281f282300565a2",
        "uniform": "f443944de40dee88ab36f142fa7b5e8d586351c841f0a31332dda98328e2a7b4",
    }
    for kind, digest in digests.items():
        draws = getattr(Rng(2016), kind)((3, 70001))
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest, kind
