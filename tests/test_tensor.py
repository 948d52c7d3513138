"""Autodiff engine tests.

Gradient assertions come in two flavours: hand-derived closed forms for the
simple graphs, and central finite differences for everything composite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import ContractViolation, DomainError, Rng, Tensor
from latentwalk import tensor as T
from latentwalk.errors import ShapeMismatchError
from latentwalk.objectives import adversarial_losses
from latentwalk.tensor import finite_diff_check


def _param(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


# ---------------------------------------------------------------------------
# construction and bookkeeping


def test_tensor_wraps_scalars_and_arrays():
    assert Tensor(3.0).shape == ()
    assert Tensor([[1.0, 2.0]]).shape == (1, 2)
    assert Tensor(np.zeros((3, 4))).size == 12


def test_non_finite_input_rejected():
    with pytest.raises(DomainError):
        Tensor([np.nan, 1.0])
    with pytest.raises(DomainError):
        Tensor([np.inf])


def test_item_requires_scalar():
    assert Tensor(2.5).item() == 2.5
    with pytest.raises(ContractViolation):
        Tensor([1.0, 2.0]).item()


def test_backward_requires_scalar_loss():
    w = _param([1.0, 2.0])
    y = T.hadamard(w, w)
    with pytest.raises(ContractViolation):
        y.backward()


def test_detach_breaks_the_graph():
    w = _param([1.0, 2.0])
    y = T.tsum(T.hadamard(w, w).detach())
    y.backward()
    assert w.grad is None


def test_graph_is_recorded_exactly_when_an_input_requires_grad():
    w = _param([1.0, 2.0])
    c = Tensor([3.0, 4.0])
    assert T.hadamard(w, c).requires_grad
    const = T.tsum(T.hadamard(c, c))
    assert not const.requires_grad and const._parents == ()


def test_scalar_operands_take_the_tensor_dtype():
    x = Tensor([1.0, 2.0], dtype=np.float32)
    for y in (x + 1.0, 1.0 + x, x - 1.0, 1.0 - x, x * 2.0, 2.0 * x):
        assert y.data.dtype == np.float32
    assert x.detach().data.dtype == np.float32
    assert (Tensor([1.0]) + 1.0).data.dtype == np.float64


# ---------------------------------------------------------------------------
# closed-form gradients


def test_sum_of_squares_gradient():
    """d/dw sum(w*w) = 2w."""
    w = _param([1.0, 2.0])
    loss = T.tsum(T.hadamard(w, w))
    loss.backward()
    assert np.allclose(w.grad, [2.0, 4.0])


def test_mean_gradient_is_uniform():
    w = _param([1.0, 2.0, 3.0, 4.0])
    T.tmean(w).backward()
    assert np.allclose(w.grad, [0.25, 0.25, 0.25, 0.25])


def test_matmul_gradients():
    a = _param([[1.0, 2.0], [3.0, 4.0]])
    b = _param([[5.0, 6.0], [7.0, 8.0]])
    T.tsum(T.matmul(a, b)).backward()
    ones = np.ones((2, 2))
    assert np.allclose(a.grad, ones @ np.asarray(b.data).T)
    assert np.allclose(b.grad, np.asarray(a.data).T @ ones)


def test_gradient_accumulates_across_uses():
    w = _param([2.0])
    loss = T.tsum(T.add(T.hadamard(w, w), w))  # w^2 + w -> 2w + 1 = 5
    loss.backward()
    assert np.allclose(w.grad, [5.0])


def test_zero_grad_resets():
    w = _param([1.0])
    T.tsum(w).backward()
    assert w.grad is not None
    w.zero_grad()
    assert w.grad is None


def test_leaky_relu_negative_slope():
    w = _param([-2.0, 3.0])
    out = T.leaky_relu(w, 0.2)
    assert np.allclose(out.data, [-0.4, 3.0])
    T.tsum(out).backward()
    assert np.allclose(w.grad, [0.2, 1.0])


def test_relu_gate():
    w = _param([-1.0, 0.5])
    out = T.relu(w)
    assert np.allclose(out.data, [0.0, 0.5])
    T.tsum(out).backward()
    assert np.allclose(w.grad, [0.0, 1.0])


def test_sigmoid_value_and_gradient():
    w = _param([0.0])
    s = T.sigmoid(w)
    assert np.allclose(s.data, [0.5])
    T.tsum(s).backward()
    assert np.allclose(w.grad, [0.25])  # s(1-s) at 0.5


def test_sigmoid_stays_finite_at_extremes():
    s = T.sigmoid(Tensor([-800.0, 800.0]))
    assert np.all(np.isfinite(s.data))
    assert s.data[0] >= 0.0 and s.data[1] <= 1.0


def _two_branch_sigmoid(x):
    """The masked formula sigmoid computed before it dropped boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _masked_divide_sigmoid(x):
    """The form sigmoid used before it divided once: 1/(1+e) written over
    e/(1+e) where x >= 0, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    d = e + 1.0
    out = np.divide(e, d)
    np.divide(1.0, d, out=out, where=x >= 0)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_is_bit_identical_to_the_masked_divide(dtype):
    x = np.concatenate([[0.0, -0.0, 800.0, -800.0],
                        np.linspace(-800.0, 800.0, 4001),
                        Rng(12).normal(4096) * 20.0]).astype(dtype)
    out = T.sigmoid(Tensor(x, dtype=dtype)).data
    assert out.dtype == dtype
    assert out.tobytes() == _masked_divide_sigmoid(x).tobytes()


@pytest.mark.parametrize("dtype,magnitudes", [
    (np.float64, (0.0, 30.0, 745.0, 800.0)),
    (np.float32, (0.0, 88.0, 104.0)),
])
def test_sigmoid_is_bit_identical_to_the_two_branch_formula(dtype, magnitudes):
    edges = [sign * m for m in magnitudes for sign in (1.0, -1.0)]
    spread = np.linspace(-60.0, 60.0, 1001)
    x = np.concatenate([edges, spread]).astype(dtype)
    assert np.signbit(x[1]) and x[1] == 0.0  # -0.0 is among the inputs
    w = Tensor(x, requires_grad=True, dtype=dtype)
    s = T.sigmoid(w)
    expected = _two_branch_sigmoid(x)
    assert s.data.dtype == dtype
    assert s.data.tobytes() == expected.tobytes()
    T.tsum(s).backward()
    grad = np.ones_like(x) * expected * (1.0 - expected)
    assert w.grad.dtype == dtype
    assert w.grad.tobytes() == grad.tobytes()


def test_log_rejects_non_positive():
    with pytest.raises(DomainError):
        T.log(Tensor([0.0]))
    with pytest.raises(DomainError):
        T.log(Tensor([-1.0]))


def test_exp_overflow_rejected():
    with pytest.raises(DomainError):
        T.exp(Tensor([1000.0]))


def test_broadcast_add_gradient_sums_over_broadcast_axes():
    """Bias gradients must collapse the batch axis."""
    x = _param(np.ones((4, 3)))
    b = _param(np.zeros(3))
    T.tsum(T.add(x, b)).backward()
    assert np.allclose(b.grad, [4.0, 4.0, 4.0])
    assert np.allclose(x.grad, np.ones((4, 3)))


def test_axis_sum_keeps_dims():
    x = _param(np.arange(6.0).reshape(2, 3))
    s = T.tsum(x, axis=1)
    assert s.shape == (2, 1)
    assert np.allclose(s.data, [[3.0], [12.0]])
    T.tsum(s).backward()
    assert np.allclose(x.grad, np.ones((2, 3)))


def test_concat_and_slice_roundtrip_gradients():
    a = _param(np.ones((2, 2)))
    b = _param(np.full((2, 3), 2.0))
    # [a | b] from two embeddings: a @ [I 0] + b @ [0 I]
    eye = np.eye(5)
    cat = T.matmul(a, Tensor(eye[:2])) + T.matmul(b, Tensor(eye[2:]))
    assert cat.shape == (2, 5)
    left = T.tslice(cat, 0, 2, axis=1)
    T.tsum(left).backward()
    assert np.allclose(a.grad, np.ones((2, 2)))
    assert np.allclose(b.grad, np.zeros((2, 3)))


def test_slice_returns_copy_not_view():
    a = _param(np.arange(4.0).reshape(2, 2))
    piece = T.tslice(a, 0, 1, axis=1)
    piece.data[0, 0] = 99.0
    assert a.data[0, 0] == 0.0


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_operator_sugar_matches_functions():
    a = _param([1.0, 2.0])
    b = _param([3.0, 4.0])
    assert np.allclose((a + b).data, [4.0, 6.0])
    assert np.allclose((a - b).data, [-2.0, -2.0])
    assert np.allclose((a * b).data, [3.0, 8.0])
    assert np.allclose((-a).data, [-1.0, -2.0])


# ---------------------------------------------------------------------------
# finite differences on composite graphs


def test_finite_diff_on_mlp_like_graph():
    rng = np.random.default_rng(0)
    w1 = _param(rng.normal(size=(3, 4)) * 0.5)
    b1 = _param(np.zeros(4))
    w2 = _param(rng.normal(size=(4, 1)) * 0.5)
    x = Tensor(rng.normal(size=(5, 3)))

    def loss():
        h = T.tanh(T.add(T.matmul(x, w1), b1))
        return T.tmean(T.hadamard(T.matmul(h, w2), T.matmul(h, w2)))

    assert finite_diff_check(loss, [w1, b1, w2]) < 1e-6


def test_finite_diff_on_log_exp_chain():
    w = _param([0.3, 0.7])

    def loss():
        return T.tsum(T.log(T.add(T.exp(w), Tensor([1.0, 1.0]))))

    assert finite_diff_check(loss, [w]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_finite_diff_random_small_graphs(n, m, seed):
    rng = np.random.default_rng(seed)
    w = _param(rng.normal(size=(n, m)) * 0.8)

    def loss():
        return T.tmean(T.hadamard(T.sigmoid(w), T.tanh(w)))

    assert finite_diff_check(loss, [w]) < 1e-5


# ---------------------------------------------------------------------------
# fused nodes against the composite graphs they replace


def _transpose(w):
    # The dense layer's former transpose node.
    return T._make(w.data.T.copy(), (w,), lambda g: [(w, g.T.copy())])


def _batch_norm_composite(x, gamma, beta, eps):
    mu = T.tmean(x, axis=0)
    centered = x - mu
    var = T.tmean(centered * centered, axis=0)
    inv_std = T.exp(T.scale(T.log(var + eps), -0.5))
    return centered * inv_std * gamma + beta, mu.data, var.data


def _cross_entropy_composite(x, x_hat):
    term = x * T.log(x_hat) + (1.0 - x) * T.log(1.0 - x_hat)
    return T.scale(T.tmean(T.tsum(term, axis=1)), -1.0)


def _kl_composite(mu, sigma):
    term = mu * mu + sigma * sigma - T.scale(T.log(sigma), 2.0) - 1.0
    return T.scale(T.tmean(T.tsum(term, axis=1)), 0.5)


def _adversarial_composite(d_real, d_fake):
    # The adversary's former graph: the negated mean logs of the scores.
    disc = T.scale(T.tmean(T.log(d_real)) + T.tmean(T.log(1.0 - d_fake)), -1.0)
    return disc, T.scale(T.tmean(T.log(d_fake)), -1.0)


def _fused_cases():
    """name -> (fused loss, composite loss, leaf arrays); both losses take
    the same leaf tensors and end in a scalar."""
    rng = np.random.default_rng(5)
    probe = rng.normal(size=(6, 4))

    def weigh(t):  # a scalar that weighs every output differently
        return T.tsum(t * Tensor(probe, dtype=t.data.dtype))

    def both(disc, gen):  # one scalar from the adversary's two losses
        return disc + T.scale(gen, 0.5)

    return {
        "dense": (
            lambda x, w, b: weigh(T.matmul(x, w, b, transpose_b=True)),
            lambda x, w, b: weigh(T.matmul(x, _transpose(w)) + b),
            [rng.normal(size=(6, 3)), rng.normal(size=(4, 3)),
             rng.normal(size=4)]),
        "batch_norm": (
            lambda x, g, b: weigh(T.batch_norm(x, g, b, 1e-8)[0]),
            lambda x, g, b: weigh(_batch_norm_composite(x, g, b, 1e-8)[0]),
            [rng.normal(2.0, 3.0, size=(6, 4)), rng.normal(size=4),
             rng.normal(size=4)]),
        "binary_cross_entropy": (
            T.binary_cross_entropy, _cross_entropy_composite,
            [rng.uniform(0.1, 0.9, size=(6, 4)),
             rng.uniform(0.05, 0.95, size=(6, 4))]),
        "gaussian_kl": (
            T.gaussian_kl, _kl_composite,
            [rng.normal(size=(6, 2)), np.exp(rng.normal(size=(6, 2)))]),
        "adversarial_losses": (
            lambda r, f: both(*adversarial_losses(r, f)),
            lambda r, f: both(*_adversarial_composite(r, f)),
            [rng.uniform(0.05, 0.95, size=(6, 1)),
             rng.uniform(0.05, 0.95, size=(6, 1))]),
    }


def _run(loss, arrays, dtype):
    leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
    out = loss(*leaves)
    out.backward()
    return out, leaves


FUSED = sorted(_fused_cases())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", FUSED)
def test_fused_node_forward_equals_its_composite(name, dtype):
    fused, composite, arrays = _fused_cases()[name]
    out, _ = _run(fused, arrays, dtype)
    ref, _ = _run(composite, arrays, dtype)
    assert out.data.dtype == ref.data.dtype == dtype
    assert out.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("name", FUSED)
def test_fused_node_gradients_match_its_composite(name):
    fused, composite, arrays = _fused_cases()[name]
    _, leaves = _run(fused, arrays, np.float64)
    _, refs = _run(composite, arrays, np.float64)
    for leaf, ref in zip(leaves, refs):
        np.testing.assert_allclose(leaf.grad, ref.grad, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", FUSED)
def test_fused_node_passes_finite_differences(name):
    fused, _, arrays = _fused_cases()[name]
    leaves = [_param(a) for a in arrays]
    assert finite_diff_check(lambda: fused(*leaves), leaves) < 1e-6


@pytest.mark.parametrize("name", FUSED)
def test_fused_node_keeps_float32(name):
    fused, _, arrays = _fused_cases()[name]
    out, leaves = _run(fused, arrays, np.float32)
    assert out.data.dtype == np.float32
    assert all(leaf.grad.dtype == np.float32 for leaf in leaves)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_norm_returns_the_batch_statistics(dtype):
    x = Tensor(np.random.default_rng(1).normal(size=(5, 3)), dtype=dtype)
    gamma, beta = Tensor(np.ones(3), dtype=dtype), Tensor(np.zeros(3), dtype=dtype)
    _, mu, var = T.batch_norm(x, gamma, beta, 1e-8)
    _, ref_mu, ref_var = _batch_norm_composite(x, gamma, beta, 1e-8)
    assert mu.shape == var.shape == (1, 3)
    assert mu.tobytes() == ref_mu.tobytes() and var.tobytes() == ref_var.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adversarial_losses_keep_the_composite_bytes_at_64_rows(dtype):
    """With a power-of-two batch, the fused gradient (-1/n) * (1/d) rounds
    as the composite's (-1/n) / d does, so each loss and its gradients with
    respect to the scores equal the composite graph's bit for bit. This is
    what keeps an AAE's training bytes at batch 64."""
    rng = np.random.default_rng(64)
    scores = [rng.uniform(0.01, 0.99, size=(64, 1)) for _ in range(2)]
    for which in (0, 1):  # disc, gen
        runs = []
        for losses in (adversarial_losses, _adversarial_composite):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in scores]
            loss = losses(*leaves)[which]
            loss.backward()
            runs.append([loss.data.tobytes()] + [
                None if leaf.grad is None else leaf.grad.tobytes()
                for leaf in leaves])
        assert runs[0] == runs[1]
        assert runs[0][2] is not None  # d_fake is in both losses


def test_fused_nodes_keep_their_domain_and_contract_checks():
    half = Tensor(np.full((1, 2), 0.5))
    with pytest.raises(ContractViolation):
        T.binary_cross_entropy(Tensor([[1.5, 0.5]]), half)
    with pytest.raises(ContractViolation):
        T.binary_cross_entropy(Tensor([[-0.1, 0.5]]), half)
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            T.binary_cross_entropy(half, Tensor([[bad, 0.5]]))
    with pytest.raises(ContractViolation):
        T.gaussian_kl(half, Tensor([[0.5, 0.0]]))
    with pytest.raises(ContractViolation):
        T.gaussian_kl(half, Tensor([[0.5, -1.0]]))
    with pytest.raises(DomainError):
        T.batch_norm(Tensor(np.ones((2, 2))), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)), 0.0)
    ones = Tensor(np.ones((3, 2)))
    for call in (lambda: T.binary_cross_entropy(ones, half),
                 lambda: T.gaussian_kl(ones, half),
                 lambda: T.batch_norm(ones, Tensor(np.ones(3)), Tensor(np.ones(2)), 1e-8),
                 lambda: T.matmul(ones, ones, Tensor(np.ones(2)), transpose_b=True),
                 lambda: T.matmul(ones, Tensor(np.ones((2, 4))), Tensor(np.ones(3)))):
        with pytest.raises(ShapeMismatchError):
            call()


# ---------------------------------------------------------------------------
# aliasing and purity


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ops_do_not_mutate_inputs(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(3, 3))
    a = Tensor(vals.copy())
    b = Tensor(vals.copy())
    bias = Tensor(vals[0].copy())
    for out in (T.add(a, b), T.sub(a, b), T.hadamard(a, b), T.matmul(a, b),
                T.matmul(a, b, bias, transpose_b=True),
                T.batch_norm(a, bias, bias, 1e-8)[0],
                T.relu(a), T.tanh(a), T.sigmoid(a), T.scale(a, 2.0)):
        out.data[...] = 123.0
    assert np.array_equal(a.data, vals)
    assert np.array_equal(b.data, vals)
    assert np.array_equal(bias.data, vals[0])
