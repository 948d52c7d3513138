"""Network building blocks and the two autoencoder variants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import (Adam, ContractViolation, GenerativeAutoencoder, Rng,
                        Tensor, adversary_score, decode, encode_aae,
                        encode_mean, encode_vae, load_checkpoint,
                        resolve_variant, save_checkpoint, set_norm_mode)
from latentwalk import tensor as T
from latentwalk.layers import Activation, BatchNormLayer, DenseLayer, Dropout


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_magnitude():
    """With bias correction, step one moves by ~alpha regardless of |grad|."""
    for g in (0.01, 1.0, 250.0):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([g])
        Adam([p], alpha=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8).step()
        assert abs(p.data[0] - (1.0 - 2e-4)) < 1e-8


def test_adam_missing_grad_rejected():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractViolation):
        Adam([p], alpha=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8).step()


@pytest.mark.parametrize("key,value", [
    ("alpha", 0.0), ("alpha", -1.0), ("alpha", np.inf), ("beta1", 1.0),
    ("beta1", 2.0), ("beta1", -0.1), ("beta2", 1.0), ("epsilon", 0.0),
    ("epsilon", np.nan)])
def test_adam_rejects_settings_out_of_range(key, value):
    """alpha and epsilon must be finite and > 0, beta1 and beta2 in [0, 1)."""
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractViolation):
        Adam([p], **{key: value})


def test_failed_adam_step_changes_nothing():
    """A step that rejects one parameter's gradient leaves every parameter,
    moment and the step count as they were: the next good step equals a
    fresh optimizer's first."""
    def pair():
        return (Tensor(np.array([1.0]), requires_grad=True),
                Tensor(np.array([[2.0, 3.0]]), requires_grad=True))

    a, b = pair()
    opt = Adam([a, b])
    a.grad = np.array([0.5])
    with pytest.raises(ContractViolation):
        opt.step()
    assert a.data.tolist() == [1.0] and b.data.tolist() == [[2.0, 3.0]]
    assert opt.step_count == 0
    b.grad = np.array([[0.25, -4.0]])
    opt.step()
    ref_a, ref_b = pair()
    ref_a.grad, ref_b.grad = a.grad, b.grad
    Adam([ref_a, ref_b]).step()
    assert a.data.tobytes() == ref_a.data.tobytes()
    assert b.data.tobytes() == ref_b.data.tobytes()
    assert opt.step_count == 1


def test_adam_rejects_a_gradient_of_the_wrong_shape():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    p.grad = np.zeros(6)
    with pytest.raises(ContractViolation):
        Adam([p]).step()
    assert np.all(p.data == 0.0)


def _reference_adam(params, grads, m, v, step, alpha, beta1, beta2, epsilon):
    """The per-parameter formula, one parameter at a time."""
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
        m_hat = m[i] / (1.0 - beta1 ** step)
        v_hat = v[i] / (1.0 - beta2 ** step)
        p -= alpha * m_hat / (np.sqrt(v_hat) + epsilon)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_is_byte_identical_to_the_per_parameter_formula(dtype):
    shapes = [(3, 4), (4,), (1,), (5, 1), (2, 3)]
    rng = np.random.default_rng(11)
    init = [rng.normal(size=s).astype(dtype) for s in shapes]
    params = [Tensor(a, requires_grad=True, dtype=dtype) for a in init]
    opt = Adam(params, alpha=1e-2, beta1=0.5, beta2=0.999, epsilon=1e-8)
    ref = [a.copy() for a in init]
    m = [np.zeros_like(a) for a in init]
    v = [np.zeros_like(a) for a in init]
    for step in range(1, 6):
        grads = [(rng.normal(size=s) * 10.0 ** rng.integers(-3, 3)).astype(dtype)
                 for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        _reference_adam(ref, grads, m, v, step, 1e-2, 0.5, 0.999, 1e-8)
        for p, r in zip(params, ref):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == r.tobytes()


def test_adam_descends_a_quadratic():
    p = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([p], alpha=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = T.tsum(T.hadamard(p, p))
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 0.05


# ---------------------------------------------------------------------------
# layers


def test_dense_layer_shapes_and_xavier_bounds():
    layer = DenseLayer(6, 4, Rng(0))
    assert layer.weights.shape == (4, 6)
    assert layer.bias.shape == (4,)
    limit = np.sqrt(6.0 / (6 + 4))
    assert np.all(np.abs(layer.weights.data) <= limit)
    assert np.all(layer.bias.data == 0.0)
    out = layer(Tensor(np.ones((3, 6))))
    assert out.shape == (3, 4)


def test_batchnorm_train_standardizes_batch():
    bn = BatchNormLayer(3)
    x = Tensor(np.random.default_rng(0).normal(2.0, 5.0, size=(256, 3)))
    out = bn(x)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(out.data.var(axis=0), 1.0, atol=1e-6)


def test_batchnorm_running_stats_update_is_opt_in():
    bn = BatchNormLayer(2)
    x = Tensor(np.full((8, 2), 10.0) + np.random.default_rng(1).normal(size=(8, 2)))
    before = bn.running_mean.copy()
    bn(x)  # plain forward: stats untouched
    assert np.array_equal(bn.running_mean, before)
    bn(x, update_running=True)
    assert not np.array_equal(bn.running_mean, before)


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNormLayer(2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        bn(Tensor(rng.normal(3.0, 2.0, size=(64, 2))), update_running=True)
    bn.mode = "eval"
    x = Tensor(rng.normal(3.0, 2.0, size=(64, 2)))
    out_eval = bn(x)
    bn.mode = "train"
    out_train = bn(x)
    assert not np.allclose(out_eval.data, out_train.data)
    # eval mode is per-sample: a single row must not be mapped to zero
    single = bn.__call__
    bn.mode = "eval"
    one = single(Tensor(np.array([[10.0, 10.0]])))
    assert np.all(np.abs(one.data) > 0.5)


def test_float32_model_holds_only_float32_arrays():
    """Running statistics too, also after training moved them."""
    model = GenerativeAutoencoder("vae", 3, 2, hidden_dims=(4,),
                                  dtype=np.float32)
    x = Tensor(Rng(3).uniform((8, 3)), dtype=np.float32)
    decode(model, encode_vae(model, x, Rng(4), update_running=True)[0],
           update_running=True)
    dtypes = {name: a.dtype for name, a in model.named_arrays()}
    assert any(name.endswith("running_var") for name in dtypes)
    assert set(dtypes.values()) == {np.dtype(np.float32)}


def test_batchnorm_train_mode_rejects_a_single_row():
    bn = BatchNormLayer(2)
    with pytest.raises(ContractViolation):
        bn(Tensor(np.array([[1.0, 2.0]])))
    bn.mode = "eval"
    assert bn(Tensor(np.array([[1.0, 2.0]]))).shape == (1, 2)


def test_saturated_float32_decoder_stays_inside_cross_entropy_domain():
    from latentwalk.models import decode
    from latentwalk.objectives import recon_cross_entropy
    model = GenerativeAutoencoder("vae", data_dim=2, latent_dim=2,
                                  hidden_dims=(4,), init_seed=0,
                                  dtype=np.float32)
    last = model.decoder[-1]
    last.weights.data[...] = 0.0
    last.bias.data[...] = [-120.0, 120.0]  # sigmoid rounds to 0 and 1
    y = decode(model, Tensor(np.zeros((3, 2)), dtype=np.float32))
    assert y.data.dtype == np.float32
    assert np.all(y.data > 0.0) and np.all(y.data < 1.0)
    loss = recon_cross_entropy(Tensor(np.full((3, 2), 0.5), dtype=np.float32), y)
    assert np.isfinite(loss.data)


def test_dropout_inactive_is_identity():
    d = Dropout(0.5)
    x = Tensor(np.ones((4, 4)))
    assert np.array_equal(d(x, active=False).data, x.data)


def test_dropout_active_scales_survivors():
    d = Dropout(0.5)
    x = Tensor(np.ones((2000, 1)))
    out = d(x, rng=Rng(0), active=True).data
    assert set(np.unique(out)).issubset({0.0, 2.0})
    assert abs(out.mean() - 1.0) < 0.1


def test_activation_kinds():
    x = Tensor(np.array([-2.0, 2.0]))
    assert np.allclose(Activation("relu")(x).data, [0.0, 2.0])
    assert np.allclose(Activation("leaky_relu", 0.2)(x).data, [-0.4, 2.0])
    assert np.allclose(Activation("sigmoid")(x).data,
                       1.0 / (1.0 + np.exp([2.0, -2.0])))
    with pytest.raises(ContractViolation):
        Activation("swish")


@pytest.mark.parametrize("make", [lambda: DenseLayer(2, 2, Rng(0)),
                                  lambda: BatchNormLayer(2),
                                  lambda: Activation("relu"),
                                  lambda: Dropout(0.5)],
                         ids=["dense", "batchnorm", "activation", "dropout"])
def test_every_layer_takes_the_same_flags(make):
    """A model runs any stack with one call; a misspelt flag still fails."""
    layer, x = make(), Tensor(np.ones((4, 2)))
    out = layer(x, rng=Rng(1), active=False, update_running=False)
    assert out.shape == (4, 2)
    with pytest.raises(TypeError):
        layer(x, update_runing=True)


# ---------------------------------------------------------------------------
# model construction


def test_variant_validation():
    with pytest.raises(ContractViolation):
        GenerativeAutoencoder("gan", 2, 2)
    with pytest.raises(ContractViolation):
        GenerativeAutoencoder("vae", 0, 2)
    with pytest.raises(ContractViolation):
        GenerativeAutoencoder("vae", 2, 2, hidden_dims=())
    with pytest.raises(ContractViolation):
        GenerativeAutoencoder("vae", 2, 2, corruption_variance=-0.1)


def test_numpy_integer_dimensions_are_saved_as_ints(tmp_path):
    model = GenerativeAutoencoder("aae", np.int64(3), np.int32(2),
                                  hidden_dims=(np.int64(4),),
                                  adversary_dims=(np.uint8(5),))
    arch = model.arch()
    assert json.loads(json.dumps(arch)) == arch
    assert [type(v) for v in (arch["data_dim"], arch["latent_dim"],
                              *arch["hidden_dims"], *arch["adversary_dims"])] \
        == [int] * 4
    save_checkpoint(model, tmp_path / "model.ckpt")
    assert load_checkpoint(tmp_path / "model.ckpt").arch() == arch


@pytest.mark.parametrize("dims", [dict(data_dim=3.0), dict(latent_dim="2"),
                                  dict(hidden_dims=(4.5,))])
def test_non_integer_dimensions_are_rejected(dims):
    args = dict(variant="vae", data_dim=3, latent_dim=2) | dims
    with pytest.raises(ContractViolation, match="integers"):
        GenerativeAutoencoder(**args)


def test_aae_narrow_head_rejected():
    """A deterministic encoder head narrower than the code cannot span it."""
    with pytest.raises(ContractViolation):
        GenerativeAutoencoder("aae", 8, 4, hidden_dims=(16, 3))
    # exactly latent_dim wide is allowed
    GenerativeAutoencoder("aae", 8, 4, hidden_dims=(16, 4))
    # VAE has a stochastic head and is exempt
    GenerativeAutoencoder("vae", 8, 4, hidden_dims=(16, 3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", ["vae", "dvae", "aae", "daae"])
def test_arch_rebuilds_the_model_through_json(name, dtype):
    variant, denoising = resolve_variant(name)
    model = GenerativeAutoencoder(variant, data_dim=3, latent_dim=2,
                                  hidden_dims=(6, 4), adversary_dims=(5,),
                                  denoising=denoising, corruption_variance=0.1,
                                  init_seed=7, dtype=dtype)
    clone = GenerativeAutoencoder(**json.loads(json.dumps(model.arch())))
    assert clone.arch() == model.arch()
    assert clone.fingerprint() == model.fingerprint()
    assert clone.dtype == dtype
    assert clone.name == name


def test_init_is_seeded(tiny_vae):
    twin = GenerativeAutoencoder("vae", 2, 2, hidden_dims=(8, 8), init_seed=0)
    assert tiny_vae.fingerprint() == twin.fingerprint()
    other = GenerativeAutoencoder("vae", 2, 2, hidden_dims=(8, 8), init_seed=1)
    assert tiny_vae.fingerprint() != other.fingerprint()


def test_fingerprint_tracks_parameters(tiny_vae):
    before = tiny_vae.fingerprint()
    tiny_vae.encoder_params()[0].data[0, 0] += 1e-9
    assert tiny_vae.fingerprint() != before


def test_fresh_vae_variance_head_is_tame(tiny_vae):
    """A new model should encode with sigma near 0.5 for any in-range batch."""
    x = Tensor(Rng(4).uniform((64, 2)))
    _, _, sigma = encode_vae(tiny_vae, x, Rng(5))
    assert np.all(sigma.data > 0.3)
    assert np.all(sigma.data < 0.9)


# ---------------------------------------------------------------------------
# encode / decode behaviour


def test_vae_encode_shapes_and_reparameterisation(tiny_vae):
    x = Tensor(Rng(6).uniform((10, 2)))
    z, mu, sigma = encode_vae(tiny_vae, x, Rng(7))
    assert z.shape == mu.shape == sigma.shape == (10, 2)
    assert np.all(sigma.data > 0.0)
    # same noise stream reproduces z; a different one moves it
    z2, _, _ = encode_vae(tiny_vae, x, Rng(7))
    assert np.array_equal(z.data, z2.data)
    z3, _, _ = encode_vae(tiny_vae, x, Rng(8))
    assert not np.array_equal(z.data, z3.data)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_vae_sigma_strictly_positive(seed):
    model = GenerativeAutoencoder("vae", 3, 2, hidden_dims=(8,), init_seed=seed)
    x = Tensor(Rng(seed).uniform((32, 3)))
    _, _, sigma = encode_vae(model, x, Rng(seed + 1))
    assert np.all(sigma.data > 0.0)


def test_aae_encode_is_deterministic(tiny_aae):
    x = Tensor(Rng(9).uniform((10, 2)))
    assert np.array_equal(encode_aae(tiny_aae, x).data,
                          encode_aae(tiny_aae, x).data)


def test_encode_mean_matches_vae_mu(tiny_vae):
    x = Tensor(Rng(10).uniform((6, 2)))
    _, mu, _ = encode_vae(tiny_vae, x, Rng(11))
    assert np.allclose(encode_mean(tiny_vae, x).data, mu.data)


def test_decode_range_is_open_unit_interval(tiny_vae):
    z = Tensor(Rng(12).normal((50, 2)) * 20.0)
    y = decode(tiny_vae, z)
    assert np.all(y.data > 0.0)
    assert np.all(y.data < 1.0)


def test_adversary_scores_in_unit_interval(tiny_aae):
    z = Tensor(Rng(13).normal((32, 2)))
    s = adversary_score(tiny_aae, z)
    assert s.shape == (32, 1)
    assert np.all(s.data > 0.0) and np.all(s.data < 1.0)


def test_train_mode_adversary_without_an_rng_is_refused(tiny_aae):
    """The adversary's active dropout layer owns the rng check."""
    with pytest.raises(ContractViolation, match="dropout requires an rng"):
        adversary_score(tiny_aae, Tensor(Rng(13).normal((4, 2))), train=True)


def test_adversary_without_a_hidden_layer_needs_no_rng_to_train():
    """No hidden layer means no dropout, so train mode runs without an rng."""
    aae = GenerativeAutoencoder("aae", data_dim=2, latent_dim=2,
                                hidden_dims=(8,), adversary_dims=(),
                                init_seed=0)
    z = Tensor(Rng(13).normal((4, 2)))
    assert np.array_equal(adversary_score(aae, z, train=True).data,
                          adversary_score(aae, z).data)


def test_vae_has_no_adversary(tiny_vae):
    assert tiny_vae.adversary is None
    with pytest.raises(ContractViolation):
        adversary_score(tiny_vae, Tensor(np.zeros((2, 2))))


def test_set_norm_mode_flips_every_norm_layer(tiny_aae):
    set_norm_mode(tiny_aae, "eval")
    assert all(bn.mode == "eval" for bn in tiny_aae.norm_layers())
    set_norm_mode(tiny_aae, "train")
    assert all(bn.mode == "train" for bn in tiny_aae.norm_layers())
    with pytest.raises(ContractViolation):
        set_norm_mode(tiny_aae, "frozen")


def test_chain_encode_decode_roundtrip_shapes(tiny_vae):
    x = Rng(14).uniform((21, 2))
    z = tiny_vae.chain_encode(x, Rng(15))
    assert isinstance(z, np.ndarray) and z.shape == (21, 2)
    y = tiny_vae.chain_decode(z, Rng(16))
    assert isinstance(y, np.ndarray) and y.shape == (21, 2)
    assert np.all((y > 0.0) & (y < 1.0))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("variant", ["vae", "aae"])
def test_sampling_protocol_leaves_gradients_unset(variant, dtype):
    model = GenerativeAutoencoder(variant, 2, 2, hidden_dims=(8,),
                                  adversary_dims=(8,), init_seed=0,
                                  dtype=dtype)
    set_norm_mode(model, "eval")
    rng = Rng(17)
    z = model.chain_encode(model.chain_decode(rng.normal((5, 2)), rng), rng)
    assert z.dtype == dtype
    assert all(p.grad is None for p in model.all_params())
