"""Loss functions and the training loop.

Closed-form oracle values used below (all hand-derived):
  cross-entropy of a 0.5 prediction against a 0.5 target = log 2 per coordinate
  KL(N(1,1) || N(0,1)) = 0.5            KL(N(0,e) || N(0,1)) = (e-2)/2
  discriminator loss with both scores at 0.5 = 2 log 2
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import (ContractViolation, CorruptionSpec, DomainError,
                        GenerativeAutoencoder, OracleSystem, Rng,
                        ShapeMismatchError, Tensor,
                        TrainConfig, adversarial_losses, corrupt,
                        gen_gaussian_mixture, kl_prior_gaussian,
                        recon_cross_entropy, recon_squared_error,
                        train_epoch, train_model, write_loss_log)
from latentwalk import objectives
from latentwalk import tensor as T
from latentwalk.objectives import init_train_state


# ---------------------------------------------------------------------------
# corruption


def test_zero_variance_corruption_is_bit_exact_identity():
    x = Rng(0).uniform((64, 3))
    rng = Rng(1)
    out = corrupt(x, CorruptionSpec(0.0), rng)
    assert np.array_equal(out, x)
    # and the stream was not consumed
    assert np.array_equal(rng.normal((4,)), Rng(1).normal((4,)))


def test_corruption_adds_the_declared_variance():
    x = np.full((200_000, 1), 0.5)
    noised = corrupt(x, CorruptionSpec(0.25), Rng(2))
    diff = noised - x
    assert abs(diff.mean()) < 0.005
    assert abs(diff.var() - 0.25) < 0.005


def test_corruption_spec_validation():
    with pytest.raises(ContractViolation):
        CorruptionSpec(-1.0)


@pytest.mark.parametrize("variance", [True, np.True_, "x", None, math.nan,
                                      math.inf, -1], ids=repr)
@pytest.mark.parametrize("build", [
    CorruptionSpec,
    lambda v: GenerativeAutoencoder("vae", 2, 2, corruption_variance=v),
    lambda v: OracleSystem(np.eye(2), 0.5 * np.eye(2),
                           decoder_noise_variance=v),
    lambda v: OracleSystem(np.eye(2), 0.5 * np.eye(2), corruption_variance=v),
], ids=["spec", "model", "oracle-decoder-noise", "oracle-corruption"])
def test_every_noise_variance_goes_through_corruption_spec(build, variance):
    with pytest.raises(ContractViolation):
        build(variance)


def test_corruption_spec_stores_a_float():
    assert objectives.CorruptionSpec is CorruptionSpec
    for v in (1, np.int64(0), np.float32(0.5)):
        assert type(CorruptionSpec(v).variance) is float
        assert CorruptionSpec(v).variance == v


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=4.0),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_corruption_is_seed_deterministic(var, seed):
    x = Rng(seed).uniform((32, 2))
    a = corrupt(x, CorruptionSpec(var), Rng(seed + 1))
    b = corrupt(x, CorruptionSpec(var), Rng(seed + 1))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# reconstruction losses


def test_cross_entropy_oracle_value():
    pred = Tensor(np.full((3, 4), 0.5))
    target = Tensor(np.full((3, 4), 0.5))
    # sums over the 4 coordinates, averages over the 3 rows
    assert math.isclose(recon_cross_entropy(pred, target).item(),
                        4 * math.log(2), rel_tol=1e-12)


def test_cross_entropy_minimised_at_target():
    target = Tensor(np.array([[0.3, 0.8]]))
    at_target = recon_cross_entropy(target, Tensor(np.array([[0.3, 0.8]]))).item()
    off_target = recon_cross_entropy(target, Tensor(np.array([[0.5, 0.5]]))).item()
    assert at_target < off_target


def test_cross_entropy_domain_checks():
    """Targets may touch {0,1}; predictions must stay strictly inside."""
    ok = Tensor(np.array([[0.5]]))
    recon_cross_entropy(Tensor(np.array([[0.0]])), ok)  # boundary target fine
    recon_cross_entropy(Tensor(np.array([[1.0]])), ok)
    with pytest.raises(DomainError):
        recon_cross_entropy(ok, Tensor(np.array([[0.0]])))
    with pytest.raises(DomainError):
        recon_cross_entropy(ok, Tensor(np.array([[1.0]])))
    with pytest.raises(ContractViolation):
        recon_cross_entropy(Tensor(np.array([[1.5]])), ok)


@pytest.mark.parametrize("loss", [recon_cross_entropy, recon_squared_error])
def test_reconstruction_losses_refuse_a_shape_mismatch_with_one_error_type(loss):
    x = Tensor(np.full((3, 2), 0.5))
    for x_hat in (np.full((3, 1), 0.5), np.full((1, 2), 0.5)):
        with pytest.raises(ShapeMismatchError):
            loss(x, Tensor(x_hat))


def test_squared_error_oracle_value():
    pred = Tensor(np.array([[1.0, 2.0]]))
    target = Tensor(np.array([[0.0, 0.0]]))
    assert math.isclose(recon_squared_error(pred, target).item(), 2.5,
                        rel_tol=1e-12)  # 0.5 * (1 + 4)


# ---------------------------------------------------------------------------
# prior term


def test_kl_oracle_values():
    one = Tensor(np.array([[1.0]]))
    assert math.isclose(kl_prior_gaussian(one, one).item(), 0.5, rel_tol=1e-12)
    mu = Tensor(np.array([[0.0]]))
    sigma = Tensor(np.array([[math.sqrt(math.e)]]))
    assert math.isclose(kl_prior_gaussian(mu, sigma).item(), (math.e - 2) / 2,
                        rel_tol=1e-12)


def test_kl_zero_at_prior():
    mu = Tensor(np.zeros((5, 3)))
    sigma = Tensor(np.ones((5, 3)))
    assert abs(kl_prior_gaussian(mu, sigma).item()) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_kl_non_negative(seed):
    r = np.random.default_rng(seed)
    mu = Tensor(r.normal(size=(4, 3)) * 3)
    sigma = Tensor(np.exp(r.normal(size=(4, 3))))
    assert kl_prior_gaussian(mu, sigma).item() >= 0.0


def test_kl_rejects_non_positive_sigma():
    with pytest.raises(ContractViolation):
        kl_prior_gaussian(Tensor(np.zeros((1, 1))), Tensor(np.array([[0.0]])))


def test_kl_mc_agreement_small():
    """Spot check against Monte Carlo before the full acceptance sweep."""
    rng = Rng(3)
    mu = rng.normal((1, 4))
    sigma = np.exp(rng.normal((1, 4)) * 0.3)
    closed = kl_prior_gaussian(Tensor(mu), Tensor(sigma)).item()
    eps = rng.normal((200_000, 4))
    z = mu + sigma * eps
    log_q = -0.5 * np.sum(eps ** 2, axis=1) - np.sum(np.log(sigma))
    log_p = -0.5 * np.sum(z ** 2, axis=1)
    mc = float(np.mean(log_q - log_p))
    assert abs(closed - mc) / abs(mc) < 0.02


# ---------------------------------------------------------------------------
# adversarial terms


def test_adversarial_oracle_values():
    half = Tensor(np.full((4, 1), 0.5))
    disc, gen = adversarial_losses(half, half)
    assert math.isclose(disc.item(), 2 * math.log(2), rel_tol=1e-12)
    assert math.isclose(gen.item(), math.log(2), rel_tol=1e-12)


def test_adversarial_losses_reward_confident_discriminator():
    good = adversarial_losses(Tensor(np.array([[0.99]])),
                              Tensor(np.array([[0.01]])))[0].item()
    bad = adversarial_losses(Tensor(np.array([[0.5]])),
                             Tensor(np.array([[0.5]])))[0].item()
    assert good < bad


def test_adversarial_domain_checks():
    ok = Tensor(np.array([[0.5]]))
    for boundary in (0.0, 1.0):
        with pytest.raises(DomainError):
            adversarial_losses(Tensor(np.array([[boundary]])), ok)
        with pytest.raises(DomainError):
            adversarial_losses(ok, Tensor(np.array([[boundary]])))


# ---------------------------------------------------------------------------
# training loop


def test_train_config_validation():
    with pytest.raises(ContractViolation):
        TrainConfig(epochs=0)
    with pytest.raises(ContractViolation):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractViolation):
        TrainConfig(reconstruction_loss="huber")


def test_vae_epoch_reports_both_terms(tiny_vae, tiny_dataset, fast_config):
    state = init_train_state(tiny_vae, fast_config)
    stats = train_epoch(tiny_vae, tiny_dataset, fast_config,
                        state=state, epoch=1)
    assert stats.epoch == 1
    assert isinstance(stats.recon_loss, float)
    assert stats.prior_loss is not None and stats.prior_loss >= 0.0
    assert stats.disc_loss is None and stats.gen_loss is None


def test_aae_epoch_reports_adversarial_terms(tiny_aae, tiny_dataset, fast_config):
    state = init_train_state(tiny_aae, fast_config)
    stats = train_epoch(tiny_aae, tiny_dataset, fast_config,
                        state=state, epoch=1)
    assert stats.prior_loss is None
    assert stats.disc_loss is not None and stats.gen_loss is not None


def test_training_reduces_reconstruction_loss(tiny_vae, fast_config):
    data = gen_gaussian_mixture(256, seed=5)
    cfg = TrainConfig(epochs=10, batch_size=32, seed=5)
    history = train_model(tiny_vae, data, cfg)
    assert len(history) == 10
    assert history[-1].recon_loss < history[0].recon_loss


def test_training_moves_parameters(tiny_aae, tiny_dataset, fast_config):
    before = tiny_aae.fingerprint()
    train_model(tiny_aae, tiny_dataset, fast_config)
    assert tiny_aae.fingerprint() != before


def test_train_is_seed_deterministic(tiny_dataset, fast_config):
    def run():
        model = GenerativeAutoencoder("vae", 2, 2, hidden_dims=(8, 8),
                                      init_seed=3)
        train_model(model, tiny_dataset, fast_config)
        return model.fingerprint()

    assert run() == run()


def test_aae_batch_encodes_once_per_encoder_update(tiny_aae, tiny_dataset,
                                                  monkeypatch):
    """Step (i) encodes for the reconstruction; steps (ii) and (iii) share
    one encoding of the updated encoder, as only the adversary changes
    between them."""
    real, calls = objectives.encode_aae, []
    monkeypatch.setattr(objectives, "encode_aae",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    cfg = TrainConfig(epochs=1, batch_size=32)
    train_epoch(tiny_aae, tiny_dataset, cfg, state=init_train_state(tiny_aae, cfg))
    assert len(calls) == 2 * (len(tiny_dataset) // cfg.batch_size)


def test_aae_batch_builds_four_cross_entropy_nodes(tiny_aae, tiny_dataset,
                                                   monkeypatch):
    """One each for the reconstruction, the adversary's real and fake scores
    and the encoder's step: the adversary's step builds no generator loss."""
    real, calls = T.binary_cross_entropy, []
    monkeypatch.setattr(T, "binary_cross_entropy",
                        lambda *a: calls.append(1) or real(*a))
    cfg = TrainConfig(epochs=1, batch_size=len(tiny_dataset))
    train_epoch(tiny_aae, tiny_dataset, cfg, state=init_train_state(tiny_aae, cfg))
    assert len(calls) == 4


@pytest.mark.parametrize("order", [(np.float32, np.float64),
                                   (np.float64, np.float32)])
def test_models_of_either_precision_share_a_process(tiny_dataset, order):
    """Precision belongs to the model: building or training one model never
    changes the dtype of another, whatever order they come in."""
    cfg = TrainConfig(epochs=1, batch_size=32, seed=2)
    for variant in ("vae", "aae"):
        runs = []
        for dtype in order:
            model = GenerativeAutoencoder(variant, 2, 2, hidden_dims=(8,),
                                          adversary_dims=(8,), init_seed=1,
                                          dtype=dtype)
            state = init_train_state(model, cfg)
            train_epoch(model, tiny_dataset, cfg, state=state)
            runs.append((dtype, model, state))
        for dtype, model, state in runs:
            assert model.dtype == dtype
            assert all(p.data.dtype == dtype for p in model.all_params())
            assert all(p.grad.dtype == dtype for p in model.all_params())
            for opt in (state.opt_recon, state.opt_disc, state.opt_gen):
                if opt:
                    assert opt._m.dtype == opt._v.dtype == dtype


def test_model_dtype_must_be_a_float_width():
    for dtype in (np.float16, "float16", "float3", None):
        with pytest.raises(ContractViolation):
            GenerativeAutoencoder("vae", 2, 2, dtype=dtype)


def test_denoising_flag_must_match_model(tiny_vae, tiny_dataset):
    cfg = TrainConfig(epochs=1, batch_size=32, denoising=True)
    with pytest.raises(ContractViolation):
        train_model(tiny_vae, tiny_dataset, cfg)


def test_denoising_corruption_must_match_model(tiny_dataset):
    """A denoising model trains and walks at its own corruption variance, so
    a config with another one is refused rather than silently overruled."""
    model = GenerativeAutoencoder("vae", 2, 2, hidden_dims=(8, 8),
                                  denoising=True, corruption_variance=0.25,
                                  init_seed=0)
    cfg = TrainConfig(epochs=1, batch_size=32, denoising=True,
                      corruption=CorruptionSpec(0.5))
    with pytest.raises(ContractViolation, match="corruption variance"):
        train_model(model, tiny_dataset, cfg)


def test_denoising_training_runs(tiny_dataset):
    model = GenerativeAutoencoder("vae", 2, 2, hidden_dims=(8, 8),
                                  denoising=True, init_seed=0)
    cfg = TrainConfig(epochs=2, batch_size=32, denoising=True,
                      corruption=CorruptionSpec(0.25))
    history = train_model(model, tiny_dataset, cfg)
    assert len(history) == 2


def test_batch_size_larger_than_dataset_rejected(tiny_vae, tiny_dataset):
    cfg = TrainConfig(epochs=1, batch_size=1000)
    with pytest.raises(ContractViolation):
        train_model(tiny_vae, tiny_dataset, cfg)


def test_loss_log_format(tmp_path, tiny_vae, tiny_dataset, fast_config):
    history = train_model(tiny_vae, tiny_dataset, fast_config)
    path = tmp_path / "losses.csv"
    write_loss_log(path, history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,recon_loss,prior_loss,disc_loss,gen_loss"
    assert len(lines) == 1 + len(history)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == history[0].recon_loss
    assert first[3] == "" and first[4] == ""  # no adversary on a VAE
