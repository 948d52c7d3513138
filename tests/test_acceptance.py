"""Acceptance criteria A1-A9.

One test per criterion; each prints a single verdict line with the measured
quantity next to its threshold, then asserts. Criteria with runtime budgets
assert those too.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from latentwalk import (ContractViolation, CorruptionSpec,
                        GenerativeAutoencoder, LatentBatch, OracleSystem,
                        PriorSpec, Rng, Tensor, TrainConfig,
                        adversarial_losses, adversary_score, chain_diagnostics,
                        corrupt, decode, denoising_transition_step, encode_aae,
                        encode_vae, gen_gaussian_mixture, kl_prior_gaussian,
                        oracle_sample_chain, random_contractive_system,
                        recon_cross_entropy, run_chain, sample_prior,
                        set_norm_mode, slerp, solve_stationary_cov,
                        train_model, transition_step)
from latentwalk import tensor as T
from latentwalk.cli import main
from latentwalk.tensor import finite_diff_check


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_a1_gradient_oracle():
    """Full VAE and AAE losses against central finite differences."""
    start = time.time()
    x = np.asarray(Rng(99).derive("a1-data").uniform((4, 4)) * 0.9 + 0.05)

    vae = GenerativeAutoencoder("vae", 4, 2, hidden_dims=(8, 8), init_seed=5)
    eps = Rng(7).derive("a1-eps").normal((4, 2))

    def vae_loss():
        h = vae.encoder_head(Tensor(x))
        mu = T.tslice(h, 0, 2)
        sigma = T.exp(T.tslice(h, 2, 4))
        z = T.add(mu, T.hadamard(Tensor(eps), sigma))
        y = decode(vae, z)
        return T.add(recon_cross_entropy(Tensor(x), y),
                     kl_prior_gaussian(mu, sigma))

    err_vae = finite_diff_check(vae_loss, vae.all_params())

    aae = GenerativeAutoencoder("aae", 4, 2, hidden_dims=(8, 8),
                                adversary_dims=(8,), init_seed=6)
    z_real = Rng(11).derive("a1-zreal").normal((4, 2))

    def aae_loss():
        z = encode_aae(aae, Tensor(x))
        y = decode(aae, z)
        d_real = adversary_score(aae, Tensor(z_real),
                                 rng=Rng(13).derive("a1-drop1"), train=True)
        d_fake = adversary_score(aae, z,
                                 rng=Rng(13).derive("a1-drop2"), train=True)
        disc, gen = adversarial_losses(d_real, d_fake)
        return T.add(T.add(recon_cross_entropy(Tensor(x), y), disc), gen)

    err_aae = finite_diff_check(aae_loss, aae.all_params())
    elapsed = time.time() - start
    worst = max(err_vae, err_aae)
    _verdict("A1", worst < 1e-4 and elapsed < 10.0,
             f"max relative gradient error {worst:.3e} (< 1e-4), "
             f"{elapsed:.1f}s (< 10s)")


def test_a2_kl_closed_form_vs_monte_carlo():
    """50 random (mu, sigma) configurations, dimension 8, 1e6 draws each."""
    start = time.time()
    rng = Rng(42).derive("a2")
    worst = 0.0
    for _ in range(50):
        mu = rng.normal((1, 8)) * 2.0
        sigma = np.exp(rng.normal((1, 8)) * 0.5)
        closed = kl_prior_gaussian(Tensor(mu), Tensor(sigma)).item()
        acc = 0.0
        for _ in range(4):  # 4 x 250k draws
            eps = rng.normal((250_000, 8))
            z = mu + sigma * eps
            log_q = -0.5 * np.sum(eps ** 2, axis=1) - np.sum(np.log(sigma))
            log_p = -0.5 * np.sum(z ** 2, axis=1)
            acc += float(np.sum(log_q - log_p))
        mc = acc / 1_000_000
        worst = max(worst, abs(closed - mc) / abs(mc))
    elapsed = time.time() - start
    _verdict("A2", worst < 0.01 and elapsed < 60.0,
             f"worst relative error {worst:.4%} (< 1%), "
             f"{elapsed:.1f}s (< 60s)")


def test_a3_chains_walk_toward_encoded_distribution():
    """Trained VAE: mmd_to_encoded at step 5 under step 0 in >= 90% of seeds.

    Training is held at 80 optimizer steps (256 samples, batch 64, 20 epochs)
    so the encoder still carries a measurable gap between its aggregate output
    distribution and the prior; at full convergence on this 2-d dataset the
    gap closes and there is nothing left for the chain to walk into.
    """
    start = time.time()
    wins = 0
    seeds = range(20)
    for seed in seeds:
        data = gen_gaussian_mixture(256, seed=seed)
        model = GenerativeAutoencoder("vae", 2, 2, init_seed=seed)
        cfg = TrainConfig(epochs=20, batch_size=64, seed=seed)
        train_model(model, data, cfg)
        set_norm_mode(model, "train")
        rng = Rng(seed).derive("eval")
        held_out = gen_gaussian_mixture(500, seed=seed, split="test")
        reference = LatentBatch(model.chain_encode(held_out.samples, rng),
                                provenance="encoded")
        z0 = sample_prior(500, PriorSpec(2), rng)
        trace = run_chain(model, z0, steps=5, rng=rng)
        report = chain_diagnostics(trace, reference, PriorSpec(2))
        if report.mmd_to_encoded[5] < report.mmd_to_encoded[0]:
            wins += 1
    elapsed = time.time() - start
    _verdict("A3", wins >= 18 and elapsed < 600.0,
             f"step-5 improvement in {wins}/20 seeds (>= 18), "
             f"{elapsed:.0f}s (< 600s)")


def test_a4_sampled_chain_covariance_matches_analytic():
    """T=200 chain covariance vs the stationary fixed point, 5% Frobenius."""
    start = time.time()
    failures = []

    def check(tag, sys):
        target = solve_stationary_cov(sys)
        z0 = np.zeros((10_000, sys.latent_dim))
        path = oracle_sample_chain(sys, z0, steps=200,
                                   rng=Rng(1000).derive(tag))
        emp = np.cov(path[-1].T, bias=True).reshape(sys.latent_dim,
                                                    sys.latent_dim)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        if rel > 0.05:
            failures.append(f"{tag}: {rel:.3f}")
        return rel

    base = OracleSystem(E=np.eye(2), D=0.5 * np.eye(2),
                        decoder_noise_variance=1.0)
    base_rel = check("half-identity", base)
    analytic_gap = np.linalg.norm(solve_stationary_cov(base)
                                  - (4.0 / 3.0) * np.eye(2))

    rng = Rng(1000)
    rels = []
    for k in range(10):
        b = 1 + k % 4
        sys = random_contractive_system(
            rng, latent_dim=b, data_dim=b + 1 + k % 3,
            target_radius=0.3 + 0.06 * k, decoder_noise_variance=1.0)
        rels.append(check(f"random-{k}", sys))
    elapsed = time.time() - start
    _verdict("A4", not failures and analytic_gap < 1e-8 and elapsed < 60.0,
             f"base {base_rel:.3f}, worst random {max(rels):.3f} (< 0.05), "
             f"analytic gap {analytic_gap:.1e}, {elapsed:.1f}s (< 60s)"
             + (f"; failures: {failures}" if failures else ""))


def test_a5_corruption_reduction_and_augmentation():
    """Variance 0 reduces the denoising kernel to the plain kernel bit for
    bit; on the linear system the corruption inflates Q by exactly
    corruption_variance * E Eᵀ."""
    start = time.time()
    model = GenerativeAutoencoder("vae", 2, 2, hidden_dims=(8, 8), init_seed=3)
    z0 = sample_prior(64, PriorSpec(2), Rng(20))
    x_p, z_p = transition_step(model, z0, Rng(21))
    x_n, x_tilde, z_n = denoising_transition_step(model, z0,
                                                  CorruptionSpec(0.0), Rng(21))
    bit_identical = (np.array_equal(z_p.values, z_n.values)
                     and np.array_equal(x_p, x_n)
                     and np.array_equal(x_tilde, x_n))

    E = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]])
    D = np.array([[0.4, 0.0], [0.0, 0.4], [0.1, 0.1]])
    plain = OracleSystem(E, D, decoder_noise_variance=0.5)
    noisy = OracleSystem(E, D, decoder_noise_variance=0.5,
                         corruption_variance=0.25)
    q_gap = np.max(np.abs((noisy.Q - plain.Q) - 0.25 * (E @ E.T)))

    z_start = Rng(22).normal((10_000, 2))
    cov_in = np.cov(z_start.T, bias=True)
    rels = []
    for sys in (plain, noisy):
        step = oracle_sample_chain(sys, z_start, steps=1, rng=Rng(23))[1]
        expected = sys.M @ cov_in @ sys.M.T + sys.Q
        emp = np.cov(step.T, bias=True)
        rels.append(np.linalg.norm(emp - expected) / np.linalg.norm(expected))
    elapsed = time.time() - start
    _verdict("A5", bit_identical and q_gap == 0.0 and max(rels) < 0.02
             and elapsed < 30.0,
             f"zero-variance reduction bit-identical={bit_identical}, "
             f"Q augmentation gap {q_gap:.1e} (exact), one-step covariance "
             f"errors {rels[0]:.4f}/{rels[1]:.4f} (< 0.02), "
             f"{elapsed:.1f}s (< 30s)")


def test_a6_denoising_beats_the_corruption_it_was_trained_on():
    """DVAE at variance 0.25: reconstruction closer to clean than the
    corrupted input is, on held-out data, in >= 18 of 20 seeds."""
    start = time.time()
    wins = 0
    for seed in range(20):
        data = gen_gaussian_mixture(1024, seed=seed)
        model = GenerativeAutoencoder("vae", 2, 2, denoising=True,
                                      corruption_variance=0.25, init_seed=seed)
        cfg = TrainConfig(epochs=20, batch_size=64, seed=seed, denoising=True,
                          corruption=CorruptionSpec(0.25))
        train_model(model, data, cfg)
        held_out = gen_gaussian_mixture(512, seed=seed, split="test")
        rng = Rng(seed).derive("a6")
        corrupted = corrupt(held_out.samples, CorruptionSpec(0.25), rng)
        recon = model.chain_decode(model.chain_encode(corrupted, rng), rng)
        corr_err = float(np.mean(np.sum((corrupted - held_out.samples) ** 2,
                                        axis=1)))
        rec_err = float(np.mean(np.sum((recon - held_out.samples) ** 2,
                                       axis=1)))
        if rec_err < corr_err:
            wins += 1
    elapsed = time.time() - start
    _verdict("A6", wins >= 18 and elapsed < 600.0,
             f"reconstruction beat corruption in {wins}/20 seeds (>= 18), "
             f"{elapsed:.0f}s (< 600s)")


def test_a7_slerp_properties():
    endpoint_exact = True
    norm_worst = 0.0
    rng = np.random.default_rng(123)
    for _ in range(100):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        if np.dot(a, b) < -0.999:  # keep clear of the antipodal guard
            b = -b
        endpoint_exact &= np.array_equal(slerp(a, b, 0.0), a)
        endpoint_exact &= np.array_equal(slerp(a, b, 1.0), b)
        for t in np.linspace(0.0, 1.0, 100):
            norm_worst = max(norm_worst,
                             abs(np.linalg.norm(slerp(a, b, t)) - 1.0))
    _verdict("A7", endpoint_exact and norm_worst < 1e-9,
             f"endpoints exact={endpoint_exact}, worst unit-norm deviation "
             f"{norm_worst:.2e} (< 1e-9)")


def test_a8_construction_gates():
    try:
        GenerativeAutoencoder("aae", 8, 4, hidden_dims=(16, 3))
        narrow_rejected = False
    except ContractViolation:
        narrow_rejected = True

    sigma_min = np.inf
    rng = Rng(31)
    for seed in range(10):
        model = GenerativeAutoencoder("vae", 4, 2, hidden_dims=(16,),
                                      init_seed=seed)
        x = Tensor(rng.uniform((1000, 4)))
        _, _, sigma = encode_vae(model, x, rng)
        sigma_min = min(sigma_min, float(sigma.data.min()))
    _verdict("A8", narrow_rejected and sigma_min > 0.0,
             f"narrow AAE head rejected={narrow_rejected}, minimum sigma over "
             f"10^4 head outputs {sigma_min:.3e} (> 0)")


def test_a9_cli_determinism(tmp_path):
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text("train_size = 96\ntest_size = 64\nepochs = 2\n"
                        "batch_size = 32\nchains = 24\nsteps = 0,1\n")

    def run_twice(subcommand, extra):
        dirs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{subcommand}-{tag}"
            argv = [subcommand, "--seed", "7", "--config", str(cfg_path),
                    "--out", str(out)] + extra
            assert main(argv) == 0
            dirs.append(out)
        return dirs

    mismatches = []

    def compare(a: Path, b: Path):
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            left = (a / name).read_bytes()
            right = (b / name).read_bytes()
            if name == "manifest.json":
                la = json.loads(left)
                lb = json.loads(right)
                for m in (la, lb):
                    m.pop("timestamp")
                    # the output directory is a run parameter, not a product
                    for key in ("inputs", "outputs"):
                        m[key] = [Path(p).name for p in m[key]]
                if la != lb:
                    mismatches.append(f"{a.name}/{name}")
            elif left != right:
                mismatches.append(f"{a.name}/{name}")

    t1, t2 = run_twice("train", ["--variant", "vae"])
    compare(t1, t2)
    ckpt = str(t1 / "model.ckpt")
    s1, s2 = run_twice("sample", ["--checkpoint", ckpt])
    compare(s1, s2)
    e1, e2 = run_twice("evaluate", ["--checkpoint", ckpt])
    compare(e1, e2)
    _verdict("A9", not mismatches,
             "train/sample/evaluate byte-identical across equal seeds "
             "(manifests equal modulo timestamp)"
             + (f"; mismatches: {mismatches}" if mismatches else ""))
