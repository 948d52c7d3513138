"""Closed-form linear-Gaussian verifier.

Everything here has a hand-derivable answer. The flagship identity: for
z' = E(D z + noise), the latent map is M = E·D and the injected covariance is
Q = (decoder_var + corruption_var)·E·Eᵀ, so the stationary covariance solves
S = M S Mᵀ + Q. With M = 0.5·I and Q = I that gives S = I / (1 - 0.25) = (4/3)·I.
"""

import hashlib
import threading

import numpy as np
import pytest

from latentwalk import (ContractViolation, CorruptionSpec, DivergenceError,
                        LatentBatch, OracleSystem, Rng, oracle_sample_chain,
                        oracle_transition_moments, random_contractive_system,
                        run_chain, run_oracle_suite, solve_stationary_cov,
                        spectral_radius)
from latentwalk import oracle as oracle_module


def _half_identity(dec_var=1.0, corr_var=0.0):
    return OracleSystem(E=np.eye(2), D=0.5 * np.eye(2),
                        decoder_noise_variance=dec_var,
                        corruption_variance=corr_var)


# ---------------------------------------------------------------------------
# construction


def test_system_matrices():
    sys = _half_identity()
    assert np.allclose(sys.M, 0.5 * np.eye(2))
    assert np.allclose(sys.Q, np.eye(2))
    assert sys.latent_dim == 2 and sys.data_dim == 2


def test_non_contractive_rejected_by_default():
    with pytest.raises(ContractViolation):
        OracleSystem(E=np.eye(2), D=np.eye(2))  # spectral radius exactly 1
    # explicit escape hatch for studying divergence
    OracleSystem(E=np.eye(2), D=np.eye(2), validate=False)


def test_shape_validation():
    with pytest.raises(ContractViolation):
        OracleSystem(E=np.eye(2), D=np.ones((3, 3)))
    with pytest.raises(ContractViolation):
        OracleSystem(E=np.eye(2), D=0.5 * np.eye(2), decoder_noise_variance=-1.0)


def test_spectral_radius_values():
    assert abs(spectral_radius(0.5 * np.eye(3)) - 0.5) < 1e-12
    rot = np.array([[0.0, -0.9], [0.9, 0.0]])
    assert abs(spectral_radius(rot) - 0.9) < 1e-12


# ---------------------------------------------------------------------------
# moment propagation


def test_transition_moments_oracle():
    sys = _half_identity()
    mean = np.array([2.0, -4.0])
    cov = np.diag([1.0, 2.0])
    mean2, cov2 = oracle_transition_moments(sys, mean, cov)
    assert np.allclose(mean2, [1.0, -2.0])
    assert np.allclose(cov2, np.diag([1.25, 1.5]))  # 0.25*cov + I


def test_transition_moments_reject_asymmetric_cov():
    sys = _half_identity()
    with pytest.raises(ContractViolation):
        oracle_transition_moments(sys, np.zeros(2),
                                  np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_stationary_covariance_known_value():
    sigma = solve_stationary_cov(_half_identity())
    assert np.allclose(sigma, (4.0 / 3.0) * np.eye(2), atol=1e-8)


def test_stationary_satisfies_fixed_point():
    rng = Rng(0)
    for k in range(5):
        sys = random_contractive_system(rng, latent_dim=3, data_dim=4,
                                        target_radius=0.7)
        s = solve_stationary_cov(sys)
        residual = sys.M @ s @ sys.M.T + sys.Q - s
        assert np.linalg.norm(residual) < 1e-9, f"system {k}"


def test_stationary_diverges_for_expansive_map():
    sys = OracleSystem(E=np.eye(2), D=1.1 * np.eye(2),
                       decoder_noise_variance=1.0, validate=False)
    with pytest.raises(DivergenceError):
        solve_stationary_cov(sys)


@pytest.mark.parametrize("rho", [0.999, 0.9999])
def test_stationary_solves_nearly_critical_contraction(rho):
    """Contractive however slowly: S = I / (1 - rho^2), not a divergence."""
    sys = OracleSystem(E=np.eye(2), D=rho * np.eye(2),
                       decoder_noise_variance=1.0)
    expected = np.eye(2) / (1.0 - rho * rho)
    assert np.allclose(solve_stationary_cov(sys), expected,
                       rtol=1e-11, atol=0.0)


def test_stationary_solves_a_large_non_normal_system_to_float64_resolution():
    """Suite system 9 of seed 3004: radius 0.84 but |M|_2 = 31.3, so S is
    large and its bare residual never falls below an absolute 1e-10. The
    backward error, the residual over the sizes of its terms, does."""
    rng = Rng(3004).derive("oracle-suite").derive("sys9")
    sys = random_contractive_system(rng, latent_dim=2, data_dim=4,
                                    target_radius=0.84)
    assert np.linalg.norm(sys.M, 2) > 30.0
    s = solve_stationary_cov(sys)
    m, q, norm = sys.M, sys.Q, np.linalg.norm
    backward = norm(m @ s @ m.T + q - s) / (
        norm(m) ** 2 * norm(s) + norm(q) + norm(s))
    assert backward <= 1e-13


def test_iterated_moments_converge_to_stationary():
    sys = _half_identity()
    target = solve_stationary_cov(sys)
    mean, cov = np.array([5.0, 5.0]), np.zeros((2, 2))
    for _ in range(100):
        mean, cov = oracle_transition_moments(sys, mean, cov)
    assert np.allclose(mean, 0.0, atol=1e-12)
    assert np.allclose(cov, target, atol=1e-10)


# ---------------------------------------------------------------------------
# sampled chains


def test_noise_free_chain_is_pure_contraction():
    sys = OracleSystem(E=np.eye(2), D=0.5 * np.eye(2))
    z0 = np.array([[1.0, 0.0]])
    path = oracle_sample_chain(sys, z0, steps=3, rng=Rng(1))
    assert path.shape == (4, 1, 2)
    assert np.allclose(path[3], [[0.125, 0.0]], atol=1e-15)  # M^3 z0


def test_sampled_covariance_approaches_stationary():
    sys = _half_identity()
    target = solve_stationary_cov(sys)
    z0 = Rng(2).normal((20_000, 2))
    path = oracle_sample_chain(sys, z0, steps=50, rng=Rng(3))
    emp = np.cov(path[-1].T, bias=True)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.05


def test_corruption_shifts_q_exactly():
    plain = _half_identity(dec_var=1.0, corr_var=0.0)
    noisy = _half_identity(dec_var=1.0, corr_var=0.25)
    gap = noisy.Q - plain.Q
    expected = 0.25 * np.eye(2)  # corruption_var * E Eᵀ with E = I
    assert np.array_equal(gap, expected)


def test_rectangular_system_roundtrip():
    """Latent dim 2, data dim 5: shapes flow through every helper."""
    rng = Rng(4)
    sys = random_contractive_system(rng, latent_dim=2, data_dim=5,
                                    target_radius=0.6,
                                    decoder_noise_variance=0.5,
                                    corruption_variance=0.25)
    assert sys.M.shape == (2, 2)
    assert sys.Q.shape == (2, 2)
    assert abs(spectral_radius(sys.M) - 0.6) < 1e-9
    path = oracle_sample_chain(sys, rng.normal((64, 2)), steps=5, rng=Rng(5))
    assert path.shape == (6, 64, 2)


def test_run_chain_on_the_system_matches_direct_sampler_bitwise():
    """run_chain walks the system itself and replays the exact same draws."""
    sys = _half_identity(dec_var=1.0, corr_var=0.0)
    z0 = Rng(6).normal((128, 2))
    direct = oracle_sample_chain(sys, z0, steps=7, rng=Rng(7))
    trace = run_chain(sys, LatentBatch(z0), steps=7, rng=Rng(7))
    for t, z in enumerate(trace.latents()):
        assert np.array_equal(z, direct[t]), f"step {t} diverged"


def test_system_reports_rectangular_dims():
    sys = random_contractive_system(Rng(8), latent_dim=3, data_dim=6,
                                    target_radius=0.5)
    assert sys.latent_dim == 3
    assert sys.data_dim == 6
    assert sys.M.shape == (3, 3) and sys.Q.shape == (3, 3)


@pytest.mark.parametrize("corruption", [0.0, 0.25])
def test_rectangular_walk_replays_direct_sampler_under_both_kernels(corruption):
    """A latent-3, data-6 system with decoder noise, walked by run_chain with
    the plain kernel (spec None) or the denoising one, replays
    oracle_sample_chain bit for bit."""
    base = random_contractive_system(Rng(9), latent_dim=3, data_dim=6,
                                     target_radius=0.7)
    sys = OracleSystem(base.E, base.D, decoder_noise_variance=0.5,
                       corruption_variance=corruption)
    spec = CorruptionSpec(corruption) if corruption else None
    z0 = Rng(10).normal((32, 3))
    direct = oracle_sample_chain(sys, z0, steps=6, rng=Rng(11))
    trace = run_chain(sys, LatentBatch(z0), steps=6, spec=spec, rng=Rng(11))
    assert len(trace) == 6
    for t, z in enumerate(trace.latents()):
        assert np.array_equal(z, direct[t]), f"step {t} diverged"
    for step in trace.steps:
        assert step.x.shape == (32, 6)
        assert (step.x_tilde is None) == (spec is None)


def test_oracle_walk_bytes_are_pinned():
    """SHA-256 of oracle_sample_chain and run_chain walks of a square, a
    corrupted and two non-square systems, recorded on NumPy 2.4.6. The
    suite's check 6 compares the two paths with each other, so it cannot see
    both drift together; this pin can."""
    h = hashlib.sha256()
    for i, (b, a, corruption) in enumerate(
            ((2, 2, 0.0), (3, 3, 0.25), (2, 5, 0.1), (4, 3, 0.0))):
        rng = Rng(26).derive(f"system{i}")
        sys = random_contractive_system(rng, latent_dim=b, data_dim=a,
                                        target_radius=0.5 + 0.1 * i,
                                        decoder_noise_variance=0.5,
                                        corruption_variance=corruption)
        z0 = rng.normal((2000, b))
        h.update(oracle_sample_chain(sys, z0, steps=5, rng=rng).tobytes())
        spec = CorruptionSpec(corruption) if corruption else None
        trace = run_chain(sys, LatentBatch(z0), steps=5, spec=spec, rng=rng)
        for step in trace.steps:
            h.update(step.x.tobytes())
            h.update(step.z.values.tobytes())
    assert h.hexdigest() == (
        "f4839a4fb08868124a31b088e679823f91832c995554509db7be5042fe625f6f")


# ---------------------------------------------------------------------------
# the bundled suite


def test_suite_all_green():
    results = run_oracle_suite(seed=0, radius=0.5, n_chains=4000)
    assert len(results) >= 6
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


@pytest.mark.parametrize("radius", [float("nan"), float("inf")])
def test_suite_rejects_a_radius_that_is_not_finite(radius):
    with pytest.raises(ContractViolation, match="finite"):
        run_oracle_suite(seed=0, radius=radius, n_chains=100)


def test_suite_refuses_fewer_than_two_chains():
    with pytest.raises(ContractViolation, match="2 chains"):
        run_oracle_suite(seed=0, radius=0.5, n_chains=1)


@pytest.mark.parametrize("seed", range(10))
def test_covariance_tolerance_follows_the_chain_count(seed):
    """At 2,000 chains a covariance estimate's rms relative error is
    sqrt(3/2000) = 0.039, so a fixed 0.05 fails a correct sampler often."""
    results = {r.name: r for r in run_oracle_suite(seed=seed, radius=0.5,
                                                   n_chains=2000)}
    for name in ("sampled-covariance", "corruption-augmentation"):
        assert results[name].passed, f"{name}: {results[name].detail}"
    assert "(tolerance 0.1118)" in results["sampled-covariance"].detail


@pytest.mark.parametrize("seed", [3004, 6677, 11548, 12445, 18247, 18534])
def test_suite_solves_every_random_system_of_a_seed(seed):
    """Each of these seeds draws a contractive system for check 3 whose
    stationary covariance is too large for an absolute residual bound."""
    for r in run_oracle_suite(seed=seed, radius=0.5, n_chains=2000):
        assert r.passed, f"{r.name}: {r.detail}"


@pytest.mark.parametrize("radius", [0.95, 0.99])
def test_suite_passes_near_the_critical_radius(radius):
    """After 200 steps a slow contraction is still far from stationary; checks
    2 and 4 compare with the exact covariance at step 200."""
    for r in run_oracle_suite(seed=1, radius=radius, n_chains=10_000):
        assert r.passed, f"{r.name}: {r.detail}"


def test_sampled_covariance_keeps_the_transient_at_100000_chains():
    """At radius 0.99, M^200 (I - S) M^200T is 1.75% of S: more than the
    0.0158 tolerance of 100,000 chains, were check 4 to compare with S."""
    results = {r.name: r for r in run_oracle_suite(seed=1, radius=0.99,
                                                   n_chains=100_000)}
    check = results["sampled-covariance"]
    assert check.passed, check.detail


def test_suite_detects_divergence():
    results = run_oracle_suite(seed=0, radius=1.05, n_chains=500)
    assert any(not r.passed for r in results)


# ---------------------------------------------------------------------------
# check 4's walk


def test_check_4_is_one_serial_walk_on_its_derived_stream(monkeypatch):
    """One run_chain of all 40,000 chains on the suite stream's
    ``derive("chains0")``; the suite stream itself is not advanced."""
    parents, walks = [], []
    derive = Rng.derive

    def record_derive(self, tag):
        if tag == "chains0":
            parents.append(self)
        return derive(self, tag)

    def record_walk(model, z0, steps, **kwargs):
        trace = run_chain(model, z0, steps, **kwargs)
        walks.append((z0.values.copy(), trace.steps[-1].z.values,
                      parents[-1].counter))
        return trace

    monkeypatch.setattr(Rng, "derive", record_derive)
    monkeypatch.setattr(oracle_module, "run_chain", record_walk)
    run_oracle_suite(seed=5, radius=0.5, n_chains=40_000)
    z0, final, counter = walks[0]
    assert counter == 0
    g = Rng(5).derive("oracle-suite").derive("chains0")
    assert np.array_equal(z0, g.normal((40_000, 2)))
    serial = run_chain(_half_identity(dec_var=1.0), LatentBatch(z0), 200,
                       rng=g, keep=(200,))
    assert np.array_equal(final, serial.steps[-1].z.values)


def test_suite_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("the oracle suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for r in run_oracle_suite(seed=0, radius=0.5, n_chains=4000):
        assert r.passed, f"{r.name}: {r.detail}"
