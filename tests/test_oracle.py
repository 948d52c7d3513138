"""Closed-form linear-Gaussian verifier.

Everything here has a hand-derivable answer. The flagship identity: for
z' = E(D z + noise), the latent map is M = E·D and the injected covariance is
Q = (decoder_var + corruption_var)·E·Eᵀ, so the stationary covariance solves
S = M S Mᵀ + Q. With M = 0.5·I and Q = I that gives S = I / (1 - 0.25) = (4/3)·I.
"""

import threading

import numpy as np
import pytest

from latentwalk import (ContractViolation, DivergenceError, DomainError,
                        LatentBatch, OracleModelAdapter, OracleSystem, Rng,
                        oracle_sample_chain, oracle_transition_moments,
                        random_contractive_system, run_chain, run_oracle_suite,
                        solve_stationary_cov, spectral_radius)
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


def test_adapter_matches_direct_sampler_bitwise():
    """The duck-typed adapter must replay the exact same draws."""
    sys = _half_identity(dec_var=1.0, corr_var=0.0)
    z0 = Rng(6).normal((128, 2))
    direct = oracle_sample_chain(sys, z0, steps=7, rng=Rng(7))
    model = OracleModelAdapter(sys)
    trace = run_chain(model, LatentBatch(z0), steps=7, rng=Rng(7))
    for t, z in enumerate(trace.latents()):
        assert np.array_equal(z, direct[t]), f"step {t} diverged"


def test_adapter_reports_dims():
    sys = random_contractive_system(Rng(8), latent_dim=3, data_dim=6,
                                    target_radius=0.5)
    model = OracleModelAdapter(sys)
    assert model.latent_dim == 3
    assert model.data_dim == 6


# ---------------------------------------------------------------------------
# the bundled suite


def test_suite_all_green():
    results = run_oracle_suite(seed=0, radius=0.5, n_chains=4000, tol_cov=0.08)
    assert len(results) >= 6
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_suite_detects_divergence():
    results = run_oracle_suite(seed=0, radius=1.05, n_chains=500, tol_cov=0.08)
    assert any(not r.passed for r in results)


# ---------------------------------------------------------------------------
# check 4's chain groups


def test_suite_results_do_not_depend_on_the_thread_count(monkeypatch):
    """41 chains in groups of at least 8 make 5 groups (8+8+8+8+9)."""
    monkeypatch.setattr(oracle_module, "_GROUP_CHAINS", 8)
    runs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(oracle_module, "_cpu_count", lambda: threads)
        runs.append(run_oracle_suite(seed=5, radius=0.5, n_chains=41,
                                     tol_cov=10.0))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_each_group_walks_on_its_own_derived_stream(monkeypatch):
    monkeypatch.setattr(oracle_module, "_GROUP_CHAINS", 8)
    monkeypatch.setattr(oracle_module, "_cpu_count", lambda: 3)
    decode = OracleModelAdapter.chain_decode
    walkers = set()

    def record(self, z, rng):
        walkers.add(threading.get_ident())
        return decode(self, z, rng)

    sys = _half_identity(dec_var=1.0)
    rng = Rng(6)
    monkeypatch.setattr(OracleModelAdapter, "chain_decode", record)
    grouped = oracle_module._final_latents(sys, 41, 7, rng)
    assert threading.main_thread().ident not in walkers
    assert 1 <= len(walkers) <= 3
    assert rng.counter == 0
    bounds = [0, 8, 16, 24, 32, 41]
    for i in range(5):
        g = rng.derive(f"chains{i}")
        z0 = LatentBatch(g.normal((bounds[i + 1] - bounds[i], 2)))
        serial = run_chain(OracleModelAdapter(sys), z0, 7, rng=g)
        assert np.array_equal(grouped[bounds[i]:bounds[i + 1]],
                              serial.steps[-1].z.values)


def test_one_run_chain_on_the_calling_thread_walks_every_group(monkeypatch):
    """Group threads run only the halves of each step: code wrapped around
    run_chain sees one call, on the calling thread, with every chain."""
    monkeypatch.setattr(oracle_module, "_GROUP_CHAINS", 8)
    monkeypatch.setattr(oracle_module, "_cpu_count", lambda: 3)
    calls = []

    def record(model, z0, steps, **kwargs):
        calls.append((threading.get_ident(), len(z0), steps))
        return run_chain(model, z0, steps, **kwargs)

    monkeypatch.setattr(oracle_module, "run_chain", record)
    oracle_module._final_latents(_half_identity(dec_var=1.0), 41, 7, Rng(6))
    assert calls == [(threading.main_thread().ident, 41, 7)]


def test_an_error_in_a_group_thread_reaches_the_caller(monkeypatch):
    """The group's own exception type, once every thread is joined."""
    decode = OracleModelAdapter.chain_decode

    def refuse_off_main(self, z, rng):
        if threading.current_thread() is not threading.main_thread():
            raise DomainError("group refused")
        return decode(self, z, rng)

    monkeypatch.setattr(oracle_module, "_GROUP_CHAINS", 4)
    monkeypatch.setattr(oracle_module, "_cpu_count", lambda: 2)
    monkeypatch.setattr(OracleModelAdapter, "chain_decode", refuse_off_main)
    threads = threading.active_count()
    with pytest.raises(DomainError, match="group refused") as info:
        run_oracle_suite(seed=0, radius=0.5, n_chains=10)
    assert type(info.value) is DomainError
    assert threading.active_count() == threads
