"""Two-sample and moment diagnostics.

KL oracles used below:
  N((1,0), I) against N(0, I): 0.5 * ||mu||^2 = 0.5
  N(0, 4) against N(0, 1) in one dimension: 0.5 * (4 - 1 - log 4)
"""

import csv
import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentwalk import (ContractViolation, LatentBatch, MetricsReport,
                        PriorSpec, Rng, chain_diagnostics,
                        gaussian_kl_details, median_heuristic_bandwidth,
                        mmd_rbf, run_chain, sample_prior, write_report)
from latentwalk.metrics import _kernel_mean


# ---------------------------------------------------------------------------
# mmd


def test_mmd_zero_on_identical_sets():
    a = Rng(0).normal((100, 3))
    assert mmd_rbf(a, a.copy()) == 0.0


def test_mmd_symmetric_in_arguments():
    a = Rng(1).normal((80, 2))
    b = Rng(2).normal((90, 2)) + 1.0
    assert math.isclose(mmd_rbf(a, b), mmd_rbf(b, a), rel_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_mmd_non_negative(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(30, 2))
    b = r.normal(size=(40, 2)) + r.normal()
    assert mmd_rbf(a, b) >= 0.0


def test_mmd_permutation_invariant():
    a = Rng(3).normal((64, 2))
    b = Rng(4).normal((64, 2))
    perm = Rng(5).permutation(64)
    assert math.isclose(mmd_rbf(a, b), mmd_rbf(a[perm], b[perm]), rel_tol=1e-9)


def test_mmd_orders_by_distribution_gap():
    """A far-away sample must score higher than a nearby one."""
    ref = Rng(6).normal((300, 2))
    near = Rng(7).normal((300, 2)) + 0.2
    far = Rng(8).normal((300, 2)) + 3.0
    bw = median_heuristic_bandwidth(ref, ref)
    assert mmd_rbf(far, ref, bw) > mmd_rbf(near, ref, bw)


def test_mmd_fixed_bandwidth_is_respected():
    a = Rng(9).normal((50, 2))
    b = Rng(10).normal((50, 2)) + 1.0
    assert mmd_rbf(a, b, 0.5) != mmd_rbf(a, b, 5.0)


def test_mmd_with_given_self_kernels_is_bit_identical():
    a = Rng(13).normal((40, 3))
    b = Rng(14).normal((30, 3)) + 0.5
    denom = 2.0 * 1.3 * 1.3
    assert mmd_rbf(a, b, 1.3, k_aa=_kernel_mean(a, a, denom),
                   k_bb=_kernel_mean(b, b, denom)) == mmd_rbf(a, b, 1.3)


def test_mmd_validation():
    a = Rng(11).normal((10, 2))
    with pytest.raises(ContractViolation):
        mmd_rbf(a, Rng(12).normal((10, 3)))


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -1.0, 0.0, "abc"])
def test_mmd_bandwidth_must_be_finite_and_positive(bandwidth):
    a = Rng(11).normal((10, 2))
    with pytest.raises(ContractViolation, match="bandwidth"):
        mmd_rbf(a, a + 1.0, bandwidth=bandwidth)


def test_median_heuristic_known_value():
    pts = np.array([[0.0], [2.0]])
    # pooled pairwise distances are {0, 2}; their median is 1 by averaging
    bw = median_heuristic_bandwidth(pts, pts)
    assert bw > 0.0
    single = np.array([[1.0]])
    assert median_heuristic_bandwidth(single, single) == 1.0  # fallback


# ---------------------------------------------------------------------------
# gaussian kl


def test_kl_oracle_mean_shift():
    samples = Rng(13).normal((200_000, 2)) + np.array([1.0, 0.0])
    kl, regularized = gaussian_kl_details(samples)
    assert not regularized
    assert abs(kl - 0.5) < 0.02


def test_kl_oracle_inflated_variance():
    samples = Rng(14).normal((200_000, 1)) * 2.0
    expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
    assert abs(gaussian_kl_details(samples)[0] - expected) < 0.02


def test_kl_zero_for_prior_samples():
    samples = Rng(15).normal((200_000, 3))
    assert gaussian_kl_details(samples)[0] < 0.01


def test_kl_regularizes_degenerate_covariance():
    samples = np.tile(np.array([[0.3, -0.7]]), (50, 1))  # rank-0 spread
    kl, regularized = gaussian_kl_details(samples)
    assert regularized
    assert np.isfinite(kl)


def test_kl_requires_more_rows_than_dims():
    with pytest.raises(ContractViolation):
        gaussian_kl_details(np.zeros((2, 2)))


def test_kl_never_negative():
    for seed in range(10):
        samples = Rng(seed).normal((64, 4))
        assert gaussian_kl_details(samples)[0] >= 0.0


# ---------------------------------------------------------------------------
# chain diagnostics


def _diag_setup(steps=3, n=40):
    model_rng = Rng(20)
    ref = LatentBatch(model_rng.normal((n, 2)) * 0.5, provenance="encoded")
    z0 = sample_prior(n, PriorSpec(2), model_rng)
    contraction = _Halver()
    trace = run_chain(contraction, z0, steps=steps, rng=model_rng)
    return trace, ref


class _Halver:
    """Minimal chain model: each step halves the latents, no data stage."""

    latent_dim = 2
    data_dim = 2

    def chain_decode(self, z, rng):
        return 0.5 * z

    def chain_encode(self, x, rng):
        return x


def test_diagnostics_series_cover_every_step():
    trace, ref = _diag_setup(steps=4)
    report = chain_diagnostics(trace, ref, PriorSpec(2))
    assert report.steps == [0, 1, 2, 3, 4]
    for series in (report.mmd_to_encoded, report.mmd_to_prior,
                   report.gaussian_kl_to_prior, report.mean_norm,
                   report.cov_eigen_range):
        assert len(series) == 5
    assert report.n_chain == 40
    assert report.n_reference == 40
    assert report.bandwidth > 0.0


def test_diagnostics_step0_matches_direct_mmd():
    trace, ref = _diag_setup()
    report = chain_diagnostics(trace, ref, PriorSpec(2))
    direct = mmd_rbf(trace.z0.values, ref.values, report.bandwidth)
    assert math.isclose(report.mmd_to_encoded[0], direct, rel_tol=1e-12)


def test_diagnostics_match_direct_mmd_at_every_step():
    trace, ref = _diag_setup()
    report = chain_diagnostics(trace, ref, PriorSpec(2), rng=Rng(3))
    prior = Rng(3).normal((40, 2))
    for i, z in enumerate(trace.latents()):
        assert report.mmd_to_encoded[i] == mmd_rbf(z, ref.values, report.bandwidth)
        assert report.mmd_to_prior[i] == mmd_rbf(z, prior, report.bandwidth)


def test_diagnostics_moment_columns_match_numpy():
    trace, ref = _diag_setup()
    report = chain_diagnostics(trace, ref, PriorSpec(2))
    z2 = trace.latents()[2]
    assert math.isclose(report.mean_norm[2],
                        float(np.linalg.norm(z2.mean(axis=0))), rel_tol=1e-12)
    eig = np.linalg.eigvalsh(np.cov(z2.T, bias=True))
    assert math.isclose(report.cov_eigen_range[2], float(eig[-1] - eig[0]),
                        rel_tol=1e-9)


def test_diagnostics_contraction_improves_mmd_to_encoded():
    """Halving steps walk prior draws onto the tight reference cloud."""
    trace, ref = _diag_setup(steps=2, n=200)
    report = chain_diagnostics(trace, ref, PriorSpec(2))
    assert report.mmd_to_encoded[1] < report.mmd_to_encoded[0]


def test_diagnostics_prior_draws_are_seeded():
    trace, ref = _diag_setup()
    a = chain_diagnostics(trace, ref, PriorSpec(2), rng=Rng(77))
    b = chain_diagnostics(trace, ref, PriorSpec(2), rng=Rng(77))
    assert a.mmd_to_prior == b.mmd_to_prior
    c = chain_diagnostics(trace, ref, PriorSpec(2))  # library default stream
    d = chain_diagnostics(trace, ref, PriorSpec(2))
    assert c.mmd_to_prior == d.mmd_to_prior


def test_diagnostics_reference_dim_checked():
    trace, _ = _diag_setup()
    bad_ref = LatentBatch(np.zeros((10, 3)))
    with pytest.raises(ContractViolation):
        chain_diagnostics(trace, bad_ref, PriorSpec(2))


# ---------------------------------------------------------------------------
# report file


def test_write_report_roundtrips(tmp_path):
    trace, ref = _diag_setup()
    report = chain_diagnostics(trace, ref, PriorSpec(2))
    path = tmp_path / "report.csv"
    write_report(report, path)
    text = path.read_text()
    meta = [line for line in text.splitlines() if line.startswith("#")]
    assert any("bandwidth" in line for line in meta)
    assert any("prior_seed" in line for line in meta)
    rows = list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))
    assert len(rows) == len(report.steps)
    assert float(rows[0]["mmd_to_encoded"]) == report.mmd_to_encoded[0]
    assert float(rows[-1]["cov_eigen_range"]) == report.cov_eigen_range[-1]
    assert [int(r["step"]) for r in rows] == report.steps


def test_write_report_bytes_are_pinned(tmp_path):
    """report.csv's layout and every value's digits; recorded on NumPy 2.4.6."""
    trace, ref = _diag_setup()
    path = tmp_path / "report.csv"
    write_report(chain_diagnostics(trace, ref, PriorSpec(2), rng=Rng(3)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "23a24010c5de1e04da8338ee5bb2db07a5ec81285cee2ab6f6880e97263c1708")


@dataclass(kw_only=True)
class _ReportWithExtra(MetricsReport):
    extra: list[float] = field(default_factory=list)
    note: str = "x"


def test_write_report_takes_its_layout_from_the_fields(tmp_path):
    """A new list field is a column in its field's place, a new scalar field a
    metadata line: write_report lists neither."""
    trace, ref = _diag_setup()
    report = chain_diagnostics(trace, ref, PriorSpec(2), rng=Rng(3))
    extended = _ReportWithExtra(
        **{f.name: getattr(report, f.name) for f in fields(report)},
        extra=[0.5 * s for s in report.steps])
    path = tmp_path / "report.csv"
    write_report(extended, path)
    lines = path.read_text().splitlines()
    assert lines[7] == "# note = x"
    assert lines[8] == ("step,mmd_to_encoded,mmd_to_prior,gaussian_kl_to_prior,"
                        "mean_norm,cov_eigen_range,extra")
    assert [row.rsplit(",", 1)[1] for row in lines[9:]] == [
        "0", "0.5", "1", "1.5"]


def test_write_report_refuses_columns_of_unequal_length(tmp_path):
    trace, ref = _diag_setup()
    report = chain_diagnostics(trace, ref, PriorSpec(2))
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError):
        write_report(replace(report, mean_norm=report.mean_norm[:-1]), path)
    assert not path.exists()
