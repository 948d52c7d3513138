"""Generative autoencoders whose samples are refined by a latent Markov chain.

Train a VAE or AAE (optionally denoising), then improve prior samples by
alternating decode and encode steps; a closed-form linear-Gaussian system
verifies the chain machinery exactly.
"""

from .chain import (ChainStep, ChainTrace, LatentBatch,
                    denoising_transition_step, interpolation_grid, run_chain,
                    sample_prior, slerp, transition_step)
from .data import (Dataset, RunOptions, export_trace, gen_gaussian_mixture,
                   load_arrays, load_checkpoint, load_idx, parse_config,
                   read_checkpoint_header, save_arrays, save_checkpoint,
                   write_csv, write_image_grid, write_loss_log)
from .errors import (CheckpointError, ChecksumError, ConfigError,
                     ContractViolation, DegenerateGeometryError,
                     DivergenceError, DomainError, IdxFormatError,
                     LatentWalkError, ShapeMismatchError, VersionError)
from .metrics import (MetricsReport, chain_diagnostics, gaussian_kl_details,
                      median_heuristic_bandwidth, mmd_rbf, write_report)
from .models import (CorruptionSpec, GenerativeAutoencoder, PriorSpec,
                     adversary_score, decode, encode_aae, encode_mean,
                     encode_vae, resolve_variant, set_norm_mode)
from .objectives import (EpochStats, TrainConfig, adversarial_losses, corrupt,
                         kl_prior_gaussian, recon_cross_entropy,
                         recon_squared_error, train_epoch, train_model)
from .optim import Adam
from .oracle import (CheckResult, OracleSystem, oracle_sample_chain,
                     oracle_transition_moments, random_contractive_system,
                     run_oracle_suite, solve_stationary_cov, spectral_radius)
from .rng import Rng
from .tensor import Tensor, finite_diff_check

__all__ = [name for name in dir() if not name.startswith("_")]
