"""Statistical verification for continuous targets.

Exact TV distances are unavailable off finite spaces, so continuous runs are
judged by moment estimates with batch-means standard errors.  All functions
are pure and deterministic given their inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MIN_BATCHES = 20


@dataclass(frozen=True)
class MomentReport:
    mean: np.ndarray
    covariance: np.ndarray
    mean_se: np.ndarray
    cov_se: np.ndarray
    n_samples: int
    n_batches: int

    def to_json_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "covariance": self.covariance.tolist(),
            "mean_se": self.mean_se.tolist(),
            "cov_se": self.cov_se.tolist(),
            "n_samples": self.n_samples,
            "n_batches": self.n_batches,
        }


def discard_burn_in(samples: np.ndarray, fraction: float = 0.2) -> np.ndarray:
    if not 0.0 <= fraction < 1.0:
        raise ValidationError("burn-in fraction must lie in [0, 1)")
    return samples[int(len(samples) * fraction):]


def moments(samples: np.ndarray, n_batches: int = 50) -> MomentReport:
    """Full-sample mean/covariance with batch-means standard errors.

    Point estimates come from the whole sample, so they do not depend on the
    batch count; only the standard errors do.  Batches are contiguous and
    equal-sized (a short tail is dropped from the SE computation only).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n_batches < MIN_BATCHES:
        raise ValidationError(f"params.n_batches: need at least {MIN_BATCHES} batches, got {n_batches}")
    if n < 10 * n_batches:
        raise ValidationError(
            f"params.n_batches: {n_batches} batches need at least {10 * n_batches} samples, got {n}"
        )

    mean = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False, ddof=1).reshape(d, d)

    size = n // n_batches
    trimmed = samples[: size * n_batches].reshape(n_batches, size, d)
    batch_means = trimmed.mean(axis=1)
    mean_se = batch_means.std(axis=0, ddof=1) / math.sqrt(n_batches)

    centered = trimmed - mean  # center on the global mean for stability
    batch_covs = np.einsum("bsi,bsj->bij", centered, centered) / (size - 1)
    cov_se = batch_covs.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return MomentReport(mean, cov, mean_se, cov_se, n, n_batches)
