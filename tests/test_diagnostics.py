import numpy as np
import pytest

from asyncmc.diagnostics import discard_burn_in, moments
from asyncmc.errors import ValidationError


class TestMoments:
    def test_constant_samples(self):
        report = moments(np.full((5000, 2), 3.0), n_batches=20)
        assert np.allclose(report.mean, [3.0, 3.0])
        assert np.allclose(report.covariance, 0.0)
        assert np.allclose(report.mean_se, 0.0)
        assert np.allclose(report.cov_se, 0.0)

    def test_seeded_normal_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1_000_000)
        report = moments(x, n_batches=50)
        assert abs(report.mean[0]) <= 0.01
        assert abs(report.covariance[0, 0] - 1.0) <= 0.02
        assert report.mean_se[0] == pytest.approx(1 / 1000, rel=0.2)

    def test_point_estimates_ignore_batching(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20_000, 2))
        a = moments(x, n_batches=20)
        b = moments(x, n_batches=100)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)
        assert not np.array_equal(a.mean_se, b.mean_se)

    def test_shuffling_changes_se_not_estimates(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.standard_normal(50_000)) * 0.01  # autocorrelated
        x = x - x.mean()
        a = moments(x, n_batches=50)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        b = moments(shuffled, n_batches=50)
        assert np.allclose(a.mean, b.mean, atol=1e-12)
        assert np.allclose(a.covariance, b.covariance, atol=1e-12)
        assert abs(a.mean_se[0] - b.mean_se[0]) > 0

    def test_size_preconditions(self):
        with pytest.raises(ValidationError):
            moments(np.zeros(100), n_batches=20)
        with pytest.raises(ValidationError):
            moments(np.zeros(10_000), n_batches=5)

    def test_burn_in_slicing(self):
        x = np.arange(10)
        assert list(discard_burn_in(x, 0.2)) == list(range(2, 10))
        with pytest.raises(ValidationError):
            discard_burn_in(x, 1.0)

    def test_json_round_trip_fields(self):
        report = moments(np.random.default_rng(0).standard_normal((5000, 2)), n_batches=25)
        doc = report.to_json_dict()
        assert set(doc) == {"mean", "covariance", "mean_se", "cov_se", "n_samples", "n_batches"}

    def test_burn_in_insensitivity_on_stationary_chain(self):
        # estimates from a chain started in equilibrium barely move across
        # 10% / 20% / 40% burn-in choices
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200_000)
        estimates = [
            moments(discard_burn_in(x, frac), n_batches=20).covariance[0, 0]
            for frac in (0.1, 0.2, 0.4)
        ]
        assert max(estimates) - min(estimates) <= 0.02

