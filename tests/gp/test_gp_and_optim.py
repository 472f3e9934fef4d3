"""Tests for GP regression and the projected Adam optimiser."""

import json

import numpy as np
import pytest

from repro.gp import GaussianProcess, SquaredExponentialKernel
from repro.gp.kernels.ssk import SubsequenceStringKernel
from repro.gp.optim import (
    ProjectedAdam,
    finite_difference_gradient,
    minimise_with_projected_adam,
)


@pytest.fixture()
def sine_data(rng):
    X = np.linspace(0, 2 * np.pi, 25)[:, None]
    y = np.sin(X).ravel() + 0.01 * rng.normal(size=25)
    return X, y


class TestProjectedAdam:
    def test_step_moves_against_gradient(self):
        opt = ProjectedAdam(lower=np.zeros(2), upper=np.ones(2), learning_rate=0.1)
        x = np.array([0.5, 0.5])
        new = opt.step(x, np.array([1.0, -1.0]))
        assert new[0] < 0.5 and new[1] > 0.5

    def test_projection_onto_box(self):
        opt = ProjectedAdam(lower=np.zeros(2), upper=np.ones(2), learning_rate=10.0)
        new = opt.step(np.array([0.01, 0.99]), np.array([1.0, -1.0]))
        assert new[0] >= 0.0 and new[1] <= 1.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ProjectedAdam(lower=np.ones(2), upper=np.zeros(2))
        with pytest.raises(ValueError):
            ProjectedAdam(lower=np.zeros(2), upper=np.ones(3))

    def test_reset_clears_state(self):
        opt = ProjectedAdam(lower=np.zeros(1), upper=np.ones(1))
        opt.step(np.array([0.5]), np.array([1.0]))
        opt.reset()
        assert opt._t == 0

    def test_minimise_quadratic(self):
        lower, upper = np.zeros(2), np.ones(2)
        target = np.array([0.3, 0.8])

        def objective(x):
            return float(np.sum((x - target) ** 2))

        best_x, best_val = minimise_with_projected_adam(
            objective, np.array([0.9, 0.1]), lower, upper, num_steps=200,
            learning_rate=0.05)
        assert best_val < 1e-2
        assert np.allclose(best_x, target, atol=0.1)

    def test_minimise_respects_bounds_when_optimum_outside(self):
        lower, upper = np.zeros(1), np.ones(1)

        def objective(x):
            return float((x[0] - 2.0) ** 2)

        best_x, _ = minimise_with_projected_adam(objective, np.array([0.2]),
                                                 lower, upper, num_steps=100)
        assert best_x[0] <= 1.0
        assert best_x[0] > 0.8

    def test_finite_difference_gradient(self):
        def objective(x):
            return float(x[0] ** 2 + 3 * x[1])

        grad = finite_difference_gradient(
            objective, np.array([0.5, 0.5]), np.zeros(2), np.ones(2))
        assert grad[0] == pytest.approx(1.0, abs=1e-3)
        assert grad[1] == pytest.approx(3.0, abs=1e-3)


class TestGaussianProcess:
    def test_posterior_interpolates_training_data(self, sine_data):
        X, y = sine_data
        gp = GaussianProcess(SquaredExponentialKernel(1), noise_variance=1e-6)
        gp.fit(X, y)
        mean, std = gp.predict(X)
        assert np.max(np.abs(mean - y)) < 0.05
        assert np.all(std < 0.2)

    def test_uncertainty_grows_away_from_data(self, sine_data):
        X, y = sine_data
        gp = GaussianProcess(SquaredExponentialKernel(1)).fit(X, y)
        _, std_near = gp.predict(np.array([[np.pi]]))
        _, std_far = gp.predict(np.array([[30.0]]))
        assert std_far[0] > std_near[0]

    def test_predict_before_fit_raises(self):
        gp = GaussianProcess(SquaredExponentialKernel(1))
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 1)))

    def test_mismatched_xy_rejected(self):
        gp = GaussianProcess(SquaredExponentialKernel(1))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 1)), np.zeros(2))

    def test_nll_decreases_with_better_lengthscale(self, sine_data):
        X, y = sine_data
        bad = GaussianProcess(SquaredExponentialKernel(1, lengthscale=50.0)).fit(X, y)
        good = GaussianProcess(SquaredExponentialKernel(1, lengthscale=1.5)).fit(X, y)
        assert good.negative_log_marginal_likelihood() < bad.negative_log_marginal_likelihood()

    def test_fit_hyperparameters_improves_nll(self, sine_data):
        X, y = sine_data
        gp = GaussianProcess(SquaredExponentialKernel(1, lengthscale=20.0))
        gp.fit(X, y)
        before = gp.negative_log_marginal_likelihood()
        gp.fit_hyperparameters(X, y, num_steps=25, learning_rate=0.2)
        after = gp.negative_log_marginal_likelihood()
        assert after <= before

    def test_fit_hyperparameters_subset(self, sine_data):
        X, y = sine_data
        gp = GaussianProcess(SquaredExponentialKernel(1))
        original_variance = gp.kernel.get_params()["variance"]
        gp.fit_hyperparameters(X, y, num_steps=3, param_names=["lengthscale_0"])
        assert gp.kernel.get_params()["variance"] == pytest.approx(original_variance)

    def test_posterior_covariance_shrinks_at_data(self, sine_data):
        X, y = sine_data
        gp = GaussianProcess(SquaredExponentialKernel(1), noise_variance=1e-6).fit(X, y)
        cov = gp.posterior_covariance(X[:5])
        assert np.all(np.diag(cov) < 0.05)

    def test_prior_and_posterior_samples_shapes(self, sine_data, rng):
        X, y = sine_data
        gp = GaussianProcess(SquaredExponentialKernel(1)).fit(X, y)
        grid = np.linspace(0, 2 * np.pi, 11)[:, None]
        prior = gp.sample_prior(grid, num_samples=4, rng=rng)
        posterior = gp.sample_posterior(grid, num_samples=4, rng=rng)
        assert prior.shape == (4, 11)
        assert posterior.shape == (4, 11)

    def test_normalisation_handles_constant_targets(self):
        gp = GaussianProcess(SquaredExponentialKernel(1))
        X = np.linspace(0, 1, 5)[:, None]
        gp.fit(X, np.full(5, 3.0))
        mean, _ = gp.predict(X)
        assert np.allclose(mean, 3.0, atol=1e-3)

    def test_gp_with_ssk_kernel_on_sequences(self, rng):
        kernel = SubsequenceStringKernel(max_subsequence_length=2)
        gp = GaussianProcess(kernel)
        X = rng.integers(0, 11, size=(15, 8))
        y = (X[:, 0] == 3).astype(float) + 0.1 * rng.normal(size=15)
        gp.fit(X, y)
        mean, std = gp.predict(X[:3])
        assert mean.shape == (3,)
        assert np.all(std >= 0)

    def test_ssk_hyperparameter_fit_stays_in_box(self, rng):
        kernel = SubsequenceStringKernel(max_subsequence_length=2)
        gp = GaussianProcess(kernel)
        X = rng.integers(0, 11, size=(10, 6))
        y = rng.normal(size=10)
        gp.fit_hyperparameters(X, y, num_steps=3,
                               param_names=["theta_match", "theta_gap"])
        params = kernel.get_params()
        assert 0 < params["theta_match"] <= 1.0
        assert 0 < params["theta_gap"] <= 1.0

    def test_state_dict_replays_to_the_identical_factor(self, rng):
        X = rng.integers(0, 11, size=(12, 6))
        y = rng.normal(size=12)
        gp = GaussianProcess(SubsequenceStringKernel(max_subsequence_length=3))
        gp.fit_hyperparameters(X[:6], y[:6], num_steps=2,
                               param_names=["theta_match", "theta_gap"])
        gp.update_or_fit(X[:8], y[:8])    # extension
        gp.update_or_fit(X[:8], y[:8])    # same rows: re-solve only
        gp.update_or_fit(X[:10], y[:10])  # extension
        state = json.loads(json.dumps(gp.state_dict()))
        # O(1) facts only: no rows, targets or factor.
        assert state["schedule"] == [6, 8, 10]
        assert not {"X", "y", "chol", "alpha"} & set(state)

        restored = GaussianProcess(
            SubsequenceStringKernel(max_subsequence_length=3))
        restored.load_state_dict(state, X, y)
        for name in ("_X", "_y", "_chol", "_alpha"):
            assert np.array_equal(getattr(restored, name), getattr(gp, name))
        for name in ("_y_mean", "_y_std", "_jitter_used", "_fit_params",
                     "_schedule", "noise_variance"):
            assert getattr(restored, name) == getattr(gp, name)
        assert restored.kernel.get_params() == gp.kernel.get_params()
        # The restored GP keeps extending the same factor.
        gp.update_or_fit(X, y)
        restored.update_or_fit(X, y)
        assert restored._schedule == gp._schedule == [6, 8, 10, 12]
        assert np.array_equal(restored._chol, gp._chol)
        for got, want in zip(restored.predict(X[:4]), gp.predict(X[:4])):
            assert np.array_equal(got, want)

    def test_state_dict_of_an_unconditioned_gp(self):
        gp = GaussianProcess(SquaredExponentialKernel(1))
        restored = GaussianProcess(SquaredExponentialKernel(1))
        restored.load_state_dict(gp.state_dict(), np.zeros((0, 1)), np.zeros(0))
        assert restored._schedule == [] and restored._chol is None
        with pytest.raises(RuntimeError):
            restored.predict(np.zeros((1, 1)))
