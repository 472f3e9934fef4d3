"""Exact Gaussian-process regression.

Implements the zero-mean GP of Section III-A of the paper: Cholesky-based
posterior inference (Equation 3), negative log marginal likelihood
(Equation 4) and hyperparameter fitting via projected Adam on the kernel's
box-constrained hyperparameters.  Works with any :class:`repro.gp.kernels.Kernel`,
in particular the sub-sequence string kernel used by BOiLS.

Incremental conditioning
------------------------
A BO loop appends a handful of observations per round and refits.  When
the kernel hyperparameters are unchanged since the last factorisation,
:meth:`GaussianProcess.update_or_fit` extends the existing Cholesky
factor by a rank-k block update — ``O(n²k)`` plus the cross-kernel
columns — instead of rebuilding the full Gram and refactorising from
scratch.  The extension is the exact block-Cholesky identity; the factor
agrees with a from-scratch factorisation to floating-point roundoff, and
the equivalence suite pins seeded optimiser trajectories with the
incremental path against full refactorisation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from repro.gp.blas import pin_blas_threads
from repro.gp.kernels.base import Kernel
from repro.gp.optim import finite_difference_gradient, ProjectedAdam

# numpy and scipy are loaded by now; run their OpenBLAS on one thread.
pin_blas_threads()


class GaussianProcess:
    """Zero-mean exact GP with observation noise.

    Parameters
    ----------
    kernel:
        Covariance function.
    noise_variance:
        Gaussian observation-noise variance added to the Gram diagonal.
    normalize_y:
        Standardise targets before fitting (recommended for QoR values
        whose scale varies between circuits); predictions are transformed
        back automatically.
    jitter:
        Numerical jitter added to the diagonal when the Cholesky fails.
    """

    def __init__(
        self,
        kernel: Kernel,
        noise_variance: float = 1e-4,
        normalize_y: bool = True,
        jitter: float = 1e-8,
    ) -> None:
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.normalize_y = normalize_y
        self.jitter = jitter
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        # State recorded at factorisation time, used to decide whether an
        # incremental extension is valid (hyperparameters unchanged) and
        # to keep the extension's jitter consistent with the factor's.
        self._fit_params: Optional[Tuple[Dict[str, float], float]] = None
        self._jitter_used: float = jitter
        # Row counts of the last full fit and of each extension since.
        self._schedule: List[int] = []

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations (no hyperparameter update)."""
        X = np.atleast_2d(np.asarray(X))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must contain the same number of rows")
        self._X = X
        self._set_targets(y)
        self._factorise()
        return self

    def _factorise(self) -> None:
        assert self._X is not None and self._y is not None
        gram = self.kernel(self._X)
        n = gram.shape[0]
        noisy = gram + (self.noise_variance + self.jitter) * np.eye(n)
        jitter = self.jitter
        for _ in range(8):
            try:
                self._chol = cholesky(noisy, lower=True)
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
                noisy = gram + (self.noise_variance + jitter) * np.eye(n)
        else:  # pragma: no cover - pathological kernels only
            raise np.linalg.LinAlgError("kernel matrix is not positive definite")
        self._alpha = cho_solve((self._chol, True), self._y)
        self._jitter_used = jitter
        self._fit_params = (self.kernel.get_params(), self.noise_variance)
        self._schedule = [n]

    # ------------------------------------------------------------------
    # Incremental conditioning
    # ------------------------------------------------------------------
    def update_or_fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition on ``(X, y)``, reusing the current factor when valid.

        Dispatch rules:

        * same inputs, unchanged hyperparameters → reuse the Cholesky
          factor and only re-solve for the (possibly re-standardised)
          targets;
        * the previous inputs are a prefix of ``X`` and hyperparameters
          are unchanged → extend the factor by a rank-k block update;
        * anything else → full :meth:`fit`.
        """
        X = np.atleast_2d(np.asarray(X))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must contain the same number of rows")
        n_old = self._X.shape[0] if self._X is not None else 0
        reusable = (
            self._X is not None
            and self._chol is not None
            and self._fit_params == (self.kernel.get_params(), self.noise_variance)
            and X.shape[0] >= n_old
            and X.shape[1:] == self._X.shape[1:]
            and np.array_equal(X[:n_old], self._X)
        )
        if not reusable:
            return self.fit(X, y)
        if X.shape[0] == n_old:
            self._set_targets(y)
            self._alpha = cho_solve((self._chol, True), self._y)
            return self
        try:
            return self._extend(X, y)
        except np.linalg.LinAlgError:
            # The appended block made the factor numerically unextendable;
            # fall back to a full (jitter-escalating) refactorisation.
            return self.fit(X, y)

    def _set_targets(self, y: np.ndarray) -> None:
        if self.normalize_y and y.size > 1 and np.std(y) > 0:
            self._y_mean = float(np.mean(y))
            self._y_std = float(np.std(y))
        else:
            self._y_mean = float(np.mean(y)) if y.size else 0.0
            self._y_std = 1.0
        self._y = (y - self._y_mean) / self._y_std

    def _extend(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Rank-k block extension of the current Cholesky factor.

        With ``K_full = [[K11, K12], [K12ᵀ, K22]]`` and ``K11 = L11 L11ᵀ``
        already factorised, the extended factor is::

            L21 = (L11⁻¹ K12)ᵀ
            L22 = chol(K22 + σ²I - L21 L21ᵀ)

        Only the ``k`` new cross-kernel columns and an ``O(n²k)`` solve
        are computed; the ``O(n³)`` refactorisation and the full-Gram
        kernel evaluation are skipped entirely.
        """
        assert self._X is not None and self._chol is not None
        n_old = self._X.shape[0]
        X_new = X[n_old:]
        k = X_new.shape[0]
        k_cross = self.kernel(self._X, X_new)
        k_block = self.kernel(X_new)
        l21 = solve_triangular(self._chol, k_cross, lower=True).T
        schur = k_block + (self.noise_variance + self._jitter_used) * np.eye(k)
        schur -= l21 @ l21.T
        l22 = cholesky(schur, lower=True)

        n = n_old + k
        chol = np.zeros((n, n), dtype=self._chol.dtype)
        chol[:n_old, :n_old] = self._chol
        chol[n_old:, :n_old] = l21
        chol[n_old:, n_old:] = l22
        self._chol = chol
        self._X = X
        self._set_targets(y)
        self._alpha = cho_solve((chol, True), self._y)
        self._schedule.append(n)
        return self

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-exact snapshot of the conditioning state, without the data.

        O(1) facts only: the settings, the hyperparameters (current and
        those of the factor) and the factorisation schedule.  The
        factor, ``alpha`` and the standardisation are rebuilt by
        :meth:`load_state_dict` from the rows the GP's owner holds.
        """
        fit_params = None
        if self._fit_params is not None:
            params, noise = self._fit_params
            fit_params = {"params": dict(params), "noise_variance": noise}
        return {
            "kernel_params": self.kernel.get_params(),
            "noise_variance": self.noise_variance,
            "normalize_y": self.normalize_y,
            "jitter": self.jitter,
            "fit_params": fit_params,
            "schedule": list(self._schedule),
        }

    def load_state_dict(self, state: Dict[str, object], X: np.ndarray,
                        y: np.ndarray) -> None:
        """Restore a :meth:`state_dict` snapshot by replaying its schedule.

        The GP was conditioned on a prefix of the owner's ``X``, ``y``.
        The schedule's :meth:`fit` and extensions run again on those rows
        under the factor's hyperparameters: the same operations in the
        same order, so the factor, ``alpha``, the jitter used and the
        standardisation come back bit-identical.  (A refit from scratch
        could differ from an extended factor in the last bit.)
        """
        self.normalize_y = bool(state["normalize_y"])
        self.jitter = float(state["jitter"])  # type: ignore[arg-type]
        self._X = self._y = self._chol = self._alpha = self._fit_params = None
        self._schedule = []
        schedule = [int(n) for n in state["schedule"]]  # type: ignore[attr-defined]
        if schedule:
            fit_params = state["fit_params"]
            self.kernel.set_params(**fit_params["params"])  # type: ignore[index]
            self.noise_variance = float(fit_params["noise_variance"])  # type: ignore[index]
            self.fit(X[:schedule[0]], y[:schedule[0]])
            for n in schedule[1:]:
                self._extend(X[:n], y[:n])
        self.kernel.set_params(**state["kernel_params"])  # type: ignore[arg-type]
        self.noise_variance = float(state["noise_variance"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Prediction (Equation 3)
    # ------------------------------------------------------------------
    def predict(
        self, X_test: np.ndarray, return_std: bool = True, include_noise: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Posterior mean (and standard deviation) at the test inputs."""
        if self._X is None or self._chol is None or self._alpha is None:
            raise RuntimeError("predict() called before fit()")
        X_test = np.atleast_2d(np.asarray(X_test))
        k_star = self.kernel(self._X, X_test)          # (n, m)
        mean = k_star.T @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean, None
        v = solve_triangular(self._chol, k_star, lower=True)
        prior_var = self.kernel.diag(X_test)
        var = prior_var - np.sum(v ** 2, axis=0)
        if include_noise:
            var = var + self.noise_variance
        var = np.maximum(var, 1e-12)
        std = np.sqrt(var) * self._y_std
        return mean, std

    def posterior_covariance(self, X_test: np.ndarray) -> np.ndarray:
        """Full posterior covariance matrix at the test inputs."""
        if self._X is None or self._chol is None:
            raise RuntimeError("posterior_covariance() called before fit()")
        X_test = np.atleast_2d(np.asarray(X_test))
        k_star = self.kernel(self._X, X_test)
        v = solve_triangular(self._chol, k_star, lower=True)
        cov = self.kernel(X_test) - v.T @ v
        return cov * self._y_std ** 2

    def sample_prior(self, X: np.ndarray, num_samples: int = 1,
                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw function samples from the GP prior (used for Figure 2)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        X = np.atleast_2d(np.asarray(X))
        cov = self.kernel(X) + self.jitter * np.eye(X.shape[0])
        return rng.multivariate_normal(np.zeros(X.shape[0]), cov, size=num_samples)

    def sample_posterior(self, X: np.ndarray, num_samples: int = 1,
                         rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw function samples from the GP posterior (used for Figure 2)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        X = np.atleast_2d(np.asarray(X))
        mean, _ = self.predict(X, return_std=False)
        cov = self.posterior_covariance(X) + self.jitter * np.eye(X.shape[0])
        return rng.multivariate_normal(mean, cov, size=num_samples)

    # ------------------------------------------------------------------
    # Marginal likelihood (Equation 4) and hyperparameter fitting
    # ------------------------------------------------------------------
    def negative_log_marginal_likelihood(self) -> float:
        """NLL of the current fit (standardised targets)."""
        if self._chol is None or self._alpha is None or self._y is None:
            raise RuntimeError("negative_log_marginal_likelihood() called before fit()")
        n = self._y.shape[0]
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol)))
        data_fit = float(self._y @ self._alpha)
        return 0.5 * (data_fit + log_det + n * np.log(2.0 * np.pi))

    def fit_hyperparameters(
        self,
        X: np.ndarray,
        y: np.ndarray,
        num_steps: int = 20,
        learning_rate: float = 0.05,
        param_names: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Fit kernel hyperparameters by projected Adam on the NLL.

        Parameters
        ----------
        param_names:
            Subset of kernel hyperparameters to optimise; defaults to all
            of them.  (BOiLS optimises ``theta_match``/``theta_gap``; the
            signal variance is kept fitted as well since targets are
            standardised.)

        Returns
        -------
        The fitted hyperparameter dictionary (also set on the kernel).
        """
        X = np.atleast_2d(np.asarray(X))
        y = np.asarray(y, dtype=float).ravel()
        names = list(param_names) if param_names is not None else self.kernel.param_names()
        bounds = self.kernel.param_bounds()
        lower = np.array([bounds[name][0] for name in names])
        upper = np.array([bounds[name][1] for name in names])

        def objective(vector: np.ndarray) -> float:
            self.kernel.set_params(**{name: float(v) for name, v in zip(names, vector)})
            self.fit(X, y)
            return self.negative_log_marginal_likelihood()

        x0 = np.array([self.kernel.get_params()[name] for name in names])
        optimiser = ProjectedAdam(lower, upper, learning_rate=learning_rate)
        x = optimiser.project(x0)
        best_x = x.copy()
        best_value = objective(x)
        for _ in range(num_steps):
            gradient = finite_difference_gradient(objective, x, lower, upper)
            x = optimiser.step(x, gradient)
            value = objective(x)
            if value < best_value:
                best_value = value
                best_x = x.copy()
        self.kernel.set_params(**{name: float(v) for name, v in zip(names, best_x)})
        self.fit(X, y)
        return self.kernel.get_params()
