"""Standard Bayesian optimisation (SBO) baseline.

The paper compares BOiLS against "standard BO" built on a generic
continuous/categorical surrogate (their implementation follows HEBO,
reference [25]).  This baseline isolates the value of BOiLS's two
modifications: sequences are modelled with a *positional* categorical
kernel (no sub-sequence structure) and the acquisition is maximised by
unrestricted stochastic local search over the whole space (no trust
region).

The solver implements the batch protocol
(:meth:`~repro.bo.base.SequenceOptimiser.suggest` /
:meth:`~repro.bo.base.SequenceOptimiser.observe`): the random initial
design is proposed as one batch and each acquisition round proposes up to
``batch_size`` distinct candidates from the scored pool, each batch
scored in one :meth:`~repro.qor.QoREvaluator.evaluate_many` call.  With
the default ``batch_size=1`` the optimisation
trace matches the sequential algorithm.  Rounds that do not refit the
kernel hyperparameters condition the GP incrementally
(:meth:`repro.gp.GaussianProcess.update_or_fit`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bo.acquisition import get_acquisition
from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.gp.gp import GaussianProcess
from repro.gp.kernels.categorical import TransformedOverlapKernel
from repro.gp.kernels.continuous import SquaredExponentialKernel
from repro.gp.optim import RefitGate
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser
from repro.serialise import decode_array, encode_array


@register_optimiser(
    "sbo", display_name="SBO",
    defaults={"num_initial": 5, "adam_steps": 5, "fit_every": 2},
)
class StandardBO(SequenceOptimiser):
    """GP-EI Bayesian optimisation with a generic (non-sequence) kernel.

    Parameters
    ----------
    kernel_type:
        ``"overlap"`` — transformed-overlap categorical kernel on the raw
        integer encoding (default); ``"onehot-se"`` — squared-exponential
        kernel on a one-hot encoding (closer to a vanilla continuous-BO
        port such as HEBO's default pipeline).
    batch_size:
        Black-box evaluations proposed per acquisition round; ``1``
        reproduces the sequential baseline.
    """

    name = "SBO"

    def __init__(
        self,
        space: Optional[SequenceSpace] = None,
        seed: int = 0,
        num_initial: int = 20,
        acquisition: str = "ei",
        kernel_type: str = "overlap",
        fit_every: int = 1,
        adam_steps: int = 10,
        search_candidates: int = 300,
        noise_variance: float = 1e-4,
        batch_size: int = 1,
        refit_gate: bool = False,
        refit_gate_tol: float = 1e-3,
        refit_gate_patience: int = 2,
    ) -> None:
        super().__init__(space=space, seed=seed)
        self.num_initial = num_initial
        self.acquisition_name = acquisition
        self.kernel_type = kernel_type
        self.fit_every = max(1, fit_every)
        self.adam_steps = adam_steps
        self.search_candidates = search_candidates
        self.noise_variance = noise_variance
        self.batch_size = max(1, batch_size)
        self.use_refit_gate = bool(refit_gate)
        self.refit_gate_tol = refit_gate_tol
        self.refit_gate_patience = refit_gate_patience
        self._reset_state()

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._kernel = None
        self._fit_param_names: List[str] = []
        self._gp: Optional[GaussianProcess] = None
        self._rounds = 0
        self._refit_gate: Optional[RefitGate] = (
            RefitGate(tol=self.refit_gate_tol,
                      patience=self.refit_gate_patience)
            if self.use_refit_gate else None
        )

    # ------------------------------------------------------------------
    def _encode(self, X: np.ndarray) -> np.ndarray:
        """Kernel-specific feature encoding of integer sequences."""
        if self.kernel_type == "onehot-se":
            num_ops = self.space.num_operations
            one_hot = np.zeros((X.shape[0], X.shape[1] * num_ops), dtype=float)
            for position in range(X.shape[1]):
                one_hot[np.arange(X.shape[0]), position * num_ops + X[:, position]] = 1.0
            return one_hot
        return np.asarray(X, dtype=int)

    def _make_kernel(self):
        if self.kernel_type == "onehot-se":
            dim = self.space.sequence_length * self.space.num_operations
            return SquaredExponentialKernel(input_dim=dim, lengthscale=2.0), ["variance"]
        kernel = TransformedOverlapKernel(sequence_length=self.space.sequence_length)
        return kernel, ["lengthscale", "variance"]

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def suggest(self, n: int = 1) -> np.ndarray:
        """Propose the next batch: initial design or acquisition picks."""
        n = max(1, int(n))
        if self._X is None:
            return self.space.sample(min(self.num_initial, n), self.rng)
        return self._suggest_candidates(min(n, self.batch_size))

    def _suggest_candidates(self, count: int) -> np.ndarray:
        assert self._X is not None and self._y is not None
        self._rounds += 1
        best_value = float(np.max(self._y))
        encoded = self._encode(self._X)
        refit_due = self._rounds % self.fit_every == 0 and len(self._y) >= 2
        if refit_due and (self._refit_gate is None
                          or self._refit_gate.should_refit()):
            fitted = self._gp.fit_hyperparameters(
                encoded, self._y, num_steps=self.adam_steps,
                param_names=self._fit_param_names)
            if self._refit_gate is not None:
                self._refit_gate.record(fitted)
        else:
            self._gp.update_or_fit(encoded, self._y)

        acquisition_fn = get_acquisition(self.acquisition_name)

        def acquisition(candidates: np.ndarray) -> np.ndarray:
            mean, std = self._gp.predict(self._encode(candidates))
            if self.acquisition_name == "ucb":
                return acquisition_fn(mean, std)
            return acquisition_fn(mean, std, best_value)

        # Global candidate pool: random samples plus hill-climbing
        # around the incumbent, with no trust-region restriction.
        incumbent = self._X[int(np.argmax(self._y))]
        candidates = [self.space.sample(self.search_candidates // 2, self.rng)]
        local = np.array(
            [self.space.random_neighbour(incumbent, self.rng,
                                         num_changes=int(self.rng.integers(1, 4)))
             for _ in range(self.search_candidates // 2)],
            dtype=int,
        )
        candidates.append(local)
        pool = np.vstack(candidates)
        scores = acquisition(pool)
        order = np.argsort(-scores)
        rows: List[np.ndarray] = []
        taken = set(map(tuple, self._X.tolist()))
        for idx in order:
            if len(rows) >= count:
                break
            key = tuple(pool[idx].tolist())
            if key in taken:
                continue
            taken.add(key)
            rows.append(pool[idx])
        while len(rows) < count:
            # Pool exhausted (everything already evaluated): fall back to
            # fresh uniform draws, mirroring the sequential baseline.
            rows.append(self.space.sample(1, self.rng)[0])
        return np.array(rows, dtype=int)

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Absorb scored rows into the GP data set."""
        rows = np.atleast_2d(np.asarray(rows, dtype=int))
        values = np.array([-record.qor for record in records], dtype=float)
        if self._X is None:
            self._X = rows.copy()
            self._y = values
            self._kernel, self._fit_param_names = self._make_kernel()
            self._gp = GaussianProcess(self._kernel, noise_variance=self.noise_variance)
        else:
            self._X = np.vstack([self._X, rows])
            self._y = np.append(self._y, values)

    # ------------------------------------------------------------------
    # Drive hooks
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self._reset_state()

    def run_metadata(self) -> dict:
        if self._kernel is None:
            metadata = {"num_rounds": self._rounds}
        else:
            metadata = {"kernel_params": self._kernel.get_params(),
                        "num_rounds": self._rounds}
        if self._refit_gate is not None:
            metadata["refit_gate_converged"] = self._refit_gate.converged
        return metadata

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        return {
            "rounds": self._rounds,
            "X": encode_array(self._X),
            "y": encode_array(self._y),
            "gp": self._gp.state_dict() if self._gp is not None else None,
            "refit_gate": (self._refit_gate.state_dict()
                           if self._refit_gate is not None else None),
        }

    def _load_state_dict(self, state: dict) -> None:
        self._reset_state()
        self._rounds = int(state["rounds"])
        self._X = decode_array(state["X"])
        self._y = decode_array(state["y"])
        if state["refit_gate"] is not None:
            self._refit_gate = RefitGate()
            self._refit_gate.load_state_dict(state["refit_gate"])
        if state["gp"] is not None:
            # Kernel scaffolding rebuilt from configuration; the GP
            # snapshot then sets the hyperparameters and replays its
            # factorisations on the encoded rows, rebuilding the
            # Cholesky factor of the interrupted run.
            self._kernel, self._fit_param_names = self._make_kernel()
            self._gp = GaussianProcess(self._kernel,
                                       noise_variance=self.noise_variance)
            self._gp.load_state_dict(state["gp"], self._encode(self._X),
                                     self._y)
