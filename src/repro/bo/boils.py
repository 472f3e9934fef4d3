"""BOiLS — Bayesian Optimisation for Logic Synthesis (Algorithm 2).

The solver follows the paper exactly:

1. sample ``N_init`` random sequences and evaluate their QoR;
2. at every round, fit a GP with the sub-sequence string kernel to the
   ``(sequence, −QoR)`` data, refitting the match/gap decays by projected
   Adam on the marginal likelihood;
3. maximise expected improvement with stochastic local search restricted
   to a Hamming-ball trust region around the incumbent;
4. evaluate the proposed sequence, update the data set and the
   trust-region radius (grow on 3 successes, shrink on 20 failures,
   restart when the radius reaches zero).

The solver implements the batch protocol
(:meth:`~repro.bo.base.SequenceOptimiser.suggest` /
:meth:`~repro.bo.base.SequenceOptimiser.observe`): the random initial
design is proposed as one batch, and each acquisition round proposes up
to ``batch_size`` distinct local-search candidates.  All proposals are
scored through :meth:`~repro.qor.QoREvaluator.evaluate_many`, one call
per batch.  With the default ``batch_size=1`` the optimisation trace is
identical to the paper's sequential algorithm; parallelism comes from
running many cells at once, not from splitting a batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bo.acquisition import get_acquisition
from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.bo.trust_region import TrustRegion, TrustRegionConfig, TrustRegionLocalSearch
from repro.gp.gp import GaussianProcess
from repro.gp.kernels.ssk import SubsequenceStringKernel
from repro.gp.optim import RefitGate
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser
from repro.serialise import decode_array, encode_array


@register_optimiser(
    "boils", display_name="BOiLS",
    defaults={"num_initial": 5, "local_search_queries": 200, "adam_steps": 5,
              "fit_every": 2},
)
class BOiLS(SequenceOptimiser):
    """The paper's solver: SSK-GP surrogate + trust-region EI maximisation.

    Parameters
    ----------
    space:
        Sequence space (defaults to the paper's ``K=20`` over 11 operations).
    seed:
        Random seed (controls the initial design, the local search and the
        trust-region restarts).
    num_initial:
        Size of the random initial design ``N_init``.
    max_subsequence_length:
        Order of the SSK kernel.
    acquisition:
        ``"ei"`` (paper default), ``"pi"`` or ``"ucb"``.
    fit_every:
        Refit the kernel hyperparameters every this many BO rounds (1
        reproduces the paper; larger values trade fidelity for speed).
    adam_steps:
        Projected-Adam steps per hyperparameter refit.
    local_search_queries:
        Acquisition evaluations per trust-region maximisation.
    batch_size:
        Black-box evaluations proposed per acquisition round.  ``1``
        reproduces the paper's sequential Algorithm 2; larger values run
        extra local-search restarts per round and score the resulting
        distinct candidates as one batch.
    refit_gate:
        Opt-in :class:`repro.gp.optim.RefitGate`: once the decay
        hyperparameters have converged (successive refits each move every
        parameter by at most ``refit_gate_tol``, ``refit_gate_patience``
        times in a row), scheduled refits are skipped and those rounds
        take the incremental-Cholesky conditioning path instead.  Off by
        default — trajectories with the gate off are bit-identical to
        the always-refit schedule the golden suite pins.
    """

    name = "BOiLS"

    def __init__(
        self,
        space: Optional[SequenceSpace] = None,
        seed: int = 0,
        num_initial: int = 20,
        max_subsequence_length: int = 3,
        acquisition: str = "ei",
        fit_every: int = 1,
        adam_steps: int = 10,
        local_search_queries: int = 300,
        local_search_restarts: int = 3,
        trust_region_config: Optional[TrustRegionConfig] = None,
        noise_variance: float = 1e-4,
        batch_size: int = 1,
        refit_gate: bool = False,
        refit_gate_tol: float = 1e-3,
        refit_gate_patience: int = 2,
    ) -> None:
        super().__init__(space=space, seed=seed)
        self.num_initial = num_initial
        self.max_subsequence_length = max_subsequence_length
        self.acquisition_name = acquisition
        self.fit_every = max(1, fit_every)
        self.adam_steps = adam_steps
        self.local_search_queries = local_search_queries
        self.local_search_restarts = local_search_restarts
        self.trust_region_config = trust_region_config
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
        self._evaluated: Set[Tuple[int, ...]] = set()
        self._kernel: Optional[SubsequenceStringKernel] = None
        self._gp: Optional[GaussianProcess] = None
        self._trust_region: Optional[TrustRegion] = None
        self._local_search: Optional[TrustRegionLocalSearch] = None
        self._rounds = 0
        self._num_restarts = 0
        self._pending_fresh = False
        self._awaiting: Optional[str] = None
        self._last_best_value = -np.inf
        self._refit_gate: Optional[RefitGate] = (
            RefitGate(tol=self.refit_gate_tol,
                      patience=self.refit_gate_patience)
            if self.use_refit_gate else None
        )

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def suggest(self, n: int = 1) -> np.ndarray:
        """Propose the next batch: initial design, restart samples, or
        trust-region acquisition candidates."""
        n = max(1, int(n))
        if self._X is None:
            self._awaiting = "initial"
            return self.space.sample(min(self.num_initial, n), self.rng)
        if self._pending_fresh:
            # A trust-region restart re-seeds the data set with one fresh
            # uniform sample before the next acquisition round.
            self._pending_fresh = False
            self._awaiting = "fresh"
            return self.space.sample(1, self.rng)
        return self._suggest_candidates(min(n, self.batch_size))

    def _suggest_candidates(self, count: int) -> np.ndarray:
        assert self._X is not None and self._y is not None
        self._rounds += 1
        incumbent_idx = int(np.argmax(self._y))
        incumbent = self._X[incumbent_idx]
        best_value = float(self._y[incumbent_idx])
        self._last_best_value = best_value

        # Step 1: fit the surrogate (refit decays periodically).  Rounds
        # that keep the hyperparameters extend the previous Cholesky
        # factor incrementally instead of refactorising from scratch;
        # with the opt-in gate, converged decays stop being refit at all.
        refit_due = self._rounds % self.fit_every == 0 and len(self._y) >= 2
        if refit_due and (self._refit_gate is None
                          or self._refit_gate.should_refit()):
            fitted = self._gp.fit_hyperparameters(
                self._X, self._y, num_steps=self.adam_steps,
                param_names=["theta_match", "theta_gap"],
            )
            if self._refit_gate is not None:
                self._refit_gate.record(fitted)
        else:
            self._gp.update_or_fit(self._X, self._y)

        # Step 2: maximise the acquisition inside the trust region.
        acquisition_fn = get_acquisition(self.acquisition_name)

        def acquisition(candidates: np.ndarray) -> np.ndarray:
            mean, std = self._gp.predict(candidates)
            if self.acquisition_name == "ucb":
                return acquisition_fn(mean, std)
            return acquisition_fn(mean, std, best_value)

        exclude = set(self._evaluated)
        rows: List[np.ndarray] = []
        for _ in range(count):
            candidate, _ = self._local_search.maximise(
                acquisition, incumbent, self._trust_region.radius, self.rng,
                exclude=exclude,
            )
            exclude.add(tuple(candidate.tolist()))
            rows.append(candidate)
        self._awaiting = "candidate"
        return np.array(rows, dtype=int)

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Absorb scored rows and advance the trust-region schedule."""
        rows = np.atleast_2d(np.asarray(rows, dtype=int))
        values = np.array([-record.qor for record in records], dtype=float)
        kind = self._awaiting
        self._awaiting = None

        if kind == "initial" or self._X is None:
            self._X = rows.copy()
            self._y = values
            self._evaluated = {tuple(row.tolist()) for row in rows}
            self._kernel = SubsequenceStringKernel(
                max_subsequence_length=self.max_subsequence_length,
                theta_match=float(self.rng.uniform(0.4, 0.9)),
                theta_gap=float(self.rng.uniform(0.4, 0.9)),
            )
            self._gp = GaussianProcess(self._kernel, noise_variance=self.noise_variance)
            self._trust_region = TrustRegion(self.space, self.trust_region_config)
            self._local_search = TrustRegionLocalSearch(
                self.space, num_queries=self.local_search_queries,
                num_restarts=self.local_search_restarts,
            )
            return

        if kind == "fresh":
            # Restart re-seed: augment the data set, no schedule update.
            self._append(rows, values)
            return

        # Acquisition candidates: per-candidate trust-region schedule.
        for row, value in zip(rows, values):
            improved = value > self._last_best_value
            self._append(row[None, :], np.array([value]))
            if improved:
                self._last_best_value = value
            self._trust_region.update(improved)
            if self._trust_region.needs_restart:
                self._trust_region.restart()
                self._num_restarts += 1
                self._pending_fresh = True

    def _append(self, rows: np.ndarray, values: np.ndarray) -> None:
        self._X = np.vstack([self._X, rows])
        self._y = np.append(self._y, values)
        for row in rows:
            self._evaluated.add(tuple(row.tolist()))

    # ------------------------------------------------------------------
    # Drive hooks (Algorithm 2 = prepare + generic ask/tell drive)
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self._reset_state()

    def run_metadata(self) -> dict:
        if self._kernel is None:
            metadata = {"num_rounds": self._rounds,
                        "num_restarts": self._num_restarts}
        else:
            metadata = {
                "kernel_params": self._kernel.get_params(),
                "trust_region_radius": self._trust_region.radius,
                "num_restarts": self._num_restarts,
                "num_rounds": self._rounds,
            }
        if self._refit_gate is not None:
            metadata["refit_gate_converged"] = self._refit_gate.converged
        return metadata

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        state: dict = {
            "rounds": self._rounds,
            "num_restarts": self._num_restarts,
            "pending_fresh": self._pending_fresh,
            # -inf is the pre-observation sentinel; encoded as null so
            # checkpoint files stay strict (RFC 8259) JSON.
            "last_best_value": (float(self._last_best_value)
                                if np.isfinite(self._last_best_value)
                                else None),
            "X": encode_array(self._X),
            "y": encode_array(self._y),
            "evaluated": sorted(list(key) for key in self._evaluated),
            "gp": self._gp.state_dict() if self._gp is not None else None,
            "trust_region": (self._trust_region.state_dict()
                             if self._trust_region is not None else None),
            "refit_gate": (self._refit_gate.state_dict()
                           if self._refit_gate is not None else None),
        }
        return state

    def _load_state_dict(self, state: dict) -> None:
        self._reset_state()
        self._rounds = int(state["rounds"])
        self._num_restarts = int(state["num_restarts"])
        self._pending_fresh = bool(state["pending_fresh"])
        last_best = state["last_best_value"]
        self._last_best_value = (float(last_best) if last_best is not None
                                 else -np.inf)
        self._X = decode_array(state["X"])
        self._y = decode_array(state["y"])
        self._evaluated = {tuple(int(op) for op in key)
                           for key in state["evaluated"]}
        if state["refit_gate"] is not None:
            self._refit_gate = RefitGate()
            self._refit_gate.load_state_dict(state["refit_gate"])
        if state["gp"] is not None:
            # The kernel is rebuilt at neutral values and then overwritten
            # by the GP snapshot, which restores the exact decays *and*
            # the Cholesky factor the interrupted run held — required for
            # the incremental-conditioning path to continue identically.
            self._kernel = SubsequenceStringKernel(
                max_subsequence_length=self.max_subsequence_length)
            self._gp = GaussianProcess(self._kernel,
                                       noise_variance=self.noise_variance)
            self._gp.load_state_dict(state["gp"])
        if state["trust_region"] is not None:
            self._trust_region = TrustRegion(self.space, self.trust_region_config)
            self._trust_region.load_state_dict(state["trust_region"])
            self._local_search = TrustRegionLocalSearch(
                self.space, num_queries=self.local_search_queries,
                num_restarts=self.local_search_restarts,
            )
