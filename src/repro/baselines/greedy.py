"""Greedy sequence construction baseline.

The paper's greedy algorithm "builds a unique sequence of length K by
appending transformations that provide the largest immediate QoR
improvement": at position ``k`` every operation in the alphabet is tried
as the next element (with the prefix fixed) and the best one is kept.
The construction therefore consumes ``K · n`` evaluations in the worst
case; if the budget is smaller, construction simply stops early and the
best prefix evaluated so far is reported.

The solver implements the batch protocol
(:meth:`~repro.bo.base.SequenceOptimiser.suggest` /
:meth:`~repro.bo.base.SequenceOptimiser.observe`): all candidate
extensions of the current position are proposed as one batch and scored
through one :meth:`~repro.qor.QoREvaluator.evaluate_many` call.  Ties are broken by candidate order exactly as the
sequential loop did, so the constructed sequence is identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser


@register_optimiser("greedy", display_name="Greedy")
class GreedySearch(SequenceOptimiser):
    """Position-by-position greedy construction (the paper's Greedy)."""

    name = "Greedy"

    def __init__(self, space: Optional[SequenceSpace] = None, seed: int = 0) -> None:
        super().__init__(space=space, seed=seed)
        self._reset_state()

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self._prefix: List[int] = []
        self._pending_ops: List[int] = []   # untried ops at the current position
        self._suggested_ops: List[int] = []  # ops proposed in the last batch
        self._best_op: Optional[int] = None
        self._best_qor = np.inf

    def _start_position(self) -> None:
        """Shuffle the alphabet for the next position (seed-dependent ties)."""
        operations = list(range(self.space.num_operations))
        self.rng.shuffle(operations)
        self._pending_ops = operations
        self._best_op = None
        self._best_qor = np.inf

    def _finish_position(self) -> bool:
        """Commit the best operation of the finished position."""
        if self._best_op is None:
            return False
        self._prefix.append(self._best_op)
        return True

    @property
    def _done(self) -> bool:
        return len(self._prefix) >= self.space.sequence_length

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def suggest(self, n: int = 1) -> np.ndarray:
        """Up to ``n`` candidate prefixes extending the current position.

        Greedy evaluates the prefix itself (shorter sequences are legal
        flows), so each row is the prefix plus one trial operation, padded
        with the protocol's ``-1`` sentinels; drivers strip those before
        evaluation (``SequenceOptimiser._evaluate_batch`` does so, and
        ``SequenceSpace.to_names`` rejects them loudly otherwise).
        """
        n = max(1, int(n))
        if self._done:
            return np.empty((0, self.space.sequence_length), dtype=int)
        if not self._pending_ops and self._best_op is None:
            self._start_position()
        chunk = self._pending_ops[:n]
        self._pending_ops = self._pending_ops[n:]
        self._suggested_ops = chunk
        length = self.space.sequence_length
        rows = np.full((len(chunk), length), -1, dtype=int)
        for row, op in zip(rows, chunk):
            candidate = self._prefix + [op]
            row[: len(candidate)] = candidate
        return rows

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Fold scored candidates into the position's running best."""
        for op, record in zip(self._suggested_ops, records):
            # Strict < keeps the sequential loop's first-wins tie-breaking
            # (candidates arrive in the shuffled trial order).
            if record.qor < self._best_qor:
                self._best_qor = record.qor
                self._best_op = op
        self._suggested_ops = []
        if not self._pending_ops:
            # Position exhausted: commit and open the next one.
            if self._finish_position():
                self._best_op = None
                self._best_qor = np.inf

    # ------------------------------------------------------------------
    # Drive hooks.  The driver chunks batches to the remaining budget,
    # which reproduces the sequential loop's accounting exactly:
    # memoisation hits inside a chunk are free, so a position may take
    # several chunks to finish; an empty suggest() (sequence complete)
    # ends the run.
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self._reset_state()

    def run_metadata(self) -> dict:
        return {"constructed_length": len(self._prefix)}

    # ------------------------------------------------------------------
    # Checkpoint protocol.  At a round boundary ``_suggested_ops`` is
    # always empty (observe clears it), so the snapshot is the committed
    # prefix plus the in-flight position's untried ops and running best.
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        return {
            "prefix": list(self._prefix),
            "pending_ops": list(self._pending_ops),
            "best_op": self._best_op,
            # +inf is the fresh-position sentinel; encoded as null so
            # checkpoint files stay strict (RFC 8259) JSON.
            "best_qor": (float(self._best_qor)
                         if np.isfinite(self._best_qor) else None),
        }

    def _load_state_dict(self, state: dict) -> None:
        self._prefix = [int(op) for op in state["prefix"]]
        self._pending_ops = [int(op) for op in state["pending_ops"]]
        self._suggested_ops = []
        best_op = state["best_op"]
        self._best_op = int(best_op) if best_op is not None else None
        best_qor = state["best_qor"]
        self._best_qor = float(best_qor) if best_qor is not None else np.inf
