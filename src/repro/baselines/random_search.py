"""Random search over synthesis sequences.

The paper stresses that random search is a surprisingly competitive
baseline for logic-synthesis flow tuning ("A Remark on RS as a Valuable
Baseline").  Following the paper, the sampler is a Latin-hypercube-style
stratified categorical design (their implementation uses pymoo's LHS)
rather than fully independent uniform draws, which spreads the tested
operations evenly over every sequence position.

Random search is fully batch-capable: every draw is independent, so the
whole budget is proposed through :meth:`RandomSearch.suggest` and scored
in one :meth:`~repro.qor.QoREvaluator.evaluate_many` call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser


@register_optimiser("rs", display_name="RS")
class RandomSearch(SequenceOptimiser):
    """Latin-hypercube random search baseline (the paper's RS)."""

    name = "RS"

    def __init__(
        self,
        space: Optional[SequenceSpace] = None,
        seed: int = 0,
        use_latin_hypercube: bool = True,
    ) -> None:
        super().__init__(space=space, seed=seed)
        self.use_latin_hypercube = use_latin_hypercube
        self._seen: Set[Tuple[int, ...]] = set()
        self._primary_drawn = False

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def suggest(self, n: int = 1) -> np.ndarray:
        """Up to ``n`` fresh (not previously suggested) sequences.

        The first call draws the stratified primary design; later calls
        top up with uniform draws, replacing accidental duplicates so the
        budget is spent on distinct sequences.
        """
        n = max(1, int(n))
        if not self._primary_drawn:
            self._primary_drawn = True
            if self.use_latin_hypercube:
                samples = self.space.latin_hypercube_sample(n, self.rng)
            else:
                samples = self.space.sample(n, self.rng)
            rows: List[np.ndarray] = []
            for row in samples:
                key = tuple(row.tolist())
                if key in self._seen:
                    # Replace accidental duplicates with fresh uniform
                    # draws so the budget is spent on distinct sequences.
                    row = self.space.sample(1, self.rng)[0]
                    key = tuple(row.tolist())
                    if key in self._seen:
                        continue
                self._seen.add(key)
                rows.append(row)
            if rows:
                return np.array(rows, dtype=int)
            # Everything collided; fall through to the top-up sampler.
        rows = []
        # Stop once every sequence in the space has been suggested —
        # rejection sampling can never produce a fresh row after that.
        while len(rows) < n and len(self._seen) < self.space.cardinality:
            row = self.space.sample(1, self.rng)[0]
            key = tuple(row.tolist())
            if key in self._seen:
                continue
            self._seen.add(key)
            rows.append(row)
        if not rows:
            return np.empty((0, self.space.sequence_length), dtype=int)
        return np.array(rows, dtype=int)

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Random search is memoryless — nothing to update."""

    # ------------------------------------------------------------------
    # Drive hooks (an empty suggest() ends the run: space exhausted)
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self._seen = set()
        self._primary_drawn = False

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        # Sorted for a deterministic payload; only membership matters.
        return {"seen": sorted(list(key) for key in self._seen),
                "primary_drawn": self._primary_drawn}

    def _load_state_dict(self, state: dict) -> None:
        self._seen = {tuple(int(op) for op in key) for key in state["seen"]}
        self._primary_drawn = bool(state["primary_drawn"])
