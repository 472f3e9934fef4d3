"""The synthesis-flow MDP used by the RL baselines (DRiLLS formulation).

State: a feature vector describing the partially-optimised AIG (node and
level counts relative to the initial circuit, mapped area/delay relative
to the ``resyn2`` reference, one-hot of the previous action and the
normalised step index).

Action: the index of the next synthesis operation to apply.

Episode: exactly ``K`` steps — one complete sequence.  The reward follows
the paper's adaptation of DRiLLS ("we modified the rewards to account for
our goal from Equation (2)"): the per-step reward is the decrease in the
running QoR value, so the episode return telescopes to
``QoR(initial) − QoR(sequence)``, i.e. maximising return minimises QoR.

Each completed episode registers the full sequence with the shared
:class:`repro.qor.QoREvaluator` so that RL runs are accounted in *tested
sequences*, the unit the paper uses for sample-complexity comparisons.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.aig.graph import AIG
from repro.bo.space import SequenceSpace
from repro.mapping.lut_mapper import LutMapper
from repro.qor.evaluator import QoREvaluator
from repro.synth.operations import get_operation


class SynthesisEnvironment:
    """Episodic environment over synthesis sequences for one circuit."""

    def __init__(
        self,
        evaluator: QoREvaluator,
        space: Optional[SequenceSpace] = None,
        use_graph_features: bool = False,
        auto_register: bool = True,
    ) -> None:
        self.evaluator = evaluator
        self.space = space if space is not None else SequenceSpace()
        self.use_graph_features = use_graph_features
        #: When ``True`` (default) every completed episode registers its
        #: sequence with the evaluator directly.  The batch-protocol
        #: optimisers set ``False`` and submit finished sequences through
        #: :meth:`~repro.qor.QoREvaluator.evaluate_many` instead, so an
        #: attached engine can score them in worker processes.
        self.auto_register = auto_register
        self.mapper: LutMapper = evaluator.mapper
        self._initial_aig = evaluator.aig
        self._start_stats = self._initial_aig.stats()
        initial_mapping = evaluator.initial_result
        self._initial_area = max(1, initial_mapping.area)
        self._initial_delay = max(1, initial_mapping.delay)

        self._current_aig: AIG = self._initial_aig
        self._sequence: List[int] = []
        self._previous_action: Optional[int] = None
        self._current_qor = self._qor_of(self._current_aig)

    # ------------------------------------------------------------------
    @property
    def state_dim(self) -> int:
        return len(self._features())

    @property
    def num_actions(self) -> int:
        return self.space.num_operations

    @property
    def episode_length(self) -> int:
        return self.space.sequence_length

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a new episode from the unoptimised circuit."""
        self._current_aig = self._initial_aig
        self._sequence = []
        self._previous_action = None
        self._current_qor = self._qor_of(self._current_aig)
        return self._features()

    def step(self, action: int) -> Tuple[np.ndarray, float, bool]:
        """Apply one operation; returns ``(next_state, reward, done)``."""
        if len(self._sequence) >= self.episode_length:
            raise RuntimeError("episode is already finished; call reset()")
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        operation = get_operation(self.space.alphabet[action])
        self._current_aig = operation(self._current_aig)
        self._sequence.append(int(action))
        self._previous_action = int(action)

        new_qor = self._qor_of(self._current_aig)
        reward = self._current_qor - new_qor
        self._current_qor = new_qor
        done = len(self._sequence) >= self.episode_length
        if done and self.auto_register:
            # Register the completed sequence with the evaluator so that the
            # run's sample count and history match the other optimisers.
            self.evaluator.evaluate(self.space.to_names(self._sequence))
        return self._features(), reward, done

    def current_sequence(self) -> List[int]:
        return list(self._sequence)

    # ------------------------------------------------------------------
    def _qor_of(self, aig: AIG) -> float:
        # Follows the evaluator's objective (Equation 1 by default), so
        # the per-step reward shaping matches what the run optimises.
        mapping = self.mapper.map(aig)
        return self.evaluator._qor_value(mapping.area, mapping.delay)

    def _features(self) -> np.ndarray:
        """State features of the current partially-optimised AIG."""
        stats = self._current_aig.stats()
        mapping = self.mapper.map(self._current_aig)
        base = [
            stats["ands"] / max(1, self._start_stats["ands"]),
            stats["levels"] / max(1, self._start_stats["levels"]),
            mapping.area / self._initial_area,
            mapping.delay / self._initial_delay,
            self._current_qor / self.evaluator.reference_qor,
            len(self._sequence) / self.episode_length,
        ]
        previous = np.zeros(self.num_actions)
        if self._previous_action is not None:
            previous[self._previous_action] = 1.0
        features = np.concatenate([np.array(base, dtype=float), previous])
        if self.use_graph_features:
            features = np.concatenate([features, self._graph_features()])
        return features

    def _graph_features(self) -> np.ndarray:
        """Structural descriptors used by the Graph-RL variant.

        A light-weight stand-in for a graph neural network embedding: the
        level histogram and fanout histogram of the current AIG (each
        normalised), which capture the shape information a message-passing
        network would aggregate.
        """
        aig = self._current_aig
        levels = aig.levels()
        depth = max(1, aig.depth())
        and_levels = [levels[node.var] for node in aig.and_nodes()]
        level_hist, _ = np.histogram(
            np.array(and_levels, dtype=float) / depth if and_levels else np.zeros(1),
            bins=8, range=(0.0, 1.0),
        )
        fanouts = aig.fanout_counts()
        and_fanouts = [fanouts[node.var] for node in aig.and_nodes()]
        fanout_hist, _ = np.histogram(
            np.clip(and_fanouts, 0, 8) if and_fanouts else np.zeros(1),
            bins=8, range=(0, 8),
        )
        num_ands = max(1, aig.num_ands)
        return np.concatenate([
            level_hist.astype(float) / num_ands,
            fanout_hist.astype(float) / num_ands,
        ])
