"""A serial batch scorer, kept only so the benchmark tracer still imports.

``perfbench/tracer.py`` wraps :meth:`EvaluationEngine.compute_batch` and
:meth:`EvaluationEngine.close` by name, and ``perfbench/`` changes only
together with the benchmark.  Nothing in the package builds this class:
the next benchmark change drops the tracer's wrap and deletes this module.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.qor.evaluator import QoREvaluator, SequenceEvaluation


class EvaluationEngine:
    """Scores a batch of sequences in-process with ``evaluator.compute``."""

    def __init__(self, evaluator: QoREvaluator) -> None:
        self.evaluator = evaluator

    def compute_batch(
        self, sequences: Sequence[Sequence[Union[str, int]]]
    ) -> List[SequenceEvaluation]:
        return [self.evaluator.compute(sequence) for sequence in sequences]

    def close(self) -> None:
        """Nothing to release."""
