"""Figure 3 (middle row): convergence curves on the large circuits.

Best-so-far QoR improvement as a function of the number of tested
sequences, averaged over seeds, for each method on the four large circuits
(hypotenuse, divisor, log2, multiplier in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.api import Campaign
from repro.bo.base import OptimisationResult
from repro.experiments.runner import group_results, run_experiment


@dataclass
class ConvergenceCurves:
    """Mean best-so-far improvement curves per (circuit, method).

    ``curves[circuit][method]`` is a list whose ``i``-th entry is the mean
    best improvement after ``i + 1`` tested sequences.
    """

    circuits: List[str]
    methods: List[str]
    curves: Dict[str, Dict[str, List[float]]]

    def final_values(self) -> Dict[str, Dict[str, float]]:
        """Last point of each curve (equals the Figure 3 table values)."""
        return {
            circuit: {method: curve[-1] for method, curve in per_method.items() if curve}
            for circuit, per_method in self.curves.items()
        }

    def curve(self, circuit: str, method: str) -> List[float]:
        return self.curves[circuit][method]

    def to_csv(self) -> str:
        lines = ["circuit,method,evaluation,best_improvement"]
        for circuit, per_method in self.curves.items():
            for method, curve in per_method.items():
                for index, value in enumerate(curve, start=1):
                    lines.append(f"{circuit},{method},{index},{value:.6f}")
        return "\n".join(lines)


def _mean_trajectories(runs: Sequence[OptimisationResult]) -> List[float]:
    """Average best-so-far trajectories of runs (padded to equal length)."""
    if not runs:
        return []
    length = max(len(run.best_trajectory) for run in runs)
    padded = []
    for run in runs:
        trajectory = list(run.best_trajectory)
        if not trajectory:
            continue
        while len(trajectory) < length:
            trajectory.append(trajectory[-1])
        padded.append(trajectory)
    if not padded:
        return []
    return list(np.mean(np.array(padded), axis=0))


def convergence_study(campaign: Campaign, progress=None) -> ConvergenceCurves:
    """Run the Figure 3 (middle row) study on ``campaign``'s grid (the
    paper runs it on the large circuits)."""
    results = run_experiment(campaign, progress=progress)
    return build_convergence_curves(results)


def build_convergence_curves(results: Sequence[OptimisationResult]) -> ConvergenceCurves:
    """Aggregate grid results into mean convergence curves."""
    grouped = group_results(results)
    methods = list(grouped.keys())
    circuits: List[str] = []
    for per_circuit in grouped.values():
        for circuit in per_circuit:
            if circuit not in circuits:
                circuits.append(circuit)
    curves: Dict[str, Dict[str, List[float]]] = {c: {} for c in circuits}
    for method, per_circuit in grouped.items():
        for circuit, runs in per_circuit.items():
            curves[circuit][method] = _mean_trajectories(runs)
    return ConvergenceCurves(circuits=circuits, methods=methods, curves=curves)
