"""Figure 1: sample efficiency — evaluations needed to match BOiLS.

The paper's protocol: run BOiLS for 200 evaluations; then, for every other
method, keep evaluating (up to 1000 sequences) until it reaches 97.5 % of
the QoR improvement BOiLS achieved, and report how many tested sequences
that took.  Figure 1 plots the average over the ten circuits; the middle
row of Figure 3 shows the underlying convergence curves for the four large
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import Campaign
from repro.experiments.runner import group_results, run_experiment


@dataclass
class SampleEfficiencyResult:
    """Evaluations-to-target per method, plus the underlying targets.

    ``evaluations_to_target[method][circuit]`` is the mean (over seeds)
    number of tested sequences the method needed to reach the 97.5 % target
    of BOiLS's improvement on that circuit; runs that never reach it count
    as the full extended budget (the paper terminates them at 1000).
    """

    target_fraction: float
    reference_method: str
    extended_budget: int
    targets: Dict[str, float]
    evaluations_to_target: Dict[str, Dict[str, float]]
    average_evaluations: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, method: str) -> float:
        """Ratio of a method's average evaluations to the reference's."""
        reference = self.average_evaluations.get(self.reference_method)
        other = self.average_evaluations.get(method)
        if not reference or not other:
            return float("nan")
        return other / reference

    def to_text(self) -> str:
        lines = [
            f"Sample efficiency (target = {self.target_fraction:.1%} of "
            f"{self.reference_method} improvement)",
            "method            avg. evaluations to target",
        ]
        for method, value in sorted(self.average_evaluations.items(), key=lambda kv: kv[1]):
            lines.append(f"{method:18s}{value:10.1f}")
        return "\n".join(lines)


def _evaluations_to_reach(trajectory: Sequence[float], target: float,
                          fallback: int) -> int:
    """First evaluation index (1-based) at which the trajectory ≥ target."""
    for index, value in enumerate(trajectory, start=1):
        if value >= target:
            return index
    return fallback


def sample_efficiency_study(
    campaign: Campaign,
    reference_method: str = "boils",
    target_fraction: float = 0.975,
    extended_budget: Optional[int] = None,
    progress=None,
) -> SampleEfficiencyResult:
    """Run the Figure 1 study.

    Parameters
    ----------
    campaign:
        The grid; ``campaign.budget`` is the reference method's budget
        (200 in the paper).  Its ``method_overrides`` may name methods
        outside ``campaign.methods``: each of the study's two grids
        keeps only its own methods' overrides.
    reference_method:
        Method whose final improvement defines the target (BOiLS).
    target_fraction:
        Fraction of the reference improvement to reach (97.5 % in the
        paper).
    extended_budget:
        Budget allowed to the other methods (1000 in the paper); defaults
        to ``5 × campaign.budget``.

    The study is two grids through :func:`run_experiment`: the reference
    method at ``campaign.budget``, then every other method at the
    extended budget, both on ``campaign``'s problems.
    """
    extended = extended_budget if extended_budget is not None else 5 * campaign.budget

    # Reference runs define each circuit's target.
    reference = group_results(run_experiment(
        campaign.with_methods((reference_method,)), progress=progress))
    ((reference_display, reference_runs),) = reference.items()
    targets: Dict[str, float] = {}
    evaluations: Dict[str, Dict[str, List[float]]] = {reference_display: {}}
    for circuit_name, runs in reference_runs.items():
        reference_mean = float(np.mean([run.best_improvement for run in runs]))
        # "Reach 97.5 % of the reference improvement": for positive
        # improvements this is the paper's plain fraction; written as
        # "within 2.5 % of |ref| below ref" it stays meaningful when the
        # tiny benchmark-scale circuits leave the mean improvement
        # negative (a plain fraction of a negative number would be a
        # target *above* the reference — trivially unreachable — while a
        # fraction of ~0 is trivially reached by the first sample).
        targets[circuit_name] = (reference_mean
                                 - (1.0 - target_fraction) * abs(reference_mean))
        evaluations[reference_display][circuit_name] = [
            float(run.num_evaluations) for run in runs
        ]

    # Other methods run with the extended budget until they hit the target.
    others = tuple(m for m in campaign.methods if m != reference_method)
    if others:
        for result in run_experiment(
                replace(campaign.with_methods(others), budget=extended),
                progress=progress):
            count = _evaluations_to_reach(result.best_trajectory,
                                          targets[result.circuit], extended)
            evaluations.setdefault(result.method, {}).setdefault(
                result.circuit, []
            ).append(float(count))

    evaluations_mean: Dict[str, Dict[str, float]] = {}
    averages: Dict[str, float] = {}
    for method, per_circuit in evaluations.items():
        evaluations_mean[method] = {
            circuit: float(np.mean(counts)) for circuit, counts in per_circuit.items()
        }
        averages[method] = float(np.mean(list(evaluations_mean[method].values())))

    return SampleEfficiencyResult(
        target_fraction=target_fraction,
        reference_method=reference_display,
        extended_budget=extended,
        targets=targets,
        evaluations_to_target=evaluations_mean,
        average_evaluations=averages,
    )
