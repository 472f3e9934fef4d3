"""Figure 3 (bottom row): area/delay Pareto fronts.

For each of the large circuits, the paper plots the (area, delay) of the
best solution found by every method on each of the five seeds, overlays
the Pareto front of all those points, and reports how often each method's
solutions lie *on* the front (55 % for BOiLS vs 20 % SBO, 15 % GA, 0 % for
RS and DRL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Campaign
from repro.bo.base import OptimisationResult
from repro.experiments.runner import group_results, run_experiment


Point = Tuple[int, int]
"""An (area, delay) pair."""


def pareto_front(points: Sequence[Point]) -> List[Point]:
    """Non-dominated subset of (area, delay) points (both minimised).

    A point dominates another when it is no worse in both coordinates and
    strictly better in at least one.
    """
    unique = sorted(set(points))
    front: List[Point] = []
    for candidate in unique:
        dominated = False
        for other in unique:
            if other == candidate:
                continue
            if (other[0] <= candidate[0] and other[1] <= candidate[1]
                    and (other[0] < candidate[0] or other[1] < candidate[1])):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


def is_on_front(point: Point, front: Sequence[Point]) -> bool:
    """Whether a point belongs to a previously computed front."""
    return tuple(point) in {tuple(p) for p in front}


@dataclass
class ParetoStudy:
    """Per-circuit best solutions, fronts, and the on-front percentages."""

    circuits: List[str]
    methods: List[str]
    #: ``best_points[circuit][method]`` — one (area, delay) per seed.
    best_points: Dict[str, Dict[str, List[Point]]]
    #: ``fronts[circuit]`` — the joint Pareto front over all methods/seeds.
    fronts: Dict[str, List[Point]] = field(default_factory=dict)
    #: Reference points (initial circuit and resyn2) per circuit.
    references: Dict[str, Dict[str, Point]] = field(default_factory=dict)

    def on_front_fraction(self, method: str) -> float:
        """Fraction of a method's solutions lying on the joint front."""
        total = 0
        on_front = 0
        for circuit in self.circuits:
            front = self.fronts.get(circuit, [])
            for point in self.best_points.get(circuit, {}).get(method, []):
                total += 1
                if is_on_front(point, front):
                    on_front += 1
        return on_front / total if total else float("nan")

    def on_front_percentages(self) -> Dict[str, float]:
        """The paper's bottom-row statistic for every method, in percent."""
        return {method: 100.0 * self.on_front_fraction(method) for method in self.methods}

    def to_csv(self) -> str:
        lines = ["circuit,method,area,delay,on_front"]
        for circuit in self.circuits:
            front = self.fronts.get(circuit, [])
            for method in self.methods:
                for area, delay in self.best_points.get(circuit, {}).get(method, []):
                    flag = int(is_on_front((area, delay), front))
                    lines.append(f"{circuit},{method},{area},{delay},{flag}")
        return "\n".join(lines)


def build_pareto_study(
    results: Sequence[OptimisationResult],
    references: Optional[Dict[str, Dict[str, Point]]] = None,
) -> ParetoStudy:
    """Aggregate grid results into the Figure 3 (bottom) study."""
    grouped = group_results(results)
    methods = list(grouped.keys())
    circuits: List[str] = []
    for per_circuit in grouped.values():
        for circuit in per_circuit:
            if circuit not in circuits:
                circuits.append(circuit)

    best_points: Dict[str, Dict[str, List[Point]]] = {c: {} for c in circuits}
    for method, per_circuit in grouped.items():
        for circuit, runs in per_circuit.items():
            best_points[circuit][method] = [
                (run.best_area, run.best_delay) for run in runs
            ]

    fronts: Dict[str, List[Point]] = {}
    for circuit in circuits:
        all_points: List[Point] = []
        for method_points in best_points[circuit].values():
            all_points.extend(method_points)
        if references and circuit in references:
            all_points.extend(references[circuit].values())
        fronts[circuit] = pareto_front(all_points)

    return ParetoStudy(
        circuits=circuits,
        methods=methods,
        best_points=best_points,
        fronts=fronts,
        references=references or {},
    )


def pareto_study(campaign: Campaign, progress=None) -> ParetoStudy:
    """Run the Figure 3 (bottom row) study on ``campaign``'s grid (the
    paper runs it on the large circuits)."""
    results = run_experiment(campaign, progress=progress)
    return build_pareto_study(results)
