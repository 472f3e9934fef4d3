"""Figure 3 (top row): the per-circuit QoR-improvement table.

For every circuit and every method the paper reports the best achieved QoR
improvement over ``resyn2`` (in percent), averaged over five random seeds,
with a budget of 200 tested sequences.  This module assembles exactly that
table from a grid of :class:`repro.bo.base.OptimisationResult` runs and can
optionally append the "EPFL best" reference columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import Campaign
from repro.bo.base import OptimisationResult
from repro.circuits.registry import get_circuit_spec
from repro.experiments.best_known import BestKnownReference
from repro.experiments.runner import group_results, run_experiment


@dataclass
class QoRTable:
    """The assembled table: rows are circuits, columns are methods.

    ``values[circuit][method]`` is the mean best QoR improvement (percent)
    across seeds; ``stds`` carries the across-seed standard deviations.
    """

    circuits: List[str]
    methods: List[str]
    values: Dict[str, Dict[str, float]]
    stds: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def value(self, circuit: str, method: str) -> float:
        return self.values[circuit][method]

    def row_average(self) -> Dict[str, float]:
        """Column means over circuits (the table's "Average" row)."""
        averages: Dict[str, float] = {}
        for method in self.methods:
            entries = [self.values[c][method] for c in self.circuits
                       if method in self.values[c]]
            averages[method] = float(np.mean(entries)) if entries else float("nan")
        return averages

    def winners(self) -> Dict[str, str]:
        """Best method per circuit (ties broken towards the first listed)."""
        winners = {}
        for circuit in self.circuits:
            row = self.values[circuit]
            winners[circuit] = max(row, key=lambda m: row[m])
        return winners

    def wins(self, method: str) -> int:
        """Number of circuits on which ``method`` achieves the best value."""
        return sum(1 for winner in self.winners().values() if winner == method)

    # ------------------------------------------------------------------
    def to_text(self, precision: int = 2) -> str:
        """Plain-text rendering matching the paper's layout."""
        col_width = max(12, max(len(m) for m in self.methods) + 2)
        header = "Circuit".ljust(16) + "".join(m.ljust(col_width) for m in self.methods)
        lines = [header, "-" * len(header)]
        for circuit in self.circuits:
            display = get_circuit_spec(circuit).display_name if _is_known(circuit) else circuit
            row = display.ljust(16)
            for method in self.methods:
                value = self.values[circuit].get(method)
                cell = "-" if value is None or np.isnan(value) else f"{value:.{precision}f}"
                row += cell.ljust(col_width)
            lines.append(row)
        averages = self.row_average()
        row = "Average".ljust(16)
        for method in self.methods:
            value = averages[method]
            cell = "-" if np.isnan(value) else f"{value:.{precision}f}"
            row += cell.ljust(col_width)
        lines.append("-" * len(header))
        lines.append(row)
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (circuit, method, mean, std)."""
        lines = ["circuit,method,mean_improvement,std_improvement"]
        for circuit in self.circuits:
            for method in self.methods:
                mean = self.values[circuit].get(method, float("nan"))
                std = self.stds.get(circuit, {}).get(method, float("nan"))
                lines.append(f"{circuit},{method},{mean:.6f},{std:.6f}")
        return "\n".join(lines)


def _is_known(circuit: str) -> bool:
    # ValueError covers file-backed circuits whose file is missing or
    # unreadable at rendering time — fall back to the raw name.
    try:
        get_circuit_spec(circuit)
        return True
    except (KeyError, ValueError):
        return False


# ----------------------------------------------------------------------
def build_qor_table(
    results: Sequence[OptimisationResult],
    best_known: Optional[Dict[str, BestKnownReference]] = None,
) -> QoRTable:
    """Aggregate grid results into the Figure 3 (top) table."""
    grouped = group_results(results)
    methods = list(grouped.keys())
    circuits: List[str] = []
    for method_results in grouped.values():
        for circuit in method_results:
            if circuit not in circuits:
                circuits.append(circuit)

    values: Dict[str, Dict[str, float]] = {c: {} for c in circuits}
    stds: Dict[str, Dict[str, float]] = {c: {} for c in circuits}
    for method, per_circuit in grouped.items():
        for circuit, runs in per_circuit.items():
            improvements = [run.best_improvement for run in runs]
            values[circuit][method] = float(np.mean(improvements))
            stds[circuit][method] = float(np.std(improvements))

    if best_known:
        for circuit, reference in best_known.items():
            if circuit not in values:
                continue
            values[circuit]["EPFL best (lvl)"] = reference.best_delay_qor_improvement
            values[circuit]["EPFL best (count)"] = reference.best_area_qor_improvement
        methods = methods + ["EPFL best (lvl)", "EPFL best (count)"]

    return QoRTable(circuits=circuits, methods=methods, values=values, stds=stds)


def run_qor_table(campaign: Campaign, progress=None) -> QoRTable:
    """Convenience wrapper: run the grid then build the table."""
    return build_qor_table(run_experiment(campaign, progress=progress))
