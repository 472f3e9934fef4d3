"""Experiment runners regenerating the paper's tables and figures.

Every experiment in the paper's Section IV has a dedicated module:

* :mod:`repro.experiments.runner` — shared machinery: build optimisers by
  name, run a :class:`repro.api.Campaign` grid (problem × method × seed)
  through :func:`repro.api.run_campaign` (the one grid driver),
  aggregate results.
* :mod:`repro.experiments.qor_table` — Figure 3 (top row): the QoR
  improvement table over all ten circuits.
* :mod:`repro.experiments.sample_efficiency` — Figure 1: evaluations
  needed to reach 97.5 % of BOiLS' QoR.
* :mod:`repro.experiments.convergence` — Figure 3 (middle row): best-so-far
  QoR improvement versus number of tested sequences.
* :mod:`repro.experiments.pareto` — Figure 3 (bottom row): area/delay
  Pareto fronts and the %-on-front statistic.
* :mod:`repro.experiments.best_known` — the "EPFL best" baseline proxy
  (single-objective best-known results combined into a QoR reference).
* :mod:`repro.experiments.figures` — plain-text/CSV rendering of all of
  the above.
"""

from repro.experiments.runner import (
    MethodSpec,
    available_methods,
    make_optimiser,
    run_experiment,
)
from repro.experiments.qor_table import QoRTable, build_qor_table
from repro.experiments.sample_efficiency import SampleEfficiencyResult, sample_efficiency_study
from repro.experiments.convergence import ConvergenceCurves, convergence_study
from repro.experiments.pareto import ParetoStudy, pareto_front, pareto_study
from repro.experiments.best_known import best_known_reference

__all__ = [
    "MethodSpec",
    "available_methods",
    "make_optimiser",
    "run_experiment",
    "QoRTable",
    "build_qor_table",
    "SampleEfficiencyResult",
    "sample_efficiency_study",
    "ConvergenceCurves",
    "convergence_study",
    "ParetoStudy",
    "pareto_front",
    "pareto_study",
    "best_known_reference",
]
