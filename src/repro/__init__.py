"""BOiLS reproduction: Bayesian Optimisation for Logic Synthesis.

The package is organised in layers, bottom-up:

* :mod:`repro.aig` — And-Inverter Graph representation, AIGER I/O,
  simulation, cuts and truth tables.
* :mod:`repro.synth` — the eleven synthesis operations forming the BOiLS
  search alphabet, plus reference flows (``resyn2``).
* :mod:`repro.mapping` — K-LUT technology mapping providing the area and
  delay numbers behind the QoR metric.
* :mod:`repro.circuits` — generators for the EPFL-style arithmetic
  benchmark circuits.
* :mod:`repro.qor` — the QoR black box (Equation 1 of the paper).
* :mod:`repro.gp` — Gaussian-process regression with the sub-sequence
  string kernel (SSK).
* :mod:`repro.bo` — BOiLS itself (Algorithm 2) and standard BO (SBO).
* :mod:`repro.baselines` — random search, greedy, genetic algorithm and
  reinforcement-learning baselines (A2C, PPO, Graph-RL).
* :mod:`repro.engine` — the execution layer: the (method × circuit ×
  seed) cell runner and its warm worker pool, the persistent on-disk
  QoR cache and fault tolerance.
* :mod:`repro.registry` — decorator-based, entry-point-extensible
  registries for optimisers, objectives and circuits.
* :mod:`repro.api` — the declarative public surface: ``Problem`` /
  ``Campaign``, resumable ``CampaignStore`` run directories, and the
  ``run_campaign`` / ``resume_campaign`` / ``run_problem`` drivers.
* :mod:`repro.experiments` — studies regenerating every table and figure
  of the paper's evaluation, each run as a :mod:`repro.api` campaign.
"""

import sys

# Deep circuits (long carry chains) make the demand-driven rebuild passes
# recurse proportionally to circuit depth; lift CPython's conservative
# default so paper-scale widths do not hit the limit.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

__version__ = "1.0.0"

from repro.aig import AIG
from repro.circuits import get_circuit, list_circuits
from repro.qor import QoREvaluator
from repro.synth import OPERATION_ALPHABET, apply_sequence, resyn2

__all__ = [
    "AIG",
    "get_circuit",
    "list_circuits",
    "QoREvaluator",
    "OPERATION_ALPHABET",
    "apply_sequence",
    "resyn2",
    "__version__",
]
