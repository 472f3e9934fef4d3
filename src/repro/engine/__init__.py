"""Parallel evaluation engine: worker pools, persistent QoR cache, cells.

This package is the execution layer under every optimiser and experiment
in the reproduction.  It has four cooperating pieces:

* :mod:`repro.engine.spec` — :class:`EvaluatorSpec`, the picklable
  description (circuit, width, LUT size, reference flow) from which any
  process can rebuild the QoR black box.  AIGs themselves never cross a
  process boundary.
* :mod:`repro.engine.engine` — :class:`EvaluationEngine`, which fans
  batches of synthesis sequences out to a *warm* process pool (serial
  in-process fallback for ``jobs=1``).  Attach one to a
  :class:`repro.qor.QoREvaluator` via ``attach_engine`` and every
  ``evaluate_many`` batch is scored in parallel, with results recorded in
  submission order so parallel runs stay bit-identical to serial ones.
  Three supporting modules carry the parallel fast path:
  :mod:`repro.engine.pool` (:class:`WarmPool`, the one sanctioned
  ``ProcessPoolExecutor`` owner, persistent across batches/cells and
  self-healing by epoch), :mod:`repro.engine.shm` (one-time
  shared-memory publication of the circuit's flat arrays for O(n)
  worker start-up), and :mod:`repro.engine.planner`
  (:class:`ExecutionPlanner`, a measured cost model routing each batch
  serial vs pool so short batches never pay pool tax).
* :mod:`repro.engine.cache` — :class:`PersistentQoRCache`, an SQLite
  (WAL) on-disk cache of ``(circuit, sequence) → (area, delay)`` shared
  across processes *and* across runs.  It layers under the evaluator's
  in-memory memoisation: hits skip the synthesis + mapping computation
  but still count as per-run evaluations (the paper's sample-complexity
  unit).
* :mod:`repro.engine.worker` — the process-side entry points: the batch
  evaluator behind :class:`EvaluationEngine` and the one cell runner
  (``run_campaign_cell``) behind every (method × circuit × seed) grid.
  :func:`repro.api.run_campaign` drives it serially or across a warm
  pool with deterministic per-cell seeding and fresh per-cell evaluator
  state, so ``--jobs N`` reproduces ``--jobs 1`` exactly.

The batch-optimiser protocol (``suggest``/``observe`` on
:class:`repro.bo.base.SequenceOptimiser`) is the producer side of this
package: optimisers emit candidate batches, the engine scores them, the
evaluator does the accounting.
"""

from repro.engine.cache import PersistentQoRCache, default_cache_dir
from repro.engine.engine import EvaluationEngine, resolve_jobs
from repro.engine.faults import (
    DeadlineExceeded,
    EngineFaultError,
    FaultEvent,
    FaultPlan,
    PoisonInputError,
    PoolUnrecoverableError,
    RetryPolicy,
    deadline,
)
from repro.engine.planner import ExecutionPlanner, PlanDecision, effective_parallelism
from repro.engine.pool import WarmPool, terminate_pool
from repro.engine.shm import SharedAIGHandle
from repro.engine.spec import EvaluatorSpec, resolve_circuit_width
from repro.engine.worker import build_cell_payload

__all__ = [
    "DeadlineExceeded",
    "EngineFaultError",
    "EvaluationEngine",
    "EvaluatorSpec",
    "ExecutionPlanner",
    "FaultEvent",
    "FaultPlan",
    "PersistentQoRCache",
    "PlanDecision",
    "PoisonInputError",
    "PoolUnrecoverableError",
    "RetryPolicy",
    "SharedAIGHandle",
    "WarmPool",
    "build_cell_payload",
    "deadline",
    "default_cache_dir",
    "effective_parallelism",
    "resolve_circuit_width",
    "resolve_jobs",
    "terminate_pool",
]
