"""Execution layer: campaign workers, the persistent QoR cache, faults.

This package runs the (method × circuit × seed) cells under every grid,
study and :func:`repro.api.run_problem` call.  Its pieces:

* :mod:`repro.engine.spec` — :class:`EvaluatorSpec`, the picklable
  description (circuit, width, LUT size, reference flow) from which any
  process can rebuild the QoR black box.  AIGs themselves never cross a
  process boundary.
* :mod:`repro.engine.worker` — the one cell runner
  (``run_campaign_cell``), which builds a fresh evaluator and opens its
  own cache connection for every cell.
  :func:`repro.api.run_campaign` drives it in-process or across a warm
  pool with deterministic per-cell seeding, so ``--jobs N`` reproduces
  ``--jobs 1`` exactly.
* :mod:`repro.engine.pool` — :class:`WarmPool`, the one sanctioned
  ``ProcessPoolExecutor`` owner, persistent across cells and
  rebuilt after a crash; ``jobs`` everywhere means cells in flight.
* :mod:`repro.engine.cache` — :class:`PersistentQoRCache`, an SQLite
  (WAL) on-disk cache of ``(circuit, sequence) → (area, delay)`` shared
  across processes *and* across runs.  It layers under the evaluator's
  in-memory memoisation: hits skip the synthesis + mapping computation
  but still count as per-run evaluations (the paper's sample-complexity
  unit).
* :mod:`repro.engine.faults` — deadlines, the retry policy and the
  deterministic fault-injection plans the campaign driver recovers from.

Inside a cell, batches from the ask/tell protocol
(:class:`repro.bo.base.SequenceOptimiser`) are scored in-process by
:meth:`repro.qor.QoREvaluator.evaluate_many`.
"""

from repro.engine.cache import PersistentQoRCache, default_cache_dir
from repro.engine.faults import (
    DeadlineExceeded,
    EngineFaultError,
    FaultEvent,
    FaultPlan,
    PoolUnrecoverableError,
    RetryPolicy,
    deadline,
)
from repro.engine.pool import WarmPool, resolve_jobs, terminate_pool
from repro.engine.spec import EvaluatorSpec, resolve_circuit_width
from repro.engine.worker import build_cell_payload

__all__ = [
    "DeadlineExceeded",
    "EngineFaultError",
    "EvaluatorSpec",
    "FaultEvent",
    "FaultPlan",
    "PersistentQoRCache",
    "PoolUnrecoverableError",
    "RetryPolicy",
    "WarmPool",
    "build_cell_payload",
    "deadline",
    "default_cache_dir",
    "resolve_circuit_width",
    "resolve_jobs",
    "terminate_pool",
]
