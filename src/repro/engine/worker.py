"""Worker-process entry points for campaign cells.

Pool workers hold per-process state in module globals: a small registry
of evaluators, each rebuilt from a picklable
:class:`repro.engine.spec.EvaluatorSpec` (AIGs never cross the pipe) and
keyed by circuit so the expensive ``resyn2`` reference mapping is
computed once per worker rather than once per cell, plus the persistent
cache connection.  Everything in this module is importable at top level
— a requirement for ``multiprocessing`` pickling of the initialiser and
task functions.

:func:`run_campaign_cell` is the one cell runner behind every
(method × circuit × seed) grid — ``repro run`` / ``resume`` and the
experiment studies all reach it through
:func:`repro.api.run.run_campaign`, serially in-process or in a pool
worker, on a payload built by :func:`build_cell_payload`.  Cells are
*round-granular*: instead of returning one opaque result blob at the
end, the worker streams typed :class:`repro.bo.base.RunEvent` summaries
back to the parent over a manager queue as each ask/tell round
completes, appends per-round trajectory lines to the campaign store,
persists periodic optimiser checkpoints, and — when a checkpoint for the
cell already exists — resumes the interrupted cell from it
bit-identically.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.engine import faults
from repro.engine.cache import PersistentQoRCache
from repro.engine.spec import EvaluatorSpec
from repro.gp.blas import blas_threads
from repro.qor.backends.native import synth_memo_stats
from repro.qor.evaluator import QoREvaluator

if TYPE_CHECKING:  # import cycles: bo/api import this package
    from repro.api.store import CampaignStore
    from repro.bo.base import DriveProgress, RunEvent, SequenceOptimiser
    from repro.bo.space import SequenceSpace

#: Worker-side event sink signature: ``(cell_id, event_dict)``.
EventSink = Callable[[str, Dict[str, object]], None]

#: True in processes initialised as pool workers: injected crash events
#: manifest as a hard ``os._exit`` (→ ``BrokenProcessPool`` upstream)
#: instead of a raised exception.
_IN_POOL = False


def worker_diagnostics() -> Dict[str, object]:
    """Introspection task for tests and the CLI: one worker's warm state."""
    return {
        "pid": os.getpid(),
        "in_pool": _IN_POOL,
        "cell_evaluators": len(_CELL_EVALUATORS),
        "cell_evictions": _CELL_EVALUATORS.evictions,
        # Diagnostic only: OpenBLAS threads by library (see repro.gp.blas).
        "blas_threads": blas_threads(),
        **synth_memo_stats(),
    }


# ----------------------------------------------------------------------
# Campaign-cell workers: per-process evaluators + persistent cache
# ----------------------------------------------------------------------
_UNSET = object()  # distinct from None, which is a valid cache_dir
_CELL_CACHE_DIR: object = _UNSET
_CELL_CACHE: Optional[PersistentQoRCache] = None

#: Default bound for the per-worker evaluator cache.  Warm pool workers
#: now live for a whole sweep, so an unbounded circuit-keyed cache would
#: grow with corpus size; eight evaluators comfortably covers a round's
#: working set while capping memory.
DEFAULT_EVALUATOR_CACHE_LIMIT = 8


class _EvaluatorLRU:
    """Bounded evaluator cache keyed by ``EvaluatorSpec.identity_key()``.

    Eviction only drops the worker's warm copy — a re-built evaluator is
    bit-identical (deterministic construction) and keeps sharing the
    process-wide persistent cache handle, so the bound can never change
    results, only re-pay construction cost.
    """

    def __init__(self, limit: int = DEFAULT_EVALUATOR_CACHE_LIMIT) -> None:
        self.limit = int(limit)
        self._items: "OrderedDict[Tuple[object, ...], QoREvaluator]" = OrderedDict()
        self.evictions = 0

    def get(self, key: Tuple[object, ...]) -> Optional[QoREvaluator]:
        evaluator = self._items.get(key)
        if evaluator is not None:
            self._items.move_to_end(key)
        return evaluator

    def put(self, key: Tuple[object, ...], evaluator: QoREvaluator) -> None:
        self._items[key] = evaluator
        self._items.move_to_end(key)
        while len(self._items) > self.limit > 0:
            # Evicted evaluators are just dropped, never closed: the
            # persistent cache handle they reference is process-wide
            # (_CELL_CACHE) and stays open for their survivors.
            self._items.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)


_CELL_EVALUATORS = _EvaluatorLRU()
_CELL_PID: Optional[int] = None
_ABANDONED_CACHES: list = []  # fork-inherited handles we must never close


def _discard_state_from_other_process() -> None:
    """Drop cell state inherited across ``fork``.

    The serial campaign path mutates these globals in the parent
    process, so forked pool workers start with the parent's open SQLite
    handle and evaluators.  SQLite connections must not be used (not
    even closed) from another process — abandon them and start clean.
    """
    global _CELL_CACHE_DIR, _CELL_CACHE, _CELL_PID
    if _CELL_PID != os.getpid():
        if _CELL_CACHE is not None:
            # Keep the inherited handle referenced forever so the child
            # never finalises (= closes) a connection it does not own.
            _ABANDONED_CACHES.append(_CELL_CACHE)
        _CELL_CACHE = None
        _CELL_CACHE_DIR = _UNSET
        _CELL_EVALUATORS.clear()
        _CELL_PID = os.getpid()


def _cell_evaluator(spec: EvaluatorSpec) -> QoREvaluator:
    """Per-process evaluator for a circuit, built on first use.

    Cached in a bounded LRU keyed by the spec's identity — an eviction
    re-pays construction on next use but cannot change results.
    """
    key = spec.identity_key()
    evaluator = _CELL_EVALUATORS.get(key)
    if evaluator is None:
        evaluator = spec.build_evaluator(persistent_cache=_CELL_CACHE)
        _CELL_EVALUATORS.put(key, evaluator)
    return evaluator


def _prepare_cell(
    payload: Dict[str, object],
) -> Tuple[EvaluatorSpec, QoREvaluator, "SequenceOptimiser", int, int]:
    """Shared per-cell setup: ``(spec, evaluator, optimiser, budget, index)``.

    Each cell starts from a clean per-run state (history, counters and
    in-memory memoisation cleared) so its result does not depend on which
    cells ran before it in the same process — the property that makes
    ``jobs=1`` and ``jobs=N`` grids identical.
    """
    # Imported here: the runner imports this package for its public API,
    # and a module-level import back into the runner would be circular.
    from repro.experiments.runner import make_optimiser

    spec = EvaluatorSpec.from_payload(payload["spec"])  # type: ignore[arg-type]
    evaluator = _cell_evaluator(spec)
    evaluator.reset_history(clear_cache=True)
    optimiser = make_optimiser(
        str(payload["method_key"]),
        space=None if payload["sequence_length"] is None else _make_space(payload),
        seed=int(payload["seed"]),  # type: ignore[arg-type]
        **dict(payload.get("overrides") or {}),  # type: ignore[arg-type]
    )
    return (spec, evaluator, optimiser,
            int(payload["budget"]), int(payload["index"]))  # type: ignore[arg-type]


def _make_space(payload: Dict[str, object]) -> "SequenceSpace":
    from repro.bo.space import SequenceSpace

    return SequenceSpace(sequence_length=int(payload["sequence_length"]))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Campaign-cell workers: round-granular streaming + checkpoint resume
# ----------------------------------------------------------------------
_EVENT_QUEUE: Optional[object] = None


def build_cell_payload(
    *,
    index: int,
    spec: EvaluatorSpec,
    method_key: str,
    seed: int,
    budget: int,
    sequence_length: Optional[int],
    overrides: Optional[Dict[str, object]] = None,
    cell_id: Optional[str] = None,
    store_root: Optional[str] = None,
    checkpoint_every: int = 0,
    wall_clock_budget: Optional[float] = None,
    early_stop_improvement: Optional[float] = None,
    attempt: int = 0,
) -> Dict[str, object]:
    """The picklable payload :func:`run_campaign_cell` consumes.

    The optional keys (``cell_id``, ``store_root``, ``checkpoint_every``,
    ``wall_clock_budget``, ``early_stop_improvement``, ``attempt``) are
    included only when set, so a store-less payload stays minimal.
    """
    payload: Dict[str, object] = {
        "index": int(index),
        "spec": spec.to_payload(),
        "method_key": str(method_key),
        "seed": int(seed),
        "budget": int(budget),
        "sequence_length": sequence_length,
        "overrides": dict(overrides or {}),
    }
    if cell_id is not None:
        payload["cell_id"] = str(cell_id)
    if store_root is not None:
        payload["store_root"] = str(store_root)
    if checkpoint_every:
        payload["checkpoint_every"] = int(checkpoint_every)
    if wall_clock_budget is not None:
        payload["wall_clock_budget"] = float(wall_clock_budget)
    if early_stop_improvement is not None:
        payload["early_stop_improvement"] = float(early_stop_improvement)
    if attempt:
        payload["attempt"] = int(attempt)
    return payload


def init_campaign_worker(cache_dir: Optional[str],
                         event_queue: Optional[object] = None,
                         in_pool: bool = False,
                         cache_limit: Optional[int] = None) -> None:
    """Pool initialiser for campaign cells; also used by the serial path.

    ``event_queue`` is a ``multiprocessing.Manager`` queue proxy (or
    ``None`` when the parent did not ask for live events); every cell
    running in this worker streams its round events into it as
    ``(cell_id, event_dict)`` tuples.  ``in_pool`` marks this process as
    a pool worker (injected crashes become hard process exits).
    ``cache_limit`` overrides the per-worker evaluator LRU bound
    (``None`` keeps the current bound) — tests use ``1`` to exercise
    eviction, long corpus sweeps may raise it.
    """
    global _CELL_CACHE_DIR, _CELL_CACHE, _EVENT_QUEUE, _IN_POOL
    _discard_state_from_other_process()
    if cache_limit is not None:
        _CELL_EVALUATORS.limit = int(cache_limit)
    if cache_dir != _CELL_CACHE_DIR:
        if _CELL_CACHE is not None:
            _CELL_CACHE.close()
            _CELL_CACHE = None
        # Cached evaluators hold a reference to the previous cache handle
        # (possibly none), so they cannot be reused across cache dirs.
        _CELL_EVALUATORS.clear()
    _CELL_CACHE_DIR = cache_dir
    if cache_dir is not None and _CELL_CACHE is None:
        _CELL_CACHE = PersistentQoRCache(cache_dir)
    _EVENT_QUEUE = event_queue
    _IN_POOL = bool(in_pool)


def _queue_event_sink() -> Optional[EventSink]:
    if _EVENT_QUEUE is None:
        return None
    queue = _EVENT_QUEUE

    def sink(cell_id: str, event: Dict[str, object]) -> None:
        queue.put((cell_id, event))  # type: ignore[attr-defined]

    return sink


def run_campaign_cell(
    payload: Dict[str, object],
    event_sink: Optional[EventSink] = None,
) -> Tuple[int, object]:
    """Run (or resume) one (method, circuit, seed) cell; ``(index, result)``.

    Without ``store_root`` or an event sink the cell simply drives its
    optimiser to the budget.  The round-granular machinery on top:

    * every :class:`~repro.bo.base.RunEvent` of the cell's drive loop is
      forwarded to ``event_sink`` (serial path) or the pool's manager
      queue (parallel path) as a compact dict — live per-round progress
      for the parent;
    * with a ``store_root`` in the payload, each completed round appends
      one line to ``trajectories/<cell_id>.jsonl`` and every
      ``checkpoint_every``-th round atomically replaces
      ``checkpoints/<cell_id>.json`` with the optimiser's
      :meth:`~repro.bo.base.SequenceOptimiser.state_dict` plus the
      evaluator's counters;
    * if a checkpoint for the cell already exists, the cell *resumes*
      from it — evaluator history (from the trajectory), memo cache, RNG
      and per-method state restored — and the continued trajectory is
      bit-identical to an uninterrupted run.  A trajectory shorter than
      the checkpoint's round restarts the cell instead;
    * the campaign's ``wall_clock_budget`` / ``early_stop_improvement``
      knobs thread into the drive loop as ``max_seconds`` / ``stop_when``.
    """
    # Imported lazily: repro.api imports this package, so a module-level
    # import back into repro.api would be circular.
    from repro.api.store import CampaignStore

    spec, evaluator, optimiser, budget, index = _prepare_cell(payload)
    cell_id = payload.get("cell_id")
    store_root = payload.get("store_root")
    checkpoint_every = int(payload.get("checkpoint_every") or 0)  # type: ignore[arg-type]
    attempt = int(payload.get("attempt") or 0)  # type: ignore[arg-type]
    store = (CampaignStore(str(store_root))
             if store_root is not None and cell_id is not None else None)
    cell_id = str(cell_id) if cell_id is not None else f"cell-{index}"
    if event_sink is None:
        event_sink = _queue_event_sink()

    # Fault-injection context: scheduled events are keyed by this cell's
    # (cell_id, attempt); the cache hook makes the shared cell cache see
    # scheduled transient errors for the duration of this cell only.
    inject = spec.fault_plan is not None or spec.eval_timeout is not None
    if inject:
        faults.activate(cell_id, attempt, hard_crash=_IN_POOL)
        if _CELL_CACHE is not None:
            _CELL_CACHE.fault_hook = faults.build_cache_hook(spec.fault_plan)
    try:
        return _run_campaign_cell_body(
            payload, spec, evaluator, optimiser, budget, index,
            cell_id, store, checkpoint_every, event_sink)
    finally:
        if inject:
            faults.deactivate()
            if _CELL_CACHE is not None:
                _CELL_CACHE.fault_hook = None


def _run_campaign_cell_body(
    payload: Dict[str, object],
    spec: EvaluatorSpec,
    evaluator: QoREvaluator,
    optimiser: "SequenceOptimiser",
    budget: int,
    index: int,
    cell_id: str,
    store: "Optional[CampaignStore]",
    checkpoint_every: int,
    event_sink: Optional[EventSink],
) -> Tuple[int, object]:
    from repro.api.store import evaluation_from_dict, evaluation_to_dict
    from repro.bo.base import RoundCompleted, drive

    # ------------------------------------------------------------------
    # Resume from the latest checkpoint, if one exists.
    # ------------------------------------------------------------------
    optimiser.prepare(evaluator, budget)
    start_round = 0
    start_elapsed = 0.0
    checkpoint = (store.read_checkpoint(cell_id)
                  if store is not None and optimiser.supports_checkpoint
                  else None)
    if checkpoint is not None:
        # A kill can land between a trajectory append and the checkpoint
        # write; drop any rounds past the checkpoint — the continued run
        # re-emits them bit-identically.  The kept rounds' records are
        # the evaluator history.
        start_round = int(checkpoint["round"])  # type: ignore[arg-type]
        store.truncate_trajectory(cell_id, start_round)  # type: ignore[union-attr]
        rounds = store.read_trajectory(cell_id)  # type: ignore[union-attr]
        history = [evaluation_from_dict(record) for line in rounds
                   for record in line["records"]]  # type: ignore[attr-defined]
        if len(rounds) < start_round:
            # Rounds the checkpoint counts on are lost: restart the cell.
            checkpoint = None
            start_round = 0
    if checkpoint is not None:
        saved = checkpoint["evaluator"]
        evaluator.restore_history(
            history,
            num_computed=int(saved["num_computed"]),  # type: ignore[index]
            num_persistent_hits=int(saved["num_persistent_hits"]),  # type: ignore[index]
        )
        optimiser.load_state_dict(checkpoint["optimiser_state"])  # type: ignore[arg-type]
        start_elapsed = float(checkpoint.get("elapsed_seconds", 0.0))  # type: ignore[arg-type]
    elif store is not None:
        # Fresh attempt (no usable checkpoint): discard any stale
        # trajectory left by a previous failed/killed attempt.
        store.reset_trajectory(cell_id)

    # ------------------------------------------------------------------
    # Round-granular persistence + streaming
    # ------------------------------------------------------------------
    def on_event(event: "RunEvent") -> None:
        if store is not None and isinstance(event, RoundCompleted):
            store.append_trajectory(cell_id, {
                "round": event.round_index,
                "num_evaluations": event.num_evaluations,
                "best_qor": event.best.qor if event.best is not None else None,
                "best_improvement": (event.best.qor_improvement
                                     if event.best is not None else None),
                "records": [evaluation_to_dict(record)
                            for record in event.records],
            })
            if (checkpoint_every > 0 and optimiser.supports_checkpoint
                    and event.round_index % checkpoint_every == 0):
                store.write_checkpoint(cell_id, {
                    "round": event.round_index,
                    "num_evaluations": evaluator.num_evaluations,
                    "elapsed_seconds": event.elapsed_seconds,
                    "method_key": str(payload["method_key"]),
                    "optimiser_state": optimiser.state_dict(),
                    "evaluator": {
                        "num_computed": evaluator.num_computed,
                        "num_persistent_hits": evaluator.num_persistent_hits,
                    },
                })
        if event_sink is not None:
            event_sink(cell_id, event.to_dict())

    wall_clock = payload.get("wall_clock_budget")
    threshold = payload.get("early_stop_improvement")
    stop_when = None
    if threshold is not None:
        floor = float(threshold)  # type: ignore[arg-type]

        def stop_when(progress: "DriveProgress") -> bool:
            return (progress.best is not None
                    and progress.best.qor_improvement >= floor)

    evaluator.defer_persistent_writes(True)
    try:
        drive(
            optimiser, evaluator, budget,
            on_event=on_event,
            stop_when=stop_when,
            max_seconds=float(wall_clock) if wall_clock is not None else None,  # type: ignore[arg-type]
            start_round=start_round,
            start_elapsed=start_elapsed,
        )
    finally:
        evaluator.defer_persistent_writes(False)
    result = optimiser._build_result(evaluator, spec.circuit,
                                     metadata=optimiser.run_metadata())
    # The checkpoint is cleared by the *parent* after it has written the
    # final record, so a kill in between still leaves a resumable cell.
    return index, result
