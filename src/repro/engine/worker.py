"""Worker-process entry points for campaign cells.

Every cell builds its own :class:`repro.qor.QoREvaluator` from a
picklable :class:`repro.engine.spec.EvaluatorSpec` (AIGs never cross the
pipe) and, when its payload names a ``cache_dir``, opens its own
:class:`~repro.engine.cache.PersistentQoRCache` connection and closes it
when the cell ends.  Nothing but the event queue and the pool-worker
flag outlives a cell: the ``resyn2`` reference flow a rebuilt evaluator
measures is answered by the native backend's process-wide synthesis
memo.  Everything in this module is importable at top level — a
requirement for ``multiprocessing`` pickling of the initialiser and
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
#: Pool workers' manager-queue proxy for round events (``None`` when the
#: parent asked for none, and in the serial path).
_EVENT_QUEUE: Optional[object] = None


def worker_diagnostics() -> Dict[str, object]:
    """Introspection task for tests and the CLI: one worker's state."""
    return {
        "pid": os.getpid(),
        "in_pool": _IN_POOL,
        # Diagnostic only: OpenBLAS threads by library (see repro.gp.blas).
        "blas_threads": blas_threads(),
        **synth_memo_stats(),
    }


def _make_space(payload: Dict[str, object]) -> "SequenceSpace":
    from repro.bo.space import SequenceSpace

    return SequenceSpace(sequence_length=int(payload["sequence_length"]))  # type: ignore[arg-type]


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
    cache_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    wall_clock_budget: Optional[float] = None,
    early_stop_improvement: Optional[float] = None,
    attempt: int = 0,
) -> Dict[str, object]:
    """The picklable payload :func:`run_campaign_cell` consumes.

    The optional keys (``cell_id``, ``store_root``, ``cache_dir``,
    ``checkpoint_every``, ``wall_clock_budget``,
    ``early_stop_improvement``, ``attempt``) are included only when set,
    so a store-less payload stays minimal.
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
    if cache_dir is not None:
        payload["cache_dir"] = str(cache_dir)
    if checkpoint_every:
        payload["checkpoint_every"] = int(checkpoint_every)
    if wall_clock_budget is not None:
        payload["wall_clock_budget"] = float(wall_clock_budget)
    if early_stop_improvement is not None:
        payload["early_stop_improvement"] = float(early_stop_improvement)
    if attempt:
        payload["attempt"] = int(attempt)
    return payload


def init_campaign_worker(event_queue: Optional[object] = None,
                         in_pool: bool = False) -> None:
    """Pool initialiser for campaign cells; also used by the serial path.

    ``event_queue`` is a ``multiprocessing.Manager`` queue proxy (or
    ``None`` when the parent did not ask for live events); every cell
    running in this worker streams its round events into it as
    ``(cell_id, event_dict)`` tuples.  ``in_pool`` marks this process as
    a pool worker (injected crashes become hard process exits).
    """
    global _EVENT_QUEUE, _IN_POOL
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

    The cell builds a fresh evaluator from the payload's spec, so its
    result does not depend on which cells ran before it in the same
    process — the property that makes ``jobs=1`` and ``jobs=N`` grids
    identical.  With a ``cache_dir`` in the payload it opens the
    persistent QoR cache there, commits its fresh rows in one
    transaction when the drive loop ends, and closes the cache however
    the cell ends.

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
    # Imported lazily: repro.api and the runner import this package, so
    # a module-level import back into them would be circular.
    from repro.api.store import CampaignStore
    from repro.experiments.runner import make_optimiser

    spec = EvaluatorSpec.from_payload(payload["spec"])  # type: ignore[arg-type]
    index = int(payload["index"])  # type: ignore[arg-type]
    cell_id = payload.get("cell_id")
    store_root = payload.get("store_root")
    cache_dir = payload.get("cache_dir")
    checkpoint_every = int(payload.get("checkpoint_every") or 0)  # type: ignore[arg-type]
    attempt = int(payload.get("attempt") or 0)  # type: ignore[arg-type]
    store = (CampaignStore(str(store_root))
             if store_root is not None and cell_id is not None else None)
    cell_id = str(cell_id) if cell_id is not None else f"cell-{index}"
    if event_sink is None:
        event_sink = _queue_event_sink()

    # The cache connects before the fault context opens, so the cell's
    # first cache operation keeps fault ordinal 0.
    cache = PersistentQoRCache(str(cache_dir)) if cache_dir is not None else None
    try:
        evaluator = spec.build_evaluator(persistent_cache=cache)
        optimiser = make_optimiser(
            str(payload["method_key"]),
            space=None if payload["sequence_length"] is None else _make_space(payload),
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            **dict(payload.get("overrides") or {}),  # type: ignore[arg-type]
        )
        # Fault-injection context: scheduled events are keyed by this
        # cell's (cell_id, attempt); the hook makes the cell's cache see
        # scheduled transient errors.
        inject = spec.fault_plan is not None or spec.eval_timeout is not None
        if inject:
            faults.activate(cell_id, attempt, hard_crash=_IN_POOL)
            if cache is not None:
                cache.fault_hook = faults.build_cache_hook(spec.fault_plan)
        try:
            return _run_campaign_cell_body(
                payload, spec, evaluator, optimiser,
                int(payload["budget"]),  # type: ignore[arg-type]
                index, cell_id, store, checkpoint_every, event_sink)
        finally:
            if inject:
                faults.deactivate()
    finally:
        if cache is not None:
            cache.close()


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
