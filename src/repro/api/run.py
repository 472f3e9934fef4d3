"""Campaign execution: ``run``, ``resume`` and the one-problem helper.

:func:`run_campaign` is the single grid driver: the CLI's ``run`` /
``resume`` subcommands and :func:`repro.experiments.run_experiment`
(and so every paper study) all go through it.  It
expands a :class:`~repro.api.campaign.Campaign` into cells, skips any
cell that already has a completed record in the
:class:`~repro.api.store.CampaignStore`, dispatches the rest serially or
across a process pool (``jobs`` cells in flight — ``jobs=N`` is
bit-identical to ``jobs=1``), and persists each finished cell
atomically.  :func:`run_problem` is the same driver on a one-cell
campaign.

The execution core is *round-granular*: workers stream typed
:class:`~repro.bo.base.RunEvent` summaries back to the parent as each
ask/tell round completes (``on_event``), append per-round trajectory
JSONL to the store, and persist periodic optimiser checkpoints.  Kill
the driver at any point; running ``resume_campaign`` completes exactly
the missing cells — and continues any *partially finished* cell from
its last checkpoint, with the continued trajectory and final record
bit-identical to an uninterrupted run.  A cell whose optimiser raises
is recorded as a failed-cell :class:`~repro.api.store.RunRecord` (the
campaign keeps going); ``resume`` retries failed cells.

The driver is also *fault-tolerant*: transient infrastructure trouble —
a cell blowing its ``cell_timeout``/``eval_timeout``, a worker process
dying (``BrokenProcessPool``), an injected fault — is retried with
backoff per a :class:`~repro.engine.faults.RetryPolicy`, resuming the
cell from its last checkpoint so the recovered run stays bit-identical.
The pool itself is rebuilt up to ``max_pool_rebuilds`` times before the
run aborts with :class:`~repro.engine.faults.PoolUnrecoverableError`,
and a cell that exhausts ``max_attempts`` is stamped ``quarantined``
(skipped by resume) while the rest of the campaign finishes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_module
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.api.campaign import Campaign, CampaignCell
from repro.api.problem import Problem
from repro.api.store import CampaignStore, RunRecord
from repro.bo.base import OptimisationResult
from repro.engine import faults, worker
from repro.engine.cache import PersistentQoRCache
from repro.engine.pool import WarmPool, resolve_jobs
from repro.engine.worker import build_cell_payload
from repro.engine.faults import (
    DeadlineExceeded,
    FaultPlan,
    PoolUnrecoverableError,
    RetryPolicy,
)

ProgressCallback = Callable[[str], None]
#: Round-event callback: ``(cell_id, event_dict)`` for every streamed
#: :class:`repro.bo.base.RunEvent` (see ``RunEvent.to_dict``).
EventCallback = Callable[[str, Dict[str, object]], None]


def _cell_payload(
    cell: CampaignCell,
    campaign: Campaign,
    store: Optional[CampaignStore] = None,
    cache_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    attempt: int = 0,
    fault_plan: Optional[str] = None,
) -> Dict[str, object]:
    spec = cell.problem.evaluator_spec()
    if campaign.eval_timeout is not None or fault_plan is not None:
        spec = dataclasses.replace(spec, eval_timeout=campaign.eval_timeout,
                                   fault_plan=fault_plan)
    return build_cell_payload(
        index=cell.index,
        spec=spec,
        method_key=cell.method,
        seed=cell.seed,
        budget=campaign.budget,
        sequence_length=cell.problem.sequence_length,
        overrides=campaign.overrides_for(cell.method),
        cell_id=cell.cell_id,
        store_root=str(store.root) if store is not None else None,
        cache_dir=cache_dir,
        checkpoint_every=checkpoint_every if store is not None else 0,
        wall_clock_budget=campaign.wall_clock_budget,
        early_stop_improvement=campaign.early_stop_improvement,
        attempt=attempt,
    )


def _progress_message(cell: CampaignCell, status: str) -> str:
    return f"{cell.method} / {cell.problem.key} / seed {cell.seed} [{status}]"


class _CallbackError(Exception):
    """Wrapper distinguishing a parent-callback crash from a cell crash.

    In the serial path the user's ``on_event`` callback runs *inside*
    the cell's drive loop; without this marker a buggy callback would be
    misrecorded as a failed cell.  Wrapped errors are re-raised to the
    caller — matching the parallel path, where callbacks run in the
    parent and their exceptions abort ``run_campaign`` directly.
    """

    # repro: lint-ok[RPL004] parent-side serial-path marker; never crosses a process boundary
    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


def _guard_sink(on_event: Optional[EventCallback]) -> Optional[EventCallback]:
    if on_event is None:
        return None

    def guarded(cell_id: str, event: Dict[str, object]) -> None:
        try:
            on_event(cell_id, event)
        except Exception as error:  # noqa: BLE001 - re-raised to caller
            raise _CallbackError(error) from error

    return guarded


def _drain_events(event_queue: Any, on_event: Optional[EventCallback]) -> None:
    """Forward every queued worker event to the parent callback."""
    if event_queue is None or on_event is None:
        return
    while True:
        try:
            cell_id, event = event_queue.get_nowait()
        except queue_module.Empty:
            return
        on_event(cell_id, event)


def run_campaign(
    campaign: Campaign,
    store: Optional[Union[str, CampaignStore]] = None,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    on_event: Optional[EventCallback] = None,
    checkpoint_every: int = 1,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[Union[str, FaultPlan]] = None,
    retry_quarantined: bool = False,
    sleep: Optional[Callable[[float], None]] = None,
) -> List[RunRecord]:
    """Run (or continue) a campaign; returns records in cell order.

    Parameters
    ----------
    campaign:
        The declarative grid to run.  Validated up front so unknown
        methods/circuits/objectives fail before any compute is spent.
    store:
        Optional run directory (path or :class:`CampaignStore`).  With a
        store, completed cells are loaded from disk and skipped
        bit-identically, every fresh cell is persisted the moment it
        finishes, per-round trajectories are appended as multi-line
        JSONL, and optimiser checkpoints make *mid-cell* kill+resume
        bit-identical — this is the checkpoint/restart mechanism behind
        ``repro run`` / ``repro resume``.
    jobs:
        Worker processes for pending cells (1 = serial, 0 = all CPUs).
        Results are independent of ``jobs``.
    cache_dir:
        Optional persistent QoR cache shared across cells and runs; each
        cell opens its own connection to it and closes it when done.
    progress:
        Callback receiving one human-readable line per cell.
    on_event:
        Callback receiving ``(cell_id, event_dict)`` for every round
        event streamed from the workers — live per-round progress even
        for parallel campaigns.  Per-cell event order is preserved;
        events of concurrently running cells interleave.
    checkpoint_every:
        Checkpoint cadence in rounds (store runs only); ``0`` disables
        mid-cell checkpoints (per-round trajectories are still written).
    retry:
        Retry policy for transient faults (deadlines, worker crashes).
        Defaults to :class:`RetryPolicy()`.
    fault_plan:
        Deterministic fault-injection schedule (testing/CI only): a
        :class:`~repro.engine.faults.FaultPlan` or its JSON string,
        threaded into every cell's evaluator spec.
    retry_quarantined:
        Re-run cells previously stamped ``quarantined`` instead of
        skipping them (the ``resume --retry-quarantined`` path).
    sleep:
        Injectable backoff sleeper; tests pass a recorder so assertions
        never depend on wall-clock sleeps.
    """
    campaign = campaign.validate().resolved()
    if cache_dir is not None:
        # Cells open their own connections; a path that cannot hold the
        # cache is a campaign configuration error, raised once up front.
        PersistentQoRCache(cache_dir).close()
    campaign_store: Optional[CampaignStore] = None
    if store is not None:
        campaign_store = store if isinstance(store, CampaignStore) else CampaignStore(store)
        campaign = campaign_store.initialise(campaign)

    policy = retry or RetryPolicy()
    backoff_sleep = sleep or time.sleep
    plan_json: Optional[str] = None
    if fault_plan is not None:
        plan_json = (fault_plan.to_json() if isinstance(fault_plan, FaultPlan)
                     else str(fault_plan))

    cells = campaign.cells()
    statuses = campaign_store.cell_statuses() if campaign_store else {}
    records: List[Optional[RunRecord]] = [None] * len(cells)
    pending: List[CampaignCell] = []
    for cell in cells:
        status = statuses.get(cell.cell_id)
        if status == "ok":
            records[cell.index] = campaign_store.read_record(cell.cell_id)
            if progress is not None:
                progress(_progress_message(cell, "cached"))
        elif status == "quarantined" and not retry_quarantined:
            records[cell.index] = campaign_store.read_record(cell.cell_id)
            if progress is not None:
                progress(_progress_message(cell, "quarantined (skipped)"))
        else:
            pending.append(cell)

    cells_by_index = {cell.index: cell for cell in cells}

    def _finish(index: int, result: OptimisationResult) -> None:
        cell = cells_by_index[index]
        record = RunRecord.from_result(result, cell, campaign.budget)
        records[index] = record
        if campaign_store is not None:
            campaign_store.write_record(record)
            # Record first, checkpoint-drop second: a kill in between
            # leaves a resumable (merely redundant) checkpoint, never a
            # lost cell.
            campaign_store.clear_checkpoint(cell.cell_id)
        if progress is not None:
            progress(_progress_message(cell, "done"))

    def _finish_failure(cell: CampaignCell, error: BaseException) -> None:
        record = RunRecord.from_failure(cell, campaign.budget, error)
        records[cell.index] = record
        if campaign_store is not None:
            campaign_store.write_record(record)
        if progress is not None:
            progress(_progress_message(cell, f"failed: {error}"))

    def _finish_quarantine(cell: CampaignCell, error: BaseException,
                           attempts: int) -> None:
        # The checkpoint is deliberately *kept*: `resume
        # --retry-quarantined` continues from it bit-identically.
        record = RunRecord.from_quarantine(cell, campaign.budget, error,
                                           attempts)
        records[cell.index] = record
        if campaign_store is not None:
            campaign_store.write_record(record)
        if progress is not None:
            progress(_progress_message(
                cell, f"quarantined after {attempts} attempts: {error}"))

    attempts: Dict[str, int] = {}

    def _handle_retryable(cell: CampaignCell, error: BaseException,
                          requeue: Callable[[CampaignCell], None]) -> None:
        """Bump a cell's attempt count; requeue or quarantine it."""
        attempts[cell.cell_id] = attempts.get(cell.cell_id, 0) + 1
        count = attempts[cell.cell_id]
        if count >= policy.max_attempts:
            _finish_quarantine(cell, error, count)
            return
        delay = policy.delay_for(count, cell.cell_id)
        if delay > 0:
            backoff_sleep(delay)
        if progress is not None:
            progress(_progress_message(
                cell, f"retry {count + 1}/{policy.max_attempts}: {error}"))
        requeue(cell)

    jobs = resolve_jobs(jobs)

    def _payload_for(cell: CampaignCell) -> Dict[str, object]:
        return _cell_payload(cell, campaign, campaign_store, cache_dir,
                             checkpoint_every,
                             attempt=attempts.get(cell.cell_id, 0),
                             fault_plan=plan_json)

    if jobs <= 1 or len(pending) <= 1:
        worker.init_campaign_worker()
        sink = _guard_sink(on_event)
        queue: deque = deque(pending)
        while queue:
            cell = queue.popleft()
            # Built outside the isolation block: a payload that cannot be
            # built (e.g. a pinned circuit hash no longer matching disk)
            # is a campaign-level configuration error, not a failed cell.
            payload = _payload_for(cell)
            try:
                with faults.deadline(campaign.cell_timeout, scope="cell"):
                    index, result = worker.run_campaign_cell(
                        payload, event_sink=sink)
            except _CallbackError as error:
                raise error.original
            except Exception as error:  # noqa: BLE001 - cell isolation
                if RetryPolicy.retryable(error):
                    _handle_retryable(cell, error, queue.append)
                else:
                    _finish_failure(cell, error)
            else:
                _finish(index, result)
    else:
        manager = None
        event_queue = None
        if on_event is not None:
            manager = multiprocessing.Manager()
            event_queue = manager.Queue()
        try:
            _run_parallel(
                pending, jobs, event_queue,
                on_event, campaign, policy,
                _payload_for, _finish, _finish_failure, _handle_retryable,
            )
        finally:
            if manager is not None:
                manager.shutdown()

    missing = [i for i, record in enumerate(records) if record is None]
    if missing:  # pragma: no cover - defensive
        raise RuntimeError(f"campaign cells {missing} produced no record")
    return records  # type: ignore[return-value]


def _run_parallel(
    pending: List[CampaignCell],
    jobs: int,
    event_queue: Any,
    on_event: Optional[EventCallback],
    campaign: Campaign,
    policy: RetryPolicy,
    payload_for: Callable[[CampaignCell], Dict[str, object]],
    finish: Callable[[int, OptimisationResult], None],
    finish_failure: Callable[[CampaignCell, BaseException], None],
    handle_retryable: Callable[..., None],
) -> None:
    """The supervised parallel loop: self-healing pool + deadlines.

    Submission is throttled to ``jobs`` futures in flight so every
    in-flight future corresponds to a cell actually *running* in a
    worker.  That is what makes recovery tractable: when the pool breaks
    or a deadline blows, the suspect set is exactly the in-flight cells
    — each is retried from its last checkpoint (bit-identical), and only
    cells implicated repeatedly reach quarantine.
    """
    queue: deque = deque(pending)
    in_flight: Dict[Future, Tuple[CampaignCell, float]] = {}
    # One warm pool for the whole campaign: workers start once and keep
    # the synthesis memo across cells; each cell builds its own evaluator
    # and cache connection.  Crash recovery rebuilds only the workers.
    warm = WarmPool(
        max_workers=min(jobs, max(1, len(pending))),
        initializer=worker.init_campaign_worker,
        initargs=(event_queue, True),
    )
    crash_rebuilds = 0
    tick = 0.1 if (event_queue is not None
                   or campaign.cell_timeout is not None) else None

    def crash_recovery(error: BaseException) -> None:
        """The pool died: settle finished futures, retry the suspects."""
        nonlocal crash_rebuilds
        crash_rebuilds += 1
        if crash_rebuilds > policy.max_pool_rebuilds:
            warm.recycle()
            raise PoolUnrecoverableError(
                f"campaign pool died {crash_rebuilds} times "
                f"(> {policy.max_pool_rebuilds} rebuilds): {error}"
            ) from error
        # Futures that finished before the crash carry real results —
        # settle them first so their cells are not needlessly re-run.
        suspects: List[CampaignCell] = []
        for future, (cell, _) in sorted(in_flight.items(),
                                        key=lambda kv: kv[1][0].index):
            if future.done():
                try:
                    index, result = future.result()
                except BrokenProcessPool:
                    suspects.append(cell)
                except Exception as cell_error:  # noqa: BLE001
                    if RetryPolicy.retryable(cell_error):
                        handle_retryable(cell, cell_error, queue.append)
                    else:
                        finish_failure(cell, cell_error)
                else:
                    finish(index, result)
            else:
                suspects.append(cell)
        in_flight.clear()
        warm.recycle()
        for cell in suspects:
            handle_retryable(cell, error, queue.append)

    try:
        while queue or in_flight:
            while queue and len(in_flight) < jobs:
                cell = queue.popleft()
                try:
                    future = warm.executor().submit(worker.run_campaign_cell,
                                                    payload_for(cell))
                except BrokenProcessPool as error:
                    queue.appendleft(cell)
                    crash_recovery(error)
                    continue
                in_flight[future] = (cell, time.monotonic())
            if not in_flight:
                continue
            done, _ = wait(set(in_flight), timeout=tick,
                           return_when=FIRST_COMPLETED)
            _drain_events(event_queue, on_event)
            broken: Optional[BrokenProcessPool] = None
            for future in sorted(done,
                                 key=lambda f: in_flight[f][0].index):
                cell, _ = in_flight.pop(future)
                try:
                    index, result = future.result()
                except BrokenProcessPool as error:
                    # The cell whose future broke is a crash suspect like
                    # any other in-flight cell: retry it with an attempt
                    # bump, or the same injected/systematic crash would
                    # re-fire on every resubmission.
                    broken = error
                    handle_retryable(cell, error, queue.append)
                except Exception as error:  # noqa: BLE001 - cell isolation
                    if RetryPolicy.retryable(error):
                        handle_retryable(cell, error, queue.append)
                    else:
                        finish_failure(cell, error)
                else:
                    finish(index, result)
            if broken is not None:
                crash_recovery(broken)
                continue
            if campaign.cell_timeout is not None and in_flight:
                now = time.monotonic()
                overdue = {future for future, (_, started) in in_flight.items()
                           if now - started > campaign.cell_timeout}
                if overdue:
                    # A wedged worker: kill the whole pool (executors
                    # cannot cancel a running task), blame only the
                    # overdue cells and restart the innocent ones from
                    # their checkpoints — bit-identical by the resume
                    # guarantee.  Deadline recycles are bounded by the
                    # per-cell attempt budget, so they do not count
                    # against the crash-rebuild budget.
                    victims = [(future, cell) for future, (cell, _)
                               in in_flight.items()]
                    in_flight.clear()
                    warm.recycle()
                    for future, cell in sorted(victims,
                                               key=lambda fc: fc[1].index):
                        if future in overdue:
                            handle_retryable(
                                cell,
                                DeadlineExceeded("cell",
                                                 campaign.cell_timeout),
                                queue.append)
                        else:
                            queue.append(cell)
        # Workers enqueue all of a cell's events before its future
        # resolves, so one final drain collects every straggler.
        _drain_events(event_queue, on_event)
    finally:
        warm.close(cancel_futures=True)


def resume_campaign(
    store: Union[str, CampaignStore],
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    on_event: Optional[EventCallback] = None,
    checkpoint_every: int = 1,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[Union[str, FaultPlan]] = None,
    retry_quarantined: bool = False,
    sleep: Optional[Callable[[float], None]] = None,
) -> List[RunRecord]:
    """Continue the campaign stored in a run directory.

    Loads the manifest and runs exactly the cells without a completed
    record: untouched cells start fresh, *partially finished* cells
    (mid-cell checkpoint present) continue from their checkpoint
    bit-identically, and failed cells are retried.  Quarantined cells
    are skipped unless ``retry_quarantined`` is set.  A directory whose
    every cell is complete returns immediately with the stored records.
    """
    campaign_store = store if isinstance(store, CampaignStore) else CampaignStore(store)
    campaign = campaign_store.load_campaign()
    return run_campaign(campaign, campaign_store, jobs=jobs,
                        cache_dir=cache_dir, progress=progress,
                        on_event=on_event, checkpoint_every=checkpoint_every,
                        retry=retry, fault_plan=fault_plan,
                        retry_quarantined=retry_quarantined, sleep=sleep)


def run_problem(
    problem: Problem,
    method: str = "boils",
    *,
    seed: int = 0,
    budget: int = 20,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    **overrides: object,
) -> OptimisationResult:
    """Run one optimiser on one problem — the five-line quickstart path.

    A one-cell :func:`run_campaign` with no store.  ``overrides`` are
    constructor keyword arguments for the chosen method (e.g.
    ``num_initial=5`` for BOiLS), applied on top of its registered grid
    defaults.  ``jobs`` means cells in flight, as everywhere; a single
    cell always runs in-process, so every valid ``jobs`` gives the same
    result and starts no pool.  A cell that fails raises
    :class:`RuntimeError` naming the cell and its error.
    """
    # Imported here: repro.experiments.runner imports repro.api.
    from repro.experiments.runner import run_experiment

    campaign = Campaign.single(problem.validate(), method, seed=seed,
                               budget=budget, **overrides)
    return run_experiment(campaign, jobs=jobs, cache_dir=cache_dir)[0]
