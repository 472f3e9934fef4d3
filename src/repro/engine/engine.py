"""Parallel batch evaluation of synthesis sequences.

:class:`EvaluationEngine` fans a batch of sequences out to a *warm*
process pool — one :class:`~repro.engine.pool.WarmPool` owned for the
engine's whole life, whose workers rebuild the circuit + mapper exactly
once (from a picklable :class:`repro.engine.spec.EvaluatorSpec`) and
then serve every subsequent batch, round and cell.  Three layers keep
the parallel path cheap:

* **Warm workers** — the pool outlives batches; worker initialisation
  attaches the circuit and evaluator once per worker per pool epoch.
* **Shared-memory AIG hand-off** — the parent publishes the circuit's
  flat arrays via :mod:`repro.engine.shm` and piggybacks the measured
  reference/initial stats on the spec, so worker start-up is an
  O(num_vars) copy instead of a circuit rebuild plus reference flow.
* **Adaptive execution planner** — per batch, a measured cost model
  (:mod:`repro.engine.planner`) routes to serial or warm-pool
  execution, so short batches never pay pool tax; every decision is
  logged in :meth:`metadata`.

The engine is *pure compute*: it returns
:class:`repro.qor.SequenceEvaluation` records without touching any
evaluator's history, counters or caches.  All accounting stays in the
parent :class:`repro.qor.QoREvaluator`, which is what keeps parallel
runs bit-identical to serial ones — and why the planner's routing
choice can never change results.

With an ``eval_timeout`` or :class:`~repro.engine.faults.RetryPolicy`
configured the engine runs *supervised*: each sequence is submitted as
its own task, a worker that blows its deadline or dies is recycled (the
warm pool advances an epoch and rebuilds, in-flight sequences
re-submitted), and a sequence that keeps failing across
``max_attempts`` is surfaced as
:class:`~repro.engine.faults.PoisonInputError` instead of hanging or
aborting the run.  Supervised batches always use the pool (per-task
deadlines need worker isolation), so the planner only routes the
unsupervised fast path.

Typical use::

    spec = EvaluatorSpec.for_circuit("adder", width=16)
    evaluator = spec.build_evaluator()
    with EvaluationEngine(spec, jobs=4, evaluator=evaluator) as engine:
        evaluator.attach_engine(engine)
        optimiser.optimise(evaluator, budget=200)
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine import shm, worker
from repro.engine.faults import (
    DeadlineExceeded,
    PoisonInputError,
    PoolUnrecoverableError,
    RetryPolicy,
)
from repro.engine.planner import ExecutionPlanner, PlanDecision
from repro.engine.pool import WarmPool
from repro.engine.spec import EvaluatorSpec
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.synth.operations import sequence_to_names

#: How many routing decisions :meth:`EvaluationEngine.metadata` retains.
_DECISION_LOG_LIMIT = 64


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all CPUs)")
    return int(jobs)


class EvaluationEngine:
    """Scores batches of sequences, in parallel when ``jobs > 1``.

    Parameters
    ----------
    spec:
        Picklable evaluator description used to rebuild the black box in
        each worker.  Required when ``jobs > 1``; optional for the serial
        path if ``evaluator`` is given.
    jobs:
        Worker-process count; ``1`` computes in-process (no pool is ever
        created), ``0``/``None`` uses every CPU.
    evaluator:
        Optional existing evaluator whose pure :meth:`~QoREvaluator.compute`
        serves the serial path and single-element batches, avoiding a
        redundant circuit rebuild in the parent process.
    eval_timeout:
        Per-evaluation deadline in seconds.  Workers enforce it in-task
        via SIGALRM; the parent additionally enforces a hard deadline of
        ``2 × eval_timeout + 1`` per task, recycling the pool if a
        worker is wedged beyond even that.
    retry:
        Retry policy for deadline blowouts and worker crashes; defaults
        to :class:`RetryPolicy()` when ``eval_timeout`` is set.
    adaptive:
        When true (default) the execution planner routes each
        unsupervised batch to serial or warm-pool execution by predicted
        cost.  ``False`` restores the legacy behaviour — every
        multi-element batch at ``jobs > 1`` goes to the pool — which the
        throughput benchmark uses to measure raw pool speed.
    """

    def __init__(
        self,
        spec: Optional[EvaluatorSpec] = None,
        jobs: int = 1,
        evaluator: Optional[QoREvaluator] = None,
        *,
        eval_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
        adaptive: bool = True,
    ) -> None:
        self.spec = spec
        self.jobs = resolve_jobs(jobs)
        if self.jobs > 1 and spec is None:
            raise ValueError("a spec is required for parallel evaluation (jobs > 1)")
        if spec is None and evaluator is None:
            raise ValueError("need a spec or an evaluator to compute with")
        if eval_timeout is not None and eval_timeout <= 0:
            raise ValueError("eval_timeout must be positive")
        if (spec is not None and eval_timeout is not None
                and spec.eval_timeout is None):
            # Thread the deadline into the spec so workers enforce it
            # in-task via SIGALRM; the parent's hard deadline is only
            # the backstop for wedged workers.
            spec = dataclasses.replace(spec, eval_timeout=eval_timeout)
            self.spec = spec
        self.eval_timeout = eval_timeout
        self.retry = retry if retry is not None else (
            RetryPolicy() if eval_timeout is not None else None)
        self._sleep = sleep or time.sleep
        self._local = evaluator
        self._adaptive = bool(adaptive)
        self._planner = ExecutionPlanner(self.jobs)
        self._decisions: Deque[PlanDecision] = deque(maxlen=_DECISION_LOG_LIMIT)
        self._warm_pool: Optional[WarmPool] = None
        self._pool_payload: Optional[Dict[str, object]] = None
        self._shm_segment: Optional[shared_memory.SharedMemory] = None
        self._shm_handle: Optional[shm.SharedAIGHandle] = None
        self._rebuilds = 0

    @property
    def _supervised(self) -> bool:
        return self.retry is not None or self.eval_timeout is not None or (
            self.spec is not None and self.spec.fault_plan is not None)

    # ------------------------------------------------------------------
    def _local_evaluator(self) -> QoREvaluator:
        if self._local is None:
            assert self.spec is not None
            self._local = self.spec.build_evaluator(cache=False)
        return self._local

    def _worker_payload(self) -> Dict[str, object]:
        """Spec payload for pool workers: shm handle + warm stats attached.

        Built once and reused across pool epochs — a recycled pool's
        fresh workers re-attach the same shared-memory segment, so crash
        recovery rebuilds warm state instead of discarding it.
        """
        if self._pool_payload is None:
            assert self.spec is not None
            local = self._local_evaluator()
            if self._shm_segment is None:
                self._shm_segment, self._shm_handle = shm.publish_aig(local.aig)
            warm_spec = dataclasses.replace(
                self.spec,
                shared_aig=self._shm_handle,
                reference_stats=(local.reference_area, local.reference_delay),
                initial_stats=(local.initial_result.area,
                               local.initial_result.delay),
            )
            self._pool_payload = warm_spec.to_payload()
        return self._pool_payload

    def _warm(self) -> WarmPool:
        if self._warm_pool is None:
            self._warm_pool = WarmPool(
                max_workers=self.jobs,
                initializer=worker.init_evaluation_worker,
                initargs_for=lambda epoch: (self._worker_payload(), epoch),
            )
        return self._warm_pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        return self._warm().executor()

    def _recycle_pool(self) -> None:
        """Tear the pool down and advance the epoch for its successor."""
        self._warm().recycle()

    # ------------------------------------------------------------------
    def compute_batch(
        self, sequences: Sequence[Sequence[Union[str, int]]]
    ) -> List[SequenceEvaluation]:
        """Score a batch of sequences; results are positional.

        Pure compute — no evaluator state is touched.  Batches of one (or
        an engine with ``jobs=1``) stay in-process; larger batches are
        routed serial/pool by the planner (or forced to the warm pool
        with ``adaptive=False``).  With fault-tolerance knobs set, the
        parallel path runs supervised (per-task deadlines, retry, pool
        self-healing) and skips planning.
        """
        names_list: List[Tuple[str, ...]] = [
            tuple(sequence_to_names(seq)) for seq in sequences
        ]
        if not names_list:
            return []
        if self.jobs <= 1 or len(names_list) == 1:
            if self.jobs > 1 and self._adaptive and not self._supervised:
                # Single-element batches double as free serial-cost
                # samples that bootstrap the planner's model.
                return self._run_serial_batch(names_list)
            local = self._local_evaluator()
            return [local.compute(names) for names in names_list]
        if self._supervised:
            return self._compute_batch_supervised(names_list)
        if not self._adaptive:
            decision = PlanDecision(
                batch_size=len(names_list),
                mode="pool",
                predicted_serial=None,
                predicted_pool=None,
                pool_warm=self._warm_pool is not None and self._warm_pool.warm,
                reason="adaptive planning disabled",
            )
        else:
            decision = self._planner.plan(
                len(names_list),
                pool_warm=self._warm_pool is not None and self._warm_pool.warm,
            )
        self._decisions.append(decision)
        if decision.mode == "serial":
            return self._run_serial_batch(names_list)
        return self._run_pool_batch(names_list)

    def _run_serial_batch(
        self, names_list: List[Tuple[str, ...]]
    ) -> List[SequenceEvaluation]:
        local = self._local_evaluator()
        start = time.perf_counter()
        records = [local.compute(names) for names in names_list]
        self._planner.observe_serial(len(names_list),
                                     time.perf_counter() - start)
        return records

    def _run_pool_batch(
        self, names_list: List[Tuple[str, ...]]
    ) -> List[SequenceEvaluation]:
        # The original chunked fast path: one map, minimal overhead.
        cold = not (self._warm_pool is not None and self._warm_pool.warm)
        pool = self._ensure_pool()
        chunksize = max(1, len(names_list) // (self.jobs * 4))
        start = time.perf_counter()
        records = list(pool.map(worker.evaluate_sequence, names_list,
                                chunksize=chunksize))
        self._planner.observe_pool(len(names_list),
                                   time.perf_counter() - start, cold=cold)
        return records

    def _compute_batch_supervised(
        self, names_list: List[Tuple[str, ...]]
    ) -> List[SequenceEvaluation]:
        """Per-task submission with deadlines, retry and pool recycling.

        Submission is throttled to ``jobs`` futures in flight, so every
        in-flight task is actually *running* in a worker — which is what
        lets a pool crash or an overdue deadline be attributed to the
        small in-flight set rather than the whole batch.
        """
        policy = self.retry or RetryPolicy()
        results: List[Optional[SequenceEvaluation]] = [None] * len(names_list)
        attempts = [0] * len(names_list)
        queue = deque(range(len(names_list)))
        in_flight: Dict[Future, Tuple[int, float]] = {}
        # The parent-side hard deadline backs up the worker-side SIGALRM:
        # generous enough to never fire first on a healthy worker.
        hard_deadline = (2.0 * self.eval_timeout + 1.0
                         if self.eval_timeout is not None else None)

        def requeue(index: int, error: BaseException, *,
                    blame: bool = True) -> None:
            if blame:
                attempts[index] += 1
                if attempts[index] >= policy.max_attempts:
                    raise PoisonInputError(names_list[index], attempts[index],
                                           error)
                delay = policy.delay_for(attempts[index],
                                         "|".join(names_list[index]))
                if delay > 0:
                    self._sleep(delay)
            queue.append(index)

        def crash_recovery(error: BaseException) -> None:
            self._rebuilds += 1
            if self._rebuilds > policy.max_pool_rebuilds:
                raise PoolUnrecoverableError(
                    f"evaluation pool died {self._rebuilds} times "
                    f"(> {policy.max_pool_rebuilds} rebuilds): {error}"
                ) from error
            # Every in-flight task is a crash suspect; each gets an
            # attempt bump (poison detection still converges because the
            # actual poison input keeps crashing every rebuilt pool).
            suspects = [index for _, (index, _) in
                        sorted(in_flight.items(), key=lambda kv: kv[1][0])]
            in_flight.clear()
            self._recycle_pool()
            for index in suspects:
                requeue(index, error)

        while queue or in_flight:
            while queue and len(in_flight) < self.jobs:
                index = queue.popleft()
                try:
                    future = self._ensure_pool().submit(
                        worker.evaluate_sequence, names_list[index])
                except BrokenProcessPool as error:
                    queue.appendleft(index)
                    crash_recovery(error)
                    continue
                in_flight[future] = (index, time.monotonic())
            if not in_flight:
                continue
            done, _ = wait(set(in_flight),
                           timeout=0.05 if hard_deadline is not None else None,
                           return_when=FIRST_COMPLETED)
            broken: Optional[BrokenProcessPool] = None
            for future in done:
                index, _ = in_flight.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool as error:
                    # The task whose future broke is a crash suspect:
                    # blame it (attempt bump) or a systematic crasher
                    # would re-fire identically on every resubmission.
                    broken = error
                    requeue(index, error)
                except DeadlineExceeded as error:
                    requeue(index, error)
            if broken is not None:
                crash_recovery(broken)
                continue
            if hard_deadline is not None and in_flight:
                now = time.monotonic()
                overdue = [(future, index) for future, (index, started)
                           in in_flight.items() if now - started > hard_deadline]
                if overdue:
                    # A wedged worker that even SIGALRM cannot reach:
                    # kill the pool; only the overdue tasks are blamed,
                    # the co-flying ones re-run blamelessly.
                    overdue_set = {future for future, _ in overdue}
                    innocent = [index for future, (index, _) in
                                in_flight.items() if future not in overdue_set]
                    in_flight.clear()
                    self._recycle_pool()
                    for index in innocent:
                        queue.append(index)
                    for _, index in overdue:
                        requeue(index, DeadlineExceeded(
                            "evaluation",
                            self.eval_timeout or hard_deadline,
                            names_list[index]))
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def metadata(self) -> Dict[str, object]:
        """JSON-safe execution metadata: pool state + planner decisions."""
        warm_pool = self._warm_pool
        return {
            "jobs": self.jobs,
            "adaptive": self._adaptive,
            "supervised": self._supervised,
            "pool": {
                "warm": warm_pool is not None and warm_pool.warm,
                "epoch": warm_pool.epoch if warm_pool is not None else 0,
                "builds": warm_pool.builds if warm_pool is not None else 0,
                "rebuilds": self._rebuilds,
            },
            "shared_aig": (self._shm_handle.to_payload()
                           if self._shm_handle is not None else None),
            "planner": self._planner.state(),
            "decisions": [decision.to_dict() for decision in self._decisions],
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool and unlink shared memory (idempotent)."""
        if self._warm_pool is not None:
            self._warm_pool.close()
            self._warm_pool = None
        if self._shm_segment is not None:
            # Workers unregistered themselves from the resource tracker
            # on attach, so this is the one and only unlink.
            shm.unlink_segment(self._shm_segment)
            self._shm_segment = None
            self._shm_handle = None
            self._pool_payload = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
