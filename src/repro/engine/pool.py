"""Warm process pools: the one sanctioned ProcessPoolExecutor owner.

The engine/api layer has two parallel paths: batch evaluation inside
one run (:class:`~repro.engine.engine.EvaluationEngine`) and campaign
cells (:func:`repro.api.run.run_campaign`, which every experiment grid
goes through).  Each owns one ``WarmPool``: a single executor kept
across batches, rounds and cells instead of a fresh
``ProcessPoolExecutor`` per call site, which used to make parallel runs
slower than serial ones.  ``WarmPool`` exposes the two operations
supervision needs: lazy (re)build and epoch-bumping recycle after a
crash or deadline kill.

Lint rule RPL008 flags direct ``ProcessPoolExecutor`` construction in
``repro/engine``/``repro/api``; this module is the allowlisted home.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Tuple


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block forever on a hung worker, so the
    worker processes are killed first and the executor is only then shut
    down with ``cancel_futures`` to release queued work.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=True, cancel_futures=True)


class WarmPool:
    """A persistent worker pool that survives batches and heals by epoch.

    The executor is built lazily on first :meth:`executor` call and then
    reused until :meth:`recycle` (crash recovery — kills the workers,
    bumps the epoch so the next build re-initialises them) or
    :meth:`close`.  ``initargs_for`` receives the current epoch so worker
    initialisers can key fault-injection schedules and diagnostics to the
    pool generation, matching the supervised engine's retry semantics.
    """

    def __init__(
        self,
        max_workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs_for: Optional[Callable[[int], Tuple[object, ...]]] = None,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self._initializer = initializer
        self._initargs_for = initargs_for
        self._pool: Optional[ProcessPoolExecutor] = None
        self._epoch = 0
        self._builds = 0

    @property
    def epoch(self) -> int:
        """Pool generation; bumped by every :meth:`recycle`."""
        return self._epoch

    @property
    def builds(self) -> int:
        """How many executors have been constructed over the pool's life."""
        return self._builds

    @property
    def warm(self) -> bool:
        """True when an executor exists (its workers hold warm state)."""
        return self._pool is not None

    def executor(self) -> ProcessPoolExecutor:
        """Return the live executor, building it if necessary."""
        if self._pool is None:
            initargs: Tuple[object, ...] = ()
            if self._initargs_for is not None:
                initargs = tuple(self._initargs_for(self._epoch))
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self._initializer,
                initargs=initargs,
            )
            self._builds += 1
        return self._pool

    def recycle(self) -> None:
        """Kill the current workers and advance the epoch.

        The next :meth:`executor` call rebuilds with fresh workers whose
        initialiser sees the new epoch — warm state (shared-memory
        segments, parent-side caches) is re-established, not lost.
        """
        if self._pool is not None:
            terminate_pool(self._pool)
            self._pool = None
        self._epoch += 1

    def close(self, cancel_futures: bool = False, terminate: bool = False) -> None:
        """Shut the pool down; idempotent."""
        if self._pool is None:
            return
        if terminate:
            terminate_pool(self._pool)
        else:
            self._pool.shutdown(wait=True, cancel_futures=cancel_futures)
        self._pool = None

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["WarmPool", "terminate_pool"]
