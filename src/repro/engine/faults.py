"""Fault-tolerance primitives: deadlines, retry policy, fault injection.

The campaign service tier (ROADMAP item 2) needs the engine to *recover*
from infrastructure failures instead of merely isolating them.  This
module supplies the shared vocabulary used across the engine and the
campaign driver:

* a typed error hierarchy (:class:`DeadlineExceeded`,
  :class:`PoolUnrecoverableError`, ...),
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (hash-derived, no RNG state), plus the
  retryable-vs-fatal error classification,
* :func:`deadline` — a nestable SIGALRM-based timeout context usable in
  both the serial driver and pool workers' main threads,
* :class:`FaultPlan` / :class:`FaultEvent` — a seeded, declarative
  schedule of crash/hang/cache-error injections keyed by
  ``(cell_id, attempt)`` so every recovery path is exercised
  deterministically in tests and CI.

Retries are only safe because cells are checkpoint-resumable: a retried
cell continues from its last persisted checkpoint, so a recovered run is
bit-identical to a fault-free one (the PR-4 guarantee, extended to
in-flight recovery).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "EngineFaultError",
    "DeadlineExceeded",
    "PoolUnrecoverableError",
    "FaultInjected",
    "InjectedCrash",
    "RetryPolicy",
    "FaultEvent",
    "FaultPlan",
    "deadline",
]


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------
class EngineFaultError(RuntimeError):
    """Base class for engine infrastructure faults (never optimiser bugs)."""


class DeadlineExceeded(EngineFaultError):
    """An evaluation or cell blew its wall-clock deadline."""

    def __init__(self, scope: str, timeout: float,
                 sequence: Optional[Tuple[str, ...]] = None) -> None:
        detail = f"{scope} exceeded {timeout:g}s deadline"
        if sequence:
            detail += f" (sequence {'|'.join(sequence)})"
        super().__init__(detail)
        self.scope = scope
        self.timeout = timeout
        self.sequence = tuple(sequence) if sequence else None

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        # Raised inside pool workers and unpickled in the parent, so the
        # constructor arguments (not the formatted message) must travel.
        return (type(self), (self.scope, self.timeout, self.sequence))


class PoolUnrecoverableError(EngineFaultError):
    """The worker pool kept dying past the rebuild budget — infra failure."""


class FaultInjected(EngineFaultError):
    """Base class for errors raised by the fault-injection harness."""


class InjectedCrash(FaultInjected):
    """A scheduled crash event fired in a serial (in-process) context."""


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
#: Errors that indicate transient infrastructure trouble worth retrying.
_RETRYABLE_TYPES: Tuple[type, ...] = (
    DeadlineExceeded,
    FaultInjected,
    sqlite3.OperationalError,
    sqlite3.DatabaseError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts *total* tries of one unit of work (a cell,
    or a persistent-cache operation); a cell that exhausts it is
    quarantined.
    ``max_pool_rebuilds`` bounds how many times a crashed process pool is
    rebuilt before the whole run is declared unrecoverable.

    Jitter is derived by hashing ``(key, attempt)`` — the same campaign
    seed and schedule always produce the same delays, keeping recovery
    runs reproducible.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.5
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be non-negative")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        base = min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** (attempt - 1))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64
        return base * (1.0 + self.jitter * unit)

    @staticmethod
    def retryable(error: BaseException) -> bool:
        """Whether an error is transient infrastructure trouble.

        Optimiser/evaluator bugs (``ValueError``, ``RuntimeError`` and
        friends) are *not* retryable: re-running deterministic code on
        the same input reproduces the same bug, and the existing
        failed-cell isolation already records them.
        """
        # BrokenProcessPool imports lazily to keep this module light.
        from concurrent.futures.process import BrokenProcessPool
        if isinstance(error, PoolUnrecoverableError):
            return False
        return isinstance(error, _RETRYABLE_TYPES + (BrokenProcessPool,))

    def to_payload(self) -> Dict[str, float]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "jitter": self.jitter,
            "max_pool_rebuilds": self.max_pool_rebuilds,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RetryPolicy":
        return cls(
            max_attempts=int(payload.get("max_attempts", 3)),
            backoff_base=float(payload.get("backoff_base", 0.25)),
            backoff_factor=float(payload.get("backoff_factor", 2.0)),
            backoff_max=float(payload.get("backoff_max", 5.0)),
            jitter=float(payload.get("jitter", 0.5)),
            max_pool_rebuilds=int(payload.get("max_pool_rebuilds", 2)),
        )


# ---------------------------------------------------------------------------
# Deadlines (SIGALRM based, nestable)
# ---------------------------------------------------------------------------
class _DeadlineStack:
    """Per-process stack of active deadlines sharing one ITIMER_REAL.

    Only one interval timer exists per process, but deadlines nest (a
    per-evaluation deadline runs inside a per-cell deadline in the
    serial driver).  The stack keeps every active absolute deadline and
    always arms the timer for the *nearest* one; when it fires, the
    earliest-expiring entry raises.
    """

    def __init__(self) -> None:
        self._entries: List[Dict[str, object]] = []
        self._previous_handler = None

    def _arm(self) -> None:
        # Fired entries are dead weight awaiting their pop (their
        # exception is already propagating); re-arming for them would
        # raise a second, detail-less error mid-unwind.
        live = [e for e in self._entries if not e["fired"]]
        if not live:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if not self._entries and self._previous_handler is not None:
                signal.signal(signal.SIGALRM, self._previous_handler)
                self._previous_handler = None
            return
        nearest = min(e["deadline"] for e in live)  # type: ignore[type-var]
        remaining = max(1e-6, float(nearest) - time.monotonic())
        signal.setitimer(signal.ITIMER_REAL, remaining)

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        now = time.monotonic()
        expired = [e for e in self._entries
                   if not e["fired"] and float(e["deadline"]) <= now]  # type: ignore[arg-type]
        if not expired:  # pragma: no cover - timer raced a pop
            self._arm()
            return
        entry = min(expired, key=lambda e: float(e["deadline"]))  # type: ignore[arg-type]
        entry["fired"] = True
        sequence = entry.get("sequence")
        if sequence is None and str(entry["scope"]) != "evaluation":
            # A cell deadline firing mid-evaluation points at the
            # innermost in-flight sequence for the quarantine record.
            for inner in reversed(self._entries):
                if inner.get("sequence") is not None:
                    sequence = inner["sequence"]
                    break
        raise DeadlineExceeded(str(entry["scope"]), float(entry["timeout"]),
                               sequence)  # type: ignore[arg-type]

    def push(self, timeout: float, scope: str,
             sequence: Optional[Tuple[str, ...]]) -> Dict[str, object]:
        if not self._entries:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_alarm)
        entry: Dict[str, object] = {
            "deadline": time.monotonic() + timeout,
            "timeout": timeout,
            "scope": scope,
            "sequence": sequence,
            "fired": False,
        }
        self._entries.append(entry)
        self._arm()
        return entry

    def pop(self, entry: Dict[str, object]) -> None:
        if entry in self._entries:
            self._entries.remove(entry)
        self._arm()


_DEADLINES = _DeadlineStack()


def _deadlines_supported() -> bool:
    return (hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def deadline(seconds: Optional[float], *,
             sequence: Optional[Sequence[str]] = None,
             scope: str = "evaluation") -> Iterator[None]:
    """Raise :class:`DeadlineExceeded` if the body runs past ``seconds``.

    No-op when ``seconds`` is ``None`` or when running off the main
    thread (SIGALRM can only be delivered there); pool workers execute
    tasks on their main thread, so deadlines work both serially and in
    workers.  Deadlines nest — the nearest one fires first.
    """
    if seconds is None or not _deadlines_supported():
        yield
        return
    entry = _DEADLINES.push(float(seconds), scope,
                            tuple(sequence) if sequence else None)
    try:
        yield
    finally:
        _DEADLINES.pop(entry)


# ---------------------------------------------------------------------------
# Fault plans (deterministic injection schedules)
# ---------------------------------------------------------------------------
_FAULT_KINDS = ("crash", "hang", "cache_error")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``cell`` matches a campaign cell id (``"*"`` = any); ``attempt``
    is the retry attempt the event fires on (0 = first try).  ``at``
    is the ordinal of the triggering operation *within that attempt* —
    for crash/hang events the Nth fresh ``compute()`` call, for
    cache_error events the Nth persistent-cache operation — and
    ``count`` widens the window to ordinals ``[at, at + count)``.
    """

    kind: str
    cell: str = "*"
    attempt: int = 0
    at: int = 0
    count: int = 1
    duration: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {_FAULT_KINDS}")
        if self.at < 0 or self.count < 1 or self.attempt < 0:
            raise ValueError("fault event at/count/attempt out of range")

    def matches(self, cell_id: str, attempt: int) -> bool:
        return (self.cell in ("*", cell_id)) and self.attempt == int(attempt)

    def covers(self, ordinal: int) -> bool:
        return self.at <= ordinal < self.at + self.count

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "cell": self.cell, "attempt": self.attempt,
            "at": self.at, "count": self.count, "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultEvent":
        return cls(
            kind=str(payload["kind"]),
            cell=str(payload.get("cell", "*")),
            attempt=int(payload.get("attempt", 0)),
            at=int(payload.get("at", 0)),
            count=int(payload.get("count", 1)),
            duration=float(payload.get("duration", 30.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Serialises to canonical JSON so it can ride inside the picklable
    :class:`~repro.engine.spec.EvaluatorSpec`, an environment variable
    (``REPRO_FAULT_PLAN``) or a CLI flag (``--fault-plan``).
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def events_for(self, cell_id: str, attempt: int) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.matches(cell_id, attempt))

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "events": [e.to_dict() for e in self.events]},
            sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        payload = json.loads(raw)
        return cls(
            events=tuple(FaultEvent.from_dict(e)
                         for e in payload.get("events", [])),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_argument(cls, raw: str) -> "FaultPlan":
        """Parse a ``--fault-plan`` value: inline JSON or a file path."""
        text = raw.strip()
        if not text.startswith("{"):
            path = Path(text)
            if not path.is_file():
                raise ValueError(
                    f"fault plan {raw!r} is neither inline JSON nor a file")
            text = path.read_text()
        try:
            return cls.from_json(text)
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise ValueError(f"invalid fault plan: {error}") from error

    @classmethod
    def random(cls, seed: int, cell_ids: Sequence[str], *,
               max_events: int = 4, hang_duration: float = 30.0) -> "FaultPlan":
        """A seeded, recoverable-by-construction schedule for CI fuzzing.

        Every generated event fires on attempt 0 only, so a default
        3-attempt :class:`RetryPolicy` always recovers — failures of the
        recovery suite under any seed are genuine bugs, not bad luck.
        """
        import random as random_module
        rng = random_module.Random(seed)
        events: List[FaultEvent] = []
        for _ in range(rng.randint(1, max_events)):
            events.append(FaultEvent(
                kind=rng.choice(_FAULT_KINDS),
                cell=rng.choice(list(cell_ids)) if cell_ids else "*",
                attempt=0,
                at=rng.randint(0, 3),
                duration=hang_duration,
            ))
        return cls(events=tuple(events), seed=seed)


# ---------------------------------------------------------------------------
# Injection runtime (module-level, per process)
# ---------------------------------------------------------------------------
#: Active injection context: (cell_id, attempt, hard_crash) or None.
_ACTIVE: Optional[Tuple[str, int, bool]] = None
#: Fresh-compute() ordinals per (cell_id, attempt) in this process.
_EVAL_COUNTS: Dict[Tuple[str, int], int] = {}
#: Persistent-cache-operation ordinals per (cell_id, attempt).
_CACHE_OP_COUNTS: Dict[Tuple[str, int], int] = {}


def activate(cell_id: str, attempt: int, *, hard_crash: bool) -> None:
    """Enter an injection context for one cell attempt.

    ``hard_crash`` selects how a crash event manifests: ``os._exit`` in
    pool workers (producing a real ``BrokenProcessPool`` upstream) vs a
    raised :class:`InjectedCrash` in serial/in-process runs.  Counters
    for the (cell, attempt) key reset so a retried attempt replays its
    own schedule from ordinal zero.

    Only the active key's counters are ever read, and warm pool workers
    now outlive many cells, so stale keys from earlier activations are
    dropped here to keep the maps bounded over a long sweep.
    """
    global _ACTIVE
    key = (str(cell_id), int(attempt))
    _ACTIVE = (key[0], key[1], bool(hard_crash))
    for counters in (_EVAL_COUNTS, _CACHE_OP_COUNTS):
        for stale in [k for k in counters if k != key]:
            del counters[stale]
        counters[key] = 0


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def _fire(plan: FaultPlan, counters: Dict[Tuple[str, int], int],
          kinds: Tuple[str, ...]) -> Optional[FaultEvent]:
    if _ACTIVE is None:
        return None
    cell_id, attempt, _ = _ACTIVE
    key = (cell_id, attempt)
    ordinal = counters.get(key, 0)
    counters[key] = ordinal + 1
    for event in plan.events_for(cell_id, attempt):
        if event.kind in kinds and event.covers(ordinal):
            return event
    return None


def build_compute_guard(
    plan_json: Optional[str],
    eval_timeout: Optional[float],
) -> Optional[Callable[[Tuple[str, ...], Callable[[], object]], object]]:
    """A guard wrapping every fresh ``QoREvaluator.compute`` call.

    Enforces the per-evaluation deadline and fires scheduled crash/hang
    events at their compute ordinal.  Returns ``None`` when there is
    nothing to do, so the unguarded fast path stays untouched.
    """
    if plan_json is None and eval_timeout is None:
        return None
    plan = FaultPlan.from_json(plan_json) if plan_json else FaultPlan()

    def guard(names: Tuple[str, ...], thunk: Callable[[], object]) -> object:
        with deadline(eval_timeout, sequence=names, scope="evaluation"):
            event = _fire(plan, _EVAL_COUNTS, ("crash", "hang"))
            if event is not None:
                if event.kind == "crash":
                    if _ACTIVE is not None and _ACTIVE[2]:
                        os._exit(13)
                    raise InjectedCrash(
                        f"injected crash at compute ordinal {event.at}")
                time.sleep(event.duration)  # hang; SIGALRM interrupts it
            return thunk()

    return guard


def build_cache_hook(plan_json: Optional[str]) -> Optional[Callable[[str], None]]:
    """A hook run before every persistent-cache operation.

    Raises a transient ``sqlite3.OperationalError`` at scheduled
    cache-operation ordinals so cache retry/degrade paths can be tested
    without a real disk fault.
    """
    if not plan_json:
        return None
    plan = FaultPlan.from_json(plan_json)
    if not any(e.kind == "cache_error" for e in plan.events):
        return None

    def hook(op_name: str) -> None:
        event = _fire(plan, _CACHE_OP_COUNTS, ("cache_error",))
        if event is not None:
            raise sqlite3.OperationalError(
                f"injected cache fault during {op_name}")

    return hook
