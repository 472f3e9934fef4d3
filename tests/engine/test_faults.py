"""Tests for the fault-tolerance primitives.

Covers the :mod:`repro.engine.faults` vocabulary (retry policy,
deadlines, fault plans, injection hooks) and the cache retry/degrade
path.  The campaign driver's recovery loops are tested end to end in
``tests/api/test_fault_recovery.py``.  No test sleeps to *wait* for a
condition — every blocking wait is bounded by the deadline machinery
under test.
"""

import pickle
import signal
import sqlite3
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import PersistentQoRCache
from repro.engine import faults
from repro.engine.faults import (
    DeadlineExceeded,
    FaultEvent,
    FaultPlan,
    InjectedCrash,
    PoolUnrecoverableError,
    RetryPolicy,
    build_cache_hook,
    build_compute_guard,
    deadline,
)


def _no_sleep(_seconds: float) -> None:
    pass


#: Zero-backoff policy so recovery tests never sleep between retries.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay_for(2, "cell-a") == policy.delay_for(2, "cell-a")
        assert policy.delay_for(2, "cell-a") != policy.delay_for(2, "cell-b")

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.25, backoff_factor=2.0,
                             backoff_max=1.0, jitter=0.0)
        assert policy.delay_for(1) == 0.25
        assert policy.delay_for(2) == 0.5
        assert policy.delay_for(3) == 1.0
        assert policy.delay_for(10) == 1.0  # capped
        assert policy.delay_for(0) == 0.0

    def test_jitter_is_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                             backoff_max=10.0, jitter=0.5)
        for attempt in range(1, 6):
            delay = policy.delay_for(attempt, "k")
            assert 1.0 <= delay <= 1.5

    def test_classification(self):
        retryable = [
            DeadlineExceeded("evaluation", 1.0),
            InjectedCrash("boom"),
            sqlite3.OperationalError("database is locked"),
            ConnectionError("reset"),
            BrokenProcessPool("pool died"),
        ]
        fatal = [
            ValueError("optimiser bug"),
            RuntimeError("evaluator bug"),
            PoolUnrecoverableError("gave up"),
        ]
        assert all(RetryPolicy.retryable(error) for error in retryable)
        assert not any(RetryPolicy.retryable(error) for error in fatal)

    def test_payload_roundtrip(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1,
                             backoff_factor=3.0, backoff_max=2.0,
                             jitter=0.25, max_pool_rebuilds=4)
        assert RetryPolicy.from_payload(policy.to_payload()) == policy

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=-1)


class TestErrorPickling:
    """Fault errors cross the process boundary and must unpickle intact."""

    def test_deadline_exceeded_roundtrip(self):
        error = DeadlineExceeded("cell", 2.5, ("rewrite", "balance"))
        clone = pickle.loads(pickle.dumps(error))
        assert clone.scope == "cell"
        assert clone.timeout == 2.5
        assert clone.sequence == ("rewrite", "balance")


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor")
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", at=-1)

    def test_matches_and_covers(self):
        event = FaultEvent(kind="crash", cell="c1", attempt=1, at=2, count=3)
        assert event.matches("c1", 1)
        assert not event.matches("c1", 0)
        assert not event.matches("c2", 1)
        assert FaultEvent(kind="crash").matches("anything", 0)
        assert [event.covers(i) for i in range(6)] == [
            False, False, True, True, True, False]

    def test_json_roundtrip(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", cell="a", at=1),
            FaultEvent(kind="hang", cell="b", attempt=1, duration=9.0),
            FaultEvent(kind="cache_error", count=2),
        ), seed=42)
        assert FaultPlan.from_json(plan.to_json()) == plan
        # Canonical form: serialising twice is byte-stable.
        assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()

    def test_from_argument_inline_and_file(self, tmp_path):
        plan = FaultPlan(events=(FaultEvent(kind="hang", cell="x"),), seed=3)
        assert FaultPlan.from_argument(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_argument(str(path)) == plan

    def test_from_argument_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError):
            FaultPlan.from_argument("no-such-file.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            FaultPlan.from_argument(str(bad))

    def test_random_is_seeded_and_recoverable(self):
        cells = ["c0", "c1", "c2"]
        plan = FaultPlan.random(123, cells)
        assert plan == FaultPlan.random(123, cells)
        assert plan != FaultPlan.random(124, cells)
        assert 1 <= len(plan.events) <= 4
        for event in plan.events:
            # Attempt-0-only events are what makes any seed recoverable
            # under a default retry budget.
            assert event.attempt == 0
            assert event.cell in cells

    def test_events_for(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", cell="a", attempt=0),
            FaultEvent(kind="hang", cell="a", attempt=1),
            FaultEvent(kind="cache_error"),
        ))
        kinds = [e.kind for e in plan.events_for("a", 0)]
        assert kinds == ["crash", "cache_error"]
        assert [e.kind for e in plan.events_for("b", 1)] == []


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_none_is_noop(self):
        with deadline(None):
            pass

    def test_interrupts_blocking_call(self):
        with pytest.raises(DeadlineExceeded) as excinfo:
            with deadline(0.05, sequence=("rewrite",)):
                time.sleep(30)  # interrupted by SIGALRM, not waited out
        assert excinfo.value.scope == "evaluation"
        assert excinfo.value.timeout == 0.05
        assert excinfo.value.sequence == ("rewrite",)

    def test_nested_inner_fires_first(self):
        with deadline(30.0, scope="cell"):
            with pytest.raises(DeadlineExceeded) as excinfo:
                with deadline(0.05, sequence=("balance",)):
                    time.sleep(30)
            assert excinfo.value.scope == "evaluation"

    def test_cell_deadline_attaches_inflight_sequence(self):
        with pytest.raises(DeadlineExceeded) as excinfo:
            with deadline(0.05, scope="cell"):
                with deadline(30.0, sequence=("rewrite", "refactor")):
                    time.sleep(30)
        assert excinfo.value.scope == "cell"
        assert excinfo.value.sequence == ("rewrite", "refactor")

    def test_timer_disarmed_after_exit(self):
        with deadline(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Injection hooks
# ---------------------------------------------------------------------------
class TestComputeGuard:
    def test_nothing_to_do_returns_none(self):
        assert build_compute_guard(None, None) is None

    def test_inactive_context_passes_through(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash"),))
        guard = build_compute_guard(plan.to_json(), None)
        faults.deactivate()
        assert guard(("rewrite",), lambda: 7) == 7

    def test_crash_fires_at_its_ordinal_then_clears(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", cell="c", at=1),))
        guard = build_compute_guard(plan.to_json(), None)
        faults.activate("c", 0, hard_crash=False)
        try:
            assert guard(("a",), lambda: 1) == 1  # ordinal 0: no event
            with pytest.raises(InjectedCrash):
                guard(("b",), lambda: 2)  # ordinal 1: crash
            assert guard(("c",), lambda: 3) == 3  # ordinal 2: clear again
        finally:
            faults.deactivate()

    def test_retried_attempt_replays_from_ordinal_zero(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", cell="c", at=0),))
        guard = build_compute_guard(plan.to_json(), None)
        faults.activate("c", 0, hard_crash=False)
        try:
            with pytest.raises(InjectedCrash):
                guard(("a",), lambda: 1)
            # The retry attempt has its own schedule: no attempt-1 events.
            faults.activate("c", 1, hard_crash=False)
            assert guard(("a",), lambda: 1) == 1
        finally:
            faults.deactivate()

    def test_hang_is_interrupted_by_eval_timeout(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="hang", cell="c", at=0, duration=30.0),))
        guard = build_compute_guard(plan.to_json(), 0.05)
        faults.activate("c", 0, hard_crash=False)
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                guard(("a", "b"), lambda: 1)
            assert excinfo.value.sequence == ("a", "b")
        finally:
            faults.deactivate()


class TestCacheHook:
    def test_no_cache_events_returns_none(self):
        assert build_cache_hook(None) is None
        plan = FaultPlan(events=(FaultEvent(kind="crash"),))
        assert build_cache_hook(plan.to_json()) is None

    def test_fires_at_cache_op_ordinal(self):
        plan = FaultPlan(events=(
            FaultEvent(kind="cache_error", cell="c", at=1),))
        hook = build_cache_hook(plan.to_json())
        faults.activate("c", 0, hard_crash=False)
        try:
            hook("get")  # ordinal 0: clean
            with pytest.raises(sqlite3.OperationalError):
                hook("put")  # ordinal 1: injected fault
            hook("put")  # ordinal 2: clean again
        finally:
            faults.deactivate()


# ---------------------------------------------------------------------------
# Cache retry / degrade
# ---------------------------------------------------------------------------
def _flaky_hook(op: str, failures: int):
    """A hook raising OperationalError for the first ``failures`` ops."""
    remaining = {"count": failures}

    def hook(op_name: str) -> None:
        if op_name == op and remaining["count"] > 0:
            remaining["count"] -= 1
            raise sqlite3.OperationalError("database is locked")

    return hook


class TestCacheRetryAndDegrade:
    def test_transient_error_is_retried_not_degraded(self, tmp_path):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.0)
        cache = PersistentQoRCache(tmp_path, retry=policy,
                                   sleep=sleeps.append,
                                   fault_hook=_flaky_hook("put", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any degrade warning fails
            cache.put("ck", ("rewrite",), 10, 3)
        assert not cache.degraded
        assert cache.get("ck", ("rewrite",)) == (10, 3)
        assert sleeps == [policy.delay_for(1, "cache:put")]
        cache.close()

    def test_degrades_after_exhaustion_with_one_warning(self, tmp_path):
        cache = PersistentQoRCache(
            tmp_path, retry=FAST_RETRY, sleep=_no_sleep,
            fault_hook=_flaky_hook("put", 10_000))
        with pytest.warns(RuntimeWarning, match="memory-only") as caught:
            cache.put("ck", ("rewrite",), 10, 3)
        assert len(caught) == 1
        assert cache.degraded
        # Memory fallback still serves results; no further warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put("ck", ("balance",), 7, 2)
            assert cache.get("ck", ("rewrite",)) == (10, 3)
            assert cache.get("ck", ("balance",)) == (7, 2)
            assert cache.get("ck", ("missing",)) is None
            assert len(cache) == 2
        cache.close()

    def test_connect_failure_degrades_at_construction(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache = PersistentQoRCache(
                tmp_path, retry=FAST_RETRY, sleep=_no_sleep,
                fault_hook=_flaky_hook("connect", 10_000))
        assert cache.degraded
        cache.put("ck", ("rewrite",), 5, 1)
        assert cache.get("ck", ("rewrite",)) == (5, 1)
        cache.close()

    def test_misconfigured_path_still_raises(self, tmp_path):
        not_a_dir = tmp_path / "file.txt"
        not_a_dir.write_text("occupied")
        with pytest.raises(ValueError):
            PersistentQoRCache(not_a_dir / "sub")

    def test_get_many_hits_and_misses(self, tmp_path):
        cache = PersistentQoRCache(tmp_path)
        cache.put_many("ck", [(("a",), 1, 1), (("b",), 2, 2)])
        results = cache.get_many("ck", [("a",), ("missing",), ("b",)])
        assert results == [(1, 1), None, (2, 2)]
        assert cache.hits == 2
        assert cache.misses == 1
        cache.close()

    def test_get_many_degraded_uses_memory(self, tmp_path):
        cache = PersistentQoRCache(
            tmp_path, retry=FAST_RETRY, sleep=_no_sleep,
            fault_hook=_flaky_hook("get_many", 10_000))
        cache.put("ck", ("a",), 1, 1)
        with pytest.warns(RuntimeWarning, match="memory-only"):
            first = cache.get_many("ck", [("a",)])
        # The entry predates the degrade and lived only in SQLite, so
        # the memory fallback misses it — but later writes are served.
        assert first == [None]
        cache.put("ck", ("b",), 2, 2)
        assert cache.get_many("ck", [("b",)]) == [(2, 2)]
        cache.close()
