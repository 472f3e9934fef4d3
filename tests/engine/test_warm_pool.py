"""Tests for the warm-pool execution stack (PR: warm-pool parallel evaluation).

Covers the three tentpole layers end to end:

* :mod:`repro.engine.shm` — flat-array encode/decode, publish/attach
  round-trips, vanished-segment fallback, and parent-owned unlink;
* :mod:`repro.engine.pool` — lazy build, reuse across batches, epoch
  bumping recycle, idempotent close;
* :mod:`repro.engine.planner` — serial bootstrap, single-core and
  multi-core routing, cold spin-up accounting;

plus the engine-level invariants that tie them together: bit-identity of
the warm-pool path versus serial, one pool build across many batches,
crash recovery that re-warms (not discards) shared-memory state, no shm
leak after ``close()``, and the bounded worker-side evaluator LRU whose
eviction can never change results.
"""

import dataclasses
import json
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bo.space import SequenceSpace
from repro.engine import EvaluationEngine, EvaluatorSpec
from repro.engine import shm, worker
from repro.engine.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.engine.planner import ExecutionPlanner, effective_parallelism
from repro.engine.pool import WarmPool
from repro.qor.evaluator import aig_fingerprint


def _no_sleep(_seconds: float) -> None:
    pass


FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)

#: A segment name that never exists: exercises the vanished-segment path.
_DEAD_HANDLE = shm.SharedAIGHandle(name="repro_test_no_such_segment", size=64)


@pytest.fixture(scope="module")
def spec():
    return EvaluatorSpec.for_circuit("adder", width=4)


@pytest.fixture(scope="module")
def space():
    return SequenceSpace(sequence_length=3)


@pytest.fixture(scope="module")
def batches(space):
    rng = np.random.default_rng(0)
    return [[tuple(space.to_names(row)) for row in space.sample(4, rng)]
            for _ in range(3)]


# ---------------------------------------------------------------------------
# Shared-memory AIG hand-off
# ---------------------------------------------------------------------------
class TestSharedAIG:
    def test_encode_decode_is_bit_identical(self, spec):
        aig = spec.build_evaluator(cache=False).aig
        clone = shm.decode_aig(shm.encode_aig(aig))
        assert aig_fingerprint(clone) == aig_fingerprint(aig)
        assert clone.node_arrays() == aig.node_arrays()
        assert clone.pis == aig.pis
        assert clone.pos == aig.pos
        assert clone.po_names == aig.po_names
        assert [clone.node(v).name for v in clone.pis] == \
            [aig.node(v).name for v in aig.pis]
        assert clone.name == aig.name

    def test_decode_rejects_corrupt_payloads(self, spec):
        aig = spec.build_evaluator(cache=False).aig
        payload = shm.encode_aig(aig)
        with pytest.raises(ValueError, match="magic"):
            shm.decode_aig(b"XXXX" + payload[4:])
        with pytest.raises(ValueError, match="trailing"):
            shm.decode_aig(payload + b"\x00")

    def test_from_flat_arrays_validates_shape(self):
        from repro.aig.graph import AIG

        with pytest.raises(ValueError, match="equal length"):
            AIG.from_flat_arrays(name="x", is_and=[0, 0], fanin0=[0],
                                 fanin1=[0, 0], pi_names=["a"], pos=[],
                                 po_names=[])
        with pytest.raises(ValueError, match="constant"):
            AIG.from_flat_arrays(name="x", is_and=[1], fanin0=[0],
                                 fanin1=[0], pi_names=[], pos=[],
                                 po_names=[])

    def test_publish_attach_unlink_round_trip(self, spec):
        aig = spec.build_evaluator(cache=False).aig
        shm.reset_counters()
        segment, handle = shm.publish_aig(aig)
        try:
            attached = shm.attach_aig(handle)
            assert attached is not None
            assert aig_fingerprint(attached) == aig_fingerprint(aig)
            assert shm.attach_count() == 1
            assert shm.fallback_count() == 0
        finally:
            shm.unlink_segment(segment)
        # The parent's unlink is final: a later attach degrades cleanly.
        assert shm.attach_aig(handle) is None
        assert shm.fallback_count() == 1

    def test_vanished_segment_attach_returns_none(self):
        shm.reset_counters()
        assert shm.attach_aig(_DEAD_HANDLE) is None
        assert shm.fallback_count() == 1
        assert shm.attach_count() == 0

    def test_unlink_segment_tolerates_double_unlink(self, spec):
        aig = spec.build_evaluator(cache=False).aig
        segment, handle = shm.publish_aig(aig)
        shm.unlink_segment(segment)
        other = None
        with pytest.raises(FileNotFoundError):
            other = shared_memory.SharedMemory(name=handle.name)
        assert other is None

    def test_pool_exit_leaves_resource_tracker_clean(self):
        """Workers share the parent's resource tracker; attaching must not
        drop the parent's registration, or the parent's ``unlink()`` makes
        the tracker print a ``KeyError`` traceback at exit."""
        script = textwrap.dedent("""
            from repro.engine import EvaluationEngine, EvaluatorSpec
            spec = EvaluatorSpec.for_circuit("adder", width=4)
            batch = [["rewrite", "balance"], ["refactor"], ["resub", "fraig"]]
            with EvaluationEngine(spec, jobs=2, adaptive=False) as engine:
                engine.compute_batch(batch)
                assert engine.metadata()["pool"]["builds"] == 1
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=300, env={"PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert "KeyError" not in result.stderr, result.stderr
        assert "leaked shared_memory" not in result.stderr, result.stderr


class TestWarmSpecHandoff:
    def test_shared_spec_builds_identical_evaluator(self, spec, space):
        cold = spec.build_evaluator(cache=False)
        segment, handle = shm.publish_aig(cold.aig)
        try:
            warm_spec = dataclasses.replace(
                spec,
                shared_aig=handle,
                reference_stats=(cold.reference_area, cold.reference_delay),
                initial_stats=(cold.initial_result.area,
                               cold.initial_result.delay),
            )
            warm = warm_spec.build_evaluator(cache=False)
            assert warm.reference_area == cold.reference_area
            assert warm.reference_delay == cold.reference_delay
            assert warm.initial_result == cold.initial_result
            names = tuple(space.to_names(
                space.sample(1, np.random.default_rng(7))[0]))
            assert warm.compute(names) == cold.compute(names)
        finally:
            shm.unlink_segment(segment)

    def test_vanished_segment_drops_warm_stats(self, spec):
        # Deliberately wrong piggybacked stats: the fallback must discard
        # them along with the handle, or a stale hand-off could poison
        # the rebuilt evaluator.
        degraded_spec = dataclasses.replace(
            spec, shared_aig=_DEAD_HANDLE,
            reference_stats=(99_999, 99_999), initial_stats=(99_999, 99_999))
        cold = spec.build_evaluator(cache=False)
        degraded = degraded_spec.build_evaluator(cache=False)
        assert degraded.reference_area == cold.reference_area
        assert degraded.reference_delay == cold.reference_delay
        assert degraded.initial_result == cold.initial_result

    def test_transport_fields_do_not_change_identity(self, spec):
        warm_spec = dataclasses.replace(
            spec, shared_aig=_DEAD_HANDLE, reference_stats=(1, 1),
            initial_stats=(2, 2))
        assert warm_spec.identity_key() == spec.identity_key()

    def test_payload_round_trip_with_handle_and_stats(self, spec):
        warm_spec = dataclasses.replace(
            spec, shared_aig=_DEAD_HANDLE, reference_stats=(3, 4),
            initial_stats=(5, 6))
        assert EvaluatorSpec.from_payload(warm_spec.to_payload()) == warm_spec

    def test_warm_and_cold_cache_keys_identical(self, spec):
        """Warm attach, cold build and shm-fallback share one cache key.

        Registry circuits have no ``circuit_hash``, so the persistent
        cache keys on the structural fingerprint of the rebuilt AIG; the
        shm encode/decode must preserve everything the fingerprint sees
        (including the name) or warm workers would silently write to a
        different namespace than cold ones.
        """
        cold = spec.build_evaluator(cache=False)
        segment, handle = shm.publish_aig(cold.aig)
        try:
            warm_spec = dataclasses.replace(
                spec,
                shared_aig=handle,
                reference_stats=(cold.reference_area, cold.reference_delay),
                initial_stats=(cold.initial_result.area,
                               cold.initial_result.delay),
            )
            warm = warm_spec.build_evaluator(cache=False)
            assert warm.cache_key == cold.cache_key
        finally:
            shm.unlink_segment(segment)
        # Segment gone: the fallback branch rebuilds from the registry
        # and must land on the very same key.
        fallen = warm_spec.build_evaluator(cache=False)
        assert fallen.cache_key == cold.cache_key
        assert fallen.cache_key == (
            f"{aig_fingerprint(cold.aig)}:lut{cold.lut_size}")


# ---------------------------------------------------------------------------
# Adaptive execution planner
# ---------------------------------------------------------------------------
class TestPlanner:
    def test_effective_parallelism_bounds(self):
        assert 1 <= effective_parallelism(4) <= 4
        assert effective_parallelism(1) == 1

    def test_jobs_one_and_tiny_batches_stay_serial(self):
        planner = ExecutionPlanner(jobs=1)
        assert planner.plan(8, pool_warm=True).mode == "serial"
        planner = ExecutionPlanner(jobs=4)
        assert planner.plan(1, pool_warm=True).mode == "serial"

    def test_bootstrap_routes_serial_until_measured(self):
        planner = ExecutionPlanner(jobs=4)
        decision = planner.plan(8, pool_warm=False)
        assert decision.mode == "serial"
        assert decision.reason == "bootstrap serial measurement"
        assert decision.predicted_serial is None

    def test_multi_core_prefers_warm_pool_for_large_batches(self):
        planner = ExecutionPlanner(jobs=4)
        planner.parallelism = 4  # simulate a 4-core host deterministically
        planner.observe_serial(10, 10.0)        # 1 s per evaluation
        planner.observe_pool(8, 2.0, cold=False)  # ~1 s per 4-wide wave
        decision = planner.plan(8, pool_warm=True)
        assert decision.mode == "pool"
        assert decision.predicted_pool < decision.predicted_serial

    def test_single_core_never_routes_to_pool(self):
        planner = ExecutionPlanner(jobs=4)
        planner.parallelism = 1  # simulate the 1-CPU container
        planner.observe_serial(10, 10.0)
        decision = planner.plan(8, pool_warm=True)
        assert decision.mode == "serial"
        assert decision.predicted_pool >= decision.predicted_serial

    def test_cold_pool_pays_spinup(self):
        planner = ExecutionPlanner(jobs=4)
        planner.parallelism = 4
        planner.observe_serial(10, 10.0)
        cold = planner.plan(8, pool_warm=False)
        warm = planner.plan(8, pool_warm=True)
        assert cold.predicted_pool > warm.predicted_pool

    def test_cold_observation_refines_spinup(self):
        planner = ExecutionPlanner(jobs=4)
        planner.parallelism = 4
        planner.observe_serial(4, 4.0)
        before = planner.state()["spinup_ewma"]
        # 8 evals in 2 waves ≈ 2 s of work; 3 s of wall clock leaves
        # ~1 s of unexplained spin-up to fold into the estimate.
        planner.observe_pool(8, 3.0, cold=True)
        after = planner.state()["spinup_ewma"]
        assert after != before

    def test_state_and_decisions_are_json_safe(self):
        planner = ExecutionPlanner(jobs=2)
        planner.observe_serial(4, 1.0)
        decision = planner.plan(4, pool_warm=False)
        json.dumps(planner.state(), sort_keys=True, allow_nan=False)
        json.dumps(decision.to_dict(), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# WarmPool lifecycle (no evaluator involved)
# ---------------------------------------------------------------------------
class TestWarmPoolLifecycle:
    def test_lazy_build_and_reuse(self):
        with WarmPool(max_workers=1) as pool:
            assert not pool.warm and pool.builds == 0
            executor = pool.executor()
            assert pool.warm and pool.builds == 1
            assert pool.executor() is executor
            assert pool.builds == 1
            assert executor.submit(int, "7").result() == 7

    def test_recycle_bumps_epoch_and_rebuilds(self):
        seen_epochs = []
        pool = WarmPool(max_workers=1,
                        initargs_for=lambda epoch: seen_epochs.append(epoch) or ())
        try:
            pool.executor()
            assert (pool.epoch, pool.builds) == (0, 1)
            pool.recycle()
            assert not pool.warm
            assert (pool.epoch, pool.builds) == (1, 1)
            pool.executor()
            assert (pool.epoch, pool.builds) == (1, 2)
            # initargs_for runs in the parent and sees each generation.
            assert seen_epochs == [0, 1]
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = WarmPool(max_workers=1)
        pool.executor()
        pool.close()
        pool.close()
        assert not pool.warm


# ---------------------------------------------------------------------------
# Engine-level warm-pool invariants
# ---------------------------------------------------------------------------
class TestEngineWarmPool:
    def test_forced_pool_is_bit_identical_and_builds_once(self, spec, batches):
        with EvaluationEngine(spec, jobs=1) as serial:
            expected = [serial.compute_batch(batch) for batch in batches]
        with EvaluationEngine(spec, jobs=2, adaptive=False) as engine:
            got = [engine.compute_batch(batch) for batch in batches]
            meta = engine.metadata()
        assert got == expected
        # One warm pool served every batch: no per-batch construction.
        assert meta["pool"] == {"warm": True, "epoch": 0, "builds": 1,
                                "rebuilds": 0}
        assert meta["shared_aig"] is not None
        assert all(d["mode"] == "pool" for d in meta["decisions"])
        json.dumps(meta, sort_keys=True, allow_nan=False)

    def test_adaptive_engine_is_bit_identical_and_logs_decisions(
            self, spec, batches):
        with EvaluationEngine(spec, jobs=1) as serial:
            expected = [serial.compute_batch(batch) for batch in batches]
        with EvaluationEngine(spec, jobs=2) as engine:
            got = [engine.compute_batch(batch) for batch in batches]
            meta = engine.metadata()
        assert got == expected
        decisions = meta["decisions"]
        assert len(decisions) == len(batches)
        assert decisions[0]["reason"] == "bootstrap serial measurement"
        assert meta["planner"]["serial_eval_ewma"] is not None

    def test_workers_hold_warm_state_from_shared_memory(self, spec, batches):
        with EvaluationEngine(spec, jobs=2, adaptive=False) as engine:
            engine.compute_batch(batches[0])
            pool = engine._ensure_pool()
            diagnostics = [pool.submit(worker.worker_diagnostics).result()
                           for _ in range(4)]
        for diag in diagnostics:
            assert diag["in_pool"]
            assert diag["epoch"] == 0
            assert diag["batch_evaluator_ready"]
            # Warm hand-off, not cold rebuild: exactly one attach at
            # initialisation, and never a fallback.
            assert diag["shm_attaches"] == 1
            assert diag["shm_fallbacks"] == 0

    def test_close_unlinks_shared_memory(self, spec, batches):
        engine = EvaluationEngine(spec, jobs=2, adaptive=False)
        engine.compute_batch(batches[0])
        handle = shm.SharedAIGHandle.from_payload(
            engine.metadata()["shared_aig"])
        assert shm.attach_aig(handle) is not None
        engine.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)
        assert shm.attach_aig(handle) is None
        engine.close()  # idempotent

    def test_crash_recovery_rewarms_pool_without_leaking_shm(
            self, spec, batches):
        # A crash pinned to epoch 0: the supervised loop must recycle the
        # warm pool (epoch bump + rebuild) and the fresh workers must
        # re-attach the same shared-memory segment.
        plan = FaultPlan(events=(FaultEvent(kind="crash", attempt=0, at=0),),
                         seed=1)
        faulty = dataclasses.replace(spec, fault_plan=plan.to_json())
        with EvaluationEngine(spec, jobs=1) as serial:
            expected = serial.compute_batch(batches[0])
        engine = EvaluationEngine(faulty, jobs=2, retry=FAST_RETRY,
                                  sleep=_no_sleep)
        try:
            records = engine.compute_batch(batches[0])
            assert records == expected
            assert engine._rebuilds >= 1
            meta = engine.metadata()
            assert meta["pool"]["epoch"] >= 1
            assert meta["pool"]["builds"] >= 2
            # The segment survived the recycle: the rebuilt epoch's
            # workers warmed from it, and it is still attachable now.
            handle = shm.SharedAIGHandle.from_payload(meta["shared_aig"])
            assert shm.attach_aig(handle) is not None
        finally:
            engine.close()
        # ... but not after close: recovery never leaks segments.
        assert shm.attach_aig(handle) is None


# ---------------------------------------------------------------------------
# Bounded worker-side evaluator cache
# ---------------------------------------------------------------------------
class TestEvaluatorLRU:
    def test_eviction_keeps_results_bit_identical(self, space):
        specs = [EvaluatorSpec.for_circuit("adder", width=width)
                 for width in (3, 4, 5)]
        names = tuple(space.to_names(
            space.sample(1, np.random.default_rng(3))[0]))
        expected = [s.build_evaluator(cache=False).compute(names)
                    for s in specs]
        worker.init_grid_worker(None, cache_limit=1)
        try:
            # Two round-robin passes at limit 1: every lookup after the
            # first evicts the previous circuit's evaluator.
            first = [worker._grid_evaluator(s).compute(names) for s in specs]
            second = [worker._grid_evaluator(s).compute(names) for s in specs]
            assert first == expected
            assert second == expected
            assert len(worker._GRID_EVALUATORS) == 1
            assert worker._GRID_EVALUATORS.evictions >= 4
        finally:
            worker._GRID_EVALUATORS.clear()
            worker._GRID_EVALUATORS.limit = worker.DEFAULT_EVALUATOR_CACHE_LIMIT
            worker._GRID_EVALUATORS.evictions = 0

    def test_unbounded_when_under_limit(self, space):
        lru = worker._EvaluatorLRU(limit=2)
        lru.put(("a",), "evaluator-a")
        lru.put(("b",), "evaluator-b")
        assert lru.get(("a",)) == "evaluator-a"
        assert len(lru) == 2 and lru.evictions == 0
        # "a" was just touched, so "b" is the LRU victim.
        lru.put(("c",), "evaluator-c")
        assert lru.evictions == 1
        assert lru.get(("b",)) is None
        assert lru.get(("a",)) == "evaluator-a"

    def test_default_limit_is_bounded(self):
        assert worker.DEFAULT_EVALUATOR_CACHE_LIMIT == 8
        assert worker._GRID_EVALUATORS.limit == 8
