"""Tests for the warm campaign pool and its workers' read-only state.

Covers :mod:`repro.engine.pool` (lazy build, reuse, epoch-bumping
recycle, idempotent close), the synthesis-memo counters that campaign
workers report through ``worker_diagnostics``, and the bounded
worker-side evaluator LRU whose eviction can never change results.
"""

import json

import numpy as np
import pytest

from repro.aig.flat import encode_aig
from repro.bo.space import SequenceSpace
from repro.engine import EvaluatorSpec
from repro.engine import worker
from repro.engine.pool import WarmPool
from repro.qor.backends import NativeBackend, native


@pytest.fixture(scope="module")
def spec():
    return EvaluatorSpec.for_circuit("adder", width=4)


@pytest.fixture(scope="module")
def space():
    return SequenceSpace(sequence_length=3)


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
# Synthesis-memo counters (read-only diagnostics)
# ---------------------------------------------------------------------------
_MEMO_COUNTERS = ("synth_memo_hits", "synth_memo_misses",
                  "synth_memo_evictions", "synth_memo_bytes")


class TestSynthMemoCounters:
    def test_counters_track_steps_and_mapping(self, spec):
        aig = spec.build_evaluator(cache=False).aig
        sequence = ("rewrite", "balance", "refactor")
        native.clear_synth_memo()
        NativeBackend().measure(aig, sequence, 6)
        first = worker.worker_diagnostics()
        # Three pass steps plus the mapping: all misses on a cold memo.
        assert first["synth_memo_hits"] == 0
        assert first["synth_memo_misses"] == len(sequence) + 1
        assert first["synth_memo_evictions"] == 0
        assert 0 < first["synth_memo_bytes"] <= native.SYNTH_MEMO_BYTES
        # A fresh backend shares the process-wide memo.
        NativeBackend().measure(aig, sequence, 6)
        second = worker.worker_diagnostics()
        assert second["synth_memo_hits"] == len(sequence) + 1
        assert second["synth_memo_misses"] == first["synth_memo_misses"]
        assert second["synth_memo_bytes"] == first["synth_memo_bytes"]

    def test_byte_bound_evicts_least_recent(self, spec, monkeypatch):
        aig = spec.build_evaluator(cache=False).aig
        backend = NativeBackend()
        expected = backend.measure(aig, ("rewrite", "balance"), 6)
        # Room for roughly one encoded state: every new step evicts.
        tiny = native._SynthesisMemo(limit=len(encode_aig(aig)) + 300)
        monkeypatch.setattr(native, "_MEMO", tiny)
        for _ in range(2):
            assert backend.measure(aig, ("rewrite", "balance"), 6) == expected
        stats = native.synth_memo_stats()
        assert stats["synth_memo_evictions"] > 0
        assert 0 < stats["synth_memo_bytes"] <= tiny.limit

    def test_pool_workers_report_counters(self, spec):
        # A campaign-pool worker, set up as run_campaign sets up its own,
        # runs two cells and is then asked for its counters.
        payloads = [worker.build_cell_payload(
            index=seed, spec=spec, method_key="rs", seed=seed, budget=4,
            sequence_length=3) for seed in (0, 1)]
        with WarmPool(max_workers=1, initializer=worker.init_campaign_worker,
                      initargs_for=lambda epoch: (None, None, True)) as pool:
            executor = pool.executor()
            for payload in payloads:
                executor.submit(worker.run_campaign_cell, payload).result()
            diag = executor.submit(worker.worker_diagnostics).result()
        assert diag["in_pool"]
        assert diag["cell_evaluators"] == 1
        assert all(isinstance(diag[name], int) for name in _MEMO_COUNTERS)
        assert diag["synth_memo_misses"] > 0
        assert 0 < diag["synth_memo_bytes"] <= native.SYNTH_MEMO_BYTES

    def test_counters_never_reach_records_or_store(self, tmp_path):
        from repro.api import Campaign, Problem, run_campaign

        campaign = Campaign(problems=(Problem("adder", width=4,
                                              sequence_length=3),),
                            methods=("rs",), seeds=(0,), budget=4,
                            name="memo-counters")
        records = run_campaign(campaign, store=str(tmp_path / "store"))
        assert records and all(r.status == "ok" for r in records)
        for record in records:
            assert "synth_memo" not in json.dumps(record.to_dict())
        for path in (tmp_path / "store").rglob("*"):
            if path.is_file():
                assert b"synth_memo" not in path.read_bytes(), path


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
        worker.init_campaign_worker(None, cache_limit=1)
        try:
            # Two round-robin passes at limit 1: every lookup after the
            # first evicts the previous circuit's evaluator.
            first = [worker._cell_evaluator(s).compute(names) for s in specs]
            second = [worker._cell_evaluator(s).compute(names) for s in specs]
            assert first == expected
            assert second == expected
            assert len(worker._CELL_EVALUATORS) == 1
            assert worker._CELL_EVALUATORS.evictions >= 4
        finally:
            worker._CELL_EVALUATORS.clear()
            worker._CELL_EVALUATORS.limit = worker.DEFAULT_EVALUATOR_CACHE_LIMIT
            worker._CELL_EVALUATORS.evictions = 0

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
        assert worker._CELL_EVALUATORS.limit == 8
