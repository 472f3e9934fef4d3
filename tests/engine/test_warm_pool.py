"""Tests for the warm campaign pool and its workers' read-only state.

Covers :mod:`repro.engine.pool` (lazy build, reuse, recycle and
rebuild, idempotent close), the synthesis-memo counters that campaign
workers report through ``worker_diagnostics``, and cells that share a
pool worker without sharing results.
"""

import json

import pytest

from repro.aig.flat import encode_aig
from repro.engine import EvaluatorSpec
from repro.engine import worker
from repro.engine.pool import WarmPool
from repro.qor.backends import NativeBackend, native


_INITARGS = None


def _remember_initargs(*args):
    global _INITARGS
    _INITARGS = args


def _remembered_initargs():
    return _INITARGS


@pytest.fixture(scope="module")
def spec():
    return EvaluatorSpec.for_circuit("adder", width=4)


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

    def test_recycle_rebuilds_with_the_same_initargs(self):
        pool = WarmPool(max_workers=1, initializer=_remember_initargs,
                        initargs=("cache", 7))
        try:
            first = pool.executor()
            assert pool.builds == 1
            assert first.submit(_remembered_initargs).result() == ("cache", 7)
            pool.recycle()
            assert not pool.warm
            assert pool.builds == 1
            second = pool.executor()
            assert second is not first
            assert pool.builds == 2
            # Every build initialises its fresh workers the same way.
            assert second.submit(_remembered_initargs).result() == ("cache", 7)
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
        aig = spec.build_evaluator().aig
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
        aig = spec.build_evaluator().aig
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
                      initargs=(None, True)) as pool:
            executor = pool.executor()
            for payload in payloads:
                executor.submit(worker.run_campaign_cell, payload).result()
            diag = executor.submit(worker.worker_diagnostics).result()
        assert diag["in_pool"]
        assert set(diag) == {"pid", "in_pool", "blas_threads", *_MEMO_COUNTERS}
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
# Cells sharing a pool worker
# ---------------------------------------------------------------------------
def _run_in_one_worker(payloads):
    with WarmPool(max_workers=1, initializer=worker.init_campaign_worker,
                  initargs=(None, True)) as pool:
        executor = pool.executor()
        return [executor.submit(worker.run_campaign_cell, payload).result()
                for payload in payloads]


class TestCellsShareNothing:
    def test_cells_in_one_worker_match_cells_run_alone(self, spec, tmp_path):
        # The third cell repeats the first one's sequences: leftover
        # evaluator state would make them free and drop them from its
        # history.  One shared cache also serves it warm rows.
        payloads = [worker.build_cell_payload(
            index=index, spec=spec, method_key="rs", seed=seed, budget=5,
            sequence_length=3, cache_dir=str(tmp_path / "shared"))
            for index, seed in enumerate((0, 1, 0))]
        together = _run_in_one_worker(payloads)
        alone = [_run_in_one_worker([dict(payload, cache_dir=str(
            tmp_path / f"alone-{payload['index']}"))])[0]
            for payload in payloads]
        assert together == alone
        assert together[2][1].history == together[0][1].history
