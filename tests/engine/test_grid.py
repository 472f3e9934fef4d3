"""Tests for the (method × circuit × seed) experiment grid.

``run_experiment`` runs the grid as a store-less campaign; these pin its
``jobs`` independence, determinism and persistent-cache behaviour.
"""

import pytest

from repro.api import Campaign, Problem
from repro.engine import PersistentQoRCache
from repro.experiments import build_qor_table, run_experiment


@pytest.fixture(scope="module")
def config():
    return Campaign(
        problems=(Problem("adder", width=4, sequence_length=4),),
        methods=("rs", "ga"), seeds=(0, 1), budget=5,
    )


class TestJobsEquivalence:
    def test_serial_and_parallel_grids_identical(self, config):
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert (a.method, a.circuit, a.seed) == (b.method, b.circuit, b.seed)
            assert a.history == b.history
            assert a.best_sequence == b.best_sequence
        table_a = build_qor_table(serial)
        table_b = build_qor_table(parallel)
        assert table_a.to_csv() == table_b.to_csv()

    def test_run_experiment_jobs_flag(self, config):
        results = run_experiment(config, jobs=2)
        assert len(results) == 4
        assert {r.method for r in results} == {"RS", "GA"}

    def test_rerun_is_deterministic(self, config):
        first = run_experiment(config, jobs=1)
        second = run_experiment(config, jobs=1)
        for a, b in zip(first, second):
            assert a.history == b.history


class TestPersistentCacheInGrid:
    def test_warm_cache_reproduces_results(self, config, tmp_path):
        cache_dir = str(tmp_path / "qor-cache")
        cold = run_experiment(config, jobs=1, cache_dir=cache_dir)
        with PersistentQoRCache(cache_dir) as cache:
            assert len(cache) > 0
        warm = run_experiment(config, jobs=1, cache_dir=cache_dir)
        for a, b in zip(cold, warm):
            assert a.history == b.history
            assert a.best_sequence == b.best_sequence
        # And a cache-less run agrees too: caching never changes results.
        plain = run_experiment(config, jobs=1)
        for a, b in zip(cold, plain):
            assert a.history == b.history

    def test_parallel_workers_share_cache(self, config, tmp_path):
        cache_dir = str(tmp_path / "qor-cache")
        parallel = run_experiment(config, jobs=2, cache_dir=cache_dir)
        serial = run_experiment(config, jobs=1)
        for a, b in zip(parallel, serial):
            assert a.history == b.history


class TestProgress:
    def test_progress_messages(self, config):
        messages = []
        run_experiment(config, jobs=1, progress=messages.append)
        assert len(messages) == 4
        assert messages[0] == "rs / adder-w4-lut6-k4 / seed 0 [done]"
