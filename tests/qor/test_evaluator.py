"""Tests for the QoR evaluator (Equation 1)."""

import pytest

from repro.circuits import make_adder
from repro.qor import QoREvaluator
from repro.synth.flows import RESYN2_SEQUENCE


class TestReference:
    def test_reference_qor_is_two(self, adder_evaluator):
        assert adder_evaluator.reference_qor == pytest.approx(2.0)

    def test_reference_sequence_defaults_to_resyn2(self, adder_evaluator):
        assert list(adder_evaluator.reference_sequence) == RESYN2_SEQUENCE

    def test_resyn2_itself_scores_qor_two(self, adder_evaluator):
        record = adder_evaluator.evaluate(RESYN2_SEQUENCE)
        assert record.qor == pytest.approx(2.0)
        assert record.qor_improvement == pytest.approx(0.0)

    def test_custom_reference(self, small_adder):
        evaluator = QoREvaluator(small_adder, reference_sequence=["balance"])
        record = evaluator.evaluate(["balance"])
        assert record.qor == pytest.approx(2.0)

    def test_initial_result_recorded(self, adder_evaluator):
        assert adder_evaluator.initial_result.area > 0
        assert adder_evaluator.initial_result.delay > 0


class TestEvaluation:
    def test_qor_formula(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        record = evaluator.evaluate(["rewrite", "balance"])
        expected = (record.area / evaluator.reference_area
                    + record.delay / evaluator.reference_delay)
        assert record.qor == pytest.approx(expected)

    def test_improvement_formula(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        record = evaluator.evaluate(["rewrite"])
        expected = (2.0 - record.qor) / 2.0 * 100.0
        assert record.qor_improvement == pytest.approx(expected)

    def test_accepts_indices_and_mnemonics(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        by_name = evaluator.evaluate(["balance"])
        by_index = evaluator.evaluate([6])
        by_mnemonic = evaluator.evaluate(["Bl"])
        assert by_name.qor == by_index.qor == by_mnemonic.qor

    def test_empty_sequence_evaluates_initial_circuit(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        record = evaluator.evaluate([])
        assert record.area == evaluator.initial_result.area
        assert record.delay == evaluator.initial_result.delay


class TestCachingAndHistory:
    def test_cache_hits_do_not_count(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        evaluator.evaluate(["balance", "rewrite"])
        count = evaluator.num_evaluations
        evaluator.evaluate(["balance", "rewrite"])
        assert evaluator.num_evaluations == count

    def test_history_and_best(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        evaluator.evaluate(["balance"])
        evaluator.evaluate(["rewrite", "refactor"])
        best = evaluator.best_so_far()
        assert best is not None
        assert best.qor == min(r.qor for r in evaluator.history)

    def test_best_trajectory_monotone(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        for seq in (["balance"], ["rewrite"], ["fraig"], ["dsdb", "rewrite"]):
            evaluator.evaluate(seq)
        trajectory = evaluator.best_trajectory()
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))
        assert len(trajectory) == 4

    def test_evaluate_many_records_in_submission_order(self, small_adder):
        batch = [["rewrite"], ["balance"], ["rewrite"], ["fraig", "balance"]]
        evaluator = QoREvaluator(small_adder)
        evaluator.evaluate(["fraig", "balance"])  # memo hit inside the batch
        records = evaluator.evaluate_many(batch)
        one_by_one = QoREvaluator(small_adder)
        one_by_one.evaluate(["fraig", "balance"])
        assert records == [one_by_one.evaluate(names) for names in batch]
        assert evaluator.history == one_by_one.history
        assert [r.sequence for r in evaluator.history[1:]] == [
            ("rewrite",), ("balance",)]
        assert evaluator.num_evaluations == 3

    def test_evaluate_many_empty_batch(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        assert evaluator.evaluate_many([]) == []
        assert evaluator.history == []
        assert evaluator.num_evaluations == 0

    def test_best_so_far_empty(self, small_adder):
        evaluator = QoREvaluator(small_adder)
        assert evaluator.best_so_far() is None


class TestDeferredPersistentWrites:
    """Batched persistent-cache commits (used by the grid runner)."""

    @pytest.fixture()
    def cache(self, tmp_path):
        from repro.engine.cache import PersistentQoRCache

        with PersistentQoRCache(tmp_path) as cache:
            yield cache

    def test_flush_commits_in_one_batch(self, small_adder, cache):
        evaluator = QoREvaluator(small_adder, persistent_cache=cache)
        evaluator.defer_persistent_writes(True)
        evaluator.evaluate(["balance"])
        evaluator.evaluate(["rewrite"])
        evaluator.evaluate(["balance"])  # memo hit: not re-buffered
        assert len(cache) == 0
        assert evaluator.num_pending_persistent_writes == 2
        assert evaluator.flush_persistent_writes() == 2
        assert len(cache) == 2
        assert evaluator.num_pending_persistent_writes == 0

    def test_deferred_matches_eager_accounting(self, small_adder, tmp_path):
        from repro.engine.cache import PersistentQoRCache

        counters = {}
        for mode in ("eager", "deferred"):
            with PersistentQoRCache(tmp_path / mode) as cache:
                evaluator = QoREvaluator(small_adder, persistent_cache=cache)
                evaluator.defer_persistent_writes(mode == "deferred")
                for seq in (["balance"], ["rewrite"], ["balance"]):
                    evaluator.evaluate(seq)
                evaluator.flush_persistent_writes()
                counters[mode] = (evaluator.num_evaluations,
                                  evaluator.num_computed,
                                  evaluator.num_persistent_hits,
                                  len(cache))
        assert counters["eager"] == counters["deferred"]

    @pytest.mark.parametrize("defer", [True, False],
                             ids=["deferred", "eager"])
    def test_evaluate_many_matches_evaluate_with_persistent_cache(
            self, small_adder, tmp_path, defer):
        """A batch through a persistent cache records exactly what the
        same sequence of ``evaluate`` calls does.

        The batch holds a persistent hit, a fresh compute, an in-batch
        duplicate of it and a memo hit.
        """
        from repro.engine.cache import PersistentQoRCache

        class RecordingCache(PersistentQoRCache):
            def __init__(self, directory):
                super().__init__(directory)
                self.written = []

            def put(self, circuit_key, sequence, area, delay):
                self.written.append((tuple(sequence), area, delay))
                super().put(circuit_key, sequence, area, delay)

            def put_many(self, circuit_key, rows):
                self.written.extend(rows)
                super().put_many(circuit_key, rows)

        batch = [["balance"], ["rewrite"], ["rewrite"], ["fraig"]]
        runs = {}
        for mode in ("batch", "one_by_one"):
            with RecordingCache(tmp_path / mode) as cache:
                # An earlier run commits "balance" eagerly.
                QoREvaluator(small_adder, persistent_cache=cache).evaluate(
                    ["balance"])
                cache.written.clear()
                evaluator = QoREvaluator(small_adder, persistent_cache=cache)
                evaluator.defer_persistent_writes(defer)
                evaluator.evaluate(["fraig"])  # memo hit inside the batch
                if mode == "batch":
                    records = evaluator.evaluate_many(batch)
                else:
                    records = [evaluator.evaluate(names) for names in batch]
                runs[mode] = (records, list(evaluator.history),
                              evaluator.num_evaluations,
                              evaluator.num_computed,
                              evaluator.num_persistent_hits,
                              evaluator.flush_persistent_writes(),
                              cache.written)
        assert runs["batch"] == runs["one_by_one"]
        records, history, evaluations, computed, hits, flushed, rows = (
            runs["batch"])
        assert [r.sequence for r in history] == [
            ("fraig",), ("balance",), ("rewrite",)]
        assert (evaluations, computed, hits) == (3, 2, 1)
        assert flushed == (2 if defer else 0)
        assert [row[0] for row in rows] == [("fraig",), ("rewrite",)]
        assert records[1] is records[2]

    def test_disabling_deferral_flushes(self, small_adder, cache):
        evaluator = QoREvaluator(small_adder, persistent_cache=cache)
        evaluator.defer_persistent_writes(True)
        evaluator.evaluate(["fraig"])
        evaluator.defer_persistent_writes(False)
        assert len(cache) == 1
        evaluator.evaluate(["dsdb"])  # eager again
        assert len(cache) == 2

    def test_flush_without_persistent_cache_reports_zero(self, small_adder):
        """Regression: no cache attached => nothing buffered, flush == 0.

        ``flush_persistent_writes()`` used to report the buffered row
        count even with ``persistent_cache=None`` — rows that were never
        (and could never be) written.  Deferral must be a no-op without a
        cache and the flush must report 0 rows.
        """
        evaluator = QoREvaluator(small_adder)  # no persistent cache
        evaluator.defer_persistent_writes(True)
        evaluator.evaluate(["balance"])
        evaluator.evaluate(["rewrite"])
        assert evaluator.num_pending_persistent_writes == 0
        assert evaluator.flush_persistent_writes() == 0
        # Accounting is unaffected: both evaluations were computed.
        assert evaluator.num_evaluations == 2
        assert evaluator.num_computed == 2
