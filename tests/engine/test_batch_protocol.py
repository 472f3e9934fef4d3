"""Tests for the suggest/observe batch-optimiser protocol."""

import numpy as np
import pytest

from repro.baselines import GeneticAlgorithm, GreedySearch, RandomSearch
from repro.baselines.rl import A2COptimiser, PPOOptimiser
from repro.bo import BOiLS, SequenceSpace, StandardBO
from repro.bo.base import SequenceOptimiser
from repro.circuits import make_adder
from repro.qor import QoREvaluator


@pytest.fixture(scope="module")
def adder():
    return make_adder(4)


@pytest.fixture(scope="module")
def space():
    return SequenceSpace(sequence_length=4)


class TestProtocolSurface:
    def test_batch_capable_optimisers(self, space):
        assert RandomSearch(space=space).supports_batch
        assert GeneticAlgorithm(space=space).supports_batch
        assert BOiLS(space=space).supports_batch
        assert StandardBO(space=space).supports_batch
        assert GreedySearch(space=space).supports_batch
        assert A2COptimiser(space=space).supports_batch
        assert PPOOptimiser(space=space).supports_batch

    def test_non_batch_optimiser_raises(self, space):
        class MinimalOptimiser(SequenceOptimiser):
            def optimise(self, evaluator, budget):  # pragma: no cover
                raise NotImplementedError

        minimal = MinimalOptimiser(space=space)
        assert not minimal.supports_batch
        with pytest.raises(NotImplementedError):
            minimal.suggest(2)

    def test_suggest_respects_n(self, space):
        optimiser = RandomSearch(space=space, seed=0)
        rows = optimiser.suggest(5)
        assert rows.shape == (5, space.sequence_length)

    def test_random_search_terminates_on_exhausted_space(self, adder):
        """Budget beyond |Alg^K| stops after testing every sequence."""
        tiny = SequenceSpace(sequence_length=1)  # 11 distinct sequences
        result = RandomSearch(space=tiny, seed=0).optimise(
            QoREvaluator(adder), budget=tiny.cardinality + 5)
        assert result.num_evaluations == tiny.cardinality


class TestManualDrive:
    def test_random_search_external_loop_matches_optimise(self, adder, space):
        """Driving suggest/observe by hand reproduces optimise() exactly."""
        budget = 8
        reference = RandomSearch(space=space, seed=11).optimise(
            QoREvaluator(adder), budget=budget)

        optimiser = RandomSearch(space=space, seed=11)
        optimiser._seen = set()
        optimiser._primary_drawn = False
        evaluator = QoREvaluator(adder)
        while evaluator.num_evaluations < budget:
            rows = optimiser.suggest(budget - evaluator.num_evaluations)
            records = evaluator.evaluate_many(
                [space.to_names(row) for row in rows])
            optimiser.observe(rows, records)
        assert [r.qor_improvement for r in evaluator.history] == reference.history

    def test_ga_observe_applies_elitism(self, adder, space):
        optimiser = GeneticAlgorithm(space=space, seed=2)
        evaluator = QoREvaluator(adder)
        rows = optimiser.suggest(6)
        records = evaluator.evaluate_many([space.to_names(r) for r in rows])
        optimiser.observe(rows, records)
        best_fitness = float(np.max(optimiser._fitness))
        rows2 = optimiser.suggest(6)
        records2 = evaluator.evaluate_many([space.to_names(r) for r in rows2])
        optimiser.observe(rows2, records2)
        # Elitism: the best survivor never gets worse.
        assert float(np.max(optimiser._fitness)) >= best_fitness


class TestBOiLSBatchSize:
    def test_batch_size_proposes_distinct_candidates(self, adder, space):
        optimiser = BOiLS(space=space, seed=0, num_initial=4, batch_size=3,
                          local_search_queries=30, adam_steps=1)
        evaluator = QoREvaluator(adder)
        result = optimiser.optimise(evaluator, budget=10)
        assert result.num_evaluations == 10
        sequences = [record.sequence for record in evaluator.history]
        assert len(sequences) == len(set(sequences))
