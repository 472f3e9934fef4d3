"""Tests for the generic ask/tell driver and the metadata threading."""

import numpy as np
import pytest

from repro.baselines import GeneticAlgorithm, GreedySearch, RandomSearch
from repro.bo import BOiLS
from repro.bo.base import RoundCompleted, SequenceOptimiser, drive
from repro.bo.space import SequenceSpace
from repro.circuits import get_circuit
from repro.qor import QoREvaluator


@pytest.fixture(scope="module")
def adder():
    return get_circuit("adder", width=4)


@pytest.fixture()
def evaluator(adder):
    return QoREvaluator(adder)


@pytest.fixture()
def space():
    return SequenceSpace(sequence_length=3)


class TestDriveLoop:
    def test_consumes_exact_budget(self, evaluator, space):
        optimiser = RandomSearch(space=space, seed=0)
        optimiser.prepare(evaluator, 7)
        rounds = drive(optimiser, evaluator, 7)
        assert evaluator.num_evaluations == 7
        assert rounds >= 1

    def test_invalid_budget(self, evaluator, space):
        with pytest.raises(ValueError):
            drive(RandomSearch(space=space), evaluator, 0)

    def test_empty_suggest_ends_run(self, evaluator, space):
        # Greedy proposes nothing once the sequence is fully constructed;
        # the driver must stop even with budget remaining.
        optimiser = GreedySearch(space=space, seed=0)
        result = optimiser.optimise(evaluator, budget=500)
        max_needed = space.sequence_length * space.num_operations
        assert result.num_evaluations <= max_needed

    def test_round_completed_events_track_progress(self, evaluator, space):
        events = []
        optimiser = RandomSearch(space=space, seed=0)
        optimiser.optimise(evaluator, budget=5, on_event=events.append)
        seen = [event for event in events if isinstance(event, RoundCompleted)]
        assert seen
        assert seen[-1].num_evaluations == 5
        assert seen[-1].budget == 5
        assert seen[-1].best is not None
        assert [item.round_index for item in seen] == list(range(1, len(seen) + 1))

    def test_stop_when_early_stop(self, evaluator, space):
        optimiser = GeneticAlgorithm(space=space, seed=0)
        result = optimiser.optimise(
            evaluator, budget=50,
            stop_when=lambda progress: progress.num_evaluations >= 10)
        assert result.num_evaluations < 50

    def test_max_seconds_wall_clock_budget(self, evaluator, space):
        optimiser = RandomSearch(space=space, seed=0)
        # A zero wall-clock budget stops after the first round.
        optimiser.prepare(evaluator, 200)
        rounds = drive(optimiser, evaluator, 200, max_seconds=0.0)
        assert rounds == 1

    def test_optimise_equals_manual_drive(self, adder, space):
        kwargs = dict(space=space, seed=3)
        via_optimise = RandomSearch(**kwargs).optimise(QoREvaluator(adder), budget=6)

        evaluator = QoREvaluator(adder)
        optimiser = RandomSearch(**kwargs)
        optimiser.prepare(evaluator, 6)
        drive(optimiser, evaluator, 6)
        manual = optimiser._build_result(evaluator, evaluator.aig.name,
                                         metadata=optimiser.run_metadata())
        assert via_optimise.history == manual.history
        assert via_optimise.best_sequence == manual.best_sequence


class TestMetadataThreading:
    def test_build_result_attaches_metadata(self, evaluator, space):
        optimiser = RandomSearch(space=space, seed=0)
        optimiser.prepare(evaluator, 3)
        drive(optimiser, evaluator, 3)
        result = optimiser._build_result(evaluator, "adder",
                                         metadata={"extra": 1})
        assert result.metadata == {"extra": 1}

    def test_ga_generations_recorded(self, evaluator, space):
        result = GeneticAlgorithm(space=space, seed=0).optimise(evaluator, budget=25)
        assert result.metadata["population_size"] == 20
        assert result.metadata["num_generations"] >= 1

    def test_boils_restarts_and_rounds_recorded(self, evaluator, space):
        result = BOiLS(space=space, seed=0, num_initial=2,
                       local_search_queries=20, adam_steps=1,
                       fit_every=2).optimise(evaluator, budget=6)
        assert "num_restarts" in result.metadata
        assert "num_rounds" in result.metadata
        assert "kernel_params" in result.metadata
        assert "trust_region_radius" in result.metadata

    def test_greedy_constructed_length_recorded(self, evaluator, space):
        result = GreedySearch(space=space, seed=0).optimise(evaluator, budget=40)
        assert result.metadata["constructed_length"] == space.sequence_length


class TestCustomAskTellOptimiser:
    def test_minimal_subclass_only_needs_suggest_observe(self, evaluator, space):
        class FixedPoint(SequenceOptimiser):
            name = "Fixed"

            def suggest(self, n=1):
                return np.zeros((1, self.space.sequence_length), dtype=int)

            def observe(self, rows, records):
                pass

            def run_metadata(self):
                return {"fixed": True}

        # One distinct sequence; memo hits are free, so an optimiser that
        # never proposes anything fresh needs the wall-clock escape hatch
        # (exercised in the next test).  budget=1 terminates naturally.
        result = FixedPoint(space=space, seed=0).optimise(evaluator, budget=1)
        assert result.metadata["fixed"] is True
        assert result.num_evaluations == 1

    def test_constant_proposals_bounded_by_max_seconds(self, adder, space):
        class Constant(SequenceOptimiser):
            name = "Const"

            def suggest(self, n=1):
                return np.zeros((1, self.space.sequence_length), dtype=int)

            def observe(self, rows, records):
                pass

        evaluator = QoREvaluator(adder)
        result = Constant(space=space).optimise(evaluator, budget=50,
                                                max_seconds=0.2)
        assert result.num_evaluations == 1
