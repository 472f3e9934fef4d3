"""Checkpoint-protocol tests: state_dict round trips for all 8 optimisers.

The contract under test (see ``SequenceOptimiser.state_dict``): snapshot
an optimiser at a round boundary, JSON-round-trip the snapshot, restore
it onto a *fresh* optimiser instance (``prepare`` + ``load_state_dict``)
together with the evaluator history, continue the drive loop — and the
full trajectory must be bit-identical to the uninterrupted run.
"""

import json

import pytest

from repro.bo.base import drive
from repro.bo.space import SequenceSpace
from repro.circuits import get_circuit
from repro.experiments.runner import make_optimiser
from repro.qor import QoREvaluator

#: (method key, budget, constructor overrides, round to checkpoint after).
CASES = [
    ("rs", 6, {}, 1),
    ("greedy", 14, {}, 1),
    ("ga", 25, {}, 1),
    ("boils", 6, {"num_initial": 2, "local_search_queries": 20,
                  "adam_steps": 1, "fit_every": 2}, 3),
    ("boils", 6, {"num_initial": 2, "local_search_queries": 20,
                  "adam_steps": 1, "fit_every": 1, "refit_gate": True,
                  "refit_gate_tol": 1.0, "refit_gate_patience": 1}, 3),
    ("sbo", 6, {"num_initial": 2, "adam_steps": 1, "fit_every": 2}, 3),
    ("a2c", 4, {}, 2),
    ("ppo", 4, {}, 2),
    ("graph-rl", 4, {}, 2),
]

CASE_IDS = [f"{key}-r{stop}" + ("-gated" if overrides.get("refit_gate") else "")
            for key, _, overrides, stop in CASES]


@pytest.fixture(scope="module")
def adder():
    return get_circuit("adder", width=4)


@pytest.fixture()
def space():
    return SequenceSpace(sequence_length=3)


def _json_round_trip(payload):
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("key, budget, overrides, stop_round", CASES,
                         ids=CASE_IDS)
def test_checkpoint_round_trip_is_bit_identical(adder, space, key, budget,
                                                overrides, stop_round):
    # Uninterrupted reference run.
    full_evaluator = QoREvaluator(adder)
    full = make_optimiser(key, space=space, seed=1, **overrides)
    full_result = full.optimise(full_evaluator, budget=budget)

    # Interrupted run: stop at the checkpoint round, snapshot everything.
    part_evaluator = QoREvaluator(adder)
    part = make_optimiser(key, space=space, seed=1, **overrides)
    part.prepare(part_evaluator, budget)
    rounds = drive(part, part_evaluator, budget,
                   stop_when=lambda progress: progress.round_index >= stop_round)
    assert rounds == stop_round
    snapshot = _json_round_trip(part.state_dict())
    history_mark = list(part_evaluator.history)
    counters = (part_evaluator.num_computed, part_evaluator.num_persistent_hits)

    # Fresh instance, restored from the JSON round trip, continues.
    resumed_evaluator = QoREvaluator(adder)
    resumed = make_optimiser(key, space=space, seed=1, **overrides)
    resumed.prepare(resumed_evaluator, budget)
    resumed_evaluator.restore_history(history_mark, num_computed=counters[0],
                                      num_persistent_hits=counters[1])
    resumed.load_state_dict(snapshot)
    drive(resumed, resumed_evaluator, budget, start_round=rounds)
    resumed_result = resumed._build_result(resumed_evaluator, adder.name,
                                           metadata=resumed.run_metadata())

    assert resumed_result.history == full_result.history
    assert resumed_result.best_trajectory == full_result.best_trajectory
    assert resumed_result.best_sequence == full_result.best_sequence
    assert resumed_result.best_qor == full_result.best_qor
    assert resumed_result.num_evaluations == full_result.num_evaluations
    assert resumed_result.evaluated_points == full_result.evaluated_points


def test_all_registered_optimisers_support_checkpointing(space):
    from repro.registry import OPTIMISERS

    for key in OPTIMISERS.keys():
        optimiser = make_optimiser(key, space=space, seed=0)
        assert optimiser.supports_checkpoint, (
            f"{key} does not implement the checkpoint protocol")


def test_state_dict_requires_implementation(space):
    from repro.bo.base import SequenceOptimiser

    class Bare(SequenceOptimiser):
        def suggest(self, n=1):  # pragma: no cover
            raise NotImplementedError

        def observe(self, rows, records):  # pragma: no cover
            raise NotImplementedError

    bare = Bare(space=space)
    assert not bare.supports_checkpoint
    with pytest.raises(NotImplementedError):
        bare.state_dict()


def test_rng_state_round_trips_through_json(space):
    optimiser = make_optimiser("rs", space=space, seed=7)
    optimiser.rng.integers(0, 100, size=5)  # advance the stream
    snapshot = _json_round_trip(optimiser.state_dict())
    expected = optimiser.rng.integers(0, 10**9, size=8).tolist()

    other = make_optimiser("rs", space=space, seed=7)
    other.load_state_dict(snapshot)
    assert other.rng.integers(0, 10**9, size=8).tolist() == expected
