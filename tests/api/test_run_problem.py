"""``run_problem``: one optimiser on one problem, run as a one-cell campaign."""

import functools

import pytest

from repro.aig.graph import AIG
from repro.api import Campaign, Objective, Problem, run_problem
from repro.baselines.genetic import GAConfig
from repro.bo.base import SequenceOptimiser
from repro.circuits.registry import register_circuit
from repro.engine.pool import WarmPool
from repro.experiments import make_optimiser
from repro.registry import (
    CIRCUITS,
    OBJECTIVES,
    OPTIMISERS,
    register_objective,
    register_optimiser,
)

BUDGET = 8
BOILS_LIGHT = {"num_initial": 3, "local_search_queries": 30, "adam_steps": 1}


@pytest.fixture(scope="module")
def problem():
    return Problem("adder", width=4, sequence_length=4)


@pytest.mark.parametrize("method,overrides", [
    ("rs", {}),
    ("ga", {"config": GAConfig(population_size=4)}),
    ("boils", {**BOILS_LIGHT, "batch_size": 2}),
])
def test_matches_optimise_on_a_fresh_evaluator(problem, method, overrides):
    result = run_problem(problem, method, seed=3, budget=BUDGET, **overrides)
    expected = make_optimiser(method, space=problem.space(), seed=3,
                              **overrides).optimise(
        problem.evaluator_spec().build_evaluator(), BUDGET)
    assert result.best_sequence == expected.best_sequence
    assert result.best_improvement == expected.best_improvement
    assert result.num_evaluations == expected.num_evaluations == BUDGET
    assert result.history == expected.history
    assert result.evaluated_points == expected.evaluated_points
    assert result.circuit == "adder"


_GRID_OVERRIDES = {"rs": {}, "ga": {}, "boils": BOILS_LIGHT}


@functools.lru_cache(maxsize=None)
def _optimised_directly(circuit, method, seed):
    problem = Problem(circuit, width=4, sequence_length=5)
    overrides = _GRID_OVERRIDES[method]
    return make_optimiser(method, space=problem.space(), seed=seed,
                          **overrides).optimise(
        problem.evaluator_spec().build_evaluator(), BUDGET)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("method", ["rs", "ga", "boils"])
@pytest.mark.parametrize("circuit", ["adder", "sqrt"])
def test_grid_matches_optimise_at_every_jobs(circuit, method, seed, jobs):
    """Every method x circuit x seed cell equals the direct optimiser run,
    whatever ``jobs`` says: a single cell always runs in-process."""
    problem = Problem(circuit, width=4, sequence_length=5)
    result = run_problem(problem, method, seed=seed, budget=BUDGET, jobs=jobs,
                         **_GRID_OVERRIDES[method])
    expected = _optimised_directly(circuit, method, seed)
    assert result.best_sequence == expected.best_sequence
    assert result.best_improvement == expected.best_improvement
    assert result.best_trajectory == expected.best_trajectory
    assert result.history == expected.history
    assert result.evaluated_points == expected.evaluated_points
    assert (result.circuit, result.seed) == (circuit, seed)


def test_jobs_two_runs_in_process_with_the_same_result(problem, monkeypatch):
    serial = run_problem(problem, "ga", seed=1, budget=BUDGET, jobs=1,
                         config=GAConfig(population_size=4))

    def no_pool(self):
        raise AssertionError("run_problem built a process pool")

    monkeypatch.setattr(WarmPool, "executor", no_pool)
    assert run_problem(problem, "ga", seed=1, budget=BUDGET, jobs=2,
                       config=GAConfig(population_size=4)) == serial


def test_negative_jobs_rejected(problem):
    with pytest.raises(ValueError):
        run_problem(problem, "rs", budget=2, jobs=-1)


def test_failing_optimiser_raises_naming_the_cell(problem):
    @register_optimiser("test-raising")
    class Raising(SequenceOptimiser):
        name = "Raising"

        def suggest(self, n=1):
            raise ValueError("proposal machinery broke")

        def observe(self, rows, records):  # pragma: no cover
            raise AssertionError("never reached")

    try:
        (cell,) = Campaign.single(problem, "test-raising").cells()
        with pytest.raises(RuntimeError) as excinfo:
            run_problem(problem, "test-raising", budget=2)
    finally:
        OPTIMISERS.unregister("test-raising")
    message = str(excinfo.value)
    assert cell.cell_id in message
    assert "proposal machinery broke" in message


def test_registered_circuit_and_objective():
    @register_circuit("test-or-chain", default_width=5)
    def make_or_chain(width):
        aig = AIG(name=f"or_chain_{width}")
        inputs = [aig.add_pi(f"x{i}") for i in range(width)]
        literal = inputs[0]
        for other in inputs[1:]:
            literal = aig.add_or(literal, other)
        aig.add_po(literal, name="any")
        return aig

    @register_objective("test-squared-area")
    def make_squared_area():
        class SquaredArea(Objective):
            key = "test-squared-area"

            def value(self, area, delay, area_ref, delay_ref):
                return (area / area_ref) ** 2

        return SquaredArea()

    try:
        problem = Problem("test-or-chain", sequence_length=3,
                          objective="test-squared-area")
        result = run_problem(problem, "rs", seed=0, budget=4)
        reference_area = problem.evaluator_spec().build_evaluator().reference_area
    finally:
        CIRCUITS.unregister("test-or-chain")
        OBJECTIVES.unregister("test-squared-area")
    assert result.circuit == "test-or-chain"
    assert result.num_evaluations == 4
    assert result.best_qor == pytest.approx(
        (result.best_area / reference_area) ** 2)
