"""Tests for the experiment runner, QoR table and best-known proxy."""

import numpy as np
import pytest

from repro.api import Campaign, Problem
from repro.bo.base import OptimisationResult
from repro.experiments import (
    available_methods,
    best_known_reference,
    build_qor_table,
    make_optimiser,
    run_experiment,
)
from repro.experiments.qor_table import run_qor_table
from repro.experiments.runner import group_results
from repro.bo.space import SequenceSpace
from repro.circuits import make_adder
from repro.qor import QoREvaluator


def _fake_result(method, circuit, seed, improvement, area=10, delay=3):
    history = [improvement - 1.0, improvement]
    return OptimisationResult(
        method=method, circuit=circuit, seed=seed,
        best_sequence=("balance",), best_qor=2.0 - improvement / 50.0,
        best_improvement=improvement, best_area=area, best_delay=delay,
        num_evaluations=len(history), history=history,
        best_trajectory=[max(history[:i + 1]) for i in range(len(history))],
        evaluated_points=[(area + 1, delay), (area, delay)],
    )


def _quick(methods, **kwargs):
    """One seed of ``methods`` on the adder at budget 8, K = 5."""
    return Campaign(problems=(Problem("adder", sequence_length=5),),
                    methods=methods, budget=8, **kwargs)


class TestMethodRegistry:
    def test_all_methods_registered(self):
        keys = available_methods()
        for expected in ("boils", "sbo", "rs", "greedy", "ga", "a2c", "ppo", "graph-rl"):
            assert expected in keys

    def test_make_optimiser_applies_overrides(self):
        space = SequenceSpace(sequence_length=3)
        optimiser = make_optimiser("boils", space=space, seed=4, num_initial=2)
        assert optimiser.space.sequence_length == 3
        assert optimiser.seed == 4
        assert optimiser.num_initial == 2

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            make_optimiser("annealing")


class TestRunner:
    def test_single_cell(self):
        config = _quick(("rs",))
        (result,) = run_experiment(config)
        assert result.method == "RS"
        assert result.circuit == "adder"
        assert result.num_evaluations == config.budget

    def test_grid_produces_all_cells(self):
        config = _quick(("rs", "greedy"))
        results = run_experiment(config)
        assert len(results) == 2 * len(config.seeds)
        grouped = group_results(results)
        assert set(grouped) == {"RS", "Greedy"}

    def test_failed_cell_raises_naming_the_cell(self):
        config = _quick(("rs", "greedy"),
                        method_overrides={"greedy": {"no_such_option": 1}})
        with pytest.raises(RuntimeError, match=r"__greedy__s0 failed: TypeError"):
            run_experiment(config)

    def test_progress_callback(self):
        config = _quick(("rs",))
        messages = []
        run_experiment(config, progress=messages.append)
        # One line per finished cell, in the campaign driver's format.
        assert len(messages) == len(config.seeds)
        assert messages[0].startswith("rs / adder-")
        assert messages[0].endswith(" / seed 0 [done]")


class TestQoRTable:
    def test_table_from_fake_results(self):
        results = [
            _fake_result("BOiLS", "adder", 0, 10.0),
            _fake_result("BOiLS", "adder", 1, 12.0),
            _fake_result("RS", "adder", 0, 8.0),
            _fake_result("RS", "adder", 1, 6.0),
            _fake_result("BOiLS", "div", 0, 20.0),
            _fake_result("RS", "div", 0, 25.0),
        ]
        table = build_qor_table(results)
        assert table.value("adder", "BOiLS") == pytest.approx(11.0)
        assert table.value("adder", "RS") == pytest.approx(7.0)
        assert table.winners()["adder"] == "BOiLS"
        assert table.winners()["div"] == "RS"
        assert table.wins("BOiLS") == 1
        averages = table.row_average()
        assert averages["BOiLS"] == pytest.approx((11.0 + 20.0) / 2)

    def test_table_rendering(self):
        results = [_fake_result("BOiLS", "adder", 0, 10.0),
                   _fake_result("RS", "adder", 0, 5.0)]
        table = build_qor_table(results)
        text = table.to_text()
        assert "Adder" in text and "BOiLS" in text and "Average" in text
        csv = table.to_csv()
        assert csv.splitlines()[0] == "circuit,method,mean_improvement,std_improvement"
        assert "adder,BOiLS," in csv

    def test_run_qor_table_tabulates_the_campaign(self):
        campaign = _quick(("rs", "greedy"))
        table = run_qor_table(campaign)
        assert table.to_text() == build_qor_table(run_experiment(campaign)).to_text()
        assert table.circuits == ["adder"]
        assert set(table.methods) == {"RS", "Greedy"}

    def test_std_recorded(self):
        results = [_fake_result("RS", "adder", 0, 4.0), _fake_result("RS", "adder", 1, 8.0)]
        table = build_qor_table(results)
        assert table.stds["adder"]["RS"] == pytest.approx(2.0)


class TestBestKnown:
    def test_best_known_reference(self):
        evaluator = QoREvaluator(make_adder(4))
        space = SequenceSpace(sequence_length=3)
        reference = best_known_reference(evaluator, space=space, budget_per_objective=8)
        assert reference.best_area > 0
        assert reference.best_delay > 0
        assert len(reference.best_area_sequence) <= 3
        # The single-objective area search should do at least as well on
        # area as the single-objective delay search does on area... not
        # guaranteed in general, but both must be valid evaluations:
        assert np.isfinite(reference.best_area_qor_improvement)
        assert np.isfinite(reference.best_delay_qor_improvement)

    def test_best_known_columns_in_table(self):
        evaluator = QoREvaluator(make_adder(4))
        space = SequenceSpace(sequence_length=3)
        reference = best_known_reference(evaluator, space=space, budget_per_objective=6)
        results = [_fake_result("BOiLS", "adder", 0, 10.0)]
        table = build_qor_table(results, best_known={"adder": reference})
        assert "EPFL best (lvl)" in table.methods
        assert "EPFL best (count)" in table.methods
        assert "adder" in table.values
