"""Tests for the sample-efficiency, convergence, Pareto and figure modules."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import Campaign, Problem
from repro.bo.base import OptimisationResult
from repro.experiments import (
    build_qor_table,
    pareto_front,
    pareto_study,
    run_experiment,
    sample_efficiency_study,
)
from repro.experiments import convergence, pareto, runner
from repro.experiments.convergence import build_convergence_curves, convergence_study
from repro.experiments.figures import (
    ascii_line_chart,
    render_figure1,
    render_figure2,
    render_figure3_convergence,
    render_figure3_pareto,
    render_figure3_table,
)
from repro.experiments.pareto import build_pareto_study, is_on_front
from repro.experiments.sample_efficiency import _evaluations_to_reach


def _result(method, circuit, trajectory, area=10, delay=3, seed=0):
    return OptimisationResult(
        method=method, circuit=circuit, seed=seed,
        best_sequence=("balance",), best_qor=1.8,
        best_improvement=trajectory[-1], best_area=area, best_delay=delay,
        num_evaluations=len(trajectory), history=list(trajectory),
        best_trajectory=[max(trajectory[:i + 1]) for i in range(len(trajectory))],
        evaluated_points=[(area, delay)] * len(trajectory),
    )


def _quick(methods, **kwargs):
    """One seed of ``methods`` on the adder at budget 8, K = 5."""
    return Campaign(problems=(Problem("adder", sequence_length=5),),
                    methods=methods, budget=8, **kwargs)


class TestParetoFront:
    def test_front_of_simple_points(self):
        points = [(5, 5), (3, 7), (7, 3), (6, 6), (3, 8)]
        front = pareto_front(points)
        assert set(front) == {(5, 5), (3, 7), (7, 3)}

    def test_duplicates_collapse(self):
        assert pareto_front([(1, 1), (1, 1)]) == [(1, 1)]

    def test_single_point(self):
        assert pareto_front([(4, 2)]) == [(4, 2)]

    def test_dominated_point_not_on_front(self):
        front = pareto_front([(1, 1), (2, 2)])
        assert is_on_front((1, 1), front)
        assert not is_on_front((2, 2), front)

    def test_empty(self):
        assert pareto_front([]) == []


class TestParetoStudy:
    def test_on_front_percentages(self):
        results = [
            _result("BOiLS", "div", [10.0], area=5, delay=5, seed=0),
            _result("BOiLS", "div", [9.0], area=6, delay=4, seed=1),
            _result("RS", "div", [5.0], area=9, delay=9, seed=0),
            _result("RS", "div", [6.0], area=8, delay=8, seed=1),
        ]
        study = build_pareto_study(results)
        pct = study.on_front_percentages()
        assert pct["BOiLS"] == pytest.approx(100.0)
        assert pct["RS"] == pytest.approx(0.0)

    def test_references_join_the_front(self):
        results = [_result("BOiLS", "div", [10.0], area=5, delay=5)]
        study = build_pareto_study(results, references={"div": {"init": (2, 2)}})
        assert (2, 2) in study.fronts["div"]
        assert study.on_front_percentages()["BOiLS"] == pytest.approx(0.0)

    def test_csv_rendering(self):
        results = [_result("BOiLS", "div", [10.0], area=5, delay=5)]
        study = build_pareto_study(results)
        csv = study.to_csv()
        assert csv.splitlines()[0] == "circuit,method,area,delay,on_front"
        assert "div,BOiLS,5,5,1" in csv

    def test_end_to_end_small_study(self):
        study = pareto_study(_quick(("rs",)))
        assert study.circuits == ["adder"]
        assert "RS" in study.methods


class TestConvergence:
    def test_mean_trajectories_padded(self):
        results = [
            _result("RS", "adder", [1.0, 2.0, 3.0], seed=0),
            _result("RS", "adder", [2.0], seed=1),
        ]
        curves = build_convergence_curves(results)
        curve = curves.curve("adder", "RS")
        assert len(curve) == 3
        assert curve[0] == pytest.approx(1.5)
        assert curve[-1] == pytest.approx(2.5)

    def test_final_values_match_table(self):
        results = [
            _result("RS", "adder", [1.0, 4.0], seed=0),
            _result("BOiLS", "adder", [2.0, 6.0], seed=0),
        ]
        curves = build_convergence_curves(results)
        finals = curves.final_values()
        table = build_qor_table(results)
        assert finals["adder"]["RS"] == pytest.approx(table.value("adder", "RS"))
        assert finals["adder"]["BOiLS"] == pytest.approx(table.value("adder", "BOiLS"))

    def test_csv(self):
        results = [_result("RS", "adder", [1.0, 2.0])]
        csv = build_convergence_curves(results).to_csv()
        assert "adder,RS,1," in csv

    def test_end_to_end_small_study(self):
        curves = convergence_study(_quick(("rs", "greedy")))
        assert set(curves.curves["adder"]) == {"RS", "Greedy"}


class TestSampleEfficiency:
    def test_evaluations_to_reach(self):
        assert _evaluations_to_reach([1.0, 2.0, 3.0], target=2.5, fallback=99) == 3
        assert _evaluations_to_reach([1.0, 2.0], target=5.0, fallback=99) == 99
        assert _evaluations_to_reach([5.0], target=2.0, fallback=99) == 1

    def test_small_study_runs(self):
        study = sample_efficiency_study(_quick(("boils", "rs")), extended_budget=10)
        assert study.reference_method == "BOiLS"
        assert "RS" in study.average_evaluations
        assert study.average_evaluations["RS"] <= 10
        assert np.isfinite(study.speedup_over("RS"))
        assert "adder" in study.targets
        text = study.to_text()
        assert "Sample efficiency" in text

    def test_study_narrows_the_overrides_with_the_methods(self, monkeypatch):
        # The overrides name sbo, which is outside the grid: each of the
        # study's grids must drop it, or Campaign.validate rejects it.
        seen = []
        real_run_campaign = runner.run_campaign

        def spy(campaign, **kwargs):
            seen.append(campaign)
            return real_run_campaign(campaign, **kwargs)

        monkeypatch.setattr(runner, "run_campaign", spy)
        boils_overrides = {"num_initial": 3, "local_search_queries": 20,
                           "adam_steps": 1}
        campaign = Campaign(
            problems=(Problem("adder", width=4, sequence_length=4),),
            methods=("boils", "rs"), budget=5,
            method_overrides={"boils": boils_overrides,
                              "sbo": {"num_initial": 3}})
        study = sample_efficiency_study(campaign, extended_budget=6)
        assert set(study.average_evaluations) == {"BOiLS", "RS"}
        assert [c.methods for c in seen] == [("boils",), ("rs",)]
        assert [c.method_overrides for c in seen] == [
            {"boils": boils_overrides}, {}]


class TestStudiesKeepTheObjective:
    @pytest.mark.parametrize("module, study", [
        (convergence, convergence.convergence_study),
        (pareto, pareto.pareto_study),
    ], ids=["convergence", "pareto"])
    def test_objective_reaches_the_grid(self, monkeypatch, module, study):
        seen = []

        def fake_run_experiment(campaign, progress=None):
            seen.append(campaign)
            return []

        monkeypatch.setattr(module, "run_experiment", fake_run_experiment)
        campaign = Campaign(problems=(Problem("adder", objective="area"),
                                      Problem("sqrt", objective="area")),
                            methods=("rs",))
        study(campaign)
        assert seen == [campaign]

    def test_sample_efficiency_targets_follow_the_objective(self):
        # max at width 4 is small, yet its eq1 and area targets differ
        # (adder and sqrt at width 4 tie at 0.0 under both).
        problem = Problem("max", width=4, sequence_length=4)
        base = Campaign(
            problems=(problem,), methods=("boils", "rs"), budget=6,
            method_overrides={"boils": {"num_initial": 3,
                                        "local_search_queries": 20,
                                        "adam_steps": 2}},
        )
        area = replace(base, problems=(replace(problem, objective="area"),))
        eq1_study = sample_efficiency_study(base, extended_budget=8)
        area_study = sample_efficiency_study(area, extended_budget=8)
        (reference,) = run_experiment(area.with_methods(("boils",)))
        assert reference.best_improvement > 0
        assert area_study.targets["max"] == pytest.approx(
            0.975 * reference.best_improvement)
        assert area_study.targets != eq1_study.targets


class TestFigureRendering:
    def test_ascii_chart_contains_legend(self):
        chart = ascii_line_chart({"a": [0, 1, 2], "b": [2, 1, 0]}, title="demo")
        assert "demo" in chart and "a" in chart and "max=" in chart

    def test_ascii_chart_empty(self):
        assert ascii_line_chart({}, title="empty") == "empty"

    def test_render_figure3_table(self):
        table = build_qor_table([_result("RS", "adder", [1.0, 2.0])])
        text = render_figure3_table(table)
        assert "Figure 3 (top)" in text

    def test_render_figure3_convergence_and_pareto(self):
        results = [_result("RS", "div", [1.0, 2.0], area=4, delay=4)]
        curves = build_convergence_curves(results)
        study = build_pareto_study(results)
        assert "Figure 3 (middle)" in render_figure3_convergence(curves)
        assert "Figure 3 (bottom)" in render_figure3_pareto(study)

    def test_render_figure1(self):
        study = sample_efficiency_study(_quick(("boils", "rs")), extended_budget=6)
        assert "Figure 1" in render_figure1(study)

    def test_render_figure2(self, rng):
        x = np.linspace(0, 1, 10)
        prior = rng.normal(size=(3, 10))
        posterior = rng.normal(size=(3, 10))
        text = render_figure2(x, prior, posterior)
        assert "Figure 2 (left)" in text and "Figure 2 (right)" in text
