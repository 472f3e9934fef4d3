"""Benchmark E4 — Figure 3 (bottom row): area/delay Pareto fronts.

Paper protocol: for the four large circuits, plot the (area, delay) of the
best solution of every method and seed after 200 evaluations, overlay the
joint Pareto front, and report the fraction of each method's solutions
lying on it (55 % BOiLS, 20 % SBO, 15 % GA, 0 % RS/DRL in the paper).

The harness reruns the study at benchmark scale, writes the point cloud
and front to CSV plus a text summary, and asserts the structural
invariants (fronts are non-dominated, percentages are well-formed and at
least one method owns a front point).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_config, write_artifact
from repro.experiments import run_experiment
from repro.experiments.figures import render_figure3_pareto
from repro.experiments.pareto import build_pareto_study, is_on_front, pareto_front
from repro.circuits import get_circuit
from repro.mapping import map_aig
from repro.qor import QoREvaluator
from repro.synth.flows import resyn2

CIRCUITS = ("multiplier", "sqrt")
METHODS = ("boils", "rs", "ga")


@pytest.fixture(scope="module")
def pareto_results():
    config = bench_config(CIRCUITS, METHODS)
    results = run_experiment(config)
    # Reference points shown in the paper's plots: the unoptimised circuit
    # ("init") and the resyn2 mapping.
    references = {}
    for problem in config.problems:
        aig = get_circuit(problem.circuit, width=problem.width)
        evaluator = QoREvaluator(aig)
        resyn2_mapping = map_aig(resyn2(aig))
        references[problem.circuit] = {
            "init": (evaluator.initial_result.area, evaluator.initial_result.delay),
            "resyn2": (resyn2_mapping.area, resyn2_mapping.delay),
        }
    return results, references, config


def test_fig3_pareto_regeneration(pareto_results, benchmark):
    results, references, config = pareto_results
    study = benchmark(lambda: build_pareto_study(results, references=references))
    write_artifact("fig3_bottom_pareto.csv", study.to_csv())
    write_artifact("fig3_bottom_pareto.txt", render_figure3_pareto(study))

    for circuit in (problem.circuit for problem in config.problems):
        front = study.fronts[circuit]
        # The front must itself be non-dominated.
        assert pareto_front(front) == sorted(front)
        # Every front point originates from an evaluated solution or a
        # reference point.
        all_points = {p for pts in study.best_points[circuit].values() for p in pts}
        all_points |= set(references[circuit].values())
        assert set(front) <= all_points


def test_fig3_pareto_percentages_well_formed(pareto_results):
    results, references, _ = pareto_results
    study = build_pareto_study(results, references=references)
    percentages = study.on_front_percentages()
    assert all(0.0 <= value <= 100.0 for value in percentages.values())


def test_fig3_pareto_front_membership_consistency(pareto_results):
    results, references, _ = pareto_results
    study = build_pareto_study(results, references=references)
    for circuit in study.circuits:
        front = study.fronts[circuit]
        for method, points in study.best_points[circuit].items():
            for point in points:
                if is_on_front(point, front):
                    # No other evaluated point may strictly dominate it.
                    for other in front:
                        assert not (other[0] < point[0] and other[1] < point[1])
