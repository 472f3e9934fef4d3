"""Benchmark E3 — Figure 3 (middle row): convergence curves.

Paper protocol: best-so-far QoR improvement versus number of tested
sequences on the four largest circuits (hypotenuse, divisor, log2,
multiplier), with all methods given up to 1000 evaluations and BOiLS
capped at 200.  Expected shape: BOiLS's curve reaches its plateau within
~200 evaluations while GA/RS/DRL approach it only much later.

The harness regenerates the mean curves at benchmark scale (two of the
large circuits by default), writes the CSV + ASCII chart artefacts, and
asserts structural invariants of the curves (monotone, correct length,
consistent with the per-run bests).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_config, write_artifact
from repro.experiments import build_qor_table, run_experiment
from repro.experiments.convergence import build_convergence_curves
from repro.experiments.figures import render_figure3_convergence

CIRCUITS = ("multiplier", "sqrt")
METHODS = ("boils", "rs", "ga")


@pytest.fixture(scope="module")
def convergence_results():
    config = bench_config(CIRCUITS, METHODS)
    return run_experiment(config), config


def test_fig3_convergence_regeneration(convergence_results, benchmark):
    results, config = convergence_results
    curves = benchmark(lambda: build_convergence_curves(results))
    write_artifact("fig3_middle_convergence.csv", curves.to_csv())
    write_artifact("fig3_middle_convergence.txt", render_figure3_convergence(curves))

    for circuit in (problem.circuit for problem in config.problems):
        for method in curves.curves[circuit]:
            curve = curves.curve(circuit, method)
            assert len(curve) == config.budget
            assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:])), \
                "best-so-far curves must be monotone"


def test_fig3_convergence_final_values_match_table(convergence_results):
    results, _ = convergence_results
    curves = build_convergence_curves(results)
    table = build_qor_table(results)
    finals = curves.final_values()
    for circuit, per_method in finals.items():
        for method, value in per_method.items():
            assert value == pytest.approx(table.value(circuit, method), abs=1e-9)
