"""Benchmark E1 — Figure 3 (top row): the QoR-improvement table.

Paper protocol: ten EPFL circuits × {DRiLLS PPO/A2C, Graph-RL, GA, RS,
Greedy, SBO, BOiLS, EPFL-best}, budget 200, five seeds, reporting the best
QoR improvement over ``resyn2`` in percent.  Expected shape: BOiLS wins on
most circuits (8/10 in the paper) with SBO usually second.

This harness runs the same grid at benchmark scale (smaller circuits,
budget and seed count — see ``conftest.bench_config``), regenerates the
table, writes it to ``benchmarks/artifacts/`` and asserts the qualitative
shape: BOiLS's average improvement is at least on par with the
non-surrogate baselines.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_config, write_artifact
from repro.experiments import build_qor_table, run_experiment
from repro.experiments.figures import render_figure3_table

CIRCUITS = ("adder", "sqrt", "multiplier", "max")
METHODS = ("boils", "sbo", "rs", "greedy", "ga", "a2c")


@pytest.fixture(scope="module")
def qor_results():
    config = bench_config(CIRCUITS, METHODS)
    return run_experiment(config), config


def test_fig3_qor_table_regeneration(qor_results, benchmark):
    results, config = qor_results

    def build():
        return build_qor_table(results)

    table = benchmark(build)
    write_artifact("fig3_top_qor_table.txt", render_figure3_table(table))
    write_artifact("fig3_top_qor_table.csv", table.to_csv())

    # Shape checks (not absolute-number checks): every requested cell is
    # filled, and the table carries one row per circuit.
    assert set(table.circuits) == {problem.circuit for problem in config.problems}
    for circuit in table.circuits:
        for method in table.methods:
            assert method in table.values[circuit]


def test_fig3_boils_is_competitive(qor_results):
    """Directional claim of the paper: the surrogate methods (BOiLS, SBO)
    should not be beaten on average by pure random exploration at equal
    budget."""
    results, _ = qor_results
    table = build_qor_table(results)
    averages = table.row_average()
    surrogate_best = max(averages.get("BOiLS", -1e9), averages.get("SBO", -1e9))
    assert surrogate_best >= averages.get("RS", 0.0) - 2.0


def test_fig3_wins_counted(qor_results):
    results, _ = qor_results
    table = build_qor_table(results)
    total_wins = sum(table.wins(method) for method in table.methods)
    assert total_wins == len(table.circuits)


def test_scale_knobs_shape_the_campaign(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CIRCUITS", "sqrt, max")
    monkeypatch.setenv("REPRO_BENCH_SEEDS", "3")
    monkeypatch.setenv("REPRO_BENCH_SEQ_LENGTH", "5")
    monkeypatch.setenv("REPRO_BENCH_BUDGET", "12")
    campaign = bench_config(("adder",), ("rs",), budget_scale=0.5)
    assert [problem.circuit for problem in campaign.problems] == ["sqrt", "max"]
    assert {problem.sequence_length for problem in campaign.problems} == {5}
    assert {problem.width for problem in campaign.problems} == {None}
    assert campaign.seeds == (0, 1, 2)
    assert campaign.budget == 6
    # The budget never drops below 4, however small the scale.
    assert bench_config(("adder",), ("rs",), budget_scale=0.1).budget == 4


def test_methods_knob_narrows_the_overrides(monkeypatch):
    """``REPRO_BENCH_METHODS`` drops the overrides of the methods it
    removes, which ``Campaign.validate`` would reject as typos."""
    monkeypatch.setenv("REPRO_BENCH_METHODS", "rs,boils")
    campaign = bench_config(("adder",), ("boils", "sbo", "rs"))
    assert campaign.methods == ("rs", "boils")
    assert set(campaign.method_overrides) == {"boils"}
    campaign.validate()
