#!/usr/bin/env python3
"""Reproduce the paper's evaluation artefacts end to end.

Regenerates, at a configurable scale, every table and figure of the
paper's Section IV:

* Figure 3 (top):   QoR-improvement table over all circuits and methods,
* Figure 1:         evaluations needed to reach 97.5 % of BOiLS's QoR,
* Figure 3 (middle): convergence curves on the large circuits,
* Figure 3 (bottom): area/delay Pareto fronts and %-on-front statistics,

and writes everything to ``examples/output/``.

Run (quick, a few minutes):
    python examples/reproduce_qor_table.py

Run closer to paper scale (hours; uses all ten circuits, K=20, 5 seeds):
    REPRO_BUDGET=200 REPRO_SEEDS=5 REPRO_SEQ_LENGTH=20 \
        python examples/reproduce_qor_table.py --full

The grid is one ``Campaign``; the ``REPRO_*`` variables reach it through
``Campaign.with_env_overrides``.  Each study runs it through
``run_experiment``, a store-less campaign run; see
``compare_optimisers.py`` for a resumable run directory.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from repro.api import Campaign, Problem
from repro.circuits.registry import LARGE_CIRCUITS
from repro.experiments import (
    build_qor_table,
    run_experiment,
    sample_efficiency_study,
)
from repro.experiments.convergence import build_convergence_curves
from repro.experiments.figures import (
    render_figure1,
    render_figure3_convergence,
    render_figure3_pareto,
    render_figure3_table,
)
from repro.experiments.pareto import build_pareto_study

OUTPUT_DIR = Path(__file__).parent / "output"


def make_campaign(full: bool) -> Campaign:
    if full:
        circuits = ("adder", "bar", "div", "hyp", "log2", "max",
                    "multiplier", "sin", "sqrt", "square")
        methods = ("boils", "sbo", "rs", "greedy", "ga", "a2c", "ppo")
    else:
        circuits = ("adder", "sqrt", "multiplier", "max")
        methods = ("boils", "sbo", "rs", "greedy", "ga")
    return Campaign(
        problems=tuple(Problem(circuit, sequence_length=8) for circuit in circuits),
        methods=methods,
        seeds=(0,),
        budget=15,
        method_overrides={
            "boils": {"num_initial": 5, "local_search_queries": 150, "adam_steps": 3,
                      "fit_every": 2},
            "sbo": {"num_initial": 5, "adam_steps": 3, "fit_every": 2},
        },
    ).with_env_overrides()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="use all ten circuits and all methods")
    args = parser.parse_args()

    OUTPUT_DIR.mkdir(exist_ok=True)
    campaign = make_campaign(args.full)

    # ------------------------------------------------------------------
    print("=== Figure 3 (top): QoR table ===")
    results = run_experiment(campaign, progress=lambda m: print(f"  [{m}]"))
    table = build_qor_table(results)
    text = render_figure3_table(table)
    print(text)
    (OUTPUT_DIR / "fig3_top_table.txt").write_text(text)
    (OUTPUT_DIR / "fig3_top_table.csv").write_text(table.to_csv())

    # ------------------------------------------------------------------
    print("\n=== Figure 3 (middle): convergence on large circuits ===")
    circuits = [problem.circuit for problem in campaign.problems]
    large = [c for c in circuits if c in LARGE_CIRCUITS] or circuits[:2]
    large_results = [r for r in results if r.circuit in large]
    curves = build_convergence_curves(large_results)
    (OUTPUT_DIR / "fig3_middle_convergence.csv").write_text(curves.to_csv())
    (OUTPUT_DIR / "fig3_middle_convergence.txt").write_text(
        render_figure3_convergence(curves))
    print(f"  wrote curves for {curves.circuits}")

    # ------------------------------------------------------------------
    print("\n=== Figure 3 (bottom): Pareto fronts ===")
    pareto = build_pareto_study(large_results)
    pareto_text = render_figure3_pareto(pareto)
    print("\n".join(pareto_text.splitlines()[:8]))
    (OUTPUT_DIR / "fig3_bottom_pareto.txt").write_text(pareto_text)
    (OUTPUT_DIR / "fig3_bottom_pareto.csv").write_text(pareto.to_csv())

    # ------------------------------------------------------------------
    print("\n=== Figure 1: sample efficiency ===")
    fig1_campaign = replace(campaign, problems=campaign.problems[:2]).with_methods(
        tuple(m for m in campaign.methods if m in ("boils", "sbo", "rs", "ga")))
    study = sample_efficiency_study(fig1_campaign, extended_budget=3 * campaign.budget)
    fig1_text = render_figure1(study)
    print(fig1_text)
    (OUTPUT_DIR / "fig1_sample_efficiency.txt").write_text(fig1_text)

    print(f"\nall artefacts written to {OUTPUT_DIR}/")


if __name__ == "__main__":
    main()
