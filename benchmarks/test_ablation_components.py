"""Benchmark A1 — ablation of BOiLS's two components.

The paper motivates BOiLS by its two modifications over standard BO:
(i) the sub-sequence string kernel instead of a positional categorical
kernel, and (ii) trust-region constrained acquisition maximisation instead
of unrestricted search.  SBO already serves as the "neither" arm; this
ablation adds the "SSK only" arm (BOiLS with the trust region disabled by
pinning the radius at K) and the kernel-order ablation (SSK order 1 ≈ a
positional kernel), so the contribution of each piece can be measured.

Artefacts: a small table of best-improvement per arm.  Assertions check
the arms run to budget and produce comparable, well-formed results — the
directional claim (full BOiLS ≥ ablated arms on average) is recorded in
the artefact rather than asserted, because at benchmark scale the gap is
within seed noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_config, write_artifact
from repro.bo import BOiLS, StandardBO
from repro.bo.trust_region import TrustRegionConfig
from repro.circuits import get_circuit
from repro.qor import QoREvaluator

CIRCUIT = "sqrt"


@pytest.fixture(scope="module")
def ablation_results():
    config = bench_config((CIRCUIT,), ("boils",))
    space = config.problems[0].space()
    aig = get_circuit(CIRCUIT)

    arms = {
        "BOiLS (full)": lambda seed: BOiLS(
            space=space, seed=seed, num_initial=4, local_search_queries=100,
            adam_steps=3, fit_every=2),
        "BOiLS (no trust region)": lambda seed: BOiLS(
            space=space, seed=seed, num_initial=4, local_search_queries=100,
            adam_steps=3, fit_every=2,
            trust_region_config=TrustRegionConfig(
                initial_radius=space.sequence_length,
                failure_streak_to_shrink=10 ** 9)),
        "BOiLS (order-1 kernel)": lambda seed: BOiLS(
            space=space, seed=seed, num_initial=4, local_search_queries=100,
            adam_steps=3, fit_every=2, max_subsequence_length=1),
        "SBO (no SSK, no TR)": lambda seed: StandardBO(
            space=space, seed=seed, num_initial=4, adam_steps=3, fit_every=2),
    }

    results = {}
    for name, factory in arms.items():
        improvements = []
        for seed in config.seeds:
            # A fresh evaluator per run: a shared memo would make the
            # sequences earlier arms tested free, so arm order would
            # change each arm's result.
            run = factory(seed).optimise(QoREvaluator(aig),
                                         budget=config.budget)
            improvements.append(run.best_improvement)
        results[name] = (float(np.mean(improvements)), config.budget)
    return results


def test_ablation_all_arms_complete(ablation_results, benchmark):
    results = benchmark(lambda: ablation_results)
    lines = ["arm,mean_best_improvement,budget"]
    for name, (mean, budget) in results.items():
        lines.append(f"{name},{mean:.4f},{budget}")
    write_artifact("ablation_components.csv", "\n".join(lines))
    assert set(results) == {
        "BOiLS (full)", "BOiLS (no trust region)",
        "BOiLS (order-1 kernel)", "SBO (no SSK, no TR)",
    }
    for mean, _ in results.values():
        assert np.isfinite(mean)


def test_ablation_full_boils_not_dominated_by_sbo(ablation_results):
    """Weak directional check: the full method is within noise of, or
    better than, the no-SSK/no-TR arm at equal budget."""
    full = ablation_results["BOiLS (full)"][0]
    sbo = ablation_results["SBO (no SSK, no TR)"][0]
    assert full >= sbo - 5.0
