"""Shared configuration for the benchmark harnesses.

Every benchmark regenerates one of the paper's tables or figures.  The
default scale is deliberately small so that ``pytest benchmarks/
--benchmark-only`` finishes in a few minutes on a laptop; the environment
variables below raise it towards the paper's protocol:

============================  =======================================  ========
variable                      meaning                                  paper
============================  =======================================  ========
``REPRO_BENCH_BUDGET``        evaluations per optimisation run         200
``REPRO_BENCH_SEEDS``         random seeds per (method, circuit)       5
``REPRO_BENCH_SEQ_LENGTH``    operations per sequence (K)              20
``REPRO_BENCH_CIRCUITS``      comma-separated circuit subset           all ten
``REPRO_BENCH_METHODS``       comma-separated method subset            all
============================  =======================================  ========

Artefacts (CSV series and ASCII renderings of each figure) are written to
``benchmarks/artifacts/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.api import Campaign, Problem, env_int

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def _env_list(name: str, default):
    raw = os.environ.get(name)
    if not raw:
        return tuple(default)
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def bench_config(circuits, methods, budget_scale: float = 1.0) -> Campaign:
    """Benchmark-scale campaign, steered by the ``REPRO_BENCH_*`` knobs."""
    budget = max(4, int(env_int("REPRO_BENCH_BUDGET", 10) * budget_scale))
    sequence_length = env_int("REPRO_BENCH_SEQ_LENGTH", 6)
    return Campaign(
        problems=tuple(Problem(circuit, sequence_length=sequence_length)
                       for circuit in _env_list("REPRO_BENCH_CIRCUITS", circuits)),
        seeds=tuple(range(env_int("REPRO_BENCH_SEEDS", 1))),
        budget=budget,
        method_overrides={
            "boils": {"num_initial": 4, "local_search_queries": 100, "adam_steps": 3,
                      "fit_every": 2},
            "sbo": {"num_initial": 4, "adam_steps": 3, "fit_every": 2},
        },
    ).with_methods(_env_list("REPRO_BENCH_METHODS", methods))


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    return ARTIFACT_DIR


@pytest.fixture(scope="session", autouse=True)
def _fresh_bench_substrate_artifact():
    """Start every benchmark session from empty BENCH_*.json artifacts.

    Entries are merged into the artifacts by whichever benchmark files run
    (substrate speedups, campaign-pool scaling), so they must be cleared once
    per session — regardless of file ordering — to guarantee every entry
    comes from *this* run.  A partial rerun then leaves untested paths
    missing from the artifact, which ``check_perf_regression.py`` reports
    loudly, instead of silently re-validating stale numbers.
    """
    for name in ("BENCH_substrate.json", "BENCH_campaign.json"):
        path = ARTIFACT_DIR / name
        if path.exists():
            path.unlink()
    yield


def write_artifact(name: str, content: str) -> Path:
    """Write a text artefact (CSV / ASCII figure) next to the benchmarks."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    path.write_text(content)
    return path
