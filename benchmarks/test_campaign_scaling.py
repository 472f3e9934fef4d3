"""Campaign-pool scaling: one BOiLS + GA grid at ``jobs=1`` and ``jobs=2``.

``jobs`` counts cells in flight, and the warm campaign pool is the
package's one parallel path, so this is the benchmark of parallel
speed.  The grid (two methods × two seeds on ``multiplier`` width 4)
runs through :func:`repro.api.run_campaign` three times per side,
alternating sides.  Every run starts from a cold synthesis memo and a
fresh persistent cache directory, so no run replays work an earlier one
did (pool workers fork from this process).

The records must be identical at both ``jobs`` values; that assert holds
on any host.  ``BENCH_campaign.json`` records, per side, the minimum
``wall_s`` and ``cpu_s`` over the repetitions (user + system time of
this process and its reaped pool workers), plus ``available_cpus``.
``check_perf_regression.py`` gates the ratios on hosts with at least
two CPUs.
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
import time

from benchmarks.conftest import write_artifact
from repro.api import Campaign, Problem, run_campaign
from repro.qor.backends.native import clear_synth_memo

REPETITIONS = 3


def _grid() -> Campaign:
    return Campaign(
        problems=(Problem("multiplier", width=4, sequence_length=6),),
        methods=("boils", "ga"),
        seeds=(0, 1),
        budget=8,
        method_overrides={"boils": {"num_initial": 4,
                                    "local_search_queries": 40,
                                    "adam_steps": 2}},
        name="campaign-scaling",
    )


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _run(jobs: int):
    clear_synth_memo()
    with tempfile.TemporaryDirectory() as cache_dir:
        cpu = _cpu_seconds()
        start = time.perf_counter()
        records = run_campaign(_grid(), jobs=jobs, cache_dir=cache_dir)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
    return records, wall, cpu


def test_campaign_pool_scaling():
    timings = {1: [], 2: []}
    records = {}
    for _ in range(REPETITIONS):
        for jobs in (1, 2):
            records[jobs], wall, cpu = _run(jobs)
            timings[jobs].append((wall, cpu))
    assert all(record.ok for record in records[1])
    assert ([record.to_dict() for record in records[2]]
            == [record.to_dict() for record in records[1]])

    sides = {str(jobs): {"wall_s": min(wall for wall, _ in runs),
                         "cpu_s": min(cpu for _, cpu in runs),
                         "runs": [{"wall_s": wall, "cpu_s": cpu}
                                  for wall, cpu in runs]}
             for jobs, runs in timings.items()}
    artifact = {
        "version": 1,
        "available_cpus": (len(os.sched_getaffinity(0))
                           if hasattr(os, "sched_getaffinity")
                           else os.cpu_count() or 1),
        "repetitions": REPETITIONS,
        "jobs": sides,
        "wall_speedup": sides["1"]["wall_s"] / sides["2"]["wall_s"],
        "cpu_ratio": sides["2"]["cpu_s"] / sides["1"]["cpu_s"],
    }
    write_artifact("BENCH_campaign.json",
                   json.dumps(artifact, indent=2, sort_keys=True,
                              allow_nan=False) + "\n")
