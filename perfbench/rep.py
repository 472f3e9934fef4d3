"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so no process-wide
state (the worker evaluator cache, warm pools) carries over between
repetitions or workloads::

    python3 perfbench/rep.py --workload boils-cold --seeds 0,1 \\
        --scratch DIR --out FILE [--trace]

Interpreter start-up and the numpy/scipy/repro imports happen before
the timed region.  The timed region is the workload's grid, run to
completion through the public entry points; its wall clock, CPU time
(this process plus every child it has reaped, i.e. pool workers), peak
RSS, set-up time and cell outcomes are written to ``--out`` as JSON.
With ``--trace`` the layer tracer is installed first and its spans and
counters are written too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402,F401  (imported before the timed region)
import scipy.linalg  # noqa: E402,F401
import scipy.stats  # noqa: E402,F401

import repro.api  # noqa: E402,F401
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped child.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True,
                        help="comma-separated algorithm seeds, in run order")
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    seeds = [int(seed) for seed in args.seeds.split(",")]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()

    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    grid = workload.run(seeds, args.scratch, workload.jobs)
    end = time.perf_counter()
    cpu_end = _cpu_seconds()

    result = {
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "setup_s": sum((first if first is not None else stop) - begin
                       for begin, first, stop in grid.calls),
        "peak_rss_mb": _peak_rss_mb(),
        "cells": [{"key": cell.key(), "status": cell.status,
                   "summary": cell.summary(), "error": cell.error,
                   "metadata": cell.metadata} for cell in grid.cells],
        # Per cell: (first round, relative to the timed region; busy seconds).
        "cell_spans": [(first - start, busy) for first, busy in grid.cell_spans],
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counters": tracer.counters,
            "engine_metadata": tracer.engine_metadata,
        }
    args.out.write_text(json.dumps(result, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
