"""Micro-benchmark: engine throughput across a jobs sweep.

Sweeps jobs ∈ {1, 2, 4} over identical deterministic batches and
measures ``sequences_per_second`` through :class:`repro.engine.EvaluationEngine`
three ways per jobs value:

* ``jobs=1`` — the in-process serial path (the denominator).
* **warm pool** (``adaptive=False``) — raw pool throughput *after*
  warm-up: the pool is built and its workers initialised on untimed
  warm-up batches (shared-memory AIG attach + warm reference stats), so
  the timed rounds measure steady-state parallel evaluation.  This is
  the number the parallelism-inversion acceptance gate tracks.
* **adaptive** (default engine) — the planner-routed path, recorded
  informationally with its decisions; on any hardware it must not
  invert, because the planner simply stays serial when the pool cannot
  win.

Results land in ``benchmarks/artifacts/BENCH_engine.json`` (gated by
``benchmarks/check_perf_regression.py`` against the committed baseline)
plus the historical CSV, and the headline rates ride along in
``BENCH_substrate.json``.  Bit-identity of all paths is asserted
unconditionally.

The artifact records ``available_cpus`` because the jobs-scaling ratios
are hardware-dependent: on a single-CPU container a warm pool cannot
beat serial, so the regression gate applies its 1.5× jobs=2 floor only
to artifacts measured with ≥ 2 CPUs (see ``check_perf_regression.py``).

Scale knobs: ``REPRO_BENCH_ENGINE_BATCH`` (batch size, default 24),
``REPRO_BENCH_ENGINE_ROUNDS`` (timed rounds, default 3).
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import write_artifact
from benchmarks.test_substrate_performance import record_bench_entry
from repro.api import env_int
from repro.bo.space import SequenceSpace
from repro.engine import EvaluationEngine, EvaluatorSpec
from repro.engine.planner import effective_parallelism
from repro.qor.backends.native import clear_synth_memo

import numpy as np

_WARMUP_BATCHES = 2
_JOBS_SWEEP = (1, 2, 4)


def _measure(engine, warmups, timed):
    """Warm the engine on untimed batches, then time the real rounds.

    Starts from a cold synthesis memo, so no path replays states an
    earlier path of the sweep computed (pool workers fork from this
    process on their first batch).
    """
    clear_synth_memo()
    for batch in warmups:
        engine.compute_batch(batch)
    start = time.perf_counter()
    records = [engine.compute_batch(batch) for batch in timed]
    seconds = time.perf_counter() - start
    return records, seconds


def test_engine_throughput_jobs_sweep():
    batch_size = max(4, env_int("REPRO_BENCH_ENGINE_BATCH", 24))
    rounds = max(1, env_int("REPRO_BENCH_ENGINE_ROUNDS", 3))
    spec = EvaluatorSpec.for_circuit("adder", width=4)
    space = SequenceSpace(sequence_length=4)
    # One deterministic stream for the whole sweep: every jobs value sees
    # byte-identical warm-up and timed batches.
    rng = np.random.default_rng(0)
    warmups = [[space.to_names(row) for row in space.sample(batch_size, rng)]
               for _ in range(_WARMUP_BATCHES)]
    timed = [[space.to_names(row) for row in space.sample(batch_size, rng)]
             for _ in range(rounds)]
    timed_evals = batch_size * rounds

    per_jobs = {}
    csv_lines = ["path,jobs,batch_size,rounds,seconds,sequences_per_second"]
    serial_records = None
    for jobs in _JOBS_SWEEP:
        if jobs == 1:
            with EvaluationEngine(spec, jobs=1) as engine:
                records, seconds = _measure(engine, warmups, timed)
            serial_records = records
            entry = {
                "mode": "serial",
                "seconds": seconds,
                "sequences_per_second": timed_evals / seconds,
            }
            csv_lines.append(
                f"serial,1,{batch_size},{rounds},{seconds:.4f},"
                f"{timed_evals / seconds:.2f}")
        else:
            # Raw warm-pool throughput: planning disabled so every timed
            # batch goes through the (already warm) pool.
            with EvaluationEngine(spec, jobs=jobs, adaptive=False) as engine:
                records, seconds = _measure(engine, warmups, timed)
                pool_meta = engine.metadata()["pool"]
            assert records == serial_records, (
                f"warm pool at jobs={jobs} diverged from serial")
            # One pool build must have served warm-ups and timed rounds.
            assert pool_meta["builds"] == 1 and pool_meta["epoch"] == 0
            # The shipped (adaptive) engine, informationally: it may
            # legitimately route everything serial on few-core hosts.
            with EvaluationEngine(spec, jobs=jobs) as engine:
                adaptive_records, adaptive_seconds = _measure(
                    engine, warmups, timed)
                decisions = engine.metadata()["decisions"]
            assert adaptive_records == serial_records, (
                f"adaptive engine at jobs={jobs} diverged from serial")
            entry = {
                "mode": "warm_pool",
                "seconds": seconds,
                "sequences_per_second": timed_evals / seconds,
                "pool_builds": pool_meta["builds"],
                "adaptive_sequences_per_second": timed_evals / adaptive_seconds,
                "adaptive_decisions": [d["mode"] for d in decisions],
            }
            csv_lines.append(
                f"warm_pool,{jobs},{batch_size},{rounds},{seconds:.4f},"
                f"{timed_evals / seconds:.2f}")
        per_jobs[str(jobs)] = entry

    rate = {jobs: per_jobs[jobs]["sequences_per_second"] for jobs in per_jobs}
    artifact = {
        "version": 1,
        "available_cpus": effective_parallelism(max(_JOBS_SWEEP)),
        "batch_size": batch_size,
        "rounds": rounds,
        "warmup_batches": _WARMUP_BATCHES,
        "jobs": per_jobs,
        "ratios": {
            "jobs2_vs_jobs1": rate["2"] / rate["1"],
            "jobs4_vs_jobs2": rate["4"] / rate["2"],
        },
    }
    write_artifact("BENCH_engine.json",
                   json.dumps(artifact, indent=2, sort_keys=True,
                              allow_nan=False) + "\n")
    write_artifact("engine_throughput.csv", "\n".join(csv_lines) + "\n")
    # Headline rates ride along in the substrate artifact so the
    # end-to-end evaluation rate is tracked next to the hot-path ratios.
    record_bench_entry("engine_throughput", {
        "batch_size": batch_size,
        "rounds": rounds,
        "serial_sequences_per_second": rate["1"],
        "warm_pool_jobs2_sequences_per_second": rate["2"],
        "warm_pool_jobs4_sequences_per_second": rate["4"],
    })
