"""The campaign benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload boils-cold --seed 0 --seconds 20 --trace 0

Each repetition runs the workload's whole grid in a fresh process
(``rep.py``), with its store and caches in a scratch directory that is
removed afterwards.  Repetitions continue until ``--seconds`` have
passed (at least one runs); every end-to-end metric is the median over
the repetitions.  Every cell's best sequence, best improvement and
evaluation count is checked against ``expected.json``; a mismatch, a
failed cell or a crashed repetition counts as failed in ``ok_frac``.

``--trace 1`` runs one untraced and one traced repetition instead and
reports the per-layer metrics (see ``README.md``).  The last line of
standard output is the JSON result; the lines before it record the
environment and each repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".scratch"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PASS_NAMES  # noqa: E402

#: A run ends within this many seconds, or its last repetition is killed.
RUN_LIMIT_S = 170.0
#: BLAS/OpenMP thread variables, recorded as found and never set.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
#: What the resource tracker prints for a shared-memory segment it lost.
SHM_TRACKER_ERROR = re.compile(r"KeyError: '/psm_")
LAYERS = ("synth", "mapping", "qor", "gp", "bo", "engine", "cache", "store",
          "setup", "trace")


def environment() -> Dict[str, object]:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def run_rep(workload: str, seeds: List[int], trace: bool,
            expected: Dict[str, object], deadline: float) -> Optional[Dict]:
    """Run one repetition in a fresh process; ``None`` if it crashed.

    The repetition and every process it starts share one process group,
    which is killed if the repetition outlives ``deadline``.
    """
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    out = scratch / "rep.json"
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seeds", ",".join(map(str, seeds)),
               "--scratch", str(scratch), "--out", str(out)]
    if trace:
        command.append("--trace")
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
            stderr += f"\nrepetition ran past the {RUN_LIMIT_S:.0f} s run limit"
        data = (json.loads(out.read_text(encoding="utf-8"))
                if proc.returncode == 0 and out.is_file() else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if data is None:
        print(f"repetition failed (exit {proc.returncode}):\n{stderr[-3000:]}",
              file=sys.stderr)
        return None
    data["stderr"] = stderr
    data["failures"] = check_cells(data["cells"], expected)
    for failure in data["failures"]:
        print(f"{workload}: {failure}", file=sys.stderr)
    print(f"rep seeds {seeds}{' traced' if trace else ''}: "
          + ", ".join(f"{key} {data[key]:.4f}"
                      for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")),
          flush=True)
    return data


def check_cells(cells: List[Dict[str, object]],
                expected: Dict[str, Dict[str, object]]) -> List[str]:
    """One message per cell that failed or differs from its expected result."""
    failures = []
    for cell in cells:
        key = str(cell["key"])
        if cell["status"] != "ok":
            failures.append(f"cell {key} {cell['status']}: {cell['error']}")
        elif cell["summary"] != expected.get(key):
            failures.append(f"cell {key} produced {cell['summary']}, "
                            f"expected {expected.get(key)}")
    missing = set(expected) - {str(cell["key"]) for cell in cells}
    failures.extend(f"cell {key} missing" for key in sorted(missing))
    return failures


def end_to_end(reps: List[Dict], attempted: int, failed: int) -> Dict[str, float]:
    def median(key: str) -> float:
        return statistics.median(float(rep[key]) for rep in reps)  # type: ignore[arg-type]

    improvements = [statistics.fmean(float(cell["summary"]["best_improvement_pct"])
                                     for cell in rep["cells"]) for rep in reps]
    return {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "setup_s": median("setup_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "ok_frac": (attempted - failed) / attempted,
        "best_improvement_pct": statistics.median(improvements),
    }


def per_layer(traced: Dict, untraced: Dict, jobs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (see README.md)."""
    trace = traced["trace"]
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    for name, start, end, own in trace["spans"]:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + own
    counters = trace["counters"]
    wall = float(traced["wall_s"])
    metrics: Dict[str, float] = {}

    def span(name: str) -> None:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.s"] = total.get(name, 0.0)

    synth_names = [f"synth.{short}" for short in PASS_NAMES.values()]
    metrics["synth.calls"] = sum(calls.get(name, 0) for name in synth_names)
    metrics["synth.s"] = sum(total.get(name, 0.0) for name in synth_names)
    for name in synth_names:
        span(name)
    metrics["synth.repeat_state_frac"] = (
        counters.get("synth.repeat_states", 0) / metrics["synth.calls"]
        if metrics["synth.calls"] else 0.0)
    span("mapping.map")
    span("qor.measure")
    span("qor.evaluate_many")
    metrics["qor.num_computed"] = counters.get("qor.num_computed", 0)
    metrics["qor.num_persistent_hits"] = counters.get("qor.num_persistent_hits", 0)
    for name in ("fit_hyperparameters", "update_or_fit", "predict"):
        span(f"gp.{name}")
    metrics["bo.suggest.s"] = total.get("bo.suggest", 0.0)
    metrics["bo.observe.s"] = total.get("bo.observe", 0.0)
    span("bo.acq_maximise")
    boils = [cell["metadata"] for cell in traced["cells"] if cell["key"].startswith("boils/")]
    metrics["bo.rounds"] = sum(int(meta.get("num_rounds", 0)) for meta in boils)
    metrics["bo.restarts"] = sum(int(meta.get("num_restarts", 0)) for meta in boils)

    span("engine.compute_batch")
    decisions = [decision for meta in trace["engine_metadata"]
                 for decision in meta["decisions"]]
    metrics["engine.pool_batches"] = sum(d["mode"] == "pool" for d in decisions)
    metrics["engine.serial_batches"] = (metrics["engine.compute_batch.calls"]
                                        - metrics["engine.pool_batches"])
    metrics["engine.pool_builds"] = counters.get("engine.pool_builds", 0)
    for name in ("get", "get_many", "put", "put_many"):
        span(f"cache.{name}")
    busy = sum(cell_busy for _, cell_busy in traced["cell_spans"])
    metrics["pool.cell_busy_s"] = busy
    metrics["pool.efficiency"] = busy / (jobs * wall)
    metrics["pool.first_round_s"] = min(
        (first for first, _ in traced["cell_spans"]), default=0.0)
    metrics["engine.shm_tracker_errors"] = len(SHM_TRACKER_ERROR.findall(traced["stderr"]))

    span("store.write_checkpoint")
    metrics["store.write_checkpoint.bytes"] = counters.get("store.write_checkpoint.bytes", 0)
    span("store.append_trajectory")
    metrics["store.write_record.s"] = total.get("store.write_record", 0.0)
    metrics["setup.evaluator_build_s"] = total.get("setup.evaluator_build", 0.0)
    metrics["setup.pool_start_s"] = total.get("setup.pool_start", 0.0)

    covered = 0.0
    for layer in LAYERS:
        own = sum(value for name, value in self_time.items()
                  if name.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}.self_s"] = own
        covered += own
    metrics["layer.untraced_s"] = wall - covered
    metrics["trace.coverage_frac"] = covered / wall
    metrics["trace.overhead_frac"] = wall / float(untraced["wall_s"]) - 1.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected_path = HERE / "expected.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not expected_path.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'} or no "
              f"{expected_path.name}; run from a full checkout", file=sys.stderr)
        return 2
    expected = json.loads(expected_path.read_text(encoding="utf-8"))[args.workload]
    print("environment:", json.dumps(environment(), sort_keys=True), flush=True)

    SCRATCH.mkdir(exist_ok=True)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    try:
        if args.trace:
            # One untraced and one traced repetition, in the same seed order.
            seeds = workloads.seed_order(args.seed, 0)
            done = [run_rep(args.workload, seeds, trace, expected, deadline)
                    for trace in (False, True)]
        else:
            done = []
            while not done or time.monotonic() - started < args.seconds:
                seeds = workloads.seed_order(args.seed, len(done))
                done.append(run_rep(args.workload, seeds, False, expected, deadline))
    finally:
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    attempted = len(expected) * len(done)
    failed = sum(len(expected) if rep is None else len(rep["failures"]) for rep in done)
    finished = [rep for rep in done if rep is not None]
    if not finished or (args.trace and len(finished) < 2):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(done[1], done[0], workloads.WORKLOADS[args.workload].jobs)
    else:
        metrics = end_to_end(finished, attempted, failed)
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unit_of = {entry["name"]: entry["unit"]
               for entry in units["end_to_end"] + units["per_layer"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
