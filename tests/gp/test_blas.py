"""The OpenBLAS thread pin (:mod:`repro.gp.blas`), checked in fresh
interpreters so that the environment and import order are controlled."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# numpy and scipy first, as a benchmark or notebook would import them.
_PROBE = """
import json
import numpy, scipy.linalg
import repro.gp
from repro.gp.blas import blas_threads
report = {"parent": blas_threads()}
if POOL:
    from repro.engine import worker
    from repro.engine.pool import WarmPool
    with WarmPool(max_workers=1) as pool:
        report["worker"] = pool.executor().submit(
            worker.worker_diagnostics).result()["blas_threads"]
print(json.dumps(report))
"""


def _probe(pool: bool = False, **env: str) -> dict:
    environment = {key: value for key, value in os.environ.items()
                   if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    environment.update(env)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    output = subprocess.run(
        [sys.executable, "-c", _PROBE.replace("POOL", str(pool))], env=environment,
        capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(output.strip().splitlines()[-1])


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


@pytest.fixture(scope="module")
def pinned() -> dict:
    report = _probe(pool=True)
    if not report["parent"]:
        pytest.skip("no OpenBLAS is loaded on this platform")
    return report


def test_every_loaded_openblas_reads_one_thread(pinned):
    # numpy's and scipy's wheels each bundle their own OpenBLAS.
    assert pinned["parent"]
    assert set(pinned["parent"].values()) == {1}


def test_pool_worker_reads_one_thread(pinned):
    assert pinned["worker"].keys() == pinned["parent"].keys()
    assert set(pinned["worker"].values()) == {1}


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_count_is_left_alone(pinned, variable):
    if _available_cpus() < 2:
        pytest.skip("OpenBLAS caps its threads at the CPU count")
    report = _probe(**{variable: "2"})
    assert report["parent"].keys() == pinned["parent"].keys()
    assert set(report["parent"].values()) == {2}
