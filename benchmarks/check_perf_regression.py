"""Perf regression gate: compare BENCH_*.json artifacts to their bars.

Usage (CI runs this after the benchmark suite)::

    python benchmarks/check_perf_regression.py \
        [--artifact benchmarks/artifacts/BENCH_substrate.json] \
        [--baseline benchmarks/baselines/BENCH_substrate_baseline.json] \
        [--campaign-artifact benchmarks/artifacts/BENCH_campaign.json] \
        [--tolerance 0.25]

**Substrate gate.**  The committed baseline stores the
optimised/reference *speedup ratios* of the four hot paths.  Ratios are
what stays comparable across machines: absolute seconds vary with
hardware, but the ratio of two measurements taken back-to-back on the
same interpreter does not.  The gate fails when any path's current
speedup falls more than ``tolerance`` (default 25 %) below its committed
baseline, i.e. when an edit has eaten a quarter of a hot path's win.

**Campaign-pool gate.**  ``BENCH_campaign.json`` records the minimum
wall and CPU seconds of one BOiLS + GA grid run through ``run_campaign``
at ``jobs=1`` and ``jobs=2`` (see ``test_campaign_scaling.py``).  A pool
cannot beat serial on one CPU, so the artifact records
``available_cpus`` and the gate applies only on hosts with at least
two:

* the wall speedup ``jobs1 / jobs2`` must reach
  :data:`CAMPAIGN_WALL_SPEEDUP_FLOOR`;
* the CPU ratio ``jobs2 / jobs1`` must stay under
  :data:`CAMPAIGN_CPU_RATIO_CEILING`: pool start-up, IPC and per-worker
  cold caches may cost some CPU, not a multiple of the serial run.

To refresh the substrate baseline after an intentional change, run the
benchmark and copy the artifact over the baseline file::

    PYTHONPATH=src python -m pytest benchmarks/test_substrate_performance.py -q
    cp benchmarks/artifacts/BENCH_substrate.json \
       benchmarks/baselines/BENCH_substrate_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

DEFAULT_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_substrate.json"
DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "BENCH_substrate_baseline.json"
DEFAULT_CAMPAIGN_ARTIFACT = (
    Path(__file__).parent / "artifacts" / "BENCH_campaign.json")

#: Campaign-pool bars, enforced on hosts with >= 2 CPUs.  Ten runs of
#: test_campaign_scaling.py on a 2-vCPU VM read wall speedups of
#: 1.15-1.56x and CPU ratios of 1.16-1.55 (every run is in CHANGES.md);
#: each bar sits about 10 % outside the worst run.
CAMPAIGN_WALL_SPEEDUP_FLOOR = 1.05
CAMPAIGN_CPU_RATIO_CEILING = 1.7


def check(artifact_path: Path, baseline_path: Path, tolerance: float) -> int:
    artifact = json.loads(artifact_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    failures = []
    for name, base_entry in sorted(baseline.get("paths", {}).items()):
        base_speedup = base_entry.get("speedup")
        if base_speedup is None:
            continue  # informational entries
        current_entry = artifact.get("paths", {}).get(name)
        if current_entry is None:
            failures.append(f"{name}: missing from artifact")
            continue
        current = float(current_entry["speedup"])
        floor = (1.0 - tolerance) * float(base_speedup)
        status = "OK" if current >= floor else "REGRESSED"
        print(f"{name:32s} baseline {base_speedup:6.2f}x  current {current:6.2f}x  "
              f"floor {floor:6.2f}x  {status}")
        if current < floor:
            failures.append(
                f"{name}: speedup {current:.2f}x fell below {floor:.2f}x "
                f"(baseline {base_speedup:.2f}x, tolerance {tolerance:.0%})"
            )

    if failures:
        print("\nPerformance regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nAll hot-path speedups within tolerance.")
    return 0


def check_campaign(artifact_path: Path) -> int:
    if not artifact_path.exists():
        print(f"\n{artifact_path} is missing: run "
              "benchmarks/test_campaign_scaling.py first", file=sys.stderr)
        return 1
    artifact = json.loads(artifact_path.read_text())
    cpus = int(artifact["available_cpus"])
    speedup = float(artifact["wall_speedup"])
    cpu_ratio = float(artifact["cpu_ratio"])
    print(f"\ncampaign pool, jobs=2 vs jobs=1 (measured with {cpus} CPU(s)):")
    for jobs, side in sorted(artifact["jobs"].items()):
        print(f"  jobs={jobs}  wall {side['wall_s']:6.2f} s  "
              f"cpu {side['cpu_s']:6.2f} s")
    if cpus < 2:
        print(f"  wall speedup {speedup:5.2f}x, cpu ratio {cpu_ratio:5.2f} "
              "(bars skipped: single CPU)")
        return 0
    speedup_ok = speedup >= CAMPAIGN_WALL_SPEEDUP_FLOOR
    cpu_ok = cpu_ratio <= CAMPAIGN_CPU_RATIO_CEILING
    print(f"  wall speedup {speedup:5.2f}x  floor "
          f"{CAMPAIGN_WALL_SPEEDUP_FLOOR:.2f}x  "
          f"{'OK' if speedup_ok else 'REGRESSED'}")
    print(f"  cpu ratio    {cpu_ratio:5.2f}   ceiling "
          f"{CAMPAIGN_CPU_RATIO_CEILING:.2f}   "
          f"{'OK' if cpu_ok else 'REGRESSED'}")
    failures: List[str] = []
    if not speedup_ok:
        failures.append(
            f"campaign: jobs=2 wall speedup {speedup:.2f}x is below "
            f"{CAMPAIGN_WALL_SPEEDUP_FLOOR:.2f}x on a {cpus}-CPU host")
    if not cpu_ok:
        failures.append(
            f"campaign: jobs=2 uses {cpu_ratio:.2f}x the CPU of jobs=1 "
            f"(> {CAMPAIGN_CPU_RATIO_CEILING:.2f}x) on a {cpus}-CPU host")
    if failures:
        print("\nCampaign-pool regression detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("Campaign-pool scaling within its bars.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", type=Path, default=DEFAULT_ARTIFACT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--campaign-artifact", type=Path,
                        default=DEFAULT_CAMPAIGN_ARTIFACT)
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args()
    status = check(args.artifact, args.baseline, args.tolerance)
    return check_campaign(args.campaign_artifact) or status


if __name__ == "__main__":
    sys.exit(main())
