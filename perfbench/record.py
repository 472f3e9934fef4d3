"""Re-record the benchmark's replay tape and expected results.

Run from the repository root::

    python3 perfbench/record.py

It (1) records ``tapes/boils-multiplier6-k10.json`` by running the
``boils-replay`` grid once with the replay backend in ``record`` mode
(every measurement comes from the native backend), then (2) runs every
workload's grid serially (``jobs=1``) and writes each cell's best
sequence, best improvement and evaluation count to ``expected.json``.
The ``jobs=2`` workloads are checked against these serial results: the
engine guarantees that ``jobs`` never changes a result.

Re-record only when a change to the program is meant to change results.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record_tape(scratch: Path) -> None:
    from repro.api import Campaign, run_campaign

    if workloads.TAPE.exists():
        workloads.TAPE.unlink()
    backend = {"backend": "replay", "tape": str(workloads.TAPE), "mode": "record"}
    campaign = Campaign(problems=(workloads.boils_problem(backend),),
                        methods=("boils",), seeds=workloads.SEEDS,
                        budget=workloads.BUDGETS["boils-replay"], name="record")
    records = run_campaign(campaign, store=str(scratch / "record"), jobs=1)
    failed = [record.cell_id for record in records if not record.ok]
    if failed:
        raise SystemExit(f"tape recording failed for cells {failed}")


def main() -> int:
    base = HERE / ".scratch"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=base))
    try:
        record_tape(scratch)
        expected = {}
        for name, workload in workloads.WORKLOADS.items():
            run_dir = scratch / name
            run_dir.mkdir()
            grid = workload.run(list(workloads.SEEDS), run_dir, 1)
            bad = [cell.key() for cell in grid.cells if cell.status != "ok"]
            if bad:
                raise SystemExit(f"{name}: cells {bad} did not finish ok")
            expected[name] = {cell.key(): cell.summary() for cell in grid.cells}
            print(name, json.dumps(expected[name]), flush=True)
        (HERE / "expected.json").write_text(
            json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if base.exists() and not any(base.iterdir()):
            base.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
