"""The benchmark's workloads, run through the public ``repro`` entry points.

Every workload is a fixed grid of *cells*: one (method, algorithm seed)
run to completion.  Each grid covers the same two recorded algorithm
seeds, the default seed and a held-out one, so every run does the same
work and every cell's output can be checked against
``expected.json``.  The benchmark's ``--seed`` only orders the cells.

A workload function takes the seed order, a scratch directory and a
worker count (``record.py`` records with ``jobs=1``) and returns a
:class:`GridRun`: one :class:`CellOutcome` per cell plus the
time at which each entry-point call started and its first round began
(the set-up a user pays before round 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: The recorded algorithm seeds: the default seed, then the held-out one.
SEEDS: Tuple[int, ...] = (0, 1)

#: The replay tape, recorded once with the native backend for both seeds
#: (re-record with ``python3 perfbench/record.py``).
TAPE = HERE / "tapes" / "boils-multiplier6-k10.json"

#: Evaluation budget per cell, by workload.  Sized so that one repetition
#: of a grid takes 6-12 s on a 2-CPU host: a run then fits two to three
#: repetitions.  ``boils-cold`` at 8 still runs three BO rounds after the
#: five initial samples, one of them a hyperparameter refit.
BUDGETS: Dict[str, int] = {
    "boils-cold": 8,
    "boils-replay": 50,
    "campaign-jobs2": 8,
    "ga-batch-jobs2": 40,
}

#: GA population for the batch workload: small enough that a cell runs
#: several generations, i.e. several pool batches, within its budget.
GA_POPULATION = 10


@dataclass
class CellOutcome:
    """What one cell produced, in the form ``expected.json`` records."""

    seed: int
    method: str
    status: str
    best_sequence: Tuple[str, ...] = ()
    best_improvement: float = 0.0
    num_evaluations: int = 0
    error: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def key(self) -> str:
        return f"{self.method}/s{self.seed}"

    def summary(self) -> Dict[str, object]:
        return {
            "best_sequence": list(self.best_sequence),
            "best_improvement_pct": self.best_improvement,
            "num_evaluations": self.num_evaluations,
        }


@dataclass
class GridRun:
    """One execution of a workload's grid.

    ``calls`` holds ``(start, first_round, end)`` ``perf_counter`` stamps
    per entry-point call; ``cell_spans`` holds ``(first_round, busy_s)``
    per cell as seen from the event stream (empty where none is
    streamed).
    """

    cells: List[CellOutcome]
    calls: List[Tuple[float, Optional[float], float]]
    cell_spans: List[Tuple[float, float]] = field(default_factory=list)


def boils_problem(backend: object = "native") -> "object":
    from repro.api import Problem

    return Problem("multiplier", width=6, sequence_length=10, backend=backend)


def ga_problem() -> "object":
    from repro.api import Problem

    return Problem("adder", width=8, sequence_length=10)


class _EventClock:
    """``on_event`` sink stamping each cell's first round and its end."""

    def __init__(self) -> None:
        self.first_round: Dict[str, float] = {}
        self.busy: Dict[str, float] = {}

    def __call__(self, cell_id: str, event: Dict[str, object]) -> None:
        kind = event["kind"]
        if kind == "round_started" and cell_id not in self.first_round:
            self.first_round[cell_id] = time.perf_counter()
        elif kind in ("budget_exhausted", "early_stopped"):
            self.busy[cell_id] = float(event["elapsed_seconds"])  # type: ignore[arg-type]

    def earliest(self) -> Optional[float]:
        return min(self.first_round.values()) if self.first_round else None

    def spans(self) -> List[Tuple[float, float]]:
        return [(self.first_round[cell], self.busy.get(cell, 0.0))
                for cell in sorted(self.first_round, key=self.first_round.get)]


def _record_outcome(record: "object") -> CellOutcome:
    return CellOutcome(
        seed=int(record.seed),
        method=str(record.method),
        status=str(record.status),
        best_sequence=tuple(record.best_sequence),
        best_improvement=float(record.best_improvement),
        num_evaluations=int(record.num_evaluations),
        error=str(record.metadata.get("error", "")) if record.status != "ok" else "",
        metadata=dict(record.metadata),
    )


def _campaign(
    methods: Sequence[str], seeds: Sequence[int], budget: int,
    scratch: Path, *, backend: object = "native", jobs: int = 1,
    cache: bool = False,
) -> GridRun:
    from repro.api import Campaign, run_campaign

    campaign = Campaign(problems=(boils_problem(backend),), methods=tuple(methods),
                        seeds=tuple(seeds), budget=budget, name="perfbench")
    clock = _EventClock()
    start = time.perf_counter()
    records = run_campaign(
        campaign, store=str(scratch / "store"), jobs=jobs,
        cache_dir=str(scratch / "cache") if cache else None,
        on_event=clock,
    )
    end = time.perf_counter()
    return GridRun(cells=[_record_outcome(record) for record in records],
                   calls=[(start, clock.earliest(), end)],
                   cell_spans=clock.spans())


def boils_cold(seeds: Sequence[int], scratch: Path, jobs: int) -> GridRun:
    """Serial BOiLS cells, native synthesis, store on, no persistent cache."""
    return _campaign(("boils",), seeds, BUDGETS["boils-cold"], scratch,
                     jobs=jobs)


def boils_replay(seeds: Sequence[int], scratch: Path, jobs: int) -> GridRun:
    """The same BOiLS grid answered from the recorded tape: no synthesis."""
    backend = {"backend": "replay", "tape": str(TAPE)}
    return _campaign(("boils",), seeds, BUDGETS["boils-replay"], scratch,
                     backend=backend, jobs=jobs)


def campaign_jobs2(seeds: Sequence[int], scratch: Path, jobs: int) -> GridRun:
    """BOiLS and GA cells on a worker pool, as ``repro run --jobs 2``."""
    return _campaign(("boils", "ga"), seeds, BUDGETS["campaign-jobs2"],
                     scratch, jobs=jobs, cache=True)


class _FirstBatchClock:
    """Stamps the first ``QoREvaluator.evaluate_many`` call, i.e. round 1.

    ``run_problem`` streams no events, so this hook, installed for one
    call, is how the untraced run sees where set-up ends.
    """

    def __init__(self) -> None:
        self.stamp: Optional[float] = None

    def __enter__(self) -> "_FirstBatchClock":
        from repro.qor.evaluator import QoREvaluator

        original = QoREvaluator.evaluate_many
        clock = self

        def evaluate_many(evaluator: "object", sequences: "object") -> "object":
            if clock.stamp is None:
                clock.stamp = time.perf_counter()
            return original(evaluator, sequences)

        self._original = original
        QoREvaluator.evaluate_many = evaluate_many  # type: ignore[method-assign]
        return self

    def __exit__(self, *_exc: object) -> None:
        from repro.qor.evaluator import QoREvaluator

        QoREvaluator.evaluate_many = self._original  # type: ignore[method-assign]


def ga_batch_jobs2(seeds: Sequence[int], scratch: Path, jobs: int) -> GridRun:
    """GA cells through ``run_problem``: its EvaluationEngine and a fresh cache."""
    from repro.api import run_problem
    from repro.baselines.genetic import GAConfig

    cells: List[CellOutcome] = []
    calls: List[Tuple[float, Optional[float], float]] = []
    spans: List[Tuple[float, float]] = []
    for seed in seeds:
        with _FirstBatchClock() as clock:
            start = time.perf_counter()
            try:
                result = run_problem(
                    ga_problem(), "ga", seed=seed, budget=BUDGETS["ga-batch-jobs2"],
                    jobs=jobs, cache_dir=str(scratch / "cache"),
                    config=GAConfig(population_size=GA_POPULATION))
            except Exception as error:  # noqa: BLE001 - counted as a failed cell
                cells.append(CellOutcome(seed=seed, method="ga", status="failed",
                                         error=f"{type(error).__name__}: {error}"))
            else:
                cells.append(CellOutcome(
                    seed=seed, method="ga", status="ok",
                    best_sequence=tuple(result.best_sequence),
                    best_improvement=float(result.best_improvement),
                    num_evaluations=int(result.num_evaluations),
                    metadata=dict(result.metadata)))
            end = time.perf_counter()
        calls.append((start, clock.stamp, end))
        if clock.stamp is not None:
            spans.append((clock.stamp, end - clock.stamp))
    return GridRun(cells=cells, calls=calls, cell_spans=spans)


@dataclass(frozen=True)
class Workload:
    run: Callable[[Sequence[int], Path, int], GridRun]
    jobs: int


WORKLOADS: Dict[str, Workload] = {
    "boils-cold": Workload(boils_cold, jobs=1),
    "boils-replay": Workload(boils_replay, jobs=1),
    "campaign-jobs2": Workload(campaign_jobs2, jobs=2),
    "ga-batch-jobs2": Workload(ga_batch_jobs2, jobs=2),
}


def seed_order(seed: int, rep: int) -> List[int]:
    """The recorded seeds, rotated by the benchmark seed and repetition."""
    shift = (seed + rep) % len(SEEDS)
    return list(SEEDS[shift:] + SEEDS[:shift])
