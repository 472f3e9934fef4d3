"""The ask/tell contract shared by every sequence optimiser in the repo.

BOiLS, SBO and all the baselines (random search, greedy, GA, RL) are thin
implementations of one first-class protocol:

* :meth:`SequenceOptimiser.suggest` — *ask*: propose up to ``n``
  integer-encoded candidate sequences;
* :meth:`SequenceOptimiser.observe` — *tell*: absorb the scored records
  for a previously suggested batch.

The budget loop itself lives in exactly one place, the generic
:func:`drive` driver: it asks, scores every batch in-process through
:meth:`QoREvaluator.evaluate_many`, tells, and repeats until the
evaluation budget is exhausted, the optimiser has nothing left to
propose, a ``stop_when`` predicate ends the run early or a wall-clock
budget expires.

:meth:`SequenceOptimiser.optimise` is a convenience wrapper over
:func:`drive`: it calls the :meth:`SequenceOptimiser.prepare` hook,
drives the loop, and packages the evaluator history plus the optimiser's
:meth:`SequenceOptimiser.run_metadata` extras into an
:class:`OptimisationResult`.  Individual optimisers no longer own bespoke
budget loops.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bo.space import SequenceSpace
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation


@dataclass
class OptimisationResult:
    """Outcome of one optimisation run on one circuit.

    Attributes
    ----------
    best_sequence:
        Best sequence found, as operation names.
    best_qor:
        Its QoR value (lower is better, Equation 1).
    best_improvement:
        Relative improvement over ``resyn2`` in percent — the number
        reported in the paper's Figure 3 table.
    best_area, best_delay:
        LUT count and LUT levels of the best sequence's mapping.
    num_evaluations:
        Distinct black-box evaluations consumed.
    history:
        Per-evaluation QoR improvement values, in evaluation order.
    best_trajectory:
        Best-so-far improvement after each evaluation (convergence curves).
    evaluated_points:
        ``(area, delay)`` pairs of every evaluated sequence (Pareto plots).
    metadata:
        Free-form extras recorded by individual optimisers.
    """

    method: str
    circuit: str
    seed: int
    best_sequence: Tuple[str, ...]
    best_qor: float
    best_improvement: float
    best_area: int
    best_delay: int
    num_evaluations: int
    history: List[float] = field(default_factory=list)
    best_trajectory: List[float] = field(default_factory=list)
    evaluated_points: List[Tuple[int, int]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class DriveProgress:
    """Snapshot handed to :func:`drive`'s ``stop_when`` after each round.

    Attributes
    ----------
    round_index:
        1-based ask/tell round just completed.
    num_evaluations:
        Budget consumed so far (the evaluator's distinct-evaluation count).
    budget:
        Total evaluation budget of the run.
    elapsed_seconds:
        Wall-clock time since :func:`drive` started.
    best:
        Best evaluation seen so far (never ``None`` after a round that
        scored at least one sequence).
    """

    round_index: int
    num_evaluations: int
    budget: int
    elapsed_seconds: float
    best: Optional[SequenceEvaluation]


#: Early-stop predicate; return ``True`` to end the run after this round.
StopCondition = Callable[[DriveProgress], bool]


# ----------------------------------------------------------------------
# Round-granular event stream
# ----------------------------------------------------------------------
def _best_summary(best: Optional[SequenceEvaluation]) -> Optional[Dict[str, object]]:
    if best is None:
        return None
    return {
        "qor": best.qor,
        "qor_improvement": best.qor_improvement,
        "area": best.area,
        "delay": best.delay,
    }


@dataclass(frozen=True)
class RunEvent:
    """Base of the typed event stream emitted by :func:`drive`.

    Every event carries the position of the run when it fired:
    ``round_index`` (1-based; for terminal events, the last completed
    round), the budget consumed so far, the total budget and the
    wall-clock seconds since the run (or its first segment, for resumed
    runs) started.  :meth:`to_dict` renders a compact JSON-serialisable
    summary suitable for streaming over a process pipe — deliberately
    *without* the per-round evaluation records, which stay local to the
    producing process (the store writes them to the trajectory JSONL).
    """

    kind: ClassVar[str] = "event"

    round_index: int
    num_evaluations: int
    budget: int
    elapsed_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "round_index": self.round_index,
            "num_evaluations": self.num_evaluations,
            "budget": self.budget,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass(frozen=True)
class RoundStarted(RunEvent):
    """A round is in flight: a non-empty batch is about to be scored.

    Emitted after ``suggest`` proposed at least one candidate and before
    the (dominant-cost) black-box evaluation, so every ``RoundStarted``
    is matched by a ``RoundCompleted`` — an empty ``suggest`` goes
    straight to the terminal :class:`EarlyStopped` with no phantom
    round in the stream.
    """

    kind: ClassVar[str] = "round_started"


@dataclass(frozen=True)
class RoundCompleted(RunEvent):
    """A round finished (``observe`` done); the per-round checkpoint hook.

    ``records`` holds the *fresh* evaluations of the round, in recording
    order (memo re-visits are free and do not appear); ``best`` the
    incumbent after the round.  When this event fires the optimiser is at
    a consistent round boundary, so :meth:`SequenceOptimiser.state_dict`
    taken inside a ``RoundCompleted`` handler is a valid checkpoint.
    """

    kind: ClassVar[str] = "round_completed"

    best: Optional[SequenceEvaluation] = None
    records: Tuple[SequenceEvaluation, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        payload = super().to_dict()
        payload["best"] = _best_summary(self.best)
        payload["num_round_evaluations"] = len(self.records)
        return payload


@dataclass(frozen=True)
class IncumbentImproved(RunEvent):
    """The round just completed produced a new best evaluation."""

    kind: ClassVar[str] = "incumbent_improved"

    best: Optional[SequenceEvaluation] = None

    def to_dict(self) -> Dict[str, object]:
        payload = super().to_dict()
        payload["best"] = _best_summary(self.best)
        return payload


@dataclass(frozen=True)
class BudgetExhausted(RunEvent):
    """Terminal event: the evaluation budget has been fully consumed."""

    kind: ClassVar[str] = "budget_exhausted"


@dataclass(frozen=True)
class EarlyStopped(RunEvent):
    """Terminal event: the run ended before the budget was consumed.

    ``reason`` is one of ``"optimiser_exhausted"`` (empty ``suggest`` —
    the search space or construction ran out), ``"stop_condition"`` (the
    ``stop_when`` predicate fired) or ``"wall_clock"`` (``max_seconds``
    elapsed).
    """

    kind: ClassVar[str] = "early_stopped"

    reason: str = "stop_condition"

    def to_dict(self) -> Dict[str, object]:
        payload = super().to_dict()
        payload["reason"] = self.reason
        return payload


#: Event-stream callback; receives every :class:`RunEvent` of a run.
EventCallback = Callable[[RunEvent], None]


def _wall_clock() -> float:
    """The single wall-clock source for :func:`drive`.

    Feeds only ``elapsed_seconds`` event timestamps and the
    ``max_seconds`` budget check — never proposals, records or
    checkpoints, so results stay bit-identical across machines.
    """
    # repro: lint-ok[RPL002] event timestamps and the max_seconds budget; no path into results
    return time.monotonic()


def drive(
    optimiser: "SequenceOptimiser",
    evaluator: QoREvaluator,
    budget: int,
    *,
    stop_when: Optional[StopCondition] = None,
    max_seconds: Optional[float] = None,
    on_event: Optional[EventCallback] = None,
    start_round: int = 0,
    start_elapsed: float = 0.0,
) -> int:
    """Run one optimiser's ask/tell loop for ``budget`` evaluations.

    The single generic budget loop behind every optimiser in the repo:

    1. *ask* — ``optimiser.suggest(remaining_budget)``;
    2. *score* — the batch goes through
       :meth:`QoREvaluator.evaluate_many`, with ``-1`` padding
       sentinels stripped;
    3. *tell* — ``optimiser.observe(rows, records)``;
    4. repeat while budget remains, stopping early when the optimiser
       proposes nothing (search space or construction exhausted), the
       ``stop_when`` predicate fires, or ``max_seconds`` of wall-clock
       time have elapsed.

    Memoised re-visits are free (they do not consume budget), exactly as
    in the historical per-optimiser loops.  Returns the total round
    count (``start_round`` plus the rounds executed by this call).

    ``on_event`` receives the typed round-granular stream: a
    :class:`RoundStarted` before each round, :class:`IncumbentImproved`
    and :class:`RoundCompleted` after ``observe``, and exactly one
    terminal :class:`BudgetExhausted` or :class:`EarlyStopped`.  Events
    observe; they cannot alter proposals or records — but an ``on_event``
    handler is the supported place to persist per-round trajectory lines
    and :meth:`SequenceOptimiser.state_dict` checkpoints, since every
    :class:`RoundCompleted` is a consistent round boundary.

    ``start_round``/``start_elapsed`` continue a checkpointed run: round
    indices and the wall clock (hence ``max_seconds``) resume where the
    interrupted segment left off, and the budget check runs against the
    restored evaluator's counters before any new round starts.

    Neither ``on_event`` nor ``stop_when`` can alter proposals or
    records.  A ``stop_when``/``max_seconds`` stop is checked *after*
    observe, so the optimiser state stays consistent with the evaluator
    history.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    start = _wall_clock() - start_elapsed
    rounds = int(start_round)

    def _emit(event: RunEvent) -> None:
        if on_event is not None:
            on_event(event)

    stop_reason: Optional[str] = None
    observing = stop_when is not None or on_event is not None
    if rounds > 0 and (stop_when is not None or max_seconds is not None):
        # Resumed run: re-apply the stop conditions to the restored
        # state before executing anything.  The interrupted segment
        # checks them *after* each observe, so a checkpoint taken at the
        # very round where a stop fired must not buy the resumed run an
        # extra round.
        progress = DriveProgress(
            round_index=rounds,
            num_evaluations=evaluator.num_evaluations,
            budget=budget,
            elapsed_seconds=_wall_clock() - start,
            best=evaluator.best_so_far(),
        )
        if stop_when is not None and stop_when(progress):
            stop_reason = "stop_condition"
        elif max_seconds is not None and _wall_clock() - start >= max_seconds:
            stop_reason = "wall_clock"
    while stop_reason is None and evaluator.num_evaluations < budget:
        history_mark = len(evaluator.history)
        best_before = evaluator.best_so_far() if observing else None
        rows = np.asarray(optimiser.suggest(budget - evaluator.num_evaluations))
        if rows.size == 0:
            stop_reason = "optimiser_exhausted"
            break
        _emit(RoundStarted(
            round_index=rounds + 1,
            num_evaluations=evaluator.num_evaluations,
            budget=budget,
            elapsed_seconds=_wall_clock() - start,
        ))
        rows = np.atleast_2d(rows.astype(int))
        records = optimiser._evaluate_batch(evaluator, rows)
        optimiser.observe(rows, records)
        rounds += 1
        if observing:
            best = evaluator.best_so_far()
            elapsed = _wall_clock() - start
            if best is not None and (best_before is None
                                     or best.qor < best_before.qor):
                _emit(IncumbentImproved(
                    round_index=rounds,
                    num_evaluations=evaluator.num_evaluations,
                    budget=budget,
                    elapsed_seconds=elapsed,
                    best=best,
                ))
            _emit(RoundCompleted(
                round_index=rounds,
                num_evaluations=evaluator.num_evaluations,
                budget=budget,
                elapsed_seconds=elapsed,
                best=best,
                records=tuple(evaluator.history[history_mark:]),
            ))
            progress = DriveProgress(
                round_index=rounds,
                num_evaluations=evaluator.num_evaluations,
                budget=budget,
                elapsed_seconds=elapsed,
                best=best,
            )
            if stop_when is not None and stop_when(progress):
                stop_reason = "stop_condition"
                break
        if max_seconds is not None and _wall_clock() - start >= max_seconds:
            stop_reason = "wall_clock"
            break
    terminal_kwargs = dict(
        round_index=rounds,
        num_evaluations=evaluator.num_evaluations,
        budget=budget,
        elapsed_seconds=_wall_clock() - start,
    )
    if stop_reason is None:
        _emit(BudgetExhausted(**terminal_kwargs))
    else:
        _emit(EarlyStopped(reason=stop_reason, **terminal_kwargs))
    return rounds


class SequenceOptimiser(ABC):
    """Base class: one optimiser instance encapsulates its own settings.

    Subclasses implement the ask/tell pair (:meth:`suggest` /
    :meth:`observe`) plus the optional :meth:`prepare` and
    :meth:`run_metadata` hooks; the budget loop is the shared
    :func:`drive` driver and :meth:`optimise` is a thin wrapper over it.
    """

    #: Human-readable method name used in result tables.
    name: str = "optimiser"

    def __init__(self, space: Optional[SequenceSpace] = None, seed: int = 0) -> None:
        self.space = space if space is not None else SequenceSpace()
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Run lifecycle hooks
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        """Reset per-run state before :func:`drive` starts (optional hook)."""

    def run_metadata(self) -> Dict[str, object]:
        """Optimiser-specific extras recorded on the run's result.

        Called once, after the drive loop finishes; whatever it returns is
        merged into :attr:`OptimisationResult.metadata` (and therefore
        into persisted :class:`repro.api.RunRecord`s).
        """
        return {}

    def optimise(
        self,
        evaluator: QoREvaluator,
        budget: int,
        *,
        stop_when: Optional[StopCondition] = None,
        max_seconds: Optional[float] = None,
        on_event: Optional[EventCallback] = None,
    ) -> OptimisationResult:
        """Run the optimiser for ``budget`` black-box evaluations.

        Equivalent to :meth:`prepare` + :func:`drive` +
        :meth:`_build_result`; the keyword arguments are forwarded to the
        driver.
        """
        self.prepare(evaluator, budget)
        drive(self, evaluator, budget, stop_when=stop_when,
              max_seconds=max_seconds, on_event=on_event)
        return self._build_result(evaluator, evaluator.aig.name,
                                  metadata=self.run_metadata())

    # ------------------------------------------------------------------
    # Checkpoint / restore contract
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serialisable snapshot of per-run state at a round boundary.

        Captures the optimiser's RNG state plus whatever per-method state
        the :meth:`_state_dict` hook reports (GP observations and
        hyperparameters, GA population, trust region, RL network and
        optimiser moments, …).  Taken inside a :class:`RoundCompleted`
        handler — i.e. after ``observe``, before the next ``suggest`` —
        the snapshot is a complete checkpoint: restoring it (together
        with the evaluator's history) and continuing :func:`drive`
        reproduces the uninterrupted run bit-for-bit.

        The payload is built from plain ints, floats, strings, lists and
        dicts only, so ``json.dumps`` round-trips it exactly (Python
        floats serialise via shortest-repr, which is bit-exact).
        """
        return {"rng": self.rng.bit_generator.state,
                "state": self._state_dict()}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot onto a prepared optimiser.

        Call :meth:`prepare` first (it builds the per-run scaffolding —
        e.g. the RL environment — that the snapshot then overwrites),
        then this method, then continue with :func:`drive` using the
        checkpoint's ``start_round``.
        """
        self.rng.bit_generator.state = state["rng"]
        self._load_state_dict(dict(state["state"]))  # type: ignore[arg-type]

    def _state_dict(self) -> Dict[str, object]:
        """Per-method state snapshot (see :meth:`state_dict`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the checkpoint "
            "protocol (_state_dict/_load_state_dict)")

    def _load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`_state_dict` snapshot (see :meth:`load_state_dict`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the checkpoint "
            "protocol (_state_dict/_load_state_dict)")

    @property
    def supports_checkpoint(self) -> bool:
        """Whether this optimiser implements the checkpoint protocol."""
        return type(self)._state_dict is not SequenceOptimiser._state_dict

    # ------------------------------------------------------------------
    # Ask/tell protocol
    # ------------------------------------------------------------------
    @abstractmethod
    def suggest(self, n: int = 1) -> np.ndarray:
        """Propose up to ``n`` integer-encoded sequences to evaluate next.

        Returns an ``(m, K)`` array with ``m <= n`` (an optimiser may
        propose fewer than asked — e.g. a sequential BO round yields one
        candidate); an empty array ends the run as
        ``"optimiser_exhausted"``.  Rows proposing sequences shorter than
        ``K`` (greedy prefixes) are right-padded with ``-1`` sentinels;
        drivers must strip those before evaluation, which
        :meth:`_evaluate_batch` does.  This is the *ask* half of the one
        optimiser interface: a subclass without it cannot be
        instantiated.
        """

    @abstractmethod
    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Feed scored records for previously suggested rows back in.

        ``rows`` and ``records`` are positional pairs, in the order
        returned by :meth:`suggest`.
        """

    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, evaluator: QoREvaluator, rows: np.ndarray
    ) -> List[SequenceEvaluation]:
        """Evaluate a batch of integer-encoded sequences positionally.

        Goes through :meth:`QoREvaluator.evaluate_many`.  ``-1`` padding
        sentinels (variable-length proposals, see :meth:`suggest`) are
        stripped before conversion.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=int))
        if rows.size == 0:
            return []
        return evaluator.evaluate_many(
            [self.space.to_names([op for op in row if op >= 0]) for row in rows]
        )

    def _build_result(
        self,
        evaluator: QoREvaluator,
        circuit_name: str,
        metadata: Optional[Dict[str, object]] = None,
    ) -> OptimisationResult:
        """Package the evaluator's history into an :class:`OptimisationResult`.

        ``metadata`` (usually :meth:`run_metadata`) is attached to the
        result so optimiser-specific extras — trust-region restarts, GA
        generations, episode returns — survive into persisted records.
        """
        best = evaluator.best_so_far()
        if best is None:
            raise RuntimeError("optimiser finished without evaluating any sequence")
        history = [record.qor_improvement for record in evaluator.history]
        points = [(record.area, record.delay) for record in evaluator.history]
        return OptimisationResult(
            method=self.name,
            circuit=circuit_name,
            seed=self.seed,
            best_sequence=best.sequence,
            best_qor=best.qor,
            best_improvement=best.qor_improvement,
            best_area=best.area,
            best_delay=best.delay,
            num_evaluations=evaluator.num_evaluations,
            history=history,
            best_trajectory=evaluator.best_trajectory(),
            evaluated_points=points,
            metadata=dict(metadata or {}),
        )
