"""The QoR black box that all optimisers query.

By default implements Equation (1) of the paper:

    QoR_C(seq) = Area_C(seq) / Area_C(ref) + Delay_C(seq) / Delay_C(ref)

where Area is the LUT count and Delay the LUT level count after K-LUT
mapping, and the reference is the ``resyn2`` flow.  The figure of merit
is pluggable: pass any :class:`repro.qor.objectives.Objective` (or its
spec — ``"area"``, ``"delay"``, ``{"objective": "weighted", ...}``) as
``objective=`` and every QoR value, improvement percentage and optimiser
decision follows it instead.  Raw ``(area, delay)`` measurements are
objective-independent, and both cache layers key on them — so switching
objectives never invalidates cached synthesis work.

Evaluation-count semantics
--------------------------
The paper counts *distinct tested sequences* as the sample-complexity
unit, so the evaluator distinguishes two cache layers with different
accounting rules:

* **In-memory memoisation** (``cache=True``, per evaluator instance /
  per run): re-visiting an already-tested sequence is *free* — a memo
  hit neither increments :attr:`num_evaluations` nor appends a duplicate
  :attr:`history` row.  Several optimisers (GA with elitism, trust
  region restarts, greedy) re-visit sequences, and those revisits must
  not consume budget.
* **Persistent on-disk cache** (``persistent_cache=...``, shared across
  processes and across runs): a persistent hit skips the expensive
  synthesis + mapping *computation* but still counts as a black-box
  evaluation for the current run (it increments :attr:`num_evaluations`
  and is appended to :attr:`history`), because the sequence is being
  tested for the first time *in this run*.  :attr:`num_computed` and
  :attr:`num_persistent_hits` expose the split, so a warm cache shows up
  as ``num_computed == 0`` on a repeated run.

Batches of sequences are scored through
:meth:`QoREvaluator.evaluate_many`, in-process and recorded in
submission order, exactly like the equivalent sequence of
:meth:`QoREvaluator.evaluate` calls.  Parallelism lives one level up, in
the campaign driver, which runs whole cells in worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.aig.graph import AIG
from repro.mapping.lut_mapper import LutMapper, MappingResult
from repro.qor.backends.base import (
    SynthesisBackend,
    aig_fingerprint,
    resolve_backend,
)
from repro.qor.objectives import Objective, canonical_spec_string, resolve_objective
from repro.synth.flows import RESYN2_SEQUENCE
from repro.synth.operations import sequence_to_names


@dataclass(frozen=True)
class QoRResult:
    """Area/delay/QoR of one mapped network."""

    area: int
    delay: int
    qor: float


@dataclass(frozen=True)
class SequenceEvaluation:
    """Full record of one black-box evaluation."""

    sequence: Tuple[str, ...]
    area: int
    delay: int
    qor: float
    qor_improvement: float
    """Relative improvement over the reference flow, in percent
    (``(QoR(ref_as_seq) - QoR(seq)) / QoR(ref_as_seq) * 100``); matches the
    numbers reported in the paper's Figure 3 table."""


class QoREvaluator:
    """Black-box QoR evaluator for a fixed circuit.

    Parameters
    ----------
    aig:
        The initial (unoptimised) circuit.
    lut_size:
        LUT input count used for mapping (the paper uses ``if -K 6``).
    reference_sequence:
        The reference flow defining the QoR denominators; defaults to
        ``resyn2`` as in the paper.
    cache:
        Whether to memoise evaluations by sequence (per-run memoisation;
        memo hits do not count towards :attr:`num_evaluations`).
    persistent_cache:
        Optional on-disk QoR cache shared across runs and processes
        (:class:`repro.engine.cache.PersistentQoRCache` or any object
        with the same ``get``/``put`` interface).  Persistent hits skip
        the computation but still count as evaluations — see the module
        docstring for the full semantics.
    cache_key:
        Key identifying this circuit + LUT size in the persistent cache;
        derived automatically from the AIG structure when omitted.  The
        key deliberately excludes the objective: cached ``(area, delay)``
        pairs are objective-independent.
    objective:
        Figure of merit mapping raw ``(area, delay)`` measurements to the
        scalar the optimisers minimise — an
        :class:`repro.qor.objectives.Objective` or its spec.  Defaults to
        the paper's Equation 1.
    backend:
        The synthesis substrate measuring ``sequence -> (area, delay)``
        — a :class:`repro.qor.backends.SynthesisBackend` or its spec
        (``"native"``, ``"abc"``, ``{"backend": "replay", "tape": ...}``).
        Defaults to the native python substrate, bit-identical to the
        pre-backend evaluator.  Non-native backends get their own
        persistent-cache namespace (see :attr:`cache_key`).
    """

    def __init__(
        self,
        aig: AIG,
        lut_size: int = 6,
        reference_sequence: Optional[Sequence[str]] = None,
        cache: bool = True,
        persistent_cache: Optional[object] = None,
        cache_key: Optional[str] = None,
        objective: Optional[object] = None,
        backend: Optional[object] = None,
    ) -> None:
        self.aig = aig
        self.lut_size = lut_size
        self.objective: Objective = resolve_objective(objective)
        self.backend: SynthesisBackend = resolve_backend(backend)
        self.mapper = LutMapper(lut_size=lut_size)
        self.reference_sequence = tuple(
            reference_sequence if reference_sequence is not None else RESYN2_SEQUENCE
        )
        self._cache_enabled = cache
        self._cache: Dict[Tuple[str, ...], SequenceEvaluation] = {}
        self._persistent = persistent_cache
        self._cache_key = cache_key
        self._compute_guard: Optional[object] = None
        self._num_evaluations = 0
        self._num_computed = 0
        self._num_persistent_hits = 0
        # Deferred persistent writes (see defer_persistent_writes()):
        # buffered (sequence, area, delay) rows flushed in one put_many.
        self._defer_persistent = False
        self._pending_writes: List[Tuple[Tuple[str, ...], int, int]] = []
        self._pending_index: Dict[Tuple[str, ...], Tuple[int, int]] = {}
        self.history: List[SequenceEvaluation] = []

        # Reference area/delay (denominators of Equation 1).
        reference_area, reference_delay = self.backend.measure(
            aig, self.reference_sequence, lut_size)
        self.reference_area = max(1, int(reference_area))
        self.reference_delay = max(1, int(reference_delay))
        # QoR of the reference itself (2.0 by construction for Equation 1);
        # the paper's "% improvement over resyn2" is measured against it.
        self.reference_qor = self.objective.reference_value()

        # Mapping of the unoptimised circuit, for Pareto plots ("init").
        initial_area, initial_delay = self.backend.measure(aig, (), lut_size)
        self.initial_result = QoRResult(
            area=int(initial_area),
            delay=int(initial_delay),
            qor=self._qor_value(int(initial_area), int(initial_delay)),
        )

    # ------------------------------------------------------------------
    @property
    def num_evaluations(self) -> int:
        """Distinct black-box evaluations performed in this run.

        This is the paper's sample-complexity unit: in-memory memo hits
        do not count, persistent-cache hits do (see module docstring).
        """
        return self._num_evaluations

    @property
    def num_computed(self) -> int:
        """Evaluations in this run that required actual synthesis+mapping."""
        return self._num_computed

    @property
    def num_persistent_hits(self) -> int:
        """Evaluations in this run served from the persistent cache."""
        return self._num_persistent_hits

    @property
    def cache_key(self) -> str:
        """Persistent-cache key for this circuit + LUT size (+ backend).

        Objective-independent on purpose: the cache stores raw
        ``(area, delay)`` pairs, so runs under different objectives share
        every cached synthesis + mapping computation.  It is *not*
        backend-independent: different substrates can measure different
        pairs for the same sequence, so every non-native backend appends
        its :attr:`~repro.qor.backends.SynthesisBackend.cache_namespace`
        tag.  The native namespace is the historical unsuffixed key, so
        existing caches stay valid.
        """
        if self._cache_key is None:
            self._cache_key = f"{aig_fingerprint(self.aig)}:lut{self.lut_size}"
        namespace = self.backend.cache_namespace
        if namespace:
            return f"{self._cache_key}:{namespace}"
        return self._cache_key

    @property
    def objective_spec(self) -> str:
        """Canonical string spec of this evaluator's objective."""
        return canonical_spec_string(self.objective)

    @property
    def backend_spec(self) -> str:
        """Canonical string spec of this evaluator's synthesis backend."""
        return self.backend.backend_spec

    # ------------------------------------------------------------------
    # Deferred persistent writes
    # ------------------------------------------------------------------
    def defer_persistent_writes(self, defer: bool = True) -> None:
        """Buffer persistent-cache writes instead of committing per entry.

        With deferral on, fresh computations are collected in memory and
        written in a single :meth:`PersistentQoRCache.put_many`
        transaction by :meth:`flush_persistent_writes`.  The grid runner
        uses this to commit once per cell rather than once per
        evaluation, which removes SQLite writer contention at high
        ``--jobs``.  Turning deferral off flushes any buffered rows.

        With no persistent cache attached this is a no-op: buffering
        rows that could never be committed would make
        :meth:`flush_persistent_writes` report silently-dropped rows as
        written.
        """
        if self._defer_persistent and not defer:
            self.flush_persistent_writes()
        self._defer_persistent = bool(defer) and self._persistent is not None

    def flush_persistent_writes(self) -> int:
        """Commit buffered rows in one transaction; returns the row count.

        The count is the number of rows actually handed to the
        persistent cache: with no cache attached nothing was (or could
        have been) buffered, and the return value is 0.
        """
        if self._persistent is None:
            # Defensive: deferral is refused without a cache, so the
            # buffer is empty — but never report unwritten rows.
            self._pending_writes = []
            self._pending_index = {}
            return 0
        count = len(self._pending_writes)
        if count:
            self._persistent.put_many(self.cache_key, self._pending_writes)
        self._pending_writes = []
        self._pending_index = {}
        return count

    @property
    def num_pending_persistent_writes(self) -> int:
        return len(self._pending_writes)

    # ------------------------------------------------------------------
    # Core computation (pure, no recording)
    # ------------------------------------------------------------------
    def _qor_value(self, area: int, delay: int) -> float:
        """The configured objective over reference-normalised area/delay."""
        return self.objective.value(area, delay,
                                    self.reference_area, self.reference_delay)

    def _qor(self, mapping: MappingResult) -> float:
        return self._qor_value(mapping.area, mapping.delay)

    def _make_record(self, names: Tuple[str, ...], area: int, delay: int) -> SequenceEvaluation:
        qor = self._qor_value(area, delay)
        improvement = (self.reference_qor - qor) / self.reference_qor * 100.0
        return SequenceEvaluation(
            sequence=names, area=area, delay=delay, qor=qor,
            qor_improvement=improvement,
        )

    def set_compute_guard(self, guard: Optional[object] = None) -> None:
        """Install a wrapper around every fresh computation.

        ``guard(names, thunk)`` is called instead of the raw synthesis
        whenever :meth:`compute` runs; the fault-tolerance layer uses it
        to enforce per-evaluation deadlines and to inject scheduled
        faults (see :mod:`repro.engine.faults`).  ``None`` removes it.
        """
        self._compute_guard = guard

    def _compute_raw(self, names: Tuple[str, ...]) -> SequenceEvaluation:
        area, delay = self.backend.measure(self.aig, names, self.lut_size)
        return self._make_record(names, int(area), int(delay))

    def compute(self, sequence: Sequence[Union[str, int]]) -> SequenceEvaluation:
        """Synthesise + map a sequence and return its record.

        Pure function of the sequence: does **not** touch the caches,
        the history or the evaluation counters.
        """
        names = tuple(sequence_to_names(sequence))
        if self._compute_guard is not None:
            return self._compute_guard(names, lambda: self._compute_raw(names))  # type: ignore[operator]
        return self._compute_raw(names)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _persistent_lookup(self, names: Tuple[str, ...]) -> Optional[SequenceEvaluation]:
        if self._persistent is None:
            return None
        pending = self._pending_index.get(names)
        if pending is not None:
            # Computed earlier in this run but not yet committed; serve it
            # as a persistent hit so accounting matches the eager path.
            return self._make_record(names, pending[0], pending[1])
        hit = self._persistent.get(self.cache_key, names)
        if hit is None:
            return None
        area, delay = hit
        return self._make_record(names, int(area), int(delay))

    def _record(
        self,
        names: Tuple[str, ...],
        record: SequenceEvaluation,
        from_persistent: bool,
    ) -> None:
        """Count one evaluation and store it in both cache layers."""
        self._num_evaluations += 1
        if from_persistent:
            self._num_persistent_hits += 1
        else:
            self._num_computed += 1
        self.history.append(record)
        if self._cache_enabled:
            self._cache[names] = record
        if self._persistent is not None and not from_persistent:
            if self._defer_persistent:
                self._pending_writes.append((names, record.area, record.delay))
                self._pending_index[names] = (record.area, record.delay)
            else:
                self._persistent.put(self.cache_key, names, record.area, record.delay)

    # ------------------------------------------------------------------
    # Public evaluation API
    # ------------------------------------------------------------------
    def evaluate(self, sequence: Sequence[Union[str, int]]) -> SequenceEvaluation:
        """Evaluate a synthesis sequence; returns the full QoR record.

        Memo hits return the cached record without counting; persistent
        hits and fresh computations count (module docstring has the full
        accounting rules).
        """
        names = tuple(sequence_to_names(sequence))
        if self._cache_enabled and names in self._cache:
            return self._cache[names]
        record = self._persistent_lookup(names)
        from_persistent = record is not None
        if record is None:
            record = self.compute(names)
        self._record(names, record, from_persistent)
        return record

    def evaluate_many(
        self, sequences: Sequence[Sequence[Union[str, int]]]
    ) -> List[SequenceEvaluation]:
        """Evaluate a batch of sequences.

        Results are returned positionally and recorded (counters, history,
        caches) in submission order, so a batched run is indistinguishable
        from the equivalent sequence of :meth:`evaluate` calls.  The
        persistent cache is consulted for the whole batch before any
        uncached sequence is computed.
        """
        names_list = [tuple(sequence_to_names(seq)) for seq in sequences]
        results: List[Optional[SequenceEvaluation]] = [None] * len(names_list)
        # plan: (position, names, source) for every occurrence that needs
        # recording; "alias" marks an in-batch duplicate of an earlier
        # occurrence (memo semantics: returned but not re-recorded).
        plan: List[Tuple[int, Tuple[str, ...], str]] = []
        scheduled: Dict[Tuple[str, ...], int] = {}
        persistent_records: Dict[Tuple[str, ...], SequenceEvaluation] = {}
        for position, names in enumerate(names_list):
            if self._cache_enabled:
                if names in self._cache:
                    results[position] = self._cache[names]
                    continue
                if names in scheduled:
                    plan.append((position, names, "alias"))
                    continue
                scheduled[names] = position
            hit = self._persistent_lookup(names)
            if hit is not None:
                persistent_records[names] = hit
                plan.append((position, names, "persistent"))
            else:
                plan.append((position, names, "compute"))

        computed_iter = iter([self.compute(names) for _, names, source in plan
                              if source == "compute"])
        resolved: Dict[Tuple[str, ...], SequenceEvaluation] = {}
        for position, names, source in plan:
            if source == "alias":
                results[position] = resolved[names]
                continue
            if source == "persistent":
                record = persistent_records[names]
            else:
                record = next(computed_iter)
            self._record(names, record, from_persistent=(source == "persistent"))
            resolved[names] = record
            results[position] = record
        return results  # type: ignore[return-value]

    def qor(self, sequence: Sequence[Union[str, int]]) -> float:
        """QoR value of a sequence (the quantity BOiLS minimises)."""
        return self.evaluate(sequence).qor

    def negative_qor(self, sequence: Sequence[Union[str, int]]) -> float:
        """``-QoR`` — the quantity the GP surrogate models (maximisation)."""
        return -self.evaluate(sequence).qor

    def improvement(self, sequence: Sequence[Union[str, int]]) -> float:
        """Relative QoR improvement over the reference flow, in percent."""
        return self.evaluate(sequence).qor_improvement

    # ------------------------------------------------------------------
    def best_so_far(self) -> Optional[SequenceEvaluation]:
        """Best (lowest-QoR) evaluation seen so far, if any."""
        if not self.history:
            return None
        return min(self.history, key=lambda record: record.qor)

    def best_trajectory(self) -> List[float]:
        """Best-so-far QoR improvement after each evaluation (for curves)."""
        best = float("-inf")
        trajectory = []
        for record in self.history:
            best = max(best, record.qor_improvement)
            trajectory.append(best)
        return trajectory

    def restore_history(
        self,
        records: Sequence[SequenceEvaluation],
        *,
        num_computed: Optional[int] = None,
        num_persistent_hits: int = 0,
    ) -> None:
        """Restore a previous run segment's history (checkpoint resume).

        Replaces the history and counters with ``records`` and — when
        in-memory memoisation is enabled — repopulates the memo cache
        from them, so that re-visits of pre-checkpoint sequences stay
        free exactly as they would have in the uninterrupted run.  The
        counter split defaults to "everything was computed"; pass the
        checkpointed ``num_computed``/``num_persistent_hits`` to keep
        the diagnostic split exact.  (Pending deferred persistent writes
        of the interrupted segment are *not* recreated: the persistent
        cache is an optimisation layer and never affects results.)
        """
        records = list(records)
        self.history = records
        self._num_evaluations = len(records)
        if num_computed is None:
            num_computed = len(records) - num_persistent_hits
        self._num_computed = int(num_computed)
        self._num_persistent_hits = int(num_persistent_hits)
        if self._cache_enabled:
            for record in records:
                self._cache[record.sequence] = record

    def reset_history(self, clear_cache: bool = False) -> None:
        """Clear the evaluation history and counters.

        The in-memory memoisation cache is kept by default (so repeated
        runs on the same evaluator stay cheap); pass ``clear_cache=True``
        to start the next run from a clean slate — required when run
        results must be independent of what previous runs evaluated (the
        parallel grid runner does this so that ``--jobs 1`` and
        ``--jobs N`` produce identical tables).  The persistent on-disk
        cache is never cleared by this method.
        """
        self.history = []
        self._num_evaluations = 0
        self._num_computed = 0
        self._num_persistent_hits = 0
        if clear_cache:
            self._cache = {}
