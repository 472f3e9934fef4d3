"""Resumable run directories: manifest, per-cell records, trajectories.

A :class:`CampaignStore` is a plain directory::

    <root>/
      manifest.json              # the (resolved) campaign + format version
      cells/
        <cell_id>.jsonl          # final RunRecord, one line (status ok/failed)
      trajectories/
        <cell_id>.jsonl          # one line per ask/tell round (multi-line)
      checkpoints/
        <cell_id>.json           # latest mid-cell optimiser checkpoint

Final records and checkpoints are written atomically (temp file +
``os.replace``), so a killed run leaves either a complete file or none —
never a torn one; trajectory files are append-per-round, and resume
truncates them back to the checkpointed round before continuing (the
re-emitted rounds are bit-identical, so the final file matches an
uninterrupted run byte for byte).  On resume, cells with an ``ok``
record are loaded verbatim and skipped; cells with a checkpoint but no
``ok`` record (killed or failed mid-cell) restart *from the checkpoint*
rather than from scratch.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.api.campaign import Campaign, CampaignCell, CAMPAIGN_FORMAT_VERSION
from repro.bo.base import OptimisationResult
from repro.qor.evaluator import SequenceEvaluation
from repro.qor.objectives import canonical_spec_string

#: Mid-cell checkpoint schema version, bumped on incompatible changes.
CHECKPOINT_FORMAT_VERSION = 1


def evaluation_to_dict(record: SequenceEvaluation) -> Dict[str, object]:
    """JSON-exact payload of one black-box evaluation record."""
    return {
        "sequence": list(record.sequence),
        "area": int(record.area),
        "delay": int(record.delay),
        "qor": record.qor,
        "qor_improvement": record.qor_improvement,
    }


def evaluation_from_dict(payload: Dict[str, object]) -> SequenceEvaluation:
    """Rebuild a :class:`SequenceEvaluation` from :func:`evaluation_to_dict`."""
    return SequenceEvaluation(
        sequence=tuple(str(op) for op in payload["sequence"]),  # type: ignore[union-attr]
        area=int(payload["area"]),  # type: ignore[arg-type]
        delay=int(payload["delay"]),  # type: ignore[arg-type]
        qor=float(payload["qor"]),  # type: ignore[arg-type]
        qor_improvement=float(payload["qor_improvement"]),  # type: ignore[arg-type]
    )


def _jsonify(value: object) -> object:
    """Recursively convert a value into plain JSON-serialisable types.

    Run metadata routinely contains numpy scalars and arrays (kernel
    hyperparameters, episode returns); those become native ints, floats
    and lists.  Python floats survive JSON bit-exactly (``repr`` is the
    shortest round-trip representation), which is what makes stored
    histories comparable with ``==`` on resume.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonify(item) for item in value]
    return repr(value)


def _open_creating_parent(path: Path, flags: int, mode: int) -> int:
    """``os.open`` that creates a missing parent directory on first use."""
    try:
        return os.open(path, flags, mode)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, mode)


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until all of ``data`` is written."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


@dataclass
class RunRecord:
    """The persisted outcome of one campaign cell.

    A JSON-serialisable superset of :class:`OptimisationResult`: the full
    result payload (including optimiser-specific :attr:`metadata`) plus
    the cell identity and objective it was produced under.

    :attr:`status` is ``"ok"`` for a completed cell, ``"failed"`` for a
    cell whose optimiser raised (the error text lives in
    ``metadata["error"]``) and ``"quarantined"`` for a cell the driver
    gave up on after exhausting its retry budget (transient-looking
    faults — deadline blowouts, worker crashes — that kept recurring).
    Failed records keep the campaign running and are *retried* — not
    skipped — by ``resume_campaign``; quarantined records are *skipped*
    on resume (opt back in with ``retry_quarantined``) and carry the
    reproducing ``(circuit_hash, sequence, seed)`` in
    ``metadata["quarantine"]``.
    """

    cell_id: str
    problem_key: str
    method: str
    method_display: str
    circuit: str
    seed: int
    budget: int
    objective: str
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
    status: str = "ok"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @property
    def quarantined(self) -> bool:
        return self.status == "quarantined"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: OptimisationResult,
        cell: CampaignCell,
        budget: int,
    ) -> "RunRecord":
        return cls(
            cell_id=cell.cell_id,
            problem_key=cell.problem.key,
            method=cell.method,
            method_display=result.method,
            circuit=result.circuit,
            seed=result.seed,
            budget=budget,
            objective=canonical_spec_string(cell.problem.objective),
            best_sequence=tuple(result.best_sequence),
            best_qor=result.best_qor,
            best_improvement=result.best_improvement,
            best_area=result.best_area,
            best_delay=result.best_delay,
            num_evaluations=result.num_evaluations,
            history=list(result.history),
            best_trajectory=list(result.best_trajectory),
            evaluated_points=[(int(a), int(d)) for a, d in result.evaluated_points],
            metadata=dict(result.metadata),
        )

    @classmethod
    def from_failure(
        cls,
        cell: CampaignCell,
        budget: int,
        error: BaseException,
    ) -> "RunRecord":
        """Sentinel record for a cell whose optimiser raised.

        Numeric fields are zeroed sentinels — the record exists to keep
        the grid position filled and the error visible, never to feed a
        table (table builders must filter on :attr:`failed`).
        """
        return cls(
            cell_id=cell.cell_id,
            problem_key=cell.problem.key,
            method=cell.method,
            method_display=cell.method,
            circuit=cell.problem.circuit,
            seed=cell.seed,
            budget=budget,
            objective=canonical_spec_string(cell.problem.objective),
            best_sequence=(),
            best_qor=0.0,
            best_improvement=0.0,
            best_area=0,
            best_delay=0,
            num_evaluations=0,
            metadata={"error": f"{type(error).__name__}: {error}"},
            status="failed",
        )

    @classmethod
    def from_quarantine(
        cls,
        cell: CampaignCell,
        budget: int,
        error: BaseException,
        attempts: int,
    ) -> "RunRecord":
        """Sentinel record for a cell retired after exhausting retries.

        Besides the error text, the metadata carries the reproducing
        triple — circuit hash, offending sequence (when a deadline or
        poison error identified one) and seed — so the input can be
        replayed in isolation.
        """
        record = cls.from_failure(cell, budget, error)
        sequence = getattr(error, "sequence", None)
        return dataclasses.replace(
            record,
            status="quarantined",
            metadata={
                "error": f"{type(error).__name__}: {error}",
                "attempts": int(attempts),
                "quarantine": {
                    "circuit_hash": cell.problem.circuit_hash,
                    "sequence": list(sequence) if sequence else None,
                    "seed": cell.seed,
                },
            },
        )

    def to_result(self) -> OptimisationResult:
        """The equivalent :class:`OptimisationResult` (for tables/figures)."""
        return OptimisationResult(
            method=self.method_display,
            circuit=self.circuit,
            seed=self.seed,
            best_sequence=tuple(self.best_sequence),
            best_qor=self.best_qor,
            best_improvement=self.best_improvement,
            best_area=self.best_area,
            best_delay=self.best_delay,
            num_evaluations=self.num_evaluations,
            history=list(self.history),
            best_trajectory=list(self.best_trajectory),
            evaluated_points=[tuple(point) for point in self.evaluated_points],
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["best_sequence"] = list(self.best_sequence)
        payload["evaluated_points"] = [list(point) for point in self.evaluated_points]
        payload["metadata"] = _jsonify(self.metadata)
        payload["status"] = self.status
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        return cls(
            cell_id=str(payload["cell_id"]),
            problem_key=str(payload["problem_key"]),
            method=str(payload["method"]),
            method_display=str(payload.get("method_display", payload["method"])),
            circuit=str(payload["circuit"]),
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            budget=int(payload["budget"]),  # type: ignore[arg-type]
            objective=str(payload.get("objective", "eq1")),
            best_sequence=tuple(payload.get("best_sequence", ())),  # type: ignore[arg-type]
            best_qor=float(payload["best_qor"]),  # type: ignore[arg-type]
            best_improvement=float(payload["best_improvement"]),  # type: ignore[arg-type]
            best_area=int(payload["best_area"]),  # type: ignore[arg-type]
            best_delay=int(payload["best_delay"]),  # type: ignore[arg-type]
            num_evaluations=int(payload["num_evaluations"]),  # type: ignore[arg-type]
            history=list(payload.get("history", [])),  # type: ignore[arg-type]
            best_trajectory=list(payload.get("best_trajectory", [])),  # type: ignore[arg-type]
            evaluated_points=[(int(a), int(d))
                              for a, d in payload.get("evaluated_points", [])],  # type: ignore[union-attr]
            metadata=dict(payload.get("metadata", {})),  # type: ignore[arg-type]
            status=str(payload.get("status", "ok")),
        )


class StoreError(RuntimeError):
    """A run directory is missing, torn, or belongs to another campaign."""


class CampaignStore:
    """A campaign run directory with checkpoint/restart semantics."""

    MANIFEST_NAME = "manifest.json"
    CELLS_DIR = "cells"
    TRAJECTORIES_DIR = "trajectories"
    CHECKPOINTS_DIR = "checkpoints"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST_NAME

    @property
    def cells_dir(self) -> Path:
        return self.root / self.CELLS_DIR

    @property
    def trajectories_dir(self) -> Path:
        return self.root / self.TRAJECTORIES_DIR

    @property
    def checkpoints_dir(self) -> Path:
        return self.root / self.CHECKPOINTS_DIR

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    # ------------------------------------------------------------------
    def initialise(self, campaign: Campaign) -> Campaign:
        """Create (or re-open) the run directory for ``campaign``.

        The manifest stores the *resolved* campaign — circuit widths
        pinned — so resuming under a different environment still
        rebuilds identical circuits.  Re-opening with a different
        campaign raises :class:`StoreError` rather than silently mixing
        two grids in one directory.
        """
        resolved = campaign.resolved()
        if self.exists():
            existing = self.load_campaign()
            if existing.to_dict() != resolved.to_dict():
                raise StoreError(
                    f"run directory {self.root} already holds campaign "
                    f"{existing.name!r} with a different configuration; "
                    "use a fresh directory (or `repro resume` to continue it)"
                )
            return existing
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": CAMPAIGN_FORMAT_VERSION,
            "campaign": resolved.to_dict(),
        }
        self._atomic_write(self.manifest_path,
                           json.dumps(manifest, indent=2, allow_nan=False) + "\n")
        return resolved

    def load_campaign(self) -> Campaign:
        if not self.exists():
            raise StoreError(f"no campaign manifest in {self.root}")
        payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        return Campaign.from_dict(payload["campaign"])

    # ------------------------------------------------------------------
    # Cell records
    # ------------------------------------------------------------------
    def cell_path(self, cell_id: str) -> Path:
        return self.cells_dir / f"{cell_id}.jsonl"

    def _record_status(self, path: Path) -> Optional[str]:
        """Status of the record at ``path``, ``None`` if torn/unreadable."""
        try:
            lines = [line for line in
                     path.read_text(encoding="utf-8").splitlines() if line.strip()]
            if not lines:
                return None
            return str(json.loads(lines[-1]).get("status", "ok"))
        except (OSError, ValueError):
            return None

    def record_status(self, cell_id: str) -> Optional[str]:
        """Status of one cell's final record, ``None`` if absent/torn.

        A torn record (interrupted write, truncated file, invalid JSON)
        reads as ``None`` — the cell counts as never finished, so resume
        re-runs it instead of trusting half a record.
        """
        return self._record_status(self.cell_path(cell_id))

    def cell_statuses(self) -> Dict[str, str]:
        """One-scan status map over every cell the store knows about.

        Values: ``"ok"`` / ``"failed"`` / ``"quarantined"`` from the
        final records, plus ``"partial"`` for cells that only have a
        mid-run checkpoint.  Derived sets (:meth:`completed_cell_ids` &
        co.) are views over this map; callers polling repeatedly
        (``show --follow``) should call this once per tick instead of
        stacking the set queries.
        """
        statuses: Dict[str, str] = {}
        if self.cells_dir.is_dir():
            for path in self.cells_dir.glob("*.jsonl"):
                status = self._record_status(path)
                if status in ("ok", "failed", "quarantined"):
                    statuses[path.stem] = status
        if self.checkpoints_dir.is_dir():
            for path in self.checkpoints_dir.glob("*.json"):
                if statuses.get(path.stem) != "ok":
                    statuses.setdefault(path.stem, "partial")
        return statuses

    def completed_cell_ids(self) -> Set[str]:
        """Cells with an ``ok`` final record (failed cells are retried)."""
        return {cell_id for cell_id, status in self.cell_statuses().items()
                if status == "ok"}

    def failed_cell_ids(self) -> Set[str]:
        """Cells whose last attempt raised (see :meth:`RunRecord.from_failure`)."""
        return {cell_id for cell_id, status in self.cell_statuses().items()
                if status == "failed"}

    def quarantined_cell_ids(self) -> Set[str]:
        """Cells retired after exhausting their retry budget.

        Skipped by resume (unlike failed cells) until the operator opts
        back in with ``retry_quarantined``; the reproducing input lives
        in the record's ``metadata["quarantine"]``.
        """
        return {cell_id for cell_id, status in self.cell_statuses().items()
                if status == "quarantined"}

    def partial_cell_ids(self) -> Set[str]:
        """Cells with a mid-run checkpoint but no final record at all.

        A *failed* cell that also has a checkpoint reports as
        ``"failed"``, not partial — though resume still continues it
        from the checkpoint rather than from scratch.
        """
        return {cell_id for cell_id, status in self.cell_statuses().items()
                if status == "partial"}

    def write_record(self, record: RunRecord) -> Path:
        """Atomically persist one cell's record (complete-or-absent)."""
        path = self.cell_path(record.cell_id)
        self._atomic_write(path, json.dumps(record.to_dict(), allow_nan=False) + "\n")
        return path

    def read_record(self, cell_id: str) -> RunRecord:
        path = self.cell_path(cell_id)
        try:
            lines = [line for line in
                     path.read_text(encoding="utf-8").splitlines() if line.strip()]
            if not lines:
                raise ValueError("empty record file")
            return RunRecord.from_dict(json.loads(lines[-1]))
        except (OSError, ValueError) as error:
            raise StoreError(f"cannot read cell record {path}: {error}") from error

    def load_records(
        self, cells: Optional[Sequence[CampaignCell]] = None
    ) -> List[RunRecord]:
        """Records for ``cells`` (campaign order) or every stored cell."""
        if cells is not None:
            return [self.read_record(cell.cell_id) for cell in cells
                    if self.cell_path(cell.cell_id).is_file()]
        return [self.read_record(path.stem)
                for path in sorted(self.cells_dir.glob("*.jsonl"))]

    # ------------------------------------------------------------------
    # Per-round trajectories (true multi-line JSONL, append-per-round)
    # ------------------------------------------------------------------
    def trajectory_path(self, cell_id: str) -> Path:
        return self.trajectories_dir / f"{cell_id}.jsonl"

    def append_trajectory(self, cell_id: str, payload: Dict[str, object]) -> None:
        """Append one round's line to the cell's trajectory JSONL.

        Lines are rendered with sorted keys so two byte-identical runs
        produce byte-identical trajectory files — the property the
        resume suite compares directly.
        """
        line = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
        fd = _open_creating_parent(self.trajectory_path(cell_id),
                                   os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
        try:
            _write_all(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def _complete_trajectory_lines(self, cell_id: str) -> List[str]:
        """Raw complete lines of the trajectory file, torn tail dropped.

        ``append_trajectory`` is a plain append, so a kill mid-write can
        leave a partial final line.  The single sequential writer means
        only the *last* line can ever be torn — and it is always beyond
        the last checkpoint (the round's checkpoint is written after its
        trajectory line), so dropping it loses nothing a resume needs.
        """
        path = self.trajectory_path(cell_id)
        if not path.is_file():
            return []
        text = path.read_text(encoding="utf-8")
        # Everything after the last newline is a torn partial line (or
        # empty); only the newline-terminated prefix is trusted.
        complete, _, _torn = text.rpartition("\n")
        return [line for line in complete.split("\n") if line.strip()]

    def read_trajectory(self, cell_id: str) -> List[Dict[str, object]]:
        """All persisted rounds of a cell, in round order (may be empty).

        Tolerates a torn trailing line (see
        :meth:`_complete_trajectory_lines`); corruption anywhere earlier
        raises :class:`StoreError`.
        """
        rounds: List[Dict[str, object]] = []
        for line in self._complete_trajectory_lines(cell_id):
            try:
                rounds.append(json.loads(line))
            except ValueError as error:
                raise StoreError(
                    f"corrupt trajectory line for cell {cell_id!r} "
                    f"(round {len(rounds) + 1}): {error}") from error
        return rounds

    def trajectory_round_count(self, cell_id: str) -> int:
        """Rounds persisted so far — the live-progress probe ``--follow`` polls."""
        return len(self._complete_trajectory_lines(cell_id))

    def truncate_trajectory(self, cell_id: str, rounds: int) -> None:
        """Keep only the first ``rounds`` lines (resume-from-checkpoint).

        A kill can land between a trajectory append and the next
        checkpoint write — possibly mid-append, tearing the final line;
        resuming from the checkpoint at round *r* first discards any
        (complete or torn) content past *r*, then re-emits it
        bit-identically as the rounds re-run.  Kept lines are copied
        verbatim, so no re-serialisation can perturb them.
        """
        lines = self._complete_trajectory_lines(cell_id)[:max(0, rounds)]
        text = "".join(line + "\n" for line in lines)
        self._atomic_write(self.trajectory_path(cell_id), text)

    def reset_trajectory(self, cell_id: str) -> None:
        """Drop a stale trajectory (fresh attempt with no usable checkpoint)."""
        try:
            os.unlink(self.trajectory_path(cell_id))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Mid-cell optimiser checkpoints
    # ------------------------------------------------------------------
    def checkpoint_path(self, cell_id: str) -> Path:
        return self.checkpoints_dir / f"{cell_id}.json"

    def _checkpoint_aside_path(self, cell_id: str) -> Path:
        """Where the previous checkpoint sits while the next one lands."""
        return self.checkpoints_dir / f".{cell_id}.json.prev"

    def write_checkpoint(self, cell_id: str, payload: Dict[str, object]) -> Path:
        """Atomically persist the cell's latest checkpoint (replaces prior)."""
        path = self.checkpoint_path(cell_id)
        body = dict(payload)
        body.setdefault("format_version", CHECKPOINT_FORMAT_VERSION)
        body.setdefault("cell_id", cell_id)
        self._atomic_write(path, json.dumps(body, sort_keys=True, allow_nan=False) + "\n",
                           durable=False, aside=self._checkpoint_aside_path(cell_id))
        return path

    def read_checkpoint(self, cell_id: str) -> Optional[Dict[str, object]]:
        """The cell's latest checkpoint, or ``None`` when absent/unusable.

        A kill between the two renames of :meth:`write_checkpoint` leaves
        only the set-aside previous checkpoint; it is read instead.
        """
        path = self.checkpoint_path(cell_id)
        if not path.is_file():
            path = self._checkpoint_aside_path(cell_id)
            if not path.is_file():
                return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        version = int(payload.get("format_version", CHECKPOINT_FORMAT_VERSION))
        if version > CHECKPOINT_FORMAT_VERSION:
            raise StoreError(
                f"checkpoint {path} has format version {version}, newer than "
                f"this repro build supports ({CHECKPOINT_FORMAT_VERSION})")
        return payload

    def clear_checkpoint(self, cell_id: str) -> None:
        """Remove the checkpoint once the cell's final record is written."""
        for path in (self.checkpoint_path(cell_id), self._checkpoint_aside_path(cell_id)):
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    @staticmethod
    def _atomic_write(path: Path, text: str, durable: bool = True,
                      aside: Optional[Path] = None) -> None:
        """Complete-or-absent file replacement.

        ``durable=True`` additionally fsyncs before the rename —
        required for files written once whose loss would corrupt the
        store (manifest, final records).  High-frequency files that are
        rewritten every round (checkpoints) pass ``durable=False``: the
        rename is still atomic, which is all that process-kill
        resilience needs, and skipping the per-round fsync keeps the
        round-granular machinery's overhead negligible (a stale-by-one
        checkpoint after a power loss merely replays one extra round).

        With ``aside``, the current file is first renamed to ``aside``
        and removed once the new one is in place, so no rename lands on
        an existing file: ext4 (``auto_da_alloc``) answers a rename over
        an existing file by writing the new file's data out inside the
        rename, which made that call the dearest part of a per-round
        checkpoint.  Readers fall back to ``aside`` while ``path`` is
        missing.

        The temp file is named after the writing process and thread, so
        concurrent writers never share one; a leftover from a killed
        writer is truncated if its name comes round again.  The parent
        directory is created on first use.
        """
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        fd = _open_creating_parent(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            try:
                _write_all(fd, text.encode("utf-8"))
                if durable:
                    os.fsync(fd)
            finally:
                os.close(fd)
            if aside is not None:
                try:
                    os.replace(path, aside)
                except FileNotFoundError:
                    pass
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if aside is not None:
            try:
                os.unlink(aside)
            except FileNotFoundError:
                pass
