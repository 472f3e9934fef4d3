"""Picklable evaluator specifications.

Worker processes never receive an AIG over the pipe — circuits are cheap
to regenerate but expensive to serialise, and the structural-hashing
tables inside :class:`repro.aig.graph.AIG` make pickles large.  Instead a
tiny :class:`EvaluatorSpec` (circuit name + width + LUT size + reference
flow) crosses the process boundary and each worker rebuilds its own
circuit, mapper and :class:`repro.qor.QoREvaluator` once, on the first
cell that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.circuits.registry import get_circuit, get_circuit_spec, resolve_width
from repro.engine import faults
from repro.qor.backends import DEFAULT_BACKEND_KEY, canonical_backend_spec
from repro.qor.evaluator import QoREvaluator
from repro.qor.objectives import DEFAULT_OBJECTIVE_KEY, canonical_spec_string

#: Re-exported for engine callers: the width :func:`get_circuit` will use,
#: resolved eagerly so workers build the same circuit as the parent even
#: if their environment differs.
resolve_circuit_width = resolve_width


@dataclass(frozen=True)
class EvaluatorSpec:
    """Everything a worker needs to rebuild a :class:`QoREvaluator`.

    Attributes
    ----------
    circuit:
        Registered circuit name (see :mod:`repro.circuits`).
    width:
        Resolved bit-width (never ``None``; see :func:`for_circuit`).
    lut_size:
        LUT input count used for mapping.
    reference_sequence:
        Reference flow for the QoR denominators, or ``None`` for the
        default (``resyn2``).
    objective:
        Canonical string spec of the QoR objective (see
        :func:`repro.qor.objectives.canonical_spec_string`) — a bare key
        like ``"eq1"`` or sorted-key JSON for parameterised objectives.
        Kept as a string so the spec stays hashable and picklable.
    backend:
        Canonical string spec of the synthesis backend (see
        :func:`repro.qor.backends.canonical_backend_spec`) — a bare key
        like ``"native"`` or sorted-key JSON for parameterised backends.
        Part of the evaluator's identity: two specs differing only in
        backend build evaluators that may measure different numbers.
    circuit_file / circuit_hash:
        For file-backed circuits (``file:<path>`` names): the resolved
        absolute path and the SHA-256 content hash of the file at spec
        creation time.  Workers rebuilding the evaluator verify the hash
        before trusting the file — a mid-run or run/resume edit of the
        circuit file fails loudly instead of silently mixing results —
        and the hash (not the path) keys the persistent QoR cache, so
        cache entries survive file relocation across machines.
    eval_timeout:
        Per-evaluation wall-clock deadline in seconds (``None`` = no
        deadline).  Enforced inside ``compute()`` via a SIGALRM timer
        in both serial runs and pool workers.
    fault_plan:
        Canonical-JSON :class:`~repro.engine.faults.FaultPlan` for
        deterministic fault injection, or ``None``.  A string (not the
        object) so the spec stays hashable and cheap to pickle.
    """

    circuit: str
    width: int
    lut_size: int = 6
    reference_sequence: Optional[Tuple[str, ...]] = None
    objective: str = DEFAULT_OBJECTIVE_KEY
    backend: str = DEFAULT_BACKEND_KEY
    circuit_file: Optional[str] = None
    circuit_hash: Optional[str] = None
    eval_timeout: Optional[float] = None
    fault_plan: Optional[str] = None

    def identity_key(self) -> Tuple[object, ...]:
        """Key identifying the evaluator this spec builds.

        ``circuit_file`` is left out: the content hash, not the path,
        says which circuit a file-backed spec builds.
        """
        return (
            self.circuit,
            self.width,
            self.lut_size,
            self.reference_sequence,
            self.objective,
            self.backend,
            self.circuit_hash,
            self.eval_timeout,
            self.fault_plan,
        )

    @classmethod
    def for_circuit(
        cls,
        circuit: str,
        width: Optional[int] = None,
        lut_size: int = 6,
        reference_sequence: Optional[Tuple[str, ...]] = None,
        objective: Optional[object] = None,
        backend: Optional[object] = None,
    ) -> "EvaluatorSpec":
        """Build a spec, resolving the effective width immediately."""
        circuit_spec = get_circuit_spec(circuit)
        canonical = circuit_spec.name
        return cls(
            circuit=canonical,
            width=resolve_circuit_width(canonical, width),
            lut_size=lut_size,
            reference_sequence=(
                tuple(reference_sequence) if reference_sequence is not None else None
            ),
            objective=canonical_spec_string(objective),
            backend=canonical_backend_spec(backend),
            circuit_file=getattr(circuit_spec, "path", None),
            circuit_hash=getattr(circuit_spec, "content_hash", None),
        )

    def build_evaluator(
        self,
        cache: bool = True,
        persistent_cache: Optional[object] = None,
    ) -> QoREvaluator:
        """Instantiate the circuit and its evaluator from this spec."""
        cache_key = None
        if self.circuit_file is not None:
            # Load directly from the recorded path, verifying content:
            # the registry route would re-resolve (and silently accept a
            # changed file), and the content hash gives a persistent
            # cache key that is stable across path relocations.
            from repro.circuits.files import load_circuit_file

            aig = load_circuit_file(self.circuit_file,
                                    expected_hash=self.circuit_hash)
            if self.circuit_hash is not None:
                cache_key = f"sha256:{self.circuit_hash}:lut{self.lut_size}"
        else:
            aig = get_circuit(self.circuit, width=self.width)
        evaluator = QoREvaluator(
            aig,
            lut_size=self.lut_size,
            reference_sequence=self.reference_sequence,
            cache=cache,
            persistent_cache=persistent_cache,
            objective=self.objective,
            cache_key=cache_key,
            backend=self.backend,
        )
        guard = faults.build_compute_guard(self.fault_plan, self.eval_timeout)
        if guard is not None:
            evaluator.set_compute_guard(guard)
        return evaluator

    # ------------------------------------------------------------------
    # Plain-dict round trip (kept explicit so the payload stays stable
    # even if fields are added later).
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "width": self.width,
            "lut_size": self.lut_size,
            "reference_sequence": self.reference_sequence,
            "objective": self.objective,
            "backend": self.backend,
            "circuit_file": self.circuit_file,
            "circuit_hash": self.circuit_hash,
            "eval_timeout": self.eval_timeout,
            "fault_plan": self.fault_plan,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "EvaluatorSpec":
        reference = payload.get("reference_sequence")
        circuit_file = payload.get("circuit_file")
        circuit_hash = payload.get("circuit_hash")
        eval_timeout = payload.get("eval_timeout")
        fault_plan = payload.get("fault_plan")
        return cls(
            circuit=str(payload["circuit"]),
            width=int(payload["width"]),  # type: ignore[arg-type]
            lut_size=int(payload.get("lut_size", 6)),  # type: ignore[arg-type]
            reference_sequence=tuple(reference) if reference is not None else None,
            objective=str(payload.get("objective", DEFAULT_OBJECTIVE_KEY)),
            backend=str(payload.get("backend", DEFAULT_BACKEND_KEY)),
            circuit_file=str(circuit_file) if circuit_file is not None else None,
            circuit_hash=str(circuit_hash) if circuit_hash is not None else None,
            eval_timeout=float(eval_timeout) if eval_timeout is not None else None,  # type: ignore[arg-type]
            fault_plan=str(fault_plan) if fault_plan is not None else None,
        )
