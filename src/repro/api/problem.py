"""The declarative :class:`Problem`: one circuit + space + objective.

A problem is everything that defines *what is being optimised*, with no
run mechanics attached: the circuit (any registered name), its bit-width,
the LUT size of the mapping, the sequence length ``K`` of the search
space, the QoR objective and (optionally) a non-default reference flow.
Problems are frozen, JSON-round-trippable and cheap — build them freely::

    Problem("adder")                          # paper defaults, Equation 1
    Problem("multiplier", width=8, objective="area")
    Problem("sqrt", objective={"objective": "weighted",
                               "w_area": 2.0, "w_delay": 1.0})
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.bo.space import SequenceSpace
from repro.circuits.registry import get_circuit_spec, resolve_width
from repro.engine.spec import EvaluatorSpec
from repro.qor.backends import (
    DEFAULT_BACKEND_KEY,
    SynthesisBackend,
    backend_slug,
    resolve_backend,
)
from repro.qor.evaluator import QoREvaluator
from repro.qor.objectives import Objective, canonical_spec_string, resolve_objective


_SAFE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def objective_slug(objective: object) -> str:
    """Filename-safe identifier of an objective spec.

    Bare keys pass through (``"area"``); parameterised specs get a short
    content hash (``"weighted-1a2b3c"``) so distinct weightings never
    collide in cell ids or run directories.
    """
    canonical = canonical_spec_string(objective)
    if not canonical.lstrip().startswith("{"):
        return canonical
    key = json.loads(canonical).get("objective", "objective")
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:6]
    return f"{key}-{digest}"


@dataclass(frozen=True)
class Problem:
    """One optimisation problem: circuit × space × objective.

    Attributes
    ----------
    circuit:
        Registered circuit name (bundled or user-registered, see
        :func:`repro.circuits.registry.register_circuit`).
    width:
        Bit-width, or ``None`` for the registry default (scaled by
        ``REPRO_WIDTH_SCALE``).  :meth:`resolved` pins it, which campaign
        manifests do so a resumed run rebuilds identical circuits.
    lut_size:
        LUT input count used for mapping (the paper uses 6).
    sequence_length:
        ``K``, the number of operations per tested sequence.
    objective:
        QoR objective spec (``"eq1"`` default, ``"area"``, ``"delay"``,
        ``{"objective": "weighted", ...}`` or any registered key).
    reference_sequence:
        Reference flow for the QoR denominators; ``None`` = ``resyn2``.
    name:
        Optional human-readable id; defaults to a derived slug.
    circuit_hash:
        For file-backed circuits: the pinned SHA-256 content hash of the
        circuit file.  :meth:`resolved` fills it in, campaign manifests
        persist it, and :meth:`evaluator_spec` verifies the file still
        matches — so a resume after the file was edited fails loudly
        instead of silently mixing two circuits in one trajectory.
    backend:
        Synthesis backend spec (``"native"`` default, ``"abc"``,
        ``{"backend": "replay", "tape": ...}`` or any registered key) —
        the substrate that measures ``sequence -> (area, delay)``.
        Part of the problem identity: non-default backends appear in
        :attr:`key` and get their own persistent-cache namespace.
    """

    circuit: str
    width: Optional[int] = None
    lut_size: int = 6
    sequence_length: int = 20
    objective: object = "eq1"
    reference_sequence: Optional[Tuple[str, ...]] = None
    name: Optional[str] = field(default=None)
    circuit_hash: Optional[str] = None
    backend: object = DEFAULT_BACKEND_KEY

    def __post_init__(self) -> None:
        if self.reference_sequence is not None:
            object.__setattr__(self, "reference_sequence",
                               tuple(self.reference_sequence))

    # ------------------------------------------------------------------
    def validate(self) -> "Problem":
        """Resolve every registry reference; raises early on unknowns."""
        get_circuit_spec(self.circuit)
        resolve_objective(self.objective)
        resolve_backend(self.backend)
        if self.sequence_length < 1:
            raise ValueError("sequence_length must be positive")
        if self.lut_size < 2:
            raise ValueError("lut_size must be at least 2")
        if self.name is not None and not _SAFE_NAME.match(self.name):
            # The name becomes a cell-record filename stem; reject path
            # separators and other unsafe characters before any compute.
            raise ValueError(
                f"problem name {self.name!r} must match "
                "[A-Za-z0-9][A-Za-z0-9._-]* (it is used as a filename)"
            )
        return self

    def resolved(self) -> "Problem":
        """A copy with the canonical circuit name, width and file hash pinned."""
        spec = get_circuit_spec(self.circuit)
        canonical = spec.name
        return replace(
            self,
            circuit=canonical,
            width=resolve_width(canonical, self.width),
            circuit_hash=(self.circuit_hash
                          or getattr(spec, "content_hash", None)),
        )

    @property
    def key(self) -> str:
        """Stable identifier used in cell ids and run directories."""
        if self.name:
            return self.name
        from repro.circuits.files import (
            file_circuit_path,
            file_slug,
            is_file_circuit_name,
        )

        if is_file_circuit_name(self.circuit):
            # File circuits: the absolute path in the canonical name is
            # neither filename-safe nor relocation-stable; a slug of
            # stem + (pinned) content-hash prefix is both.  No width
            # token — file circuits have no width knob.  With a pinned
            # hash the key never touches the filesystem, so inspecting
            # a store whose circuit files moved away keeps working.
            content_hash = self.circuit_hash
            if content_hash is None:
                content_hash = get_circuit_spec(self.circuit).content_hash
            slug_base = file_slug(file_circuit_path(self.circuit).stem,
                                  content_hash)
            parts = [slug_base, f"lut{self.lut_size}", f"k{self.sequence_length}"]
        else:
            resolved = self.resolved()
            parts = [resolved.circuit, f"w{resolved.width}",
                     f"lut{self.lut_size}", f"k{self.sequence_length}"]
        slug = objective_slug(self.objective)
        if slug != "eq1":
            parts.append(slug)
        bslug = backend_slug(self.backend)
        if bslug != DEFAULT_BACKEND_KEY:
            # Native problems keep their historical keys: stores, cell
            # ids and run directories from pre-backend runs stay valid.
            parts.append(bslug)
        return "-".join(parts)

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def space(self) -> SequenceSpace:
        return SequenceSpace(sequence_length=self.sequence_length)

    def evaluator_spec(self) -> EvaluatorSpec:
        """The picklable evaluator spec workers rebuild the black box from.

        For file-backed circuits with a pinned :attr:`circuit_hash`
        (i.e. problems loaded from a campaign manifest), the file's
        current content is verified against the pin before anything is
        dispatched.
        """
        spec = EvaluatorSpec.for_circuit(
            self.circuit,
            width=self.width,
            lut_size=self.lut_size,
            reference_sequence=self.reference_sequence,
            objective=self.objective,
            backend=self.backend,
        )
        if (self.circuit_hash is not None and spec.circuit_hash is not None
                and spec.circuit_hash != self.circuit_hash):
            from repro.circuits.files import CircuitFileError

            raise CircuitFileError(
                f"circuit file {spec.circuit_file} changed on disk: content "
                f"hash {spec.circuit_hash[:12]}… does not match the hash "
                f"{self.circuit_hash[:12]}… pinned when the problem was "
                "resolved")
        return spec

    def build_evaluator(
        self, persistent_cache: Optional[object] = None
    ) -> QoREvaluator:
        """Instantiate the circuit and its QoR evaluator."""
        return self.evaluator_spec().build_evaluator(
            persistent_cache=persistent_cache)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        # Objective/backend instances serialise as their specs; str/dict
        # specs pass through verbatim so to_dict/from_dict round-trips
        # stay equal.
        objective = (self.objective.spec()
                     if isinstance(self.objective, Objective) else self.objective)
        backend = (self.backend.spec()
                   if isinstance(self.backend, SynthesisBackend) else self.backend)
        return {
            "circuit": self.circuit,
            "width": self.width,
            "lut_size": self.lut_size,
            "sequence_length": self.sequence_length,
            "objective": objective,
            "reference_sequence": (
                list(self.reference_sequence)
                if self.reference_sequence is not None else None
            ),
            "name": self.name,
            "circuit_hash": self.circuit_hash,
            "backend": backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Problem":
        reference = payload.get("reference_sequence")
        return cls(
            circuit=str(payload["circuit"]),
            width=(int(payload["width"])  # type: ignore[arg-type]
                   if payload.get("width") is not None else None),
            lut_size=int(payload.get("lut_size", 6)),  # type: ignore[arg-type]
            sequence_length=int(payload.get("sequence_length", 20)),  # type: ignore[arg-type]
            objective=payload.get("objective", "eq1"),
            reference_sequence=tuple(reference) if reference is not None else None,
            name=payload.get("name") or None,  # type: ignore[arg-type]
            circuit_hash=payload.get("circuit_hash") or None,  # type: ignore[arg-type]
            backend=payload.get("backend", DEFAULT_BACKEND_KEY),
        )
