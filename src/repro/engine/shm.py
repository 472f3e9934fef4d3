"""Shared-memory hand-off for the array-backed AIG.

The engine publishes a circuit's flat ``is_and``/fanin arrays into one
POSIX shared-memory segment per engine; pool workers attach the segment
read-only and rebuild the graph with :meth:`repro.aig.graph.AIG.from_flat_arrays`
— an O(num_vars) copy with no structural hashing, file IO, or generator
replay.  The parent owns the segment lifecycle (create + unlink);
workers never unlink, and a vanished segment degrades to the cold spec
path instead of failing the batch.

Payload layout (little-endian)::

    [0:4]   magic b"RAIG"
    [4:8]   uint32 header length H
    [8:8+H] JSON header {name, num_vars, pi_names, pos, po_names}
    ...     is_and  — num_vars bytes
    ...     fanin0  — num_vars int64
    ...     fanin1  — num_vars int64

CPython < 3.13 registers *attached* segments with the attaching
process's resource tracker (bpo-39959).  A process that starts its own
tracker to attach would have that tracker unlink the parent's segment
when it exits, so :func:`attach_aig` unregisters again in that case.  A
process that already talks to a tracker — the publisher itself, or a
pool worker that inherited the publisher's tracker — must not: the
tracker keeps one entry per name, so unregistering there would drop the
publisher's own registration and make its ``unlink()`` fail in the
tracker with ``KeyError``.
"""

from __future__ import annotations

import json
import struct
from array import array
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple, cast

from repro.aig.graph import AIG

_MAGIC = b"RAIG"
_HEADER_STRUCT = struct.Struct("<4sI")

# Worker-side counters surfaced by ``worker_diagnostics`` and the shm tests.
_ATTACHES = 0
_FALLBACKS = 0


@dataclass(frozen=True)
class SharedAIGHandle:
    """Name + size of a published AIG segment; travels inside EvaluatorSpec."""

    name: str
    size: int

    def to_payload(self) -> Dict[str, object]:
        return {"name": str(self.name), "size": int(self.size)}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SharedAIGHandle":
        return cls(name=str(payload["name"]), size=int(cast(int, payload["size"])))


def encode_aig(aig: AIG) -> bytes:
    """Serialise ``aig`` to the flat shared-memory payload."""
    is_and, fanin0, fanin1 = aig.node_arrays()
    pi_names = [aig.node(var).name for var in aig.pis]
    header = {
        "name": aig.name,
        "num_vars": len(is_and),
        "pi_names": pi_names,
        "pos": aig.pos,
        "po_names": aig.po_names,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, allow_nan=False, separators=(",", ":")
    ).encode("utf-8")
    parts = [
        _HEADER_STRUCT.pack(_MAGIC, len(header_bytes)),
        header_bytes,
        bytes(is_and),
        array("q", fanin0).tobytes(),
        array("q", fanin1).tobytes(),
    ]
    return b"".join(parts)


def decode_aig(payload: bytes) -> AIG:
    """Rebuild an AIG from :func:`encode_aig` output (bit-identical)."""
    magic, header_len = _HEADER_STRUCT.unpack_from(payload, 0)
    if magic != _MAGIC:
        raise ValueError("shared AIG payload has bad magic")
    offset = _HEADER_STRUCT.size
    header = json.loads(payload[offset:offset + header_len].decode("utf-8"))
    offset += header_len
    num_vars = int(header["num_vars"])
    is_and = payload[offset:offset + num_vars]
    offset += num_vars
    fanin0 = array("q")
    fanin0.frombytes(payload[offset:offset + 8 * num_vars])
    offset += 8 * num_vars
    fanin1 = array("q")
    fanin1.frombytes(payload[offset:offset + 8 * num_vars])
    offset += 8 * num_vars
    if offset != len(payload):
        raise ValueError("shared AIG payload has trailing bytes")
    return AIG.from_flat_arrays(
        name=str(header["name"]),
        is_and=is_and,
        fanin0=list(fanin0),
        fanin1=list(fanin1),
        pi_names=[None if n is None else str(n) for n in header["pi_names"]],
        pos=[int(p) for p in header["pos"]],
        po_names=[None if n is None else str(n) for n in header["po_names"]],
    )


def publish_aig(
    aig: AIG,
) -> Tuple[shared_memory.SharedMemory, SharedAIGHandle]:
    """Create a shared-memory segment holding ``aig``; caller owns unlink."""
    payload = encode_aig(aig)
    segment = shared_memory.SharedMemory(create=True, size=len(payload))
    segment.buf[: len(payload)] = payload
    return segment, SharedAIGHandle(name=segment.name, size=len(payload))


def _has_tracker() -> bool:
    """Whether this process already holds a resource-tracker connection
    (started here, or inherited from the parent that forked or spawned it)."""
    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None


def _disown(segment: shared_memory.SharedMemory) -> None:
    """Drop the attach-side resource-tracker registration (bpo-39959)."""
    try:
        resource_tracker.unregister(
            getattr(segment, "_name", segment.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker may be absent/foreign
        pass


def attach_aig(handle: SharedAIGHandle) -> Optional[AIG]:
    """Attach ``handle`` read-only and rebuild the AIG.

    Returns ``None`` when the segment has vanished (engine already closed
    or cross-host payload) so callers can fall back to the cold spec
    path.  The payload is copied out during decode, so the segment is
    closed before returning — workers never hold segments open.
    """
    global _ATTACHES, _FALLBACKS
    private_tracker = not _has_tracker()
    try:
        segment = shared_memory.SharedMemory(name=handle.name)
    except FileNotFoundError:
        _FALLBACKS += 1
        return None
    try:
        if private_tracker:
            _disown(segment)
        aig = decode_aig(bytes(segment.buf[: handle.size]))
    finally:
        segment.close()
    _ATTACHES += 1
    return aig


def unlink_segment(segment: shared_memory.SharedMemory) -> None:
    """Unlink + close a published segment, tolerating double-close."""
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    segment.close()


def attach_count() -> int:
    return _ATTACHES


def fallback_count() -> int:
    return _FALLBACKS


def reset_counters() -> None:
    """Zero the attach/fallback counters (test + worker-init hygiene)."""
    global _ATTACHES, _FALLBACKS
    _ATTACHES = 0
    _FALLBACKS = 0


__all__ = [
    "SharedAIGHandle",
    "encode_aig",
    "decode_aig",
    "publish_aig",
    "attach_aig",
    "unlink_segment",
    "attach_count",
    "fallback_count",
    "reset_counters",
]
