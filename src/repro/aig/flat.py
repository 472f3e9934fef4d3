"""The flat byte codec of an AIG: one ``bytes`` object per graph.

:func:`encode_aig` writes a graph's flat ``is_and``/fanin arrays plus
its PI/PO metadata; :func:`decode_aig` rebuilds the graph with
:meth:`repro.aig.graph.AIG.from_flat_arrays` — an O(num_vars) copy with
no structural hashing.  The round trip is bit-identical: same node
order, structural-hashing table, names and fingerprint.  This is the
one AIG byte format of the package: the native backend keeps memoised
synthesis states in it (:mod:`repro.qor.backends.native`).

Layout (little-endian)::

    [0:4]   magic b"RAIG"
    [4:8]   uint32 header length H
    [8:8+H] JSON header {name, num_vars, pi_names, pos, po_names}
    ...     is_and  — num_vars bytes
    ...     fanin0  — num_vars int64
    ...     fanin1  — num_vars int64
"""

from __future__ import annotations

import json
import struct
from array import array

from repro.aig.graph import AIG

_MAGIC = b"RAIG"
_HEADER_STRUCT = struct.Struct("<4sI")


def encode_aig(aig: AIG) -> bytes:
    """Serialise ``aig`` to the flat payload."""
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
        raise ValueError("flat AIG payload has bad magic")
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
        raise ValueError("flat AIG payload has trailing bytes")
    return AIG.from_flat_arrays(
        name=str(header["name"]),
        is_and=is_and,
        fanin0=list(fanin0),
        fanin1=list(fanin1),
        pi_names=[None if n is None else str(n) for n in header["pi_names"]],
        pos=[int(p) for p in header["pos"]],
        po_names=[None if n is None else str(n) for n in header["po_names"]],
    )


__all__ = ["encode_aig", "decode_aig"]
