"""The native backend: the in-repo python synthesis substrate.

This is the default backend and the reference implementation of the
measurement contract: apply the sequence's registered
:class:`~repro.synth.operations.Operation` passes left to right, map
the result with :class:`repro.mapping.lut_mapper.LutMapper`, and
report the mapping's LUT count and level count.  Its
:attr:`cache_namespace` is the empty string, so cache keys written
before backends existed stay valid.

Synthesis memo
--------------
Optimisers revisit AIG states: sequences share prefixes, and different
passes often reach the same graph.  :meth:`NativeBackend.measure`
therefore walks a sequence through one process-wide, byte-bounded LRU
memo keyed by :func:`~repro.qor.backends.base.aig_fingerprint`:

- ``(fingerprint, op_name) -> (next_fingerprint, encoded next state)``
  for each pass, with states in the flat :mod:`repro.aig.flat` codec;
- ``(final fingerprint, lut_size) -> (area, delay)`` for the mapping.

A run of hits never rebuilds an AIG; the first miss after a hit decodes
the stored state and runs the pass.  Passes are deterministic functions
of what the fingerprint covers, so a hit returns exactly what the pass
would.  Memoised graphs never leave :meth:`~NativeBackend.measure`,
which returns only ``(area, delay)``, so the PI/PO names the
fingerprint ignores cannot reach a result.  The memo's counters are
read-only diagnostics (:func:`synth_memo_stats`) and never feed
results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union, cast

from repro.aig.flat import decode_aig, encode_aig
from repro.aig.graph import AIG
from repro.mapping.lut_mapper import LutMapper
from repro.qor.backends.base import SynthesisBackend, aig_fingerprint
from repro.registry import register_backend
from repro.synth.operations import get_operation

#: Byte bound of the process-wide synthesis memo.  Adder-8 states encode
#: to ≈ 2 KB and multiplier-6 states to ≈ 6 KB, so the bound holds
#: thousands of states: a whole pool worker's working set.
SYNTH_MEMO_BYTES = 32 * 1024 * 1024

#: Bytes charged per memo entry on top of its encoded state: the key,
#: the fingerprint strings and the LRU link.  It is all a mapping
#: result costs, and it keeps the bound honest for small states.
_ENTRY_OVERHEAD = 256

_Step = Tuple[str, bytes]
_QoR = Tuple[int, int]
_Key = Tuple[str, Union[str, int]]


class _SynthesisMemo:
    """Byte-bounded LRU over pass steps and mapping results."""

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        # key -> (value, bytes charged against the bound)
        self._entries: "OrderedDict[_Key, Tuple[Union[_Step, _QoR], int]]" = \
            OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _get(self, key: _Key) -> Optional[Union[_Step, _QoR]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def _put(self, key: _Key, value: Union[_Step, _QoR], size: int) -> None:
        size += _ENTRY_OVERHEAD
        self._entries[key] = (value, size)
        self.bytes += size
        while self.bytes > self.limit and self._entries:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.bytes -= evicted
            self.evictions += 1

    def step(self, fingerprint: str, op_name: str) -> Optional[_Step]:
        return cast(Optional[_Step], self._get((fingerprint, op_name)))

    def put_step(self, fingerprint: str, op_name: str,
                 next_fingerprint: str, payload: bytes) -> None:
        self._put((fingerprint, op_name), (next_fingerprint, payload),
                  len(payload))

    def qor(self, fingerprint: str, lut_size: int) -> Optional[_QoR]:
        return cast(Optional[_QoR], self._get((fingerprint, lut_size)))

    def put_qor(self, fingerprint: str, lut_size: int, qor: _QoR) -> None:
        self._put((fingerprint, lut_size), qor, 0)

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_MEMO = _SynthesisMemo(SYNTH_MEMO_BYTES)


def synth_memo_stats() -> Dict[str, int]:
    """This process's memo counters: lookups hit and missed, evictions,
    and the bytes held (diagnostics only)."""
    return {
        "synth_memo_hits": _MEMO.hits,
        "synth_memo_misses": _MEMO.misses,
        "synth_memo_evictions": _MEMO.evictions,
        "synth_memo_bytes": _MEMO.bytes,
    }


def clear_synth_memo() -> None:
    """Drop every memoised state and zero the counters."""
    _MEMO.clear()


@register_backend("native")
class NativeBackend(SynthesisBackend):
    """Measure with the in-repo python substrate (default)."""

    key = "native"

    def measure(
        self, aig: AIG, sequence: Sequence[str], lut_size: int
    ) -> Tuple[int, int]:
        # ``state`` is the current graph, or None while the walk runs on
        # memo hits and only ``payload`` holds it.
        state: Optional[AIG] = aig
        payload = b""
        fingerprint = aig_fingerprint(aig)
        for key in sequence:
            operation = get_operation(key)
            step = _MEMO.step(fingerprint, operation.name)
            if step is not None:
                fingerprint, payload = step
                state = None
                continue
            if state is None:
                state = decode_aig(payload)
            state = operation(state)
            next_fingerprint = aig_fingerprint(state)
            payload = encode_aig(state)
            _MEMO.put_step(fingerprint, operation.name, next_fingerprint,
                           payload)
            fingerprint = next_fingerprint
        qor = _MEMO.qor(fingerprint, lut_size)
        if qor is None:
            if state is None:
                state = decode_aig(payload)
            mapping = LutMapper(lut_size=lut_size).map(state)
            qor = (int(mapping.area), int(mapping.delay))
            _MEMO.put_qor(fingerprint, lut_size, qor)
        return qor

    @property
    def cache_namespace(self) -> str:
        # The native namespace is the unsuffixed one: every persistent
        # cache written before backends existed was measured natively.
        return ""
