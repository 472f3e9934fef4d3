"""The native backend's synthesis memo returns what synthesis would.

:class:`~repro.qor.backends.NativeBackend` memoises each pass as
``(aig_fingerprint(state), op_name) -> next state`` and each mapping as
``(aig_fingerprint(final), lut_size) -> (area, delay)``.  Two
properties make that sound, checked here on the three fuzz families
(layered, windowed, arith) and on the golden circuits:

* **The key is complete.**  Every one of the eleven passes is a
  function of what the fingerprint covers: a pass applied to the
  decoded copy of a state, to a structurally identical rebuild, or to a
  renamed copy (the fingerprint ignores PI/PO names) gives the same
  output as on the original.
* **Measurements are exact.**  One backend measures a seeded list of
  sequences with repeats, shared prefixes and both LUT sizes; every
  result equals ``LutMapper(k).map(apply_sequence(aig, seq))`` computed
  without the memo.  A memo whose key drops the op name or the LUT size
  fails that comparison.

The base seed rotates in CI (``--fuzz-seed=$GITHUB_RUN_ID``); every
failure message carries the recipe that reproduces it locally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.aig.flat import decode_aig, encode_aig
from repro.aig.graph import AIG
from repro.circuits import get_circuit
from repro.circuits.fuzz import FUZZ_KINDS, FuzzSpec
from repro.mapping.lut_mapper import LutMapper
from repro.qor.backends import NativeBackend, aig_fingerprint, native
from repro.synth.operations import (
    OPERATION_ALPHABET,
    apply_sequence,
    list_operations,
)

#: Seeded random circuits per fuzz family.
CASES_PER_KIND = 3

#: The golden suite's circuits (``tests/golden``).
GOLDEN_CIRCUITS = [("adder", 4), ("adder", 8), ("multiplier", 4), ("sqrt", 4)]

#: Sequences per circuit in the measurement property.
NUM_SEQUENCES = 12
SEQUENCE_LENGTH = 4
LUT_SIZES = (4, 6)

_AIG_CACHE: Dict[Tuple[int, str], Tuple[AIG, str]] = {}


def _circuit(fuzz_seed: int, case: str) -> Tuple[AIG, str]:
    """``case`` is ``"<kind>-<index>"`` for fuzz circuits or a golden
    ``"<name>-<width>"``; returns the circuit and its blame string."""
    key = (fuzz_seed, case)
    if key not in _AIG_CACHE:
        name, index = case.rsplit("-", 1)
        if name in FUZZ_KINDS:
            rng = np.random.default_rng(np.random.SeedSequence(
                (fuzz_seed, 0x3E30, FUZZ_KINDS.index(name), int(index))))
            spec = FuzzSpec(
                kind=name,
                seed=int(rng.integers(0, 2 ** 31)),
                num_inputs=int(rng.integers(3, 10)),
                num_gates=int(rng.integers(10, 60)),
                num_outputs=int(rng.integers(1, 5)),
                fanin_window=int(rng.integers(4, 16)),
            )
            blame = f"{spec!r} (reproduce with --fuzz-seed={fuzz_seed})"
            _AIG_CACHE[key] = (spec.build(), blame)
        else:
            _AIG_CACHE[key] = (get_circuit(name, width=int(index)), case)
    return _AIG_CACHE[key]


CASES = [f"{kind}-{i}" for kind in FUZZ_KINDS for i in range(CASES_PER_KIND)] \
    + [f"{name}-{width}" for name, width in GOLDEN_CIRCUITS]


def _rebuild(aig: AIG, renamed: bool) -> AIG:
    """The same structure built node by node (fresh caches and strash
    table), optionally with every PI and PO renamed."""
    new = AIG(name=aig.name)
    for node in aig.nodes():
        if node.is_pi:
            new.add_pi(f"renamed_{node.var}" if renamed else node.name)
        elif node.is_and:
            assert new.add_and(node.fanin0, node.fanin1) == 2 * node.var
    for index, (po, name) in enumerate(zip(aig.pos, aig.po_names)):
        new.add_po(po, f"renamed_out_{index}" if renamed else name)
    return new


def _structure(aig: AIG) -> Tuple[object, ...]:
    is_and, fanin0, fanin1 = aig.node_arrays()
    return aig.name, bytes(is_and), list(fanin0), list(fanin1), aig.pos


@pytest.fixture(autouse=True)
def _cold_memo():
    native.clear_synth_memo()
    yield
    native.clear_synth_memo()


@pytest.mark.parametrize("case", CASES)
class TestMemoKeyIsComplete:
    def test_equal_fingerprints_give_equal_pass_outputs(self, fuzz_seed, case):
        aig, blame = _circuit(fuzz_seed, case)
        decoded = decode_aig(encode_aig(aig))
        rebuilt = _rebuild(aig, renamed=False)
        renamed = _rebuild(aig, renamed=True)
        # Warm the cached level/fanout arrays on one copy only: cached
        # analysis must not change what a pass produces.
        aig.levels_array()
        aig.fanout_array()
        fingerprint = aig_fingerprint(aig)
        for copy in (decoded, rebuilt, renamed):
            assert aig_fingerprint(copy) == fingerprint, blame
        assert encode_aig(rebuilt) == encode_aig(aig), blame
        for operation in list_operations():
            expected = operation(aig)
            payload = encode_aig(expected)
            where = (blame, operation.name)
            assert encode_aig(operation(decoded)) == payload, where
            assert encode_aig(operation(rebuilt)) == payload, where
            # Names are outside the key: a renamed state must give the
            # same structure (its own names ride along).
            output = operation(renamed)
            assert aig_fingerprint(output) == aig_fingerprint(expected), where
            assert _structure(output) == _structure(expected), where


def _sequences(fuzz_seed: int, case: str) -> List[Tuple[Tuple[str, ...], int]]:
    """Seeded ``(sequence, lut_size)`` list with shared prefixes, exact
    repeats and every sequence measured at both LUT sizes."""
    rng = np.random.default_rng(
        np.random.SeedSequence((fuzz_seed, 0x3E31, CASES.index(case))))

    def draw(count: int) -> List[str]:
        return [OPERATION_ALPHABET[int(i)]
                for i in rng.integers(0, len(OPERATION_ALPHABET), size=count)]

    sequences: List[Tuple[str, ...]] = []
    for _ in range(NUM_SEQUENCES):
        if sequences and rng.random() < 0.7:
            base = sequences[int(rng.integers(0, len(sequences)))]
            keep = int(rng.integers(0, SEQUENCE_LENGTH + 1))
            sequences.append(base[:keep] + tuple(draw(SEQUENCE_LENGTH - keep)))
        else:
            sequences.append(tuple(draw(SEQUENCE_LENGTH)))
    sequences.append(())
    return [(sequence, lut_size) for sequence in sequences
            for lut_size in LUT_SIZES]


def _mismatches(fuzz_seed: int, case: str) -> List[Tuple[object, ...]]:
    """Measure every sequence through one backend and list the results
    that differ from synthesis + mapping without the memo."""
    aig, blame = _circuit(fuzz_seed, case)
    backend = NativeBackend()
    wrong: List[Tuple[object, ...]] = []
    for sequence, lut_size in _sequences(fuzz_seed, case):
        mapping = LutMapper(lut_size).map(apply_sequence(aig, sequence))
        expected = (mapping.area, mapping.delay)
        got = backend.measure(aig, sequence, lut_size)
        if got != expected:
            wrong.append((blame, sequence, lut_size, got, expected))
    return wrong


@pytest.mark.parametrize("case", CASES)
def test_memoised_measurements_equal_unmemoised(fuzz_seed, case):
    assert _mismatches(fuzz_seed, case) == []
    stats = native.synth_memo_stats()
    # The list repeats states, so the memo must have answered some.
    assert stats["synth_memo_hits"] > 0
    assert stats["synth_memo_evictions"] == 0


class _DropsOpName(native._SynthesisMemo):
    def step(self, fingerprint: str, op_name: str) -> Optional[Tuple[str, bytes]]:
        return super().step(fingerprint, "")

    def put_step(self, fingerprint: str, op_name: str,
                 next_fingerprint: str, payload: bytes) -> None:
        super().put_step(fingerprint, "", next_fingerprint, payload)


class _DropsLutSize(native._SynthesisMemo):
    def qor(self, fingerprint: str, lut_size: int) -> Optional[Tuple[int, int]]:
        return super().qor(fingerprint, 0)

    def put_qor(self, fingerprint: str, lut_size: int,
                qor: Tuple[int, int]) -> None:
        super().put_qor(fingerprint, 0, qor)


@pytest.mark.parametrize("broken", [_DropsOpName, _DropsLutSize])
@pytest.mark.parametrize("case", ["adder-4", "multiplier-4"])
def test_incomplete_key_is_caught(case, broken, monkeypatch):
    """The measurement property has teeth: a memo keyed without the op
    name or the LUT size returns wrong measurements.  The seed is fixed:
    this checks the property itself, not a fresh circuit."""
    monkeypatch.setattr(native, "_MEMO", broken(native.SYNTH_MEMO_BYTES))
    assert _mismatches(0, case) != []
