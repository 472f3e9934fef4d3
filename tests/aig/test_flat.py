"""Tests for the flat AIG byte codec (:mod:`repro.aig.flat`)."""

import pytest

from repro.aig.flat import decode_aig, encode_aig
from repro.aig.graph import AIG
from repro.circuits import get_circuit
from repro.circuits.fuzz import FUZZ_KINDS, FuzzSpec
from repro.qor.backends import aig_fingerprint


def _assert_identical(clone: AIG, aig: AIG) -> None:
    assert aig_fingerprint(clone) == aig_fingerprint(aig)
    assert clone.node_arrays() == aig.node_arrays()
    assert clone.pis == aig.pis
    assert clone.pos == aig.pos
    assert clone.po_names == aig.po_names
    assert [clone.node(v).name for v in clone.pis] == \
        [aig.node(v).name for v in aig.pis]
    assert clone.name == aig.name


class TestFlatCodec:
    def test_encode_decode_is_bit_identical(self):
        aig = get_circuit("adder", width=4)
        clone = decode_aig(encode_aig(aig))
        _assert_identical(clone, aig)
        assert encode_aig(clone) == encode_aig(aig)

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_round_trip_on_fuzz_families(self, kind):
        aig = FuzzSpec(kind=kind, seed=11, num_inputs=6, num_gates=40,
                       num_outputs=3).build()
        clone = decode_aig(encode_aig(aig))
        _assert_identical(clone, aig)
        # The rebuilt structural-hashing table matches: re-adding an
        # existing AND node reuses it in both graphs.
        for node in aig.and_nodes():
            assert clone.add_and(node.fanin0, node.fanin1) == 2 * node.var

    def test_unnamed_pis_and_pos_round_trip(self):
        aig = AIG(name="anon")
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(aig.add_and(a, b ^ 1))
        aig.add_po(1)
        clone = decode_aig(encode_aig(aig))
        _assert_identical(clone, aig)
        assert clone.po_names == [None, None]

    def test_decode_rejects_corrupt_payloads(self):
        payload = encode_aig(get_circuit("adder", width=4))
        with pytest.raises(ValueError, match="magic"):
            decode_aig(b"XXXX" + payload[4:])
        with pytest.raises(ValueError, match="trailing"):
            decode_aig(payload + b"\x00")

    def test_from_flat_arrays_validates_shape(self):
        with pytest.raises(ValueError, match="equal length"):
            AIG.from_flat_arrays(name="x", is_and=[0, 0], fanin0=[0],
                                 fanin1=[0, 0], pi_names=["a"], pos=[],
                                 po_names=[])
        with pytest.raises(ValueError, match="constant"):
            AIG.from_flat_arrays(name="x", is_and=[1], fanin0=[0],
                                 fanin1=[0], pi_names=[], pos=[],
                                 po_names=[])
