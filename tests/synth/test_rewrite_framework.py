"""Tests for the shared resynthesis framework (MFFC, rebuild)."""

import pytest

from repro.aig.cuts import Cut
from repro.aig.graph import AIG, lit_var
from repro.aig.simulation import functionally_equivalent
from repro.synth.rewrite_framework import (
    Replacement,
    mffc_size,
    rebuild_with_replacements,
)


@pytest.fixture()
def shared_cone():
    """Root cone where one internal node is shared with another output."""
    aig = AIG()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.add_and(a, b)
    root = aig.add_and(ab, c)
    aig.add_po(root)
    aig.add_po(ab)      # ab has an external fanout -> not in root's MFFC
    return aig, lit_var(root), lit_var(ab), [lit_var(x) for x in (a, b, c)]


class TestMffc:
    def test_exclusive_cone_counts_all(self):
        aig = AIG()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        ab = aig.add_and(a, b)
        root = aig.add_and(ab, c)
        aig.add_po(root)
        cut = Cut(tuple(sorted(lit_var(x) for x in (a, b, c))))
        assert mffc_size(aig, lit_var(root), cut, aig.fanout_counts()) == 2

    def test_shared_node_excluded(self, shared_cone):
        aig, root, ab, pis = shared_cone
        cut = Cut(tuple(sorted(pis)))
        # ``ab`` feeds a PO too, so only the root itself is in the MFFC.
        assert mffc_size(aig, root, cut, aig.fanout_counts()) == 1


class TestRebuild:
    def test_identity_rebuild_preserves_function(self, small_adder):
        rebuilt = rebuild_with_replacements(small_adder, {})
        assert functionally_equivalent(small_adder, rebuilt)
        assert rebuilt.num_ands <= small_adder.num_ands

    def test_constant_replacement_removes_cone(self):
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        x = aig.add_and(a, b)
        y = aig.add_and(x, aig.add_and(a, b) ^ 1)  # x & ~x -> constant 0
        # Actually build something non-trivially dead: out = y | a
        out = aig.add_or(y, a)
        aig.add_po(out)
        cut = Cut(tuple(sorted([lit_var(a), lit_var(b)])))
        replacement = Replacement(cut=cut, builder=lambda new, leaves, arrival: 0)
        rebuilt = rebuild_with_replacements(aig, {lit_var(y): replacement})
        assert functionally_equivalent(aig, rebuilt)
        assert rebuilt.num_ands < aig.num_ands

    def test_replacement_with_complemented_output_lit(self):
        """Builders may return complemented literals; POs must stay correct."""
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        y = aig.add_and(a, b)
        aig.add_po(y ^ 1)  # ~(a & b)
        cut = Cut(tuple(sorted([lit_var(a), lit_var(b)])))

        def builder(new, leaves, arrival):
            return new.add_and(leaves[0], leaves[1])

        rebuilt = rebuild_with_replacements(aig, {lit_var(y): Replacement(cut, builder)})
        assert functionally_equivalent(aig, rebuilt)
