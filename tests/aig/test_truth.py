"""Tests for truth-table utilities, NPN canonicalisation and ISOP."""

import pytest

from repro.aig import truth


class TestBasics:
    def test_table_mask(self):
        assert truth.table_mask(1) == 0b11
        assert truth.table_mask(2) == 0xF
        assert truth.table_mask(3) == 0xFF

    def test_var_table_values(self):
        # x0 over 2 vars: minterms 1 and 3.
        assert truth.var_table(0, 2) == 0b1010
        # x1 over 2 vars: minterms 2 and 3.
        assert truth.var_table(1, 2) == 0b1100

    def test_var_table_out_of_range(self):
        with pytest.raises(ValueError):
            truth.var_table(3, 2)

    def test_var_table_matches_minterm_definition(self):
        for num_vars in range(1, 11):
            for index in range(num_vars):
                expected = sum(1 << minterm for minterm in range(1 << num_vars)
                               if (minterm >> index) & 1)
                assert truth.var_table(index, num_vars) == expected

    def test_var_table_cache_never_evicts(self):
        # Cut and SOP passes ask for many (index, num_vars) keys; a cache
        # smaller than the key set thrashes and rebuilds tables.
        keys = [(index, num_vars) for num_vars in range(1, truth.MAX_VARS + 1)
                for index in range(num_vars)]
        truth.var_table.cache_clear()
        for _ in range(2):
            for key in keys:
                truth.var_table(*key)
        info = truth.var_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (len(keys), len(keys), len(keys))

    def test_const_table(self):
        assert truth.const_table(True, 2) == 0xF
        assert truth.const_table(False, 2) == 0

    def test_not_and_or_xor(self):
        x0 = truth.var_table(0, 2)
        x1 = truth.var_table(1, 2)
        assert truth.tt_and(x0, x1) == 0b1000
        assert truth.tt_or(x0, x1) == 0b1110
        assert truth.tt_xor(x0, x1) == 0b0110
        assert truth.tt_not(x0, 2) == 0b0101

    def test_count_ones_and_minterms(self):
        x0 = truth.var_table(0, 3)
        assert truth.count_ones(x0, 3) == 4
        assert truth.minterms(0b1000, 2) == [3]


class TestCofactorsAndSupport:
    def test_cofactor_of_projection(self):
        x0 = truth.var_table(0, 2)
        assert truth.cofactor(x0, 2, 0, 1) == truth.table_mask(2)
        assert truth.cofactor(x0, 2, 0, 0) == 0

    def test_depends_on(self):
        x0 = truth.var_table(0, 3)
        assert truth.depends_on(x0, 3, 0)
        assert not truth.depends_on(x0, 3, 1)

    def test_support_of_and(self):
        t = truth.tt_and(truth.var_table(0, 3), truth.var_table(2, 3))
        assert truth.support(t, 3) == [0, 2]

    def test_support_of_constant_is_empty(self):
        assert truth.support(0, 3) == []
        assert truth.support(truth.table_mask(3), 3) == []


class TestManipulation:
    def test_expand_table_preserves_function(self):
        x0 = truth.var_table(0, 2)
        expanded = truth.expand_table(x0, 2, 4)
        assert expanded == truth.var_table(0, 4)

    def test_expand_table_rejects_shrink(self):
        with pytest.raises(ValueError):
            truth.expand_table(0b1010, 2, 1)

    def test_permute_identity(self):
        t = 0b0110_1001
        assert truth.permute_table(t, 3, [0, 1, 2]) == t

    def test_permute_swap(self):
        x0 = truth.var_table(0, 2)
        swapped = truth.permute_table(x0, 2, [1, 0])
        assert swapped == truth.var_table(1, 2)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            truth.permute_table(0b1010, 2, [0, 0])

    def test_flip_input(self):
        x0 = truth.var_table(0, 2)
        assert truth.flip_input(x0, 2, 0) == truth.tt_not(x0, 2)
        # Flipping an input the function ignores leaves it unchanged.
        assert truth.flip_input(x0, 2, 1) == x0


class TestNpn:
    def test_and_or_same_class(self):
        """AND and OR are NPN-equivalent (complement inputs and output)."""
        t_and = truth.tt_and(truth.var_table(0, 2), truth.var_table(1, 2))
        t_or = truth.tt_or(truth.var_table(0, 2), truth.var_table(1, 2))
        assert truth.npn_class_key(t_and, 2) == truth.npn_class_key(t_or, 2)

    def test_xor_not_in_and_class(self):
        t_and = truth.tt_and(truth.var_table(0, 2), truth.var_table(1, 2))
        t_xor = truth.tt_xor(truth.var_table(0, 2), truth.var_table(1, 2))
        assert truth.npn_class_key(t_and, 2) != truth.npn_class_key(t_xor, 2)

    def test_canonical_is_stable_under_input_permutation(self):
        t = truth.tt_and(truth.var_table(0, 3), truth.tt_or(
            truth.var_table(1, 3), truth.var_table(2, 3)))
        permuted = truth.permute_table(t, 3, [2, 0, 1])
        assert truth.npn_class_key(t, 3) == truth.npn_class_key(permuted, 3)

    def test_canonical_is_stable_under_output_complement(self):
        t = truth.tt_xor(truth.var_table(0, 2), truth.var_table(1, 2))
        assert truth.npn_class_key(t, 2) == truth.npn_class_key(truth.tt_not(t, 2), 2)


class TestIsop:
    @pytest.mark.parametrize("table,num_vars", [
        (0b1000, 2),            # AND
        (0b0110, 2),            # XOR
        (0b1110, 2),            # OR
        (0b0110_1001, 3),       # 3-input XOR
        (0b1111_1000, 3),       # majority-ish
        (0b0000_0000, 3),       # constant 0
        (0b1111_1111, 3),       # constant 1
    ])
    def test_isop_covers_exactly(self, table, num_vars):
        cover = truth.isop(table, table, num_vars)
        assert truth.sop_table(cover, num_vars) == table & truth.table_mask(num_vars)

    def test_isop_uses_dont_cares(self):
        on = 0b1000
        upper = 0b1010  # minterm 1 is a don't care
        cover = truth.isop(on, upper, 2)
        result = truth.sop_table(cover, 2)
        assert result & on == on           # covers the on-set
        assert result & ~upper & 0xF == 0  # stays inside the upper bound

    def test_cube_table_and_literal_count(self):
        cube = (0b01, 0b10)  # x0 & ~x1
        assert truth.cube_table(cube, 2) == 0b0010
        assert truth.cube_literal_count(cube) == 2

    def test_isop_random_functions(self):
        import random

        rnd = random.Random(7)
        for num_vars in (3, 4):
            for _ in range(25):
                table = rnd.getrandbits(1 << num_vars)
                cover = truth.isop(table, table, num_vars)
                assert truth.sop_table(cover, num_vars) == table
