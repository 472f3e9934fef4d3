"""Tests for AIG simulation."""

import numpy as np
import pytest

from repro.aig.graph import AIG, lit_not
from repro.aig.simulation import (
    exhaustive_output_tables,
    functionally_equivalent,
    node_signatures,
    random_signatures,
    random_simulation,
    simulate,
    simulate_words,
)
from repro.circuits import make_adder


class TestScalarSimulation:
    def test_adder_matches_integer_arithmetic(self, small_adder):
        width = 4
        for a in range(16):
            for b in range(16):
                bits = [(a >> i) & 1 for i in range(width)] + \
                       [(b >> i) & 1 for i in range(width)]
                out = simulate(small_adder, bits)
                value = sum(bit << i for i, bit in enumerate(out))
                assert value == a + b

    def test_wrong_input_count_rejected(self, small_adder):
        with pytest.raises(ValueError):
            simulate(small_adder, [0, 1])

    def test_inverted_output(self):
        aig = AIG()
        a = aig.add_pi()
        aig.add_po(lit_not(a))
        assert simulate(aig, [0]) == [1]
        assert simulate(aig, [1]) == [0]


class TestWordSimulation:
    def test_matches_scalar_simulation(self, small_multiplier, rng):
        n = small_multiplier.num_pis
        patterns = rng.integers(0, 2, size=(16, n))
        words = np.zeros((n, 1), dtype=np.uint64)
        for p, pattern in enumerate(patterns):
            for i, bit in enumerate(pattern):
                if bit:
                    words[i, 0] |= np.uint64(1) << np.uint64(p)
        word_out = simulate_words(small_multiplier, words)
        for p, pattern in enumerate(patterns):
            expected = simulate(small_multiplier, list(pattern))
            got = [(int(word_out[o, 0]) >> p) & 1 for o in range(small_multiplier.num_pos)]
            assert got == expected

    def test_shape(self, small_adder):
        words = np.zeros((small_adder.num_pis, 3), dtype=np.uint64)
        out = simulate_words(small_adder, words)
        assert out.shape == (small_adder.num_pos, 3)

    def test_wrong_rows_rejected(self, small_adder):
        with pytest.raises(ValueError):
            simulate_words(small_adder, np.zeros((2, 1), dtype=np.uint64))

    def test_node_signatures_cover_all_vars(self, small_adder):
        sigs = node_signatures(small_adder, np.zeros((small_adder.num_pis, 1), dtype=np.uint64))
        assert sigs.shape[0] == small_adder.num_vars

    def test_random_simulation_deterministic_given_rng(self, small_adder):
        a = random_simulation(small_adder, num_words=2, rng=np.random.default_rng(5))
        b = random_simulation(small_adder, num_words=2, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("num_words", [1, 4])
    def test_random_signatures_pack_random_simulation(self, small_multiplier, num_words):
        words = random_simulation(small_multiplier, num_words=num_words,
                                  rng=np.random.default_rng(17))
        sigs = random_signatures(small_multiplier, num_words=num_words,
                                 rng=np.random.default_rng(17))
        assert sigs == [int.from_bytes(row.tobytes(), "little") for row in words]


class TestExhaustiveTables:
    def test_xor_chain_table(self, xor_chain):
        tables = exhaustive_output_tables(xor_chain)
        assert tables == [0b1001_0110]

    def test_limit_enforced(self):
        aig = AIG()
        for _ in range(17):
            aig.add_pi()
        aig.add_po(1)
        with pytest.raises(ValueError):
            exhaustive_output_tables(aig)


class TestEquivalence:
    def test_identical_graphs_equivalent(self, small_adder):
        assert functionally_equivalent(small_adder, small_adder.copy())

    def test_different_outputs_not_equivalent(self):
        a = AIG()
        x, y = a.add_pi(), a.add_pi()
        a.add_po(a.add_and(x, y))
        b = AIG()
        x, y = b.add_pi(), b.add_pi()
        b.add_po(b.add_or(x, y))
        assert not functionally_equivalent(a, b)

    def test_interface_mismatch(self):
        a = AIG()
        a.add_pi()
        a.add_po(1)
        b = AIG()
        b.add_pi()
        b.add_pi()
        b.add_po(1)
        assert not functionally_equivalent(a, b)

    def test_large_circuit_uses_random_check(self):
        big = make_adder(10)  # 20 inputs > exhaustive limit of 12
        assert functionally_equivalent(big, big.copy(), exhaustive_limit=12)
