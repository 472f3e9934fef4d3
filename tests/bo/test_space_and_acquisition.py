"""Tests for the sequence space and acquisition functions."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.bo.acquisition import (
    expected_improvement,
    get_acquisition,
    probability_of_improvement,
    ucb,
)
from repro.bo.space import SequenceSpace


class TestSequenceSpace:
    def test_defaults_match_paper(self):
        space = SequenceSpace()
        assert space.sequence_length == 20
        assert space.num_operations == 11
        assert space.cardinality == 11 ** 20

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            SequenceSpace(sequence_length=0)

    def test_conversions_roundtrip(self):
        space = SequenceSpace(sequence_length=4)
        indices = np.array([0, 6, 2, 10])
        names = space.to_names(indices)
        assert names == ["rewrite", "balance", "refactor", "dsdb"]
        assert np.array_equal(space.to_indices(names), indices)

    def test_to_indices_validates_range(self):
        space = SequenceSpace(sequence_length=2)
        with pytest.raises(ValueError):
            space.to_indices([99, 0])

    def test_to_string(self):
        space = SequenceSpace(sequence_length=3)
        assert space.to_string([0, 2, 6]) == "RwRfBl"

    def test_sample_shape_and_range(self, rng):
        space = SequenceSpace(sequence_length=7)
        samples = space.sample(20, rng)
        assert samples.shape == (20, 7)
        assert samples.min() >= 0 and samples.max() < space.num_operations

    def test_latin_hypercube_spreads_categories(self, rng):
        space = SequenceSpace(sequence_length=5)
        samples = space.latin_hypercube_sample(22, rng)
        # Every operation appears exactly twice per position (22 = 2 * 11).
        for position in range(5):
            counts = np.bincount(samples[:, position], minlength=11)
            assert counts.max() - counts.min() <= 1

    def test_random_neighbour_distance(self, rng):
        space = SequenceSpace(sequence_length=8)
        base = space.sample(1, rng)[0]
        for changes in (1, 2, 3):
            neighbour = space.random_neighbour(base, rng, num_changes=changes)
            assert space.hamming_distance(base, neighbour) == changes

    def test_point_in_hamming_ball(self, rng):
        space = SequenceSpace(sequence_length=10)
        centre = space.sample(1, rng)[0]
        for radius in (0, 1, 3, 10):
            point = space.random_point_in_hamming_ball(centre, radius, rng)
            assert space.hamming_distance(centre, point) <= radius

    def test_hamming_distance_validates_length(self):
        space = SequenceSpace(sequence_length=3)
        with pytest.raises(ValueError):
            space.hamming_distance([1, 2, 3], [1, 2])

    def test_all_neighbours_count(self):
        space = SequenceSpace(sequence_length=3)
        neighbours = space.all_neighbours(np.array([0, 0, 0]))
        assert neighbours.shape == (3 * 10, 3)
        distances = {space.hamming_distance([0, 0, 0], n) for n in neighbours}
        assert distances == {1}

    def test_custom_alphabet(self):
        space = SequenceSpace(sequence_length=2, alphabet=["rewrite", "balance"])
        assert space.num_operations == 2
        assert space.to_names([1, 0]) == ["balance", "rewrite"]


class TestAcquisitions:
    def test_ei_zero_without_uncertainty_or_gain(self):
        value = expected_improvement(np.array([0.0]), np.array([1e-15]), best_value=1.0)
        assert value[0] == pytest.approx(0.0, abs=1e-9)

    def test_ei_increases_with_mean(self):
        std = np.array([0.5, 0.5])
        ei = expected_improvement(np.array([0.0, 1.0]), std, best_value=0.0)
        assert ei[1] > ei[0]

    def test_ei_increases_with_uncertainty(self):
        mean = np.array([0.0, 0.0])
        ei = expected_improvement(mean, np.array([0.1, 2.0]), best_value=0.5)
        assert ei[1] > ei[0]

    def test_pi_bounded_in_unit_interval(self, rng):
        pi = probability_of_improvement(rng.normal(size=50), np.abs(rng.normal(size=50)) + 0.1,
                                        best_value=0.0)
        assert np.all((pi >= 0) & (pi <= 1))

    def test_ucb_is_mean_plus_bonus(self):
        value = ucb(np.array([1.0]), np.array([2.0]), beta=4.0)
        assert value[0] == pytest.approx(1.0 + 2.0 * 2.0)

    def test_registry(self):
        assert get_acquisition("EI") is expected_improvement
        assert get_acquisition("ucb") is ucb
        with pytest.raises(KeyError):
            get_acquisition("entropy-search")


# ----------------------------------------------------------------------
# The hot paths against frozen copies of their previous implementations
# ----------------------------------------------------------------------
def _frozen_random_neighbour(space, sequence, rng, num_changes=1):
    sequence = np.asarray(sequence, dtype=int)
    num_changes = min(num_changes, space.sequence_length)
    positions = rng.choice(space.sequence_length, size=num_changes, replace=False)
    neighbour = sequence.copy()
    for position in positions:
        current = neighbour[position]
        choices = [i for i in range(space.num_operations) if i != current]
        neighbour[position] = rng.choice(choices)
    return neighbour


def _frozen_expected_improvement(mean, std, best_value, xi=0.0):
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best_value - xi
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def _frozen_probability_of_improvement(mean, std, best_value, xi=0.0):
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return norm.cdf((mean - best_value - xi) / std)


class TestFrozenEquivalence:
    @pytest.mark.parametrize("alphabet_size", [2, 3, 11])
    def test_random_neighbour_same_draws_and_stream(self, alphabet_size):
        alphabet = [f"op{i}" for i in range(alphabet_size)]
        for length in range(1, 21):
            space = SequenceSpace(sequence_length=length, alphabet=alphabet)
            ours, frozen = np.random.default_rng(length), np.random.default_rng(length)
            base = space.sample(1, ours)[0]
            assert np.array_equal(base, space.sample(1, frozen)[0])
            for changes in (1, 2, 5, 30):
                for _ in range(5):
                    neighbour = space.random_neighbour(base, ours, num_changes=changes)
                    expected = _frozen_random_neighbour(space, base, frozen, changes)
                    assert np.array_equal(neighbour, expected)
                    base = neighbour
            # Both generators consumed exactly the same stream.
            assert ours.integers(2 ** 62) == frozen.integers(2 ** 62)

    def test_integers_draws_what_choice_of_one_draws(self):
        # ``random_moves`` draws each position with ``rng.integers(0, K)``
        # where ``random_neighbour`` calls
        # ``rng.choice(K, size=1, replace=False)``; this pins that numpy
        # gives both the same values from the same stream.
        for length in range(1, 40):
            ours, frozen = np.random.default_rng(length), np.random.default_rng(length)
            for _ in range(200):
                assert ours.integers(0, length) == frozen.choice(
                    length, size=1, replace=False)[0]
            assert ours.bit_generator.state == frozen.bit_generator.state

    @pytest.mark.parametrize("alphabet_size", [2, 3, 11])
    def test_random_moves_are_successive_neighbours(self, alphabet_size):
        alphabet = [f"op{i}" for i in range(alphabet_size)]
        for length in (1, 2, 3, 10, 20, 39):
            space = SequenceSpace(sequence_length=length, alphabet=alphabet)
            for num_moves in (0, 1, 9, 65, 200):
                ours, frozen = np.random.default_rng(length), np.random.default_rng(length)
                current = expected = space.sample(1, ours)[0]
                space.sample(1, frozen)
                positions, draws = space.random_moves(num_moves, ours)
                assert positions.shape == draws.shape == (num_moves,)
                for position, draw in zip(positions, draws):
                    current = current.copy()
                    current[position] = draw + (draw >= current[position])
                    expected = _frozen_random_neighbour(space, expected, frozen)
                    assert np.array_equal(current, expected)
                assert ours.bit_generator.state == frozen.bit_generator.state

    def test_acquisitions_bitwise_equal(self, rng):
        mean = np.concatenate([rng.normal(scale=3.0, size=200),
                               [0.0, 1e300, -1e300, np.inf, -np.inf, 40.0, -40.0]])
        std = np.concatenate([np.abs(rng.normal(size=200)),
                              [0.0, 1.0, 1.0, 1.0, 1.0, 1e-12, 1e-12]])
        for best, xi in ((0.0, 0.0), (0.7, 0.01), (-2.0, 0.5)):
            with np.errstate(all="ignore"):
                pairs = [
                    (expected_improvement(mean, std, best, xi),
                     _frozen_expected_improvement(mean, std, best, xi)),
                    (probability_of_improvement(mean, std, best, xi),
                     _frozen_probability_of_improvement(mean, std, best, xi)),
                ]
            for ours, frozen in pairs:
                assert np.array_equal(ours, frozen, equal_nan=True)
