"""The combinatorial search space ``Alg^K`` of synthesis sequences.

Sequences are represented internally as integer vectors of length ``K``
with entries in ``{0, …, n-1}`` indexing the operation alphabet; the space
object converts between integer, name and mnemonic representations,
samples uniformly or by Latin hypercube, and enumerates Hamming
neighbourhoods (needed by the trust-region local search and the genetic
algorithm's mutation operator).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.synth.operations import (
    OPERATION_ALPHABET,
    sequence_to_indices,
    sequence_to_names,
    sequence_to_string,
)


class SequenceSpace:
    """Search space of operation sequences of fixed length ``K``.

    Parameters
    ----------
    sequence_length:
        Number of operations per sequence (the paper uses ``K = 20``).
    alphabet:
        Operation names; defaults to the paper's eleven-operation alphabet.
    """

    def __init__(self, sequence_length: int = 20,
                 alphabet: Optional[Sequence[str]] = None) -> None:
        if sequence_length < 1:
            raise ValueError("sequence_length must be positive")
        self.sequence_length = sequence_length
        self.alphabet: List[str] = list(alphabet if alphabet is not None else OPERATION_ALPHABET)
        if not self.alphabet:
            raise ValueError("alphabet must not be empty")
        self.num_operations = len(self.alphabet)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_names(self, indices: Sequence[int]) -> List[str]:
        """Convert an integer vector into operation names.

        Negative indices are rejected: ``-1`` is the batch protocol's
        variable-length padding sentinel (see
        :meth:`repro.bo.base.SequenceOptimiser.suggest`) and must be
        stripped before conversion, not silently wrapped to the last
        alphabet entry.
        """
        result = []
        for i in indices:
            index = int(i)
            if index < 0:
                raise ValueError(
                    f"negative operation index {index}: strip -1 padding "
                    "sentinels before converting a protocol row to names"
                )
            result.append(self.alphabet[index])
        return result

    def to_indices(self, sequence: Sequence[Union[str, int]]) -> np.ndarray:
        """Convert a sequence of names/indices into an integer vector."""
        result = []
        for item in sequence:
            if isinstance(item, (int, np.integer)):
                index = int(item)
                if not 0 <= index < self.num_operations:
                    raise ValueError(f"operation index {index} out of range")
                result.append(index)
            else:
                result.append(self.alphabet.index(str(item)))
        return np.array(result, dtype=int)

    def to_string(self, indices: Sequence[int]) -> str:
        """Mnemonic rendering (``RwRfDs…``) of an integer vector."""
        return sequence_to_string(self.to_names(indices))

    @property
    def cardinality(self) -> int:
        """|Alg^K| = n^K — the size of the search space."""
        return self.num_operations ** self.sequence_length

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, num_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random sequences, shape ``(num_samples, K)``."""
        return rng.integers(0, self.num_operations, size=(num_samples, self.sequence_length))

    def latin_hypercube_sample(self, num_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Latin-hypercube-style stratified categorical sampling.

        Each position's categories are spread as evenly as possible across
        the samples (the categorical analogue of pymoo's LHS initialiser
        used for the paper's random-search baseline).
        """
        samples = np.zeros((num_samples, self.sequence_length), dtype=int)
        for position in range(self.sequence_length):
            # Evenly cover the categories, then shuffle the assignment.
            strata = np.array(
                [i % self.num_operations for i in range(num_samples)], dtype=int
            )
            rng.shuffle(strata)
            samples[:, position] = strata
        return samples

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------
    def random_neighbour(self, sequence: np.ndarray, rng: np.random.Generator,
                         num_changes: int = 1) -> np.ndarray:
        """A sequence at Hamming distance exactly ``num_changes``."""
        sequence = np.asarray(sequence, dtype=int)
        num_changes = min(num_changes, self.sequence_length)
        positions = rng.choice(self.sequence_length, size=num_changes, replace=False)
        neighbour = sequence.copy()
        for position in positions:
            # A uniform draw over the other n − 1 operations: the same
            # draw ``rng.choice`` makes from the list of them.
            draw = rng.integers(0, self.num_operations - 1)
            neighbour[position] = draw + (draw >= neighbour[position])
        return neighbour

    def random_moves(self, num_moves: int, rng: np.random.Generator
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """The draws of ``num_moves`` successive single-change neighbours.

        Returns ``(positions, draws)``: ``num_moves`` successive calls of
        :meth:`random_neighbour` consume exactly this stream, in the same
        order, and move ``positions[i]`` of their current sequence ``s``
        to ``draws[i] + (draws[i] >= s[positions[i]])``.  One broadcast
        ``rng.integers`` call makes all ``2 · num_moves`` draws.
        """
        highs = np.empty((num_moves, 2), dtype=np.int64)
        highs[:, 0] = self.sequence_length
        highs[:, 1] = self.num_operations - 1
        draws = rng.integers(0, highs)
        return draws[:, 0], draws[:, 1]

    def random_point_in_hamming_ball(
        self, centre: np.ndarray, radius: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform-ish sample within Hamming distance ``radius`` of ``centre``."""
        radius = int(np.clip(radius, 0, self.sequence_length))
        if radius == 0:
            return np.asarray(centre, dtype=int).copy()
        num_changes = int(rng.integers(1, radius + 1))
        return self.random_neighbour(centre, rng, num_changes=num_changes)

    @staticmethod
    def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
        """Number of positions at which two sequences differ."""
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        if a.shape != b.shape:
            raise ValueError("sequences must have equal length")
        return int(np.sum(a != b))

    def all_neighbours(self, sequence: np.ndarray) -> np.ndarray:
        """All sequences at Hamming distance exactly one (K·(n−1) of them)."""
        sequence = np.asarray(sequence, dtype=int)
        neighbours = []
        for position in range(self.sequence_length):
            for op in range(self.num_operations):
                if op == sequence[position]:
                    continue
                neighbour = sequence.copy()
                neighbour[position] = op
                neighbours.append(neighbour)
        return np.array(neighbours, dtype=int)
