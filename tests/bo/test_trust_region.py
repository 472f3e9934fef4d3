"""Tests for the trust-region schedule and local-search maximiser."""

import numpy as np
import pytest

from repro.bo.space import SequenceSpace
from repro.bo.trust_region import TrustRegion, TrustRegionConfig, TrustRegionLocalSearch
from test_space_and_acquisition import _frozen_random_neighbour


@pytest.fixture()
def space():
    return SequenceSpace(sequence_length=8)


class TestTrustRegionSchedule:
    def test_initial_radius_defaults_to_k(self, space):
        assert TrustRegion(space).radius == 8

    def test_custom_initial_radius(self, space):
        tr = TrustRegion(space, TrustRegionConfig(initial_radius=3))
        assert tr.radius == 3

    def test_grows_after_three_successes(self, space):
        tr = TrustRegion(space, TrustRegionConfig(initial_radius=4))
        tr.update(True)
        tr.update(True)
        assert tr.radius == 4
        tr.update(True)
        assert tr.radius == 5

    def test_success_streak_resets_on_failure(self, space):
        tr = TrustRegion(space, TrustRegionConfig(initial_radius=4))
        tr.update(True)
        tr.update(True)
        tr.update(False)
        tr.update(True)
        assert tr.radius == 4

    def test_shrinks_after_twenty_failures(self, space):
        tr = TrustRegion(space, TrustRegionConfig(initial_radius=4))
        for _ in range(19):
            tr.update(False)
        assert tr.radius == 4
        tr.update(False)
        assert tr.radius == 3

    def test_radius_capped_at_sequence_length(self, space):
        tr = TrustRegion(space, TrustRegionConfig(initial_radius=8))
        for _ in range(3):
            tr.update(True)
        assert tr.radius == 8

    def test_restart_when_radius_reaches_zero(self, space):
        tr = TrustRegion(space, TrustRegionConfig(
            initial_radius=1, failure_streak_to_shrink=2))
        tr.update(False)
        tr.update(False)
        assert tr.needs_restart
        tr.restart()
        # The radius goes back to its configured initial value.
        assert tr.radius == 1
        assert tr.num_restarts == 1

    def test_restart_without_explicit_initial_radius(self, space):
        tr = TrustRegion(space, TrustRegionConfig(failure_streak_to_shrink=1))
        for _ in range(space.sequence_length):
            tr.update(False)
        assert tr.needs_restart
        tr.restart()
        assert tr.radius == space.sequence_length

    def test_contains_uses_hamming_distance(self, space):
        tr = TrustRegion(space, TrustRegionConfig(initial_radius=2))
        centre = np.zeros(8, dtype=int)
        near = centre.copy()
        near[0] = 1
        far = centre.copy()
        far[:4] = 1
        assert tr.contains(centre, near)
        assert not tr.contains(centre, far)


class TestLocalSearch:
    def test_result_stays_in_trust_region(self, space, rng):
        search = TrustRegionLocalSearch(space, num_queries=100)
        centre = space.sample(1, rng)[0]

        def acquisition(candidates):
            return np.zeros(len(candidates))

        for radius in (1, 2, 4):
            candidate, _ = search.maximise(acquisition, centre, radius, rng)
            assert space.hamming_distance(centre, candidate) <= radius

    def test_finds_known_optimum_direction(self, space, rng):
        """Acquisition that rewards operation 0 at every position."""
        search = TrustRegionLocalSearch(space, num_queries=600, num_restarts=4)
        centre = np.full(8, 5, dtype=int)

        def acquisition(candidates):
            return np.sum(np.asarray(candidates) == 0, axis=1).astype(float)

        candidate, score = search.maximise(acquisition, centre, radius=8, rng=rng)
        assert score >= 2  # hill climbing found several zeroed positions

    def test_excluded_points_not_returned(self, space, rng):
        search = TrustRegionLocalSearch(space, num_queries=50)
        centre = space.sample(1, rng)[0]
        exclude = {tuple(centre.tolist())}

        def acquisition(candidates):
            # Strongly favour the centre itself, which is excluded.
            return -np.sum(np.asarray(candidates) != centre[None, :], axis=1).astype(float)

        candidate, _ = search.maximise(acquisition, centre, radius=2, rng=rng,
                                       exclude=exclude)
        assert tuple(candidate.tolist()) not in exclude

    def test_radius_zero_returns_centre_or_fallback(self, space, rng):
        search = TrustRegionLocalSearch(space, num_queries=20)
        centre = space.sample(1, rng)[0]

        def acquisition(candidates):
            return np.ones(len(candidates))

        candidate, _ = search.maximise(acquisition, centre, radius=0, rng=rng)
        assert space.hamming_distance(centre, candidate) == 0


# ----------------------------------------------------------------------
# The lockstep search against a frozen copy of the sequential walk
# ----------------------------------------------------------------------
def _frozen_maximise(space, num_queries, num_restarts, acquisition, centre, radius,
                     rng, exclude=None, trace=None):
    """The sequential walk.  ``trace`` collects the indices of the batches
    that scored neighbours and whether the fallback point was drawn."""
    trace = trace if trace is not None else {}
    trace.update(batches=set(), fell_back=False)
    centre = np.asarray(centre, dtype=int)
    exclude = exclude if exclude is not None else set()
    queries_per_restart = max(2, num_queries // num_restarts)
    best_candidate = None
    best_score = -np.inf

    for _ in range(num_restarts):
        current = space.random_point_in_hamming_ball(centre, radius, rng)
        current_score = float(acquisition(current[None, :])[0])
        budget = queries_per_restart - 1
        batch_index = 0
        while budget > 0:
            batch_size = min(budget, 10)
            neighbours = []
            for _ in range(batch_size):
                neighbour = _frozen_random_neighbour(space, current, rng)
                if space.hamming_distance(centre, neighbour) <= radius:
                    neighbours.append(neighbour)
            budget -= batch_size
            batch_index += 1
            if not neighbours:
                continue
            trace["batches"].add(batch_index)
            neighbours = np.array(neighbours, dtype=int)
            scores = np.asarray(acquisition(neighbours), dtype=float)
            best_idx = int(np.argmax(scores))
            if scores[best_idx] > current_score:
                current = neighbours[best_idx]
                current_score = float(scores[best_idx])
            if current_score > best_score and tuple(current.tolist()) not in exclude:
                best_candidate = current.copy()
                best_score = current_score
        if best_candidate is None and tuple(current.tolist()) not in exclude:
            best_candidate = current.copy()
            best_score = current_score

    if best_candidate is None:
        trace["fell_back"] = True
        best_candidate = space.random_point_in_hamming_ball(centre, radius, rng)
        best_score = float(acquisition(best_candidate[None, :])[0])
    return best_candidate, best_score


class _RowWiseAcquisition:
    """Exact per-row scores (sums of multiples of 1/64), with call counts."""

    def __init__(self, space, rng, levels):
        self.weights = rng.integers(0, levels, size=(space.sequence_length,
                                                     space.num_operations)) / 64.0
        self.calls = 0

    def __call__(self, candidates):
        self.calls += 1
        candidates = np.asarray(candidates, dtype=int)
        columns = np.arange(candidates.shape[1])
        return self.weights[columns, candidates].sum(axis=1)


class _Ball:
    """Every sequence within ``radius`` of ``centre``, as an exclude set."""

    def __init__(self, centre, radius):
        self.centre, self.radius = np.asarray(centre), radius

    def __contains__(self, sequence):
        return int(np.sum(np.asarray(sequence) != self.centre)) <= self.radius


def _excludes(space, centre, radius, rng):
    partial = {tuple(centre.tolist())}
    for _ in range(20):
        partial.add(tuple(space.random_point_in_hamming_ball(centre, radius, rng).tolist()))
    whole = _Ball(centre, radius)
    if space.sequence_length <= 3:
        whole = {tuple(point) for point in np.ndindex(
            *(space.num_operations,) * space.sequence_length)
            if space.hamming_distance(centre, point) <= radius}
    return {"none": None, "partial": partial, "whole-region": whole}


class TestLockstepEquivalence:
    @pytest.mark.parametrize("length", [1, 3, 10, 20])
    @pytest.mark.parametrize("num_restarts", [1, 3, 5])
    def test_same_candidate_score_stream_as_sequential(self, length, num_restarts):
        alphabet = [f"op{i}" for i in range(4 if length <= 3 else 11)]
        space = SequenceSpace(sequence_length=length, alphabet=alphabet)
        setup = np.random.default_rng(1000 * length + num_restarts)
        fallbacks = 0
        for radius in sorted({0, 1, length // 2, length}):
            for num_queries in (2, 7, 50, 300):
                centre = space.sample(1, setup)[0]
                for name, exclude in _excludes(space, centre, radius, setup).items():
                    for levels in (2, 64):
                        seed = int(setup.integers(2 ** 32))
                        search = TrustRegionLocalSearch(space, num_queries, num_restarts)
                        ours_rng = np.random.default_rng(seed)
                        frozen_rng = np.random.default_rng(seed)
                        ours_acq = _RowWiseAcquisition(space, np.random.default_rng(seed), levels)
                        frozen_acq = _RowWiseAcquisition(space, np.random.default_rng(seed), levels)
                        trace = {}
                        candidate, score = search.maximise(
                            ours_acq, centre, radius, ours_rng, exclude=exclude)
                        expected, expected_score = _frozen_maximise(
                            space, num_queries, num_restarts, frozen_acq, centre, radius,
                            frozen_rng, exclude=exclude, trace=trace)
                        case = (radius, num_queries, name, levels)
                        assert np.array_equal(candidate, expected), case
                        assert isinstance(score, float), case
                        assert (np.float64(score).tobytes()
                                == np.float64(expected_score).tobytes()), case
                        assert (ours_rng.bit_generator.state
                                == frozen_rng.bit_generator.state), case
                        assert expected in _Ball(centre, radius), case
                        fell_back = trace["fell_back"]
                        assert fell_back or name != "whole-region", case
                        fallbacks += fell_back
                        steps = len(trace["batches"])
                        assert ours_acq.calls == 1 + steps + fell_back, case
        assert fallbacks > 0

    def test_one_call_per_step_with_registry_defaults(self):
        space = SequenceSpace(sequence_length=20)
        search = TrustRegionLocalSearch(space, num_queries=200, num_restarts=3)
        rng = np.random.default_rng(0)
        acquisition = _RowWiseAcquisition(space, rng, 64)
        centre = space.sample(1, rng)[0]
        search.maximise(acquisition, centre, 20, rng)
        # 66 queries per restart: one start point plus 65 neighbours in
        # seven steps, so 1 + 7 calls instead of 3 × (1 + 7).
        assert acquisition.calls == 8
