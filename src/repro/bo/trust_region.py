"""Trust-region constrained local-search acquisition maximisation.

Section III-B2 of the paper: the acquisition is maximised only inside a
Hamming ball ``TR(ŝeq_t, ρ_t)`` centred at the best sequence found so far.
The radius follows the paper's schedule — grow by one after three
improving evaluations in a row, shrink by one after twenty non-improving
evaluations in a row, restart from a fresh random centre when it reaches
zero — and the maximisation itself is the simple stochastic hill-climbing
local search of Wan et al. (reference [16]): start from a random point in
the trust region and repeatedly move to random Hamming-distance-1
neighbours when they improve the acquisition, until the query budget is
exhausted.

:meth:`TrustRegionLocalSearch.maximise` runs its restarts in lockstep, in
three phases:

1. **Draw.**  For each restart in turn, draw its start point and then the
   ``(position, value draw)`` pair of every neighbour it will propose.  A
   move's new letter is ``draw + (draw >= current[position])``, applied
   only when the walk reaches it, so no draw depends on an acquisition
   value.  The generator therefore yields the same stream as a walk that
   finishes one restart before drawing for the next.
2. **Walk.**  Score every start point in one acquisition call.  At each
   step, build each restart's batch of up to ten neighbours from its
   pre-drawn moves, keep the ones inside the region (each restart's
   distance to the centre is tracked as ±1 per move), score them all in
   one call, and let each restart move to its best neighbour if that is
   strictly better.
3. **Select.**  Apply the sequential walk's best-tracking in restart
   order.  That walk records a restart's current point after each step
   that scored neighbours if it strictly beats the best score so far and
   is not excluded.  A restart's scores never fall, so its last record is
   its first non-excluded point, after such a step, to reach its highest
   non-excluded score; the walk tracks that point per restart, and select
   takes it if it beats the earlier restarts' best.  A restart that leaves
   no answer offers its final point; if every point was excluded, a
   fallback point is drawn last, after all other draws.

With a row-wise acquisition the answer, its score and the generator state
afterwards equal those of the sequential walk, while the number of
acquisition calls per search falls from ``restarts × (1 + steps)`` to
``1 + steps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.bo.space import SequenceSpace

#: Random neighbours each hill climb proposes per step; they are scored
#: together and the climb moves to the best of them if it improves.
_NEIGHBOURS_PER_STEP = 10


@dataclass
class TrustRegionConfig:
    """Tunables of the paper's trust-region schedule."""

    success_streak_to_grow: int = 3
    failure_streak_to_shrink: int = 20
    initial_radius: Optional[int] = None  # defaults to K (the whole space)
    min_radius: int = 0


class TrustRegion:
    """Adaptive Hamming-ball trust region around the incumbent sequence."""

    def __init__(self, space: SequenceSpace, config: Optional[TrustRegionConfig] = None) -> None:
        self.space = space
        self.config = config if config is not None else TrustRegionConfig()
        initial = self.config.initial_radius
        self.radius = space.sequence_length if initial is None else int(initial)
        self._success_streak = 0
        self._failure_streak = 0
        self.num_restarts = 0

    # ------------------------------------------------------------------
    def contains(self, centre: np.ndarray, candidate: np.ndarray) -> bool:
        """Whether ``candidate`` lies inside the current trust region."""
        return self.space.hamming_distance(centre, candidate) <= self.radius

    def update(self, improved: bool) -> None:
        """Apply the paper's radius schedule after one evaluation.

        * three improving evaluations in a row → radius + 1,
        * twenty non-improving evaluations in a row → radius − 1,
        * otherwise unchanged.
        """
        if improved:
            self._success_streak += 1
            self._failure_streak = 0
            if self._success_streak >= self.config.success_streak_to_grow:
                self.radius = min(self.space.sequence_length, self.radius + 1)
                self._success_streak = 0
        else:
            self._failure_streak += 1
            self._success_streak = 0
            if self._failure_streak >= self.config.failure_streak_to_shrink:
                self.radius = max(self.config.min_radius, self.radius - 1)
                self._failure_streak = 0

    @property
    def needs_restart(self) -> bool:
        """True when the region has collapsed to radius zero."""
        return self.radius <= 0

    def restart(self) -> None:
        """Reset the radius after the algorithm re-centres elsewhere."""
        initial = self.config.initial_radius
        self.radius = self.space.sequence_length if initial is None else int(initial)
        self._success_streak = 0
        self._failure_streak = 0
        self.num_restarts += 1

    # ------------------------------------------------------------------
    # Checkpoint / restore (the schedule is the only mutable state)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "radius": self.radius,
            "success_streak": self._success_streak,
            "failure_streak": self._failure_streak,
            "num_restarts": self.num_restarts,
        }

    def load_state_dict(self, state: dict) -> None:
        self.radius = int(state["radius"])
        self._success_streak = int(state["success_streak"])
        self._failure_streak = int(state["failure_streak"])
        self.num_restarts = int(state["num_restarts"])


class TrustRegionLocalSearch:
    """Stochastic hill climbing of an acquisition inside a trust region.

    Parameters
    ----------
    space:
        The sequence space.
    num_queries:
        Acquisition-evaluation budget per maximisation call.
    num_restarts:
        Number of independent hill-climbing starts (the best result over
        all starts is returned); each start consumes part of the query
        budget.
    """

    def __init__(self, space: SequenceSpace, num_queries: int = 500,
                 num_restarts: int = 5) -> None:
        self.space = space
        self.num_queries = num_queries
        self.num_restarts = max(1, num_restarts)

    def maximise(
        self,
        acquisition: Callable[[np.ndarray], np.ndarray],
        centre: np.ndarray,
        radius: int,
        rng: np.random.Generator,
        exclude: Optional[set] = None,
    ) -> Tuple[np.ndarray, float]:
        """Return the best sequence found inside ``TR(centre, radius)``.

        Parameters
        ----------
        acquisition:
            Vectorised acquisition: maps an ``(m, K)`` integer array to an
            ``(m,)`` score array.  It is called once for the start points,
            once per step that has an in-region neighbour, and once more
            if the fallback point is drawn.
        exclude:
            Optional set of sequence tuples that must not be returned
            (already-evaluated sequences); they may still be visited during
            the walk.
        """
        space = self.space
        centre = np.asarray(centre, dtype=int)
        exclude = exclude if exclude is not None else set()
        num_restarts = self.num_restarts
        num_moves = max(2, self.num_queries // num_restarts) - 1
        num_steps = -(-num_moves // _NEIGHBOURS_PER_STEP)

        # Draw: each restart's start point, then its neighbour moves.
        current = np.empty((num_restarts, space.sequence_length), dtype=int)
        positions = np.empty((num_restarts, num_moves), dtype=np.int64)
        draws = np.empty_like(positions)
        for restart in range(num_restarts):
            current[restart] = space.random_point_in_hamming_ball(centre, radius, rng)
            positions[restart], draws[restart] = space.random_moves(num_moves, rng)

        # Walk: every restart takes its step of the hill climb together.
        current_score = np.asarray(acquisition(current), dtype=float)
        distance = np.count_nonzero(current != centre, axis=1)
        restarts = np.arange(num_restarts)[:, None]
        # Each restart's answer: its first point, after a step that scored
        # neighbours, to reach its highest score among points not excluded.
        restart_best = np.empty_like(current)
        restart_best_score = np.full(num_restarts, -np.inf)
        for step in range(num_steps):
            batch = slice(step * _NEIGHBOURS_PER_STEP, (step + 1) * _NEIGHBOURS_PER_STEP)
            position, draw = positions[:, batch], draws[:, batch]
            old = current[restarts, position]
            new = draw + (draw >= old)
            # Moving off the centre's letter adds one to the distance;
            # moving onto it removes one.
            on_centre = centre[position]
            delta = np.where(old == on_centre, 1, -(new == on_centre).astype(int))
            owner, column = np.nonzero(distance[:, None] + delta <= radius)
            if not owner.size:
                continue
            neighbours = current[owner]
            neighbours[np.arange(owner.size), position[owner, column]] = new[owner, column]
            scores = np.asarray(acquisition(neighbours), dtype=float)
            counts = np.bincount(owner, minlength=num_restarts)
            stops = np.cumsum(counts)
            for restart in np.flatnonzero(counts).tolist():
                first = stops[restart] - counts[restart]
                best = first + int(np.argmax(scores[first:stops[restart]]))
                if scores[best] > current_score[restart]:
                    current[restart] = neighbours[best]
                    current_score[restart] = scores[best]
                    distance[restart] += delta[restart, column[best]]
                if (current_score[restart] > restart_best_score[restart]
                        and tuple(current[restart].tolist()) not in exclude):
                    restart_best[restart] = current[restart]
                    restart_best_score[restart] = current_score[restart]

        # Select: the sequential walk's best-tracking, in restart order.
        # A restart's scores never fall, so the walk's last record in it
        # is that restart's answer, kept only if it beats earlier ones.
        best_candidate: Optional[np.ndarray] = None
        best_score = -np.inf
        for restart in range(num_restarts):
            if restart_best_score[restart] > best_score:
                best_candidate = restart_best[restart].copy()
                best_score = float(restart_best_score[restart])
            if best_candidate is None and tuple(current[restart].tolist()) not in exclude:
                best_candidate = current[restart].copy()
                best_score = float(current_score[restart])

        if best_candidate is None:
            # Everything inside the region was already evaluated; fall back
            # to a random in-region point so the optimiser can keep going.
            best_candidate = space.random_point_in_hamming_ball(centre, radius, rng)
            best_score = float(acquisition(best_candidate[None, :])[0])
        return best_candidate, best_score
