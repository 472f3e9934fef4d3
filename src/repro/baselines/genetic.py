"""Genetic-algorithm baseline.

Mirrors the evolutionary search the paper benchmarks (their implementation
uses the ``geneticalgorithm2`` package): a fixed-size population of
sequences evolved with tournament selection, uniform crossover,
per-position categorical mutation and elitism.  Fitness is the (negated)
QoR, and the evaluation budget is shared across generations — the run
stops mid-generation when the budget is exhausted, exactly as a
budget-limited study would run the original package.

The GA is a natural batch optimiser: each generation's population (or
offspring pool) is proposed through :meth:`GeneticAlgorithm.suggest` and
scored in one :meth:`~repro.qor.QoREvaluator.evaluate_many` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bo.base import SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.qor.evaluator import QoREvaluator, SequenceEvaluation
from repro.registry import register_optimiser
from repro.serialise import decode_array, encode_array


@dataclass
class GAConfig:
    """Evolution hyperparameters (defaults follow geneticalgorithm2's)."""

    population_size: int = 20
    mutation_probability: float = 0.1
    crossover_probability: float = 0.9
    tournament_size: int = 3
    elite_fraction: float = 0.1


@register_optimiser("ga", display_name="GA")
class GeneticAlgorithm(SequenceOptimiser):
    """Tournament-selection GA over operation sequences (the paper's GA)."""

    name = "GA"

    def __init__(
        self,
        space: Optional[SequenceSpace] = None,
        seed: int = 0,
        config: Optional[GAConfig] = None,
    ) -> None:
        super().__init__(space=space, seed=seed)
        self.config = config if config is not None else GAConfig()
        self._population: Optional[np.ndarray] = None
        self._fitness: Optional[np.ndarray] = None
        self._population_size = self.config.population_size
        self._generations = 0

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def suggest(self, n: int = 1) -> np.ndarray:
        """The next batch to score: initial population, then offspring.

        A full generation is always produced (so the random stream does
        not depend on the remaining budget) and truncated to ``n`` rows —
        matching how a budget-limited run stops mid-generation.
        """
        n = max(1, int(n))
        if self._population is None:
            rows = self.space.sample(self._population_size, self.rng)
        else:
            rows = np.array(
                self._make_offspring(self._population, self._fitness), dtype=int
            )
        return rows[:n]

    def observe(self, rows: np.ndarray, records: Sequence[SequenceEvaluation]) -> None:
        """Absorb scored rows: seed the population, then apply elitism."""
        rows = np.atleast_2d(np.asarray(rows, dtype=int))
        fitness = np.array([-record.qor for record in records], dtype=float)
        if self._population is None:
            self._population = rows.copy()
            self._fitness = fitness
        else:
            self._generations += 1
            self._population, self._fitness = self._select_survivors(
                self._population, self._fitness, rows, fitness,
            )

    # ------------------------------------------------------------------
    # Drive hooks
    # ------------------------------------------------------------------
    def prepare(self, evaluator: QoREvaluator, budget: int) -> None:
        self._population = None
        self._fitness = None
        self._population_size = min(self.config.population_size, budget)
        self._generations = 0

    def run_metadata(self) -> dict:
        return {"population_size": self._population_size,
                "num_generations": self._generations}

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        return {
            "population": encode_array(self._population),
            "fitness": encode_array(self._fitness),
            "population_size": self._population_size,
            "generations": self._generations,
        }

    def _load_state_dict(self, state: dict) -> None:
        self._population = decode_array(state["population"])
        self._fitness = decode_array(state["fitness"])
        self._population_size = int(state["population_size"])
        self._generations = int(state["generations"])

    # ------------------------------------------------------------------
    def _tournament(self, population: np.ndarray, fitness: np.ndarray) -> np.ndarray:
        """Pick one parent by tournament selection."""
        indices = self.rng.choice(len(population), size=self.config.tournament_size,
                                  replace=True)
        winner = indices[int(np.argmax(fitness[indices]))]
        return population[winner]

    def _make_offspring(self, population: np.ndarray, fitness: np.ndarray) -> List[np.ndarray]:
        """Produce one generation of children via crossover + mutation."""
        cfg = self.config
        num_children = len(population)
        children: List[np.ndarray] = []
        while len(children) < num_children:
            parent_a = self._tournament(population, fitness)
            parent_b = self._tournament(population, fitness)
            if self.rng.random() < cfg.crossover_probability:
                mask = self.rng.random(self.space.sequence_length) < 0.5
                child = np.where(mask, parent_a, parent_b)
            else:
                child = parent_a.copy()
            # Per-position categorical mutation.
            for position in range(self.space.sequence_length):
                if self.rng.random() < cfg.mutation_probability:
                    choices = [op for op in range(self.space.num_operations)
                               if op != child[position]]
                    child[position] = self.rng.choice(choices)
            children.append(child.astype(int))
        return children

    def _select_survivors(
        self,
        population: np.ndarray,
        fitness: np.ndarray,
        offspring: np.ndarray,
        offspring_fitness: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Elitist replacement: keep the best individuals of both pools."""
        elite_count = max(1, int(round(self.config.elite_fraction * len(population))))
        combined = np.vstack([population, offspring])
        combined_fitness = np.concatenate([fitness, offspring_fitness])
        order = np.argsort(-combined_fitness)
        elite = order[:elite_count]
        # Fill the rest of the next generation with the best offspring,
        # falling back to combined ranking if there are not enough children.
        remaining_slots = len(population) - elite_count
        offspring_order = np.argsort(-offspring_fitness) + len(population)
        rest = [idx for idx in offspring_order if idx not in set(elite)][:remaining_slots]
        if len(rest) < remaining_slots:
            extra = [idx for idx in order if idx not in set(elite) and idx not in set(rest)]
            rest.extend(extra[: remaining_slots - len(rest)])
        chosen = np.concatenate([elite, np.array(rest, dtype=int)]) if rest else elite
        return combined[chosen], combined_fitness[chosen]
