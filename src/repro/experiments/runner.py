"""Legacy experiment machinery, now thin shims over the public API.

Historically this module owned a private ``_METHODS`` list and the
env-var-steered :class:`ExperimentConfig`.  Both have been superseded:

* the method table is the :data:`repro.registry.OPTIMISERS` registry
  (decorator-based, entry-point extensible) — :func:`available_methods`,
  :func:`method_display_names` and :func:`make_optimiser` are kept as
  compatibility wrappers;
* grid configuration is the declarative :class:`repro.api.Campaign` /
  :class:`repro.api.Problem` pair — :class:`ExperimentConfig` remains as
  a deprecated adapter (see :meth:`ExperimentConfig.to_campaign`) so
  existing scripts keep running unchanged;
* grid execution is :func:`repro.api.run_campaign` —
  :func:`run_experiment` converts the config and runs it there without
  a store, so every paper study shares the campaign's cell runner.

New code should import from :mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import Campaign, Problem, run_campaign
from repro.api.campaign import env_int
from repro.bo.base import OptimisationResult, SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.registry import MethodSpec, OPTIMISERS, optimiser_spec

__all__ = [
    "MethodSpec",
    "ExperimentConfig",
    "available_methods",
    "method_display_names",
    "make_optimiser",
    "run_experiment",
    "group_results",
]


def available_methods() -> List[str]:
    """Keys of all registered optimisation methods."""
    return OPTIMISERS.keys()


def method_display_names() -> Dict[str, str]:
    """Mapping from registry key to the display name used in tables."""
    return {key: optimiser_spec(key).display_name for key in OPTIMISERS.keys()}


def make_optimiser(
    key: str,
    space: Optional[SequenceSpace] = None,
    seed: int = 0,
    **overrides: object,
) -> SequenceOptimiser:
    """Instantiate an optimiser from its registry key.

    Applies the method's registered grid defaults first, then any
    explicit ``overrides`` — identical precedence to the historical
    ``_METHODS`` table.
    """
    spec = optimiser_spec(key)
    kwargs = dict(spec.defaults)
    kwargs.update(overrides)
    return spec.factory(space=space, seed=seed, **kwargs)


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
def _env_int(name: str, default: int) -> int:
    """An integer environment override, warning loudly when malformed.

    Delegates to :func:`repro.api.campaign.env_int`: a typo like
    ``REPRO_BUDGET=abc`` still falls back to the default, but emits a
    :class:`UserWarning` naming the variable and the value instead of
    silently running the wrong experiment.
    """
    return env_int(name, default)


@dataclass
class ExperimentConfig:
    """Grid configuration shared by the legacy experiment entry points.

    .. deprecated::
        New code should build a :class:`repro.api.Campaign` (declarative,
        JSON-round-trippable, resumable); this class remains as an
        adapter for existing scripts and converts via
        :meth:`to_campaign`.  Environment overrides are read at
        *instantiation* time (not import time) through :func:`_env_int`,
        which warns on malformed values.

    The paper's setting is ``budget=200`` (``1000`` for the extended
    sample-efficiency study), ``num_seeds=5``, ``sequence_length=20`` on
    the full-size EPFL circuits; the defaults here are scaled down so the
    benchmark suite completes quickly.
    """

    budget: int = field(default_factory=lambda: _env_int("REPRO_BUDGET", 12))
    num_seeds: int = field(default_factory=lambda: _env_int("REPRO_SEEDS", 2))
    sequence_length: int = field(default_factory=lambda: _env_int("REPRO_SEQ_LENGTH", 8))
    circuit_width: Optional[int] = field(
        default_factory=lambda: _env_int("REPRO_CIRCUIT_WIDTH", 0) or None
    )
    methods: Sequence[str] = ("boils", "sbo", "ga", "rs", "greedy", "a2c")
    circuits: Sequence[str] = ("adder", "bar", "div", "hyp", "log2", "max",
                               "multiplier", "sin", "sqrt", "square")
    lut_size: int = 6
    objective: object = "eq1"
    method_overrides: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def space(self) -> SequenceSpace:
        return SequenceSpace(sequence_length=self.sequence_length)

    def to_campaign(self, name: str = "experiment") -> Campaign:
        """The equivalent declarative :class:`repro.api.Campaign`."""
        problems = tuple(
            Problem(
                circuit=circuit,
                width=self.circuit_width,
                lut_size=self.lut_size,
                sequence_length=self.sequence_length,
                objective=self.objective,
            )
            for circuit in self.circuits
        )
        return Campaign(
            name=name,
            problems=problems,
            methods=tuple(self.methods),
            seeds=tuple(range(self.num_seeds)),
            budget=self.budget,
            # Legacy semantics: overrides for methods outside the grid are
            # simply unused, while Campaign.validate treats them as typos —
            # drop them here so every valid config converts cleanly.
            method_overrides={k: dict(v) for k, v in self.method_overrides.items()
                              if k in self.methods},
        )

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The configuration matching the paper's protocol."""
        return cls(budget=200, num_seeds=5, sequence_length=20, circuit_width=None)

    @classmethod
    def quick(cls, circuits: Sequence[str] = ("adder", "sqrt"),
              methods: Sequence[str] = ("boils", "rs")) -> "ExperimentConfig":
        """A minimal configuration used by tests and CI benchmarks."""
        return cls(budget=8, num_seeds=1, sequence_length=5, circuit_width=None,
                   circuits=circuits, methods=methods)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_experiment(
    config: ExperimentConfig,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[OptimisationResult]:
    """Run the full (method × circuit × seed) grid described by ``config``.

    The grid runs as :meth:`ExperimentConfig.to_campaign` through
    :func:`repro.api.run_campaign` with no store: ``jobs > 1`` spreads
    the cells over a warm process pool, ``jobs = 1`` runs the same cell
    code in-process.  Every cell starts from a fresh per-run evaluator
    state (the ``resyn2`` reference mapping is still shared per circuit
    within a process), which makes the result grid independent of
    ``jobs`` and of cell ordering.  Pass ``cache_dir`` to share a
    persistent QoR cache across cells, processes and repeated runs —
    warm entries skip the synthesis + mapping computation without
    changing any result.

    Results come back circuit-major, then method, then seed.  A cell
    that fails or is quarantined raises :class:`RuntimeError` naming the
    cell and its error, so no table is ever built from a partial grid.
    """
    records = run_campaign(config.to_campaign(), jobs=jobs,
                           cache_dir=cache_dir, progress=progress)
    unfinished = [record for record in records if not record.ok]
    if unfinished:
        details = "; ".join(
            f"{record.cell_id} {record.status}: {record.metadata.get('error')}"
            for record in unfinished
        )
        raise RuntimeError(
            f"{len(unfinished)} of {len(records)} experiment cells did not "
            f"finish: {details}"
        )
    return [record.to_result() for record in records]


def group_results(results: Sequence[OptimisationResult]) -> Dict[str, Dict[str, List[OptimisationResult]]]:
    """Group run results as ``{method: {circuit: [runs across seeds]}}``."""
    grouped: Dict[str, Dict[str, List[OptimisationResult]]] = {}
    for result in results:
        grouped.setdefault(result.method, {}).setdefault(result.circuit, []).append(result)
    return grouped
