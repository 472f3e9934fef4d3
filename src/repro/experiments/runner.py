"""Shared machinery of the paper studies, over the public API.

* the method table is the :data:`repro.registry.OPTIMISERS` registry
  (decorator-based, entry-point extensible) — :func:`available_methods`,
  :func:`method_display_names` and :func:`make_optimiser` read it;
* a grid is a declarative :class:`repro.api.Campaign` of
  :class:`repro.api.Problem` values;
* grid execution is :func:`repro.api.run_campaign` —
  :func:`run_experiment` runs a campaign there without a store, so every
  paper study shares the campaign's cell runner.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.api import Campaign, run_campaign
from repro.bo.base import OptimisationResult, SequenceOptimiser
from repro.bo.space import SequenceSpace
from repro.registry import MethodSpec, OPTIMISERS, optimiser_spec

__all__ = [
    "MethodSpec",
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
# Running
# ----------------------------------------------------------------------
def run_experiment(
    campaign: Campaign,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[OptimisationResult]:
    """Run the full (problem × method × seed) grid of ``campaign``.

    The grid runs through :func:`repro.api.run_campaign` with no store:
    ``jobs > 1`` spreads the cells over a warm process pool, ``jobs = 1``
    runs the same cell code in-process.  Every cell builds a fresh
    evaluator (its ``resyn2`` reference flow is answered by the
    process-wide synthesis memo after the first cell on a circuit),
    which makes the result grid independent of ``jobs`` and of cell
    ordering.  Pass ``cache_dir`` to share a persistent QoR cache
    across cells, processes and repeated runs — warm entries skip the
    synthesis + mapping computation without changing any result.

    Results come back problem-major, then method, then seed.  A cell
    that fails or is quarantined raises :class:`RuntimeError` naming the
    cell and its error, so no table is ever built from a partial grid.
    """
    records = run_campaign(campaign, jobs=jobs, cache_dir=cache_dir,
                           progress=progress)
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

