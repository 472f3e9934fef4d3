"""``repro.api`` — the declarative public surface of the reproduction.

Five-line quickstart::

    from repro.api import Problem, run_problem

    result = run_problem(Problem("adder", sequence_length=8), "boils",
                         budget=20)
    print(result.best_improvement)

Campaigns (grids of problems × methods × seeds) with resumable run
directories::

    from repro.api import Campaign, Problem, run_campaign

    campaign = Campaign(
        problems=(Problem("adder"), Problem("sqrt", objective="area")),
        methods=("boils", "rs"), seeds=(0, 1, 2), budget=50,
    )
    records = run_campaign(campaign, store="runs/demo", jobs=4)
    # kill it at any point, then:  resume_campaign("runs/demo", jobs=4)

Everything named by string — methods, circuits, objectives — resolves
through the :mod:`repro.registry` registries, so third-party extensions
plug in via decorator or entry point without touching ``repro``
internals.  The optimisation loop itself is the ask/tell
:func:`repro.bo.base.drive` driver, re-exported here together with its
callback types.
"""

from repro.api.campaign import Campaign, CampaignCell, env_int
from repro.api.problem import Problem, objective_slug
from repro.api.run import resume_campaign, run_campaign, run_problem
from repro.api.store import CampaignStore, RunRecord, StoreError
from repro.engine.faults import (
    DeadlineExceeded,
    EngineFaultError,
    FaultEvent,
    FaultPlan,
    PoolUnrecoverableError,
    RetryPolicy,
)
from repro.bo.base import (
    BudgetExhausted,
    DriveProgress,
    EarlyStopped,
    IncumbentImproved,
    OptimisationResult,
    RoundCompleted,
    RoundStarted,
    RunEvent,
    SequenceOptimiser,
    drive,
)
from repro.qor.objectives import (
    Objective,
    parse_objective_argument,
    resolve_objective,
)
from repro.registry import (
    CIRCUITS,
    OBJECTIVES,
    OPTIMISERS,
    MethodSpec,
    Registry,
    RegistryError,
    register_objective,
    register_optimiser,
)
from repro.circuits.registry import register_circuit

__all__ = [
    "BudgetExhausted",
    "Campaign",
    "CampaignCell",
    "CampaignStore",
    "DeadlineExceeded",
    "DriveProgress",
    "EarlyStopped",
    "EngineFaultError",
    "FaultEvent",
    "FaultPlan",
    "IncumbentImproved",
    "PoolUnrecoverableError",
    "RetryPolicy",
    "RoundCompleted",
    "RoundStarted",
    "RunEvent",
    "MethodSpec",
    "Objective",
    "OptimisationResult",
    "Problem",
    "Registry",
    "RegistryError",
    "RunRecord",
    "SequenceOptimiser",
    "StoreError",
    "CIRCUITS",
    "OBJECTIVES",
    "OPTIMISERS",
    "drive",
    "env_int",
    "objective_slug",
    "parse_objective_argument",
    "register_circuit",
    "register_objective",
    "register_optimiser",
    "resolve_objective",
    "resume_campaign",
    "run_campaign",
    "run_problem",
]
