"""The declarative :class:`Campaign`: problems × methods × seeds × budget.

A campaign is the full description of an evaluation grid — the paper's
protocol is ``Campaign(problems=<10 circuits>, methods=<8 methods>,
seeds=(0..4), budget=200)`` — as one JSON-round-trippable value.  The
``REPRO_*`` environment knobs are the *explicit*
:meth:`Campaign.with_env_overrides` layer, applied exactly where the
caller asks for it, never implicitly at construction time.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.problem import Problem
from repro.registry import OPTIMISERS
from repro.qor.objectives import resolve_objective

#: Manifest/JSON schema version, bumped on incompatible layout changes.
CAMPAIGN_FORMAT_VERSION = 1


def env_int(name: str, default: int, environ: Optional[Mapping[str, str]] = None) -> int:
    """An integer environment override that warns loudly when malformed.

    ``REPRO_BUDGET=abc`` used to silently fall back to the default — and
    silently run the wrong experiment.  It still falls back, but emits a
    :class:`UserWarning` naming the variable and the offending value.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except (TypeError, ValueError):
        warnings.warn(
            f"ignoring malformed environment override {name}={raw!r} "
            f"(expected an integer); using the default {default}",
            UserWarning,
            stacklevel=2,
        )
        return default


@dataclass(frozen=True)
class CampaignCell:
    """One (problem, method, seed) grid cell of a campaign."""

    index: int
    problem: Problem
    method: str
    seed: int

    @property
    def cell_id(self) -> str:
        """Stable identifier (also the per-cell record filename stem)."""
        return f"{self.problem.key}__{self.method}__s{self.seed}"


@dataclass(frozen=True)
class Campaign:
    """A declarative evaluation campaign.

    Attributes
    ----------
    problems:
        The :class:`Problem` list (order defines cell order).
    methods:
        Registered optimiser keys.
    seeds:
        Explicit seed values — ``(0, 1, 2)`` rather than a count, so a
        campaign can extend an earlier one with fresh seeds and resume
        cheaply.
    budget:
        Black-box evaluations per cell.
    method_overrides:
        Per-method constructor keyword overrides, applied on top of the
        method's registered grid defaults.
    name:
        Campaign id recorded in manifests and progress messages.
    wall_clock_budget:
        Optional per-cell wall-clock cap in seconds, threaded into the
        drive loop as ``max_seconds``.  Resumed cells continue the
        interrupted segment's clock rather than restarting it.  Note
        that wall-clock stops are inherently machine-dependent — grids
        using this knob trade bit-reproducibility for bounded runtime.
    early_stop_improvement:
        Optional per-cell early-stop threshold: a cell ends as soon as
        its best QoR improvement (percent over the reference flow)
        reaches this value.  Deterministic, unlike the wall clock.
    eval_timeout:
        Optional per-evaluation deadline in seconds, enforced inside
        every ``compute()`` (SIGALRM).  An evaluation that blows it is
        retried per the driver's :class:`~repro.engine.faults.RetryPolicy`
        before the cell is quarantined.
    cell_timeout:
        Optional per-cell-attempt deadline in seconds, enforced by the
        campaign driver.  A cell that blows it is cancelled (its worker
        recycled under ``jobs>1``) and retried from its last checkpoint.
    """

    problems: Tuple[Problem, ...]
    methods: Tuple[str, ...] = ("boils", "rs")
    seeds: Tuple[int, ...] = (0,)
    budget: int = 20
    method_overrides: Dict[str, Dict[str, object]] = field(default_factory=dict)
    name: str = "campaign"
    wall_clock_budget: Optional[float] = None
    early_stop_improvement: Optional[float] = None
    eval_timeout: Optional[float] = None
    cell_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", tuple(
            problem if isinstance(problem, Problem) else Problem(str(problem))
            for problem in self.problems
        ))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in self.seeds))

    # ------------------------------------------------------------------
    def validate(self) -> "Campaign":
        """Resolve every registry reference; raises early on unknowns."""
        if not self.problems:
            raise ValueError("campaign has no problems")
        if not self.methods:
            raise ValueError("campaign has no methods")
        if not self.seeds:
            raise ValueError("campaign has no seeds")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ValueError("wall_clock_budget must be positive (seconds)")
        if self.eval_timeout is not None and self.eval_timeout <= 0:
            raise ValueError("eval_timeout must be positive (seconds)")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (seconds)")
        for method in self.methods:
            OPTIMISERS.get(method)
        for key in self.method_overrides:
            if key not in self.methods:
                raise ValueError(
                    f"method_overrides names {key!r}, which is not in "
                    f"methods {list(self.methods)}"
                )
        for problem in self.problems:
            problem.validate()
        keys = [problem.key for problem in self.problems]
        duplicates = {key for key in keys if keys.count(key) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate problem keys {sorted(duplicates)}: give "
                "identical problems distinct names"
            )
        return self

    def resolved(self) -> "Campaign":
        """A copy with every problem's circuit name and width pinned.

        This is what gets persisted to a run-directory manifest: widths
        resolve ``REPRO_WIDTH_SCALE`` *now*, so resuming under a
        different environment still rebuilds identical circuits.
        """
        return replace(self, problems=tuple(p.resolved() for p in self.problems))

    # ------------------------------------------------------------------
    def cells(self) -> List[CampaignCell]:
        """All grid cells, problem-major then method then seed.

        The order matches the historical serial grid runner (circuit,
        method, seed), so campaign results align with legacy tables.
        """
        out: List[CampaignCell] = []
        index = 0
        for problem in self.problems:
            for method in self.methods:
                for seed in self.seeds:
                    out.append(CampaignCell(index=index, problem=problem,
                                            method=method, seed=seed))
                    index += 1
        return out

    def overrides_for(self, method: str) -> Dict[str, object]:
        return dict(self.method_overrides.get(method, {}))

    def with_methods(self, methods: Sequence[str]) -> "Campaign":
        """A copy running only ``methods``, keeping only their overrides.

        :meth:`validate` rejects overrides for methods outside the grid
        as typos, so every grid narrowed to a subset of methods goes
        through here to drop the others' overrides with them.
        """
        methods = tuple(methods)
        return replace(
            self,
            methods=methods,
            method_overrides={key: dict(value)
                              for key, value in self.method_overrides.items()
                              if key in methods},
        )

    # ------------------------------------------------------------------
    # Environment-override layer (explicit, not ambient)
    # ------------------------------------------------------------------
    def with_env_overrides(
        self, environ: Optional[Mapping[str, str]] = None
    ) -> "Campaign":
        """Apply the ``REPRO_*`` environment knobs to this campaign.

        Reads ``REPRO_BUDGET``, ``REPRO_SEEDS`` (a seed *count* →
        ``range(n)``), ``REPRO_SEQ_LENGTH`` and ``REPRO_CIRCUIT_WIDTH``
        and returns the adjusted copy.  Nothing happens unless this
        method is called — the environment never silently steers a
        campaign.
        Malformed values warn loudly (:func:`env_int`).
        """
        environ = os.environ if environ is None else environ
        budget = env_int("REPRO_BUDGET", self.budget, environ)
        num_seeds = env_int("REPRO_SEEDS", 0, environ)
        seeds = tuple(range(num_seeds)) if num_seeds > 0 else self.seeds
        sequence_length = env_int("REPRO_SEQ_LENGTH", 0, environ)
        width = env_int("REPRO_CIRCUIT_WIDTH", 0, environ)
        problems = tuple(
            replace(
                problem,
                sequence_length=sequence_length or problem.sequence_length,
                width=width or problem.width,
            )
            for problem in self.problems
        )
        return replace(self, budget=budget, seeds=seeds, problems=problems)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": CAMPAIGN_FORMAT_VERSION,
            "name": self.name,
            "problems": [problem.to_dict() for problem in self.problems],
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "budget": self.budget,
            "method_overrides": {key: dict(value)
                                 for key, value in self.method_overrides.items()},
            "wall_clock_budget": self.wall_clock_budget,
            "early_stop_improvement": self.early_stop_improvement,
            "eval_timeout": self.eval_timeout,
            "cell_timeout": self.cell_timeout,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Campaign":
        version = int(payload.get("format_version", CAMPAIGN_FORMAT_VERSION))  # type: ignore[arg-type]
        if version > CAMPAIGN_FORMAT_VERSION:
            raise ValueError(
                f"campaign format version {version} is newer than this "
                f"repro build supports ({CAMPAIGN_FORMAT_VERSION})"
            )
        return cls(
            name=str(payload.get("name", "campaign")),
            problems=tuple(Problem.from_dict(entry)  # type: ignore[arg-type]
                           for entry in payload.get("problems", [])),
            methods=tuple(payload.get("methods", ())),  # type: ignore[arg-type]
            seeds=tuple(payload.get("seeds", (0,))),  # type: ignore[arg-type]
            budget=int(payload.get("budget", 20)),  # type: ignore[arg-type]
            method_overrides={
                str(key): dict(value)
                for key, value in dict(payload.get("method_overrides", {})).items()  # type: ignore[arg-type]
            },
            wall_clock_budget=(
                float(payload["wall_clock_budget"])  # type: ignore[arg-type]
                if payload.get("wall_clock_budget") is not None else None
            ),
            early_stop_improvement=(
                float(payload["early_stop_improvement"])  # type: ignore[arg-type]
                if payload.get("early_stop_improvement") is not None else None
            ),
            eval_timeout=(
                float(payload["eval_timeout"])  # type: ignore[arg-type]
                if payload.get("eval_timeout") is not None else None
            ),
            cell_timeout=(
                float(payload["cell_timeout"])  # type: ignore[arg-type]
                if payload.get("cell_timeout") is not None else None
            ),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Campaign":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, problem: Problem, method: str = "boils", seed: int = 0,
               budget: int = 20, **overrides: object) -> "Campaign":
        """One problem × one method × one seed."""
        method_overrides = {method: dict(overrides)} if overrides else {}
        return cls(problems=(problem,), methods=(method,), seeds=(seed,),
                   budget=budget, method_overrides=method_overrides,
                   name=f"{problem.key}-{method}")

    @classmethod
    def from_corpus(
        cls,
        corpus_dir: Union[str, Path],
        *,
        circuits: Optional[Sequence[str]] = None,
        methods: Sequence[str] = ("boils", "rs"),
        seeds: Sequence[int] = (0,),
        budget: int = 20,
        lut_size: int = 6,
        sequence_length: int = 20,
        objective: object = "eq1",
        backend: object = "native",
        name: Optional[str] = None,
        **kwargs: object,
    ) -> "Campaign":
        """A campaign over every circuit of a corpus directory.

        Expands the corpus manifest (see
        :func:`repro.circuits.corpus.corpus_problems`) into one
        file-backed :class:`Problem` per entry — mixed AIGER/BLIF/bench
        files and generated circuits alike — verifying each entry's
        content hash first.  ``circuits`` selects a subset of entries by
        manifest name.
        """
        # Imported lazily: repro.circuits.corpus builds Problems.
        from repro.circuits.corpus import corpus_problems

        problems = corpus_problems(
            corpus_dir,
            names=circuits,
            lut_size=lut_size,
            sequence_length=sequence_length,
            objective=objective,
            backend=backend,
        )
        return cls(
            problems=problems,
            methods=tuple(methods),
            seeds=tuple(seeds),
            budget=budget,
            name=name if name is not None else f"corpus-{Path(corpus_dir).name}",
            **kwargs,  # type: ignore[arg-type]
        )

    @classmethod
    def paper_protocol(cls, objective: object = "eq1") -> "Campaign":
        """The paper's full evaluation grid (hours of compute)."""
        resolve_objective(objective)
        circuits = ("adder", "bar", "div", "hyp", "log2", "max",
                    "multiplier", "sin", "sqrt", "square")
        return cls(
            name="paper-protocol",
            problems=tuple(Problem(circuit, sequence_length=20,
                                   objective=objective)
                           for circuit in circuits),
            methods=("boils", "sbo", "rs", "greedy", "ga", "a2c", "ppo",
                     "graph-rl"),
            seeds=tuple(range(5)),
            budget=200,
        )
