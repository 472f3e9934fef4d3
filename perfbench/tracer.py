"""Layer tracing from outside the program: wrap public functions, record spans.

:func:`install` replaces the public entry points of each layer module
with thin wrappers that record one span per call: ``(name, start, end,
self_s)``, where the self time is the span's duration minus the part
covered by the wrapped calls nested inside it.  Spans stay in memory in
:attr:`Tracer.spans` and are written out once, when the traced run
ends.  Only the process that installed the tracer records; forked pool
workers inherit the wrappers but call straight through.

Span names are ``<layer>.<function>``; the layer prefix is what the
per-layer self times are grouped by.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Short names of the synthesis passes, keyed by operation name.
PASS_NAMES: Dict[str, str] = {
    "rewrite": "rw", "rewrite -z": "rwz", "refactor": "rf",
    "refactor -z": "rfz", "resub": "rs", "resub -z": "rsz",
    "balance": "b", "fraig": "fraig", "sopb": "sopb", "blut": "blut",
    "dsdb": "dsdb",
}

Span = Tuple[str, float, float, float]


class Tracer:
    """In-memory span recorder with nested self-time accounting."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.engine_metadata: List[Dict[str, object]] = []
        self._child_time: List[float] = []
        self._seen_states: set = set()

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def active(self) -> bool:
        return os.getpid() == self.pid

    def call(self, name: str, function: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` inside a span called ``name``."""
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            nested = self._child_time.pop()
            duration = end - start
            if self._child_time:
                self._child_time[-1] += duration
            self.spans.append((name, start, end, duration - nested))

    def wrap(self, owner: Any, attribute: str, name: str,
             before: Optional[Callable[..., Any]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``before(*args)`` runs ahead of the span and its return value is
        handed to ``after(token, result, *args)``, which runs once the
        span has closed: the hooks feed counters that need the call's
        arguments or result, without being timed as part of the call.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active():
                return original(*args, **kwargs)
            token = before(*args) if before is not None else None
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(token, result, *args)
            return result

        setattr(owner, attribute, wrapper)

    # ------------------------------------------------------------------
    def wrap_operation(self, operation: Any) -> None:
        """Span one synthesis pass and count repeated ``(state, pass)`` pairs."""
        from repro.qor.backends.base import aig_fingerprint

        original = operation.func
        name = f"synth.{PASS_NAMES[operation.name]}"
        tracer = self

        @functools.wraps(original)
        def apply(aig: Any) -> Any:
            if not tracer.active():
                return original(aig)
            state = (tracer.call("trace.fingerprint", aig_fingerprint, aig),
                     operation.name)
            if state in tracer._seen_states:
                tracer.count("synth.repeat_states")
            tracer._seen_states.add(state)
            return tracer.call(name, original, aig)

        # Operation is a frozen dataclass; the registry hands out these
        # very instances, so swapping ``func`` covers every caller.
        object.__setattr__(operation, "func", apply)


def install() -> Tracer:
    """Wrap every layer's public functions; returns the recording tracer."""
    from repro.api.store import CampaignStore
    from repro.baselines.genetic import GeneticAlgorithm
    from repro.bo.boils import BOiLS
    from repro.bo.trust_region import TrustRegionLocalSearch
    from repro.engine.cache import PersistentQoRCache
    from repro.engine.engine import EvaluationEngine
    from repro.engine.pool import WarmPool
    from repro.engine.spec import EvaluatorSpec
    from repro.gp.gp import GaussianProcess
    from repro.mapping.lut_mapper import LutMapper
    from repro.qor.backends.native import NativeBackend
    from repro.qor.backends.replay import ReplayBackend
    from repro.qor.evaluator import QoREvaluator
    from repro.synth.operations import list_operations

    tracer = Tracer()
    for operation in list_operations():
        tracer.wrap_operation(operation)
    tracer.wrap(LutMapper, "map", "mapping.map")
    tracer.wrap(NativeBackend, "measure", "qor.measure")
    tracer.wrap(ReplayBackend, "measure", "qor.measure")

    def evaluated(counts: Tuple[int, int], _result: Any, evaluator: Any,
                  *_: Any) -> None:
        tracer.count("qor.num_computed", evaluator.num_computed - counts[0])
        tracer.count("qor.num_persistent_hits",
                     evaluator.num_persistent_hits - counts[1])

    tracer.wrap(QoREvaluator, "evaluate_many", "qor.evaluate_many",
                before=lambda evaluator, *_: (evaluator.num_computed,
                                              evaluator.num_persistent_hits),
                after=evaluated)
    for method in ("fit_hyperparameters", "update_or_fit", "predict"):
        tracer.wrap(GaussianProcess, method, f"gp.{method}")
    tracer.wrap(TrustRegionLocalSearch, "maximise", "bo.acq_maximise")
    for optimiser in (BOiLS, GeneticAlgorithm):
        tracer.wrap(optimiser, "suggest", "bo.suggest")
        tracer.wrap(optimiser, "observe", "bo.observe")
    tracer.wrap(EvaluationEngine, "compute_batch", "engine.compute_batch")
    # Each engine's routing counters, as they stand just before shutdown.
    tracer.wrap(EvaluationEngine, "close", "engine.close",
                before=lambda engine: tracer.engine_metadata.append(
                    engine.metadata()))

    def pool_built(fresh: bool, executor: Any, *_: Any) -> None:
        if fresh:
            tracer.count("engine.pool_builds")
            _span_first_dispatch(tracer, executor)

    tracer.wrap(WarmPool, "executor", "engine.pool_executor",
                before=lambda pool: not pool.warm, after=pool_built)
    for method in ("get", "get_many", "put", "put_many"):
        tracer.wrap(PersistentQoRCache, method, f"cache.{method}")
    tracer.wrap(CampaignStore, "append_trajectory", "store.append_trajectory")
    tracer.wrap(CampaignStore, "write_checkpoint", "store.write_checkpoint",
                after=lambda _token, path, *_: tracer.count(
                    "store.write_checkpoint.bytes", path.stat().st_size))
    tracer.wrap(CampaignStore, "write_record", "store.write_record")
    tracer.wrap(EvaluatorSpec, "build_evaluator", "setup.evaluator_build")
    return tracer


def _span_first_dispatch(tracer: Tracer, executor: Any) -> None:
    """Span the first ``submit``/``map`` of a new executor: the pool start.

    A process pool forks its workers on its first dispatch, so that call
    is the pool start-up a user waits for.
    """
    pending = {"first": True}

    def one_shot(method: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(method)
        def dispatch(*args: Any, **kwargs: Any) -> Any:
            if pending["first"] and tracer.active():
                pending["first"] = False
                return tracer.call("setup.pool_start", method, *args, **kwargs)
            return method(*args, **kwargs)
        return dispatch

    # Instance attributes shadow the class methods for this executor only.
    executor.submit = one_shot(executor.submit)
    executor.map = one_shot(executor.map)
