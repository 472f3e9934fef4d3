"""The :class:`SynthesisBackend` protocol — sequence → ``(area, delay)``.

The paper measures QoR by running a synthesis sequence through ABC's
optimisation + LUT-mapping flow.  This module makes *what runs that
flow* a configuration choice: a backend is any object that can measure

    ``measure(aig, sequence, lut_size) -> (area, delay)``

and name itself with a canonical, picklable ``backend_spec`` string.
:class:`repro.qor.QoREvaluator` routes every measurement — the reference
flow, the initial mapping and each tested sequence — through its
backend, so the whole stack above (engine, campaigns, CLI) selects a
backend by spec string exactly the way it selects an objective.

Built-in backends (all registered in :data:`repro.registry.BACKENDS`
and addressable by spec from JSON campaigns and the CLI):

=========== ==========================================================
``native``  the in-repo python substrate (default, bit-identical to
            the pre-backend evaluator)
``replay``  records/replays measurement tapes to JSON — hermetic tests
            and CI without synthesis work
``abc``     subprocess adapter around an external ``abc`` binary,
            guarded by the deadline/retry machinery
=========== ==========================================================

A **spec** is the JSON-round-trippable form: the bare key string for
parameterless backends (``"native"``), or a dict with the key under
``"backend"`` plus its parameters (``{"backend": "replay", "tape":
"runs/tape.json"}``).  :func:`resolve_backend` accepts a spec, a
:class:`SynthesisBackend` instance, or ``None`` (→ ``native``).

Cache namespaces
----------------
The persistent QoR cache stores raw ``(area, delay)`` pairs keyed by
circuit + LUT size.  Different backends can legitimately measure
different numbers for the same sequence (the python substrate is not
gate-identical to real ABC), so each non-native backend appends its
:attr:`~SynthesisBackend.cache_namespace` tag to the cache key
(``sha256:<hash>:lut6:abc``).  The native namespace is the empty string
— native keys are unchanged, so every existing cache stays valid.

Custom backends register a factory without touching this module::

    from repro.registry import register_backend

    @register_backend("yosys")
    class YosysBackend(SynthesisBackend):
        key = "yosys"
        def measure(self, aig, sequence, lut_size):
            ...
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from typing import Dict, Sequence, Tuple, Union

from repro.aig.graph import AIG
from repro.registry import BACKENDS, RegistryError

BackendSpec = Union[str, Dict[str, object]]

DEFAULT_BACKEND_KEY = "native"


class BackendError(RuntimeError):
    """A synthesis backend could not produce a measurement."""


class BackendUnavailable(BackendError):
    """The backend's external dependency is missing on this host."""


def aig_fingerprint(aig: AIG) -> str:
    """Stable structural hash of an AIG.

    It keys the persistent QoR cache, replay tapes and the native
    backend's synthesis memo.  It covers ``aig.name``, every node's
    variable, kind and fanin literals (so node order, PIs and dangling
    nodes count), and the PO literals in order.  It leaves out PI and PO
    *names*: two graphs that differ only in names share a fingerprint.
    No synthesis pass or mapping reads those names, so they cannot
    change a measurement.  Two structurally identical AIGs — e.g. the
    same generated circuit built in two different processes — hash to
    the same value.
    """
    digest = hashlib.sha256()
    digest.update(aig.name.encode("utf-8"))
    for node in aig.nodes():
        digest.update(
            f"{node.var}:{node.kind}:{node.fanin0}:{node.fanin1}".encode("utf-8")
        )
    for po in aig.pos:
        digest.update(f"po:{po}".encode("utf-8"))
    return digest.hexdigest()


class SynthesisBackend(ABC):
    """One way of measuring ``sequence -> (area, delay)`` on a circuit.

    Subclasses implement :meth:`measure` and set :attr:`key`; everything
    else (canonical spec, cache namespace, equality) derives from those
    plus :meth:`params`.  Backends must be *deterministic*: the same
    ``(aig, sequence, lut_size)`` always measures the same pair — the
    persistent QoR cache and the campaign resume machinery both rely on
    it.
    """

    #: Registry key (``"native"``, ``"replay"``, ``"abc"``, ...).
    key: str = ""

    @abstractmethod
    def measure(
        self, aig: AIG, sequence: Sequence[str], lut_size: int
    ) -> Tuple[int, int]:
        """Measure ``(area, delay)`` of ``sequence`` applied to ``aig``.

        ``sequence`` is a tuple of canonical operation names (may be
        empty — the initial mapping of the unoptimised circuit); the
        result is the post-``lut_size``-LUT-mapping LUT count and level
        count.  Raises :class:`BackendError` when no measurement can be
        produced.
        """

    def params(self) -> Dict[str, object]:
        """JSON-serialisable constructor parameters (spec round trip)."""
        return {}

    def spec(self) -> BackendSpec:
        """This backend's spec: bare key, or dict for parameterised ones."""
        params = self.params()
        if not params:
            return self.key
        payload: Dict[str, object] = {"backend": self.key}
        payload.update(params)
        return payload

    @property
    def backend_spec(self) -> str:
        """Canonical string spec (see :func:`canonical_backend_spec`)."""
        return canonical_backend_spec(self.spec())

    @property
    def cache_namespace(self) -> str:
        """Tag appended to persistent-QoR-cache keys for this backend.

        The empty string means "share the native namespace" — only the
        native backend may claim it, since cached pairs from different
        measurement substrates must never mix.  The default is the
        backend's slug, which for parameterised backends includes a
        content hash of the params; backends whose parameters cannot
        change measurements (e.g. a tape *path*) should override this
        with their bare key.
        """
        return backend_slug(self.spec())

    def available(self) -> bool:
        """Whether this backend can measure on this host right now."""
        return True

    def availability_note(self) -> str:
        """Human-readable reason shown when :meth:`available` is False."""
        return ""

    # Identity follows the canonical spec: two backends with the same
    # spec are interchangeable by construction (determinism contract).
    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.backend_spec})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SynthesisBackend):
            return NotImplemented
        return self.backend_spec == other.backend_spec

    def __hash__(self) -> int:
        return hash((SynthesisBackend, self.backend_spec))


def resolve_backend(
    spec: Union[BackendSpec, SynthesisBackend, None]
) -> SynthesisBackend:
    """Build a :class:`SynthesisBackend` from a spec (or pass one through).

    Accepts ``None`` (the default ``native``), a key string, a params
    dict with the key under ``"backend"``, a JSON-encoded dict string
    (the canonical wire form used inside picklable evaluator specs), or
    a :class:`SynthesisBackend` instance.
    """
    if spec is None:
        spec = DEFAULT_BACKEND_KEY
    if isinstance(spec, SynthesisBackend):
        return spec
    if isinstance(spec, str) and spec.lstrip().startswith("{"):
        spec = json.loads(spec)
    if isinstance(spec, str):
        key: str = spec
        params: Dict[str, object] = {}
    elif isinstance(spec, dict):
        params = dict(spec)
        raw_key = params.pop("backend", None)
        if not isinstance(raw_key, str):
            raise RegistryError(
                f"backend spec {spec!r} must name its key under 'backend'"
            )
        key = raw_key
    else:
        raise TypeError(f"cannot resolve a backend from {spec!r}")
    factory = BACKENDS.get(key)
    backend = factory(**params)
    if not isinstance(backend, SynthesisBackend):
        raise TypeError(
            f"backend factory for {key!r} returned {backend!r}, "
            "not a SynthesisBackend"
        )
    return backend


def canonical_backend_spec(
    spec: Union[BackendSpec, SynthesisBackend, None]
) -> str:
    """Deterministic string form of a spec (hashable, picklable, tiny).

    Mirrors :func:`repro.qor.objectives.canonical_spec_string`: bare key
    strings stay themselves, parameterised specs become sorted-key JSON.
    """
    if spec is None:
        return DEFAULT_BACKEND_KEY
    if isinstance(spec, SynthesisBackend):
        spec = spec.spec()
    if isinstance(spec, str) and spec.lstrip().startswith("{"):
        spec = json.loads(spec)
    if isinstance(spec, str):
        return spec
    return json.dumps(spec, sort_keys=True, allow_nan=False)


def backend_slug(spec: Union[BackendSpec, SynthesisBackend, None]) -> str:
    """Filename-safe identifier of a backend spec.

    Bare keys pass through (``"abc"``); parameterised specs get a short
    content hash (``"replay-1a2b3c"``) so distinct configurations never
    collide in cell ids, run directories or cache namespaces.
    """
    canonical = canonical_backend_spec(spec)
    if not canonical.lstrip().startswith("{"):
        return canonical
    key = json.loads(canonical).get("backend", "backend")
    digest = hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:6]
    return f"{key}-{digest}"


def parse_backend_argument(text: str) -> BackendSpec:
    """Parse the CLI's ``--backend`` argument into a spec.

    Accepts a bare key (``native``, ``abc``), the tape shorthands
    ``replay:TAPE`` / ``record:TAPE``, or inline JSON
    (``{"backend": "abc", "binary": "/opt/abc/abc"}``).
    """
    text = text.strip()
    if text.startswith("{"):
        parsed = json.loads(text)
        if not isinstance(parsed, dict):
            raise ValueError(f"backend JSON must be an object, got {text!r}")
        return parsed
    if ":" in text:
        key, _, tape = text.partition(":")
        key = key.strip()
        tape = tape.strip()
        if key not in ("replay", "record") or not tape:
            raise ValueError(
                f"only 'replay:TAPE' and 'record:TAPE' take ':' arguments, "
                f"got {text!r}; use JSON for parameterised custom backends"
            )
        spec: Dict[str, object] = {"backend": "replay", "tape": tape}
        if key == "record":
            spec["mode"] = "record"
        return spec
    return text
