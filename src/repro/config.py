"""The sanctioned environment-access layer.

Every ``REPRO_*`` environment knob is read here (or in the two other
allowlisted layers: the CLI and the campaign env-override layer in
:mod:`repro.api.campaign`) and nowhere else — enforced statically by
lint rule RPL006.  Scattered ``os.environ`` reads make behaviour depend
on ambient process state that specs, manifests and checkpoints never
capture; funnelling them through one module keeps the rule simple:
callers receive a *value*, pin it into an explicit field (spec, problem,
campaign), and workers rebuild from the pinned field, never from their
own environment.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional


def env_width_scale() -> float:
    """Global circuit width multiplier (``REPRO_WIDTH_SCALE``).

    Clamped to ``>= 0.1``; malformed values fall back to ``1.0``.
    Resolved eagerly by :func:`repro.circuits.registry.resolve_width` so
    picklable evaluator specs pin the width at creation time.
    """
    raw = os.environ.get("REPRO_WIDTH_SCALE", "1.0")
    try:
        return max(0.1, float(raw))
    except ValueError:
        return 1.0


def env_cache_dir() -> Optional[Path]:
    """Persistent QoR cache directory (``REPRO_CACHE_DIR``), or ``None``."""
    raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(raw) if raw else None


def env_fault_plan() -> Optional[str]:
    """Raw fault-injection plan argument (``REPRO_FAULT_PLAN``), or ``None``.

    Returned unparsed; :meth:`repro.engine.faults.FaultPlan.from_argument`
    accepts the same inline-JSON-or-file-path form as ``--fault-plan``.
    """
    raw = os.environ.get("REPRO_FAULT_PLAN", "").strip()
    return raw or None


def env_blas_threads() -> Optional[str]:
    """The user's BLAS thread count (``OPENBLAS_NUM_THREADS``, else
    ``OMP_NUM_THREADS``), or ``None`` when neither is set.

    :func:`repro.gp.blas.pin_blas_threads` leaves BLAS alone when the
    user has chosen a thread count.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(name, "").strip()
        if raw:
            return raw
    return None
