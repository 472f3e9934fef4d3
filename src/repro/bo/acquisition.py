"""Acquisition functions.

The paper's BOiLS uses expected improvement (EI); probability of
improvement and UCB are provided as alternatives (Section III-A2 notes
"other options are possible") and exercised by the ablation benchmarks.
All acquisitions are written for *maximisation* of the modelled objective,
matching the paper's convention of modelling ``-QoR``.

The standard normal CDF and PDF are evaluated directly (``ndtr`` and the
Gaussian formula, as ``scipy.stats.norm`` computes them), which gives
the same bits as ``norm.cdf``/``norm.pdf`` without their per-call
argument handling.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-z ** 2 / 2.0) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best_value: float, xi: float = 0.0
) -> np.ndarray:
    """EI(x) = E[max(g(x) − g⁺ − ξ, 0)] under the GP posterior.

    Parameters
    ----------
    mean, std:
        Posterior mean and standard deviation of the modelled objective
        (which BOiLS maximises).
    best_value:
        Best observed objective value ``g⁺`` so far.
    xi:
        Optional exploration bonus.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best_value - xi
    z = improvement / std
    return improvement * ndtr(z) + std * _normal_pdf(z)


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best_value: float, xi: float = 0.0
) -> np.ndarray:
    """PI(x) = P[g(x) > g⁺ + ξ]."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    z = (mean - best_value - xi) / std
    return ndtr(z)


def ucb(mean: np.ndarray, std: np.ndarray, beta: float = 2.0) -> np.ndarray:
    """Upper confidence bound ``μ + √β·σ``."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return mean + np.sqrt(beta) * std


ACQUISITIONS = {
    "ei": expected_improvement,
    "pi": probability_of_improvement,
    "ucb": ucb,
}


def get_acquisition(name: str):
    """Look up an acquisition function by short name (``ei``, ``pi``, ``ucb``)."""
    key = name.lower()
    if key not in ACQUISITIONS:
        raise KeyError(f"unknown acquisition {name!r}; available: {sorted(ACQUISITIONS)}")
    return ACQUISITIONS[key]
