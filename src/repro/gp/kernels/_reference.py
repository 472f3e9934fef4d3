"""Reference SSK Gram computation: the original dynamic program, kept for tests.

Preserves the full-tensor gap-weighted dynamic program exactly as it
shipped before :mod:`repro.gp.kernels.ssk` was optimised (it is now an
explicit feature map).  The two sum the same non-negative terms in a different order, so
the golden equivalence suite asserts they agree to roundoff (relative
``1e-12``), not bitwise; the GP-fitting benchmark measures the speedup
ratio the CI perf gate tracks.  Do not optimise this file.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.signal import lfilter

from repro.gp.kernels.ssk import SubsequenceStringKernel


def _discounted_cumsum(values: np.ndarray, decay: float, axis: int) -> np.ndarray:
    return lfilter([1.0], [1.0, -decay], values, axis=axis)


def ssk_gram_reference(
    X: np.ndarray,
    Y: np.ndarray,
    theta_match: float,
    theta_gap: float,
    max_length: int,
) -> np.ndarray:
    """The original (N, M, L, L') full-tensor DP, rebuilt on every call."""
    X = np.atleast_2d(np.asarray(X))
    Y = np.atleast_2d(np.asarray(Y))
    n, len_x = X.shape
    m, len_y = Y.shape
    match = (X[:, None, :, None] == Y[None, :, None, :]).astype(float)

    gram = np.zeros((n, m), dtype=float)
    prev_d: Optional[np.ndarray] = None
    for p in range(1, max_length + 1):
        if p == 1:
            m_p = match.copy()
        else:
            assert prev_d is not None
            shifted = np.zeros_like(prev_d)
            shifted[:, :, 1:, 1:] = prev_d[:, :, :-1, :-1]
            m_p = match * shifted
        gram += (theta_match ** (2 * p)) * m_p.sum(axis=(2, 3))
        if p < max_length:
            inner = _discounted_cumsum(m_p, theta_gap, axis=2)
            prev_d = _discounted_cumsum(inner, theta_gap, axis=3)
    return gram


def ssk_diag_reference(
    X: np.ndarray, theta_match: float, theta_gap: float, max_length: int
) -> np.ndarray:
    """The original per-row diagonal DP, rebuilt on every call."""
    X = np.atleast_2d(np.asarray(X))
    n, length = X.shape
    match = (X[:, :, None] == X[:, None, :]).astype(float)
    diag = np.zeros(n, dtype=float)
    prev_d: Optional[np.ndarray] = None
    for p in range(1, max_length + 1):
        if p == 1:
            m_p = match.copy()
        else:
            assert prev_d is not None
            shifted = np.zeros_like(prev_d)
            shifted[:, 1:, 1:] = prev_d[:, :-1, :-1]
            m_p = match * shifted
        diag += (theta_match ** (2 * p)) * m_p.sum(axis=(1, 2))
        if p < max_length:
            inner = _discounted_cumsum(m_p, theta_gap, axis=1)
            prev_d = _discounted_cumsum(inner, theta_gap, axis=2)
    return diag


class ReferenceSubsequenceStringKernel(SubsequenceStringKernel):
    """SSK kernel evaluated through the uncached reference DP."""

    def __call__(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        symmetric = Y is None
        Y = X if symmetric else np.atleast_2d(np.asarray(Y))
        theta_m = self._params["theta_match"]
        theta_g = self._params["theta_gap"]
        gram = ssk_gram_reference(X, Y, theta_m, theta_g, self.max_subsequence_length)
        if self.normalize:
            diag_x = ssk_diag_reference(X, theta_m, theta_g, self.max_subsequence_length)
            diag_y = diag_x if symmetric else ssk_diag_reference(
                Y, theta_m, theta_g, self.max_subsequence_length
            )
            denom = np.sqrt(np.outer(np.maximum(diag_x, 1e-12), np.maximum(diag_y, 1e-12)))
            gram = gram / denom
        return self._params["variance"] * gram

    def diag(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        if self.normalize:
            return np.full(X.shape[0], self._params["variance"])
        theta_m = self._params["theta_match"]
        theta_g = self._params["theta_gap"]
        return self._params["variance"] * ssk_diag_reference(
            X, theta_m, theta_g, self.max_subsequence_length
        )
