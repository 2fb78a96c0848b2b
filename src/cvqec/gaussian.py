"""Single-mode Gaussian fidelity from moments, and noise-power conversions.

Conventions:
    * Quadratures are ordered ``(x, p)``; stacked moments carry that pair in
      their last axis.
    * Vacuum quadrature variance is 1/4 (the 0 dB shot-noise reference).
"""

from __future__ import annotations

import math

import numpy as np

VACUUM_VAR = 0.25


def variance_to_db(v: float) -> float:
    """Noise power in dB relative to the shot-noise level (vacuum variance 1/4)."""
    if v <= 0:
        raise ValueError("variance must be positive")
    return 10.0 * math.log10(v / VACUUM_VAR)


def db_to_r(squeeze_db: float) -> float:
    """Squeezing parameter r with e^{-2r} = 10^{-dB/10} (e.g. 3.5 dB -> r=0.403)."""
    if squeeze_db < 0:
        raise ValueError("squeezing level in dB must be non-negative")
    return squeeze_db * math.log(10.0) / 20.0


def _det2(a: np.ndarray) -> np.ndarray:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def fidelity_from_moments(mean1, cov1, mean2, cov2):
    """Single-mode Gaussian fidelity from raw moments, without physicality checks.

    Uses the closed form on covariances rescaled by 4 so that pure states have
    unit determinant: with A_j = 4 cov_j and D = det(A1 + A2),
    L = (det A1 - 1)(det A2 - 1),

        F = 2 / (sqrt(D + L) - sqrt(L)) * exp(-(1/2) b^T (A1 + A2)^{-1} b),

    where b = 2 (mean2 - mean1).  Suitable for empirical moments, whose
    sampling noise can leave them marginally unphysical: L is clamped at 0
    and F to [0, 1].

    Moments may be stacked, means (n, 2) with covariances (n, 2, 2), and
    broadcast against each other; the result is then an array of n
    fidelities, and a float for single moments.
    """
    a1 = 4.0 * np.asarray(cov1, dtype=float)
    a2 = 4.0 * np.asarray(cov2, dtype=float)
    total = a1 + a2
    t00, t01, t10, t11 = total[..., 0, 0], total[..., 0, 1], total[..., 1, 0], total[..., 1, 1]
    delta = t00 * t11 - t01 * t10
    lam = np.maximum((_det2(a1) - 1.0) * (_det2(a2) - 1.0), 0.0)
    beta = 2.0 * (np.asarray(mean2, dtype=float) - np.asarray(mean1, dtype=float))
    b0, b1 = beta[..., 0], beta[..., 1]
    # b^T total^{-1} b through the 2x2 adjugate
    quad = (t11 * b0 * b0 - (t01 + t10) * b0 * b1 + t00 * b1 * b1) / delta
    f = 2.0 / (np.sqrt(delta + lam) - np.sqrt(lam)) * np.exp(-0.5 * quad)
    f = np.minimum(np.maximum(f, 0.0), 1.0)          # np.clip, without its wrapper
    return float(f) if f.ndim == 0 else f
