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


def _entries(mean, cov):
    """The two mean and four covariance entries: floats for single moments,
    views of the last axes for stacked ones."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    m = mean.tolist() if mean.ndim == 1 else (mean[..., 0], mean[..., 1])
    if cov.ndim == 2:
        (c00, c01), (c10, c11) = cov.tolist()
    else:
        c00, c01, c10, c11 = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 0], cov[..., 1, 1]
    return m, (c00, c01, c10, c11)


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
    (m10, m11), (p00, p01, p10, p11) = _entries(mean1, cov1)
    (m20, m21), (q00, q01, q10, q11) = _entries(mean2, cov2)
    # On the unscaled entries, with s = cov1 + cov2 and d = mean2 - mean1:
    # the rescalings by 4 (covariances) and 2 (means) are powers of two,
    # exact in floating point away from overflow and underflow, so
    # D = 16 det s, L = (16 det cov1 - 1)(16 det cov2 - 1) and
    # b^T (A1 + A2)^{-1} b = d^T s^{-1} d, through the 2x2 adjugate.
    s00, s01, s10, s11 = p00 + q00, p01 + q01, p10 + q10, p11 + q11
    det_s = s00 * s11 - s01 * s10
    lam = np.maximum((16.0 * (p00 * p11 - p01 * p10) - 1.0)
                     * (16.0 * (q00 * q11 - q01 * q10) - 1.0), 0.0)
    d0, d1 = m20 - m10, m21 - m11
    # np.divide: a singular s gives numpy's inf/nan on single moments too
    quad = np.divide(s11 * d0 * d0 - (s01 + s10) * d0 * d1 + s00 * d1 * d1, det_s)
    f = 2.0 / (np.sqrt(16.0 * det_s + lam) - np.sqrt(lam)) * np.exp(-0.5 * quad)
    f = np.minimum(np.maximum(f, 0.0), 1.0)          # np.clip, without its wrapper
    return float(f) if f.ndim == 0 else f
