"""Gaussian-state engine: means, covariances, symplectic maps, losses and fidelity.

Conventions:
    * Quadratures are interleaved, ``(x1, p1, ..., xn, pn)``.
    * Vacuum quadrature variance is 1/4 (the 0 dB shot-noise reference).
    * Mode matrices act identically on the x and p blocks; the only x/p mixer
      is the 90-degree Fourier rotation, which has its own constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VAR = 0.25

_SYM_TOL = 1e-12
_PHYS_TOL = 1e-9
_SYMPLECTIC_TOL = 1e-10


def omega(n: int) -> np.ndarray:
    """The symplectic form on n modes in interleaved ordering."""
    w = np.zeros((2 * n, 2 * n))
    for i in range(n):
        w[2 * i, 2 * i + 1] = 1.0
        w[2 * i + 1, 2 * i] = -1.0
    return w


def variance_to_db(v: float) -> float:
    """Noise power in dB relative to the shot-noise level (vacuum variance 1/4)."""
    if v <= 0:
        raise ValueError("variance must be positive")
    return 10.0 * math.log10(v / VACUUM_VAR)


def db_to_variance(db: float) -> float:
    return VACUUM_VAR * 10.0 ** (db / 10.0)


def db_to_r(squeeze_db: float) -> float:
    """Squeezing parameter r with e^{-2r} = 10^{-dB/10} (e.g. 3.5 dB -> r=0.403)."""
    if squeeze_db < 0:
        raise ValueError("squeezing level in dB must be non-negative")
    return squeeze_db * math.log(10.0) / 20.0


class NonPhysicalStateError(ValueError):
    """Raised when a covariance matrix violates the uncertainty relation."""


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state."""

    n: int
    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, n: int, mean, cov, validate: bool = True):
        mean = np.asarray(mean, dtype=float).reshape(2 * n)
        cov = np.asarray(cov, dtype=float).reshape(2 * n, 2 * n)
        if validate:
            if np.max(np.abs(cov - cov.T)) > _SYM_TOL:
                raise ValueError("covariance matrix is not symmetric")
            cov = 0.5 * (cov + cov.T)
            herm = cov + 0.25j * omega(n)
            min_eig = float(np.linalg.eigvalsh(herm)[0])
            if min_eig < -_PHYS_TOL:
                raise NonPhysicalStateError(
                    f"covariance violates the uncertainty relation (min eig {min_eig:.3e})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @staticmethod
    def vacuum(n: int = 1) -> "GaussianState":
        return GaussianState(n, np.zeros(2 * n), VACUUM_VAR * np.eye(2 * n))

    def purity_det(self) -> float:
        """det(4 cov); equals 1 for pure states."""
        return float(np.linalg.det(4.0 * self.cov))

    def is_pure(self, tol: float = 1e-6) -> bool:
        return abs(self.purity_det() - 1.0) < tol


def join(states: list[GaussianState]) -> GaussianState:
    """Tensor product of independent Gaussian states (block-diagonal covariance)."""
    n = sum(s.n for s in states)
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((2 * n, 2 * n))
    k = 0
    for s in states:
        cov[k:k + 2 * s.n, k:k + 2 * s.n] = s.cov
        k += 2 * s.n
    return GaussianState(n, mean, cov, validate=False)


def squeezed_vacuum(r: float, orientation: str = "amplitude",
                    antisqueeze_excess: float = 0.0) -> GaussianState:
    """Single-mode squeezed vacuum with optional impure anti-squeezing.

    Args:
        r: squeezing parameter (>= 0); the squeezed variance is (1/4) e^{-2r}.
        orientation: ``"amplitude"`` squeezes x, ``"phase"`` squeezes p.
        antisqueeze_excess: fractional excess on the anti-squeezed variance,
            (1/4) e^{+2r} (1 + excess); 0 gives a pure state.
    """
    if r < 0:
        raise ValueError("squeezing parameter must be non-negative")
    if antisqueeze_excess < 0:
        raise ValueError("antisqueeze excess must be non-negative")
    v_sq = VACUUM_VAR * math.exp(-2.0 * r)
    v_anti = VACUUM_VAR * math.exp(2.0 * r) * (1.0 + antisqueeze_excess)
    if orientation == "amplitude":
        cov = np.diag([v_sq, v_anti])
    elif orientation == "phase":
        cov = np.diag([v_anti, v_sq])
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return GaussianState(1, np.zeros(2), cov)


@dataclass(frozen=True, eq=False)
class SymplecticOp:
    """An affine Gaussian unitary: mean -> S mean + d, cov -> S cov S^T."""

    S: np.ndarray
    d: np.ndarray

    def __init__(self, S, d=None, validate: bool = True):
        S = np.asarray(S, dtype=float)
        n2 = S.shape[0]
        if S.shape != (n2, n2) or n2 % 2:
            raise ValueError("S must be 2n x 2n")
        d = np.zeros(n2) if d is None else np.asarray(d, dtype=float).reshape(n2)
        if validate:
            w = omega(n2 // 2)
            if np.max(np.abs(S @ w @ S.T - w)) > _SYMPLECTIC_TOL:
                raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.S.shape[0] // 2

    @staticmethod
    def identity(n: int) -> "SymplecticOp":
        return SymplecticOp(np.eye(2 * n), validate=False)

    @staticmethod
    def displacement(d) -> "SymplecticOp":
        d = np.asarray(d, dtype=float)
        return SymplecticOp(np.eye(d.size), d, validate=False)

    @staticmethod
    def from_mode_matrix(m: np.ndarray) -> "SymplecticOp":
        """Lifts a real n x n mode matrix to act identically on x and p."""
        m = np.asarray(m, dtype=float)
        return SymplecticOp(np.kron(m, np.eye(2)))

    @staticmethod
    def fourier(n: int, modes) -> "SymplecticOp":
        """90-degree rotation (x, p) -> (-p, x) on the listed modes."""
        S = np.eye(2 * n)
        for k in modes:
            S[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[0.0, -1.0], [1.0, 0.0]]
        return SymplecticOp(S, validate=False)

    def then(self, other: "SymplecticOp") -> "SymplecticOp":
        """Composition applying ``self`` first, then ``other``."""
        return SymplecticOp(other.S @ self.S, other.S @ self.d + other.d,
                            validate=False)


def beamsplitter_symplectic(k: int, l: int, T: float, sign: str, n: int) -> SymplecticOp:
    """Two-mode beam-splitter on modes k, l (0-based) embedded in n modes.

    The mode matrix is ``[[sqrt(1-T), sqrt(T)], [s*sqrt(T), -s*sqrt(1-T)]]``
    with ``s = +1`` or ``-1``.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    if k == l:
        raise ValueError("beam-splitter modes must differ")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    t, rfl = math.sqrt(T), math.sqrt(1.0 - T)
    m = np.eye(n)
    m[k, k], m[k, l] = rfl, t
    m[l, k], m[l, l] = s * t, -s * rfl
    return SymplecticOp.from_mode_matrix(m)


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    if op.n != state.n:
        raise ValueError("mode count mismatch")
    mean = op.S @ state.mean + op.d
    cov = op.S @ state.cov @ op.S.T
    return GaussianState(state.n, mean, cov, validate=False)


def loss_channel(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure-loss channel of transmissivity eta on one mode (vacuum admixture)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    scale = np.ones(2 * state.n)
    scale[2 * mode:2 * mode + 2] = math.sqrt(eta)
    mean = scale * state.mean
    cov = state.cov * np.outer(scale, scale)
    cov = cov.copy()
    cov[2 * mode, 2 * mode] += (1.0 - eta) * VACUUM_VAR
    cov[2 * mode + 1, 2 * mode + 1] += (1.0 - eta) * VACUUM_VAR
    return GaussianState(state.n, mean, cov, validate=False)


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
    delta = _det2(total)
    lam = np.maximum((_det2(a1) - 1.0) * (_det2(a2) - 1.0), 0.0)
    beta = 2.0 * (np.asarray(mean2, dtype=float) - np.asarray(mean1, dtype=float))
    b0, b1 = beta[..., 0], beta[..., 1]
    # b^T total^{-1} b through the 2x2 adjugate
    quad = (total[..., 1, 1] * b0 * b0 - (total[..., 0, 1] + total[..., 1, 0]) * b0 * b1
            + total[..., 0, 0] * b1 * b1) / delta
    f = np.clip(2.0 / (np.sqrt(delta + lam) - np.sqrt(lam)) * np.exp(-0.5 * quad), 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def fidelity_gaussian(s1: GaussianState, s2: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode Gaussian states (see fidelity_from_moments)."""
    if s1.n != 1 or s2.n != 1:
        raise ValueError("fidelity implemented for single-mode states only")
    for s in (s1, s2):
        herm = s.cov + 0.25j * omega(1)
        if float(np.linalg.eigvalsh(herm)[0]) < -_PHYS_TOL:
            raise NonPhysicalStateError("covariance violates the uncertainty relation")
    return fidelity_from_moments(s1.mean, s1.cov, s2.mean, s2.cov)


def sample(state: GaussianState, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draws quadrature samples from the state's multivariate normal."""
    eigs = np.linalg.eigvalsh(state.cov)
    if eigs[0] < -_PHYS_TOL:
        raise ValueError("covariance is not positive semidefinite")
    return rng.multivariate_normal(state.mean, state.cov, size=size)
