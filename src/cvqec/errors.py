"""Stochastic displacement errors and the Gaussian-mixture type.

An error hits one channel with probability gamma.  The physical modulation
(a driven sideband whose phase is slowly swept) is abstracted to a
displacement law: either a fixed magnitude with uniformly random phase, or a
single-quadrature displacement with random sign or Gaussian amplitude.
``MixtureState`` holds a weighted list of Gaussian components; the output
mixture of a round's branches is ``code.output_mixture``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAW_GENERAL = "general"
LAW_X = "x"
LAW_P = "p"

SHAPE_FIXED = "fixed"
SHAPE_GAUSSIAN = "gaussian"

PHASE_BINS = 24            # components of the general law's phase


@dataclass(frozen=True)
class ErrorLaw:
    """Distribution of the displacement added by one error event.

    ``general`` draws a fixed magnitude at a uniform phase; ``x``/``p`` displace
    a single quadrature, either by +-magnitude (``fixed``) or by a zero-mean
    Gaussian of variance magnitude^2 (``gaussian``).
    """

    kind: str = LAW_GENERAL
    magnitude: float = 1.0
    shape: str = SHAPE_FIXED

    def __post_init__(self):
        if self.kind not in (LAW_GENERAL, LAW_X, LAW_P):
            raise ValueError(f"unknown law kind {self.kind!r}")
        if self.shape not in (SHAPE_FIXED, SHAPE_GAUSSIAN):
            raise ValueError(f"unknown law shape {self.shape!r}")
        if self.kind == LAW_GENERAL and self.shape != SHAPE_FIXED:
            raise ValueError("the general law supports the fixed shape only")
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0):
            raise ValueError("magnitude must be finite and non-negative")

    def quadrature_variances(self) -> tuple[float, float]:
        """Per-sample variance (Var dx, Var dp) of the displacement series."""
        a2 = self.magnitude ** 2
        if self.kind == LAW_GENERAL:
            return 0.5 * a2, 0.5 * a2
        if self.kind == LAW_X:
            return a2, 0.0
        return 0.0, a2

    def active_quadratures(self) -> tuple[str, ...]:
        if self.kind == LAW_GENERAL:
            return ("x", "p")
        return ("x",) if self.kind == LAW_X else ("p",)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Samples a (size, 2) series of displacements (dx, dp)."""
        out = np.zeros((size, 2))
        if self.magnitude == 0:
            return out
        if self.kind == LAW_GENERAL:
            phase = rng.uniform(0.0, 2.0 * math.pi, size)
            out[:, 0] = self.magnitude * np.cos(phase)
            out[:, 1] = self.magnitude * np.sin(phase)
            return out
        col = 0 if self.kind == LAW_X else 1
        if self.shape == SHAPE_FIXED:
            out[:, col] = self.magnitude * rng.choice((-1.0, 1.0), size)
        else:
            out[:, col] = rng.normal(0.0, self.magnitude, size)
        return out

    def window_statistics(self, rng: np.random.Generator, n: int,
                          window: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean (n, 2) and centred Gram matrix (n, 2, 2) of n independent
        ``draw(rng, window)`` series.  The general law reduces its window of
        phases directly; the others form no series: a +-1 series is a
        Binomial(window, 1/2) count, a Gaussian one its independent mean and
        chi-square(window - 1) sum of squares."""
        mean, gram = np.zeros((n, 2)), np.zeros((n, 2, 2))
        a = self.magnitude
        if a == 0 or n == 0:
            return mean, gram
        if self.kind == LAW_GENERAL:
            phase = rng.uniform(0.0, 2.0 * math.pi, (n, window))
            sin = np.sin(phase)
            cos = np.cos(phase, out=phase)
            cc = np.einsum("ij,ij->i", cos, cos)
            cs = np.einsum("ij,ij->i", cos, sin)
            mean[:, 0], mean[:, 1] = cos.sum(axis=1), sin.sum(axis=1)
            mean *= a / window
            # sum of sin^2 is window - sum of cos^2
            gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1] = cc, cs, window - cc
            gram[:, 1, 0] = cs
            gram *= a * a
            gram -= window * mean[:, :, None] * mean[:, None, :]
            return mean, gram
        col = 0 if self.kind == LAW_X else 1
        if self.shape == SHAPE_FIXED:
            total = a * (2.0 * rng.binomial(window, 0.5, n) - window)
            mean[:, col] = total / window
            gram[:, col, col] = window * a * a - total * total / window
        else:
            mean[:, col] = rng.normal(0.0, a / math.sqrt(window), n)
            gram[:, col, col] = a * a * rng.chisquare(window - 1, n)
        return mean, gram

    def branch_components(self):
        """Finite decomposition ``(weight, dx, dp, (extra_var_x, extra_var_p))``.

        The general law is discretized over ``PHASE_BINS`` equally weighted
        phase bins; the Gaussian shape is a single zero-mean component whose
        spread is carried as extra variance on the displaced quadrature.
        """
        none = (0.0, 0.0)
        if self.kind == LAW_GENERAL:
            w = 1.0 / PHASE_BINS
            return [(w, self.magnitude * math.cos(t), self.magnitude * math.sin(t), none)
                    for t in (2.0 * math.pi * (k + 0.5) / PHASE_BINS
                              for k in range(PHASE_BINS))]
        if self.shape == SHAPE_GAUSSIAN:
            extra = ((self.magnitude ** 2, 0.0) if self.kind == LAW_X
                     else (0.0, self.magnitude ** 2))
            return [(1.0, 0.0, 0.0, extra)]
        if self.kind == LAW_X:
            return [(0.5, self.magnitude, 0.0, none), (0.5, -self.magnitude, 0.0, none)]
        return [(0.5, 0.0, self.magnitude, none), (0.5, 0.0, -self.magnitude, none)]


@dataclass(frozen=True)
class ErrorConfig:
    """Occurrence probability, channel policy and displacement law."""

    gamma: float = 1.0
    channel: int | str = "uniform"
    law: ErrorLaw = ErrorLaw()

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.channel != "uniform" and (type(self.channel) is not int
                                          or not 1 <= self.channel <= 5):
            raise ValueError(f"channel must be 1..5 or 'uniform', not {self.channel!r}")


@dataclass(frozen=True)
class ErrorEvent:
    """One error injected into the exact forms: whether it occurred, where,
    and a representative displacement.

    ``law`` is the generating distribution, re-drawn sample by sample over a
    syndrome window, so the error shows as excess fluctuation:
    ``syndrome_closed_form`` flags the detectors that see the law's active
    quadratures.  An event without a law is a constant (DC) displacement: it
    shifts readout means and raises no flag.
    """

    occurred: bool
    channel: int = 0
    dx: float = 0.0
    dp: float = 0.0
    law: ErrorLaw | None = None

    def __post_init__(self):
        if self.occurred and self.channel not in (1, 2, 3, 4, 5):
            raise ValueError("channel must be 1..5")
        if not self.occurred and (self.dx or self.dp):
            raise ValueError("a null event carries zero displacement")


# --------------------------------------------------------------------------
# Gaussian mixtures


@dataclass(frozen=True)
class MixtureState:
    """A normalized weighted list of single-mode Gaussian components."""

    weights: tuple[float, ...]
    means: tuple[tuple[float, float], ...]
    covs: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    def __post_init__(self):
        if len(self.weights) != len(self.means) or len(self.weights) != len(self.covs):
            raise ValueError("component lists must have equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    def __len__(self) -> int:
        return len(self.weights)

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mixture mean and covariance by the law of total variance."""
        w = np.asarray(self.weights)
        mu = np.asarray(self.means)
        covs = np.asarray(self.covs)
        mean = w @ mu
        second = np.einsum("k,kij->ij", w, covs)
        second += np.einsum("k,ki,kj->ij", w, mu, mu)
        return mean, second - np.outer(mean, mean)

    def quadrature_kurtosis_excess(self, quad: str) -> float:
        """Fourth cumulant of one quadrature marginal; zero iff effectively Gaussian."""
        q = 0 if quad == "x" else 1
        w = np.asarray(self.weights)
        mu = np.asarray(self.means)[:, q]
        var = np.asarray(self.covs)[:, q, q]
        mean = float(w @ mu)
        d = mu - mean
        m2 = float(w @ (var + d ** 2))
        m4 = float(w @ (3.0 * var ** 2 + 6.0 * var * d ** 2 + d ** 4))
        return m4 - 3.0 * m2 ** 2
