"""Inseparability witness of the encoded five-mode state.

Four combinations of correlation variances, each the sum of an x-type and a
p-type term with tunable gains g1..g6, certify cluster-type entanglement when
they drop below the separable bound.  Variances are quadratic forms v^T C v on
the lossless encoded covariance C = F F^T of a vacuum input, with F the
encoder of ``code.PipelineMaps``, the float view of the exact encoded forms,
times the source standard deviations.  The bound normalization is pinned so
that unsqueezed ancillas with optimal gains sit exactly on the boundary
(value 1) and any non-zero squeezing falls below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .code import CodeConfig, _network_symplectics, _source_sigma

SEPARABLE_BOUND = 1.0

# The squeezing grid of the witness experiment, without an r sweep, and of
# acceptance criterion 10's monotonicity check.
R_GRID = (0.0, 0.2, 0.4, 0.8, 1.6)

# Each term: (quadrature, fixed parts as (weight, channel), gain slot 0..5 or
# None, gained part as (weight sign, channel)).  Channels are 1-based.
_TERMS = {
    1: (("x", ((1, 1), (1, 2)), None, None),
        ("p", ((1, 2), (-1, 1)), 2, (-1, 3))),          # g3
    2: (("p", ((1, 2), (-1, 3)), 0, (-1, 1)),           # g1
        ("x", ((1, 3), (1, 2)), 3, (1, 4))),            # g4
    3: (("x", ((1, 3), (1, 4)), 1, (1, 2)),             # g2
        ("p", ((1, 4), (-1, 3)), 4, (-1, 5))),          # g5
    4: (("p", ((1, 4), (-1, 5)), 5, (-1, 3)),           # g6
        ("x", ((1, 4), (1, 5)), None, None)),
}


@lru_cache(maxsize=8)
def _encoded_factor(cfg: CodeConfig) -> np.ndarray:
    """F with F F^T the lossless encoded covariance S_enc diag(sigma^2)
    S_enc^T over the interleaved (x, p) quadratures of channels 1..5, made
    once per configuration and read-only."""
    if cfg.input_kind != "vacuum":
        raise ValueError("the witness is defined for a vacuum input state")
    if cfg.has_loss:
        raise ValueError("the witness models a lossless code: channel_loss must be 1")
    factor = _network_symplectics(cfg.fourier_mode)[0] * _source_sigma(cfg)
    factor.setflags(write=False)
    return factor


def _index(channel: int, quad: str) -> int:
    return 2 * (channel - 1) + (0 if quad == "x" else 1)


def _weights(quad: str, parts) -> np.ndarray:
    """The vector v of sum(weight * quad of channel) over (weight, channel)."""
    v = np.zeros(10)
    for weight, channel in parts:
        v[_index(channel, quad)] += weight
    return v


def combination_value(idx: int, gains, cfg: CodeConfig):
    """Left-hand side of one witness inequality (separable bound is 1).

    ``gains`` is one vector g1..g6, giving a float, or a batch of shape
    (..., 6), giving an array of shape (...).  Each term's variance is
    |w F|^2 for its (..., 10) weight vectors w.
    """
    if idx not in _TERMS:
        raise ValueError("combination index must be 1..4")
    gains = np.asarray(gains, dtype=float)
    if gains.ndim == 0 or gains.shape[-1] != 6:
        raise ValueError("gains must have shape (6,) or (..., 6)")
    factor = _encoded_factor(cfg)
    total = 0.0
    for quad, fixed, slot, gained in _TERMS[idx]:
        weights = np.broadcast_to(_weights(quad, fixed), gains.shape[:-1] + (10,)).copy()
        if slot is not None:
            weights[..., _index(gained[1], quad)] += gained[0] * gains[..., slot]
        total = total + np.sum((weights @ factor) ** 2, axis=-1)
    return float(total) if gains.ndim == 1 else total


@dataclass(frozen=True)
class WitnessResult:
    """The four combination values with the gains that minimize them."""

    values: tuple[float, float, float, float]
    gains: tuple[float, float, float, float, float, float]

    @property
    def satisfied(self) -> tuple[bool, ...]:
        return tuple(v < SEPARABLE_BOUND for v in self.values)

    def all_satisfied(self) -> bool:
        return all(self.satisfied)

    def to_dict(self) -> dict:
        return {
            "values": list(self.values),
            "gains": list(self.gains),
            "satisfied": list(self.satisfied),
            "bound": SEPARABLE_BOUND,
        }


def optimize_gains(cfg: CodeConfig) -> tuple[float, ...]:
    """Closed-form minimizing gains g1..g6.

    Each gained term is Var(base + s*g*m), a parabola in g with vertex
    g* = -s Cov(base, m) / Var(m), i.e. -s (b^T C m) / (m^T C m) on the
    encoded covariance, where Var(m) >= 3/32 for every valid configuration.
    """
    factor = _encoded_factor(cfg)
    gains = [0.0] * 6
    for terms in _TERMS.values():
        for quad, fixed, slot, gained in terms:
            if slot is None:
                continue
            sign, ch = gained
            base = _weights(quad, fixed) @ factor
            part = factor[_index(ch, quad)]
            gains[slot] = -sign * float(base @ part) / float(part @ part)
    return tuple(gains)


def evaluate_witness(cfg: CodeConfig) -> WitnessResult:
    """Optimizes the gains and evaluates all four combinations."""
    gains = optimize_gains(cfg)
    return WitnessResult(tuple(combination_value(i, gains, cfg) for i in (1, 2, 3, 4)), gains)
