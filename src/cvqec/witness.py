"""Inseparability witness of the encoded five-mode state.

Four combinations of correlation variances, each the sum of an x-type and a
p-type term with tunable gains g1..g6, certify cluster-type entanglement when
they drop below the separable bound.  Each term is read from the exact
encoded forms of a vacuum input and ``code.source_variances``.  The bound
normalization is pinned so that unsqueezed ancillas with optimal gains sit
exactly on the boundary (value 1) and any non-zero squeezing falls below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .code import SOURCE_SYMBOLS, CodeConfig, encode, source_variances
from .exact import ZERO, LinearForm

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


@cache
def _term_forms(fourier: bool) -> dict:
    """Per combination, each term's gain slot (or None), weight sign, exact
    base b and gained quadrature m (or a zero form) and their float views."""
    modes = encode(fourier=fourier)
    out = {}
    for idx, terms in _TERMS.items():
        for quad, fixed, slot, gained in terms:
            forms = [getattr(mode, quad) for mode in modes]
            base = sum((forms[ch - 1] if w > 0 else -forms[ch - 1] for w, ch in fixed),
                       LinearForm())
            part = LinearForm() if slot is None else forms[gained[1] - 1]
            views = np.array([[float(f.coefficient(s)) for s in SOURCE_SYMBOLS]
                              for f in (base, part)])
            views.setflags(write=False)
            out.setdefault(idx, []).append((slot, gained[0] if gained else 0, base, part, views))
    return out


def _variances(cfg: CodeConfig) -> np.ndarray:
    if cfg.input_kind != "vacuum":
        raise ValueError("the witness is defined for a vacuum input state")
    if cfg.has_loss:
        raise ValueError("the witness models a lossless code: channel_loss must be 1")
    return source_variances(cfg)


def combination_value(idx: int, gains, cfg: CodeConfig):
    """Left-hand side of one witness inequality (separable bound is 1).

    ``gains`` is one vector g1..g6, giving a float, or a batch of shape
    (..., 6), giving an array of shape (...).  A term's variance is the sum
    over the source symbols s of (b_s + sign g m_s)^2 Var(s).
    """
    if idx not in _TERMS:
        raise ValueError("combination index must be 1..4")
    gains = np.asarray(gains, dtype=float)
    if gains.ndim == 0 or gains.shape[-1] != 6:
        raise ValueError("gains must have shape (6,) or (..., 6)")
    var = _variances(cfg)
    total = 0.0
    for slot, sign, _, _, (base, part) in _term_forms(cfg.fourier_mode)[idx]:
        coeff = base if slot is None else base + sign * gains[..., slot, None] * part
        total = total + coeff ** 2 @ var
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


@lru_cache(maxsize=8)
def optimize_gains(cfg: CodeConfig) -> tuple[float, ...]:
    """Closed-form minimizing gains g1..g6, made once per configuration.

    Each gained term is Var(base + s*g*m), a parabola in g with vertex
    g* = -s Cov(base, m) / Var(m), where Var(m) >= 3/32 for every valid
    configuration; each moment is exact within a class of equal variances,
    so a gain that is 0 in theory is 0.0.
    """
    var = _variances(cfg).tolist()

    def moment(u, w):
        sums = {}
        for s, v in zip(SOURCE_SYMBOLS, var):
            sums[v] = sums.get(v, ZERO) + u.coefficient(s) * w.coefficient(s)
        return math.fsum(v * float(total) for v, total in sums.items())

    gains = {slot: -sign * moment(base, part) / moment(part, part) + 0.0  # + 0.0: no -0.0
             for terms in _term_forms(cfg.fourier_mode).values()
             for slot, sign, base, part, _ in terms if slot is not None}
    return tuple(gains[slot] for slot in range(6))


def evaluate_witness(cfg: CodeConfig) -> WitnessResult:
    """Optimizes the gains and evaluates all four combinations."""
    gains = optimize_gains(cfg)
    return WitnessResult(tuple(combination_value(i, gains, cfg) for i in (1, 2, 3, 4)), gains)
