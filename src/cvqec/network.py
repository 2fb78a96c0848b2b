"""The paper's five-mode encoding network: exact matrix, factorization,
inverse, lift.

The encoder mixes the ordered modes (a1, a2, a3, a_in, a4); column 4 is the
input mode.  All matrix entries lie in Q(sqrt2, sqrt3) and the encoder is
exactly orthogonal, so inversion is transposition.  A mode matrix is a tuple
of row tuples of ExactScalars, immutable by type; ``np.array(m, dtype=float)``
is its float view and ``tuple(zip(*m))`` its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import ExactScalar, ONE, ZERO, sqrt_of

N_MODES = 5

Matrix = tuple[tuple[ExactScalar, ...], ...]


def identity() -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(N_MODES))
                 for i in range(N_MODES))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The exact product a b."""
    # only products of two non-zero entries are formed; the shared ZERO
    # and ONE of the sparse element matrices are known without a test
    rows = [{k: x for k, x in enumerate(row)
             if x is not ZERO and (x is ONE or not x.is_zero())} for row in a]
    cols = [[(k, y) for k, y in enumerate(col)
             if y is not ZERO and (y is ONE or not y.is_zero())] for col in zip(*b)]
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            acc = None
            for k, y in col:
                x = row.get(k)
                if x is None:
                    continue
                term = y if x is ONE else (x if y is ONE else x * y)
                acc = term if acc is None else acc + term
            out_row.append(ZERO if acc is None else acc)
        out.append(tuple(out_row))
    return tuple(out)


@dataclass(frozen=True)
class BeamSplitterElement:
    """One beam-splitter B_{kl}^{sign}(T) on distinct modes k, l in 1..5,
    sign '+' or '-' and transmittance T in [0, 1], checked when built."""

    k: int
    l: int
    T: Fraction
    sign: str

    def __post_init__(self):
        if self.k == self.l or not (1 <= self.k <= N_MODES and 1 <= self.l <= N_MODES):
            raise ValueError(f"modes ({self.k}, {self.l}) are not two distinct modes in 1..5")
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign {self.sign!r} is not '+' or '-'")
        if not 0 <= self.T <= 1:
            raise ValueError(f"transmittance {self.T} is not in [0, 1]")

    def block(self) -> tuple[ExactScalar, ExactScalar, ExactScalar, ExactScalar]:
        t = sqrt_of(Fraction(self.T))
        rfl = sqrt_of(1 - Fraction(self.T))
        if self.sign == "+":
            return rfl, t, t, -rfl
        return rfl, t, -t, rfl


def element_matrix(el: BeamSplitterElement) -> Matrix:
    """The element embedded in the five-mode identity."""
    rows = [list(row) for row in identity()]
    k, l = el.k - 1, el.l - 1
    a, b, c, d = el.block()
    rows[k][k], rows[k][l] = a, b
    rows[l][k], rows[l][l] = c, d
    return tuple(map(tuple, rows))


def compose(elements: Sequence[BeamSplitterElement]) -> Matrix:
    """Ordered product of beam-splitter elements (the first acts first)."""
    out = identity()
    for el in elements:
        out = matmul(element_matrix(el), out)
    return out


# The encoder: B45^-(1/2) B34^+(1/3) B12^+(1/2) B23^+(1/4), rightmost first,
# so listed first-applied first.
ENCODER_SPEC = (
    BeamSplitterElement(2, 3, Fraction(1, 4), "+"),
    BeamSplitterElement(1, 2, Fraction(1, 2), "+"),
    BeamSplitterElement(3, 4, Fraction(1, 3), "+"),
    BeamSplitterElement(4, 5, Fraction(1, 2), "-"),
)


def encoder_matrix() -> Matrix:
    """The exact 5x5 encoding matrix, input ordering (a1, a2, a3, a_in, a4),
    built from integer coordinates."""
    q = ExactScalar.surd
    return (
        # 1/sqrt2 = sqrt2/2, sqrt3/(2 sqrt2) = sqrt6/4, 1/(2 sqrt2) = sqrt2/4
        (q(1, 2, 2), q(1, 4, 6), q(1, 4, 2), ZERO, ZERO),
        (q(1, 2, 2), q(-1, 4, 6), q(-1, 4, 2), ZERO, ZERO),
        (ZERO, q(1, 6, 6), q(-1, 2, 2), q(1, 3, 3), ZERO),
        (ZERO, q(1, 12, 6), q(-1, 4, 2), q(-1, 3, 3), q(1, 2, 2)),
        (ZERO, q(-1, 12, 6), q(1, 4, 2), q(1, 3, 3), q(1, 2, 2)),
    )


def inverse(m: Matrix) -> Matrix:
    """Inverse of an exactly orthogonal mode matrix (its transpose)."""
    transpose = tuple(zip(*m))
    if matmul(m, transpose) != identity():
        raise ValueError("mode matrix is not orthogonal")
    return transpose


def lift_to_symplectic(m: Matrix, fourier_flags: Sequence[bool] | None = None) -> np.ndarray:
    """Lifts a mode matrix to the 10 x 10 symplectic acting identically on x and p.

    Modes whose flag is set receive a 90-degree rotation (x, p) -> (-p, x)
    before the mixing matrix acts; ``fourier_flags`` holds one flag per mode.
    """
    if fourier_flags is not None and len(fourier_flags) != N_MODES:
        raise ValueError(f"{len(fourier_flags)} fourier flags for {N_MODES} modes")
    lift = np.kron(np.array(m, dtype=float), np.eye(2))
    if not (fourier_flags and any(fourier_flags)):
        return lift
    rot = np.eye(2 * N_MODES)
    for i, flag in enumerate(fourier_flags):
        if flag:
            rot[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, -1.0], [1.0, 0.0]]
    return lift @ rot
