"""The five-mode encoding network: exact matrix, factorization, inverse, lift.

The encoder mixes the ordered modes (a1, a2, a3, a_in, a4); column 4 is the
input mode.  All matrix entries lie in Q(sqrt2, sqrt3) and the encoder is
exactly orthogonal, so inversion is transposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .exact import ExactScalar, ONE, ZERO, sqrt_of
from .gaussian import SymplecticOp


class ModeMatrix:
    """A real mode-mixing matrix with exact entries and a float view."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence]):
        clean = []
        width = None
        for row in rows:
            entries = tuple(e if isinstance(e, ExactScalar) else ExactScalar(e)
                            for e in row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged matrix")
            clean.append(entries)
        if width != len(clean):
            raise ValueError("mode matrix must be square")
        object.__setattr__(self, "_rows", tuple(clean))

    @classmethod
    def _of(cls, rows) -> "ModeMatrix":
        """A matrix from square rows of ExactScalars, without the checks."""
        out = cls.__new__(cls)
        object.__setattr__(out, "_rows", tuple(map(tuple, rows)))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ModeMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "ModeMatrix":
        return ModeMatrix._of([[ONE if i == j else ZERO for j in range(n)]
                               for i in range(n)])

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self):
        return self._rows

    def entry(self, i: int, j: int) -> ExactScalar:
        return self._rows[i][j]

    def transpose(self) -> "ModeMatrix":
        return ModeMatrix._of(zip(*self._rows))

    def __matmul__(self, other: "ModeMatrix") -> "ModeMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        # only products of two non-zero entries are formed; the shared ZERO
        # and ONE of the sparse element matrices are known without a test
        rows = [{k: a for k, a in enumerate(row)
                 if a is not ZERO and (a is ONE or not a.is_zero())} for row in self._rows]
        cols = [[(k, b) for k, b in enumerate(col)
                 if b is not ZERO and (b is ONE or not b.is_zero())]
                for col in zip(*other._rows)]
        out = []
        for row in rows:
            out_row = []
            for col in cols:
                acc = None
                for k, b in col:
                    a = row.get(k)
                    if a is None:
                        continue
                    term = b if a is ONE else (a if b is ONE else a * b)
                    acc = term if acc is None else acc + term
                out_row.append(ZERO if acc is None else acc)
            out.append(out_row)
        return ModeMatrix._of(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def is_orthogonal(self) -> bool:
        prod = self @ self.transpose()
        n = self.n
        return all(prod.entry(i, j) == (ONE if i == j else ZERO)
                   for i in range(n) for j in range(n))

    def as_array(self) -> np.ndarray:
        return np.array([[float(e) for e in row] for row in self._rows])

    def __str__(self) -> str:
        return "\n".join("  ".join(str(e) for e in row) for row in self._rows)


@dataclass(frozen=True)
class BeamSplitterElement:
    """One beam-splitter B_{kl}^{sign}(T); mode labels k, l are 1-based."""

    k: int
    l: int
    T: Fraction
    sign: str

    def __post_init__(self):
        if self.k == self.l:
            raise ValueError("beam-splitter modes must differ")
        if not 0 <= self.T <= 1:
            raise ValueError("transmittance must lie in [0, 1]")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")

    def block(self) -> tuple[ExactScalar, ExactScalar, ExactScalar, ExactScalar]:
        t = sqrt_of(Fraction(self.T))
        rfl = sqrt_of(1 - Fraction(self.T))
        if self.sign == "+":
            return rfl, t, t, -rfl
        return rfl, t, -t, rfl


@dataclass(frozen=True)
class SwapElement:
    """Exchange of two mode positions (used to re-route a2 and a3)."""

    k: int
    l: int

    def __post_init__(self):
        if self.k == self.l:
            raise ValueError("swap modes must differ")


Element = Union[BeamSplitterElement, SwapElement]


def _parse_transmittance(value) -> Fraction:
    """Transmittance from JSON: a number (snapped to a small exact fraction,
    so 0.3333... reads back as 1/3) or a fraction string like "1/3"."""
    if isinstance(value, str):
        return Fraction(value)
    exact = Fraction(value).limit_denominator(10 ** 6)
    return exact


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered beam-splitter circuit; elements are listed first-applied first."""

    elements: tuple[Element, ...] = ()
    fourier: tuple[bool, ...] = (False,) * 5
    n_modes: int = 5

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "fourier", tuple(bool(f) for f in self.fourier))
        if len(self.fourier) != self.n_modes:
            raise ValueError("fourier flag list must have one entry per mode")
        for el in self.elements:
            if not 1 <= el.k <= self.n_modes or not 1 <= el.l <= self.n_modes:
                raise ValueError("mode labels must lie in 1..n_modes")

    def to_json(self) -> str:
        elements = []
        for el in self.elements:
            if isinstance(el, SwapElement):
                elements.append({"k": el.k, "l": el.l, "swap": True})
            else:
                elements.append({"k": el.k, "l": el.l,
                                 "T": float(el.T), "sign": el.sign})
        return json.dumps({"elements": elements, "fourier": list(self.fourier)},
                          sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "NetworkSpec":
        doc = json.loads(text)
        unknown = set(doc) - {"elements", "fourier"}
        if unknown:
            raise ValueError(f"unknown network keys: {sorted(unknown)}")
        elements = []
        for item in doc.get("elements", []):
            if item.get("swap"):
                unknown = set(item) - {"k", "l", "swap"}
                if unknown:
                    raise ValueError(f"unknown swap keys: {sorted(unknown)}")
                elements.append(SwapElement(item["k"], item["l"]))
            else:
                unknown = set(item) - {"k", "l", "T", "sign"}
                if unknown:
                    raise ValueError(f"unknown element keys: {sorted(unknown)}")
                elements.append(BeamSplitterElement(
                    item["k"], item["l"], _parse_transmittance(item["T"]),
                    item["sign"]))
        fourier = tuple(doc.get("fourier", [False] * 5))
        return NetworkSpec(tuple(elements), fourier)


def element_matrix(el: Element, n: int) -> ModeMatrix:
    """The element embedded in the n-mode identity (1-based mode labels)."""
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    k, l = el.k - 1, el.l - 1
    if isinstance(el, SwapElement):
        rows[k][k] = rows[l][l] = ZERO
        rows[k][l] = rows[l][k] = ONE
    else:
        a, b, c, d = el.block()
        rows[k][k], rows[k][l] = a, b
        rows[l][k], rows[l][l] = c, d
    return ModeMatrix._of(rows)


def compose(spec: NetworkSpec) -> ModeMatrix:
    """Ordered product of the network's elements (first element acts first)."""
    out = ModeMatrix.identity(spec.n_modes)
    for el in spec.elements:
        out = element_matrix(el, spec.n_modes) @ out
    return out


# The encoder: B45^-(1/2) B34^+(1/3) B12^+(1/2) B23^+(1/4), rightmost first.
ENCODER_SPEC = NetworkSpec((
    BeamSplitterElement(2, 3, Fraction(1, 4), "+"),
    BeamSplitterElement(1, 2, Fraction(1, 2), "+"),
    BeamSplitterElement(3, 4, Fraction(1, 3), "+"),
    BeamSplitterElement(4, 5, Fraction(1, 2), "-"),
))


def encoder_matrix() -> ModeMatrix:
    """The exact 5x5 encoding matrix, input ordering (a1, a2, a3, a_in, a4),
    built from integer coordinates."""
    q = ExactScalar.surd
    rows = [
        # 1/sqrt2 = sqrt2/2, sqrt3/(2 sqrt2) = sqrt6/4, 1/(2 sqrt2) = sqrt2/4
        [q(1, 2, 2), q(1, 4, 6), q(1, 4, 2), ZERO, ZERO],
        [q(1, 2, 2), q(-1, 4, 6), q(-1, 4, 2), ZERO, ZERO],
        [ZERO, q(1, 6, 6), q(-1, 2, 2), q(1, 3, 3), ZERO],
        [ZERO, q(1, 12, 6), q(-1, 4, 2), q(-1, 3, 3), q(1, 2, 2)],
        [ZERO, q(-1, 12, 6), q(1, 4, 2), q(1, 3, 3), q(1, 2, 2)],
    ]
    return ModeMatrix._of(rows)


def inverse(m: ModeMatrix) -> ModeMatrix:
    """Inverse of an exactly orthogonal mode matrix (its transpose)."""
    if not m.is_orthogonal():
        raise ValueError("mode matrix is not orthogonal")
    return m.transpose()


def lift_to_symplectic(m: ModeMatrix, fourier_flags: Sequence[bool] | None = None) -> SymplecticOp:
    """Lifts a mode matrix to the 2n x 2n symplectic acting identically on x and p.

    Modes whose flag is set receive a 90-degree rotation (x, p) -> (-p, x)
    before the mixing matrix acts.
    """
    lift = SymplecticOp.from_mode_matrix(m.as_array())
    if fourier_flags and any(fourier_flags):
        rot = SymplecticOp.fourier(m.n, [i for i, f in enumerate(fourier_flags) if f])
        return rot.then(lift)
    return lift
