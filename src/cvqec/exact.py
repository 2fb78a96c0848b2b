"""Exact arithmetic over the field Q(sqrt2, sqrt3) and symbolic quadrature forms.

Every constant in the five-channel encoder and its derived identities lives in
Q(sqrt2, sqrt3), so encoded/decoded modes can be manipulated with zero
floating-point error.  A value is stored as integer coordinates on the basis
(1, sqrt2, sqrt3, sqrt6) over a common positive denominator.

The module holds what the code's exact route uses: ``ExactScalar`` with +,
unary -, *, exact equality, a zero test, the ``surd`` and ``sqrt_of``
constructors and a float view, but no division and no conjugation (every
constant the route needs is written as a surd); ``LinearForm`` with +, -,
equality, ``coefficient`` and the error-symbol filters; and matrices applied
to forms and to ``ModeForm`` pairs.  Neither type is hashable, and a form is
read one symbol's coefficient at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

RationalLike = Union[int, Fraction]


def _as_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class ExactScalar:
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational a, b, c, d.

    Instances are immutable, equality is exact and the repr shows the four
    coordinates as Fractions.  There is no binary minus: ``a + -b``
    subtracts.  Python integers are arbitrary precision, so products never
    overflow.
    """

    __slots__ = ("_na", "_nb", "_nc", "_nd", "_den")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0):
        fa, fb, fc, fd = (_as_fraction(v) for v in (a, b, c, d))
        den = math.lcm(fa.denominator, fb.denominator,
                       fc.denominator, fd.denominator)
        self._init_raw(fa.numerator * (den // fa.denominator),
                       fb.numerator * (den // fb.denominator),
                       fc.numerator * (den // fc.denominator),
                       fd.numerator * (den // fd.denominator), den)

    def _init_raw(self, na: int, nb: int, nc: int, nd: int, den: int) -> None:
        if den < 0:
            na, nb, nc, nd, den = -na, -nb, -nc, -nd, -den
        g = math.gcd(na, nb, nc, nd, den)
        if g > 1:
            na //= g; nb //= g; nc //= g; nd //= g; den //= g
        object.__setattr__(self, "_na", na)
        object.__setattr__(self, "_nb", nb)
        object.__setattr__(self, "_nc", nc)
        object.__setattr__(self, "_nd", nd)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def _raw(cls, na: int, nb: int, nc: int, nd: int, den: int) -> "ExactScalar":
        out = cls.__new__(cls)
        out._init_raw(na, nb, nc, nd, den)
        return out

    @classmethod
    def surd(cls, num: int, den: int, root: int) -> "ExactScalar":
        """(num / den) * sqrt(root) for root 1, 2, 3 or 6, from integers."""
        if den == 0:
            raise ValueError(f"surd denominator is 0 (num={num}, root={root})")
        if root not in (1, 2, 3, 6):
            raise ValueError(f"surd root {root} is not 1, 2, 3 or 6")
        coords = [0, 0, 0, 0]
        coords[(1, 2, 3, 6).index(root)] = num
        return cls._raw(*coords, den)

    def is_zero(self) -> bool:
        return self._na == 0 and self._nb == 0 and self._nc == 0 and self._nd == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._na == other._na and self._nb == other._nb
                and self._nc == other._nc and self._nd == other._nd
                and self._den == other._den)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._raw(-self._na, -self._nb, -self._nc, -self._nd, self._den)

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._den, other._den
        return ExactScalar._raw(self._na * d2 + other._na * d1,
                                self._nb * d2 + other._nb * d1,
                                self._nc * d2 + other._nc * d1,
                                self._nd * d2 + other._nd * d1, d1 * d2)

    __radd__ = __add__

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1 = self._na, self._nb, self._nc, self._nd
        a2, b2, c2, d2 = other._na, other._nb, other._nc, other._nd
        # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
        return ExactScalar._raw(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self._den * other._den)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return (self._na + self._nb * _SQRT2 + self._nc * _SQRT3
                + self._nd * _SQRT6) / self._den

    def __repr__(self) -> str:
        coords = (Fraction(n, self._den) for n in (self._na, self._nb, self._nc, self._nd))
        return f"ExactScalar({', '.join(map(repr, coords))})"


def _coerce(v) -> "ExactScalar":
    if isinstance(v, ExactScalar):
        return v
    if isinstance(v, (int, Fraction)):
        return ExactScalar(v)
    return NotImplemented


ZERO = ExactScalar()
ONE = ExactScalar(1)
SQRT2 = ExactScalar(0, 1)


def sqrt_of(v: RationalLike) -> ExactScalar:
    """Exact square root of a non-negative rational whose square-free part is 1, 2, 3 or 6."""
    f = _as_fraction(v)
    if f.numerator < 0:
        raise ValueError("negative radicand")
    if f.numerator == 0:
        return ZERO
    n = f.numerator * f.denominator  # sqrt(p/q) = sqrt(p*q)/q
    for rest in (1, 2, 3, 6):                    # n = rest * square^2
        square = math.isqrt(n // rest)
        if square * square * rest == n:
            return ExactScalar.surd(square, f.denominator, rest)
    raise ValueError(f"sqrt({v}) does not lie in Q(sqrt2, sqrt3)")


# --------------------------------------------------------------------------
# quadrature symbols

ROLE_INPUT = "input"
ROLE_ANCILLA = "ancilla"
ROLE_ERROR = "error"

TAG_NONE = "1"
TAG_SQUEEZED = "e-r"       # variance (1/4) e^{-2r}
TAG_ANTISQUEEZED = "e+r"   # variance (1/4) e^{+2r}

_VALID_ROLES = (ROLE_INPUT, ROLE_ANCILLA, ROLE_ERROR)
_VALID_TAGS = (TAG_NONE, TAG_SQUEEZED, TAG_ANTISQUEEZED)


@dataclass(frozen=True)
class QuadSymbol:
    """One quadrature of one elementary mode, with its squeezing attenuation tag."""

    role: str
    index: int
    quad: str
    tag: str = TAG_NONE

    def __post_init__(self):
        if self.role not in _VALID_ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.quad not in ("x", "p"):
            raise ValueError(f"quadrature must be 'x' or 'p', got {self.quad!r}")
        if self.tag not in _VALID_TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        if self.role == ROLE_INPUT and self.index != 0:
            raise ValueError("input symbol has index 0")
        if self.role == ROLE_ANCILLA and not 1 <= self.index <= 4:
            raise ValueError("ancilla index must be 1..4")
        if self.role == ROLE_ERROR and not 1 <= self.index <= 5:
            raise ValueError("error index must be 1..5")
        if self.role != ROLE_ANCILLA and self.tag != TAG_NONE:
            raise ValueError("attenuation tags apply to ancilla vacuum symbols only")

    @staticmethod
    def input(quad: str) -> "QuadSymbol":
        return QuadSymbol(ROLE_INPUT, 0, quad)

    @staticmethod
    def ancilla(index: int, quad: str, tag: str) -> "QuadSymbol":
        return QuadSymbol(ROLE_ANCILLA, index, quad, tag)

    @staticmethod
    def error(index: int, quad: str) -> "QuadSymbol":
        return QuadSymbol(ROLE_ERROR, index, quad)


# --------------------------------------------------------------------------
# linear forms


class LinearForm:
    """A finite linear combination of quadrature symbols with ExactScalar coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[QuadSymbol, ExactScalar] | None = None):
        clean = {}
        if terms:
            for sym, coeff in terms.items():
                coeff = _coerce(coeff)
                if coeff is NotImplemented:
                    raise TypeError("coefficients must be ExactScalar or rational")
                if not coeff.is_zero():
                    clean[sym] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    @staticmethod
    def of(sym: QuadSymbol) -> "LinearForm":
        return LinearForm({sym: ONE})

    def coefficient(self, sym: QuadSymbol) -> ExactScalar:
        return self._terms.get(sym, ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "LinearForm") -> "LinearForm":
        merged = dict(self._terms)
        for sym, coeff in other._terms.items():
            cur = merged.get(sym)
            merged[sym] = coeff if cur is None else cur + coeff
        return LinearForm(merged)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm({sym: -c for sym, c in self._terms.items()})

    def drop_errors(self) -> "LinearForm":
        return LinearForm({s: c for s, c in self._terms.items() if s.role != ROLE_ERROR})

    def has_errors(self) -> bool:
        return any(s.role == ROLE_ERROR for s in self._terms)

    def __repr__(self) -> str:
        return f"LinearForm({self._terms!r})"


def form_apply_matrix(forms: Sequence[LinearForm], matrix) -> list[LinearForm]:
    """Applies an ExactScalar matrix to a vector of forms: out[i] = sum_j M[i][j]*forms[j].

    ``matrix`` is any sequence of rows of ExactScalar (or rational) entries.
    """
    rows = list(matrix)
    if any(len(row) != len(forms) for row in rows):
        raise ValueError("matrix column count must equal number of forms")
    out = []
    for row in rows:
        acc: dict[QuadSymbol, ExactScalar] = {}
        for entry, form in zip(row, forms):
            entry = _coerce(entry)
            if entry is NotImplemented:
                raise TypeError("matrix entries must be ExactScalar or rational")
            if not entry.is_zero():
                for sym, coeff in form._terms.items():
                    term = coeff * entry
                    cur = acc.get(sym)
                    acc[sym] = term if cur is None else cur + term
        out.append(LinearForm(acc))                # drops the terms that cancelled
    return out


@dataclass(frozen=True)
class ModeForm:
    """The pair of quadrature forms (x, p) describing one optical mode."""

    x: LinearForm
    p: LinearForm

    def fourier(self) -> "ModeForm":
        """90-degree phase-space rotation: (x, p) -> (-p, x)."""
        return ModeForm(x=-self.p, p=self.x)

    def __add__(self, other: "ModeForm") -> "ModeForm":
        return ModeForm(self.x + other.x, self.p + other.p)


def mode_forms_apply_matrix(modes: Sequence[ModeForm], matrix) -> list[ModeForm]:
    """Applies a real mode matrix identically to the x and p forms of each mode."""
    xs = form_apply_matrix([m.x for m in modes], matrix)
    ps = form_apply_matrix([m.p for m in modes], matrix)
    return [ModeForm(x, p) for x, p in zip(xs, ps)]
