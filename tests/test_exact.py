"""Exact field arithmetic and symbolic quadrature forms."""

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec.code import SOURCE_SYMBOLS
from cvqec.exact import (ONE, ROLE_ERROR, ROLE_INPUT, ExactScalar, LinearForm, ModeForm,
                         QuadSymbol, SQRT2, TAG_ANTISQUEEZED, TAG_SQUEEZED,
                         form_apply_matrix, mode_forms_apply_matrix, sqrt_of)

SQRT2_F = math.sqrt(2.0)


def frac(n, d=1):
    return Fraction(n, d)


# --------------------------------------------------------------------------
# the independent-symbol Gaussian model of the exact forms, which the tests
# check ``PipelineMaps`` and the witness against


# The 20 symbols the code's forms are written in: the input's and each
# ancilla's source quadratures, then the errors of channels 1..5.
BASIS = SOURCE_SYMBOLS + tuple(QuadSymbol.error(k, q) for k in range(1, 6) for q in "xp")


def coefficients(form: LinearForm) -> dict[QuadSymbol, ExactScalar]:
    """The form's non-zero coefficients in ``BASIS`` order; the map must
    rebuild the form, so a symbol outside the basis or a stored zero fails."""
    coeffs = {sym: c for sym in BASIS if (c := form.coefficient(sym))}
    assert LinearForm(coeffs) == form, f"{form!r} is not written in BASIS"
    return coeffs


def symbol_variance(sym: QuadSymbol, r, input_var: Sequence[float] = (0.25, 0.25),
                    error_var=None) -> float:
    """Variance of one symbol under the independent zero-mean Gaussian model.

    Args:
        sym: the quadrature symbol.
        r: ancilla squeezing parameter, a scalar or a length-4 sequence
            (one value per ancilla).
        input_var: ``(V_x, V_p)`` of the input mode.
        error_var: variance assigned to error symbols; a scalar, a mapping
            ``{(channel, quad): var}``, or None to reject error symbols.

    Raises:
        ValueError: if an error symbol is present and ``error_var`` is None.
    """
    if sym.role == ROLE_INPUT:
        return float(input_var[0] if sym.quad == "x" else input_var[1])
    if sym.role == ROLE_ERROR:
        if error_var is None:
            raise ValueError(f"no variance defined for error symbol {sym}")
        if isinstance(error_var, Mapping):
            return float(error_var.get((sym.index, sym.quad), 0.0))
        return float(error_var)
    r_m = r[sym.index - 1] if isinstance(r, (list, tuple)) else r
    if sym.tag == TAG_SQUEEZED:
        return 0.25 * math.exp(-2.0 * r_m)
    if sym.tag == TAG_ANTISQUEEZED:
        return 0.25 * math.exp(2.0 * r_m)
    return 0.25


def form_variance(form: LinearForm, r, input_var=(0.25, 0.25), error_var=None) -> float:
    """Variance of a form under independent zero-mean symbols: sum coeff^2 * Var(sym)."""
    total = 0.0
    for sym, coeff in coefficients(form).items():
        total += float(coeff) ** 2 * symbol_variance(sym, r, input_var, error_var)
    return total


def form_covariance(f: LinearForm, g: LinearForm, r, input_var=(0.25, 0.25),
                    error_var=None) -> float:
    """Covariance of two forms under the same independent-symbol model."""
    total = 0.0
    g_coeffs = coefficients(g)
    for sym, coeff in coefficients(f).items():
        if sym in g_coeffs:
            total += float(coeff) * float(g_coeffs[sym]) * symbol_variance(
                sym, r, input_var, error_var)
    return total


def scaled(form: LinearForm, factor) -> LinearForm:
    """The form with every coefficient times an exact or rational factor."""
    return LinearForm({sym: c * factor for sym, c in coefficients(form).items()})


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
coordinates = st.tuples(rationals, rationals, rationals, rationals)   # on (1, sqrt2, sqrt3, sqrt6)
scalars = coordinates.map(lambda coords: ExactScalar(*coords))


def test_inv_sqrt2_squared_is_half():
    inv = ExactScalar(0, frac(1, 2))
    assert inv * inv == ExactScalar(frac(1, 2))


def test_sqrt6_over_4_squared():
    s = ExactScalar(0, 0, 0, frac(1, 4))
    assert s * s == ExactScalar(frac(3, 8))


def test_mixed_radical_product():
    # (1/sqrt6) * (1/sqrt2) = sqrt3/6
    prod = sqrt_of(frac(1, 6)) * sqrt_of(frac(1, 2))
    assert prod == ExactScalar(0, 0, frac(1, 6), 0)
    assert float(prod) == pytest.approx(0.28867513459481287, rel=1e-14)


@pytest.mark.parametrize("v, expected", [
    (frac(1, 2), ExactScalar(0, frac(1, 2))),
    (frac(3, 4), ExactScalar(0, 0, frac(1, 2))),
    (frac(2, 3), ExactScalar(0, 0, 0, frac(1, 3))),
    (frac(1, 3), ExactScalar(0, 0, frac(1, 3))),
    (frac(9, 4), ExactScalar(frac(3, 2))),
    (0, ExactScalar()),
])
def test_sqrt_of(v, expected):
    assert sqrt_of(v) == expected


def test_sqrt_of_rejects_foreign_radicals():
    with pytest.raises(ValueError):
        sqrt_of(5)
    with pytest.raises(ValueError):
        sqrt_of(-1)


def test_surd_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="denominator is 0"):
        ExactScalar.surd(1, 0, 2)


@pytest.mark.parametrize("root", [0, 4, 5, -2])
def test_surd_rejects_a_root_outside_the_basis(root):
    with pytest.raises(ValueError, match=f"root {root} is not 1, 2, 3 or 6"):
        ExactScalar.surd(1, 2, root)


def test_scalar_has_no_division():
    """Every constant of the exact route is a surd, so the scalar divides by nothing."""
    with pytest.raises(TypeError):
        ONE / SQRT2


@given(scalars, scalars)
@settings(max_examples=80)
def test_ring_commutes(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars, scalars)
@settings(max_examples=80)
def test_ring_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(coordinates)
@settings(max_examples=80)
def test_zero_test_is_exact(coords):
    a = ExactScalar(*coords)
    assert (a + -a).is_zero()
    assert a.is_zero() == (coords == (0, 0, 0, 0))
    assert bool(a) != a.is_zero()


@given(coordinates)
@settings(max_examples=80)
def test_float_round_trip(coords):
    a, b, c, d = map(float, coords)
    expect = a + b * SQRT2_F + c * math.sqrt(3.0) + d * math.sqrt(6.0)
    assert float(ExactScalar(*coords)) == pytest.approx(expect, rel=1e-14, abs=1e-14)


def test_scalar_repr_shows_its_coordinates():
    """The repr, which failed comparisons print, is the four Fractions."""
    a = ExactScalar(1, frac(1, 2), frac(-1, 3), 2)
    assert repr(a) == ("ExactScalar(Fraction(1, 1), Fraction(1, 2), Fraction(-1, 3), "
                       "Fraction(2, 1))")


# --------------------------------------------------------------------------
# symbols and forms


def test_symbol_validation():
    with pytest.raises(ValueError):
        QuadSymbol.ancilla(5, "x", TAG_SQUEEZED)
    with pytest.raises(ValueError):
        QuadSymbol.error(0, "x")
    with pytest.raises(ValueError):
        QuadSymbol("input", 0, "q")
    with pytest.raises(ValueError):
        QuadSymbol("input", 0, "x", TAG_SQUEEZED)  # tags are for ancillas


def test_symbol_basis_is_twenty():
    syms = {QuadSymbol.input(q) for q in "xp"}
    for m in range(1, 5):
        for q in "xp":
            syms.add(QuadSymbol.ancilla(m, q, TAG_SQUEEZED))
    for k in range(1, 6):
        for q in "xp":
            syms.add(QuadSymbol.error(k, q))
    assert len(syms) == 20
    assert len(set(BASIS)) == 20


def test_linear_form_drops_zero_coefficients():
    sym = QuadSymbol.input("x")
    f = LinearForm({sym: SQRT2}) - LinearForm({sym: SQRT2})
    assert f == LinearForm()
    assert f == LinearForm({sym: 0})
    assert repr(f) == "LinearForm({})"


def test_form_addition_and_scaling():
    a, b = QuadSymbol.input("x"), QuadSymbol.input("p")
    f = LinearForm({a: ExactScalar(1)}) + LinearForm({a: ExactScalar(2), b: sqrt_of(3)})
    assert f.coefficient(a) == ExactScalar(3)
    g = scaled(f, frac(1, 3))
    assert g.coefficient(a) == ExactScalar(1)
    assert g.coefficient(b) == sqrt_of(3) * ExactScalar(frac(1, 3))


def test_form_apply_matrix_identity_and_inverse():
    basis = [LinearForm.of(QuadSymbol.error(k, "x")) for k in range(1, 6)]
    identity = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert form_apply_matrix(basis, identity) == basis

    from cvqec.network import encoder_matrix, inverse
    u = encoder_matrix()
    mixed = form_apply_matrix(basis, u)
    back = form_apply_matrix(mixed, inverse(u))
    assert back == basis


def test_form_apply_matrix_encoding_row():
    """Row 3 of the encoder: c3 = a2/sqrt6 - a3/sqrt2 + a_in/sqrt3."""
    from cvqec.network import encoder_matrix
    basis = [LinearForm.of(QuadSymbol.error(k, "x")) for k in range(1, 6)]
    c3 = form_apply_matrix(basis, encoder_matrix())[2]
    assert c3.coefficient(QuadSymbol.error(2, "x")) == sqrt_of(frac(1, 6))
    assert c3.coefficient(QuadSymbol.error(3, "x")) == -sqrt_of(frac(1, 2))
    assert c3.coefficient(QuadSymbol.error(4, "x")) == sqrt_of(frac(1, 3))
    assert c3.coefficient(QuadSymbol.error(1, "x")).is_zero()
    assert c3.coefficient(QuadSymbol.error(5, "x")).is_zero()


def test_form_apply_matrix_dimension_mismatch():
    basis = [LinearForm.of(QuadSymbol.input("x"))]
    with pytest.raises(ValueError):
        form_apply_matrix(basis, [[1, 0], [0, 1]])


def _quadratic_form_apply_matrix(forms, matrix):
    """The row accumulation as form sums: one ``LinearForm`` per nonzero entry."""
    rows = list(matrix)
    if any(len(row) != len(forms) for row in rows):
        raise ValueError("matrix column count must equal number of forms")
    out = []
    for row in rows:
        acc = LinearForm()
        for entry, form in zip(row, forms):
            entry = entry if isinstance(entry, ExactScalar) else (
                ExactScalar(entry) if isinstance(entry, (int, Fraction)) else None)
            if entry is None:
                raise TypeError("matrix entries must be ExactScalar or rational")
            if not entry.is_zero():
                acc = acc + scaled(form, entry)
        out.append(acc)
    return out


@pytest.mark.parametrize("fourier", [False, True])
def test_form_apply_matrix_equals_the_quadratic_accumulation(fourier):
    """One dict per output row gives the forms that summing a scaled form per
    nonzero entry gives, on both bases' source forms, for the encoder, the
    decoder (with an injected error, whose symbols reach the output), the
    identity and a matrix with zero entries whose terms cancel."""
    from cvqec.code import _decoder, error_mode_form, source_mode_forms
    from cvqec.network import encoder_matrix
    sources = source_mode_forms(fourier=fourier)
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    sparse = [[0, SQRT2, 0, frac(-1, 3), 0],
              [1, -1, 0, 0, 0],
              [0, 0, 0, 0, 0],
              [sqrt_of(6), 0, sqrt_of(3), 0, -SQRT2 * sqrt_of(3)],
              [frac(1, 2), frac(-1, 2), 0, 0, frac(1, 2)]]
    for quad in ("x", "p"):
        forms = [getattr(m, quad) for m in sources]
        encoded = _quadratic_form_apply_matrix(forms, encoder_matrix())
        assert form_apply_matrix(forms, encoder_matrix()) == encoded
        hit = list(encoded)
        hit[2] = hit[2] + getattr(error_mode_form(3), quad)
        decoded = _quadratic_form_apply_matrix(hit, _decoder())
        assert form_apply_matrix(hit, _decoder()) == decoded
        assert decoded[3].has_errors()
        assert form_apply_matrix(forms, identity) == forms
        # on a vector that repeats a form, row 1 cancels to zero, row 3
        # cancels one form's terms and row 4 cancels them and adds them back
        repeats = [forms[0], forms[0], forms[1], forms[3], forms[0]]
        got = form_apply_matrix(repeats, sparse)
        assert got == _quadratic_form_apply_matrix(repeats, sparse)
        assert got[1] == LinearForm() and got[2] == LinearForm()
        assert got[3] == scaled(forms[1], sqrt_of(3)) and got[4] == scaled(forms[0], frac(1, 2))
        assert all(f == LinearForm(coefficients(f)) for f in got)     # no zero is stored


def test_form_apply_matrix_errors_match_the_quadratic_accumulation():
    """A column count that differs from the forms' raises ValueError, and a
    float entry TypeError, as the quadratic accumulation does."""
    basis = [LinearForm.of(QuadSymbol.input("x")), LinearForm.of(QuadSymbol.input("p"))]
    for matrix, error in (([[1, 0, 0], [0, 1, 0]], ValueError), ([[1], [0]], ValueError),
                          ([[1, 0], [0, 0.5]], TypeError), ([[0, "1"], [1, 0]], TypeError)):
        with pytest.raises(error) as want:
            _quadratic_form_apply_matrix(basis, matrix)
        with pytest.raises(error) as got:
            form_apply_matrix(basis, matrix)
        assert str(got.value) == str(want.value)


def test_form_variance_squeezed_pair():
    """Var(sqrt2 x1 e^{-r}) = 2 (1/4) e^{-2r}."""
    f = LinearForm({QuadSymbol.ancilla(1, "x", TAG_SQUEEZED): SQRT2})
    for r in (0.0, 0.403, 1.0):
        assert form_variance(f, r) == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-14)


def test_form_variance_vacuum_unit():
    f = LinearForm.of(QuadSymbol.input("x"))
    assert form_variance(f, 1.7) == 0.25


def test_form_variance_input_combination():
    """Var(-sqrt3 p_in) = 3/4 for a vacuum input."""
    f = LinearForm({QuadSymbol.input("p"): -sqrt_of(3)})
    assert form_variance(f, 0.9) == pytest.approx(0.75, rel=1e-14)


def test_form_variance_rejects_unknown_error_variance():
    f = LinearForm.of(QuadSymbol.error(3, "x"))
    with pytest.raises(ValueError):
        form_variance(f, 0.0)
    assert form_variance(f, 0.0, error_var=2.0) == pytest.approx(2.0)


def test_per_ancilla_squeezing():
    r = (0.1, 0.2, 0.3, 0.4)
    f = LinearForm.of(QuadSymbol.ancilla(3, "x", TAG_SQUEEZED))
    assert form_variance(f, r) == pytest.approx(0.25 * math.exp(-0.6), rel=1e-14)
    assert symbol_variance(QuadSymbol.ancilla(2, "x", TAG_SQUEEZED), r) == \
        pytest.approx(0.25 * math.exp(-0.4), rel=1e-14)


def test_form_covariance_independent_symbols():
    f = LinearForm.of(QuadSymbol.input("x"))
    g = LinearForm.of(QuadSymbol.input("p"))
    assert form_covariance(f, g, 0.0) == 0.0
    assert form_covariance(f, f, 0.0) == 0.25


def test_mode_form_fourier():
    mf = ModeForm(LinearForm.of(QuadSymbol.input("x")),
                  LinearForm.of(QuadSymbol.input("p")))
    rot = mf.fourier()
    assert rot.x == -LinearForm.of(QuadSymbol.input("p"))
    assert rot.p == LinearForm.of(QuadSymbol.input("x"))


def test_linear_form_repr_names_its_symbols():
    """A form's repr lists its terms, so a failed equality shows the symbols."""
    f = LinearForm({QuadSymbol.error(2, "x"): sqrt_of(frac(1, 6))})
    assert repr(f) == f"LinearForm({{{QuadSymbol.error(2, 'x')!r}: {sqrt_of(frac(1, 6))!r}}})"
    assert "role='error', index=2, quad='x'" in repr(f)
