"""Encoding network: exact matrix, factorization, inverse, symplectic lift."""

from fractions import Fraction

import numpy as np
import pytest

from cvqec.exact import ExactScalar, LinearForm, QuadSymbol, sqrt_of, form_apply_matrix
from cvqec.network import (BeamSplitterElement, ENCODER_SPEC, compose, encoder_matrix,
                           identity, inverse, lift_to_symplectic, matmul)


def test_encoder_entries():
    u = encoder_matrix()
    assert u[0][0] == sqrt_of(Fraction(1, 2))
    assert u[2][3] == sqrt_of(Fraction(1, 3))
    for i, j in ((0, 3), (0, 4), (1, 3), (1, 4)):
        assert u[i][j].is_zero()


def test_encoder_is_exactly_orthogonal():
    u = encoder_matrix()
    assert matmul(u, tuple(zip(*u))) == identity()


def test_factorization_matches_encoder_exactly():
    assert compose(ENCODER_SPEC) == encoder_matrix()


def test_factorization_float_view():
    dev = np.abs(np.array(compose(ENCODER_SPEC), dtype=float)
                 - np.array(encoder_matrix(), dtype=float)).max()
    assert dev < 1e-12


def test_float_view_is_each_entry_as_a_float():
    """numpy converts each entry with its ``__float__``, bit for bit."""
    for m in (encoder_matrix(), compose(ENCODER_SPEC), identity()):
        view = np.array(m, dtype=float)
        assert view.shape == (5, 5)
        assert np.array_equal(view, [[float(e) for e in row] for row in m])


def test_empty_spec_is_identity():
    assert compose(()) == identity()


def test_single_element_block():
    """B23^+(1/4) has block [[sqrt3/2, 1/2], [1/2, -sqrt3/2]] on modes 2, 3."""
    m = compose((BeamSplitterElement(2, 3, Fraction(1, 4), "+"),))
    assert m[1][1] == sqrt_of(Fraction(3, 4))
    assert m[1][2] == ExactScalar(Fraction(1, 2))
    assert m[2][1] == ExactScalar(Fraction(1, 2))
    assert m[2][2] == -sqrt_of(Fraction(3, 4))
    assert m[0][0] == ExactScalar(1)


def test_inverse_is_exact_transpose():
    u = encoder_matrix()
    assert inverse(u) == tuple(zip(*u))
    assert matmul(inverse(u), u) == identity()
    assert inverse(identity()) == identity()


def test_inverse_rejects_non_orthogonal():
    two, zero = ExactScalar(2), ExactScalar(0)
    scaled = tuple(tuple(two if i == j else zero for j in range(5)) for i in range(5))
    with pytest.raises(ValueError):
        inverse(scaled)


def test_inverse_recovers_source_forms():
    """Decoding the encoded forms returns the source modes exactly."""
    basis = [LinearForm.of(QuadSymbol.error(k, "x")) for k in range(1, 6)]
    u = encoder_matrix()
    encoded = form_apply_matrix(basis, u)
    recovered = form_apply_matrix(encoded, inverse(u))
    assert recovered == basis


def test_element_validation():
    """A transmittance outside [0, 1] is rejected when the element is built,
    before its reflectance radicand turns negative."""
    for t in (Fraction(3, 2), Fraction(-1, 4)):
        with pytest.raises(ValueError, match=f"transmittance {t} is not in"):
            BeamSplitterElement(1, 2, t, "+")
    for t in (0, 1):
        BeamSplitterElement(1, 2, Fraction(t), "-").block()


@pytest.mark.parametrize("k, l", [(2, 2), (0, 2), (1, 6), (-1, 3)])
def test_element_rejects_bad_modes(k, l):
    """Equal modes would give a non-orthogonal matrix, mode 0 would wrap to
    mode 5 and mode 6 would index past the matrix."""
    with pytest.raises(ValueError, match=rf"modes \({k}, {l}\) are not"):
        BeamSplitterElement(k, l, Fraction(1, 2), "+")


@pytest.mark.parametrize("sign", ["x", "", "+-", None])
def test_element_rejects_a_sign_other_than_plus_or_minus(sign):
    with pytest.raises(ValueError, match=r"is not '\+' or '-'"):
        BeamSplitterElement(1, 2, Fraction(1, 2), sign)


def test_lift_block_structure():
    s = lift_to_symplectic(encoder_matrix())
    assert np.allclose(s[::2, ::2], np.array(encoder_matrix(), dtype=float))
    assert np.allclose(s[1::2, 1::2], np.array(encoder_matrix(), dtype=float))
    assert np.allclose(s[::2, 1::2], 0.0)


def test_lift_fourier_flag_rotates_before_mixing():
    s = lift_to_symplectic(identity(), [True, False, False, False, False])
    vec = np.zeros(10)
    vec[0], vec[1] = 1.0, 2.0            # (x1, p1)
    out = s @ vec
    assert out[0] == pytest.approx(-2.0)  # x -> -p
    assert out[1] == pytest.approx(1.0)   # p -> x


def test_lift_is_symplectic():
    w = np.kron(np.eye(5), [[0, 1], [-1, 0]])
    for flags in (None, [True, True, True, False, True]):
        s = lift_to_symplectic(encoder_matrix(), flags)
        assert np.abs(s @ w @ s.T - w).max() < 1e-10


@pytest.mark.parametrize("n", [0, 3, 7])
def test_lift_rejects_flags_not_one_per_mode(n):
    """Three flags would rotate part of the modes and seven end in a
    broadcast error; both, and an empty list, are rejected by name."""
    with pytest.raises(ValueError, match=f"{n} fourier flags for 5 modes"):
        lift_to_symplectic(encoder_matrix(), [True] * n)


def test_lift_preserves_mean_norm():
    rng = np.random.default_rng(4)
    s = lift_to_symplectic(encoder_matrix(), [True, False, True, False, False])
    v = rng.normal(size=10)
    assert np.linalg.norm(s @ v) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_compose_rejects_unrepresentable_transmittance():
    with pytest.raises(ValueError):
        compose((BeamSplitterElement(1, 2, Fraction(1, 5), "+"),))
