"""Gaussian optics of the model: squeezed sources, beam splitters, the
symplectic lift, channel loss, single-mode fidelity and dB conversions."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cvqec.code import (FLUCTUATION_FACTOR, CodeConfig, PipelineMaps, _network_symplectics,
                        source_variances)
from cvqec.gaussian import db_to_r, fidelity_from_moments, variance_to_db
from cvqec.network import BeamSplitterElement, element_matrix, encoder_matrix, lift_to_symplectic

Q35 = 10.0 ** -0.35
R35 = db_to_r(3.5)
VACUUM = (np.zeros(2), 0.25 * np.eye(2))


def test_vacuum_state():
    """The default input is the vacuum: zero mean, covariance I/4, pure."""
    mean, cov = CodeConfig().input_state()
    assert np.array_equal(mean, np.zeros(2))
    assert np.allclose(cov, 0.25 * np.eye(2))
    assert np.linalg.det(4.0 * cov) == pytest.approx(1.0, rel=1e-12)


def test_squeezed_vacuum_zero_r_is_vacuum():
    """Unsqueezed ancillas are vacua: every source quadrature has variance 1/4."""
    assert np.allclose(source_variances(CodeConfig(r=0.0)), 0.25)


def test_squeezed_vacuum_35db():
    """3.5 dB ancillas: a1 is quiet in x, a2 in p, and both are pure."""
    var = source_variances(CodeConfig(r=R35))
    assert var[0] == pytest.approx(0.25 * Q35, rel=1e-12)
    assert var[3] == pytest.approx(0.25 * Q35, rel=1e-12)
    assert 16.0 * var[0] * var[1] == pytest.approx(1.0, rel=1e-12)
    assert 16.0 * var[2] * var[3] == pytest.approx(1.0, rel=1e-12)


def test_phase_squeezed_impure_input():
    """-3.5 dB / 8.9 dB: V_p quiet, V_x loud, purity determinant about 3.47."""
    mean, cov = CodeConfig(input_kind="squeezed").input_state()
    assert np.array_equal(mean, np.zeros(2))
    assert cov[1, 1] == pytest.approx(0.25 * Q35, rel=1e-12)
    assert cov[0, 0] == pytest.approx(0.25 * 10.0 ** 0.89, rel=1e-12)
    assert 16.0 * cov[0, 0] * cov[1, 1] == pytest.approx(3.467, abs=2e-3)
    assert cov[0, 1] == cov[1, 0] == 0.0


def test_squeezed_vacuum_rejects_negative_r():
    with pytest.raises(ValueError):
        CodeConfig(r=(0.1, -0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        CodeConfig(input_kind="diagonal")


def test_beamsplitter_balanced():
    m = np.array(element_matrix(BeamSplitterElement(1, 2, Fraction(1, 2), "+")), dtype=float)
    s = 1 / math.sqrt(2)
    assert np.allclose(m[:2, :2], [[s, s], [s, -s]])
    assert np.array_equal(m[2:, 2:], np.eye(3))


def test_beamsplitter_zero_transmission():
    m = np.array(element_matrix(BeamSplitterElement(1, 2, Fraction(0), "+")), dtype=float)
    assert np.allclose(m[:2, :2], [[1, 0], [0, -1]])


def test_fourier_rotation_swaps_squeezing():
    quiet, loud = 0.25 * math.exp(-1.4), 0.25 * math.exp(1.4)
    s = _network_symplectics(True)[0]
    unmix = lift_to_symplectic(encoder_matrix()).T
    cov = np.diag([quiet, loud] + [0.25] * 8)
    assert np.allclose(unmix @ s @ cov @ s.T @ unmix.T, np.diag([loud, quiet] + [0.25] * 8))


def test_lift_preserves_purity():
    """The lifted encoder is unitary: it conserves det(4 cov) of the sources."""
    cfg = CodeConfig(r=(0.5, 0.2, 0.0, 0.9), input_kind="squeezed")
    cov = np.diag(source_variances(cfg))
    for s in (lift_to_symplectic(encoder_matrix()), _network_symplectics(True)[0]):
        assert np.linalg.det(4.0 * s @ cov @ s.T) == pytest.approx(
            np.linalg.det(4.0 * cov), rel=1e-9)


def test_loss_endpoints():
    """Transmissivity 1 leaves the readout maps as they are; 0 leaves vacuum."""
    cfg = CodeConfig(r=0.6)
    np.testing.assert_array_equal(PipelineMaps(replace(cfg, channel_loss=1.0), False).noise,
                                  PipelineMaps(cfg, False).noise)
    dead = PipelineMaps(replace(cfg, channel_loss=0.0), False)
    assert np.allclose(dead.noise @ dead.noise.T, 0.25 * np.eye(6))


def test_loss_on_squeezed_mode():
    """Uniform loss on every channel reaches the squeezed readouts D1 (x of
    a1) and D2 (p of a2) as (1/4)(eta e^{-2r} + 1 - eta)."""
    eta = 0.96 * 0.95
    maps = PipelineMaps(CodeConfig(r=R35, channel_loss=eta), False)
    want = 0.25 * (eta * Q35 + 1 - eta)
    baselines = maps.thresholds / (1.0 + FLUCTUATION_FACTOR)
    assert baselines[0] == pytest.approx(want, rel=1e-12)
    assert baselines[1] == pytest.approx(want, rel=1e-12)


def test_loss_validation():
    for bad in (1.2, -0.1, (1.0, 0.9, 1.2, 1.0, 1.0)):
        with pytest.raises(ValueError):
            CodeConfig(channel_loss=bad)


# --------------------------------------------------------------------------
# fidelity


def test_fidelity_vacuum_with_itself():
    assert fidelity_from_moments(*VACUUM, *VACUUM) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_channel3_coherent_value():
    """Rescaled output diag(5/3, 3) against vacuum: 2/sqrt(32/3)."""
    f = fidelity_from_moments(*VACUUM, np.zeros(2), np.diag([5 / 3, 3.0]) / 4.0)
    assert f == pytest.approx(2.0 / math.sqrt(32.0 / 3.0), rel=1e-12)
    assert f == pytest.approx(0.612, abs=5e-4)


def test_fidelity_squeezed_input_example():
    """Impure input vs input plus the channel-3 residuals: about 0.86."""
    s1 = np.diag([10 ** 0.89, Q35]) / 4.0
    s2 = s1 + np.diag([(2 / 3) * Q35, 2 * Q35]) / 4.0
    f = fidelity_from_moments(np.zeros(2), s1, np.zeros(2), s2)
    assert f == pytest.approx(0.860, abs=1e-3)


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c1 = np.diag(0.25 + rng.random(2))
        c2 = np.diag(0.25 + rng.random(2))
        m1, m2 = rng.normal(size=2), rng.normal(size=2)
        f_ab, f_ba = fidelity_from_moments(m1, c1, m2, c2), fidelity_from_moments(m2, c2, m1, c1)
        assert f_ab == pytest.approx(f_ba, rel=1e-10)
        assert 0.0 <= f_ab <= 1.0


def test_fidelity_monotone_under_added_noise():
    prev = 1.0
    for extra in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
        f = fidelity_from_moments(*VACUUM, np.zeros(2), VACUUM[1] + extra * np.eye(2))
        assert f <= prev + 1e-12
        prev = f


@pytest.mark.parametrize("n1", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n2", [0.5, 1.6])
def test_fidelity_thermal_oracle(n1, n2):
    """Thermal-state fidelity has an independent closed form."""
    expected = 1.0 / (1 + n1 + n2 + 2 * n1 * n2
                      - 2 * math.sqrt(n1 * n2 * (n1 + 1) * (n2 + 1)))
    f = fidelity_from_moments(np.zeros(2), (2 * n1 + 1) * 0.25 * np.eye(2),
                              np.zeros(2), (2 * n2 + 1) * 0.25 * np.eye(2))
    assert f == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dx,dp", [(0.3, 0.0), (0.0, -0.7), (0.4, 0.2)])
def test_fidelity_coherent_oracle(dx, dp):
    """Displaced vacua overlap as exp(-(dx^2+dp^2)) in these units."""
    f = fidelity_from_moments(*VACUUM, np.array([dx, dp]), 0.25 * np.eye(2))
    assert f == pytest.approx(math.exp(-(dx ** 2 + dp ** 2)), rel=1e-12)


def test_fidelity_from_moments_tolerates_sampling_noise():
    f = fidelity_from_moments(np.zeros(2), 0.25 * np.eye(2),
                              np.zeros(2), 0.24 * np.eye(2))
    assert 0.0 <= f <= 1.0


def _reference_fidelity(mean1, cov1, mean2, cov2):
    """The fidelity formula with general determinant and solve, one pair at a time."""
    a1, a2 = 4.0 * cov1, 4.0 * cov2
    total = a1 + a2
    delta = np.linalg.det(total)
    lam = max((np.linalg.det(a1) - 1.0) * (np.linalg.det(a2) - 1.0), 0.0)
    beta = 2.0 * (mean2 - mean1)
    expo = -0.5 * beta @ np.linalg.solve(total, beta)
    return min(max(2.0 / (math.sqrt(delta + lam) - math.sqrt(lam)) * math.exp(expo), 0.0), 1.0)


def test_fidelity_from_moments_stacked_matches_reference():
    rng = np.random.default_rng(4)
    inp_mean, inp_cov = np.zeros(2), np.diag([0.25 * 10 ** 0.89, 0.25 * 10 ** -0.35])
    means = rng.normal(0.0, 0.5, (50, 2))
    factors = rng.normal(0.0, 0.6, (50, 2, 2))
    covs = 0.2 * np.eye(2) + factors @ factors.transpose(0, 2, 1)
    covs[0] = 0.24 * np.eye(2)                 # a clamped, marginally unphysical one
    stacked = fidelity_from_moments(inp_mean, inp_cov, means, covs)
    assert stacked.shape == (50,)
    for k in range(50):
        want = _reference_fidelity(inp_mean, inp_cov, means[k], covs[k])
        single = fidelity_from_moments(inp_mean, inp_cov, means[k], covs[k])
        assert isinstance(single, float)
        assert single == stacked[k]
        assert single == pytest.approx(want, rel=1e-12, abs=1e-15)


def _scaled_fidelity(mean1, cov1, mean2, cov2):
    """The closed form on 2x2 arrays rescaled by 4, with the adjugate solve:
    the float operations the entry-wise form must reproduce bit for bit."""
    a1 = 4.0 * np.asarray(cov1, dtype=float)
    a2 = 4.0 * np.asarray(cov2, dtype=float)
    total = a1 + a2
    t00, t01, t10, t11 = total[..., 0, 0], total[..., 0, 1], total[..., 1, 0], total[..., 1, 1]
    delta = t00 * t11 - t01 * t10

    def det(a):
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]

    lam = np.maximum((det(a1) - 1.0) * (det(a2) - 1.0), 0.0)
    beta = 2.0 * (np.asarray(mean2, dtype=float) - np.asarray(mean1, dtype=float))
    b0, b1 = beta[..., 0], beta[..., 1]
    quad = (t11 * b0 * b0 - (t01 + t10) * b0 * b1 + t00 * b1 * b1) / delta
    f = 2.0 / (np.sqrt(delta + lam) - np.sqrt(lam)) * np.exp(-0.5 * quad)
    f = np.minimum(np.maximum(f, 0.0), 1.0)
    return float(f) if f.ndim == 0 else f


def _random_moments(rng, n):
    means = rng.normal(0.0, 0.5, (n, 2))
    factors = rng.normal(0.0, 0.6, (n, 2, 2))
    return means, 0.2 * np.eye(2) + factors @ factors.transpose(0, 2, 1)


def test_fidelity_from_moments_is_the_scaled_closed_form_bit_for_bit():
    """Reading the entries once and folding the exact factors 4 and 16 leaves
    every fidelity equal, with ``==``, to the scaled 2x2 form: stacked,
    single, one input against stacked outputs, non-zero means, the L clamp
    and the F <= 1 clamp."""
    rng = np.random.default_rng(4)
    inp_mean, inp_cov = np.zeros(2), np.diag([0.25 * 10 ** 0.89, 0.25 * 10 ** -0.35])
    means, covs = _random_moments(rng, 50)
    means1, covs1 = _random_moments(rng, 50)
    stacked = fidelity_from_moments(means1, covs1, means, covs)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (50,)
    assert np.array_equal(stacked, _scaled_fidelity(means1, covs1, means, covs))
    broadcast = fidelity_from_moments(inp_mean, inp_cov, means, covs)
    assert isinstance(broadcast, np.ndarray) and broadcast.shape == (50,)
    assert np.array_equal(broadcast, _scaled_fidelity(inp_mean, inp_cov, means, covs))
    for k in range(50):
        single = fidelity_from_moments(means1[k], covs1[k], means[k], covs[k])
        assert type(single) is float
        assert single == _scaled_fidelity(means1[k], covs1[k], means[k], covs[k])
        assert single == stacked[k]
    assert np.all(means != 0.0)
    # det(4 * 0.24 I) < 1: L clamps at 0
    assert (fidelity_from_moments(inp_mean, inp_cov, means[0], 0.24 * np.eye(2))
            == _scaled_fidelity(inp_mean, inp_cov, means[0], 0.24 * np.eye(2)))
    # identical states: F = 1 up to rounding; the last rounds to 1 + 2^-52
    # before the clamp caps it
    for mean, cov in ((means[1], covs[1]), VACUUM, (inp_mean, inp_cov),
                      (means[2], np.array([[0.7, 0.1], [0.1, 0.3]]))):
        f = fidelity_from_moments(mean, cov, mean, cov)
        assert f == _scaled_fidelity(mean, cov, mean, cov) and f <= 1.0
    assert f == 1.0
    # lists of ints are read as floats
    assert (fidelity_from_moments([0, 1], [[1, 0], [0, 2]], [2, 0], [[3, 1], [1, 1]])
            == _scaled_fidelity([0, 1], [[1, 0], [0, 2]], [2, 0], [[3, 1], [1, 1]]))


# --------------------------------------------------------------------------
# dB


def test_variance_db_conversions():
    assert variance_to_db(0.25) == 0.0
    assert variance_to_db(0.25 * Q35) == pytest.approx(-3.5, rel=1e-12)
    assert variance_to_db(0.25 * (1 + 8 * Q35)) == pytest.approx(6.60, abs=5e-3)
    assert variance_to_db(0.25 * 9) == pytest.approx(9.542, abs=5e-4)
    for bad in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="variance must be positive"):
            variance_to_db(bad)
    assert db_to_r(3.5) == pytest.approx(0.403, abs=5e-4)
    assert math.exp(-2.0 * db_to_r(3.5)) == pytest.approx(Q35, rel=1e-12)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="squeezing level in dB must be non-negative"):
            db_to_r(bad)
