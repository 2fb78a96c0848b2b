"""Gaussian-state engine: states, symplectic maps, loss, fidelity, sampling."""

import math

import numpy as np
import pytest

from cvqec.gaussian import (GaussianState, NonPhysicalStateError, SymplecticOp,
                            VACUUM_VAR, apply, beamsplitter_symplectic,
                            db_to_r, db_to_variance, fidelity_from_moments,
                            fidelity_gaussian, join, loss_channel, omega,
                            sample, squeezed_vacuum, variance_to_db)

Q35 = 10.0 ** -0.35


def test_vacuum_state():
    v = GaussianState.vacuum(2)
    assert np.allclose(v.cov, 0.25 * np.eye(4))
    assert v.is_pure()


def test_squeezed_vacuum_zero_r_is_vacuum():
    s = squeezed_vacuum(0.0, "amplitude")
    assert np.allclose(s.cov, 0.25 * np.eye(2))


def test_squeezed_vacuum_35db():
    s = squeezed_vacuum(db_to_r(3.5), "amplitude")
    assert s.cov[0, 0] == pytest.approx(0.25 * Q35, rel=1e-12)
    assert s.is_pure()


def test_phase_squeezed_impure_input():
    """-3.5 dB / 8.9 dB: V_p quiet, V_x loud, purity determinant about 3.47."""
    excess = 10.0 ** ((8.9 - 3.5) / 10.0) - 1.0
    s = squeezed_vacuum(db_to_r(3.5), "phase", antisqueeze_excess=excess)
    assert s.cov[1, 1] == pytest.approx(0.25 * Q35, rel=1e-12)
    assert s.cov[0, 0] == pytest.approx(0.25 * 10.0 ** 0.89, rel=1e-12)
    assert 16.0 * s.cov[0, 0] * s.cov[1, 1] == pytest.approx(3.467, abs=2e-3)
    assert not s.is_pure()


def test_squeezed_vacuum_rejects_negative_r():
    with pytest.raises(ValueError):
        squeezed_vacuum(-0.1, "amplitude")
    with pytest.raises(ValueError):
        squeezed_vacuum(0.1, "diagonal")


def test_nonphysical_covariance_rejected():
    with pytest.raises(NonPhysicalStateError):
        GaussianState(1, np.zeros(2), np.diag([0.01, 0.01]))


def test_beamsplitter_balanced():
    op = beamsplitter_symplectic(0, 1, 0.5, "+", 2)
    m = op.S[::2, ::2]
    s = 1 / math.sqrt(2)
    assert np.allclose(m, [[s, s], [s, -s]])


def test_beamsplitter_zero_transmission():
    op = beamsplitter_symplectic(0, 1, 0.0, "+", 2)
    assert np.allclose(op.S[::2, ::2], [[1, 0], [0, -1]])


def test_beamsplitter_factorization_reproduces_encoder():
    """B45^-(1/2) B34^+(1/3) B12^+(1/2) B23^+(1/4) equals the encoder matrix."""
    from cvqec.network import encoder_matrix
    op = beamsplitter_symplectic(1, 2, 0.25, "+", 5)
    for (k, l, t, sign) in ((0, 1, 0.5, "+"), (2, 3, 1 / 3, "+"), (3, 4, 0.5, "-")):
        op = op.then(beamsplitter_symplectic(k, l, t, sign, 5))
    assert np.abs(op.S[::2, ::2] - encoder_matrix().as_array()).max() < 1e-12


def test_beamsplitter_validation():
    with pytest.raises(ValueError):
        beamsplitter_symplectic(0, 1, 1.5, "+", 2)
    with pytest.raises(ValueError):
        beamsplitter_symplectic(1, 1, 0.5, "+", 2)


def test_apply_identity_and_displacement():
    v = GaussianState.vacuum(1)
    assert np.allclose(apply(SymplecticOp.identity(1), v).cov, v.cov)
    d = apply(SymplecticOp.displacement([2.0, 0.0]), v)
    assert np.allclose(d.mean, [2.0, 0.0])
    assert np.allclose(d.cov, v.cov)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(SymplecticOp.identity(2), GaussianState.vacuum(1))


def test_fourier_rotation_swaps_squeezing():
    amp = squeezed_vacuum(0.7, "amplitude")
    rot = apply(SymplecticOp.fourier(1, [0]), amp)
    phase = squeezed_vacuum(0.7, "phase")
    assert np.allclose(rot.cov, phase.cov)


def test_symplectic_validation():
    with pytest.raises(ValueError):
        SymplecticOp(np.diag([2.0, 2.0]))


def test_lift_preserves_purity():
    """Unitaries conserve det(4 cov)."""
    rng = np.random.default_rng(3)
    state = join([squeezed_vacuum(0.5, "amplitude"),
                  squeezed_vacuum(0.2, "phase"), GaussianState.vacuum(1)])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    out = apply(SymplecticOp.from_mode_matrix(q), state)
    assert out.purity_det() == pytest.approx(state.purity_det(), rel=1e-9)


def test_loss_endpoints():
    s = squeezed_vacuum(0.6, "amplitude")
    assert np.allclose(loss_channel(s, 0, 1.0).cov, s.cov)
    dead = loss_channel(s, 0, 0.0)
    assert np.allclose(dead.cov, 0.25 * np.eye(2))


def test_loss_on_squeezed_mode():
    eta = 0.96 * 0.95
    s = squeezed_vacuum(db_to_r(3.5), "amplitude")
    out = loss_channel(s, 0, eta)
    assert out.cov[0, 0] == pytest.approx(0.25 * (eta * Q35 + 1 - eta), rel=1e-12)


def test_loss_composes_multiplicatively():
    s = squeezed_vacuum(0.8, "phase")
    s = apply(SymplecticOp.displacement([1.0, -2.0]), s)
    a = loss_channel(loss_channel(s, 0, 0.9), 0, 0.7)
    b = loss_channel(s, 0, 0.63)
    assert np.allclose(a.cov, b.cov, atol=1e-12)
    assert np.allclose(a.mean, b.mean, atol=1e-12)


def test_loss_validation():
    with pytest.raises(ValueError):
        loss_channel(GaussianState.vacuum(1), 0, 1.2)


# --------------------------------------------------------------------------
# fidelity


def test_fidelity_vacuum_with_itself():
    v = GaussianState.vacuum(1)
    assert fidelity_gaussian(v, v) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_channel3_coherent_value():
    """Rescaled output diag(5/3, 3) against vacuum: 2/sqrt(32/3)."""
    out = GaussianState(1, np.zeros(2), np.diag([5 / 3, 3.0]) / 4.0)
    f = fidelity_gaussian(GaussianState.vacuum(1), out)
    assert f == pytest.approx(2.0 / math.sqrt(32.0 / 3.0), rel=1e-12)
    assert f == pytest.approx(0.612, abs=5e-4)


def test_fidelity_squeezed_input_example():
    """Impure input vs input plus the channel-3 residuals: about 0.86."""
    s1 = np.diag([10 ** 0.89, Q35]) / 4.0
    s2 = s1 + np.diag([(2 / 3) * Q35, 2 * Q35]) / 4.0
    f = fidelity_gaussian(GaussianState(1, np.zeros(2), s1),
                          GaussianState(1, np.zeros(2), s2))
    assert f == pytest.approx(0.860, abs=1e-3)


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c1 = np.diag(0.25 + rng.random(2))
        c2 = np.diag(0.25 + rng.random(2))
        m1, m2 = rng.normal(size=2), rng.normal(size=2)
        a = GaussianState(1, m1, c1)
        b = GaussianState(1, m2, c2)
        f_ab, f_ba = fidelity_gaussian(a, b), fidelity_gaussian(b, a)
        assert f_ab == pytest.approx(f_ba, rel=1e-10)
        assert 0.0 <= f_ab <= 1.0


def test_fidelity_monotone_under_added_noise():
    v = GaussianState.vacuum(1)
    prev = 1.0
    for extra in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
        noisy = GaussianState(1, np.zeros(2), v.cov + extra * np.eye(2))
        f = fidelity_gaussian(v, noisy)
        assert f <= prev + 1e-12
        prev = f


@pytest.mark.parametrize("n1", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n2", [0.5, 1.6])
def test_fidelity_thermal_oracle(n1, n2):
    """Thermal-state fidelity has an independent closed form."""
    expected = 1.0 / (1 + n1 + n2 + 2 * n1 * n2
                      - 2 * math.sqrt(n1 * n2 * (n1 + 1) * (n2 + 1)))
    t1 = GaussianState(1, np.zeros(2), (2 * n1 + 1) * 0.25 * np.eye(2))
    t2 = GaussianState(1, np.zeros(2), (2 * n2 + 1) * 0.25 * np.eye(2))
    assert fidelity_gaussian(t1, t2) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dx,dp", [(0.3, 0.0), (0.0, -0.7), (0.4, 0.2)])
def test_fidelity_coherent_oracle(dx, dp):
    """Displaced vacua overlap as exp(-(dx^2+dp^2)) in these units."""
    a = GaussianState.vacuum(1)
    b = GaussianState(1, np.array([dx, dp]), 0.25 * np.eye(2))
    assert fidelity_gaussian(a, b) == pytest.approx(
        math.exp(-(dx ** 2 + dp ** 2)), rel=1e-12)


def test_fidelity_rejects_multimode_and_nonphysical():
    with pytest.raises(ValueError):
        fidelity_gaussian(GaussianState.vacuum(2), GaussianState.vacuum(2))
    bad = GaussianState(1, np.zeros(2), np.diag([0.02, 0.02]), validate=False)
    with pytest.raises(NonPhysicalStateError):
        fidelity_gaussian(GaussianState.vacuum(1), bad)


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


# --------------------------------------------------------------------------
# sampling and dB


def test_sampling_vacuum_variance():
    rng = np.random.default_rng(0)
    draws = sample(GaussianState.vacuum(1), rng, size=100_000)
    se = 0.25 * math.sqrt(2 / (draws.shape[0] - 1))
    assert abs(draws[:, 0].var(ddof=1) - 0.25) < 3 * se
    assert abs(draws[:, 1].var(ddof=1) - 0.25) < 3 * se


def test_sampling_displaced_mean():
    rng = np.random.default_rng(1)
    state = GaussianState(1, np.array([2.0, 0.0]), 0.25 * np.eye(2))
    draws = sample(state, rng, size=50_000)
    assert draws[:, 0].mean() == pytest.approx(2.0, abs=3 * 0.5 / math.sqrt(50_000))


def test_sampling_squeezed_variance():
    rng = np.random.default_rng(2)
    state = squeezed_vacuum(db_to_r(3.5), "amplitude")
    draws = sample(state, rng, size=100_000)
    v = 0.25 * Q35
    assert abs(draws[:, 0].var(ddof=1) - v) < 3 * v * math.sqrt(2 / 99_999)


def test_sampling_covariance_consistency():
    rng = np.random.default_rng(5)
    state = join([squeezed_vacuum(0.5, "amplitude"), GaussianState.vacuum(1)])
    op = beamsplitter_symplectic(0, 1, 0.3, "+", 2)
    mixed = apply(op, state)
    draws = sample(mixed, rng, size=100_000)
    emp = np.cov(draws.T, ddof=1)
    n = draws.shape[0]
    for i in range(4):
        for j in range(4):
            se = math.sqrt((mixed.cov[i, i] * mixed.cov[j, j]
                            + mixed.cov[i, j] ** 2) / (n - 1))
            assert abs(emp[i, j] - mixed.cov[i, j]) < 5 * se


def test_variance_db_conversions():
    assert variance_to_db(0.25) == 0.0
    assert variance_to_db(0.25 * (1 + 8 * Q35)) == pytest.approx(6.60, abs=5e-3)
    assert variance_to_db(0.25 * 9) == pytest.approx(9.542, abs=5e-4)
    for v in (0.01, 0.25, 3.7):
        assert db_to_variance(variance_to_db(v)) == pytest.approx(v, rel=1e-12)
    with pytest.raises(ValueError):
        variance_to_db(0.0)


def test_omega_is_symplectic_form():
    w = omega(2)
    assert np.allclose(w, -w.T)
    assert np.allclose(w @ w, -np.eye(4))
