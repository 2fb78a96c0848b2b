"""Error laws, event sampling, and the output mixtures."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cvqec.code import CodeConfig, closed_form_output, output_mixture, run_rounds
from cvqec.errors import ErrorConfig, ErrorLaw
from cvqec.gaussian import db_to_r

R35 = db_to_r(3.5)


def test_law_validation():
    with pytest.raises(ValueError):
        ErrorLaw("radial", 1.0)
    with pytest.raises(ValueError):
        ErrorLaw("general", 1.0, "gaussian")
    with pytest.raises(ValueError):
        ErrorLaw("x", -1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ErrorLaw("general", bad)
    with pytest.raises(ValueError):
        ErrorConfig(gamma=1.5)
    with pytest.raises(ValueError):
        ErrorConfig(channel=6)


def _drawn_errors(cfg, rounds, seed):
    """The hit channels (0 for none) and injected (dx, dp) of a batch of rounds."""
    out = run_rounds(CodeConfig(r=R35), cfg, np.random.default_rng(seed), rounds, window=30)
    return out.channels, out.injected


def test_sample_error_gamma_zero_is_null():
    channels, injected = _drawn_errors(ErrorConfig(0.0, 3, ErrorLaw("general", 5.0)), 200, 0)
    assert not channels.any()
    assert not injected.any()


def test_sample_error_general_magnitude_exact():
    channels, injected = _drawn_errors(ErrorConfig(1.0, 2, ErrorLaw("general", 5.0)), 100, 1)
    assert (channels == 2).all()
    np.testing.assert_allclose((injected ** 2).sum(axis=1), 25.0, rtol=1e-12)


def test_sample_error_phase_is_uniform():
    _, injected = _drawn_errors(ErrorConfig(1.0, 1, ErrorLaw("general", 5.0)), 10_000, 2)
    phases = np.arctan2(injected[:, 1], injected[:, 0]) % (2 * math.pi)
    result = scipy_stats.kstest(phases / (2 * math.pi), "uniform")
    assert result.pvalue > 0.01


def test_sample_error_occurrence_fraction():
    channels, _ = _drawn_errors(ErrorConfig(0.3, "uniform", ErrorLaw("x", 1.0)), 10_000, 3)
    ci = 2.576 * math.sqrt(0.3 * 0.7 / 10_000)
    assert abs(np.count_nonzero(channels) / 10_000 - 0.3) <= ci


def test_sample_error_uniform_channel_policy():
    channels, _ = _drawn_errors(ErrorConfig(1.0, "uniform", ErrorLaw("p", 1.0)), 300, 4)
    assert set(channels.tolist()) == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("law,vx,vp", [
    (ErrorLaw("general", 4.0), 8.0, 8.0),
    (ErrorLaw("x", 4.0), 16.0, 0.0),
    (ErrorLaw("p", 4.0, "gaussian"), 0.0, 16.0),
])
def test_law_quadrature_variances(law, vx, vp):
    assert law.quadrature_variances() == (vx, vp)
    rng = np.random.default_rng(6)
    draws = law.draw(rng, 40_000)
    assert draws[:, 0].var() == pytest.approx(vx, abs=4 * max(vx, 1.0) * 0.02)
    assert draws[:, 1].var() == pytest.approx(vp, abs=4 * max(vp, 1.0) * 0.02)


@pytest.mark.parametrize("a", (1.0, 5.0))
@pytest.mark.parametrize("window", (16, 512))
def test_general_law_float32_trig_matches_float64(window, a):
    """The general law takes float32 sin/cos of its float32 phases and sums
    in float64.  On the same phases, float64 sin/cos give mean sums within
    1e-7 * w * a and centred Gram entries within 1e-7 * w * a^2."""
    n = 64
    mean, gram = ErrorLaw("general", a).window_statistics(np.random.default_rng(9), n, window)
    assert mean.dtype == np.float64 and gram.dtype == np.float64
    phase = np.random.default_rng(9).random((n, window), dtype=np.float32)
    phase *= np.float32(2.0 * math.pi)
    phase = phase.astype(np.float64)
    series = a * np.stack([np.cos(phase), np.sin(phase)], axis=-1)      # (n, w, 2)
    total = series.sum(axis=1)
    centred = series - total[:, None, :] / window
    np.testing.assert_allclose(mean * window, total, rtol=0, atol=1e-7 * window * a)
    np.testing.assert_allclose(gram, np.einsum("nwi,nwj->nij", centred, centred),
                               rtol=0, atol=1e-7 * window * a * a)


@pytest.mark.parametrize("n,window", [(7, 31), (256, 64)])
def test_general_law_phases_are_numpy_float32_uniforms(n, window):
    """From a fresh generator the general law's phases, drawn from raw bits,
    are numpy's float32 uniforms times float32(2 pi) bit for bit, an odd
    number of phases included: the window means are exactly those of the
    ``rng.random(dtype=np.float32)`` phases."""
    a = 1.5
    mean, _ = ErrorLaw("general", a).window_statistics(np.random.default_rng(8), n, window)
    phase = np.random.default_rng(8).random((n, window), dtype=np.float32)
    phase *= np.float32(2.0 * math.pi)
    sums = np.stack([np.cos(phase).sum(axis=1, dtype=np.float64),
                     np.sin(phase).sum(axis=1, dtype=np.float64)], axis=1)
    np.testing.assert_array_equal(mean, sums * (a / window))


@pytest.mark.parametrize("law,n", [(ErrorLaw("general", 0.0), 8), (ErrorLaw("general", 2.0), 0),
                                   (ErrorLaw("x", 0.0), 8), (ErrorLaw("p", 2.0), 0)])
def test_window_statistics_without_draws_are_float64_zeros(law, n):
    mean, gram = law.window_statistics(np.random.default_rng(0), n, 64)
    assert mean.shape == (n, 2) and gram.shape == (n, 2, 2)
    assert mean.dtype == np.float64 and gram.dtype == np.float64
    assert not mean.any() and not gram.any()


def test_mixture_gamma_zero_single_component():
    mean, cov = output_mixture(CodeConfig(r=R35), ErrorConfig(0.0, 3, ErrorLaw("x", 2.0)))
    assert np.allclose(mean, 0.0)
    _, inp_cov = CodeConfig(r=R35).input_state()
    assert np.allclose(cov, inp_cov)


def test_mixture_immunity_collapses_channel1():
    """gamma=1 on a protected channel: the output equals the input."""
    mean, cov = output_mixture(CodeConfig(r=R35), ErrorConfig(1.0, 1, ErrorLaw("x", 3.0)))
    assert np.allclose(mean, 0.0)
    assert np.allclose(cov, 0.25 * np.eye(2))


def test_mixture_corrected_branch_collapses():
    """Exact cancellation makes a corrected branch one zero-mean Gaussian
    whatever the law, so the mixture's covariance is the weighted sum of the
    branches' closed forms."""
    cfg = CodeConfig(r=R35)
    mean, cov = output_mixture(cfg, ErrorConfig(0.5, 3, ErrorLaw("x", 3.0)))
    assert np.allclose(mean, 0.0, atol=1e-12)
    both = 0.5 * closed_form_output(cfg, None).cov + 0.5 * closed_form_output(cfg, 3).cov
    assert np.allclose(cov, both, atol=1e-12)
    mean, cov = output_mixture(cfg, ErrorConfig(1.0, 4, ErrorLaw("general", 2.0)))
    assert np.allclose(mean, 0.0, atol=1e-12)
    assert np.allclose(cov, closed_form_output(cfg, 4).cov, atol=1e-12)


def test_monte_carlo_matches_mixture_moments():
    """Pooled round outputs converge to the corrected-mixture moments.

    Whether a round is hit is drawn once per round, so the pooled samples
    are clustered: the reference is the mixture at the realized hit fraction,
    and the standard errors add each branch's within-branch spread."""
    cfg = CodeConfig(r=R35)
    amp = 10 * math.sqrt(0.25 * math.exp(-2 * R35))
    ec = ErrorConfig(0.5, 3, ErrorLaw("x", amp))
    rounds, window = 100, 1000
    outcome = run_rounds(cfg, ec, np.random.default_rng(55), rounds, window)
    assert outcome.summary.accuracy == 1.0
    n = rounds * window
    s1 = np.zeros(2)
    s2 = np.zeros(2)
    for mean, var in zip(outcome.corrected_mean, outcome.corrected_var):
        s1 += window * mean
        s2 += (window - 1) * var + window * mean ** 2
    emp_mean = s1 / n
    emp_var = (s2 - n * emp_mean ** 2) / (n - 1)
    hit = int(np.count_nonzero(outcome.channels))
    mean, cov = output_mixture(cfg, replace(ec, gamma=hit / rounds))
    # samples and covariance of the no-error and the error branch
    branches = [(window * (rounds - hit), output_mixture(cfg, replace(ec, gamma=0.0))[1]),
                (window * hit, output_mixture(cfg, replace(ec, gamma=1.0))[1])]
    for k in (0, 1):
        se_mean = math.sqrt(sum(n_b * c[k, k] for n_b, c in branches)) / n
        se_var = math.sqrt(2.0 * sum(n_b * c[k, k] ** 2 for n_b, c in branches)) / n
        assert abs(emp_mean[k] - mean[k]) < 5 * se_mean
        assert abs(emp_var[k] - cov[k, k]) < 5 * se_var


def test_mixture_uniform_policy_shares_gamma():
    """Under the uniform policy each channel's branch carries gamma / 5."""
    cfg = CodeConfig(r=R35, channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7))
    mean, cov = output_mixture(cfg, ErrorConfig(0.5, "uniform", ErrorLaw("x", 3.0)))
    want = 0.5 * closed_form_output(cfg, None).cov
    for ch in range(1, 6):
        want = want + 0.1 * closed_form_output(cfg, ch).cov
    assert not mean.any()
    np.testing.assert_allclose(cov, want, rtol=1e-15, atol=0)
