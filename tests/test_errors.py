"""Error laws, event sampling, and the non-Gaussian output mixtures."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cvqec.code import CodeConfig, closed_form_output, output_mixture, run_rounds
from cvqec.errors import ErrorConfig, ErrorLaw, MixtureState
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


def test_branch_components_normalized():
    for law in (ErrorLaw("general", 2.0), ErrorLaw("x", 2.0),
                ErrorLaw("p", 2.0, "gaussian")):
        comps = law.branch_components()
        assert sum(w for w, *_ in comps) == pytest.approx(1.0, rel=1e-12)


def test_mixture_state_validation():
    with pytest.raises(ValueError):
        MixtureState((0.6, 0.6), ((0, 0), (1, 1)),
                     (((0.25, 0), (0, 0.25)),) * 2)


def test_mixture_gamma_zero_single_component():
    m = output_mixture(CodeConfig(r=R35), ErrorConfig(0.0, 3, ErrorLaw("x", 2.0)))
    assert len(m) == 1
    assert np.allclose(m.means[0], 0.0)
    inp = CodeConfig(r=R35).input_state()
    assert np.allclose(np.asarray(m.covs[0]), inp.cov)


def test_mixture_immunity_collapses_channel1():
    """gamma=1 on a protected channel: both sign branches equal the input."""
    m = output_mixture(CodeConfig(r=R35), ErrorConfig(1.0, 1, ErrorLaw("x", 3.0)))
    assert len(m) == 1
    assert np.allclose(np.asarray(m.covs[0]), 0.25 * np.eye(2))


def test_mixture_corrected_branch_collapses():
    """Exact cancellation makes every error-branch component identical, so a
    corrected branch is one component."""
    cfg = CodeConfig(r=R35)
    m = output_mixture(cfg, ErrorConfig(0.5, 3, ErrorLaw("x", 3.0)))
    assert len(m) == 2
    th = closed_form_output(cfg, 3)
    assert np.allclose(np.asarray(m.covs[1]), th.cov, atol=1e-12)
    law = ErrorLaw("general", 2.0)
    mg = output_mixture(cfg, ErrorConfig(1.0, 4, law))
    assert len(mg) == 1
    for _, dx, dp, extra in law.branch_components():
        branch = closed_form_output(cfg, 4, displacement=(dx, dp), extra_error_var=extra)
        assert np.allclose(branch.mean, mg.means[0], atol=1e-12)
        assert np.allclose(branch.cov, np.asarray(mg.covs[0]), atol=1e-12)


def test_mixture_moments_single_component():
    m = MixtureState((1.0,), ((0.5, -0.5),), (((0.3, 0.0), (0.0, 0.4)),))
    mean, cov = m.moments()
    assert np.allclose(mean, [0.5, -0.5])
    assert np.allclose(cov, [[0.3, 0], [0, 0.4]])


def test_mixture_moments_total_variance():
    """Equal mix of +-A means with shared cov V: mean 0, variance V + A^2."""
    v, a = 0.3, 2.0
    m = MixtureState((0.5, 0.5), ((a, 0.0), (-a, 0.0)),
                     (((v, 0.0), (0.0, v)),) * 2)
    mean, cov = m.moments()
    assert np.allclose(mean, 0.0)
    assert cov[0, 0] == pytest.approx(v + a ** 2, rel=1e-12)
    assert cov[1, 1] == pytest.approx(v, rel=1e-12)


def test_uncorrected_branch_mean_shift():
    """An uncorrected channel-3 x displacement lands on the output as A/sqrt3."""
    a = 3.0
    m = output_mixture(CodeConfig(r=R35), ErrorConfig(1.0, 3, ErrorLaw("x", a)),
                       corrected=False)
    shifts = sorted(mu[0] for mu in m.means)
    assert shifts == pytest.approx([-a / math.sqrt(3), a / math.sqrt(3)], rel=1e-12)


def test_kurtosis_flags_distinct_branches():
    cfg = CodeConfig(r=R35)
    uncorrected = output_mixture(cfg, ErrorConfig(0.5, 3, ErrorLaw("x", 3.0)),
                                 corrected=False)
    assert abs(uncorrected.quadrature_kurtosis_excess("x")) > 1.0
    collapsed = output_mixture(cfg, ErrorConfig(1.0, 3, ErrorLaw("x", 3.0)))
    assert collapsed.quadrature_kurtosis_excess("x") == pytest.approx(0.0, abs=1e-12)


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
    mean, cov = output_mixture(cfg, replace(ec, gamma=hit / rounds)).moments()
    # samples and covariance of the no-error and the error branch
    branches = [(window * (rounds - hit), output_mixture(cfg, replace(ec, gamma=0.0))),
                (window * hit, output_mixture(cfg, replace(ec, gamma=1.0)))]
    branches = [(n_b, branch.moments()[1]) for n_b, branch in branches]
    for k in (0, 1):
        se_mean = math.sqrt(sum(n_b * c[k, k] for n_b, c in branches)) / n
        se_var = math.sqrt(2.0 * sum(n_b * c[k, k] ** 2 for n_b, c in branches)) / n
        assert abs(emp_mean[k] - mean[k]) < 5 * se_mean
        assert abs(emp_var[k] - cov[k, k]) < 5 * se_var


def test_mixture_uniform_policy_shares_gamma():
    """Under the uniform policy each channel's branch carries gamma / 5, and
    an uncorrected branch splits over the law's components."""
    cfg = CodeConfig(r=R35, channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7))
    law = ErrorLaw("x", 3.0)
    m = output_mixture(cfg, ErrorConfig(0.5, "uniform", law))
    assert m.weights == pytest.approx((0.5,) + (0.1,) * 5, rel=1e-15)
    for ch, cov in zip(range(1, 6), m.covs[1:]):
        np.testing.assert_allclose(cov, closed_form_output(cfg, ch).cov, rtol=0, atol=0)
    raw = output_mixture(cfg, ErrorConfig(0.5, "uniform", law), corrected=False)
    assert raw.weights == pytest.approx((0.5,) + (0.05,) * 10, rel=1e-15)
