"""Error laws, event sampling, and the output mixtures."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cvqec.code import CodeConfig, closed_form_output, output_mixture, run_rounds
from cvqec.errors import (_BLOCK_SAMPLES, _PHASE_TRIG, MAX_MAGNITUDE, PHASE_GRID, ErrorConfig,
                          ErrorLaw, _phase_sums)
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
    for bad in (6, np.int64(6), np.bool_(True), True):
        with pytest.raises(ValueError, match="channel must be 1..5 or 'uniform'"):
            ErrorConfig(channel=bad)


def test_error_config_stores_a_numpy_integer_channel_as_an_int():
    """A numpy integer channel is taken, as counts are, and kept as a plain int."""
    for channel in (np.int64(3), np.uint8(3), np.int32(3)):
        cfg = ErrorConfig(1.0, channel)
        assert type(cfg.channel) is int and cfg == ErrorConfig(1.0, 3)
        assert repr(cfg) == repr(ErrorConfig(1.0, 3))


def test_law_magnitude_is_bounded():
    """Magnitudes up to MAX_MAGNITUDE are accepted, and any larger one, such
    as 1e160, whose square times a window overflows, is rejected."""
    for kind in ("general", "x", "p"):
        assert ErrorLaw(kind, MAX_MAGNITUDE).magnitude == MAX_MAGNITUDE
        for bad in (np.nextafter(MAX_MAGNITUDE, math.inf), 1e160):
            with pytest.raises(ValueError, match="within"):
                ErrorLaw(kind, float(bad))


def _drawn_errors(cfg, rounds, seed):
    """The rounds of a batch, run at window 30."""
    return run_rounds(CodeConfig(r=R35), cfg, np.random.default_rng(seed), rounds, window=30)


def test_sample_error_gamma_zero_is_null():
    """With gamma 0 no round is hit and no law is drawn: the rounds equal
    those of an error-free run under any other law."""
    out = _drawn_errors(ErrorConfig(0.0, 3, ErrorLaw("general", 5.0)), 200, 0)
    assert not out.channels.any()
    other = _drawn_errors(ErrorConfig(0.0, 3, ErrorLaw("x", 1.0)), 200, 0)
    for f in fields(out):
        np.testing.assert_array_equal(getattr(out, f.name), getattr(other, f.name), f.name)


def test_sample_error_general_magnitude_exact():
    assert (_drawn_errors(ErrorConfig(1.0, 2, ErrorLaw("general", 5.0)), 100, 1).channels == 2).all()
    draws = ErrorLaw("general", 5.0).draw(np.random.default_rng(1), 100)
    np.testing.assert_allclose((draws ** 2).sum(axis=1), 25.0, rtol=1e-12)


def test_sample_error_phase_is_uniform():
    draws = ErrorLaw("general", 5.0).draw(np.random.default_rng(2), 10_000)
    phases = np.arctan2(draws[:, 1], draws[:, 0]) % (2 * math.pi)
    result = scipy_stats.kstest(phases / (2 * math.pi), "uniform")
    assert result.pvalue > 0.01


def test_sample_error_occurrence_fraction():
    channels = _drawn_errors(ErrorConfig(0.3, "uniform", ErrorLaw("x", 1.0)), 10_000, 3).channels
    ci = 2.576 * math.sqrt(0.3 * 0.7 / 10_000)
    assert abs(np.count_nonzero(channels) / 10_000 - 0.3) <= ci


def test_sample_error_uniform_channel_policy():
    channels = _drawn_errors(ErrorConfig(1.0, "uniform", ErrorLaw("p", 1.0)), 300, 4).channels
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


def _grid_phase_bytes(seed, n, window):
    """The (n, window) phase indices that the general law draws from a fresh
    generator: one byte each of ``random_raw(ceil(n * window / 8))``, and the
    generator afterwards."""
    rng = np.random.default_rng(seed)
    raw = rng.bit_generator.random_raw(-(-n * window // 8))
    return raw.view(np.uint8)[:n * window].reshape(n, window), rng


# Odd n * window, a window shorter than the grid, whole-block rows, rows split
# across blocks, and one window over three blocks.
_GRID_SHAPES = [(7, 31), (255, 30), (256, 512), (5, 9001), (2, 100_001)]


@pytest.mark.parametrize("a", (1.0, 5.0))
@pytest.mark.parametrize("n,window", _GRID_SHAPES)
def test_general_law_sums_are_float64_trig_of_the_raw_bytes(n, window, a):
    """The general law's window mean and centred Gram equal those recomputed
    with float64 cos/sin at the phases 2 pi k / 256 of the same raw bytes,
    to 1e-12 * window * a (mean sums) and 1e-12 * window * a^2 (Gram), and
    leave the generator where ``random_raw(ceil(n * window / 8))`` does."""
    rng = np.random.default_rng(9)
    mean, gram = ErrorLaw("general", a).window_statistics(rng, n, window)
    assert mean.dtype == np.float64 and gram.dtype == np.float64
    index, fresh = _grid_phase_bytes(9, n, window)
    assert rng.bit_generator.state == fresh.bit_generator.state
    phase = 2.0 * math.pi * index / 256
    series = a * np.stack([np.cos(phase), np.sin(phase)], axis=-1)      # (n, w, 2)
    total = series.sum(axis=1)
    centred = series - total[:, None, :] / window
    np.testing.assert_allclose(mean * window, total, rtol=0, atol=1e-12 * window * a)
    np.testing.assert_allclose(gram, np.einsum("nwi,nwj->nij", centred, centred),
                               rtol=0, atol=1e-12 * window * a * a)


def _reference_phase_sums(rng, n, window):
    """The general law's phase sums, blocked for reference: the flat stream
    cut every ``_BLOCK_SAMPLES`` phases (every 128 rows below a window of
    256), a row split across two blocks where a cut falls inside it, and each
    block's int64 labels counted and multiplied into ``_PHASE_TRIG``."""
    sums = np.zeros((n, 4))
    size = n * window
    block = min(_BLOCK_SAMPLES, _BLOCK_SAMPLES // PHASE_GRID * window)
    for start in range(0, size, block):
        stop = min(start + block, size)
        first, last = start // window, -(-stop // window)           # rows [first, last)
        lengths = np.full(last - first, window)
        lengths[0] -= start - first * window
        lengths[-1] -= last * window - stop
        labels = np.repeat(np.arange(0, (last - first) * PHASE_GRID, PHASE_GRID), lengths)
        raw = rng.bit_generator.random_raw(-(-(stop - start) // 8))
        labels += raw.view(np.uint8)[:stop - start]
        counts = np.bincount(labels, minlength=(last - first) * PHASE_GRID)
        sums[first:last] += counts.reshape(-1, PHASE_GRID) @ _PHASE_TRIG
    return sums


# Windows below, at and above the grid and the block budget.  At 257 a block of
# the reference touches up to 129 rows, one more than the 128 that fit a block
# of whole rows.
@pytest.mark.parametrize("n", (1, 7, 129, 256))
@pytest.mark.parametrize("window", (30, 64, 255, 256, 257, 500, 512, 32767, 32768, 32769,
                                    40_000, 100_001))
def test_phase_sums_of_whole_row_blocks_match_the_reference(window, n):
    """Blocks of whole rows give the reference's sums bit for bit wherever its
    blocks held whole rows too (windows up to 256 and those dividing
    ``_BLOCK_SAMPLES``), within 1e-12 * window elsewhere, and leave the
    generator where one unblocked ``random_raw(ceil(n * window / 8))`` does."""
    rng, ref_rng, fresh = (np.random.default_rng(17) for _ in range(3))
    sums, want = _phase_sums(rng, n, window), _reference_phase_sums(ref_rng, n, window)
    if window <= PHASE_GRID or _BLOCK_SAMPLES % window == 0:
        np.testing.assert_array_equal(sums, want)
    else:
        np.testing.assert_allclose(sums, want, rtol=0, atol=1e-12 * window)
    fresh.bit_generator.random_raw(-(-n * window // 8))
    assert rng.bit_generator.state == ref_rng.bit_generator.state == fresh.bit_generator.state


def test_phase_grid_has_the_continuous_low_moments():
    """On the 256 grid points cos^a sin^b averages to its continuous value,
    (a - 1)!! (b - 1)!! / (a + b)!! for even a and b and 0 otherwise, for
    every a + b <= 8, to 1e-15."""
    def double_factorial(k):
        return math.prod(range(k, 0, -2))

    cos, sin = _PHASE_TRIG[:, 0], _PHASE_TRIG[:, 1]
    assert len(cos) == PHASE_GRID == 256
    for p in range(9):
        for q in range(9 - p):
            want = (double_factorial(p - 1) * double_factorial(q - 1) / double_factorial(p + q)
                    if p % 2 == q % 2 == 0 else 0.0)
            assert abs(np.mean(cos ** p * sin ** q) - want) <= 1e-15, (p, q)
    np.testing.assert_array_equal(_PHASE_TRIG[:, 2:], np.column_stack([cos * cos, cos * sin]))
    assert not _PHASE_TRIG.flags.writeable


_ALL_LAWS = [ErrorLaw("general", 2.0), ErrorLaw("x", 0.8), ErrorLaw("x", 1.5, "gaussian"),
             ErrorLaw("p", 0.8), ErrorLaw("p", 1.5, "gaussian")]


@pytest.mark.parametrize("law", _ALL_LAWS, ids=lambda law: f"{law.kind}-{law.shape}")
@pytest.mark.parametrize("n,window", [(1, 30), *_GRID_SHAPES[:3]])
def test_window_gram_is_exactly_symmetric(law, n, window):
    _, gram = law.window_statistics(np.random.default_rng(12), n, window)
    np.testing.assert_array_equal(gram[:, 0, 1], gram[:, 1, 0])


def test_general_law_memory_does_not_grow_with_the_window():
    """At n = 16 and window 10^5 the memory traced while the general law
    reduces its phases stays under 16 bytes per phase of one block, where the
    labels of one unblocked ``bincount`` alone would take 8 bytes per phase
    of all n * window."""
    n, window = 16, 100_000
    rng = np.random.default_rng(13)
    tracemalloc.start()
    try:
        ErrorLaw("general", 2.0).window_statistics(rng, n, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * _BLOCK_SAMPLES < 8 * n * window


@pytest.mark.parametrize("law,n", [(ErrorLaw("general", 0.0), 8), (ErrorLaw("general", 2.0), 0),
                                   (ErrorLaw("x", 0.0), 8), (ErrorLaw("p", 2.0), 0)])
def test_window_statistics_without_draws_are_float64_zeros(law, n):
    mean, gram = law.window_statistics(np.random.default_rng(0), n, 64)
    assert mean.shape == (n, 2) and gram.shape == (n, 2, 2)
    assert mean.dtype == np.float64 and gram.dtype == np.float64
    assert not mean.any() and not gram.any()


@pytest.mark.parametrize("law", _ALL_LAWS, ids=lambda law: f"{law.kind}-{law.shape}")
@pytest.mark.parametrize("n,window,match", [
    (True, 64, "^n must be at least 0 and an integer"),
    (2.0, 64, "^n must be at least 0 and an integer"),
    (-1, 64, "^n must be at least 0 and an integer"),
    (4, False, "^window must be at least 2 and an integer"),
    (4, 64.0, "^window must be at least 2 and an integer"),
    (4, math.nan, "^window must be at least 2 and an integer"),
    (4, -64, "^window must be at least 2 and an integer"),
    (4, 1, "^window must be at least 2 and an integer"),
])
def test_window_statistics_rejects_bad_counts(law, n, window, match):
    """``n`` is an integer of at least 0 and ``window`` one of at least 2 (a
    Gaussian law's sum of squares has window - 1 degrees of freedom); a bool,
    a float, even a whole one, or a value below the floor is a ValueError
    naming the argument."""
    with pytest.raises(ValueError, match=match):
        law.window_statistics(np.random.default_rng(0), n, window)


@pytest.mark.parametrize("law", _ALL_LAWS, ids=lambda law: f"{law.kind}-{law.shape}")
def test_window_statistics_take_numpy_integers(law):
    """A ``np.uint16`` window of 512 and a ``np.int64`` n of 3 give the
    results of the ints 512 and 3 bit for bit, leaving the generator in the
    same state; a uint16 window used to overflow in the general law's byte
    count."""
    for n, window in ((3, np.uint16(512)), (np.int64(3), 512)):
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        got = law.window_statistics(rng, n, window)
        want = law.window_statistics(ref, 3, 512)
        for got_part, want_part in zip(got, want, strict=True):
            np.testing.assert_array_equal(got_part, want_part)
        assert rng.bit_generator.state == ref.bit_generator.state


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
    both = 0.5 * closed_form_output(cfg, None)[1] + 0.5 * closed_form_output(cfg, 3)[1]
    assert np.allclose(cov, both, atol=1e-12)
    mean, cov = output_mixture(cfg, ErrorConfig(1.0, 4, ErrorLaw("general", 2.0)))
    assert np.allclose(mean, 0.0, atol=1e-12)
    assert np.allclose(cov, closed_form_output(cfg, 4)[1], atol=1e-12)


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("loss", [None, 0.9, (1.0, 0.9, 0.8, 0.95, 0.7)])
def test_mixture_of_one_hit_channel_is_its_closed_form(fourier, loss):
    """At gamma 1 on one channel the mixture is that channel's corrected
    branch bit for bit, whatever the law: its one weight is 1.0."""
    cfg = CodeConfig(r=R35, fourier_mode=fourier, channel_loss=loss)
    for ch in range(1, 6):
        for law in (ErrorLaw("general", 2.0), ErrorLaw("x", 3.0), ErrorLaw("p", 1.0, "gaussian")):
            got = output_mixture(cfg, ErrorConfig(1.0, ch, law))
            want = closed_form_output(cfg, ch)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
    for mean, var in zip(outcome.corrected_mean, outcome.corrected_cov.diagonal(0, 1, 2)):
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
    want = 0.5 * closed_form_output(cfg, None)[1]
    for ch in range(1, 6):
        want = want + 0.1 * closed_form_output(cfg, ch)[1]
    assert not mean.any()
    np.testing.assert_allclose(cov, want, rtol=1e-15, atol=0)
