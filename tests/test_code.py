"""End-to-end pipeline: encoding, syndromes, classification, feedforward."""

import dataclasses
import gc
import math
import re
import warnings
import weakref
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import code as qec
from cvqec import errors as qec_errors
from cvqec.code import (AMBIGUOUS_P, CODE_NAMES, DETECTOR_POS, DETECTORS, NO_ERROR, OUT_POS,
                        PLANS, UNCLASSIFIABLE, CodeConfig, closed_form_output,
                        decode, encode, inject_error, measured_quad, run_rounds,
                        syndrome_trace)
from cvqec.errors import MAX_MAGNITUDE, ErrorConfig, ErrorLaw
from cvqec.exact import (ExactScalar, LinearForm, ModeForm, QuadSymbol, SQRT2,
                         TAG_ANTISQUEEZED, TAG_SQUEEZED, mode_forms_apply_matrix, sqrt_of)
from cvqec.gaussian import db_to_r, fidelity_from_moments, variance_to_db
from cvqec.network import encoder_matrix, inverse, lift_to_symplectic
from test_exact import form_covariance, form_variance, scaled

R35 = db_to_r(3.5)
Q35 = 10.0 ** -0.35
STRONG = 10.0 * math.sqrt(0.25 * math.exp(-2 * R35))


def classify_codes(flags, cross):
    """Round codes from (..., 4) fluctuation flags and (..., 2) D1-D3 / D3-D4
    cross terms: the syndrome table read at their ``_syndrome_index``."""
    return qec._CODE_TABLE[qec._syndrome_index(flags, cross)]


def frac(n, d=1):
    return Fraction(n, d)


def _readout_noise(maps, n, window, rng):
    """(n, window, 6) readout noise series: one normal per ``noise`` column
    and sample (ten, or twenty with loss) through the network."""
    return rng.standard_normal((n, window, maps.noise.shape[1])) @ maps.noise.T


def _error_series(maps, channels, draws):
    """(n, window, 6) readout series of each round's (window, 2) displacements."""
    coeff = maps.err_columns[channels - 1]
    return draws[:, :, :1] * coeff[:, None, :, 0] + draws[:, :, 1:] * coeff[:, None, :, 1]


def _reduce_series(series):
    """Every round's readout mean (n, 6) and centred factor (n, 6, window) of
    (n, window, 6) series: the transposed centred series, whose scatter is
    its product with its transpose."""
    mean = series.mean(axis=1)
    return mean, (series - mean[:, None, :]).transpose(0, 2, 1)


def _statistics_block(mean, factor):
    """The round engine's detector-major statistics block: each round's
    factor with its mean as a last column, (6, n, k + 1)."""
    return np.concatenate([factor, mean[:, :, None]], axis=2).transpose(1, 0, 2)


def _sample_series(maps, channels, law, window, rng):
    """(n, window, 6) readout series: the noise plus each hit round's error
    series drawn from the law's ``draw``.  Reduced by ``_reduce_series``, it
    is the reference that ``_sample_statistics`` equals in law."""
    series = _readout_noise(maps, len(channels), window, rng)
    idx = np.flatnonzero(channels)
    if len(idx):
        draws = law.draw(rng, len(idx) * window).reshape(len(idx), window, 2)
        series[idx] += _error_series(maps, channels[idx], draws)
    return series


def _series_statistics(maps, channels, law, window, rng):
    """The round statistics block reduced from sampled readout series: the
    series route that ``_sample_statistics`` equals in law."""
    return _statistics_block(*_reduce_series(_sample_series(maps, channels, law, window, rng)))


@pytest.fixture
def series_sampler(monkeypatch):
    """Makes run_rounds sample every pass's readout series and reduce it.
    Returns the list to which each pass's (n, window, 6) series is appended."""
    passes = []

    def sample(maps, channels, law, window, rng):
        series = _sample_series(maps, channels, law, window, rng)
        passes.append(series)
        return _statistics_block(*_reduce_series(series))

    monkeypatch.setattr(qec, "_sample_statistics", sample)
    return passes


def _assert_same_columns(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), f.name)


def test_code_config_validation():
    with pytest.raises(ValueError):
        CodeConfig(r=-0.1)
    with pytest.raises(ValueError):
        CodeConfig(input_kind="thermal")
    with pytest.raises(ValueError):
        CodeConfig(channel_loss=1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            CodeConfig(r=bad)
        with pytest.raises(ValueError, match="finite"):
            CodeConfig(r=(0.1, bad, 0.3, 0.4))
        with pytest.raises(ValueError, match="finite"):
            CodeConfig(input_kind="squeezed", input_squeeze_db=bad)
        with pytest.raises(ValueError, match="finite"):
            CodeConfig(input_kind="squeezed", input_antisqueeze_db=bad)
    assert CodeConfig(r=(0.1, 0.2, 0.3, 0.4)).r == (0.1, 0.2, 0.3, 0.4)
    assert CodeConfig(r=np.array([0.1, 0.2, 0.3, 0.4])).r == (0.1, 0.2, 0.3, 0.4)
    # a per-mode value is a real number, not a bool, string or other array
    for field, bad in (("r", "0.4"), ("r", True), ("r", np.array(0.4)),
                       ("r", np.ones((1, 4))), ("r", [0.1, None, 0.3, 0.4]),
                       ("r", 10 ** 400), ("channel_loss", [1.0, 1.0, True, 1.0, 1.0]),
                       ("channel_loss", np.bool_(True)), ("channel_loss", "1")):
        what = "squeezing parameter" if field == "r" else "channel transmissivity"
        with pytest.raises(ValueError, match=what):
            CodeConfig(**{field: bad})
    for field in ("input_squeeze_db", "input_antisqueeze_db"):
        for bad in ("3.5", False, 10 ** 400):
            with pytest.raises(ValueError, match=r"input (anti)?squeezing in dB must be finite"):
                CodeConfig(**{field: bad})


def test_input_squeezing_is_bounded_by_max_input_db():
    """Both input dB values lie in [0, ``MAX_INPUT_DB``], for a vacuum input
    too, and the message names the bound.  At the worst accepted corner, a
    pure input squeezed by the bound beside r = ``MAX_R`` ancillas, whose
    outputs are the input to 1e-18, every fidelity is 1 within 2.9e-9."""
    bound = qec.MAX_INPUT_DB
    for fourier in (False, True):
        cfg = CodeConfig(r=qec.MAX_R, input_kind="squeezed", input_squeeze_db=bound,
                         input_antisqueeze_db=bound, fourier_mode=fourier)
        for channel in range(1, 6):
            f = fidelity_from_moments(*cfg.input_state(), *closed_form_output(cfg, channel))
            assert f == pytest.approx(1.0, abs=2.9e-9)
    for sq, anti in ((-300.0, 300.0), (-1e-9, 8.9), (3.5, bound + 1e-9), (1e308, 1e308)):
        for kind in ("vacuum", "squeezed"):
            with pytest.raises(ValueError, match=r"finite and within \[0, 30\]"):
                CodeConfig(input_kind=kind, input_squeeze_db=sq, input_antisqueeze_db=anti)


def test_squeezing_above_max_r_is_rejected():
    """r is bounded by ``MAX_R``, for all ancillas or any one of them, and the
    message names the bound."""
    assert CodeConfig(r=qec.MAX_R).r == (qec.MAX_R,) * 4
    for bad in (qec.MAX_R + 1e-4, 46.0, (0.4, 0.4, qec.MAX_R + 1e-4, 0.4)):
        with pytest.raises(ValueError, match=r"within \[0, 25\]"):
            CodeConfig(r=bad)


def _in_range(high):
    return st.one_of(st.floats(0.0, high), st.sampled_from([0.0, high]))


def _any_value(high):
    """A value for a config number whose range is [0, high]: in range, at or
    just beyond a bound, non-finite, huge, or not a real number at all."""
    return st.one_of(
        _in_range(high),
        st.sampled_from([float(np.nextafter(high, np.inf)), -1e-300, 1e308, math.nan,
                         math.inf, -math.inf, 10 ** 400, -(10 ** 400), np.float64(high)]),
        st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 40),
        st.booleans(), st.text(max_size=3), st.just(np.array(high)), st.none())


def _per_mode_spelling(values, n):
    """One value for every mode, or ``n`` values as a list, tuple or 1-D
    array; ``values`` may also give a wrong count or a 2-D array."""
    return st.one_of(values, st.lists(values, min_size=n, max_size=n),
                     st.lists(values, min_size=n, max_size=n).map(tuple),
                     st.lists(values, min_size=n, max_size=n).map(np.array))


@st.composite
def _code_config_args(draw):
    """In-range ``CodeConfig`` arguments, with none or one of the drawn
    fields replaced by an arbitrary value."""
    squeeze = draw(_in_range(qec.MAX_INPUT_DB))
    args = {"r": draw(_per_mode_spelling(_in_range(qec.MAX_R), 4)),
            "channel_loss": draw(st.none() | _per_mode_spelling(_in_range(1.0), 5)),
            "input_squeeze_db": squeeze,
            "input_antisqueeze_db": draw(st.floats(squeeze, qec.MAX_INPUT_DB)),
            "fourier_mode": draw(st.booleans())}
    field = draw(st.sampled_from([None, "r", "channel_loss", "input_squeeze_db",
                                  "input_antisqueeze_db"]))
    if field == "r":
        args[field] = draw(_per_mode_spelling(_any_value(qec.MAX_R), 4)
                           | st.lists(_in_range(qec.MAX_R), min_size=3, max_size=5)
                           | st.just(np.full((1, 4), 0.4)))
    elif field == "channel_loss":
        args[field] = draw(_per_mode_spelling(_any_value(1.0), 5)
                           | st.lists(_in_range(1.0), min_size=4, max_size=6).map(np.array))
    elif field is not None:
        args[field] = draw(_any_value(qec.MAX_INPUT_DB))
    return args


@given(args=_code_config_args())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_code_config_accepts_only_what_the_model_runs(args):
    """A config either raises ValueError, never TypeError or OverflowError, or
    its vacuum and squeezed twins give a fidelity in [0, 1] and a finite noise
    power on every channel (any RuntimeWarning fails the test)."""
    try:
        cfg = CodeConfig(**args)
    except ValueError:
        return
    assert all(type(v) is float for v in (*cfg.r, *cfg.channel_loss, cfg.input_squeeze_db,
                                          cfg.input_antisqueeze_db))
    for kind in ("vacuum", "squeezed"):
        twin = dataclasses.replace(cfg, input_kind=kind)
        for channel in range(1, 6):
            moments = closed_form_output(twin, channel)
            assert 0.0 <= fidelity_from_moments(*twin.input_state(), *moments) <= 1.0
            cov = moments[1]
            assert (math.isfinite(variance_to_db(float(cov[0, 0])))
                    and math.isfinite(variance_to_db(float(cov[1, 1]))))


def _any_number(high):
    """``_any_value`` or a list or 1-D array of in-range values."""
    values = st.lists(_in_range(high), min_size=1, max_size=2)
    return _any_value(high) | values | values.map(np.array)


@given(magnitude=_any_number(MAX_MAGNITUDE), gamma=_any_number(1.0))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_error_models_store_a_float_in_range(magnitude, gamma):
    """``ErrorLaw(magnitude=...)`` and ``ErrorConfig(gamma=...)`` either
    raise ValueError, never TypeError or OverflowError, or store the value
    as a float in [0, MAX_MAGNITUDE] and [0, 1]."""
    for build, value, high in ((lambda v: ErrorLaw(magnitude=v).magnitude, magnitude,
                                MAX_MAGNITUDE),
                               (lambda v: ErrorConfig(gamma=v).gamma, gamma, 1.0)):
        try:
            stored = build(value)
        except ValueError:
            continue
        assert type(stored) is float and 0.0 <= stored <= high and stored == value


@pytest.mark.parametrize("r", [0.0, 10.0, 20.0, qec.MAX_R])
def test_accepted_squeezing_meets_the_noise_formula(r):
    """Every accepted r keeps criterion 4's output variances, V_in plus
    {0, 0, 2/3, 2/3, 2/3} e^{-2r}/4 in x and {0, 0, 2, 8, 8} e^{-2r}/4 in p
    over channels 1-5, within 1e-10 relative for both inputs."""
    quiet = 0.25 * math.exp(-2.0 * r)
    units = {1: (0.0, 0.0), 2: (0.0, 0.0), 3: (2 / 3, 2.0), 4: (2 / 3, 8.0), 5: (2 / 3, 8.0)}
    for input_kind in ("vacuum", "squeezed"):
        cfg = CodeConfig(r=r, input_kind=input_kind)
        v_in = cfg.input_variances()
        for channel, (ux, up) in units.items():
            cov = closed_form_output(cfg, channel)[1]
            assert cov[0, 0] == pytest.approx(v_in[0] + ux * quiet, rel=1e-10, abs=0)
            assert cov[1, 1] == pytest.approx(v_in[1] + up * quiet, rel=1e-10, abs=0)


def test_squeezed_input_obeys_the_uncertainty_relation():
    """A squeezed input whose antisqueezing is below its squeezing would have
    V_x V_p < 1/16 and is rejected, also beside a vacuum input, from which
    table2 builds it; equal values give a pure state."""
    for kind in ("squeezed", "vacuum"):
        with pytest.raises(ValueError, match="below the vacuum's 1/16"):
            CodeConfig(input_kind=kind, input_squeeze_db=3.5, input_antisqueeze_db=1.0)
    v_x, v_p = CodeConfig(input_kind="squeezed", input_squeeze_db=3.5,
                          input_antisqueeze_db=3.5).input_variances()
    assert v_x * v_p == pytest.approx(1 / 16, rel=1e-15)


def test_code_config_lists_become_tuples():
    """Per-ancilla and per-channel lists give the same hashable config as tuples."""
    cfg = CodeConfig(r=[0.1, 0.2, 0.3, 0.4], channel_loss=[1.0, 0.9, 0.9, 0.8, 1.0])
    same = CodeConfig(r=(0.1, 0.2, 0.3, 0.4), channel_loss=(1.0, 0.9, 0.9, 0.8, 1.0))
    assert cfg == same
    assert hash(cfg) == hash(same)


@pytest.mark.parametrize("spellings", [
    (CodeConfig(r=0.4), CodeConfig(r=[0.4] * 4), CodeConfig(r=(0.4, 0.4, 0.4, 0.4))),
    (CodeConfig(), CodeConfig(channel_loss=1.0), CodeConfig(channel_loss=[1.0] * 5),
     CodeConfig(channel_loss=np.ones(5)), CodeConfig(channel_loss=np.float64(1.0))),
    (CodeConfig(r=(0.1, 0.2, 0.3, 0.4)), CodeConfig(r=np.array([0.1, 0.2, 0.3, 0.4])),
     CodeConfig(r=[np.float64(0.1), 0.2, Fraction(3, 10), 0.4])),
], ids=["r", "loss", "array"])
def test_code_config_spellings_share_one_normal_form(spellings):
    """A single value and the same value per mode, and a tuple, list or 1-D
    array of any real number types, are one configuration: it
    stores r per ancilla and the transmissivity per channel, compares and
    hashes equal, and ``_maps`` builds one instance for it."""
    first = spellings[0]
    assert len(first.r) == 4 and len(first.channel_loss) == 5
    for cfg in spellings[1:]:
        assert cfg == first
        assert hash(cfg) == hash(first)
        assert qec._maps(cfg, False) is qec._maps(first, False)


@pytest.mark.parametrize("bad", ["yes", "false", None, 2, 1, 0, np.int64(1)])
def test_code_config_rejects_a_fourier_flag_that_is_not_a_bool(bad):
    """Only a bool selects the basis: a string, None or an integer, 1 and 0
    included, is a ValueError naming it when the config is built, not a
    failure inside numpy when a round first runs."""
    with pytest.raises(ValueError,
                       match=rf"^the Fourier flag must be a bool, not {re.escape(repr(bad))}$"):
        CodeConfig(fourier_mode=bad)


def test_code_config_stores_a_numpy_bool_fourier_flag_as_a_bool():
    for flag in (False, True):
        cfg = CodeConfig(fourier_mode=np.bool_(flag))
        assert cfg.fourier_mode is flag
        assert cfg == CodeConfig(fourier_mode=flag)
        assert repr(cfg) == repr(CodeConfig(fourier_mode=flag))


def test_code_config_rejects_a_wrong_mode_count():
    with pytest.raises(ValueError, match="per-ancilla squeezing needs 4 values"):
        CodeConfig(r=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="per-channel loss needs 5 values"):
        CodeConfig(channel_loss=[1.0] * 4)


def test_encode_symbolic_channel4():
    """c4 = a2/(2 sqrt6) - a3/(2 sqrt2) + a4/sqrt2 - a_in/sqrt3."""
    enc = encode(fourier=False)
    c4x = enc[3].x
    assert c4x.coefficient(QuadSymbol.ancilla(2, "x", TAG_ANTISQUEEZED)) == \
        sqrt_of(frac(1, 24))
    assert c4x.coefficient(QuadSymbol.ancilla(3, "x", TAG_SQUEEZED)) == \
        -sqrt_of(frac(1, 8))
    assert c4x.coefficient(QuadSymbol.ancilla(4, "x", TAG_SQUEEZED)) == \
        sqrt_of(frac(1, 2))
    assert c4x.coefficient(QuadSymbol.input("x")) == -sqrt_of(frac(1, 3))


def _ancilla_rotation():
    """The ancillas' 90-degree rotation (x, p) -> (-p, x) on the interleaved
    quadratures, built here independently of ``exact.ModeForm.fourier``."""
    rot = np.eye(10)
    for pos in range(5):
        if pos != qec.INPUT_POS:
            rot[2 * pos:2 * pos + 2, 2 * pos:2 * pos + 2] = [[0.0, -1.0], [1.0, 0.0]]
    return rot


def _reference_cov(cfg, decoded=True):
    """The pipeline covariance built step by step in numpy: source variances
    from r and the ancilla orientations, the lifted encoder (after the
    ancillas' rotation in Fourier mode) and, with ``decoded``, per-channel
    loss (sqrt(eta) scaling plus (1 - eta)/4 of vacuum) and the lifted
    decoder."""
    var = []
    ancillas = iter(zip(cfg.r, qec.ANCILLA_ORIENTATIONS))
    for pos in range(5):
        if pos == qec.INPUT_POS:
            var += np.diagonal(cfg.input_state()[1]).tolist()
            continue
        r, orientation = next(ancillas)
        quiet, loud = 0.25 * math.exp(-2 * r), 0.25 * math.exp(2 * r)
        var += [quiet, loud] if orientation == "amplitude" else [loud, quiet]
    enc = lift_to_symplectic(encoder_matrix())
    if cfg.fourier_mode:
        enc = enc @ _ancilla_rotation()
    cov = enc @ np.diag(var) @ enc.T
    if not decoded:
        return cov
    eta = np.repeat(cfg.channel_loss, 2)
    cov = np.sqrt(np.outer(eta, eta)) * cov + np.diag(0.25 * (1.0 - eta))
    dec = lift_to_symplectic(inverse(encoder_matrix()))
    return dec @ cov @ dec.T


def test_network_encoder_is_the_reference_lift():
    """The encoder symplectic, the float view of the exact encoded forms, is
    the reference's lifted encoder matrix: bit for bit after the ancillas'
    rotation, and equal (zeros may differ in sign) without it."""
    plain = lift_to_symplectic(encoder_matrix())
    assert qec._network_symplectics(True)[0].tobytes() == (plain @ _ancilla_rotation()).tobytes()
    assert np.array_equal(qec._network_symplectics(False)[0], plain)


def _form_covariances(forms, cfg):
    quads = [f for m in forms for f in (m.x, m.p)]
    return np.array([[form_covariance(f, g, cfg.r, cfg.input_variances())
                      for g in quads] for f in quads])


def test_encode_unsqueezed_gives_vacuum_channels():
    cfg = CodeConfig(r=0.0)
    assert np.allclose(_form_covariances(encode(fourier=cfg.fourier_mode), cfg),
                       0.25 * np.eye(10), atol=1e-12)
    assert np.allclose(_reference_cov(cfg, decoded=False), 0.25 * np.eye(10), atol=1e-12)


def test_encode_correlation_variance():
    """Var(x_c4 + x_c5) = 2 (1/4) e^{-2r}."""
    for r in (0.0, R35, 1.2):
        enc = encode(fourier=False)
        f = enc[3].x + enc[4].x
        assert form_variance(f, r) == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)


def test_encode_numeric_matches_symbolic_covariances():
    """The numpy reference's encoded covariance equals that of the exact
    encoded forms."""
    cfg = CodeConfig(r=(0.2, 0.5, 0.8, 0.1), input_kind="squeezed")
    np.testing.assert_allclose(_reference_cov(cfg, decoded=False),
                               _form_covariances(encode(fourier=cfg.fourier_mode), cfg),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("r", [0.6, (0.2, 0.7, 0.1, 0.9)])
def test_encode_fourier_mode_matches_symbolic(r):
    cfg = CodeConfig(r=r, fourier_mode=True)
    np.testing.assert_allclose(_reference_cov(cfg, decoded=False),
                               _form_covariances(encode(fourier=cfg.fourier_mode), cfg),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("cfg", [
    CodeConfig(r=R35),
    CodeConfig(r=(0.2, 0.5, 0.8, 0.1), channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7)),
    CodeConfig(r=0.6, fourier_mode=True),
    CodeConfig(r=R35, fourier_mode=True, channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7)),
    CodeConfig(r=R35, input_kind="squeezed"),
    CodeConfig(r=0.9, input_kind="squeezed", fourier_mode=True,
               channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7)),
], ids=["lossless", "loss", "fourier", "fourier-loss", "squeezed", "squeezed-fourier-loss"])
def test_pipeline_maps_decoded_cov_matches_gaussian_engine(cfg):
    """The readout covariance of PipelineMaps' noise maps, which the sampler
    draws from, equals the one the numpy reference builds step by step,
    and, without loss, the covariance of the exact decoded forms."""
    maps = qec.PipelineMaps(cfg, cfg.fourier_mode)
    cov = maps.noise @ maps.noise.T
    rows = np.ix_(*[qec.readout_rows(cfg.fourier_mode)] * 2)
    np.testing.assert_allclose(cov, _reference_cov(cfg)[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(maps.thresholds / (1.0 + qec.FLUCTUATION_FACTOR),
                               np.diagonal(cov)[:4], rtol=1e-12, atol=0)
    if not cfg.has_loss:
        exact = _form_covariances(decode(encode(fourier=cfg.fourier_mode)), cfg)
        np.testing.assert_allclose(cov, exact[rows], rtol=0, atol=1e-12)


@cache
def _exact_forms(fourier):
    """The exact encoded and decoded forms of the lossless code; they do not
    depend on r or the input, whose variances enter only through
    ``form_covariance``."""
    encoded = encode(fourier=fourier)
    return encoded, decode(encoded)


_squeezing = st.floats(0.0, qec.MAX_R)


@given(r=st.tuples(*[_squeezing] * 4), fourier=st.booleans(),
       input_kind=st.sampled_from(["vacuum", "squeezed"]))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_exact_route_and_pipeline_maps_agree_on_the_readout_covariance(r, fourier, input_kind):
    """The two routes read one source table: the covariance of the exact
    decoded forms equals ``PipelineMaps``' noise @ noise.T on the readouts,
    for any per-ancilla r up to ``MAX_R``, both bases and both inputs.  The
    lossless readouts see only quiet quadratures, so the encoded covariance,
    which holds the loud ones, is compared too, relative to its largest
    entry."""
    cfg = CodeConfig(r=r, fourier_mode=fourier, input_kind=input_kind)
    encoded, decoded = _exact_forms(fourier)
    maps = qec.PipelineMaps(cfg, fourier)
    rows = np.ix_(*[qec.readout_rows(fourier)] * 2)
    exact = _form_covariances(decoded, cfg)[rows]
    np.testing.assert_allclose(maps.noise @ maps.noise.T, exact, rtol=0, atol=1e-12)
    factor = qec._network_symplectics(fourier)[0] * qec._source_sigma(cfg)
    exact = _form_covariances(encoded, cfg)
    np.testing.assert_allclose(factor @ factor.T, exact, rtol=0,
                               atol=1e-12 * np.abs(exact).max())


@given(r=_squeezing, fourier=st.booleans(), input_kind=st.sampled_from(["vacuum", "squeezed"]))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_closed_form_output_meets_the_noise_formula(r, fourier, input_kind):
    """Criterion 4's output variances for a single r: V_in on channels 1-2,
    and V_in plus {2/3, 2, 8} e^{-2r}/4 (x: 2/3, p: 2, 8, 8 on channels 3-5)
    with the x and p terms swapped under Fourier-rotated ancillas."""
    cfg = CodeConfig(r=r, fourier_mode=fourier, input_kind=input_kind)
    quiet = 0.25 * math.exp(-2.0 * r)
    units = {1: (0.0, 0.0), 2: (0.0, 0.0), 3: (2 / 3, 2.0), 4: (2 / 3, 8.0), 5: (2 / 3, 8.0)}
    v_x, v_p = cfg.input_variances()
    for channel, (ux, up) in units.items():
        if fourier:
            ux, up = up, ux
        cov = closed_form_output(cfg, channel)[1]
        assert cov[0, 0] == pytest.approx(v_x + ux * quiet, rel=1e-9, abs=0)
        assert cov[1, 1] == pytest.approx(v_p + up * quiet, rel=1e-9, abs=0)


@pytest.mark.parametrize("error_var", [None, (1.0, 1.0)])
@pytest.mark.parametrize("channel", [0, 6, 7, -1, True, np.int64(0), np.bool_(True)])
def test_closed_form_output_rejects_channels_outside_1_to_5(channel, error_var):
    """Channel 0 would read channel 5's unrepaired output through index -1,
    and a repaired channel 0, 6 or 7 the plan of a round code."""
    with pytest.raises(ValueError, match=r"channel must be 1\.\.5 or None, not"):
        closed_form_output(CodeConfig(r=0.4), channel, error_var=error_var)


@pytest.mark.parametrize("channel", [np.int64(3), np.uint8(4), np.int32(5)])
def test_numpy_integer_channels_are_taken_as_ints(channel):
    """A numpy integer channel gives what the equal int gives, in the
    closed form, the exact forms and the syndrome trace."""
    cfg, plain = CodeConfig(r=0.4), int(channel)
    for error_var in (None, (1.0, 2.0)):
        assert (closed_form_output(cfg, channel, error_var)[1].tolist()
                == closed_form_output(cfg, plain, error_var)[1].tolist())
    assert inject_error(encode(fourier=False), channel) == inject_error(encode(fourier=False),
                                                                        plain)
    got, want = (syndrome_trace(cfg, ch, 64, np.random.default_rng(1), 5.0)
                 for ch in (channel, plain))
    assert got[1] == want[1] and got[0].tolist() == want[0].tolist()


@pytest.mark.parametrize("error_var, match", [
    ((-0.05, -0.05), "error variance must be finite"),
    ((-5.0, -5.0), "error variance must be finite"),
    ((math.nan, 1.0), "error variance must be finite"),
    ((True, True), "error variance must be finite"),
    (("1", 1.0), "error variance must be finite"),
    ((np.nextafter(MAX_MAGNITUDE ** 2, math.inf), 0.0), r"error variance .* within \[0, 1e\+12\]"),
    ((1.0,), r"error_var must be two variances \(x, p\), not \(1\.0,\)"),
    ((1.0, 1.0, 1.0), "error_var must be two variances"),
    (1.0, "error_var must be two variances"),
], ids=["small-negative", "negative", "nan", "bool", "str", "above-the-law", "one-value",
        "three-values", "scalar"])
def test_closed_form_output_rejects_bad_error_variances(error_var, match):
    """An unrepaired branch's variances are two reals in [0, MAX_MAGNITUDE^2],
    the range of the error law's ``quadrature_variances``; a negative one
    gave fidelity 1.0 or 0.43 from an unphysical covariance, NaN a silent
    NaN, a bool 0.600, and a wrong count or a string a numpy error."""
    with pytest.raises(ValueError, match=match):
        closed_form_output(CodeConfig(r=0.4), 3, error_var=error_var)


def test_closed_form_output_takes_error_variances_up_to_the_law_bound():
    """The variances of an x law at ``MAX_MAGNITUDE`` are taken, and numpy
    floats are as Python's."""
    cfg = CodeConfig(r=0.4)
    top = ErrorLaw("x", MAX_MAGNITUDE).quadrature_variances()
    assert np.isfinite(fidelity_from_moments(*cfg.input_state(),
                                             *closed_form_output(cfg, 3, error_var=top)))
    assert (closed_form_output(cfg, 3, error_var=(np.float64(1.0), np.float64(1.0)))[1].tolist()
            == closed_form_output(cfg, 3, error_var=(1.0, 1.0))[1].tolist())


def test_closed_form_output_rejects_an_error_variance_without_a_channel():
    """The error-free branch has no displacement: a variance with channel
    None returned the error-free 1.0."""
    with pytest.raises(ValueError, match="error_var needs a hit channel"):
        closed_form_output(CodeConfig(r=0.4), None, error_var=(1.0, 1.0))


@pytest.mark.parametrize("cfg", [CodeConfig(r=0.4), CodeConfig(r=0.4, channel_loss=0.8)],
                         ids=["lossless", "lossy"])
@pytest.mark.parametrize("fourier", [False, True])
def test_maps_arrays_are_read_only(cfg, fourier):
    """``_maps`` shares one instance with every caller, so none of its arrays
    can be written in place."""
    maps = qec._maps(cfg, fourier)
    arrays = [getattr(maps, name) for name in dir(maps) if not name.startswith("__")]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    assert not any(a.flags.writeable for a in arrays)


def test_exact_forms_take_only_the_fourier_flag():
    """The exact forms read no squeezing or input, only the ancillas'
    Fourier rotation, given by keyword: a positional config is an error
    rather than a flag that reads as true."""
    for fn in (encode, qec.source_mode_forms):
        with pytest.raises(TypeError):
            fn(CodeConfig())
    assert encode(fourier=True) != encode(fourier=False)


@pytest.mark.parametrize("channel", [0, 6, 7, -1, True, 3.0, np.int64(6), np.bool_(True)])
def test_inject_error_rejects_channels_outside_1_to_5(channel):
    """A channel outside 1..5 is rejected before the forms are indexed, so
    channel 0 does not reach channel 5 through index -1."""
    with pytest.raises(ValueError, match="1..5"):
        inject_error(encode(fourier=False), channel)


def test_decode_proves_the_inverse_orthogonal_once(monkeypatch):
    """``decode`` applies the exact inverse network, built and proved
    orthogonal by ``network.inverse`` once, not on every call."""
    calls = []

    def counted(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(qec, "inverse", counted)
    qec._decoder.cache_clear()
    try:
        states = [encode(fourier=False),
                  inject_error(encode(fourier=True), 4),
                  encode(fourier=False)]
        for state in states:
            want = mode_forms_apply_matrix(state, inverse(encoder_matrix()))
            assert decode(state) == tuple(want)
            assert decode(state) == tuple(want)
        assert len(calls) == 1
    finally:
        qec._decoder.cache_clear()


def test_cached_decoder_rows_cannot_be_assigned():
    """The cached inverse network is shared by every ``decode``: its rows and
    their entries are tuples, so no caller can change it in place."""
    dec = qec._decoder()
    with pytest.raises(TypeError):
        dec[0] = dec[1]
    with pytest.raises(TypeError):
        dec[0][0] = dec[0][1]
    assert qec._decoder() is dec
    assert dec == inverse(encoder_matrix())


def test_decode_error_free_recovers_input():
    dec = decode(encode(fourier=False))
    src = qec.source_mode_forms(fourier=False)
    assert dec[OUT_POS] == src[qec.INPUT_POS]


def test_decode_channel2_coefficients():
    """d2 = a2 - 3 e2/(2 sqrt6); d1 = a1 + e2/sqrt2; d3 = a3 - e2/(2 sqrt2)."""
    dec = decode(inject_error(encode(fourier=False), 2))
    e2x = QuadSymbol.error(2, "x")
    assert dec[1].x.coefficient(e2x) == -sqrt_of(frac(9, 24))
    assert dec[0].x.coefficient(e2x) == sqrt_of(frac(1, 2))
    assert dec[2].x.coefficient(e2x) == -sqrt_of(frac(1, 8))
    assert dec[OUT_POS].x.coefficient(e2x).is_zero()


def test_decode_channel4_coefficients():
    """d4 = a4 + e4/sqrt2; out = a_in - e4/sqrt3."""
    dec = decode(inject_error(encode(fourier=False), 4))
    e4 = QuadSymbol.error(4, "x")
    assert dec[4].x.coefficient(e4) == sqrt_of(frac(1, 2))
    assert dec[OUT_POS].x.coefficient(e4) == -sqrt_of(frac(1, 3))


def test_decode_mean_shift_through_pipeline():
    """Without feedforward a channel's displacement reaches the output through
    its error columns with the exact decoded coefficients, in both bases: a
    channel-3 x displacement of delta moves the output mean by delta/sqrt3,
    and channels 1 and 2 do not move it."""
    for fourier in (False, True):
        cfg = CodeConfig(fourier_mode=fourier)
        maps = qec._maps(cfg, fourier)
        for ch in range(1, 6):
            out = decode(inject_error(encode(fourier=fourier), ch))[OUT_POS]
            exact = [[float(getattr(out, q).coefficient(QuadSymbol.error(ch, e)))
                      for e in "xp"] for q in "xp"]
            shift = qec.PLAN_TABLE[int(fourier), NO_ERROR] @ maps.err_columns[ch - 1]
            np.testing.assert_array_equal(shift, exact, f"channel {ch}, fourier {fourier}")
        assert maps.err_columns[2][4, 0] == pytest.approx(1 / math.sqrt(3), rel=1e-15)  # out_x


# --------------------------------------------------------------------------
# syndromes


def _measured(cfg, channel, law, seed=0, window=512):
    """One round with an error on ``channel`` (None for an error-free round),
    whose first-pass flags and relations form its syndrome."""
    ec = ErrorConfig(1.0 if channel else 0.0, channel or "uniform", law)
    return run_rounds(cfg, ec, np.random.default_rng(seed), 1, window)


def _syndrome_bits(index):
    """The (..., 8) bits of syndrome indices (...,): the flags of D1..D4,
    cc13 > 0, cc34 > 0, cc13 <= 0 and cc34 <= 0."""
    return np.unpackbits(np.asarray(index, dtype=np.uint8)[..., None], axis=-1,
                         bitorder="little").astype(bool)


def test_syndrome_channel1_pattern(series_sampler):
    out = _measured(CodeConfig(r=R35), 1, ErrorLaw("general", STRONG))
    bits = _syndrome_bits(out.syndrome[0])
    assert bits[:4].tolist() == [True, True, True, False]
    assert bits[4]                                   # D1-D3 in phase


def test_syndrome_channel2_pattern(series_sampler):
    out = _measured(CodeConfig(r=R35), 2, ErrorLaw("general", STRONG))
    bits = _syndrome_bits(out.syndrome[0])
    d1, _, d3, d4 = bits[:4]
    assert d1 and d3 and not d4
    assert bits[6]                                   # D1-D3 out of phase


def test_syndrome_no_error_large_squeezing(series_sampler):
    out = _measured(CodeConfig(r=2.0), None, ErrorLaw("general", 0.0))
    assert not _syndrome_bits(out.syndrome[0])[:4].any()


def test_syndrome_window_floor(series_sampler):
    with pytest.raises(ValueError):
        _measured(CodeConfig(), 1, ErrorLaw("general", 1.0), window=10)
    with pytest.raises(ValueError):
        syndrome_trace(CodeConfig(), 1, 10, np.random.default_rng(0), 1.0)


_ROUND_ARGS = dict(cfg=CodeConfig(r=0.4), error_cfg=ErrorConfig(1.0, 3, ErrorLaw("general", 5.0)))


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_rounds=4, window=math.nan), "syndrome window must be at least 30 and an integer"),
    (dict(n_rounds=4, window=64.0), "syndrome window must be at least 30 and an integer"),
    (dict(n_rounds=2.5, window=64), "n_rounds must be at least 1 and an integer"),
    (dict(n_rounds=True, window=64), "n_rounds must be at least 1 and an integer"),
    (dict(n_rounds=0, window=64), "n_rounds must be at least 1"),
    (dict(n_rounds=4, window=29), "syndrome window must be at least 30"),
], ids=["window-nan", "window-float", "rounds-float", "rounds-bool", "rounds-zero",
        "window-29"])
def test_run_rounds_counts_are_integers(kwargs, match):
    """A NaN window passed the floor check and a whole float reached numpy's
    shape check; ``True`` ran one round.  Each is a ValueError naming the
    count."""
    with pytest.raises(ValueError, match=match):
        run_rounds(rng=np.random.default_rng(0), **_ROUND_ARGS, **kwargs)


@pytest.mark.parametrize("window", [64.0, math.nan, True, "64"])
def test_syndrome_trace_window_is_an_integer(window):
    with pytest.raises(ValueError, match="syndrome window must be at least 30 and an integer"):
        syndrome_trace(CodeConfig(r=0.4), 1, window, np.random.default_rng(0), 5.0)


def test_numpy_integer_counts_pass():
    """numpy integers are counts too, and run as the equal ints do."""
    runs = [run_rounds(rng=np.random.default_rng(0), **_ROUND_ARGS, n_rounds=n, window=w)
            for n, w in ((4, 64), (np.int64(4), np.uint16(64)))]
    _assert_same_columns(runs[0], runs[1])
    traces = [syndrome_trace(CodeConfig(r=0.4), 1, w, np.random.default_rng(0), 5.0)
              for w in (64, np.int32(64))]
    np.testing.assert_array_equal(traces[0][0], traces[1][0])


def readout_form(decoded, detector, fourier):
    """The exact quadrature form that one detector measures in the basis of
    ``fourier``."""
    form = decoded[DETECTOR_POS[detector]]
    return form.x if measured_quad(detector, fourier) == "x" else form.p


def active_quadratures(law):
    """The quadratures an error law displaces."""
    if law.kind == "general":
        return ("x", "p")
    return ("x",) if law.kind == "x" else ("p",)


def _reference_relations(flags, cross):
    """The D1-D3 / D3-D4 relation rule: the sign of each cross term (NaN
    reading -1) where both of its detectors are flagged, else 0."""
    pairs = flags[..., [0, 2]] & flags[..., [2, 3]]
    return (np.where(cross > 0, 1, -1) * pairs).astype(np.int8)


def syndrome_closed_form(decoded, fourier, laws):
    """Exact-coefficient syndrome (no sampling, lossless algebra): (4,)
    fluctuation flags of D1..D4 and (2,) D1-D3 / D3-D4 relations, +1 in
    phase, -1 out of phase, 0 n/a, of decoded forms in the basis of
    ``fourier`` whose hit channels map to their error laws in ``laws``.

    A detector is flagged iff its measured quadrature carries a non-zero exact
    coefficient on an error quadrature that its law fluctuates; phase
    relations come from the signs of the exact coefficients.  A hit without a
    law (None) is a constant displacement: it shifts readout means, adds no
    variance and raises no flag.
    """
    coeffs, flags = np.zeros(4), np.zeros(4, dtype=bool)
    for i, det in enumerate(DETECTORS):
        form = readout_form(decoded, det, fourier)
        quad = measured_quad(det, fourier)
        for channel, law in laws.items():
            if law is None or quad not in active_quadratures(law):
                continue
            coeff = form.coefficient(QuadSymbol.error(channel, quad))
            if not coeff.is_zero():
                coeffs[i] = float(coeff)
                flags[i] |= law.quadrature_variances()[quad == "p"] > 0.0
    return flags, _reference_relations(flags, coeffs[[0, 2]] * coeffs[[2, 3]])


def test_syndrome_constant_event_shifts_mean_not_variance():
    """A law-less DC displacement moves readout means but raises no flag;
    nor does a law of zero magnitude."""
    dec = decode(inject_error(encode(fourier=False), 3))
    flags, relations = syndrome_closed_form(dec, False, {3: None})
    assert not flags.any()
    assert relations.tolist() == [0, 0]
    still = decode(inject_error(encode(fourier=False), 1))
    assert not syndrome_closed_form(still, False, {1: ErrorLaw("general", 0.0)})[0].any()
    shift = 4.0 * float(readout_form(dec, "D3", False).coefficient(QuadSymbol.error(3, "x")))
    assert shift == pytest.approx(4.0 * float(qec.encoder_matrix()[2][2]), rel=1e-15)
    assert shift != 0.0


_RELATION = {"in-phase": 1, "out-of-phase": -1, "n/a": 0}


@pytest.mark.parametrize("channel,flags,rel13,rel34", [
    (1, (True, True, True, False), "in-phase", "n/a"),
    (2, (True, True, True, False), "out-of-phase", "n/a"),
    (3, (False, True, True, False), "n/a", "n/a"),
    (4, (False, True, True, True), "n/a", "out-of-phase"),
    (5, (False, True, True, True), "n/a", "in-phase"),
])
def test_syndrome_closed_form_table(channel, flags, rel13, rel34):
    dec = decode(inject_error(encode(fourier=False), channel))
    got_flags, relations = syndrome_closed_form(dec, False, {channel: ErrorLaw("general", 1.0)})
    assert got_flags.dtype == bool and relations.dtype == np.int8
    assert tuple(got_flags.tolist()) == flags
    assert relations.tolist() == [_RELATION[rel13], _RELATION[rel34]]
    assert int(classify_codes(got_flags, relations)) == channel


def test_syndrome_closed_form_pure_p_flags_only_d2():
    dec = decode(inject_error(encode(fourier=False), 4))
    flags, relations = syndrome_closed_form(dec, False, {4: ErrorLaw("p", 1.0)})
    assert flags.tolist() == [False, True, False, False]
    assert int(classify_codes(flags, relations)) == AMBIGUOUS_P


# --------------------------------------------------------------------------
# classification


def _classify(flags, rel13="n/a", rel34="n/a"):
    """The code of one syndrome in the exact route's encoding."""
    return int(classify_codes(np.array(flags), np.array([_RELATION[rel13], _RELATION[rel34]])))


def test_classify_table():
    assert _classify((False, False, False, False)) == NO_ERROR
    assert _classify((True, True, True, False), rel13="in-phase") == 1
    assert _classify((True, True, True, False), rel13="out-of-phase") == 2
    assert _classify((False, True, True, False)) == 3
    assert _classify((False, False, True, False)) == 3
    assert _classify((False, True, True, True), rel34="out-of-phase") == 4
    assert _classify((False, True, True, True), rel34="in-phase") == 5
    assert _classify((False, True, False, False)) == AMBIGUOUS_P


def test_classify_is_total_on_all_patterns():
    for bits in range(16):
        flags = tuple(bool(bits >> k & 1) for k in range(4))
        for rel13 in _RELATION:
            for rel34 in _RELATION:
                assert 0 <= _classify(flags, rel13, rel34) < len(CODE_NAMES)


def test_classify_mismatched_patterns_are_unclassifiable():
    assert _classify((True, False, False, True)) == UNCLASSIFIABLE
    assert _classify((True, True, True, True)) == UNCLASSIFIABLE
    assert _classify((False, False, False, True)) == UNCLASSIFIABLE


def _reference_classify(flags, rel13, rel34):
    """The syndrome table as a pattern match, one record at a time."""
    f1, f2, f3, f4 = flags
    if not any(flags):
        return "no-error"
    if (f1, f3, f4) == (True, True, False):
        return "channel-1" if rel13 == "in-phase" else "channel-2"
    if (f1, f3, f4) == (False, True, False):
        return "channel-3"
    if (f1, f3, f4) == (False, True, True):
        return "channel-5" if rel34 == "in-phase" else "channel-4"
    if (f1, f3, f4) == (False, False, False) and f2:
        return "ambiguous-p"
    return "unclassifiable"


def test_scalar_and_array_classifiers_agree():
    """classify_codes follows the syndrome table on every flag pattern and
    both signs of each phase relation, one syndrome at a time in the exact
    route's relation signs and batched on the round engine's
    cross-correlations."""
    sign = {"in-phase": 0.7, "out-of-phase": -0.7}
    cases = [(tuple(bool(bits >> k & 1) for k in range(4)), rel13, rel34)
             for bits in range(16) for rel13 in sign for rel34 in sign]
    flags = np.array([c[0] for c in cases])
    codes = classify_codes(flags, np.array([[sign[c[1]], sign[c[2]]] for c in cases]))
    assert codes.shape == (len(cases),)
    for (f, rel13, rel34), code in zip(cases, codes):
        want = _reference_classify(f, rel13, rel34)
        # a relation is reported only for a flagged detector pair
        scalar = _classify(f, rel13 if f[0] and f[2] else "n/a",
                           rel34 if f[2] and f[3] else "n/a")
        assert CODE_NAMES[scalar] == want
        assert CODE_NAMES[code] == want


def _expected_code(flags, c13, c34):
    """The reference code of one flag pattern and two cross terms: > 0 is in
    phase, <= 0 out of phase, and a NaN term, neither, leaves a pattern that
    reads it unclassifiable."""
    def rel(c):
        return "in-phase" if c > 0 else "out-of-phase" if c <= 0 else None
    f1, _, f3, f4 = flags
    if (f1 and f3 and not f4 and rel(c13) is None) or (
            not f1 and f3 and f4 and rel(c34) is None):
        return "unclassifiable"
    return _reference_classify(flags, rel(c13), rel(c34))


def test_table_classifier_matches_reference_on_signed_zeros_and_nan():
    """The table lookup gives the reference code for every flag pattern and
    every pair of cross terms in {-1.5, -0.0, 0.0, 0.5, NaN}, batched and one
    syndrome at a time."""
    values = (-1.5, -0.0, 0.0, 0.5, math.nan)
    cases = [(tuple(bool(bits >> k & 1) for k in range(4)), c13, c34)
             for bits in range(16) for c13 in values for c34 in values]
    flags = np.array([c[0] for c in cases])
    cross = np.array([c[1:] for c in cases])
    codes = classify_codes(flags, cross)
    assert codes.shape == (len(cases),)
    for i, (f, c13, c34) in enumerate(cases):
        want = _expected_code(f, c13, c34)
        assert CODE_NAMES[codes[i]] == want, (f, c13, c34)
        assert CODE_NAMES[int(classify_codes(flags[i], cross[i]))] == want


def test_syndrome_index_tables_match_the_rules():
    """On all 256 syndrome indices the code table is ``_syndrome_rule``; an
    index built from flags and cross terms has the documented bits, and a
    NaN cross term sets neither of its bits."""
    for i in range(256):
        bits = [bool(i >> k & 1) for k in range(8)]
        assert qec._CODE_TABLE[i] == qec._syndrome_rule(*bits), i
        # the cross term an index stands for: in phase, else out of phase, else NaN
        cross = np.array([1.0 if bits[4 + j] else -1.0 if bits[6 + j] else math.nan
                          for j in (0, 1)])
        flags = np.array(bits[:4])
        if not (bits[4] and bits[6] or bits[5] and bits[7]):
            assert qec._syndrome_index(flags, cross) == i
    flags = np.ones((2, 4), dtype=bool)
    index = qec._syndrome_index(flags, np.array([[math.nan, 0.5], [-0.5, math.nan]]))
    assert index.dtype == np.uint8
    assert index.tolist() == [0b0010_1111, 0b0100_1111]


_cross_terms = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, 1.0, -1.0]), st.floats())


def _index_bits(flags, c13, c34) -> int:
    """Sum of bit_k 2^k over the documented bits of one syndrome index."""
    bits = [*flags, c13 > 0, c34 > 0, c13 <= 0, c34 <= 0]
    return sum(2 ** k for k, bit in enumerate(bits) if bit)


@given(rows=st.lists(st.tuples(st.tuples(*[st.booleans()] * 4), _cross_terms, _cross_terms),
                     min_size=1, max_size=12))
def test_syndrome_index_is_its_weighted_bits(rows):
    """On stacked (n, 4) flags and (n, 2) cross terms, and on each 1-D row,
    ``_syndrome_index`` is the uint8 sum of bit_k 2^k: NaN sets neither
    relation bit and +-0.0 reads as out of phase."""
    flags = np.array([r[0] for r in rows], dtype=bool)
    cross = np.array([r[1:] for r in rows], dtype=float)
    want = [_index_bits(*r) for r in rows]
    index = qec._syndrome_index(flags, cross)
    assert index.dtype == np.uint8 and index.shape == (len(rows),)
    assert index.tolist() == want
    for i, w in enumerate(want):
        one = qec._syndrome_index(flags[i], cross[i])
        assert one.dtype == np.uint8 and one.ndim == 0 and int(one) == w


# --------------------------------------------------------------------------
# feedforward plans and correction


def test_plan_gains_match_reference_table():
    g23 = sqrt_of(frac(2, 3))
    assert PLANS[False][3] == (("D3", g23), ("D2", -SQRT2))
    assert PLANS[False][4] == (("D4", g23), ("D2", ExactScalar(0, 2)))
    assert PLANS[False][5] == (("D4", -g23), ("D2", ExactScalar(0, 2)))


def test_zero_plan_for_protected_channels():
    for fourier in (False, True):
        assert sorted(PLANS[fourier]) == [3, 4, 5]
    # the round engine's table also leaves indefinite codes uncorrected
    for code in (NO_ERROR, 1, 2, AMBIGUOUS_P, UNCLASSIFIABLE):
        np.testing.assert_array_equal(qec.PLAN_TABLE[:, code], [np.eye(2, 6, 4)] * 2)


# The exact route's cross-checks of ``PLANS``: a plan derived symbolically,
# and a plan applied to the exact output forms.


def plan_couplings(channel, fourier=False):
    """For each output quadrature of a channel's error, the detector a plan
    reads with the output's and that detector's coefficients of the error;
    ``()`` for channels 1 and 2.

    The candidate detectors are those whose measured quadrature carries the
    error; the one with the largest coupling is chosen (smallest gain, hence
    least added ancilla noise).  The plan's gain for it is the one solution
    of out_coeff + gain * readout_coeff = 0.
    """
    if channel in (1, 2):
        return ()
    decoded = decode(inject_error(encode(fourier=fourier), channel))
    couplings = []
    for quad in ("x", "p"):
        error = QuadSymbol.error(channel, quad)
        alpha = getattr(decoded[OUT_POS], quad).coefficient(error)
        det, beta = max(((d, readout_form(decoded, d, fourier).coefficient(error))
                         for d in DETECTORS if measured_quad(d, fourier) == quad),
                        key=lambda c: abs(float(c[1])))
        couplings.append((det, alpha, beta))
    return tuple(couplings)


def apply_correction(decoded, code, fourier=False):
    """The exact forms of the output mode with the gained readouts of the
    code's plan in the basis of ``fourier`` added; the error symbols cancel
    for the right code, and a code without a plan leaves the output as it
    is."""
    forms = [decoded[OUT_POS].x, decoded[OUT_POS].p]
    for row, (det, gain) in enumerate(PLANS[fourier].get(code, ())):
        forms[row] = forms[row] + scaled(readout_form(decoded, det, fourier), gain)
    return ModeForm(*forms)


def test_indefinite_codes_leave_output_unchanged():
    """An ambiguous or unclassifiable code has no plan: the exact output keeps
    its error symbols, as the round engine's table keeps the readout."""
    for fourier in (False, True):
        dec = decode(inject_error(encode(fourier=fourier), 4))
        assert dec[OUT_POS].x.has_errors() and dec[OUT_POS].p.has_errors()
        for code in (AMBIGUOUS_P, UNCLASSIFIABLE):
            assert apply_correction(dec, code, fourier) == dec[OUT_POS]


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("channel", [1, 2, 3, 4, 5])
def test_derived_plans_equal_constants(channel, fourier):
    """Each plan reads the strongest-coupled detectors, and each gain cancels
    the error exactly; a non-zero coupling makes that gain the only one."""
    couplings = plan_couplings(channel, fourier)
    plan = PLANS[fourier].get(channel, ())
    assert [det for det, _, _ in couplings] == [det for det, _ in plan]
    for (_, alpha, beta), (_, gain) in zip(couplings, plan):
        assert beta and (alpha + gain * beta).is_zero()
    assert plan or channel in (1, 2)
    np.testing.assert_array_equal(qec.PLAN_TABLE[int(fourier), channel],
                                  qec.plan_matrix(plan))


def test_corrected_output_channel3_residuals():
    """x' = x_in + sqrt(2/3) x3 e^{-r}; p' = p_in - sqrt2 p2 e^{-r}."""
    dec = decode(inject_error(encode(fourier=False), 3))
    out = apply_correction(dec, 3)
    assert out.x == LinearForm({
        QuadSymbol.input("x"): ExactScalar(1),
        QuadSymbol.ancilla(3, "x", TAG_SQUEEZED): sqrt_of(frac(2, 3))})
    assert out.p == LinearForm({
        QuadSymbol.input("p"): ExactScalar(1),
        QuadSymbol.ancilla(2, "p", TAG_SQUEEZED): -SQRT2})


def test_corrected_output_channel5_p_residual():
    dec = decode(inject_error(encode(fourier=False), 5))
    out = apply_correction(dec, 5)
    assert out.p == LinearForm({
        QuadSymbol.input("p"): ExactScalar(1),
        QuadSymbol.ancilla(2, "p", TAG_SQUEEZED): ExactScalar(0, 2)})


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("channel", [3, 4, 5])
def test_error_symbols_cancel_exactly(channel, fourier):
    dec = decode(inject_error(encode(fourier=fourier), channel))
    out = apply_correction(dec, channel, fourier)
    assert not out.x.has_errors()
    assert not out.p.has_errors()


def test_immunity_channels_need_no_correction():
    for ch in (1, 2):
        out = decode(inject_error(encode(fourier=False), ch))[OUT_POS]
        assert not out.x.has_errors()
        assert not out.p.has_errors()


def test_perfect_squeezing_limit_recovers_input():
    """All residuals carry e^{-r}, so the corrected output tends to the input."""
    cov = closed_form_output(CodeConfig(r=12.0), 4)[1]
    assert cov[0, 0] == pytest.approx(0.25, rel=1e-9)
    assert cov[1, 1] == pytest.approx(0.25, rel=1e-9)


# --------------------------------------------------------------------------
# closed-form statistics


def test_closed_form_fidelity_values():
    for cfg, channel, want, tol in ((CodeConfig(r=0.0), 3, 0.612, 5e-4),
                                    (CodeConfig(r=db_to_r(3.5)), 4, 0.559, 5e-4),
                                    (CodeConfig(r=0.0, input_kind="squeezed"), 4, 0.43, 5e-3)):
        f = fidelity_from_moments(*cfg.input_state(), *closed_form_output(cfg, channel))
        assert f == pytest.approx(want, abs=tol)


def test_closed_form_fourier_mode_swaps_residual_quadratures():
    q = math.exp(-2 * 0.5)
    cov = closed_form_output(CodeConfig(r=0.5, fourier_mode=True), 4)[1]
    assert cov[0, 0] == pytest.approx(0.25 + 8 * 0.25 * q, abs=1e-10)
    assert cov[1, 1] == pytest.approx(0.25 + (2 / 3) * 0.25 * q, abs=1e-10)


def test_closed_form_uncorrected_branch():
    """An uncorrected channel-3 branch adds the law's variance times the
    squared coefficient 1/3 to its quadrature."""
    cfg = CodeConfig(r=0.5)
    plain = closed_form_output(cfg, 3, error_var=(0.0, 0.0))[1]
    hit = closed_form_output(cfg, 3, error_var=(1.5, 0.0))[1]
    assert plain[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert hit[0, 0] == pytest.approx(0.25 + 1.5 / 3, abs=1e-12)
    assert hit[1, 1] == plain[1, 1]


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("loss", [None, 0.9, (1.0, 0.9, 0.8, 0.95, 0.7)])
@pytest.mark.parametrize("channel, error_var", [
    (None, None), (3, None), (4, None), (5, None), (1, (2.0, 0.5)), (4, (2.0, 0.5)),
], ids=["error-free", "corrected-3", "corrected-4", "corrected-5", "unrepaired-1",
        "unrepaired-4"])
def test_closed_form_output_is_zero_mean_moments(fourier, loss, channel, error_var):
    """Every branch kind, error-free, corrected or unrepaired, returns the
    mean exactly zero beside a finite, symmetric 2x2 covariance, in both
    bases and with loss."""
    cfg = CodeConfig(r=R35, fourier_mode=fourier, channel_loss=loss)
    mean, cov = closed_form_output(cfg, channel, error_var)
    assert type(mean) is np.ndarray and mean.dtype == float
    assert np.array_equal(mean, np.zeros(2)) and not np.signbit(mean).any()
    assert cov.shape == (2, 2) and np.isfinite(cov).all()
    np.testing.assert_allclose(cov, cov.T, rtol=1e-15, atol=0)


def test_closed_form_uniform_loss_keeps_cancellation():
    """With no, equal, unequal or total loss on the channels, and in both
    bases, a located channel's plan maps its displacement onto the output as
    exactly zero: channels 1 and 2 never reach the output and the gains of
    channels 3..5 cancel theirs.  So every corrected branch, and the output
    mixture, is zero-mean; the loss only lowers the fidelity."""
    for fourier in (False, True):
        for loss in (None, 0.9, (1.0, 0.9, 0.8, 0.95, 0.7), 0.0):
            maps = qec._maps(CodeConfig(r=R35, fourier_mode=fourier, channel_loss=loss),
                             fourier)
            for ch in range(1, 6):
                residual = qec.PLAN_TABLE[int(fourier), ch] @ maps.err_columns[ch - 1]
                assert not residual.any(), (fourier, loss, ch, residual)
    lossless = CodeConfig(r=R35)
    bound = fidelity_from_moments(*lossless.input_state(), *closed_form_output(lossless, 4))
    for loss in (0.9, (1.0, 0.9, 0.8, 0.95, 0.7)):
        lossy = CodeConfig(r=R35, channel_loss=loss)
        assert fidelity_from_moments(*lossy.input_state(), *closed_form_output(lossy, 4)) < bound


def test_loss_reduces_channel12_fidelity_for_squeezed_input():
    """Uniform loss leaves a vacuum input untouched but degrades a squeezed one."""
    vac = CodeConfig(r=R35, channel_loss=0.9)
    assert fidelity_from_moments(*vac.input_state(), *closed_form_output(vac, 1)) \
        == pytest.approx(1.0, abs=1e-12)
    sq = CodeConfig(r=R35, input_kind="squeezed", channel_loss=0.9)
    f = fidelity_from_moments(*sq.input_state(), *closed_form_output(sq, 1))
    assert f < 1.0
    assert f > 0.9


# --------------------------------------------------------------------------
# full rounds


def _round_theory(outcome, cfg, law):
    """Closed-form output moments of each round's branch in a run of ``cfg``: the
    corrected output of a located channel, the error-free output, or the
    unrepaired hit of an indefinite round, in the configuration of the pass
    the round reports."""
    reported_rerun = outcome.fourier_used & (outcome.final_codes != UNCLASSIFIABLE)
    out = []
    for code, fourier, channel in zip(outcome.final_codes.tolist(),
                                      (reported_rerun ^ cfg.fourier_mode).tolist(),
                                      outcome.channels.tolist()):
        branch = dataclasses.replace(cfg, fourier_mode=fourier)
        if code in (1, 2, 3, 4, 5):
            out.append(closed_form_output(branch, code))
        elif code == NO_ERROR:
            out.append(closed_form_output(branch, None))
        else:
            error_var = law.quadrature_variances() if channel else (0.0, 0.0)
            out.append(closed_form_output(branch, channel or None, error_var=error_var))
    return out


def test_run_round_channel2_near_unit_fidelity(series_sampler):
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, 2, ErrorLaw("general", STRONG))
    out = run_rounds(cfg, ec, np.random.default_rng(21), 1)
    assert out.final_codes[0] == 2
    assert fidelity_from_moments(*cfg.input_state(), *_round_theory(out, cfg, ec.law)[0]) \
        == pytest.approx(1.0, abs=1e-12)
    assert fidelity_from_moments(*cfg.input_state(), out.corrected_mean,
                                 out.corrected_cov)[0] > 0.99


def test_run_round_pure_p_resolved_by_rerun(series_sampler):
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, 4, ErrorLaw("p", STRONG))
    out = run_rounds(cfg, ec, np.random.default_rng(22), 1)
    assert out.fourier_used[0]
    assert out.final_codes[0] == 4
    assert out.matched[0]


def test_run_round_gamma_zero_is_identity_round(series_sampler):
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(0.0, 3, ErrorLaw("general", STRONG))
    out = run_rounds(cfg, ec, np.random.default_rng(23), 1)
    assert out.final_codes[0] == NO_ERROR
    assert out.channels[0] == 0
    assert fidelity_from_moments(*cfg.input_state(), *_round_theory(out, cfg, ec.law)[0]) \
        == pytest.approx(1.0, abs=1e-12)


def test_run_rounds_matches_run_round_semantics():
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, 5, ErrorLaw("general", STRONG))
    outcome = run_rounds(cfg, ec, np.random.default_rng(24), 40, window=256)
    assert outcome.matched.all()
    assert np.bincount(outcome.final_codes).tolist() == [0] * 5 + [40]
    th = closed_form_output(cfg, 5)[1]
    mean, cov = qec.pooled_moments(outcome, 5)
    n = 40 * 256
    for k in (0, 1):
        assert abs(cov[k, k] - th[k, k]) < 5 * th[k, k] * math.sqrt(2 / (n - 1))


def test_run_rounds_deterministic_for_fixed_seed():
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(0.7, "uniform", ErrorLaw("general", STRONG))
    a = run_rounds(cfg, ec, np.random.default_rng(77), 30, window=64)
    b = run_rounds(cfg, ec, np.random.default_rng(77), 30, window=64)
    _assert_same_columns(a, b)


# A reference round pass in round-major arrays: separate readout means and
# factors, matmuls for every law's error terms, plans gathered round by round
# and a syndrome index of three matmuls.  ``run_rounds`` must equal it bit for
# bit, generator state too.
_REF_BELOW = np.ravel_multi_index(np.tril_indices(6, -1), (6, 8))
_REF_DIAGONAL = np.ravel_multi_index((range(6), range(6)), (6, 8))
_REF_ALONG = (np.arange(2)[:, None] + np.arange(6, 48, 8)).ravel()
_REF_FLAG_BITS = np.array([1, 2, 4, 8], dtype=np.uint8)
_REF_IN_PHASE_BITS = np.array([16, 32], dtype=np.uint8)
_REF_OUT_PHASE_BITS = np.array([64, 128], dtype=np.uint8)


def _reference_syndrome(factor, window, thresholds):
    flags = np.einsum("nij,nij->ni", factor[:, :4], factor[:, :4]) / (window - 1) > thresholds
    cc = np.einsum("nij,nij->ni", factor[:, 0:3:2], factor[:, 2:4]) / window
    return (flags @ _REF_FLAG_BITS + (cc > 0) @ _REF_IN_PHASE_BITS
            + (cc <= 0) @ _REF_OUT_PHASE_BITS)


def _reference_window_statistics(law, rng, n, window):
    mean, gram = np.zeros((n, 2)), np.zeros((n, 2, 2))
    a = law.magnitude
    if a == 0 or n == 0:
        return mean, gram
    if law.kind == "general":
        cx, sx, cc, cs = qec_errors._phase_sums(rng, n, window).T
        mean[:, 0], mean[:, 1] = cx * (a / window), sx * (a / window)
        gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1] = cc, cs, window - cc
        gram *= a * a
        gram -= window * mean[:, :, None] * mean[:, None, :]
        gram[:, 1, 0] = gram[:, 0, 1]
        return mean, gram
    col = 0 if law.kind == "x" else 1
    if law.shape == "fixed":
        total = a * (2.0 * rng.binomial(window, 0.5, n) - window)
        mean[:, col] = total / window
        gram[:, col, col] = window * a * a - total * total / window
    else:
        mean[:, col] = rng.normal(0.0, a / math.sqrt(window), n)
        gram[:, col, col] = a * a * rng.chisquare(window - 1, n)
    return mean, gram


def _reference_gram_root(gram):
    k00, k11 = gram[:, 0, 0], gram[:, 1, 1]
    s = np.sqrt(np.maximum(k00 * k11 - gram[:, 0, 1] * gram[:, 1, 0], 0.0))
    t = np.sqrt(np.maximum(k00 + k11 + 2.0 * s, 0.0))[:, None, None]
    root = gram + s[:, None, None] * np.eye(2)
    return np.divide(root, t, out=np.zeros_like(root), where=t > 0.0)


def _reference_statistics(maps, channels, law, window, rng):
    n = len(channels)
    hit = channels.nonzero()[0]
    n_hit = len(hit)
    err_mean, err_gram = _reference_window_statistics(law, rng, n_hit, window)
    factor = maps.readout_factor
    normals = rng.standard_normal(21 * n)
    mean = normals[:6 * n].reshape(n, 6) @ factor.T / math.sqrt(window)
    block = np.zeros((n, 48))
    block[:, _REF_BELOW] = normals[6 * n:].reshape(n, 15)
    block[:, _REF_DIAGONAL] = np.sqrt(rng.chisquare(window - 3 - np.arange(6), (n, 6)))
    block[:, _REF_ALONG] = rng.standard_normal((n, 12))
    x = factor @ block.reshape(n, 6, 8)
    if n_hit:
        if n_hit == n:
            hit = slice(None)
        coeff = maps.err_columns[channels[hit] - 1]
        mean[hit] += (coeff @ err_mean[:, :, None])[:, :, 0]
        x[hit, :, 6:] += coeff @ _reference_gram_root(err_gram)
    return mean, x


def _reference_run_rounds(cfg, error_cfg, rng, n_rounds, window):
    occurred = rng.random(n_rounds) < error_cfg.gamma
    if error_cfg.channel == "uniform":
        channels = rng.integers(1, 6, n_rounds)
    else:
        channels = np.full(n_rounds, int(error_cfg.channel))
    channels = np.where(occurred, channels, 0)
    maps = qec._maps(cfg, cfg.fourier_mode)
    mean, x = _reference_statistics(maps, channels, error_cfg.law, window, rng)
    index = _reference_syndrome(x, window, maps.thresholds)
    final = qec._CODE_TABLE[index]
    rerun = (final == AMBIGUOUS_P).nonzero()[0]
    if len(rerun):
        rotated = qec._maps(cfg, not cfg.fourier_mode)
        mean2, x2 = _reference_statistics(rotated, channels[rerun], error_cfg.law, window, rng)
        second = qec._CODE_TABLE[_reference_syndrome(x2, window, rotated.thresholds)]
        second[second == AMBIGUOUS_P] = UNCLASSIFIABLE
        final[rerun] = second
        resolved = second != UNCLASSIFIABLE
        used = rerun[resolved]
        mean[used], x[used] = mean2[resolved], x2[resolved]
    basis = int(cfg.fourier_mode)
    comb = qec.PLAN_TABLE[basis][final]
    if len(rerun):
        comb[used] = qec.PLAN_TABLE[1 - basis][final[used]]
    corrected_mean = (comb @ mean[:, :, None])[:, :, 0]
    corrected = comb @ x
    cov = corrected @ corrected.transpose(0, 2, 1).copy() / (window - 1)
    return qec.RoundsOutcome(window=window, channels=channels, final_codes=final,
                             syndrome=index, corrected_mean=corrected_mean, corrected_cov=cov)


_PASS_CONFIGS = {
    "lossless": CodeConfig(r=R35),
    "per-channel-loss": CodeConfig(r=R35, channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7)),
    "fourier": CodeConfig(r=R35, fourier_mode=True),
    "fourier-loss": CodeConfig(r=R35, fourier_mode=True, channel_loss=(0.7, 1.0, 0.9, 0.8, 0.95)),
    "squeezed-input": CodeConfig(r=R35, input_kind="squeezed"),
}
_PASS_LAWS = {"general": ErrorLaw("general", 2.0), "x-fixed": ErrorLaw("x", 1.5),
              "p-gaussian": ErrorLaw("p", 1.5, "gaussian")}


@pytest.mark.parametrize("law", sorted(_PASS_LAWS))
@pytest.mark.parametrize("cfg", sorted(_PASS_CONFIGS))
def test_run_rounds_is_the_reference_pass_bit_for_bit(cfg, law):
    """``run_rounds`` equals the reference pass on every ``RoundsOutcome``
    column, dtype included, and leaves the generator in the same state, at
    gamma 0, 0.5 and 1, under the uniform policy and a fixed channel, at
    windows 30, 64 and 512 and at 1, 8 and 256 rounds.  Some rounds run the
    rotated rerun wherever the law displaces only the quadrature that the
    basis reads at D2 alone."""
    code_cfg = _PASS_CONFIGS[cfg]
    reruns = []
    for gamma in (0.0, 0.5, 1.0):
        for channel in ("uniform", 4):
            error_cfg = ErrorConfig(gamma, channel, _PASS_LAWS[law])
            for window in (qec.MIN_SYNDROME_WINDOW, 64, 512):
                for n_rounds in (1, 8, 256):
                    seed = (n_rounds, window, int(10 * gamma), channel == "uniform")
                    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = run_rounds(code_cfg, error_cfg, got_rng, n_rounds, window)
                    want = _reference_run_rounds(code_cfg, error_cfg, want_rng, n_rounds, window)
                    for f in dataclasses.fields(want):
                        a, b = getattr(got, f.name), getattr(want, f.name)
                        assert np.array_equal(a, b), (f.name, gamma, channel, window, n_rounds)
                        assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    reruns.append(got.fourier_used.any())
    blind = law != "general" and (law == "p-gaussian") != code_cfg.fourier_mode
    assert any(reruns) == blind and not all(reruns)


# Seed 0, 16 rounds of window 64 on the series route: (channels, first codes,
# final codes, reruns, sha256 of the corrected (x, p) means' float64 bytes).
# Equal values show the RNG stream is unchanged.
_PINNED_ROUNDS = {
    "general": ([1, 5, 1, 3, 0, 0, 3, 0, 3, 0, 0, 1, 0, 4, 0, 4],
                "1 5 1 3 0 0 3 0 3 0 0 1 0 4 0 4",
                "1 5 1 3 0 0 3 0 3 0 0 1 0 4 0 4",
                "FFFFFFFFFFFFFFFF",
                "f18ceadc7f61453cfdf90e030b339916c62046ebc14d1ebe56c01b8f0319b67b"),
    "p": ([1, 5, 1, 3, 1, 2, 3, 3, 3, 1, 1, 1, 1, 4, 3, 4],
          "A 0 A A A A A A A A A A A 0 0 0",
          "U 0 U 3 U U 3 3 3 U U U U 0 0 0",
          "TFTTTTTTTTTTTFFF",
          "95b8e918b7f18051698b26e7219596d566d247bdaf7340e831dc204c5d68fc53"),
}


def _short(code):
    return {NO_ERROR: "0", AMBIGUOUS_P: "A", UNCLASSIFIABLE: "U"}.get(code, str(code))


def _corrected_series(outcome, passes):
    """(n, window, 2) corrected output series of a run on the series route,
    from its recorded passes: a resolved rerun's second pass, otherwise the
    first, through each round's feedforward."""
    series = passes[0].copy()
    rerun = np.flatnonzero(outcome.fourier_used)
    if len(rerun):
        resolved = outcome.final_codes[rerun] != UNCLASSIFIABLE
        series[rerun[resolved]] = passes[1][resolved]
    comb = qec.PLAN_TABLE[outcome.fourier_used.astype(np.intp), outcome.final_codes]
    return series @ comb.transpose(0, 2, 1)


@pytest.mark.parametrize("case", sorted(_PINNED_ROUNDS))
def test_round_moments_match_stored_series(case, series_sampler):
    """Every round's corrected moments, and its fidelity as
    ``cli.run_chunked_rounds`` computes it from them, equal those recomputed
    from its corrected series.  The general case has no-error rounds and
    channels 1 and 3-5; the gaussian p case has resolved reruns and
    unresolved ones, which report the first pass."""
    import hashlib

    ec = {"general": ErrorConfig(0.7, "uniform", ErrorLaw("general", STRONG)),
          "p": ErrorConfig(1.0, "uniform", ErrorLaw("p", 1.5, "gaussian"))}[case]
    cfg = CodeConfig(r=R35)
    outcome = run_rounds(cfg, ec, np.random.default_rng(0), 16, window=64)
    inp = cfg.input_state()
    fids = fidelity_from_moments(*inp, outcome.corrected_mean, outcome.corrected_cov)
    tol = dict(rtol=1e-12, atol=1e-12)
    for i, series in enumerate(_corrected_series(outcome, series_sampler)):
        mean = series.mean(axis=0)
        cov = np.cov(series.T, ddof=1)
        np.testing.assert_allclose(outcome.corrected_mean[i], mean, **tol)
        np.testing.assert_allclose(outcome.corrected_cov[i], cov, **tol)
        np.testing.assert_allclose(fids[i], fidelity_from_moments(*inp, mean, cov), **tol)
    channels, first, final, reruns, means = _PINNED_ROUNDS[case]
    assert outcome.channels.tolist() == channels
    first_codes = qec._CODE_TABLE[outcome.syndrome]
    assert " ".join(_short(c) for c in first_codes.tolist()) == first
    assert " ".join(_short(c) for c in outcome.final_codes.tolist()) == final
    assert "".join("FT"[int(r)] for r in outcome.fourier_used) == reruns
    assert hashlib.sha256(outcome.corrected_mean.tobytes()).hexdigest() == means


# Equal-in-law cases: (code config, error config, window).  The general and
# fixed-x magnitudes leave some fluctuation flags between never and always
# raised; the gaussian one lets the error's chi-square spread dominate D2.
_IN_LAW_CASES = {
    "general-w512": (CodeConfig(r=R35), ErrorConfig(1.0, "uniform", ErrorLaw("general", 2.0)),
                     512),
    "gaussian-p-loss": (CodeConfig(r=R35, channel_loss=0.8),
                        ErrorConfig(1.0, "uniform", ErrorLaw("p", 4.0, "gaussian")), 64),
    "fixed-x-w30": (CodeConfig(r=R35), ErrorConfig(1.0, "uniform", ErrorLaw("x", 0.8)),
                    qec.MIN_SYNDROME_WINDOW),
    "no-error": (CodeConfig(r=R35), ErrorConfig(0.0, "uniform", ErrorLaw("general", 2.0)), 64),
}
_IN_LAW_ROUNDS = 10_000
# 29 KS tests and 4 flag-rate tests per case, at family-wise level 1e-3.
_IN_LAW_P_MIN = 1e-3 / (len(_IN_LAW_CASES) * 33)


def _pass_statistics(maps, channels, law, window, seed, sample):
    """One sampler's passes in chunks of 1000 rounds (bounded memory): the 29
    continuous statistics (6 means, 21 scatter entries, cc13, cc34) and the
    (n, 4) fluctuation flags."""
    rng = np.random.default_rng(seed)
    upper_row, upper_col = np.triu_indices(6)
    columns, flags = [], []
    for chunk in np.split(channels, len(channels) // 1000):
        block = sample(maps, chunk, law, window, rng).transpose(1, 0, 2)
        mean, factor = block[:, :, -1], block[:, :, :-1]
        scatter = factor @ factor.transpose(0, 2, 1)
        columns.append(np.column_stack([mean, scatter[:, upper_row, upper_col],
                                        scatter[:, [0, 2], [2, 3]] / window]))
        flags.append(_syndrome_bits(qec._syndrome(factor.transpose(1, 0, 2), window,
                                                  maps.thresholds))[:, :4])
    return np.concatenate(columns), np.concatenate(flags)


@pytest.mark.parametrize("case", sorted(_IN_LAW_CASES))
def test_statistics_sampler_equals_series_sampler_in_law(case):
    """The directly drawn round statistics and those reduced from sampled
    series agree in law: two-sample KS on every mean, scatter entry and
    cross-correlation, Fisher's exact test on every flag rate."""
    from scipy.stats import fisher_exact, ks_2samp

    cfg, ec, window = _IN_LAW_CASES[case]
    channels = np.random.default_rng(11).integers(1, 6, _IN_LAW_ROUNDS)
    if ec.gamma == 0.0:
        channels[:] = 0
    maps = qec.PipelineMaps(cfg, cfg.fourier_mode)
    direct, direct_flags = _pass_statistics(maps, channels, ec.law, window, 21,
                                            qec._sample_statistics)
    series, series_flags = _pass_statistics(maps, channels, ec.law, window, 22,
                                            _series_statistics)
    p_values = [ks_2samp(a, b, method="asymp").pvalue for a, b in zip(direct.T, series.T)]
    n = _IN_LAW_ROUNDS
    for a, b in zip(direct_flags.sum(axis=0), series_flags.sum(axis=0)):
        p_values.append(fisher_exact([[a, n - a], [b, n - b]]).pvalue)
    assert len(p_values) == 33
    worst = int(np.argmin(p_values))
    assert p_values[worst] > _IN_LAW_P_MIN, f"statistic {worst}: p = {p_values[worst]:.3g}"


@pytest.mark.parametrize("cfg,law,expect", [
    (CodeConfig(r=R35, channel_loss=0.0), ErrorLaw("general", STRONG), "no-error"),
    (CodeConfig(r=8.0), ErrorLaw("general", STRONG), "matched"),
    (CodeConfig(r=19.0), ErrorLaw("p", STRONG), "matched"),
    (CodeConfig(r=24.0), ErrorLaw("p", STRONG), "matched"),
    (CodeConfig(r=0.0), ErrorLaw("general", 5.0), "matched"),
    (CodeConfig(r=R35), ErrorLaw("general", 0.0), "no-error"),
], ids=["total-loss", "r8", "r19", "r24", "r0", "magnitude0"])
def test_samplers_at_the_extremes(cfg, law, expect, request):
    """Total loss, extreme and zero squeezing and a zero error: both samplers
    give finite fidelities without a numpy warning, and the same certain
    classification; so does the closed form of every round's branch.  At
    r = 19 and 24 the quiet readouts' variances lie far below the rounding
    error of the loud source quadratures, and the pure-p law also takes every
    round through the rotated rerun."""
    ec = ErrorConfig(1.0, "uniform", law)
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes.append(run_rounds(cfg, ec, np.random.default_rng(3), 200, window=64))
        request.getfixturevalue("series_sampler")       # the series route from here on
        outcomes.append(run_rounds(cfg, ec, np.random.default_rng(3), 200, window=64))
        theory = [fidelity_from_moments(*cfg.input_state(), *moments) for outcome in outcomes
                  for moments in _round_theory(outcome, cfg, law)]
        fids = [fidelity_from_moments(*cfg.input_state(), outcome.corrected_mean,
                                      outcome.corrected_cov) for outcome in outcomes]
    assert np.isfinite(theory).all()
    assert np.isfinite(fids).all()
    for outcome in outcomes:
        want = np.zeros_like(outcome.channels) if expect == "no-error" else outcome.channels
        np.testing.assert_array_equal(outcome.final_codes, want)


@pytest.mark.parametrize("law", [ErrorLaw("general", 1.0), ErrorLaw("x", 1.0),
                                 ErrorLaw("p", 1.0, "gaussian")],
                         ids=["general", "fixed-x", "gaussian-p"])
def test_corrected_variances_do_not_depend_on_the_magnitude(law):
    """A run at ``MAX_MAGNITUDE`` gives the final codes of a same-seed run at
    a = 100 and its corrected variances within 1e-9 relative, on channels 3-5
    at windows 64 and 512, without a numpy warning: the feedforward removes
    the error before any product is formed, so no a^2 * window term has to
    cancel."""
    for window in (64, 512):
        for channel in (3, 4, 5):
            runs = []
            for magnitude in (100.0, MAX_MAGNITUDE):
                ec = ErrorConfig(1.0, channel, dataclasses.replace(law, magnitude=magnitude))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    runs.append(run_rounds(CodeConfig(r=R35), ec, np.random.default_rng(9),
                                           200, window))
            np.testing.assert_array_equal(runs[1].final_codes, runs[0].final_codes)
            np.testing.assert_allclose(runs[1].corrected_cov.diagonal(0, 1, 2),
                                       runs[0].corrected_cov.diagonal(0, 1, 2),
                                       rtol=1e-9, atol=0)


@pytest.mark.parametrize("k", ["drawn", "series"])
def test_syndrome_equals_the_scatter_rule(k):
    """``_syndrome`` of random factors X, (n, 6, 8) as drawn and (n, 6,
    window) as reduced from a series, gives the index of the scatter rule,
    whose bits 0-3 are its flags: ``_syndrome_index`` of diag(X X^T)[:4] /
    (window - 1) above the thresholds and of the D1-D3 / D3-D4 entries of
    X X^T over the window."""
    window, n = 64, 4000
    rng = np.random.default_rng(17)
    scale = rng.uniform(0.5, 2.0, (n, 6))
    if k == "drawn":
        factor = rng.standard_normal((n, 6, 8)) * scale[:, :, None]
    else:
        factor = _reduce_series(rng.standard_normal((n, window, 6)) * scale[:, None])[1]
    thresholds = factor.shape[2] / (window - 1) * np.array([0.8, 1.0, 1.2, 1.5])
    scatter = factor @ factor.transpose(0, 2, 1)
    want_flags = scatter.diagonal(0, 1, 2)[:, :4] / (window - 1) > thresholds
    want_index = qec._syndrome_index(want_flags, scatter[:, [0, 2], [2, 3]] / window)
    index = qec._syndrome(factor.transpose(1, 0, 2), window, thresholds)
    np.testing.assert_array_equal(_syndrome_bits(index)[:, :4], want_flags)
    np.testing.assert_array_equal(index, want_index)
    assert len(np.unique(want_index)) == 64       # every flag pattern and sign pair


def _general_grams(window):
    return ErrorLaw("general", 2.0).window_statistics(np.random.default_rng(5), 200, window)[1]


def _near_singular_grams():
    v = np.array([[1.0, 1e-9], [3.0, -2.0], [1e-8, 1.0]])
    eps = np.array([0.0, 1e-15, 1e-30])
    return np.einsum("ni,nj->nij", v, v) + eps[:, None, None] * np.eye(2)


@pytest.mark.parametrize("grams", [
    lambda: np.zeros((4, 2, 2)),
    *(lambda law=law: law.window_statistics(np.random.default_rng(4), 200, 64)[1]
      for law in (ErrorLaw("x", 0.8), ErrorLaw("x", 1.5, "gaussian"),
                  ErrorLaw("p", 0.8), ErrorLaw("p", 1.5, "gaussian"))),
    lambda: _general_grams(qec.MIN_SYNDROME_WINDOW),
    lambda: _general_grams(512),
    _near_singular_grams,
], ids=["zero", "x-fixed", "x-gaussian", "p-fixed", "p-gaussian", "general-w30",
        "general-w512", "near-singular"])
def test_closed_form_gram_root(grams):
    """The closed-form root R of each error Gram K has R^T R = K within
    1e-12 tr K, is 0 where K is 0, and raises no numpy warning."""
    k = grams()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = qec._gram_root(k)
    assert np.isfinite(root).all()
    trace = np.trace(k, axis1=1, axis2=2)
    error = np.abs(root.transpose(0, 2, 1) @ root - k).max(axis=(1, 2))
    assert (error <= 1e-12 * trace).all()
    assert not root[trace == 0].any()


def _all_same_sign_windows(law, window):
    """Window statistics of a fixed x/p law in which every sample has one
    sign, so the centred Gram entry g is 0 or a rounding residue around it."""
    total = law.magnitude * np.array([window, -window], dtype=float)
    mean, gram = np.zeros((2, 2)), np.zeros((2, 2, 2))
    q = 0 if law.kind == "x" else 1
    mean[:, q] = total / window
    gram[:, q, q] = window * law.magnitude ** 2 - total * total / window
    return mean, gram


@pytest.mark.parametrize("law", [ErrorLaw(kind, a, shape) for kind in ("x", "p")
                                 for shape in ("fixed", "gaussian") for a in (0.0, 0.8, 5.0)],
                         ids=lambda law: f"{law.kind}-{law.shape}-{law.magnitude}")
def test_single_quadrature_error_terms_are_the_matmuls(law):
    """A single-quadrature law's elementwise error terms equal the general
    matmuls C ``_gram_root``(K) and C d on the same windows, at windows 30
    and 64 and on windows whose Gram entry is 0 or a rounding residue, and
    added to a statistics block they give the block the matmuls give, bit
    for bit."""
    rng = np.random.default_rng(6)
    maps = qec._maps(CodeConfig(r=R35, channel_loss=0.9), False)
    windows = [law.window_statistics(rng, 40, w) for w in (qec.MIN_SYNDROME_WINDOW, 64)]
    if law.shape == "fixed" and law.magnitude:
        windows.append(_all_same_sign_windows(law, 33))
    for mean, gram in windows:
        coeff = maps.err_columns.take(rng.integers(0, 5, len(mean)), axis=0)
        terms = qec._error_terms(coeff, law, mean, gram)
        want = np.concatenate([coeff @ qec._gram_root(gram), coeff @ mean[:, :, None]], axis=2)
        np.testing.assert_array_equal(terms, want)
        block = rng.standard_normal((len(mean), 6, 3))
        assert np.array_equal((block + terms).view(np.uint64), (block + want).view(np.uint64))


def concatenate_outcomes(parts):
    """One outcome holding the rounds of ``parts`` in order."""
    columns = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
               for f in dataclasses.fields(qec.RoundsOutcome) if f.name != "window"}
    return qec.RoundsOutcome(parts[0].window, **columns)


def test_pooled_moments_match_pooled_series(series_sampler):
    """Per-class and all-round pooled moments equal the moments of the
    concatenated corrected series, also across chunks."""
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, "uniform", ErrorLaw("p", 1.5, "gaussian"))
    chunks, series = [], []
    for k in (0, 1):
        series_sampler.clear()
        chunks.append(run_rounds(cfg, ec, np.random.default_rng(k), 16, window=64))
        series.append(_corrected_series(chunks[-1], series_sampler))
    outcome = concatenate_outcomes(chunks)
    assert outcome.summary.n_rounds == 32
    series = np.concatenate(series)
    tol = dict(rtol=1e-12, atol=1e-12)
    for code in np.unique(outcome.final_codes):
        pooled = series[outcome.final_codes == code].reshape(-1, 2)
        mean, cov = qec.pooled_moments(outcome, code)
        np.testing.assert_allclose(mean, pooled.mean(axis=0), **tol)
        np.testing.assert_allclose(cov, np.cov(pooled.T, ddof=1), **tol)
        assert qec.pooling_sums(outcome, code)[8] * 64 == len(pooled)    # the count term
    mean, cov = qec.pooled_moments(outcome)
    np.testing.assert_allclose(mean, series.reshape(-1, 2).mean(axis=0), **tol)
    np.testing.assert_allclose(cov, np.cov(series.reshape(-1, 2).T, ddof=1), **tol)


def _reference_pool(rounds, select):
    """The pooling of the selected rounds' corrected moments as it was done
    one class at a time, from masked columns."""
    w = rounds.window
    mean = rounds.corrected_mean[select]
    var = rounds.corrected_cov[select].diagonal(0, 1, 2).sum(axis=0)
    cxy = rounds.corrected_cov[select][:, 0, 1].sum()
    n = w * len(mean)
    pooled = mean.mean(axis=0)
    second = (w - 1) * np.array([[var[0], cxy], [cxy, var[1]]]) + w * mean.T @ mean
    return pooled, (second - n * np.outer(pooled, pooled)) / (n - 1)


def _synthetic_outcome(n=400, window=64, seed=5):
    """A batch built from synthetic columns in which all eight round codes
    occur, each class with its own corrected moments of order 1."""
    rng = np.random.default_rng(seed)
    final = rng.permutation(np.concatenate([np.arange(8), rng.integers(0, 8, n - 8)]))
    final = final.astype(np.int8)
    channels = np.where(rng.random(n) < 0.7, rng.integers(1, 6, n), 0)
    # an ambiguous first pass where the rerun ran, and a definite one elsewhere
    rerun = (rng.random(n) < 0.2) | (final == AMBIGUOUS_P)
    ambiguous = qec._CODE_TABLE == AMBIGUOUS_P
    syndrome = np.where(rerun, rng.choice(np.flatnonzero(ambiguous), n),
                        rng.choice(np.flatnonzero(~ambiguous), n)).astype(np.uint8)
    corrected_mean = rng.normal(0.1 * final[:, None] + [0.3, -0.2], 0.2, (n, 2))
    cov = np.empty((n, 2, 2))
    cov[:, [0, 1], [0, 1]] = rng.uniform(0.2, 0.4 + 0.1 * final[:, None], (n, 2))
    cov[:, 0, 1] = cov[:, 1, 0] = rng.uniform(0.01, 0.05, n) * (1 + final)
    return qec.RoundsOutcome(
        window=window, channels=channels, final_codes=final, syndrome=syndrome,
        corrected_mean=corrected_mean, corrected_cov=cov)


def test_summary_equals_per_class_masked_reference():
    """The summary's four numbers, and every class's round count, pooled
    moments and fidelity, equal the per-class masked reference, on a batch
    in which all eight round codes occur; the all-round pool equals the
    reference over every round."""
    outcome = _synthetic_outcome()
    summary = outcome.summary
    codes = np.unique(outcome.final_codes)
    assert len(codes) == 8
    assert [f.name for f in dataclasses.fields(summary)] == [
        "n_rounds", "window", "accuracy", "fourier_rate"]
    assert summary.n_rounds == 400 and summary.window == 64
    assert summary.accuracy == float(np.mean(outcome.matched))
    assert summary.fourier_rate == float(np.mean(outcome.fourier_used))
    inp = CodeConfig(r=R35, input_kind="squeezed").input_state()
    tol = dict(rtol=1e-12, atol=0)
    for c in codes:
        assert qec.pooling_sums(outcome, c)[8] == np.count_nonzero(outcome.final_codes == c)
        mean, cov = _reference_pool(outcome, outcome.final_codes == c)
        got_mean, got_cov = qec.pooled_moments(outcome, c)
        np.testing.assert_allclose(got_mean, mean, **tol)
        np.testing.assert_allclose(got_cov, cov, **tol)
        np.testing.assert_allclose(fidelity_from_moments(*inp, got_mean, got_cov),
                                   fidelity_from_moments(*inp, mean, cov), **tol)
    mean, cov = _reference_pool(outcome, slice(None))
    got_mean, got_cov = qec.pooled_moments(outcome)
    np.testing.assert_allclose(got_mean, mean, **tol)
    np.testing.assert_allclose(got_cov, cov, **tol)


def test_summary_keeps_no_reference_to_its_outcome():
    """With the garbage collector off, an outcome whose summary and pooled
    moments were read is freed by ``del``: neither the summary, which the
    outcome caches, nor pooling refers back to the outcome, so there is no
    cycle."""
    gc.disable()
    try:
        outcome = run_rounds(CodeConfig(r=R35),
                             ErrorConfig(1.0, "uniform", ErrorLaw("general", 2.0)),
                             np.random.default_rng(3), 40, window=64)
        summary = outcome.summary
        pooled = {code: qec.pooled_moments(outcome, code)
                  for code in np.unique(outcome.final_codes)}
        assert None not in pooled.values()
        ref = weakref.ref(outcome)
        del outcome
        assert ref() is None
        assert summary.n_rounds == 40 and summary.window == 64
    finally:
        gc.enable()


def test_pooled_moments_of_an_absent_code_is_none():
    """Pooling a final class with no round gives None, and no numpy warning
    from an empty reduction; the present class still pools."""
    outcome = run_rounds(CodeConfig(r=R35), ErrorConfig(1.0, 5, ErrorLaw("general", STRONG)),
                         np.random.default_rng(24), 40, window=64)
    assert np.bincount(outcome.final_codes).tolist() == [0] * 5 + [40]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        absent = [qec.pooled_moments(outcome, code) for code in range(len(CODE_NAMES))
                  if code != 5]
        mean, cov = qec.pooled_moments(outcome, 5)
    assert absent == [None] * 7
    all_mean, all_cov = qec.pooled_moments(outcome)
    np.testing.assert_array_equal(mean, all_mean)
    np.testing.assert_array_equal(cov, all_cov)


def test_run_rounds_rejects_empty_batch():
    with pytest.raises(ValueError, match="n_rounds"):
        run_rounds(CodeConfig(r=R35), ErrorConfig(1.0, 3, ErrorLaw("general", STRONG)),
                   np.random.default_rng(0), 0)


def test_rounds_with_uniform_loss_still_classify():
    cfg = CodeConfig(r=R35, channel_loss=0.85)
    ec = ErrorConfig(1.0, 4, ErrorLaw("general", STRONG))
    outcome = run_rounds(cfg, ec, np.random.default_rng(31), 25, window=256)
    assert outcome.summary.accuracy == 1.0


def test_multi_error_is_unclassifiable():
    """Two simultaneous strong errors confuse the pattern; no plan is applied."""
    law = ErrorLaw("general", STRONG)
    dec = decode(inject_error(inject_error(encode(fourier=False), 1), 4))
    code = int(classify_codes(*syndrome_closed_form(dec, False, {1: law, 4: law})))
    assert code == UNCLASSIFIABLE
    assert apply_correction(dec, code) == dec[OUT_POS]


# --------------------------------------------------------------------------
# demo traces


def test_syndrome_trace_channel1_shape():
    """D4 stays at baseline while D1 and D3 swing together."""
    cfg = CodeConfig(r=R35)
    traces, result = syndrome_trace(cfg, 1, 512, np.random.default_rng(2), STRONG)
    assert result == 1
    assert traces.shape == (512, 4)
    baseline = 0.25 * math.exp(-2 * R35)
    assert np.var(traces[:, 3], ddof=1) < 4 * baseline
    corr = np.corrcoef(traces[:, 0], traces[:, 2])[0, 1]
    assert corr > 0.5


def test_syndrome_trace_no_error_flat():
    cfg = CodeConfig(r=R35)
    traces, result = syndrome_trace(cfg, None, 256, np.random.default_rng(3), 0.0)
    assert result == NO_ERROR
    assert traces.shape == (256, 4)
    baseline = 0.25 * math.exp(-2 * R35)
    for det in range(4):
        assert np.var(traces[:, det], ddof=1) < 4 * baseline


@pytest.mark.parametrize("channel", [0, 6, 7, -1, True, np.int64(-1), np.bool_(True)])
def test_syndrome_trace_rejects_channels_outside_1_to_5(channel):
    """Channel 0 would draw channel 5's error through index -1, and -1
    channel 4's."""
    with pytest.raises(ValueError, match=r"channel must be 1\.\.5 or None, not"):
        syndrome_trace(CodeConfig(r=0.4), channel, 64, np.random.default_rng(0), 5.0)


@pytest.mark.parametrize("magnitude", [-1.0, math.nan, math.inf, 10 * MAX_MAGNITUDE, True])
def test_syndrome_trace_rejects_magnitudes_outside_the_law_bound(magnitude):
    """A negative or NaN magnitude would give a silent no-error trace."""
    with pytest.raises(ValueError, match="magnitude must be finite"):
        syndrome_trace(CodeConfig(r=0.4), 1, 64, np.random.default_rng(0), magnitude)


def _series_trace(cfg, channel, window, rng, magnitude):
    """``syndrome_trace`` on the series route: the six readout rows of one
    round drawn with the test helpers, reduced, classified, and their D1..D4
    rows returned."""
    maps = qec._maps(cfg, cfg.fourier_mode)
    series = _readout_noise(maps, 1, window, rng)
    if channel is not None and magnitude > 0:
        phase = (2.0 * math.pi * qec.TRACE_CYCLES * np.arange(window) / window
                 + rng.uniform(0.0, 2.0 * math.pi))
        sweep = magnitude * np.stack([np.cos(phase), np.sin(phase)], axis=1)
        series += _error_series(maps, np.array([channel]), sweep[None])
    index = qec._syndrome(_reduce_series(series)[1].transpose(1, 0, 2), window, maps.thresholds)
    return series[0, :, :4], int(qec._CODE_TABLE[index[0]])


@pytest.mark.parametrize("channel", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("cfg", [
    CodeConfig(r=R35),
    CodeConfig(r=R35, channel_loss=(1.0, 0.9, 0.8, 0.95, 0.7)),
    CodeConfig(r=R35, fourier_mode=True),
    CodeConfig(r=R35, input_kind="squeezed"),
], ids=["lossless", "per-channel-loss", "fourier", "squeezed"])
def test_syndrome_trace_is_the_series_route_bit_for_bit(cfg, channel):
    """The trace draws only the D1..D4 rows, and equals the series route's
    D1..D4 rows bit for bit, with the same code, on the same seed."""
    for window in (30, 64, 512):
        for magnitude in (0.0, STRONG):
            seed = (window, int(magnitude > 0), channel or 0)
            trace, code = syndrome_trace(cfg, channel, window, np.random.default_rng(seed),
                                         magnitude)
            want, want_code = _series_trace(cfg, channel, window, np.random.default_rng(seed),
                                            magnitude)
            assert np.array_equal(trace, want)
            assert code == want_code
            assert trace.shape == (window, 4) and trace.flags.c_contiguous


def _one_draw_trace(cfg, channel, window, rng, magnitude):
    """``syndrome_trace`` as one (window, k) normal draw and one product."""
    maps = qec._maps(cfg, cfg.fourier_mode)
    trace = rng.standard_normal((window, maps.noise.shape[1])) @ maps.noise[:4].T
    if channel is not None and magnitude > 0:
        phase = (2.0 * math.pi * qec.TRACE_CYCLES * np.arange(window) / window
                 + rng.uniform(0.0, 2.0 * math.pi))
        dx, dp = magnitude * np.cos(phase), magnitude * np.sin(phase)
        c = maps.err_columns[channel - 1, :4]
        trace += dx[:, None] * c[:, 0] + dp[:, None] * c[:, 1]
    index = qec._syndrome((trace - trace.mean(axis=0)).T[:, None], window, maps.thresholds)
    return trace, int(qec._CODE_TABLE[index[0]])


@pytest.mark.parametrize("window", [qec.TRACE_BLOCK + 1, 2 * qec.TRACE_BLOCK + 3,
                                    2 * qec.TRACE_BLOCK],
                         ids=["1-row-tail", "3-row-tail", "full-blocks"])
@pytest.mark.parametrize("loss", [1.0, 0.8])
def test_syndrome_trace_blocks_equal_one_draw(window, loss):
    """Drawn ``TRACE_BLOCK`` rows at a time, the trace and its code equal one
    draw's bit for bit, a 1-row tail (joined to the block before it) and a
    lossy channel included."""
    cfg = CodeConfig(r=R35, channel_loss=loss)
    for channel, magnitude in ((None, 0.0), (3, STRONG), (1, 2.0)):
        trace, code = syndrome_trace(cfg, channel, window, np.random.default_rng(window),
                                     magnitude)
        want, want_code = _one_draw_trace(cfg, channel, window, np.random.default_rng(window),
                                          magnitude)
        assert np.array_equal(trace, want)
        assert code == want_code


@pytest.mark.parametrize("loss", [1.0, 0.9])
def test_syndrome_trace_memory_is_a_few_traces(loss):
    """At a 2^16-sample window, four ``TRACE_BLOCK`` blocks, the traced peak
    is at most 3x the returned trace's bytes: 2.3x, the trace beside its
    centred copy or one block's normals; 6x, lossy, when the (window, 20)
    normals were drawn at once."""
    import tracemalloc

    cfg = CodeConfig(r=R35, channel_loss=loss)
    qec._maps(cfg, cfg.fourier_mode)                # built before tracing,
    rng = np.random.default_rng(0)                  # as is the generator
    tracemalloc.start()
    try:
        trace, _ = syndrome_trace(cfg, 3, 2 ** 16, rng, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 ** 16 > 2 * qec.TRACE_BLOCK
    assert peak <= 3 * trace.nbytes, peak / trace.nbytes
