"""End-to-end pipeline: encoding, syndromes, classification, feedforward."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cvqec import code as qec
from cvqec.code import (AMBIGUOUS_P, CHANNEL, ClassificationResult, CodeConfig,
                        CorrectionUnavailable, NO_ERROR, UNCLASSIFIABLE,
                        classify, closed_form_output, correction_plan, decode,
                        derive_correction_plan, encode, inject_error, run_rounds,
                        syndrome_closed_form, syndrome_trace)
from cvqec.errors import ErrorConfig, ErrorEvent, ErrorLaw
from cvqec.exact import (ExactScalar, QuadSymbol, SQRT2, TAG_ANTISQUEEZED,
                         TAG_SQUEEZED, form_covariance, sqrt_of)
from cvqec.gaussian import apply, db_to_r, join, loss_channel, squeezed_vacuum
from cvqec.network import encoder_matrix, inverse, lift_to_symplectic

R35 = db_to_r(3.5)
Q35 = 10.0 ** -0.35
STRONG = 10.0 * math.sqrt(0.25 * math.exp(-2 * R35))


def frac(n, d=1):
    return Fraction(n, d)


def _series_statistics(maps, channels, occurred, law, window, rng):
    """The round statistics reduced from sampled readout series: the series
    route that ``_sample_statistics`` equals in law."""
    return qec._reduce_series(qec._sample_series(maps, channels, occurred, law, window, rng))


@pytest.fixture
def series_sampler(monkeypatch):
    """Makes run_rounds sample every pass's readout series and reduce it.
    Returns the list to which each pass's (n, window, 6) series is appended."""
    passes = []

    def sample(maps, channels, occurred, law, window, rng):
        series = qec._sample_series(maps, channels, occurred, law, window, rng)
        passes.append(series)
        return qec._reduce_series(series)

    monkeypatch.setattr(qec, "_sample_statistics", sample)
    return passes


def _result(code):
    return qec._CODE_TO_RESULT[int(code)]


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
    assert CodeConfig(r=(0.1, 0.2, 0.3, 0.4)).r_values == (0.1, 0.2, 0.3, 0.4)


def test_code_config_lists_become_tuples():
    """Per-ancilla and per-channel lists give the same hashable config as tuples."""
    cfg = CodeConfig(r=[0.1, 0.2, 0.3, 0.4], channel_loss=[1.0, 0.9, 0.9, 0.8, 1.0])
    same = CodeConfig(r=(0.1, 0.2, 0.3, 0.4), channel_loss=(1.0, 0.9, 0.9, 0.8, 1.0))
    assert cfg == same
    assert hash(cfg) == hash(same)


def test_encode_symbolic_channel4():
    """c4 = a2/(2 sqrt6) - a3/(2 sqrt2) + a4/sqrt2 - a_in/sqrt3."""
    enc = encode(CodeConfig(r=0.5))
    c4x = enc.forms[3].x
    assert c4x.coefficient(QuadSymbol.ancilla(2, "x", TAG_ANTISQUEEZED)) == \
        sqrt_of(frac(1, 24))
    assert c4x.coefficient(QuadSymbol.ancilla(3, "x", TAG_SQUEEZED)) == \
        -sqrt_of(frac(1, 8))
    assert c4x.coefficient(QuadSymbol.ancilla(4, "x", TAG_SQUEEZED)) == \
        sqrt_of(frac(1, 2))
    assert c4x.coefficient(QuadSymbol.input("x")) == -sqrt_of(frac(1, 3))


def _engine_state(cfg, decoded=True):
    """The pipeline through the Gaussian-state engine: source states, the
    lifted encoder (ancillas Fourier-rotated in Fourier mode) and, with
    ``decoded``, per-channel loss and the lifted decoder."""
    ancillas = iter(zip(cfg.r_values, qec.ANCILLA_ORIENTATIONS))
    state = join([cfg.input_state() if pos == qec.INPUT_POS else squeezed_vacuum(*next(ancillas))
                  for pos in range(5)])
    flags = [pos != qec.INPUT_POS for pos in range(5)] if cfg.fourier_mode else None
    state = apply(lift_to_symplectic(encoder_matrix(), flags), state)
    if not decoded:
        return state
    for mode, eta in enumerate(cfg.loss_values):
        state = loss_channel(state, mode, eta)
    return apply(lift_to_symplectic(inverse(encoder_matrix())), state)


def _form_covariances(forms, cfg):
    quads = [f for m in forms for f in (m.x, m.p)]
    return np.array([[form_covariance(f, g, cfg.r_values, cfg.input_variances())
                      for g in quads] for f in quads])


def test_encode_unsqueezed_gives_vacuum_channels():
    cfg = CodeConfig(r=0.0)
    assert np.allclose(_form_covariances(encode(cfg).forms, cfg), 0.25 * np.eye(10), atol=1e-12)
    assert np.allclose(_engine_state(cfg, decoded=False).cov, 0.25 * np.eye(10), atol=1e-12)


def test_encode_correlation_variance():
    """Var(x_c4 + x_c5) = 2 (1/4) e^{-2r}."""
    for r in (0.0, R35, 1.2):
        enc = encode(CodeConfig(r=r))
        f = enc.forms[3].x + enc.forms[4].x
        from cvqec.exact import form_variance
        assert form_variance(f, r) == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)


def test_encode_numeric_matches_symbolic_covariances():
    """The Gaussian-state engine's encoded covariance equals that of the
    exact encoded forms."""
    cfg = CodeConfig(r=(0.2, 0.5, 0.8, 0.1), input_kind="squeezed")
    np.testing.assert_allclose(_engine_state(cfg, decoded=False).cov,
                               _form_covariances(encode(cfg).forms, cfg), rtol=0, atol=1e-12)


@pytest.mark.parametrize("r", [0.6, (0.2, 0.7, 0.1, 0.9)])
def test_encode_fourier_mode_matches_symbolic(r):
    cfg = CodeConfig(r=r, fourier_mode=True)
    np.testing.assert_allclose(_engine_state(cfg, decoded=False).cov,
                               _form_covariances(encode(cfg).forms, cfg), rtol=0, atol=1e-12)


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
    draws from, equals the one the Gaussian-state engine builds step by step,
    and, without loss, the covariance of the exact decoded forms."""
    maps = qec.PipelineMaps(cfg, cfg.fourier_mode)
    cov = maps.noise @ maps.noise.T
    rows = np.ix_(*[qec.readout_rows(cfg.fourier_mode)] * 2)
    np.testing.assert_allclose(cov, _engine_state(cfg).cov[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(maps.baselines, np.diagonal(cov), rtol=1e-12, atol=0)
    if not cfg.has_loss:
        exact = _form_covariances(decode(encode(cfg)).forms, cfg)
        np.testing.assert_allclose(cov, exact[rows], rtol=0, atol=1e-12)


def test_inject_null_event_is_identity():
    enc = encode(CodeConfig())
    out = inject_error(enc, ErrorEvent(False))
    assert out.forms == enc.forms
    assert out.events == (ErrorEvent(False),)


def test_error_event_validation():
    with pytest.raises(ValueError):
        ErrorEvent(True, 7, 1.0, 0.0)
    with pytest.raises(ValueError):
        ErrorEvent(False, 0, 1.0, 0.0)


def test_decode_error_free_recovers_input():
    dec = decode(encode(CodeConfig(r=0.9)))
    src = qec.source_mode_forms(CodeConfig(r=0.9))
    assert dec.out_form.x == src[3].x
    assert dec.out_form.p == src[3].p


def test_decode_channel2_coefficients():
    """d2 = a2 - 3 e2/(2 sqrt6); d1 = a1 + e2/sqrt2; d3 = a3 - e2/(2 sqrt2)."""
    dec = decode(inject_error(encode(CodeConfig()), ErrorEvent(True, 2, 1.0, 1.0)))
    e2x = QuadSymbol.error(2, "x")
    assert dec.forms[1].x.coefficient(e2x) == -sqrt_of(frac(9, 24))
    assert dec.forms[0].x.coefficient(e2x) == sqrt_of(frac(1, 2))
    assert dec.forms[2].x.coefficient(e2x) == -sqrt_of(frac(1, 8))
    assert dec.out_form.x.coefficient(e2x).is_zero()


def test_decode_channel4_coefficients():
    """d4 = a4 + e4/sqrt2; out = a_in - e4/sqrt3."""
    dec = decode(inject_error(encode(CodeConfig()), ErrorEvent(True, 4, 1.0, 1.0)))
    e4 = QuadSymbol.error(4, "x")
    assert dec.forms[4].x.coefficient(e4) == sqrt_of(frac(1, 2))
    assert dec.out_form.x.coefficient(e4) == -sqrt_of(frac(1, 3))


def test_decode_mean_shift_through_pipeline():
    """A channel-3 x displacement of delta moves the output mean by delta/sqrt3."""
    delta = 0.8
    out = closed_form_output(CodeConfig(), 3, corrected=False, displacement=(delta, 0.0))
    assert out.mean[0] == pytest.approx(delta / math.sqrt(3))
    out = closed_form_output(CodeConfig(), 1, corrected=False, displacement=(5.0, -3.0))
    assert out.mean == pytest.approx([0.0, 0.0], abs=1e-14)


# --------------------------------------------------------------------------
# syndromes


def _measured(cfg, channel, law, seed=0, window=512):
    """One round with an error on ``channel`` (None for an error-free round),
    whose first-pass flags and relations form its syndrome."""
    ec = ErrorConfig(1.0 if channel else 0.0, channel or "uniform", law)
    return run_rounds(cfg, ec, np.random.default_rng(seed), 1, window)


def test_syndrome_channel1_pattern(series_sampler):
    out = _measured(CodeConfig(r=R35), 1, ErrorLaw("general", STRONG))
    assert out.flags[0].tolist() == [True, True, True, False]
    assert out.relations[0, 0] == 1                  # D1-D3 in phase


def test_syndrome_channel2_pattern(series_sampler):
    out = _measured(CodeConfig(r=R35), 2, ErrorLaw("general", STRONG))
    d1, _, d3, d4 = out.flags[0]
    assert d1 and d3 and not d4
    assert out.relations[0, 0] == -1                 # D1-D3 out of phase


def test_syndrome_no_error_large_squeezing(series_sampler):
    out = _measured(CodeConfig(r=2.0), None, ErrorLaw("general", 0.0))
    assert not out.flags.any()


def test_syndrome_window_floor(series_sampler):
    with pytest.raises(ValueError):
        _measured(CodeConfig(), 1, ErrorLaw("general", 1.0), window=10)
    with pytest.raises(ValueError):
        syndrome_trace(CodeConfig(), 1, 10, np.random.default_rng(0), 1.0)


def test_syndrome_constant_event_shifts_mean_not_variance():
    """A law-less DC displacement moves readout means but raises no flag."""
    dec = decode(inject_error(encode(CodeConfig(r=R35)),
                              ErrorEvent(True, 3, 4.0, 0.0, law=None)))
    rec = syndrome_closed_form(dec)
    assert not any(rec.flags.values())
    assert rec.variances == rec.baselines
    assert (rec.relation_13, rec.relation_34) == ("n/a", "n/a")
    shift = 4.0 * float(dec.readout_form("D3").coefficient(QuadSymbol.error(3, "x")))
    assert shift == pytest.approx(4.0 * float(qec.encoder_matrix().entry(2, 2)), rel=1e-15)
    assert shift != 0.0


@pytest.mark.parametrize("channel,flags,rel13,rel34", [
    (1, (True, True, True, False), "in-phase", "n/a"),
    (2, (True, True, True, False), "out-of-phase", "n/a"),
    (3, (False, True, True, False), "n/a", "n/a"),
    (4, (False, True, True, True), "n/a", "out-of-phase"),
    (5, (False, True, True, True), "n/a", "in-phase"),
])
def test_syndrome_closed_form_table(channel, flags, rel13, rel34):
    dec = decode(inject_error(encode(CodeConfig(r=R35)),
                              ErrorEvent(True, channel, 1.0, 1.0,
                                         ErrorLaw("general", 1.0))))
    rec = syndrome_closed_form(dec)
    assert (rec.flags["D1"], rec.flags["D2"], rec.flags["D3"], rec.flags["D4"]) == flags
    assert rec.relation_13 == rel13
    assert rec.relation_34 == rel34


def test_syndrome_closed_form_pure_p_flags_only_d2():
    dec = decode(inject_error(encode(CodeConfig(r=R35)),
                              ErrorEvent(True, 4, 0.0, 1.0, ErrorLaw("p", 1.0))))
    rec = syndrome_closed_form(dec)
    assert rec.flags == {"D1": False, "D2": True, "D3": False, "D4": False}
    assert classify(rec).kind == AMBIGUOUS_P


# --------------------------------------------------------------------------
# classification


def _rec(flags, rel13="n/a", rel34="n/a"):
    return qec.SyndromeRecord(
        mode="standard",
        variances={d: 1.0 for d in qec.DETECTORS},
        baselines={d: 0.1 for d in qec.DETECTORS},
        flags=dict(zip(qec.DETECTORS, flags)),
        relation_13=rel13, relation_34=rel34)


def test_classify_table():
    assert classify(_rec((False, False, False, False))).kind == NO_ERROR
    assert classify(_rec((True, True, True, False), rel13="in-phase")).channel == 1
    assert classify(_rec((True, True, True, False), rel13="out-of-phase")).channel == 2
    assert classify(_rec((False, True, True, False))).channel == 3
    assert classify(_rec((False, False, True, False))).channel == 3
    assert classify(_rec((False, True, True, True), rel34="out-of-phase")).channel == 4
    assert classify(_rec((False, True, True, True), rel34="in-phase")).channel == 5
    assert classify(_rec((False, True, False, False))).kind == AMBIGUOUS_P


def test_classify_is_total_on_all_patterns():
    kinds = {NO_ERROR, CHANNEL, AMBIGUOUS_P, UNCLASSIFIABLE}
    for bits in range(16):
        flags = tuple(bool(bits >> k & 1) for k in range(4))
        for rel13 in ("in-phase", "out-of-phase", "n/a"):
            for rel34 in ("in-phase", "out-of-phase", "n/a"):
                assert classify(_rec(flags, rel13, rel34)).kind in kinds


def test_classify_mismatched_patterns_are_unclassifiable():
    assert classify(_rec((True, False, False, True))).kind == UNCLASSIFIABLE
    assert classify(_rec((True, True, True, True))).kind == UNCLASSIFIABLE
    assert classify(_rec((False, False, False, True))).kind == UNCLASSIFIABLE


def _reference_classify(flags, rel13, rel34):
    """The syndrome table as a pattern match, one record at a time."""
    f1, f2, f3, f4 = flags
    if not any(flags):
        return str(ClassificationResult(NO_ERROR))
    if (f1, f3, f4) == (True, True, False):
        return "channel-1" if rel13 == "in-phase" else "channel-2"
    if (f1, f3, f4) == (False, True, False):
        return "channel-3"
    if (f1, f3, f4) == (False, True, True):
        return "channel-5" if rel34 == "in-phase" else "channel-4"
    if (f1, f3, f4) == (False, False, False) and f2:
        return AMBIGUOUS_P
    return UNCLASSIFIABLE


def test_scalar_and_array_classifiers_agree():
    """classify and the batched _classify_codes follow one syndrome table on
    every flag pattern and both signs of each phase relation."""
    sign = {"in-phase": 0.7, "out-of-phase": -0.7}
    cases = [(tuple(bool(bits >> k & 1) for k in range(4)), rel13, rel34)
             for bits in range(16) for rel13 in sign for rel34 in sign]
    flags = np.array([c[0] for c in cases])
    codes = qec._classify_codes(flags, np.array([sign[c[1]] for c in cases]),
                                np.array([sign[c[2]] for c in cases]))
    for (f, rel13, rel34), code in zip(cases, codes):
        want = _reference_classify(f, rel13, rel34)
        # a relation is reported only for a flagged detector pair
        rec = _rec(f, rel13 if f[0] and f[2] else "n/a", rel34 if f[2] and f[3] else "n/a")
        assert str(classify(rec)) == want
        assert str(qec._CODE_TO_RESULT[int(code)]) == want


# --------------------------------------------------------------------------
# feedforward plans and correction


def test_plan_gains_match_reference_table():
    g23 = sqrt_of(frac(2, 3))
    plan3 = correction_plan(ClassificationResult(CHANNEL, 3))
    assert plan3.x_ff == ("D3", g23)
    assert plan3.p_ff == ("D2", -SQRT2)
    plan4 = correction_plan(ClassificationResult(CHANNEL, 4))
    assert plan4.x_ff == ("D4", g23)
    assert plan4.p_ff == ("D2", ExactScalar(0, 2))
    plan5 = correction_plan(ClassificationResult(CHANNEL, 5))
    assert plan5.x_ff == ("D4", -g23)
    assert plan5.p_ff == ("D2", ExactScalar(0, 2))


def test_zero_plan_for_protected_channels():
    for result in (ClassificationResult(NO_ERROR),
                   ClassificationResult(CHANNEL, 1),
                   ClassificationResult(CHANNEL, 2)):
        assert correction_plan(result).is_zero()
    # the round engine's table also leaves indefinite codes uncorrected
    for code in (0, 1, 2, qec._CODE_AMBIGUOUS, qec._CODE_UNCLASSIFIABLE):
        np.testing.assert_array_equal(qec.PLAN_TABLE[:, code], [np.eye(2, 6, 4)] * 2)


def test_plan_unavailable_for_ambiguous():
    with pytest.raises(CorrectionUnavailable):
        correction_plan(ClassificationResult(AMBIGUOUS_P))
    with pytest.raises(CorrectionUnavailable):
        correction_plan(ClassificationResult(UNCLASSIFIABLE))


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("channel", [3, 4, 5])
def test_derived_plans_equal_constants(channel, fourier):
    derived = derive_correction_plan(channel, fourier)
    table = correction_plan(ClassificationResult(CHANNEL, channel), fourier)
    assert derived.x_ff == table.x_ff
    assert derived.p_ff == table.p_ff
    np.testing.assert_array_equal(qec.PLAN_TABLE[int(fourier), channel],
                                  qec.plan_matrix(derived))


def test_corrected_output_channel3_residuals():
    """x' = x_in + sqrt(2/3) x3 e^{-r}; p' = p_in - sqrt2 p2 e^{-r}."""
    dec = decode(inject_error(encode(CodeConfig(r=0.7)), ErrorEvent(True, 3, 1.0, 1.0)))
    out = qec.apply_correction(dec, correction_plan(ClassificationResult(CHANNEL, 3)))
    x_terms = out.x.terms
    assert x_terms == {
        QuadSymbol.input("x"): ExactScalar(1),
        QuadSymbol.ancilla(3, "x", TAG_SQUEEZED): sqrt_of(frac(2, 3))}
    p_terms = out.p.terms
    assert p_terms == {
        QuadSymbol.input("p"): ExactScalar(1),
        QuadSymbol.ancilla(2, "p", TAG_SQUEEZED): -SQRT2}


def test_corrected_output_channel5_p_residual():
    dec = decode(inject_error(encode(CodeConfig(r=0.7)), ErrorEvent(True, 5, 1.0, 1.0)))
    out = qec.apply_correction(dec, correction_plan(ClassificationResult(CHANNEL, 5)))
    assert out.p.terms == {
        QuadSymbol.input("p"): ExactScalar(1),
        QuadSymbol.ancilla(2, "p", TAG_SQUEEZED): ExactScalar(0, 2)}


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("channel", [3, 4, 5])
def test_error_symbols_cancel_exactly(channel, fourier):
    cfg = CodeConfig(r=0.42, fourier_mode=fourier)
    dec = decode(inject_error(encode(cfg), ErrorEvent(True, channel, 2.7, -1.3)))
    plan = correction_plan(ClassificationResult(CHANNEL, channel), fourier)
    out = qec.apply_correction(dec, plan)
    assert not out.x.has_errors()
    assert not out.p.has_errors()


def test_immunity_channels_need_no_correction():
    for ch in (1, 2):
        dec = decode(inject_error(encode(CodeConfig(r=0.3)),
                                  ErrorEvent(True, ch, 9.0, -4.0)))
        assert not dec.out_form.x.has_errors()
        assert not dec.out_form.p.has_errors()


def test_perfect_squeezing_limit_recovers_input():
    """All residuals carry e^{-r}, so the corrected output tends to the input."""
    stats = closed_form_output(CodeConfig(r=12.0), 4)
    assert stats.V_x == pytest.approx(0.25, rel=1e-9)
    assert stats.V_p == pytest.approx(0.25, rel=1e-9)


# --------------------------------------------------------------------------
# closed-form statistics


@pytest.mark.parametrize("r", [0.0, 0.403, 1.0])
@pytest.mark.parametrize("channel,p_units", [(3, 2.0), (4, 8.0), (5, 8.0)])
def test_closed_form_noise_pattern(r, channel, p_units):
    stats = closed_form_output(CodeConfig(r=r), channel)
    q = math.exp(-2 * r)
    assert stats.V_x == pytest.approx(0.25 + (2 / 3) * 0.25 * q, abs=1e-10)
    assert stats.V_p == pytest.approx(0.25 + p_units * 0.25 * q, abs=1e-10)


def test_closed_form_fidelity_values():
    assert closed_form_output(CodeConfig(r=0.0), 3).fidelity == \
        pytest.approx(0.612, abs=5e-4)
    assert closed_form_output(CodeConfig(r=db_to_r(3.5)), 4).fidelity == \
        pytest.approx(0.559, abs=5e-4)
    sq = CodeConfig(r=0.0, input_kind="squeezed")
    assert closed_form_output(sq, 4).fidelity == pytest.approx(0.43, abs=5e-3)


def test_closed_form_fourier_mode_swaps_residual_quadratures():
    q = math.exp(-2 * 0.5)
    stats = closed_form_output(CodeConfig(r=0.5, fourier_mode=True), 4)
    assert stats.V_x == pytest.approx(0.25 + 8 * 0.25 * q, abs=1e-10)
    assert stats.V_p == pytest.approx(0.25 + (2 / 3) * 0.25 * q, abs=1e-10)


def test_closed_form_uncorrected_branch():
    stats = closed_form_output(CodeConfig(r=0.5), 3, corrected=False,
                               displacement=(1.5, 0.0))
    assert stats.mean[0] == pytest.approx(1.5 / math.sqrt(3), rel=1e-12)
    assert stats.V_x == pytest.approx(0.25, abs=1e-12)


def test_closed_form_uniform_loss_keeps_cancellation():
    """With equal or unequal loss on the channels the feedforward still
    cancels the error."""
    lossless = closed_form_output(CodeConfig(r=R35), 4)
    for loss in (0.9, (1.0, 0.9, 0.8, 0.95, 0.7)):
        cfg = CodeConfig(r=R35, channel_loss=loss)
        corrected = closed_form_output(cfg, 4, displacement=(7.0, -3.0))
        assert np.allclose(corrected.mean, 0.0, atol=1e-12)
        assert corrected.fidelity < lossless.fidelity


def test_loss_reduces_channel12_fidelity_for_squeezed_input():
    """Uniform loss leaves a vacuum input untouched but degrades a squeezed one."""
    vac = CodeConfig(r=R35, channel_loss=0.9)
    assert closed_form_output(vac, 1).fidelity == pytest.approx(1.0, abs=1e-12)
    sq = CodeConfig(r=R35, input_kind="squeezed", channel_loss=0.9)
    f = closed_form_output(sq, 1).fidelity
    assert f < 1.0
    assert f > 0.9


# --------------------------------------------------------------------------
# full rounds


def _round_theory(outcome, law):
    """Closed-form output of each round's branch: the corrected output of a
    located channel, the error-free output, or the unrepaired hit of an
    indefinite round, in the configuration of the pass the round reports."""
    cfg = outcome.cfg
    reported_rerun = outcome.fourier_used & (outcome.final_codes != qec._CODE_UNCLASSIFIABLE)
    out = []
    for code, fourier, channel in zip(outcome.final_codes.tolist(),
                                      (reported_rerun ^ cfg.fourier_mode).tolist(),
                                      outcome.channels.tolist()):
        if code in (1, 2, 3, 4, 5):
            out.append(closed_form_output(cfg, code, fourier=fourier))
        elif code == qec._CODE_NO_ERROR:
            out.append(closed_form_output(cfg, None, fourier=fourier))
        else:
            extra = law.quadrature_variances() if channel else (0.0, 0.0)
            out.append(closed_form_output(cfg, channel or None, corrected=False,
                                          extra_error_var=extra, fourier=fourier))
    return out


def test_run_round_channel2_near_unit_fidelity(series_sampler):
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, 2, ErrorLaw("general", STRONG))
    out = run_rounds(cfg, ec, np.random.default_rng(21), 1)
    assert _result(out.final_codes[0]).channel == 2
    assert _round_theory(out, ec.law)[0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.fidelity_mc[0] > 0.99


def test_run_round_pure_p_resolved_by_rerun(series_sampler):
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, 4, ErrorLaw("p", STRONG))
    out = run_rounds(cfg, ec, np.random.default_rng(22), 1)
    assert _result(out.first_codes[0]).kind == AMBIGUOUS_P
    assert out.fourier_used[0]
    assert _result(out.final_codes[0]).channel == 4
    assert out.matched[0]


def test_run_round_gamma_zero_is_identity_round(series_sampler):
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(0.0, 3, ErrorLaw("general", STRONG))
    out = run_rounds(cfg, ec, np.random.default_rng(23), 1)
    assert _result(out.final_codes[0]).kind == NO_ERROR
    assert out.channels[0] == 0
    assert _round_theory(out, ec.law)[0].fidelity == pytest.approx(1.0, abs=1e-12)


def test_run_rounds_matches_run_round_semantics():
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(1.0, 5, ErrorLaw("general", STRONG))
    outcome = run_rounds(cfg, ec, np.random.default_rng(24), 40, window=256)
    assert outcome.matched.all()
    assert outcome.summary.counts == {"channel-5": 40}
    th = closed_form_output(cfg, 5)
    mean, cov = outcome.summary.pooled_moments["channel-5"]
    n = 40 * 256
    for k in (0, 1):
        assert abs(cov[k, k] - th.cov[k, k]) < 5 * th.cov[k, k] * math.sqrt(2 / (n - 1))


def test_run_rounds_deterministic_for_fixed_seed():
    cfg = CodeConfig(r=R35)
    ec = ErrorConfig(0.7, "uniform", ErrorLaw("general", STRONG))
    a = run_rounds(cfg, ec, np.random.default_rng(77), 30, window=64)
    b = run_rounds(cfg, ec, np.random.default_rng(77), 30, window=64)
    _assert_same_columns(a, b)


# Seed 0, 16 rounds of window 64 on the series route, as drawn before the
# round engine became columnar: (channels, first codes, final codes, reruns,
# sha256 of the injected (dx, dp) float64 bytes).  Equal values show the RNG
# stream is unchanged.
_PINNED_ROUNDS = {
    "general": ([1, 5, 1, 3, 0, 0, 3, 0, 3, 0, 0, 1, 0, 4, 0, 4],
                "1 5 1 3 0 0 3 0 3 0 0 1 0 4 0 4",
                "1 5 1 3 0 0 3 0 3 0 0 1 0 4 0 4",
                "FFFFFFFFFFFFFFFF",
                "e34db0f1258fe43eb3adbb4bc373b9e0e7fc51035b570ad9e366927cc2ffb103"),
    "p": ([1, 5, 1, 3, 1, 2, 3, 3, 3, 1, 1, 1, 1, 4, 3, 4],
          "A 0 A A A A A A 0 A A A A 0 A 0",
          "U 0 U 3 U U 3 3 0 U U 1 U 0 3 0",
          "TFTTTTTTFTTTTFTF",
          "68e29d125d0b3b7777b23cc0c29fd4fe006ce3bb338a26a263258e8b9b516892"),
}


def _short(result):
    return {NO_ERROR: "0", AMBIGUOUS_P: "A", UNCLASSIFIABLE: "U"}.get(
        result.kind, str(result.channel))


def _corrected_series(outcome, passes):
    """(n, window, 2) corrected output series of a run on the series route,
    from its recorded passes: a resolved rerun's second pass, otherwise the
    first, through each round's feedforward."""
    series = passes[0].copy()
    rerun = np.flatnonzero(outcome.fourier_used)
    if len(rerun):
        resolved = outcome.final_codes[rerun] != qec._CODE_UNCLASSIFIABLE
        series[rerun[resolved]] = passes[1][resolved]
    comb = qec.PLAN_TABLE[outcome.fourier_used.astype(np.intp), outcome.final_codes]
    return series @ comb.transpose(0, 2, 1)


@pytest.mark.parametrize("case", sorted(_PINNED_ROUNDS))
def test_round_moments_match_stored_series(case, series_sampler):
    """Every round's corrected moments and fidelity equal those recomputed
    from its corrected series.  The general case has no-error rounds
    and channels 1 and 3-5; the gaussian p case has resolved reruns and
    unresolved ones, which report the first pass."""
    import hashlib

    from cvqec.gaussian import fidelity_from_moments

    ec = {"general": ErrorConfig(0.7, "uniform", ErrorLaw("general", STRONG)),
          "p": ErrorConfig(1.0, "uniform", ErrorLaw("p", 1.5, "gaussian"))}[case]
    cfg = CodeConfig(r=R35)
    outcome = run_rounds(cfg, ec, np.random.default_rng(0), 16, window=64)
    inp = cfg.input_state()
    tol = dict(rtol=1e-12, atol=1e-12)
    for i, series in enumerate(_corrected_series(outcome, series_sampler)):
        mean = series.mean(axis=0)
        var = series.var(axis=0, ddof=1)
        cov = np.cov(series.T, ddof=1)
        np.testing.assert_allclose(outcome.corrected_mean[i], mean, **tol)
        np.testing.assert_allclose(outcome.corrected_var[i], var, **tol)
        np.testing.assert_allclose(outcome.corrected_cov_xp[i], cov[0, 1], **tol)
        np.testing.assert_allclose(
            outcome.fidelity_mc[i], fidelity_from_moments(inp.mean, inp.cov, mean, cov), **tol)
    channels, first, final, reruns, draws = _PINNED_ROUNDS[case]
    assert outcome.channels.tolist() == channels
    assert " ".join(_short(_result(c)) for c in outcome.first_codes) == first
    assert " ".join(_short(_result(c)) for c in outcome.final_codes) == final
    assert "".join("FT"[int(r)] for r in outcome.fourier_used) == reruns
    assert hashlib.sha256(outcome.injected.tobytes()).hexdigest() == draws


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
        data = qec._PassData(*sample(maps, chunk, chunk > 0, law, window, rng),
                             window, maps.baselines)
        columns.append(np.column_stack([data.mean, data.scatter[:, upper_row, upper_col],
                                        data.cc13, data.cc34]))
        flags.append(data.flags)
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
        theory = [stats.fidelity for outcome in outcomes
                  for stats in _round_theory(outcome, law)]
    assert np.isfinite(theory).all()
    for outcome in outcomes:
        assert np.isfinite(outcome.fidelity_mc).all()
        want = np.zeros_like(outcome.channels) if expect == "no-error" else outcome.channels
        np.testing.assert_array_equal(outcome.final_codes, want)


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
    outcome = qec.RoundsOutcome.concatenate(chunks)
    assert outcome.summary.n_rounds == 32
    series = np.concatenate(series)
    tol = dict(rtol=1e-12, atol=1e-12)
    for code in np.unique(outcome.final_codes):
        key = str(qec._CODE_TO_RESULT[int(code)])
        pooled = series[outcome.final_codes == code].reshape(-1, 2)
        mean, cov = outcome.summary.pooled_moments[key]
        np.testing.assert_allclose(mean, pooled.mean(axis=0), **tol)
        np.testing.assert_allclose(cov, np.cov(pooled.T, ddof=1), **tol)
        assert outcome.summary.counts[key] == np.count_nonzero(outcome.final_codes == code)
    mean, cov = qec.pooled_moments(outcome)
    np.testing.assert_allclose(mean, series.reshape(-1, 2).mean(axis=0), **tol)
    np.testing.assert_allclose(cov, np.cov(series.reshape(-1, 2).T, ddof=1), **tol)


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
    """Two simultaneous strong errors confuse the pattern; no plan is issued."""
    cfg = CodeConfig(r=R35)
    enc = encode(cfg)
    law = ErrorLaw("general", STRONG)
    enc = inject_error(enc, ErrorEvent(True, 1, STRONG, 0.0, law))
    enc = inject_error(enc, ErrorEvent(True, 4, STRONG, 0.0, law))
    result = classify(syndrome_closed_form(decode(enc)))
    assert result.kind == UNCLASSIFIABLE
    with pytest.raises(CorrectionUnavailable):
        correction_plan(result)


# --------------------------------------------------------------------------
# demo traces


def test_syndrome_trace_channel1_shape():
    """D4 stays at baseline while D1 and D3 swing together."""
    cfg = CodeConfig(r=R35)
    traces, result = syndrome_trace(cfg, 1, 512, np.random.default_rng(2), STRONG)
    assert result.channel == 1
    baseline = 0.25 * math.exp(-2 * R35)
    assert np.var(traces["D4"], ddof=1) < 4 * baseline
    corr = np.corrcoef(traces["D1"], traces["D3"])[0, 1]
    assert corr > 0.5


def test_syndrome_trace_no_error_flat():
    cfg = CodeConfig(r=R35)
    traces, result = syndrome_trace(cfg, None, 256, np.random.default_rng(3), 0.0)
    assert result.kind == NO_ERROR
    baseline = 0.25 * math.exp(-2 * R35)
    for det in ("D1", "D2", "D3", "D4"):
        assert np.var(traces[det], ddof=1) < 4 * baseline
