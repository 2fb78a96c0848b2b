"""Inseparability witness: boundary behavior, optimization, monotonicity."""

import itertools

import numpy as np
import pytest

from cvqec.code import MAX_R, CodeConfig, closed_form_output, encode
from cvqec.gaussian import db_to_r
from cvqec.witness import (_TERMS, SEPARABLE_BOUND, _encoded_factor, _index,
                           combination_value, evaluate_witness, optimize_gains)
from test_exact import form_covariance, form_variance

R35 = db_to_r(3.5)


def test_unsqueezed_sits_exactly_on_boundary():
    res = evaluate_witness(CodeConfig(r=0.0))
    for v in res.values:
        assert v == pytest.approx(SEPARABLE_BOUND, abs=1e-12)
        assert v >= SEPARABLE_BOUND - 1e-12


def test_combination1_with_unit_gain_at_r0():
    """Var(x_c1+x_c2) + Var(p_c2-p_c1-p_c3) = 1/2 + 3/4 at r=0, above the bound."""
    v = combination_value(1, [0, 0, 1.0, 0, 0, 0], CodeConfig(r=0.0))
    assert v == pytest.approx(1.25, rel=1e-12)
    assert v > SEPARABLE_BOUND


def test_combination1_first_term_squeezed():
    """The gain-free first term alone is 2 (1/4) e^{-2r}."""
    cfg = CodeConfig(r=R35)
    gains = optimize_gains(cfg)
    full = combination_value(1, gains, cfg)
    # remove the second term by evaluating its parabola vertex independently:
    # the first term is gain-free, so value(any gains) - second(gains) is fixed.
    enc = encode(fourier=cfg.fourier_mode)
    first = form_variance(enc[0].x + enc[1].x, cfg.r,
                          cfg.input_variances())
    assert first == pytest.approx(0.5 * 10 ** -0.35, rel=1e-12)
    assert full > first


def test_working_squeezing_satisfies_all():
    res = evaluate_witness(CodeConfig(r=R35))
    assert res.all_satisfied()
    assert all(v < SEPARABLE_BOUND for v in res.values)


def test_large_squeezing_limits_below_bound():
    res = evaluate_witness(CodeConfig(r=8.0))
    assert res.all_satisfied()
    assert max(res.values) < 0.8


def test_values_non_increasing_in_r():
    prev = None
    for r in (0.0, 0.2, 0.4, 0.8, 1.6):
        vals = evaluate_witness(CodeConfig(r=r)).values
        if prev is not None:
            assert all(v <= p + 1e-12 for v, p in zip(vals, prev))
        prev = vals


def test_each_combination_is_convex_in_its_gain():
    cfg = CodeConfig(r=0.35)
    gains = optimize_gains(cfg)
    slots = {1: (2,), 2: (0, 3), 3: (1, 4), 4: (5,)}
    for idx, gain_slots in slots.items():
        for slot in gain_slots:
            samples = []
            for g in (-1.0, 0.0, 1.0):
                trial = list(gains)
                trial[slot] = g
                samples.append(combination_value(idx, trial, cfg))
            second_diff = samples[0] - 2 * samples[1] + samples[2]
            assert second_diff > 0.0


def test_vertex_beats_grid_scan():
    cfg = CodeConfig(r=R35)
    gains = optimize_gains(cfg)
    slots = {1: (2,), 2: (0, 3), 3: (1, 4), 4: (5,)}
    for idx, gain_slots in slots.items():
        v_opt = combination_value(idx, gains, cfg)
        for slot in gain_slots:
            for g in np.linspace(gains[slot] - 0.8, gains[slot] + 0.8, 161):
                trial = list(gains)
                trial[slot] = float(g)
                assert combination_value(idx, trial, cfg) >= v_opt - 1e-9


def test_witness_fidelity_coherence():
    """Whenever the witness is satisfied the channel-3 fidelity beats r=0."""
    classical = closed_form_output(CodeConfig(r=0.0), 3).fidelity
    for r in (0.2, 0.4, 0.8, 1.6):
        res = evaluate_witness(CodeConfig(r=r))
        if res.all_satisfied():
            assert closed_form_output(CodeConfig(r=r), 3).fidelity > classical


def test_rejects_non_vacuum_input():
    with pytest.raises(ValueError):
        evaluate_witness(CodeConfig(r=0.5, input_kind="squeezed"))
    with pytest.raises(ValueError):
        combination_value(1, [0] * 6, CodeConfig(input_kind="squeezed"))


def test_rejects_a_lossy_code():
    """The witness models the lossless encoded state, so a lossy config is
    an error rather than the lossless values."""
    with pytest.raises(ValueError, match="lossless"):
        evaluate_witness(CodeConfig(r=0.4, channel_loss=0.5))
    with pytest.raises(ValueError, match="lossless"):
        optimize_gains(CodeConfig(channel_loss=(1.0, 1.0, 0.9, 1.0, 1.0)))


def test_combination_index_validation():
    with pytest.raises(ValueError):
        combination_value(5, [0] * 6, CodeConfig())


@pytest.mark.parametrize("r", [0.0, 0.2, R35, 1.6])
def test_batched_combination_value_equals_scalar_calls(r):
    """A (..., 6) batch of gains gives the per-row scalar values, and a single
    gain vector gives a float."""
    cfg = CodeConfig(r=r)
    gains = optimize_gains(cfg)
    rng = np.random.default_rng(15)
    flat = np.asarray(gains) + rng.uniform(-1.0, 1.0, size=(401, 6))
    cube = rng.normal(scale=2.0, size=(3, 7, 6))
    for idx in _TERMS:
        for batch in (flat, cube):
            got = combination_value(idx, batch, cfg)
            assert got.shape == batch.shape[:-1]
            want = [combination_value(idx, row, cfg) for row in batch.reshape(-1, 6)]
            np.testing.assert_allclose(got, np.reshape(want, batch.shape[:-1]),
                                       rtol=1e-14, atol=0.0)
        assert type(combination_value(idx, flat[0], cfg)) is float
    with pytest.raises(ValueError):
        combination_value(5, flat, cfg)
    with pytest.raises(ValueError):
        combination_value(1, flat, CodeConfig(r=r, input_kind="squeezed"))
    for bad in (flat[:, :5], 0.5):
        with pytest.raises(ValueError):
            combination_value(1, bad, cfg)


def _exact_term(forms, cfg, term):
    """Var(base), Cov(base, part) and Var(part) of one witness term on the
    exact encoded forms; part is the gained channel's quadrature."""
    quad, fixed, slot, gained = term

    def form(ch):
        return forms[ch - 1].x if quad == "x" else forms[ch - 1].p

    base = None
    for weight, ch in fixed:
        f = form(ch) if weight > 0 else -form(ch)
        base = f if base is None else base + f
    stats = cfg.r, cfg.input_variances()
    if slot is None:
        return form_variance(base, *stats), 0.0, 0.0
    part = form(gained[1])
    return (form_variance(base, *stats), form_covariance(base, part, *stats),
            form_variance(part, *stats))


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("r", [0.0, 0.2, R35, 1.6, (0.1, 0.9, 0.4, 1.3)])
def test_witness_matches_exact_forms(r, fourier):
    """Combination values at fixed gains and the optimal gains equal their
    evaluation on the exact encoded forms."""
    cfg = CodeConfig(r=r, fourier_mode=fourier)
    forms = encode(fourier=fourier)
    fixed_gains = (0.37, -1.21, 0.88, 2.5, -0.06, 1.13)
    want_gains = [0.0] * 6
    for idx, terms in _TERMS.items():
        want = 0.0
        for term in terms:
            var_b, cov_bm, var_m = _exact_term(forms, cfg, term)
            slot, sign = term[2], (term[3] or (0,))[0]
            g = fixed_gains[slot] if slot is not None else 0.0
            want += var_b + 2.0 * sign * g * cov_bm + g * g * var_m
            if slot is not None:
                want_gains[slot] = -sign * cov_bm / var_m
        assert combination_value(idx, fixed_gains, cfg) == pytest.approx(want, rel=1e-12)
    gains = optimize_gains(cfg)
    np.testing.assert_allclose(gains, want_gains, rtol=1e-12, atol=1e-12)


def test_gain_denominators_stay_away_from_zero():
    """Every gained term's Var(m), the vertex denominator, is at least 3/32
    (reached in float to one ulp) over per-ancilla r in {0, 0.5, MAX_R}^4 and
    a uniform r grid on [0, MAX_R], in both bases: no vacuum-input config
    makes a gain degenerate."""
    configs = [CodeConfig(r=r, fourier_mode=fourier)
               for fourier in (False, True)
               for r in [*itertools.product((0.0, 0.5, MAX_R), repeat=4),
                         *np.linspace(0.0, MAX_R, 501)]]
    smallest = np.inf
    for cfg in configs:
        factor = _encoded_factor(cfg)
        for terms in _TERMS.values():
            for quad, _, slot, gained in terms:
                if slot is not None:
                    part = factor[_index(gained[1], quad)]
                    smallest = min(smallest, float(part @ part))
    assert smallest == pytest.approx(3 / 32, rel=1e-12)


def test_result_serializes():
    doc = evaluate_witness(CodeConfig(r=R35)).to_dict()
    assert set(doc) == {"values", "gains", "satisfied", "bound"}
    assert doc["bound"] == SEPARABLE_BOUND


def test_encoded_factor_is_made_once_per_configuration_and_read_only():
    factor = _encoded_factor(CodeConfig(r=0.4))
    assert _encoded_factor(CodeConfig(r=0.4)) is factor
    assert not factor.flags.writeable
    with pytest.raises(ValueError):
        _encoded_factor(CodeConfig(r=0.4, input_kind="squeezed"))
