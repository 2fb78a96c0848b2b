"""The acceptance gate: every release criterion as an executable check.

Each criterion function raises AssertionError with a diagnostic message on
failure and returns a one-line detail string on success.  ``run_all`` prints
one PASS/FAIL line per criterion; the pytest suite drives the same functions.
"""

from __future__ import annotations

import filecmp
import math
import time
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from . import cli
from . import code as qec
from .code import CodeConfig, closed_form_output, run_rounds
from .errors import ErrorConfig, ErrorLaw
from .exact import ExactScalar, LinearForm, QuadSymbol, TAG_SQUEEZED, sqrt_of
from .gaussian import db_to_r, fidelity_from_moments, variance_to_db
from .network import ENCODER_SPEC, compose, encoder_matrix
from .witness import combination_value, evaluate_witness, optimize_gains

R_35DB = db_to_r(3.5)            # e^{-2r} = 10^{-0.35}

FIDELITY_TOL_VACUUM = 0.06
FIDELITY_TOL_SQUEEZED = 0.07
NOISE_TOL_DB = 0.6
NOISE_PATTERN_TOL = 1e-10
GRID_SCAN_TOL = 1e-9


def criterion_1_matrix_identity() -> str:
    """Factorized network equals the encoder exactly, in under a millisecond."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        equal = compose(ENCODER_SPEC) == encoder_matrix()
        best = min(best, time.perf_counter() - t0)
        assert equal, "factorized network differs from the encoder matrix"
    dev = float(np.abs(compose(ENCODER_SPEC).as_array()
                       - encoder_matrix().as_array()).max())
    assert dev <= 1e-12, f"float view deviates by {dev}"
    assert best < 1e-3, f"compose+equality took {best * 1e3:.3f} ms"
    return f"exact equality, float dev {dev:.1e}, {best * 1e3:.3f} ms"


def criterion_2_immunity() -> str:
    """Output mode carries no channel-1/2 error; channels 1/2 carry no input."""
    enc = qec.encode(fourier=False)
    for ch in (1, 2):
        form = enc[ch - 1]
        for quad_form, quad in ((form.x, "x"), (form.p, "p")):
            coeff = quad_form.coefficient(QuadSymbol.input(quad))
            assert coeff.is_zero(), f"channel {ch} carries the input ({quad})"
    for ch in (1, 2):
        enc = qec.inject_error(enc, ch)
    out = qec.decode(enc)[qec.OUT_POS]
    assert not out.x.has_errors() and not out.p.has_errors(), \
        "output mode contains channel-1/2 error symbols"
    return "exact zero coefficients on both protected channels"


def criterion_3_decode_identities() -> str:
    """Decoded-mode error coefficients and the five correlation identities."""
    half = Fraction(1, 2)
    inv_sqrt2 = ExactScalar(0, half)
    s = {  # expected coefficient of the hit channel's error in each position
        1: {0: inv_sqrt2, 1: sqrt_of(Fraction(9, 24)), 2: ExactScalar(0, Fraction(1, 4)),
            3: ExactScalar(), 4: ExactScalar()},
        2: {0: inv_sqrt2, 1: -sqrt_of(Fraction(9, 24)), 2: ExactScalar(0, Fraction(-1, 4)),
            3: ExactScalar(), 4: ExactScalar()},
        3: {0: ExactScalar(), 1: sqrt_of(Fraction(4, 24)), 2: -inv_sqrt2,
            3: sqrt_of(Fraction(1, 3)), 4: ExactScalar()},
        4: {0: ExactScalar(), 1: sqrt_of(Fraction(1, 24)), 2: ExactScalar(0, Fraction(-1, 4)),
            3: -sqrt_of(Fraction(1, 3)), 4: inv_sqrt2},
        5: {0: ExactScalar(), 1: -sqrt_of(Fraction(1, 24)), 2: ExactScalar(0, Fraction(1, 4)),
            3: sqrt_of(Fraction(1, 3)), 4: inv_sqrt2},
    }
    enc = qec.encode(fourier=False)
    hits = {ch: qec.decode(qec.inject_error(enc, ch)) for ch in range(1, 6)}
    for ch, expected in s.items():
        forms = hits[ch]
        for pos, coeff in expected.items():
            assert forms[pos].x.coefficient(QuadSymbol.error(ch, "x")) == coeff, \
                f"error coefficient mismatch: channel {ch}, position {pos}"
    # stripping the error symbols must leave exactly the source modes
    sources = qec.source_mode_forms(fourier=False)
    for decoded in hits.values():
        for pos in range(5):
            assert decoded[pos].x.drop_errors() == sources[pos].x
            assert decoded[pos].p.drop_errors() == sources[pos].p

    x = [m.x for m in enc]
    p = [m.p for m in enc]
    sq2 = ExactScalar(0, 1)
    anc = QuadSymbol.ancilla
    identities = [
        (x[0] + x[1], LinearForm({anc(1, "x", TAG_SQUEEZED): sq2})),
        (p[1] - p[0] - p[2],
         LinearForm({anc(2, "p", TAG_SQUEEZED): -2 * sq2 / sqrt_of(3),
                     QuadSymbol.input("p"): -1 / sqrt_of(3)})),
        (x[2] + x[1] + x[3],
         LinearForm({anc(1, "x", TAG_SQUEEZED): 1 / sq2,
                     anc(3, "x", TAG_SQUEEZED): -2 / sq2,
                     anc(4, "x", TAG_SQUEEZED): 1 / sq2})),
        (p[3] - p[2] - p[4], LinearForm({QuadSymbol.input("p"): -sqrt_of(3)})),
        (x[3] + x[4], LinearForm({anc(4, "x", TAG_SQUEEZED): sq2})),
    ]
    for k, (lhs, rhs) in enumerate(identities, 1):
        assert lhs == rhs, f"correlation identity {k} fails"
    return "all decode coefficients and correlation identities exact"


def criterion_4_noise_formulas() -> str:
    """Numeric pipeline variances match V_in + {2/3, 2, 8}(1/4)e^{-2r} to 1e-10."""
    worst = 0.0
    for r in (0.0, 0.403, 1.0):
        q = math.exp(-2.0 * r)
        for input_kind in ("vacuum", "squeezed"):
            cfg = CodeConfig(r=r, input_kind=input_kind)
            v_x_in, v_p_in = cfg.input_variances()
            for ch in (3, 4, 5):
                cov = closed_form_output(cfg, ch)[1]
                p_units = 2.0 if ch == 3 else 8.0
                expect_x = v_x_in + (2.0 / 3.0) * 0.25 * q
                expect_p = v_p_in + p_units * 0.25 * q
                worst = max(worst, abs(cov[0, 0] - expect_x), abs(cov[1, 1] - expect_p))
    assert worst <= NOISE_PATTERN_TOL, f"noise pattern deviates by {worst:.2e}"
    return f"max deviation {worst:.1e}"


_THEORY_FIDELITY = {
    ("vacuum", "coherent"): (1.0, 1.0, 0.612, 0.387, 0.387),
    ("vacuum", "squeezed"): (1.0, 1.0, 0.776, 0.559, 0.559),
}


def criterion_5_fidelity_table() -> str:
    """Theory fidelities agree with the measured table within the stated slack."""
    t0 = time.perf_counter()
    worst = 0.0
    for input_kind in ("vacuum", "squeezed"):
        tol = FIDELITY_TOL_VACUUM if input_kind == "vacuum" else FIDELITY_TOL_SQUEEZED
        for ancilla, r in (("coherent", 0.0), ("squeezed", R_35DB)):
            cfg = CodeConfig(r=r, input_kind=input_kind)
            for ch in range(1, 6):
                theory = fidelity_from_moments(*cfg.input_state(), *closed_form_output(cfg, ch))
                measured = cli.MEASURED_FIDELITY[(input_kind, ancilla)][ch]
                gap = abs(theory - measured)
                worst = max(worst, gap)
                assert gap <= tol, (
                    f"{input_kind}/{ancilla} channel {ch}: theory "
                    f"{theory:.3f} vs measured {measured} (gap {gap:.3f})")
                if (input_kind, ancilla) in _THEORY_FIDELITY:
                    pin = _THEORY_FIDELITY[(input_kind, ancilla)][ch - 1]
                    assert abs(theory - pin) < 1e-3, \
                        f"theory value drifted: {theory:.4f} vs pinned {pin}"
    elapsed = time.perf_counter() - t0
    # the squeezed-input headline value: channel 3 with squeezed ancillas
    head_cfg = CodeConfig(r=R_35DB, input_kind="squeezed")
    head = fidelity_from_moments(*head_cfg.input_state(), *closed_form_output(head_cfg, 3))
    assert abs(head - 0.860) < 1e-3
    assert elapsed < 1.0, f"fidelity table took {elapsed:.2f} s"
    return f"worst theory-vs-measured gap {worst:.3f}, {elapsed * 1e3:.0f} ms"


def criterion_6_noise_power() -> str:
    """Theory noise powers agree with the cited measured entries within 0.6 dB."""
    cases = [
        # (channel, quad, ancilla, r): the cited comparisons
        (4, "p", "coherent", 0.0),
        (3, "x", "squeezed", R_35DB),
        (5, "x", "squeezed", R_35DB),
    ]
    gaps = []
    for ch, quad, ancilla, r in cases:
        measured = cli.MEASURED_NOISE_DB[(ch, quad, ancilla, "vacuum")][0]
        k = "xp".index(quad)
        theory = variance_to_db(float(closed_form_output(CodeConfig(r=r), ch)[1][k, k]))
        gap = abs(theory - measured)
        gaps.append(gap)
        assert gap <= NOISE_TOL_DB, (
            f"channel {ch} {quad}: theory {theory:.2f} dB vs measured "
            f"{measured} dB (gap {gap:.2f})")
    pinned = variance_to_db(float(closed_form_output(CodeConfig(r=0.0), 4)[1][1, 1]))
    assert abs(pinned - 9.54) < 5e-3, f"theory 9.54 dB drifted: {pinned:.3f}"
    pinned = variance_to_db(float(closed_form_output(CodeConfig(r=R_35DB), 3)[1][0, 0]))
    assert abs(pinned - 1.13) < 5e-3, f"theory 1.13 dB drifted: {pinned:.3f}"
    return "gaps " + ", ".join(f"{g:.2f} dB" for g in gaps)


def criterion_7_perfect_squeezing() -> str:
    """Near-perfect ancilla squeezing sends every fidelity above 0.999."""
    worst = 1.0
    for input_kind in ("vacuum", "squeezed"):
        cfg = CodeConfig(r=10.0, input_kind=input_kind)
        for ch in range(1, 6):
            f = fidelity_from_moments(*cfg.input_state(), *closed_form_output(cfg, ch))
            worst = min(worst, f)
            assert f > 0.999, f"{input_kind} channel {ch}: F={f:.6f}"
    return f"minimum fidelity {worst:.6f}"


def criterion_8_classifier() -> str:
    """Seeded rounds localize every strong single error; occurrence obeys gamma."""
    t0 = time.perf_counter()
    cfg = CodeConfig(r=R_35DB)
    amp = 10.0 * math.sqrt(0.25 * math.exp(-2.0 * R_35DB))
    window = 512
    pure_p_ok = 0
    for ch in range(1, 6):
        seed = 1000 + ch
        mix = [(ErrorLaw("general", amp), 500),
               (ErrorLaw("x", amp), 250),
               (ErrorLaw("p", amp), 250)]
        for law, n in mix:
            out = run_rounds(cfg, ErrorConfig(1.0, ch, law),
                             np.random.default_rng(seed), n, window)
            bad = np.flatnonzero(~out.matched)
            assert not len(bad), (
                f"channel {ch} {law.kind}: {len(bad)}/{n} misclassified "
                f"(first: {qec.CODE_NAMES[out.final_codes[bad[0]]]})")
            if law.kind == "p":
                assert out.fourier_used.all(), \
                    f"channel {ch}: pure-p rounds skipped the rotated rerun"
                pure_p_ok += n
    gamma = 0.3
    out = run_rounds(cfg, ErrorConfig(gamma, "uniform", ErrorLaw("general", amp)),
                     np.random.default_rng(77), 2000, 256)
    frac = np.count_nonzero(out.channels) / len(out.channels)
    ci = 2.576 * math.sqrt(gamma * (1.0 - gamma) / 2000)
    assert abs(frac - gamma) <= ci, \
        f"occurrence {frac:.3f} outside 99% CI {gamma}±{ci:.3f}"
    assert out.matched.all(), "mixture rounds misclassified"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"classifier run took {elapsed:.1f} s"
    return (f"5000/5000 localized ({pure_p_ok} via rotated rerun), "
            f"occurrence {frac:.3f} in CI, {elapsed:.1f} s")


def criterion_9_mc_equivalence() -> str:
    """Empirical corrected-output moments match closed form within 5 SE at 1e5 samples."""
    cfg = CodeConfig(r=R_35DB)
    amp = 10.0 * math.sqrt(0.25 * math.exp(-2.0 * R_35DB))
    rounds, window = 200, 500
    n = rounds * window
    worst = 0.0
    for ch in range(1, 6):
        out = run_rounds(cfg, ErrorConfig(1.0, ch, ErrorLaw("general", amp)),
                         np.random.default_rng(9000 + ch), rounds, window)
        assert (out.final_codes == ch).all()
        mean, cov = qec.pooled_moments(out, ch)
        theory_cov = closed_form_output(cfg, ch)[1]
        for k in (0, 1):
            v = theory_cov[k, k]
            se_mean = math.sqrt(v / n)
            se_var = v * math.sqrt(2.0 / (n - 1))
            dev_mean = abs(mean[k]) / se_mean
            dev_var = abs(cov[k, k] - v) / se_var
            worst = max(worst, dev_mean, dev_var)
            assert dev_mean <= 5.0, f"channel {ch} mean[{k}] off by {dev_mean:.1f} SE"
            assert dev_var <= 5.0, f"channel {ch} var[{k}] off by {dev_var:.1f} SE"
    return f"worst deviation {worst:.2f} SE over {n} samples per channel"


def criterion_10_witness() -> str:
    """Optimized witness: satisfied at the working squeezing, monotone, optimal."""
    res = evaluate_witness(CodeConfig(r=R_35DB))
    assert res.all_satisfied(), f"witness values {res.values} not all below 1"
    prev = None
    for r in (0.0, 0.2, 0.4, 0.8, 1.6):
        vals = evaluate_witness(CodeConfig(r=r)).values
        if prev is not None:
            assert all(v <= p + 1e-12 for v, p in zip(vals, prev)), \
                f"witness value increased between r grid points at r={r}"
        prev = vals
    cfg = CodeConfig(r=R_35DB)
    gains = optimize_gains(cfg)
    slots = {1: (2,), 2: (0, 3), 3: (1, 4), 4: (5,)}
    for idx, gain_slots in slots.items():
        v_opt = combination_value(idx, gains, cfg)
        for slot in gain_slots:
            trials = np.tile(gains, (401, 1))
            trials[:, slot] = np.linspace(gains[slot] - 1.0, gains[slot] + 1.0, 401)
            assert (combination_value(idx, trials, cfg) >= v_opt - GRID_SCAN_TOL).all(), \
                f"grid scan beat the closed-form gain g{slot + 1}"
    return (f"values at working squeezing: "
            + ", ".join(f"{v:.3f}" for v in res.values))


def criterion_11_determinism() -> str:
    """Identical seed and config give byte-identical table2 outputs."""
    doc = {"trials": 8, "window": 64, "seed": 42}
    with TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        for out in (a, b):
            cfg = cli.parse_config(dict(doc))
            cli.run_experiment("table2", cfg, out)
        for name in ("table2.csv", "table2.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False), \
                f"{name} differs between identical runs"
    return "table2.csv and table2.json byte-identical across runs"


CRITERIA = [
    ("1 matrix identity", criterion_1_matrix_identity),
    ("2 immunity theorem", criterion_2_immunity),
    ("3 decode identities", criterion_3_decode_identities),
    ("4 output noise formulas", criterion_4_noise_formulas),
    ("5 fidelity reproduction", criterion_5_fidelity_table),
    ("6 noise-power reproduction", criterion_6_noise_power),
    ("7 perfect-squeezing limit", criterion_7_perfect_squeezing),
    ("8 classifier localization", criterion_8_classifier),
    ("9 Monte-Carlo/closed-form equivalence", criterion_9_mc_equivalence),
    ("10 witness optimization", criterion_10_witness),
    ("11 determinism", criterion_11_determinism),
]


def run_all(quiet: bool = False) -> bool:
    ok = True
    for name, fn in CRITERIA:
        try:
            detail = fn()
            if not quiet:
                print(f"PASS  {name}: {detail}")
        except AssertionError as exc:
            ok = False
            print(f"FAIL  {name}: {exc}")
        except Exception as exc:
            ok = False
            print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    return ok
