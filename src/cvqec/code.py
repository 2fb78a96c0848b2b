"""The five-channel error-correction pipeline.

Encode an input mode with four squeezed ancillas, inject a stochastic
displacement on one channel, decode with the inverse network, recognize the
error location from the homodyne syndrome pattern, and repair the output by
feedforward.  The exact quadrature forms (``encode``/``inject_error``/
``decode``) verify the algebra and the feedforward gains; ``PipelineMaps``,
the linear maps of one encode/loss/decode pass onto the readouts, is the only
numeric model and also models channel loss.  Through one feedforward table,
``PLAN_TABLE``, it drives the Monte-Carlo rounds and gives the closed-form
output moments.

Detector/mode layout after decoding (positions 0..4): D1, D2, D3, output, D4.
In the standard configuration D1/D3/D4 read x and D2 reads p; running with
Fourier-rotated ancillas swaps every measurement basis, which localizes
displacements that live purely in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from fractions import Fraction

import numpy as np

from . import gaussian
from .errors import ErrorConfig, ErrorEvent, ErrorLaw, MixtureState
from .exact import (ExactScalar, LinearForm, ModeForm, QuadSymbol, SQRT2,
                    TAG_ANTISQUEEZED, TAG_SQUEEZED, form_variance,
                    mode_forms_apply_matrix, sqrt_of)
from .gaussian import GaussianState, VACUUM_VAR, fidelity_from_moments
from .network import encoder_matrix, inverse, lift_to_symplectic

INPUT_POS = 3
ANCILLA_ORIENTATIONS = ("amplitude", "phase", "amplitude", "amplitude")
OUT_POS = 3                               # decoded position of the output mode
DETECTORS = ("D1", "D2", "D3", "D4")
DETECTOR_POS = {"D1": 0, "D2": 1, "D3": 2, "D4": 4}
_STANDARD_BASIS = {"D1": "x", "D2": "p", "D3": "x", "D4": "x"}

MIN_SYNDROME_WINDOW = 30
FLUCTUATION_FACTOR = 3.0   # flag when excess variance exceeds 3x the baseline


def measured_quad(detector: str, fourier: bool) -> str:
    q = _STANDARD_BASIS[detector]
    if fourier:
        return "p" if q == "x" else "x"
    return q


def readout_rows(fourier: bool) -> list[int]:
    """Decoded-quadrature indices (interleaved x, p) of the readouts (D1..D4,
    out_x, out_p)."""
    return ([2 * DETECTOR_POS[det] + (measured_quad(det, fourier) == "p") for det in DETECTORS]
            + [2 * OUT_POS, 2 * OUT_POS + 1])


class CorrectionUnavailable(RuntimeError):
    """No feedforward plan exists (ambiguous or unclassifiable syndrome)."""


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CodeConfig:
    """Squeezing, input choice and optional channel loss for one code instance."""

    r: float | tuple[float, float, float, float] = 0.0
    input_kind: str = "vacuum"                 # "vacuum" | "squeezed"
    input_squeeze_db: float = 3.5
    input_antisqueeze_db: float = 8.9
    fourier_mode: bool = False
    channel_loss: float | tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("r", "channel_loss"):       # lists would make the config unhashable
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if not all(math.isfinite(v) and v >= 0 for v in self.r_values):
            raise ValueError("squeezing parameter must be finite and non-negative")
        if not (math.isfinite(self.input_squeeze_db)
                and math.isfinite(self.input_antisqueeze_db)):
            raise ValueError("input squeezing in dB must be finite")
        if self.input_kind not in ("vacuum", "squeezed"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        if any(not 0.0 <= eta <= 1.0 for eta in self.loss_values):
            raise ValueError("channel transmissivity must lie in [0, 1]")

    @property
    def r_values(self) -> tuple[float, float, float, float]:
        if isinstance(self.r, tuple):
            if len(self.r) != 4:
                raise ValueError("per-ancilla squeezing needs 4 values")
            return tuple(float(v) for v in self.r)
        return (float(self.r),) * 4

    @property
    def loss_values(self) -> tuple[float, float, float, float, float]:
        if self.channel_loss is None:
            return (1.0,) * 5
        if isinstance(self.channel_loss, tuple):
            if len(self.channel_loss) != 5:
                raise ValueError("per-channel loss needs 5 values")
            return tuple(float(v) for v in self.channel_loss)
        return (float(self.channel_loss),) * 5

    @property
    def has_loss(self) -> bool:
        return any(eta < 1.0 for eta in self.loss_values)

    def input_variances(self) -> tuple[float, float]:
        if self.input_kind == "vacuum":
            return (VACUUM_VAR, VACUUM_VAR)
        v_sq = VACUUM_VAR * 10.0 ** (-self.input_squeeze_db / 10.0)
        v_anti = VACUUM_VAR * 10.0 ** (self.input_antisqueeze_db / 10.0)
        return (v_anti, v_sq)   # phase-squeezed input: p is the quiet quadrature

    def input_state(self) -> GaussianState:
        v_x, v_p = self.input_variances()
        return GaussianState(1, np.zeros(2), np.diag([v_x, v_p]))


def coherent_ancilla_config(cfg: CodeConfig) -> CodeConfig:
    """The classical-limit twin of a configuration: unsqueezed ancillas."""
    return replace(cfg, r=0.0)


# --------------------------------------------------------------------------
# exact encoding and decoding


def source_mode_forms(cfg: CodeConfig) -> list[ModeForm]:
    """Quadrature forms of (a1, a2, a3, a_in, a4) before the network."""
    modes: list[ModeForm] = []
    anc = 0
    for pos in range(5):
        if pos == INPUT_POS:
            modes.append(ModeForm(LinearForm.of(QuadSymbol.input("x")),
                                  LinearForm.of(QuadSymbol.input("p"))))
            continue
        anc += 1
        if ANCILLA_ORIENTATIONS[anc - 1] == "amplitude":
            x_tag, p_tag = TAG_SQUEEZED, TAG_ANTISQUEEZED
        else:
            x_tag, p_tag = TAG_ANTISQUEEZED, TAG_SQUEEZED
        form = ModeForm(LinearForm.of(QuadSymbol.ancilla(anc, "x", x_tag)),
                        LinearForm.of(QuadSymbol.ancilla(anc, "p", p_tag)))
        if cfg.fourier_mode:
            form = form.fourier()
        modes.append(form)
    return modes


def error_mode_form(channel: int) -> ModeForm:
    return ModeForm(LinearForm.of(QuadSymbol.error(channel, "x")),
                    LinearForm.of(QuadSymbol.error(channel, "p")))


@dataclass(frozen=True)
class EncodedState:
    """The exact quadrature forms of the five channel modes."""

    forms: tuple[ModeForm, ...]
    cfg: CodeConfig
    events: tuple[ErrorEvent, ...] = ()


def encode(cfg: CodeConfig) -> EncodedState:
    """Runs the encoder on the input and ancilla modes."""
    forms = mode_forms_apply_matrix(source_mode_forms(cfg), encoder_matrix().rows)
    return EncodedState(tuple(forms), cfg)


def inject_error(state: EncodedState, event: ErrorEvent) -> EncodedState:
    """Adds the error symbols of one channel's displacement to its mode."""
    forms = list(state.forms)
    if event.occurred:
        forms[event.channel - 1] = forms[event.channel - 1] + error_mode_form(event.channel)
    return EncodedState(tuple(forms), state.cfg, state.events + (event,))


@dataclass(frozen=True)
class DecodedState:
    """Exact forms of the modes after the inverse network: (D1, D2, D3,
    output, D4)."""

    forms: tuple[ModeForm, ...]
    cfg: CodeConfig
    events: tuple[ErrorEvent, ...] = ()

    @property
    def out_form(self) -> ModeForm:
        return self.forms[OUT_POS]

    def readout_form(self, detector: str) -> LinearForm:
        """The quadrature form actually measured by one detector."""
        form = self.forms[DETECTOR_POS[detector]]
        return form.x if measured_quad(detector, self.cfg.fourier_mode) == "x" else form.p


def decode(state: EncodedState) -> DecodedState:
    """Applies the inverse network to the exact forms.

    The forms describe the lossless algebra; channel loss is modelled by
    ``PipelineMaps`` only.
    """
    forms = mode_forms_apply_matrix(state.forms, inverse(encoder_matrix()).rows)
    return DecodedState(tuple(forms), state.cfg, state.events)


# --------------------------------------------------------------------------
# syndrome measurement and classification

IN_PHASE = "in-phase"
OUT_OF_PHASE = "out-of-phase"
NO_RELATION = "n/a"


@dataclass(frozen=True)
class SyndromeRecord:
    """Detector variances, fluctuation flags and phase relations."""

    mode: str                                  # "standard" | "fourier"
    variances: dict[str, float]
    baselines: dict[str, float]
    flags: dict[str, bool]
    relation_13: str
    relation_34: str


def _relation_from_sign(value: float) -> str:
    return IN_PHASE if value > 0 else OUT_OF_PHASE


def syndrome_closed_form(decoded: DecodedState) -> SyndromeRecord:
    """Exact-coefficient syndrome record (no sampling, lossless algebra).

    A detector is flagged iff its measured quadrature carries a non-zero exact
    coefficient on an active error quadrature; phase relations come from the
    signs of the exact coefficients.  An event without a law is a constant
    displacement: it shifts readout means, adds no variance and raises no flag.
    """
    fourier = decoded.cfg.fourier_mode
    variances, baselines, flags = {}, {}, {}
    r = decoded.cfg.r_values
    input_var = decoded.cfg.input_variances()
    coeffs: dict[str, float] = {det: 0.0 for det in DETECTORS}
    for det in DETECTORS:
        form = decoded.readout_form(det)
        quad = measured_quad(det, fourier)
        base = form_variance(form.drop_errors(), r, input_var)
        excess = 0.0
        for event in decoded.events:
            if not event.occurred or event.law is None:
                continue
            coeff = form.coefficient(QuadSymbol.error(event.channel, quad))
            if quad in event.law.active_quadratures() and not coeff.is_zero():
                coeffs[det] = float(coeff)
                var = event.law.quadrature_variances()
                excess += float(coeff) ** 2 * var[0 if quad == "x" else 1]
        baselines[det] = base
        variances[det] = base + excess
        flags[det] = excess > 0.0
    relation_13 = relation_34 = NO_RELATION
    if flags["D1"] and flags["D3"]:
        relation_13 = _relation_from_sign(coeffs["D1"] * coeffs["D3"])
    if flags["D3"] and flags["D4"]:
        relation_34 = _relation_from_sign(coeffs["D3"] * coeffs["D4"])
    return SyndromeRecord(
        mode="fourier" if fourier else "standard",
        variances=variances, baselines=baselines, flags=flags,
        relation_13=relation_13, relation_34=relation_34)


NO_ERROR = "no-error"
CHANNEL = "channel"
AMBIGUOUS_P = "ambiguous-p"
UNCLASSIFIABLE = "unclassifiable"


@dataclass(frozen=True)
class ClassificationResult:
    kind: str
    channel: int | None = None

    def __str__(self) -> str:
        return f"channel-{self.channel}" if self.kind == CHANNEL else self.kind


# Round codes: 1..5 name the located channel.
_CODE_NO_ERROR = 0
_CODE_AMBIGUOUS = 6
_CODE_UNCLASSIFIABLE = 7

_CODE_TO_RESULT = {
    _CODE_NO_ERROR: ClassificationResult(NO_ERROR),
    _CODE_AMBIGUOUS: ClassificationResult(AMBIGUOUS_P),
    _CODE_UNCLASSIFIABLE: ClassificationResult(UNCLASSIFIABLE),
    **{k: ClassificationResult(CHANNEL, k) for k in range(1, 6)},
}

# Sign standing for a phase relation; NaN compares false either way, so a
# flagged pair without a relation is unclassifiable.
_RELATION_SIGN = {IN_PHASE: 1.0, OUT_OF_PHASE: -1.0, NO_RELATION: math.nan}


def _classify_codes(flags: np.ndarray, cc13: np.ndarray, cc34: np.ndarray) -> np.ndarray:
    """Round codes from (n, 4) fluctuation flags and the D1-D3 / D3-D4
    cross-correlations, matched against the syndrome table."""
    f1, f2, f3, f4 = flags.T
    codes = np.full(len(flags), _CODE_UNCLASSIFIABLE, dtype=np.int8)
    codes[~(f1 | f2 | f3 | f4)] = _CODE_NO_ERROR
    m = f1 & f3 & ~f4
    codes[m & (cc13 > 0)] = 1
    codes[m & (cc13 <= 0)] = 2
    codes[~f1 & f3 & ~f4] = 3
    m = ~f1 & f3 & f4
    codes[m & (cc34 > 0)] = 5
    codes[m & (cc34 <= 0)] = 4
    codes[~f1 & ~f3 & ~f4 & f2] = _CODE_AMBIGUOUS
    return codes


def classify(rec: SyndromeRecord) -> ClassificationResult:
    """Pattern-matches the fluctuation flags against the syndrome table."""
    code = _classify_codes(np.array([[rec.flags[d] for d in DETECTORS]]),
                           np.array([_RELATION_SIGN[rec.relation_13]]),
                           np.array([_RELATION_SIGN[rec.relation_34]]))[0]
    return _CODE_TO_RESULT[int(code)]


# --------------------------------------------------------------------------
# feedforward plans

_G23 = sqrt_of(Fraction(2, 3))
_TWO_SQRT2 = ExactScalar(0, 2)

# (x feedforward, p feedforward) per channel; each entry is (detector, gain).
STANDARD_PLANS = {
    3: (("D3", _G23), ("D2", -SQRT2)),
    4: (("D4", _G23), ("D2", _TWO_SQRT2)),
    5: (("D4", -_G23), ("D2", _TWO_SQRT2)),
}
# With Fourier-rotated ancillas the roles of the two output quadratures swap:
# D2 (now reading x) repairs x and D3/D4 (now reading p) repair p.
FOURIER_PLANS = {
    3: (("D2", -SQRT2), ("D3", _G23)),
    4: (("D2", _TWO_SQRT2), ("D4", _G23)),
    5: (("D2", _TWO_SQRT2), ("D4", -_G23)),
}


@dataclass(frozen=True)
class CorrectionPlan:
    """Feedforward gains: readout * gain is added to the output quadrature."""

    x_ff: tuple[str, ExactScalar] | None = None
    p_ff: tuple[str, ExactScalar] | None = None
    fourier: bool = False

    def is_zero(self) -> bool:
        return self.x_ff is None and self.p_ff is None


ZERO_PLAN = CorrectionPlan()


def correction_plan(result: ClassificationResult, fourier: bool = False) -> CorrectionPlan:
    """Feedforward plan for a definite classification.

    Raises:
        CorrectionUnavailable: for ambiguous or unclassifiable results; the
            caller should rerun with rotated ancillas or give up.
    """
    if result.kind == NO_ERROR or (result.kind == CHANNEL and result.channel in (1, 2)):
        return replace(ZERO_PLAN, fourier=fourier)
    if result.kind == CHANNEL:
        x_ff, p_ff = (FOURIER_PLANS if fourier else STANDARD_PLANS)[result.channel]
        return CorrectionPlan(x_ff, p_ff, fourier)
    raise CorrectionUnavailable(f"no feedforward plan for {result}")


def plan_matrix(plan: CorrectionPlan) -> np.ndarray:
    """2x6 linear map from the readouts (D1..D4, out_x, out_p) to the
    corrected output quadratures: each readout times its gain is added."""
    rows = np.zeros((2, 6))
    rows[0, 4] = rows[1, 5] = 1.0
    for row, ff in ((0, plan.x_ff), (1, plan.p_ff)):
        if ff is not None:
            det, gain = ff
            rows[row, DETECTORS.index(det)] += float(gain)
    return rows


# plan_matrix of every round code, indexed [fourier, code], for the round engine
# and the closed form; a code without a plan leaves the output as it is.
PLAN_TABLE = np.array([[plan_matrix(CorrectionPlan(*plans.get(code, (None, None))))
                        for code in range(len(_CODE_TO_RESULT))]
                       for plans in (STANDARD_PLANS, FOURIER_PLANS)])
PLAN_TABLE.setflags(write=False)


def derive_correction_plan(channel: int, fourier: bool = False) -> CorrectionPlan:
    """Derives the feedforward plan symbolically by requiring exact cancellation.

    For each output quadrature the candidate detectors are those whose measured
    quadrature carries the error; the one with the largest coupling is chosen
    (smallest gain, hence least added ancilla noise) and the gain solves
    out_coeff + gain * readout_coeff = 0 exactly.
    """
    if channel in (1, 2):
        return replace(ZERO_PLAN, fourier=fourier)
    cfg = CodeConfig(r=0.0, fourier_mode=fourier)
    decoded = decode(inject_error(encode(cfg), ErrorEvent(True, channel)))
    ffs = {}
    for quad in ("x", "p"):
        out_form = decoded.out_form.x if quad == "x" else decoded.out_form.p
        alpha = out_form.coefficient(QuadSymbol.error(channel, quad))
        best = None
        for det in DETECTORS:
            if measured_quad(det, fourier) != quad:
                continue
            beta = decoded.readout_form(det).coefficient(QuadSymbol.error(channel, quad))
            if beta.is_zero():
                continue
            if best is None or abs(float(beta)) > abs(float(best[1])):
                best = (det, beta)
        if best is None:
            raise CorrectionUnavailable(
                f"no detector sees the channel-{channel} error in {quad}")
        det, beta = best
        ffs[quad] = (det, -(alpha / beta))
    return CorrectionPlan(ffs["x"], ffs["p"], fourier)


# --------------------------------------------------------------------------
# applying the correction


def apply_correction(decoded: DecodedState, plan: CorrectionPlan) -> ModeForm:
    """The exact forms of the output mode with the gained readouts added;
    the error symbols cancel for a correct plan."""
    x_form, p_form = decoded.out_form.x, decoded.out_form.p
    if plan.x_ff is not None:
        det, gain = plan.x_ff
        x_form = x_form + decoded.readout_form(det).scaled(gain)
    if plan.p_ff is not None:
        det, gain = plan.p_ff
        p_form = p_form + decoded.readout_form(det).scaled(gain)
    return ModeForm(x_form, p_form)


# --------------------------------------------------------------------------
# closed-form pipeline moments (no sampling)


@cache
def _network_symplectics(fourier: bool) -> tuple[np.ndarray, np.ndarray]:
    """Encoder (with the ancillas' Fourier rotation when ``fourier``) and
    decoder as 10x10 symplectic matrices, lifted from the exact network once
    per flag and read-only."""
    u = encoder_matrix()
    flags = [pos != INPUT_POS for pos in range(5)] if fourier else None
    pair = (lift_to_symplectic(u, flags).S, lift_to_symplectic(inverse(u)).S)
    for s in pair:
        s.setflags(write=False)
    return pair


def _source_sigma(cfg: CodeConfig) -> np.ndarray:
    """Standard deviations of the independent source quadratures, interleaved
    (x, p) of (a1, a2, a3, a_in, a4): the input's and each ancilla's quiet
    and loud quadrature."""
    sigma = np.empty(10)
    v_x, v_p = cfg.input_variances()
    anc = 0
    for pos in range(5):
        if pos == INPUT_POS:
            sigma[2 * pos], sigma[2 * pos + 1] = math.sqrt(v_x), math.sqrt(v_p)
            continue
        r_m = cfg.r_values[anc]
        quiet = VACUUM_VAR * math.exp(-2.0 * r_m)
        loud = VACUUM_VAR * math.exp(2.0 * r_m)
        if ANCILLA_ORIENTATIONS[anc] == "amplitude":
            sigma[2 * pos], sigma[2 * pos + 1] = math.sqrt(quiet), math.sqrt(loud)
        else:
            sigma[2 * pos], sigma[2 * pos + 1] = math.sqrt(loud), math.sqrt(quiet)
        anc += 1
    return sigma


class PipelineMaps:
    """Precomputed linear maps of one encode/loss/decode pass, on the readouts
    (D1..D4, out_x, out_p).

    The readouts are ``noise`` times standard normals plus ``err_readout``
    times the per-channel displacements (dx, dp interleaved).  ``noise`` is
    ``mix``, the ten independent source quadratures through the network,
    joined by ``vac``, the loss vacua, when a channel is lossy.
    ``baselines`` is the diagonal of the 6x6 readout covariance, and
    ``readout_factor`` F, made on first use, gives the covariance as F F^T.
    """

    def __init__(self, cfg: CodeConfig, fourier: bool):
        s_enc, s_dec = _network_symplectics(fourier)
        eta = np.repeat(np.sqrt(cfg.loss_values), 2)
        rows = readout_rows(fourier)
        self.err_readout = s_dec[rows] * eta
        self.mix = self.noise = (s_dec @ (eta[:, None] * s_enc))[rows] * _source_sigma(cfg)
        self.vac = None
        if cfg.has_loss:
            self.vac = s_dec[rows] * np.sqrt(1.0 - eta ** 2) * math.sqrt(VACUUM_VAR)
            self.noise = np.hstack([self.mix, self.vac])
        self.baselines = np.einsum("ij,ij->i", self.noise, self.noise)

    @cached_property
    def readout_factor(self) -> np.ndarray:
        """The transposed R of a QR factorization of the stacked noise maps.
        The covariance, whose quiet readouts lie below the rounding error of
        its loud ones under extreme squeezing, is never formed, and a
        singular covariance is safe."""
        return np.linalg.qr(self.noise.T, mode="r").T


@dataclass(frozen=True)
class OutputStats:
    """Closed-form output moments and the resulting fidelity."""

    mean: np.ndarray
    cov: np.ndarray
    fidelity: float

    @property
    def V_x(self) -> float:
        return float(self.cov[0, 0])

    @property
    def V_p(self) -> float:
        return float(self.cov[1, 1])

    def noise_db(self, quad: str) -> float:
        return gaussian.variance_to_db(self.V_x if quad == "x" else self.V_p)


def closed_form_output(cfg: CodeConfig, channel: int | None, corrected: bool = True,
                       displacement: tuple[float, float] = (0.0, 0.0),
                       extra_error_var: tuple[float, float] = (0.0, 0.0),
                       fourier: bool | None = None) -> OutputStats:
    """Output moments of one branch of the round, computed without sampling
    from ``PipelineMaps`` and the round engine's ``PLAN_TABLE``.

    Args:
        cfg: code configuration.
        channel: hit channel, or None for the error-free branch.
        corrected: apply the channel's feedforward plan (channels 3..5).
        displacement: the branch's fixed displacement (dx, dp).
        extra_error_var: additional displacement variance per quadrature
            (Gaussian-shaped laws).
        fourier: override the measurement configuration (defaults to the
            config's mode).
    """
    fourier = cfg.fourier_mode if fourier is None else fourier
    maps = PipelineMaps(cfg, fourier)
    plan = PLAN_TABLE[int(fourier), channel if corrected and channel else _CODE_NO_ERROR]
    noise = plan @ maps.noise
    cov = noise @ noise.T
    mean = np.zeros(2)
    if channel is not None:
        err = plan @ maps.err_readout[:, 2 * channel - 2:2 * channel]      # (2, 2)
        mean = err @ np.asarray(displacement, dtype=float)
        cov = cov + err @ np.diag(extra_error_var) @ err.T
    inp = cfg.input_state()
    fid = fidelity_from_moments(inp.mean, inp.cov, mean, cov)
    return OutputStats(mean=mean, cov=cov, fidelity=fid)


def output_mixture(cfg: CodeConfig, error_cfg: ErrorConfig,
                   corrected: bool = True) -> MixtureState:
    """The output mode over a round's branches, assuming correct
    classification: 1 - gamma on the no-error branch, gamma shared by the
    channels of ``error_cfg``'s policy.  The feedforward cancels a
    displacement exactly at any loss, so a corrected branch is one
    component; an uncorrected one splits over the law's branch components."""
    gamma = error_cfg.gamma
    channels = range(1, 6) if error_cfg.channel == "uniform" else (error_cfg.channel,)
    parts = ([(1.0, 0.0, 0.0, (0.0, 0.0))] if corrected
             else error_cfg.law.branch_components())
    branches = [(1.0 - gamma, closed_form_output(cfg, None))] if gamma < 1.0 else []
    if gamma > 0.0:
        branches += [(gamma / len(channels) * w,
                      closed_form_output(cfg, ch, corrected, (dx, dp), extra))
                     for ch in channels for w, dx, dp, extra in parts]
    return MixtureState(tuple(w for w, _ in branches),
                        tuple(tuple(s.mean) for _, s in branches),
                        tuple(tuple(map(tuple, s.cov)) for _, s in branches))


# --------------------------------------------------------------------------
# full correction rounds


class _PassData:
    """The syndrome of one batched pass, reduced from every round's readout
    mean 6-vector and centred 6x6 scatter of (D1..D4, out_x, out_p)."""

    __slots__ = ("mean", "scatter", "flags", "cc13", "cc34")

    def __init__(self, mean: np.ndarray, scatter: np.ndarray, window: int,
                 baselines: np.ndarray):
        self.mean = mean
        self.scatter = scatter
        variances = np.diagonal(scatter, axis1=1, axis2=2)[:, :4] / (window - 1)
        self.flags = variances > (1.0 + FLUCTUATION_FACTOR) * baselines[:4]
        self.cc13 = scatter[:, 0, 2] / window
        self.cc34 = scatter[:, 2, 3] / window


def _error_columns(maps: PipelineMaps, channels: np.ndarray) -> np.ndarray:
    """(n, 6, 2) readout coefficients of each round's (dx, dp) error."""
    cols = 2 * (channels - 1)
    return maps.err_readout[:, np.stack([cols, cols + 1], axis=1)].transpose(1, 0, 2)


def _readout_noise(maps: PipelineMaps, n: int, window: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n, window, 6) readout noise series: ten normals per sample (twenty
    with loss) through the network."""
    series = rng.standard_normal((n, window, 10)) @ maps.mix.T
    if maps.vac is not None:
        series += rng.standard_normal((n, window, 10)) @ maps.vac.T
    return series


def _error_series(maps: PipelineMaps, channels: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """(n, window, 6) readout series of each round's (window, 2) displacements."""
    coeff = _error_columns(maps, channels)
    return draws[:, :, :1] * coeff[:, None, :, 0] + draws[:, :, 1:] * coeff[:, None, :, 1]


def _reduce_series(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every round's readout mean and centred scatter of (n, window, 6) series."""
    mean = series.mean(axis=1)
    centred = series - mean[:, None, :]
    return mean, centred.transpose(0, 2, 1) @ centred


def _sample_series(maps: PipelineMaps, channels: np.ndarray, occurred: np.ndarray,
                   law: ErrorLaw, window: int, rng: np.random.Generator) -> np.ndarray:
    """(n, window, 6) readout series: the noise plus each hit round's error
    series drawn from the law.  Reduced by ``_reduce_series``, it is the
    reference that ``_sample_statistics`` equals in law."""
    series = _readout_noise(maps, len(channels), window, rng)
    idx = np.flatnonzero(occurred)
    if len(idx):
        draws = law.draw(rng, len(idx) * window).reshape(len(idx), window, 2)
        series[idx] += _error_series(maps, channels[idx], draws)
    return series


def _sample_statistics(maps: PipelineMaps, channels: np.ndarray, occurred: np.ndarray,
                       law: ErrorLaw, window: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Every round's readout mean (n, 6) and centred scatter (n, 6, 6), drawn
    from their exact joint law without forming a series.

    With readout covariance S = F F^T, error coefficients C (6x2) and error
    series D (window x 2) of mean d and centred Gram K: the mean is
    F z / sqrt(window) + C d, and the scatter is W + H^T H.  W is the noise
    scatter off the span of the ones vector and the centred error columns,
    Wishart(S, window - 3), drawn as (F A)(F A)^T with A a Bartlett factor
    (Smith & Hocking, Appl. Stat. 21 (1972) 341).  H = G + R C^T, where the
    rows of G (2x6) are the noise along the two centred error directions,
    N(0, S), and R^T R = K.  A round without error has R = 0, which gives
    Wishart(S, window - 1).
    """
    n = len(channels)
    idx = np.flatnonzero(occurred)
    err_mean, err_gram = law.window_statistics(rng, len(idx), window)
    factor = maps.readout_factor
    mean = rng.standard_normal((n, 6)) @ factor.T / math.sqrt(window)
    bartlett = np.zeros((n, 6, 6))
    below_row, below_col = np.tril_indices(6, -1)
    bartlett[:, below_row, below_col] = rng.standard_normal((n, 15))
    bartlett[:, range(6), range(6)] = np.sqrt(
        rng.chisquare(window - 3 - np.arange(6), (n, 6)))
    along = rng.standard_normal((n, 2, 6)) @ factor.T
    noise = factor @ bartlett
    scatter = noise @ noise.transpose(0, 2, 1)
    if len(idx):
        coeff = _error_columns(maps, channels[idx])
        mean[idx] += (coeff @ err_mean[:, :, None])[:, :, 0]
        lam, vec = np.linalg.eigh(err_gram)
        root = np.sqrt(np.clip(lam, 0.0, None))[:, :, None] * vec.transpose(0, 2, 1)
        along[idx] += root @ coeff.transpose(0, 2, 1)
    scatter += along.transpose(0, 2, 1) @ along
    return mean, scatter


def _simulate_pass(maps: PipelineMaps, channels: np.ndarray, occurred: np.ndarray,
                   law: ErrorLaw, window: int, rng: np.random.Generator) -> _PassData:
    """The syndrome of one pass over a batch of rounds, from directly drawn
    round statistics."""
    mean, scatter = _sample_statistics(maps, channels, occurred, law, window, rng)
    return _PassData(mean, scatter, window, maps.baselines)


def pooled_moments(rounds: "RoundsOutcome", select=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the corrected output over the selected rounds'
    samples, rebuilt exactly from each round's moments (equal windows), so
    chunked runs merge losslessly."""
    w = rounds.window
    mean = rounds.corrected_mean[select]
    var = rounds.corrected_var[select].sum(axis=0)
    cxy = rounds.corrected_cov_xp[select].sum()
    n = w * len(mean)
    pooled = mean.mean(axis=0)
    second = (w - 1) * np.array([[var[0], cxy], [cxy, var[1]]]) + w * mean.T @ mean
    return pooled, (second - n * np.outer(pooled, pooled)) / (n - 1)


def summarize_reports(cfg: CodeConfig, rounds: "RoundsOutcome") -> "RoundsSummary":
    """Aggregates a batch of rounds from its columns: counts and pooled
    moments per final class, in order of first appearance."""
    codes, first = np.unique(rounds.final_codes, return_index=True)
    codes = codes[np.argsort(first)]
    keys = [str(_CODE_TO_RESULT[int(c)]) for c in codes]
    pooled = [pooled_moments(rounds, rounds.final_codes == c) for c in codes]
    inp = cfg.input_state()
    fids = fidelity_from_moments(inp.mean, inp.cov, np.array([m for m, _ in pooled]),
                                 np.array([c for _, c in pooled]))
    return RoundsSummary(
        n_rounds=len(rounds.final_codes), window=rounds.window,
        counts={k: int(np.count_nonzero(rounds.final_codes == c))
                for k, c in zip(keys, codes)},
        occurrence_fraction=float(np.mean(rounds.channels > 0)),
        accuracy=float(np.mean(rounds.matched)),
        fourier_rate=float(np.mean(rounds.fourier_used)),
        pooled_moments=dict(zip(keys, pooled)),
        pooled_fidelity={k: float(f) for k, f in zip(keys, fids)})


@dataclass
class RoundsSummary:
    """Aggregate results of a batch of rounds."""

    n_rounds: int
    window: int
    counts: dict[str, int]
    occurrence_fraction: float
    accuracy: float
    fourier_rate: float
    pooled_moments: dict[str, tuple[np.ndarray, np.ndarray]]
    pooled_fidelity: dict[str, float]


@dataclass(frozen=True, eq=False)
class RoundsOutcome:
    """Results of a batch of rounds as columns, one entry per round.

    Codes are 0 (no error), 1..5 (the located channel), 6 (ambiguous-p) and
    7 (unclassifiable).  Flags and relations describe the first pass; the
    corrected moments and fidelities come from the pass the correction used.
    ``summary`` is derived from the columns on first use.  No sample series
    and no closed-form theory is kept.
    """

    cfg: CodeConfig
    window: int
    channels: np.ndarray          # hit channel, 0 when no error occurred
    injected: np.ndarray          # (n, 2) drawn displacement (dx, dp)
    first_codes: np.ndarray
    final_codes: np.ndarray
    fourier_used: np.ndarray      # the rotated rerun ran
    matched: np.ndarray           # final code names the injected channel
    flags: np.ndarray             # (n, 4) fluctuation flags of D1..D4
    relations: np.ndarray         # (n, 2) D1-D3, D3-D4: +1 in phase, -1 out of phase, 0 n/a
    corrected_mean: np.ndarray    # (n, 2)
    corrected_var: np.ndarray     # (n, 2), ddof=1
    corrected_cov_xp: np.ndarray
    fidelity_mc: np.ndarray

    @cached_property
    def summary(self) -> RoundsSummary:
        return summarize_reports(self.cfg, self)

    @classmethod
    def concatenate(cls, parts: list["RoundsOutcome"]) -> "RoundsOutcome":
        """One outcome holding the rounds of ``parts`` in order."""
        columns = {f.name: np.concatenate([getattr(p, f.name) for p in parts])
                   for f in fields(cls) if f.name not in ("cfg", "window")}
        return cls(parts[0].cfg, parts[0].window, **columns)


def run_rounds(cfg: CodeConfig, error_cfg: ErrorConfig, rng: np.random.Generator,
               n_rounds: int, window: int = 512) -> RoundsOutcome:
    """Batched correction rounds.

    Every round draws its error, measures the syndrome window, is classified
    and has its output repaired by feedforward.  Each pass yields every
    round's readout mean and centred scatter, and classification,
    feedforward, corrected moments and fidelities are array operations on
    those statistics.  The statistics are drawn directly from their joint
    law (a Wishart scatter; see ``_sample_statistics``), at a cost that does
    not grow with the window beyond the error law's own draws; no sample
    series is formed.  ``_sample_series`` is the series route they equal in
    law.  The feedforward is ``PLAN_TABLE``; rounds carry no closed-form theory.
    Ambiguous rounds are rerun with rotated ancillas; a resolved rerun reports
    the second pass, an unresolved one the first.  All rounds draw from one
    generator in a fixed order, so a fixed seed gives identical results.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    if window < MIN_SYNDROME_WINDOW:
        raise ValueError(f"syndrome window must be at least {MIN_SYNDROME_WINDOW}")
    law = error_cfg.law
    occurred = rng.random(n_rounds) < error_cfg.gamma
    if error_cfg.channel == "uniform":
        channels = rng.integers(1, 6, n_rounds)
    else:
        channels = np.full(n_rounds, int(error_cfg.channel))
    channels = np.where(occurred, channels, 0)
    injected = np.zeros((n_rounds, 2))
    if occurred.any():
        injected[occurred] = law.draw(rng, int(occurred.sum()))

    pass1 = _simulate_pass(PipelineMaps(cfg, cfg.fourier_mode), channels, occurred,
                           law, window, rng)
    first = _classify_codes(pass1.flags, pass1.cc13, pass1.cc34)
    final = first.copy()
    fourier = np.full(n_rounds, cfg.fourier_mode)
    mean, scatter = pass1.mean, pass1.scatter
    rerun = np.flatnonzero(first == _CODE_AMBIGUOUS)
    if len(rerun):
        pass2 = _simulate_pass(PipelineMaps(cfg, not cfg.fourier_mode),
                               channels[rerun], occurred[rerun], law, window, rng)
        second = _classify_codes(pass2.flags, pass2.cc13, pass2.cc34)
        second[second == _CODE_AMBIGUOUS] = _CODE_UNCLASSIFIABLE
        final[rerun] = second
        resolved = second != _CODE_UNCLASSIFIABLE
        used = rerun[resolved]
        fourier[used] = not cfg.fourier_mode
        mean, scatter = mean.copy(), scatter.copy()
        mean[used], scatter[used] = pass2.mean[resolved], pass2.scatter[resolved]

    comb = PLAN_TABLE[fourier.astype(np.intp), final]             # (n, 2, 6)
    corrected_mean = (comb @ mean[:, :, None])[:, :, 0]
    cov = comb @ scatter @ comb.transpose(0, 2, 1) / (window - 1)
    inp = cfg.input_state()
    pair13 = pass1.flags[:, 0] & pass1.flags[:, 2]
    pair34 = pass1.flags[:, 2] & pass1.flags[:, 3]
    relations = np.stack([np.where(pass1.cc13 > 0, 1, -1) * pair13,
                          np.where(pass1.cc34 > 0, 1, -1) * pair34], axis=1)
    return RoundsOutcome(
        cfg=cfg, window=window, channels=channels, injected=injected,
        first_codes=first, final_codes=final, fourier_used=first == _CODE_AMBIGUOUS,
        matched=final == channels, flags=pass1.flags, relations=relations.astype(np.int8),
        corrected_mean=corrected_mean, corrected_var=np.diagonal(cov, axis1=1, axis2=2).copy(),
        corrected_cov_xp=cov[:, 0, 1].copy(),
        fidelity_mc=fidelity_from_moments(inp.mean, inp.cov, corrected_mean, cov))


def syndrome_trace(cfg: CodeConfig, channel: int | None, window: int,
                   rng: np.random.Generator, magnitude: float,
                   cycles: float = 3.0) -> tuple[dict[str, np.ndarray], ClassificationResult]:
    """One oscilloscope-style trace with a slowly swept error phase.

    Returns the per-detector readout series (plus the uncorrected output
    quadratures) and the classification of the trace.  The series is sampled
    with the noise of ``_sample_series``, the series route that the round
    engine's statistics equal in law, and is reduced and classified as a
    round is.
    """
    if window < MIN_SYNDROME_WINDOW:
        raise ValueError(f"syndrome window must be at least {MIN_SYNDROME_WINDOW}")
    maps = PipelineMaps(cfg, cfg.fourier_mode)
    series = _readout_noise(maps, 1, window, rng)
    if channel is not None and magnitude > 0:
        phase = (2.0 * math.pi * cycles * np.arange(window) / window
                 + rng.uniform(0.0, 2.0 * math.pi))
        sweep = magnitude * np.stack([np.cos(phase), np.sin(phase)], axis=1)
        series += _error_series(maps, np.array([channel]), sweep[None])
    syndrome = _PassData(*_reduce_series(series), window, maps.baselines)
    code = _classify_codes(syndrome.flags, syndrome.cc13, syndrome.cc34)[0]
    traces = dict(zip(DETECTORS + ("out_x", "out_p"), series[0].T))
    return traces, _CODE_TO_RESULT[int(code)]
