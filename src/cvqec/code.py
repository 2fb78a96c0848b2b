"""The five-channel error-correction pipeline.

Encode an input mode with four squeezed ancillas, inject a stochastic
displacement on one channel, decode with the inverse network, recognize the
error location from the homodyne syndrome pattern, and repair the output by
feedforward.  The exact quadrature forms (``encode``/``inject_error``/
``decode``) verify the algebra and the feedforward table ``PLANS``;
``PipelineMaps``, the linear maps of one encode/loss/decode pass onto the
readouts, is the only numeric model and also models channel loss.  Through
``PLAN_TABLE``, built from ``PLANS``, it drives the Monte-Carlo rounds and
gives the closed-form output moments.  Rounds are classified by the
syndrome table ``_CODE_TABLE`` into the round codes that ``CODE_NAMES``
names.

Detector/mode layout after decoding (positions 0..4): D1, D2, D3, output, D4.
In the standard configuration D1/D3/D4 read x and D2 reads p; running with
Fourier-rotated ancillas swaps every measurement basis, which localizes
displacements that live purely in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from fractions import Fraction

import numpy as np

from .errors import (LAW_GENERAL, LAW_X, MAX_MAGNITUDE, ErrorConfig, ErrorLaw, bounded,
                     count, echo, hit_channel)
from .exact import (ExactScalar, LinearForm, ModeForm, QuadSymbol, SQRT2,
                    TAG_ANTISQUEEZED, TAG_NONE, TAG_SQUEEZED, mode_forms_apply_matrix,
                    sqrt_of)
from .gaussian import VACUUM_VAR
from .network import Matrix, encoder_matrix, inverse, lift_to_symplectic

INPUT_POS = 3
ANCILLA_ORIENTATIONS = ("amplitude", "phase", "amplitude", "amplitude")
OUT_POS = 3                               # decoded position of the output mode
DETECTORS = ("D1", "D2", "D3", "D4")
DETECTOR_POS = {"D1": 0, "D2": 1, "D3": 2, "D4": 4}
_STANDARD_BASIS = {"D1": "x", "D2": "p", "D3": "x", "D4": "x"}

MIN_SYNDROME_WINDOW = 30
FLUCTUATION_FACTOR = 3.0   # flag when excess variance exceeds 3x the baseline

# The largest ancilla squeezing parameter r.  The lossy map's rounded loss term
# carries anti-squeezed noise of order e^r: at uniform loss 0.9, channel 1's
# fidelity, 1 in theory, is off by 2.4e-15 at r = 25, 5.2e-11 at 30, 0.025 at 40.
MAX_R = 25.0
MAX_R_DB = 20.0 * MAX_R / math.log(10.0)   # MAX_R as ancilla squeezing in dB, about 217

# The largest input squeezing or anti-squeezing in dB.  At uniform loss 0.9
# and r <= MAX_R, channel 1's fidelity misses its known value by up to 5.7e-14
# relative at 30 dB, 7.3e-12 at 50 and 9.5e-7 at 100.
MAX_INPUT_DB = 30.0


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


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CodeConfig:
    """Squeezing, input choice and optional channel loss for one code instance.

    ``r`` is stored as one squeezing parameter per ancilla, ``channel_loss``
    as one transmissivity per channel (None is no loss) and a numpy bool
    ``fourier_mode`` as a bool; a single value is given to every ancilla or
    channel, so equal configurations compare and hash equal however spelled."""

    r: tuple[float, float, float, float] = 0.0
    input_kind: str = "vacuum"                 # "vacuum" | "squeezed"
    input_squeeze_db: float = 3.5
    input_antisqueeze_db: float = 8.9
    fourier_mode: bool = False
    channel_loss: tuple[float, float, float, float, float] = None

    def __post_init__(self):
        r = tuple(bounded(v, "squeezing parameter", MAX_R)
                  for v in _per_mode(self.r, 4, "per-ancilla squeezing"))
        loss = tuple(bounded(v, "channel transmissivity", 1.0) for v in _per_mode(
            1.0 if self.channel_loss is None else self.channel_loss, 5, "per-channel loss"))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "channel_loss", loss)
        object.__setattr__(self, "input_squeeze_db", bounded(
            self.input_squeeze_db, "input squeezing in dB", MAX_INPUT_DB))
        object.__setattr__(self, "input_antisqueeze_db", bounded(
            self.input_antisqueeze_db, "input antisqueezing in dB", MAX_INPUT_DB))
        if self.input_kind not in ("vacuum", "squeezed"):
            raise ValueError(f"unknown input kind {echo(self.input_kind)}")
        if not isinstance(self.fourier_mode, (bool, np.bool_)):
            raise ValueError(f"the Fourier flag must be a bool, not {echo(self.fourier_mode)}")
        object.__setattr__(self, "fourier_mode", bool(self.fourier_mode))
        # checked for a vacuum input too: table2 and tableC1 build the
        # squeezed input of any configuration from the two values
        if self.input_antisqueeze_db < self.input_squeeze_db:
            raise ValueError(
                f"input antisqueezing {self.input_antisqueeze_db} dB is below its squeezing "
                f"{self.input_squeeze_db} dB: V_x V_p would fall below the vacuum's 1/16")

    @property
    def has_loss(self) -> bool:
        return any(eta < 1.0 for eta in self.channel_loss)

    def input_variances(self) -> tuple[float, float]:
        if self.input_kind == "vacuum":
            return (VACUUM_VAR, VACUUM_VAR)
        v_sq = VACUUM_VAR * 10.0 ** (-self.input_squeeze_db / 10.0)
        v_anti = VACUUM_VAR * 10.0 ** (self.input_antisqueeze_db / 10.0)
        return (v_anti, v_sq)   # phase-squeezed input: p is the quiet quadrature

    def input_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the input mode."""
        return np.zeros(2), np.diag(self.input_variances())


def _per_mode(value, n: int, what: str) -> tuple:
    """``n`` values, one per mode: a sequence or 1-D array of them, or one
    value for all."""
    if isinstance(value, (tuple, list)) or getattr(value, "ndim", None) == 1:
        if len(value) != n:
            raise ValueError(f"{what} needs {n} values")
        return tuple(value)
    return (value,) * n


# --------------------------------------------------------------------------
# exact encoding and decoding


def _source_symbols() -> tuple[QuadSymbol, ...]:
    """The ten source quadratures, interleaved (x, p), of (a1, a2, a3, a_in,
    a4) before the network: the input's and each ancilla's, an amplitude-
    squeezed ancilla quiet in x and a phase-squeezed one quiet in p."""
    symbols = []
    ancillas = enumerate(ANCILLA_ORIENTATIONS, start=1)
    for pos in range(5):
        if pos == INPUT_POS:
            symbols += [QuadSymbol.input("x"), QuadSymbol.input("p")]
            continue
        index, orientation = next(ancillas)
        tags = ((TAG_SQUEEZED, TAG_ANTISQUEEZED) if orientation == "amplitude"
                else (TAG_ANTISQUEEZED, TAG_SQUEEZED))
        symbols += [QuadSymbol.ancilla(index, q, tag) for q, tag in zip("xp", tags)]
    return tuple(symbols)


# The one table of the source modes, read by the exact route
# (``source_mode_forms``) and the numeric model (``source_variances``).
SOURCE_SYMBOLS = _source_symbols()


def source_mode_forms(*, fourier: bool) -> list[ModeForm]:
    """Quadrature forms of (a1, a2, a3, a_in, a4) before the network: the
    ``SOURCE_SYMBOLS``, with the ancillas Fourier-rotated when ``fourier``."""
    forms = [ModeForm(LinearForm.of(x), LinearForm.of(p))
             for x, p in zip(SOURCE_SYMBOLS[::2], SOURCE_SYMBOLS[1::2])]
    return [form.fourier() if fourier and pos != INPUT_POS else form
            for pos, form in enumerate(forms)]


def error_mode_form(channel: int) -> ModeForm:
    return ModeForm(LinearForm.of(QuadSymbol.error(channel, "x")),
                    LinearForm.of(QuadSymbol.error(channel, "p")))


def encode(*, fourier: bool) -> tuple[ModeForm, ...]:
    """The exact forms of the five channel modes: the encoder run on the
    input and ancilla modes.  Squeezing and input enter only when a form's
    variance is taken, so the forms depend on the Fourier flag alone."""
    return tuple(mode_forms_apply_matrix(source_mode_forms(fourier=fourier), encoder_matrix()))


def inject_error(forms: tuple[ModeForm, ...], channel: int) -> tuple[ModeForm, ...]:
    """Adds the error symbols of one channel's displacement to its mode."""
    channel = hit_channel(channel)
    hit = forms[channel - 1] + error_mode_form(channel)
    return forms[:channel - 1] + (hit,) + forms[channel:]


@cache
def _decoder() -> Matrix:
    """The exact inverse network, proved orthogonal once."""
    return inverse(encoder_matrix())


def decode(forms: tuple[ModeForm, ...]) -> tuple[ModeForm, ...]:
    """Applies the inverse network to the exact channel forms, giving those
    at (D1, D2, D3, output, D4); the output is at ``OUT_POS``.

    The forms describe the lossless algebra; channel loss is modelled by
    ``PipelineMaps`` only.
    """
    return tuple(mode_forms_apply_matrix(forms, _decoder()))


# --------------------------------------------------------------------------
# syndrome measurement and classification

# Round codes: 1..5 name the located channel.
NO_ERROR = 0
AMBIGUOUS_P = 6
UNCLASSIFIABLE = 7
CODE_NAMES = ("no-error", *(f"channel-{k}" for k in range(1, 6)), "ambiguous-p", "unclassifiable")


def _syndrome_rule(f1, f2, f3, f4, in13, in34, out13, out34) -> int:
    """The syndrome table: the round code of four fluctuation flags and the
    D1-D3 / D3-D4 relations, each in phase, out of phase or neither (NaN)."""
    if not (f1 or f2 or f3 or f4):
        return NO_ERROR
    if f1 and f3 and not f4:
        return 1 if in13 else 2 if out13 else UNCLASSIFIABLE
    if not f1 and f3 and not f4:
        return 3
    if not f1 and f3 and f4:
        return 5 if in34 else 4 if out34 else UNCLASSIFIABLE
    if not (f1 or f3 or f4) and f2:
        return AMBIGUOUS_P
    return UNCLASSIFIABLE


# The weights of the index bits: the flags of D1..D4, then the two in-phase
# and the two out-of-phase relations.  Bits times uint8 weights sum in uint8,
# and no index exceeds 255.
_INDEX_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


def _syndrome_index(flags: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """The uint8 syndrome index of (n, 4) fluctuation flags and (n, 2) D1-D3 /
    D3-D4 cross-correlations or relation signs, or of one round's (4,) and
    (2,).  Its bits are the flags of D1..D4, cc13 > 0, cc34 > 0, cc13 <= 0
    and cc34 <= 0: a cross term > 0 is in phase, one <= 0 out of phase (so
    the relation 0, n/a, reads as out of phase) and a NaN one sets neither
    bit.  The eight bits are written bit-major, one contiguous row each, and
    weighed by one matmul, so the cost barely grows with the batch."""
    bits = np.empty((8,) + np.shape(cross)[:-1], dtype=bool)
    bits[:4] = flags.T
    np.greater(cross.T, 0.0, out=bits[4:6])
    np.less_equal(cross.T, 0.0, out=bits[6:])
    return _INDEX_BITS @ bits.view(np.uint8)


# The round code (_syndrome_rule) of every syndrome index.
_CODE_TABLE = np.array([_syndrome_rule(*(bool(i >> k & 1) for k in range(8)))
                        for i in range(256)], dtype=np.int8)
_CODE_TABLE.setflags(write=False)


# --------------------------------------------------------------------------
# feedforward

_G23 = sqrt_of(Fraction(2, 3))
_TWO_SQRT2 = ExactScalar(0, 2)

# PLANS[fourier][channel] = ((detector, gain) onto out_x, (detector, gain)
# onto out_p): readout * gain is added to the output quadrature.  Channels 1
# and 2 need no feedforward, and an indefinite code gets none.
PLANS = {False: {3: (("D3", _G23), ("D2", -SQRT2)),
                 4: (("D4", _G23), ("D2", _TWO_SQRT2)),
                 5: (("D4", -_G23), ("D2", _TWO_SQRT2))}}
# With Fourier-rotated ancillas the roles of the two output quadratures swap:
# D2 (now reading x) repairs x and D3/D4 (now reading p) repair p.
PLANS[True] = {ch: (on_p, on_x) for ch, (on_x, on_p) in PLANS[False].items()}


def plan_matrix(plan: tuple) -> np.ndarray:
    """2x6 linear map from the readouts (D1..D4, out_x, out_p) to the
    corrected output quadratures of a ``PLANS`` entry (or ``()``): each
    readout times its gain is added."""
    rows = np.eye(2, 6, 4)
    for row, (det, gain) in enumerate(plan):
        rows[row, DETECTORS.index(det)] += float(gain)
    return rows


# plan_matrix of every round code, indexed [fourier, code], for the round engine
# and the closed form.
PLAN_TABLE = np.array([[plan_matrix(PLANS[fourier].get(code, ()))
                        for code in range(len(CODE_NAMES))]
                       for fourier in (False, True)])
PLAN_TABLE.setflags(write=False)


# --------------------------------------------------------------------------
# closed-form pipeline moments (no sampling)


@cache
def _network_symplectics(fourier: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder, decoder and their product ``rot`` as read-only 10x10
    symplectic matrices, made once per flag: float views of the exact
    ``encode``, inverse and ``decode(encode(...))``, so ``rot`` is 0 or +-1."""
    encoded = encode(fourier=fourier)
    enc, rot = (np.array([[float(q.coefficient(s)) for s in SOURCE_SYMBOLS]
                          for mode in forms for q in (mode.x, mode.p)])
                for forms in (encoded, decode(encoded)))
    triple = (enc, lift_to_symplectic(_decoder()), rot)
    for s in triple:
        s.setflags(write=False)
    return triple


# The factor of r in the exponent of a squeezed and an antisqueezed quadrature's
# variance, (1/4) e^{-2r} and (1/4) e^{+2r}.
_TAG_SIGN = {TAG_SQUEEZED: -2.0, TAG_ANTISQUEEZED: 2.0}


def source_variances(cfg: CodeConfig) -> np.ndarray:
    """Variances of the ``SOURCE_SYMBOLS``: the input's V_x and V_p, and each
    ancilla's (1/4) e^{-2r} quiet and (1/4) e^{+2r} loud quadrature.  The
    one table read by ``PipelineMaps`` and the witness."""
    v_in = dict(zip("xp", cfg.input_variances()))
    return np.array([v_in[s.quad] if s.tag == TAG_NONE
                     else VACUUM_VAR * math.exp(_TAG_SIGN[s.tag] * cfg.r[s.index - 1])
                     for s in SOURCE_SYMBOLS])


class PipelineMaps:
    """Precomputed linear maps of one encode/loss/decode pass, on the readouts
    (D1..D4, out_x, out_p).

    The readouts are ``noise`` times standard normals plus, for each channel
    k, ``err_columns[k - 1]`` (6x2) times its displacement (dx, dp).
    ``noise`` holds one column per independent normal: the ten source
    quadratures (``source_variances``) through ``rot`` less the loss term,
    exactly 0 without loss, and ten more for the vacua a lossy channel mixes
    in.  ``thresholds`` flag D1..D4: 1 + ``FLUCTUATION_FACTOR`` times the
    squared norm of each one's ``noise`` row, its baseline variance.
    ``readout_factor`` F, the transposed R of a QR factorization of the
    stacked noise maps, its rows signed so that F's diagonal is >= 0 (an
    exact 0 counts as +), gives the covariance as F F^T, which is never
    formed: its quiet readouts lie below the rounding error of its loud ones
    under extreme squeezing, and a singular covariance is safe.
    """

    def __init__(self, cfg: CodeConfig, fourier: bool):
        s_enc, s_dec, rot = _network_symplectics(fourier)
        eta = np.repeat(np.sqrt(cfg.channel_loss), 2)
        rows = readout_rows(fourier)
        self.err_columns = (s_dec[rows] * eta).reshape(6, 5, 2).transpose(1, 0, 2).copy()
        loss = s_dec @ ((1.0 - eta)[:, None] * s_enc)
        self.noise = (rot - loss)[rows] * np.sqrt(source_variances(cfg))
        if cfg.has_loss:
            vacua = s_dec[rows] * np.sqrt(1.0 - eta ** 2) * math.sqrt(VACUUM_VAR)
            self.noise = np.hstack([self.noise, vacua])
        detectors = self.noise[:4]
        self.thresholds = (1.0 + FLUCTUATION_FACTOR) * np.einsum("ij,ij->i", detectors, detectors)
        r = np.linalg.qr(self.noise.T, mode="r")
        self.readout_factor = (np.where(r.diagonal() < 0.0, -1.0, 1.0)[:, None] * r).T
        for arr in (self.err_columns, self.noise, self.thresholds, self.readout_factor):
            arr.setflags(write=False)       # read-only: ``_maps`` shares one instance


@lru_cache(maxsize=16)
def _maps(cfg: CodeConfig, fourier: bool) -> PipelineMaps:
    """The maps of one configuration in one measurement basis, built once for
    every call on it: every chunk and both passes of one configuration's
    rounds, the branches of one output mixture, the channels of one table
    row.  The bound holds the 11 (configuration, basis) keys of one
    ``cvqec verify`` and stays bounded for sweeps of many configurations."""
    return PipelineMaps(cfg, fourier)


def closed_form_output(cfg: CodeConfig, channel: int | None,
                       error_var: tuple[float, float] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Output mean and covariance of one branch of the round in the config's
    measurement basis, computed without sampling from ``PipelineMaps`` and the
    round engine's ``PLAN_TABLE``.  The mean is zero: channels 1 and 2 never reach
    the output, and the feedforward of channels 3..5 cancels a displacement
    exactly (``PLAN_TABLE[f, ch] @ err_columns[ch - 1]`` is 0), so only an
    unrepaired error, through its variance, moves the output.

    Args:
        cfg: code configuration.
        channel: hit channel 1..5, or None for the error-free branch.
        error_var: None for the corrected branch, which applies the
            channel's feedforward plan (channels 3..5); otherwise the
            unrepaired branch of a hit channel, whose displacement has these
            two variances, x and p, each within [0, ``MAX_MAGNITUDE``^2]
            (the error law's ``quadrature_variances``).
    """
    channel = hit_channel(channel, None)
    if error_var is not None:
        if channel is None:
            raise ValueError("error_var needs a hit channel, not None")
        if not isinstance(error_var, (tuple, list)) or len(error_var) != 2:
            raise ValueError(f"error_var must be two variances (x, p), not {echo(error_var)}")
        error_var = [bounded(v, "error variance", MAX_MAGNITUDE ** 2) for v in error_var]
    fourier = cfg.fourier_mode
    maps = _maps(cfg, fourier)
    plan = PLAN_TABLE[int(fourier), channel if error_var is None and channel else NO_ERROR]
    noise = plan @ maps.noise
    cov = noise @ noise.T
    if error_var is not None:
        err = plan @ maps.err_columns[channel - 1]                   # (2, 2)
        cov = cov + err @ np.diag(error_var) @ err.T
    return np.zeros(2), cov


def output_mixture(cfg: CodeConfig, error_cfg: ErrorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the corrected output over a round's branches,
    assuming correct classification: 1 - gamma on the no-error branch, gamma
    shared by the channels of ``error_cfg``'s policy.  The feedforward
    cancels a displacement exactly at any loss, so every branch is one
    zero-mean Gaussian and the mixture's covariance is the weighted sum of
    theirs."""
    gamma = error_cfg.gamma
    channels = range(1, 6) if error_cfg.channel == "uniform" else (error_cfg.channel,)
    branches = [(1.0 - gamma, None)] if gamma < 1.0 else []
    if gamma > 0.0:
        branches += [(gamma / len(channels), ch) for ch in channels]
    weights = np.array([w for w, _ in branches])
    covs = np.array([closed_form_output(cfg, ch)[1] for _, ch in branches])
    return np.zeros(2), np.einsum("k,kij->ij", weights, covs)


# --------------------------------------------------------------------------
# full correction rounds

def _syndrome(factor: np.ndarray, window: int, thresholds: np.ndarray) -> np.ndarray:
    """The ``_syndrome_index`` of one pass, from every round's centred readout
    factor X, detector-major (m, n, k): row i of round r is ``factor[i, r]``,
    the first four rows are D1..D4 and a round's scatter is X X^T.  A flag is
    a squared row norm of D1..D4 over window - 1 above its threshold, and the
    D1-D3 / D3-D4 cross-correlations are the dot products of rows 0 and 2
    and of rows 2 and 3 over the window.  ``_CODE_TABLE`` holds each index's
    round code."""
    rows = factor[:4]
    flags = np.einsum("inj,inj->in", rows, rows) / (window - 1) > thresholds[:, None]
    cc = np.einsum("inj,inj->in", factor[0:3:2], factor[2:4]) / window
    return _syndrome_index(flags.T, cc.T)


# The rows and columns in a round's (6, 9) statistics block [A | Z^T | z] of
# the Bartlett factor's 15 below-diagonal entries, its 6 diagonal ones and the
# 12 entries of the (2, 6) along-normals Z, each in the order they are drawn.
_BELOW = np.tril_indices(6, -1)
_DIAGONAL = (np.arange(6), np.arange(6))
_ALONG = (np.tile(np.arange(6), 2), np.repeat([6, 7], 6))
# The rows and columns of a round's error terms [C R | C d], its block's last
# three columns, in row-major order.
_TERM_ROWS = np.repeat(np.arange(6), 3)
_TERM_COLUMNS = np.tile(np.arange(6, 9), 6)
# The Bartlett factor's diagonal degrees of freedom are window - 3 - i.
_DOF_DROP = 3 + np.arange(6)
_EYE2 = np.eye(2)


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """Symmetric roots R (R^T R = K) of (n, 2, 2) positive semi-definite
    Grams K in closed form (Levinger, Math. Mag. 53 (1980) 222): (K + s I) / t
    with s = sqrt(det K) and t = sqrt(tr K + 2 s), 0 where K = 0; a rounding
    negative det K or tr K + 2 s counts as 0."""
    k00, k11 = gram[:, 0, 0], gram[:, 1, 1]
    s = np.sqrt(np.maximum(k00 * k11 - gram[:, 0, 1] * gram[:, 1, 0], 0.0))
    t = np.sqrt(np.maximum(k00 + k11 + 2.0 * s, 0.0))[:, None, None]
    root = gram + s[:, None, None] * _EYE2
    return np.divide(root, t, out=np.zeros_like(root), where=t > 0.0)


def _sample_statistics(maps: PipelineMaps, channels: np.ndarray, law: ErrorLaw, window: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Every round's centred readout factor X (6, 8), whose scatter is X X^T,
    with its readout mean m (6,) as a ninth column, drawn from the joint law
    of X and m without forming a series: the statistics block [X | m] of the
    n rounds, detector-major (6, n, 9).  Exact given the error law's
    ``window_statistics``, whose general-law phases lie on a 256-point grid
    and match ``draw``'s in every moment up to order 127.  ``channels`` holds
    each round's hit channel, 0 for a round without error.

    With readout covariance S = F F^T, error coefficients C (6x2) and error
    series D (window x 2) of mean d and centred Gram K: the mean is
    F z / sqrt(window) + C d, and X = F [A | Z^T] + [0 | C R].
    F A A^T F^T, with A a Bartlett factor (Smith & Hocking, Appl. Stat. 21
    (1972) 341), is the noise scatter off the span of the ones vector and
    the centred error columns, Wishart(S, window - 3).  The rows of Z F^T
    (2x6) are the noise along the two centred error directions, N(0, S), and
    R = ``_gram_root``(K).  Any R with R^T R = K gives the same law: two
    roots differ by a rotation that depends on K alone, which leaves the iid
    rows of Z F^T in law as they are.  Without error R = 0, which gives
    Wishart(S, window - 1).

    The draws fill one detector-major block [A | Z^T | z], so a single
    product with F forms every round's X and F z; a hit round's error terms
    C R and C d are then added to its last three columns at once."""
    n = len(channels)
    hit = channels.nonzero()[0]
    n_hit = len(hit)
    err_mean, err_gram = law.window_statistics(rng, n_hit, window)
    # the mean's normals and then the below-diagonal ones, as one draw
    normals = rng.standard_normal(21 * n)
    block = np.zeros((6, n, 9))
    block[:, :, 8] = normals[:6 * n].reshape(n, 6).T
    block[_BELOW[0], :, _BELOW[1]] = normals[6 * n:].reshape(n, 15).T
    block[_DIAGONAL[0], :, _DIAGONAL[1]] = np.sqrt(rng.chisquare(window - _DOF_DROP, (n, 6))).T
    block[_ALONG[0], :, _ALONG[1]] = rng.standard_normal((n, 12)).T
    stats = (maps.readout_factor @ block.reshape(6, 9 * n)).reshape(6, n, 9)
    stats[:, :, 8] /= math.sqrt(window)
    if n_hit:
        terms = _error_terms(maps.err_columns.take(channels[hit] - 1, axis=0), law,
                             err_mean, err_gram)
        # the flat positions of the hit rounds' last three columns
        at = np.add.outer(9 * hit, 9 * n * _TERM_ROWS + _TERM_COLUMNS)
        stats.reshape(-1)[at] += terms.reshape(n_hit, 18)
    return stats


def _error_terms(coeff: np.ndarray, law: ErrorLaw, mean: np.ndarray,
                 gram: np.ndarray) -> np.ndarray:
    """Each hit round's error terms [C R | C d] (n, 6, 3), from its error
    coefficients C (n, 6, 2) and its window's mean d and centred Gram K.
    The general law's are matmuls, with R = ``_gram_root``(K).  A
    single-quadrature law's d and K are zero but in its quadrature q, where K
    holds g: there ``_gram_root`` is g / sqrt(g), 0 where g <= 0, and each
    matmul has one nonzero product, so its terms are those exact products
    formed elementwise; the column of the quadrature it leaves still gets
    0.0, as the matmuls gave it."""
    terms = np.zeros((len(coeff), 6, 3))
    if law.kind == LAW_GENERAL:
        np.matmul(coeff, _gram_root(gram), out=terms[:, :, :2])
        np.matmul(coeff, mean[:, :, None], out=terms[:, :, 2:])
        return terms
    q = 0 if law.kind == LAW_X else 1
    g = gram[:, q, q]
    t = np.sqrt(np.maximum(g, 0.0))
    root = np.divide(g, t, out=np.zeros_like(g), where=t > 0.0)
    c = coeff[:, :, q]
    np.multiply(c, root[:, None], out=terms[:, :, q])
    np.multiply(c, mean[:, q, None], out=terms[:, :, 2])
    return terms


# The rows of a round's pooling terms: its corrected mean (x, p), variances
# (x, p), x-p covariance, mean products (xx, px, pp) and 1, which counts it.
# Their sums over the pooled rounds are all that pooling needs.
_N_TERMS = 9
_VAR_TERMS = np.array([[2, 4], [4, 3]])
_PRODUCT_TERMS = np.array([[5, 6], [6, 7]])


def pooling_sums(rounds: "RoundsOutcome", code: int | None = None,
                 carried: np.ndarray | None = None) -> np.ndarray:
    """The sums of the pooling terms of the rounds whose final code is
    ``code`` (every round when None), added onto ``carried`` in round order
    by an in-place ``np.cumsum`` along each term's row, whose first column
    holds the carried sums: carried over chunks, they are one batch's bit for
    bit.  Each term is a contiguous row, as numpy's loops over length-2 axes
    are slow."""
    select = slice(None) if code is None else rounds.final_codes == code
    means = rounds.corrected_mean[select]
    cov = rounds.corrected_cov[select]
    terms = np.ones((_N_TERMS, len(means) + 1))
    terms[:, 0] = 0.0 if carried is None else carried
    body = terms[:, 1:]
    body[0:2], body[2:4], body[4] = means.T, cov.diagonal(0, 1, 2).T, cov[:, 0, 1]
    body[5:7] = body[0:2] * body[0]
    body[7] = body[1] * body[1]
    return np.cumsum(terms, axis=1, out=terms)[:, -1].copy()


def moments_from_sums(sums: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Mean and covariance of the corrected output over the samples of the
    rounds with these ``pooling_sums``, exactly; None for no round."""
    k = sums[8]                     # the count term
    if not k:
        return None
    n = window * k
    mean = sums[0:2] / k
    second = (window - 1) * sums[_VAR_TERMS] + window * sums[_PRODUCT_TERMS]
    return mean, (second - n * mean[:, None] * mean[None, :]) / (n - 1)


def pooled_moments(rounds: "RoundsOutcome",
                   code: int | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """``moments_from_sums`` of one batch's rounds whose final code is
    ``code``, or of every round when it is None."""
    return moments_from_sums(pooling_sums(rounds, code), rounds.window)


def summarize_reports(rounds: "RoundsOutcome") -> "RoundsSummary":
    """The size and two rates of a batch of rounds, from its columns."""
    n = len(rounds.final_codes)
    return RoundsSummary(n_rounds=n, window=rounds.window,
                         accuracy=int(np.count_nonzero(rounds.matched)) / n,
                         fourier_rate=int(np.count_nonzero(rounds.fourier_used)) / n)


@dataclass(frozen=True)
class RoundsSummary:
    """The size, matched fraction and rerun rate of a batch of rounds: the
    four numbers the benchmark's counting hook reads."""

    n_rounds: int
    window: int
    accuracy: float
    fourier_rate: float


@dataclass(frozen=True, eq=False)
class RoundsOutcome:
    """Results of a batch of rounds as columns, one entry per round.

    Codes are ``NO_ERROR``, 1..5 (the located channel), ``AMBIGUOUS_P`` and
    ``UNCLASSIFIABLE``, named by ``CODE_NAMES``.  ``syndrome`` is the first
    pass's ``_syndrome_index``, whose bits 0-3 are the fluctuation flags of
    D1..D4; its code, ``_CODE_TABLE[syndrome]``, is ``AMBIGUOUS_P`` where
    the rotated rerun ran and the final code elsewhere.  The corrected
    moments come from the pass the correction used.  ``summary`` is derived
    from the columns on first use.  No sample series and no closed-form
    theory is kept.
    """

    window: int
    channels: np.ndarray          # hit channel, 0 when no error occurred
    final_codes: np.ndarray
    syndrome: np.ndarray          # uint8 first-pass syndrome index
    corrected_mean: np.ndarray    # (n, 2)
    corrected_cov: np.ndarray     # (n, 2, 2), ddof=1

    @property
    def matched(self) -> np.ndarray:
        """Whether each round's final code names its hit channel."""
        return self.final_codes == self.channels

    @property
    def fourier_used(self) -> np.ndarray:
        """Whether each round ran the rotated rerun: its first pass was
        ambiguous."""
        return _CODE_TABLE[self.syndrome] == AMBIGUOUS_P

    @cached_property
    def summary(self) -> RoundsSummary:
        return summarize_reports(self)


def _corrected_pass(cfg: CodeConfig, fourier: bool, channels: np.ndarray, law: ErrorLaw,
                    window: int, rng: np.random.Generator) -> tuple:
    """One pass of rounds in one measurement basis: every round's syndrome
    index, its round code and its output corrected by that code's plan P,
    (n, 2, k + 1).  P applied to the statistics block [X | m] gives the
    corrected factor P X and, as a last column, the corrected mean P m."""
    maps = _maps(cfg, fourier)
    stats = _sample_statistics(maps, channels, law, window, rng)
    index = _syndrome(stats[:, :, :-1], window, maps.thresholds)
    codes = _CODE_TABLE.take(index)
    return index, codes, PLAN_TABLE[int(fourier)].take(codes, axis=0) @ stats.transpose(1, 0, 2)


def run_rounds(cfg: CodeConfig, error_cfg: ErrorConfig, rng: np.random.Generator,
               n_rounds: int, window: int = 512) -> RoundsOutcome:
    """Batched correction rounds.

    Every round draws its error, measures the syndrome window, is classified
    and has its output repaired by feedforward.  Each pass yields every
    round's centred (6, 8) readout factor X and readout mean m as one
    statistics block, and classification (``_syndrome``), feedforward and
    corrected moments are array operations on it.  The statistics are drawn
    directly from their joint law (X X^T is a Wishart scatter; see
    ``_sample_statistics``), at a cost that does not grow with the window
    beyond the error law's own draws; no sample series is formed (the tests
    hold the series route they equal in law).  The feedforward is
    ``PLAN_TABLE``; rounds carry no closed-form theory.  With a round's plan
    P, the corrected covariance is (P X)(P X)^T / (window - 1): P maps the
    error's columns of X to zero before any product, so the error's
    a^2 * window scatter is never formed and never has to cancel.
    Ambiguous rounds are rerun with rotated ancillas; a resolved rerun reports
    the second pass, an unresolved one the first, whose plan for
    ``AMBIGUOUS_P`` is that of ``UNCLASSIFIABLE``: none.  All rounds draw
    from one generator in a fixed order, so a fixed seed gives identical
    results.
    """
    n_rounds = count(n_rounds, "n_rounds", 1)
    window = count(window, "syndrome window", MIN_SYNDROME_WINDOW)
    law = error_cfg.law
    occurred = rng.random(n_rounds) < error_cfg.gamma
    if error_cfg.channel == "uniform":
        channels = rng.integers(1, 6, n_rounds)
    else:
        channels = np.full(n_rounds, error_cfg.channel)
    channels = np.where(occurred, channels, 0)

    index, final, corrected = _corrected_pass(cfg, cfg.fourier_mode, channels, law, window, rng)
    rerun = (final == AMBIGUOUS_P).nonzero()[0]
    if len(rerun):
        _, second, rotated = _corrected_pass(cfg, not cfg.fourier_mode, channels[rerun], law,
                                             window, rng)
        second[second == AMBIGUOUS_P] = UNCLASSIFIABLE
        final[rerun] = second
        resolved = (second != UNCLASSIFIABLE).nonzero()[0]
        corrected[rerun.take(resolved)] = rotated.take(resolved, axis=0)
    factor = corrected[:, :, :-1]                                 # (n, 2, k)
    # A contiguous transpose keeps the stacked product on numpy's BLAS path;
    # a strided one falls back to a slower loop.
    cov = factor @ factor.transpose(0, 2, 1).copy() / (window - 1)
    return RoundsOutcome(window=window, channels=channels, final_codes=final, syndrome=index,
                         corrected_mean=corrected[:, :, -1].copy(), corrected_cov=cov)


# Turns of the error phase over one ``syndrome_trace`` window.
TRACE_CYCLES = 3.0
# Trace rows whose normals are drawn at a time.  A 1-row product takes
# another BLAS path and can move the last bit, so a 1-row tail joins the
# block before it.
TRACE_BLOCK = 16384


def syndrome_trace(cfg: CodeConfig, channel: int | None, window: int,
                   rng: np.random.Generator,
                   magnitude: float) -> tuple[np.ndarray, int]:
    """One oscilloscope-style trace with an error phase swept through
    ``TRACE_CYCLES`` turns.

    ``channel`` is the hit channel 1..5, or None for no error, and
    ``magnitude`` the error's, within [0, ``MAX_MAGNITUDE``].  Returns the
    (window, 4) readout series of D1..D4 and the round code of the trace.
    The series is the D1..D4 rows of the series route, which the round
    engine's statistics equal in law, and is centred and classified as a
    round is.  The normals are drawn ``TRACE_BLOCK`` rows at a time and the
    phase offset after them, so the stream and every bit are one draw's.
    """
    window = count(window, "syndrome window", MIN_SYNDROME_WINDOW)
    channel = hit_channel(channel, None)
    magnitude = bounded(magnitude, "magnitude", MAX_MAGNITUDE)
    maps = _maps(cfg, cfg.fourier_mode)
    noise = maps.noise[:4].T
    starts = range(0, window - 1, TRACE_BLOCK)
    blocks = [slice(start, stop) for start, stop in zip(starts, [*starts[1:], window])]
    trace = np.empty((window, 4))
    for rows in blocks:
        np.matmul(rng.standard_normal((rows.stop - rows.start, len(noise))), noise,
                  out=trace[rows])
    if channel is not None and magnitude > 0:
        offset = rng.uniform(0.0, 2.0 * math.pi)
        c = maps.err_columns[channel - 1, :4]
        for rows in blocks:
            phase = (2.0 * math.pi * TRACE_CYCLES * np.arange(rows.start, rows.stop) / window
                     + offset)
            dx, dp = magnitude * np.cos(phase), magnitude * np.sin(phase)
            trace[rows] += dx[:, None] * c[:, 0] + dp[:, None] * c[:, 1]
    index = _syndrome((trace - trace.mean(axis=0)).T[:, None], window, maps.thresholds)
    return trace, int(_CODE_TABLE[index[0]])
