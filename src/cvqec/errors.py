"""Stochastic displacement errors.

An error hits one channel with probability gamma.  The physical modulation
(a driven sideband whose phase is slowly swept) is abstracted to a
displacement law: either a fixed magnitude with uniformly random phase, or a
single-quadrature displacement with random sign or Gaussian amplitude.  The
output mixture of a round's branches is ``code.output_mixture``.  The input
checks that other modules share live here too.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

LAW_GENERAL = "general"
LAW_X = "x"
LAW_P = "p"

SHAPE_FIXED = "fixed"
SHAPE_GAUSSIAN = "gaussian"


# The general law's phases: the PHASE_GRID points 2 pi k / PHASE_GRID, one raw
# byte each, with their cos, sin, cos^2 and cos sin.
PHASE_GRID = 256
_ANGLE = 2.0 * math.pi / PHASE_GRID * np.arange(PHASE_GRID)
_PHASE_TRIG = np.column_stack([np.cos(_ANGLE), np.sin(_ANGLE), np.cos(_ANGLE) ** 2,
                               np.cos(_ANGLE) * np.sin(_ANGLE)])
_PHASE_TRIG.flags.writeable = False
_BLOCK_SAMPLES = 32768

# The largest error magnitude a.  Overflow alone would allow far more: a
# window's error sums grow as a^2 * window and their 2x2 determinants as its
# square, finite for any window below 1e142 samples at a = 1e6.  The tighter
# limit is the feedforward's rounding residue.  The round engine maps each
# round's readout factor through its feedforward plan before it forms any
# product, so the error's residue in a corrected variance grows as a, not as
# a^2.  Against a same-seed run at a = 100 (channels 3-5, windows 64 to 4096,
# the general, fixed-x and gaussian-p laws) the corrected variances deviate
# by at most 1.6e-12 relative at a = 1e4, 2.4e-10 at 1e6 and 2.0e-8 at 1e8.
MAX_MAGNITUDE = 1e6


# An error message's repr of an outside value: a long one is cut short.
echo = reprlib.Repr().repr


def bounded(value, what: str, high: float) -> float:
    """A real number in [0, high] as a float; NaN, a bool, a string, an array
    or any other value is a ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= high:
        raise ValueError(f"{what} must be finite and within [0, {high:g}], not {echo(value)}")
    return float(value)


def count(value, what: str, low: int) -> int:
    """An integer of at least ``low`` as an int; NaN, a bool, a float, even
    a whole one, or any other value is a ValueError naming ``what``."""
    if type(value) is int and value >= low:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{what} must be at least {low} and an integer, not {echo(value)}")
    return int(value)


def check_integer(key: str, value, high: float) -> None:
    """A ValueError naming ``key`` unless ``value`` is an int, not a bool, up to ``high``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, not {echo(value)}")
    if value > high:
        raise ValueError(f"{key} must be at most {high}, not {echo(value)}")


def hit_channel(value, *others) -> int | str | None:
    """A hit channel: an integer 1..5, numpy's too but not a bool, as an int,
    or one of the str or None ``others``, such as None for no error or 'uniform'."""
    if (type(value) is int and 1 <= value <= 5
            or isinstance(value, (str, type(None))) and value in others):
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and 1 <= value <= 5:
        return int(value)
    raise ValueError(f"channel must be {' or '.join(['1..5', *map(repr, others)])}, "
                     f"not {echo(value)}")


def _phase_sums(rng: np.random.Generator, n: int, window: int) -> np.ndarray:
    """(n, 4) sums of ``_PHASE_TRIG`` over n windows of grid phases, drawn as
    one ``random_raw`` byte stream.  The stream is cut into blocks of whole
    rows, as many as fit in ``_BLOCK_SAMPLES`` phases with a row counted as
    at least its ``PHASE_GRID`` histogram bins, or, once the window exceeds
    ``_BLOCK_SAMPLES``, into pieces of one row; so memory does not grow with
    the window.  A block's uint16 labels, its row's offset plus its phase
    byte, are written into one buffer per call and counted by one
    ``bincount``, whose counts are cast to float64 before their product with
    ``_PHASE_TRIG``.  A block draws whole 64-bit words, and the at most 7
    bytes past its end open the next block, so the blocks' draws concatenate
    to the unblocked one."""
    sums = np.zeros((n, 4))
    rows = min(n, max(1, _BLOCK_SAMPLES // max(window, PHASE_GRID)))   # per block
    piece = min(window, _BLOCK_SAMPLES)                                 # of a row, per block
    offsets = np.arange(0, rows * PHASE_GRID, PHASE_GRID, dtype=np.uint16)[:, None]
    # One call's buffers, reused by every block: labels or float counts
    # allocated per block let glibc's heap trim and re-fault their pages.
    stream = np.empty(rows * piece + 8, np.uint8)                       # carried bytes first
    labels = np.empty((rows, piece), np.uint16)
    hist = np.empty((rows, PHASE_GRID))
    carried = 0
    for first in range(0, n, rows):
        k = min(rows, n - first)
        for start in range(0, window, piece):
            size = k * min(piece, window - start)
            raw = rng.bit_generator.random_raw(-(-(size - carried) // 8)).view(np.uint8)
            drawn = carried + len(raw)
            stream[carried:drawn] = raw
            block = labels[:k, :size // k]
            np.add(stream[:size].reshape(block.shape), offsets[:k], out=block)
            hist[:k] = np.bincount(block.ravel(), minlength=k * PHASE_GRID).reshape(k, PHASE_GRID)
            sums[first:first + k] += hist[:k] @ _PHASE_TRIG
            carried = drawn - size
            stream[:carried] = stream[size:drawn]
    return sums


@dataclass(frozen=True)
class ErrorLaw:
    """Distribution of the displacement added by one error event.

    ``general`` draws a fixed magnitude at a uniform phase; ``x``/``p`` displace
    a single quadrature, either by +-magnitude (``fixed``) or by a zero-mean
    Gaussian of variance magnitude^2 (``gaussian``).
    """

    kind: str = LAW_GENERAL
    magnitude: float = 1.0
    shape: str = SHAPE_FIXED

    def __post_init__(self):
        if self.kind not in (LAW_GENERAL, LAW_X, LAW_P):
            raise ValueError(f"unknown law kind {echo(self.kind)}")
        if self.shape not in (SHAPE_FIXED, SHAPE_GAUSSIAN):
            raise ValueError(f"unknown law shape {echo(self.shape)}")
        if self.kind == LAW_GENERAL and self.shape != SHAPE_FIXED:
            raise ValueError("the general law supports the fixed shape only")
        object.__setattr__(self, "magnitude", bounded(self.magnitude, "magnitude", MAX_MAGNITUDE))

    def quadrature_variances(self) -> tuple[float, float]:
        """Per-sample variance (Var dx, Var dp) of the displacement series."""
        a2 = self.magnitude ** 2
        if self.kind == LAW_GENERAL:
            return 0.5 * a2, 0.5 * a2
        if self.kind == LAW_X:
            return a2, 0.0
        return 0.0, a2

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Samples a (size, 2) series of displacements (dx, dp)."""
        out = np.zeros((size, 2))
        if self.magnitude == 0:
            return out
        if self.kind == LAW_GENERAL:
            phase = rng.uniform(0.0, 2.0 * math.pi, size)
            out[:, 0] = self.magnitude * np.cos(phase)
            out[:, 1] = self.magnitude * np.sin(phase)
            return out
        col = 0 if self.kind == LAW_X else 1
        if self.shape == SHAPE_FIXED:
            out[:, col] = self.magnitude * rng.choice((-1.0, 1.0), size)
        else:
            out[:, col] = rng.normal(0.0, self.magnitude, size)
        return out

    def window_statistics(self, rng: np.random.Generator, n: int,
                          window: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean (n, 2) and centred Gram matrix (n, 2, 2), both float64, of n
        independent ``draw(rng, window)`` series.  The x/p laws form no
        series and follow ``draw``'s law exactly: a +-1 series is a
        Binomial(window, 1/2) count, a Gaussian one its independent mean and
        chi-square(window - 1) sum of squares.

        The general law puts each phase on the ``PHASE_GRID`` points
        2 pi k / 256, one byte of ``random_raw`` each, and multiplies each
        window's phase histogram into ``_PHASE_TRIG``: no sample's cos/sin is
        formed.  A uniform phase on N points has the continuous law's
        E[cos^a sin^b] for every a + b < N, and the window mean and Gram are
        of degree at most 2 in each sample's (cos, sin), so every joint moment
        of (mean, K) up to order 127 is ``draw``'s.  The sums are within a few
        1e-16 * window of float64 cos/sin sums over the same phases.  ``n``
        must be an integer of at least 0 and ``window`` one of at least 2."""
        n, window = count(n, "n", 0), count(window, "window", 2)
        mean, gram = np.zeros((n, 2)), np.zeros((n, 2, 2))
        a = self.magnitude
        if a == 0 or n == 0:
            return mean, gram
        if self.kind == LAW_GENERAL:
            cx, sx, cc, cs = _phase_sums(rng, n, window).T
            mean[:, 0], mean[:, 1] = cx * (a / window), sx * (a / window)
            # sum of sin^2 is window - sum of cos^2
            gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1] = cc, cs, window - cc
            gram *= a * a
            gram -= window * mean[:, :, None] * mean[:, None, :]
            gram[:, 1, 0] = gram[:, 0, 1]
            return mean, gram
        col = 0 if self.kind == LAW_X else 1
        if self.shape == SHAPE_FIXED:
            total = a * (2.0 * rng.binomial(window, 0.5, n) - window)
            mean[:, col] = total / window
            gram[:, col, col] = window * a * a - total * total / window
        else:
            mean[:, col] = rng.normal(0.0, a / math.sqrt(window), n)
            gram[:, col, col] = a * a * rng.chisquare(window - 1, n)
        return mean, gram


@dataclass(frozen=True)
class ErrorConfig:
    """Occurrence probability, channel policy and displacement law."""

    gamma: float = 1.0
    channel: int | str = "uniform"
    law: ErrorLaw = ErrorLaw()

    def __post_init__(self):
        object.__setattr__(self, "gamma", bounded(self.gamma, "gamma", 1.0))
        object.__setattr__(self, "channel", hit_channel(self.channel, "uniform"))
        if not isinstance(self.law, ErrorLaw):
            raise ValueError(f"law must be an ErrorLaw, not {echo(self.law)}")

