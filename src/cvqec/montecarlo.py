"""Seeded chunked Monte Carlo: ``run_chunked_rounds`` runs ``code.run_rounds``
on chunks of ``_CHUNK`` rounds, each on its own spawned seed, and folds each
group of up to ``_GROUP`` chunks into one ``Fold`` as soon as it is drawn.
``check_trials`` is the trial-count rule of folds and ``cli.ExperimentConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .code import (CODE_NAMES, CodeConfig, RoundsOutcome, moments_from_sums, pooling_sums,
                   run_rounds)
from .errors import ErrorConfig, check_integer, count, echo
from .gaussian import fidelity_from_moments

# Rounds per ``run_rounds`` call.  Each call also pays a cost that barely
# grows with its rounds, about 150 us outside its draws at 8 rounds of the
# sweep's shape on a 2-vCPU x86-64 host, which larger chunks would pay less
# often.  The benchmark's ``perfbench/workloads.py`` mirrors it as ``CHUNK``,
# and ``perfbench/run.py``'s ``check_counts`` requires exactly
# ceil(trials / 256) ``run_rounds`` calls per configuration, so a change of
# ``_CHUNK`` alone fails every benchmark run: larger chunks wait until that
# count check no longer fixes the chunk size.
_CHUNK = 256
_GROUP = 4                  # chunks folded at once: 1,024 rounds

# The largest trial count.  A fold keeps 8 bytes a round: measured with
# getrusage (2-vCPU x86-64 host, numpy 2.4), table2 at MAX_TRIALS (window 30)
# peaks at 74 MB of resident memory in 240 s.
MAX_TRIALS = 2 ** 21


def check_trials(trials) -> None:
    """The trials rule of configs and folds: an int, not a bool, in [1, ``MAX_TRIALS``]."""
    check_integer("trials", trials, MAX_TRIALS)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {echo(trials)}")


@dataclass(eq=False)
class Fold:
    """A configuration's Monte-Carlo run as ``add`` folds in its rounds, at
    most ``trials``, at the window of the first ``RoundsOutcome`` added,
    which every later one shares: the ``pooling_sums`` of the rounds of
    final code ``pool`` (every round when None), added in round order and so
    one batch's bit for bit however the rounds are grouped; every round's
    fidelity against the input of ``code``; the matched count.  Every reading
    is over the rounds folded so far.  A fold that pooled no round has no
    estimate and no error bar: its ``moments`` are None, ``fidelity`` and
    ``spread`` nan.  One of fewer than two rounds has no error bar either,
    and one of no round no ``accuracy``.  ``trials`` meets
    ``check_trials``."""
    code: CodeConfig
    trials: int
    pool: int | None = None
    window: int | None = field(default=None, init=False)
    sums: np.ndarray | None = field(default=None, init=False)
    rounds: int = field(default=0, init=False)
    matched: int = field(default=0, init=False)
    _fidelities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_trials(self.trials)
        if self.pool is not None and count(self.pool, "pool", 0) >= len(CODE_NAMES):
            raise ValueError(f"pool must be None or a round code 0..7, not {echo(self.pool)}")
        self._fidelities = np.empty(self.trials)

    def add(self, outcome: RoundsOutcome) -> None:
        """Folds in ``outcome``'s rounds after those folded so far."""
        n = len(outcome.final_codes)
        if self.window not in (None, outcome.window):
            raise ValueError(f"a batch at window {outcome.window} cannot join a fold "
                             f"at window {self.window}")
        if self.rounds + n > self.trials:
            raise ValueError(f"a batch of {n} rounds overfills a fold of {self.trials} "
                             f"trials that holds {self.rounds}")
        self.window = outcome.window
        self._fidelities[self.rounds:self.rounds + n] = fidelity_from_moments(
            *self.code.input_state(), outcome.corrected_mean, outcome.corrected_cov)
        self.rounds += n
        self.sums = pooling_sums(outcome, self.pool, self.sums)
        self.matched += int(np.count_nonzero(outcome.matched))

    @property
    def fidelities(self) -> np.ndarray:
        """Each round's fidelity, in round order."""
        return self._fidelities[:self.rounds]

    @property
    def moments(self) -> tuple[np.ndarray, np.ndarray] | None:
        return None if self.sums is None else moments_from_sums(self.sums, self.window)

    @property
    def fidelity(self) -> float:
        return (math.nan if (moments := self.moments) is None
                else fidelity_from_moments(*self.code.input_state(), *moments))

    @property
    def spread(self) -> float:
        """Every round's fidelity's sample standard deviation over sqrt(n),
        not the standard error of ``fidelity``, which pools only ``pool``;
        nan below two rounds, where no deviation is defined."""
        return math.nan if self.moments is None or self.rounds < 2 else float(
            np.std(self.fidelities, ddof=1) / math.sqrt(self.rounds))

    @property
    def accuracy(self) -> float:
        return self.matched / self.rounds if self.rounds else math.nan


def run_chunked_rounds(code_cfg: CodeConfig, error_cfg: ErrorConfig,
                       seed_seq: np.random.SeedSequence, trials: int, window: int,
                       pool: int | None = None) -> Fold:
    """Runs trials in chunks of ``_CHUNK`` rounds, each with its own RNG
    stream, and adds each group of up to ``_GROUP`` chunks to the returned
    ``Fold`` as soon as it is drawn.  The chunk seeds are spawned up front in
    chunk order, so the fold depends only on the seed and the trial count."""
    fold = Fold(code_cfg, trials, pool)
    children = seed_seq.spawn(-(-fold.trials // _CHUNK))
    for first in range(0, len(children), _GROUP):
        parts = [run_rounds(code_cfg, error_cfg, np.random.default_rng(child),
                            min(_CHUNK, trials - begin), window)
                 for begin, child in zip(range(first * _CHUNK, trials, _CHUNK),
                                         children[first:first + _GROUP])]
        fold.add(parts[0] if len(parts) == 1 else _joined(parts))
        del parts                       # one group's outcome at a time
    return fold


def _joined(parts: list[RoundsOutcome]) -> RoundsOutcome:
    """One outcome holding the rounds of ``parts`` in order."""
    return RoundsOutcome(parts[0].window, *(np.concatenate(column) for column in zip(
        *((p.channels, p.final_codes, p.syndrome, p.corrected_mean, p.corrected_cov)
          for p in parts))))
