"""The Monte-Carlo fold: chunked rounds on spawned seeds, grouped folds
equal to one batch bit for bit, the trials and pool rules, flat memory."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cvqec import cli, montecarlo
from cvqec.code import (AMBIGUOUS_P, NO_ERROR, moments_from_sums, pooled_moments,
                        pooling_sums, run_rounds)
from cvqec.gaussian import fidelity_from_moments
from cvqec.montecarlo import _CHUNK, _GROUP, MAX_TRIALS, Fold, run_chunked_rounds
from test_code import concatenate_outcomes


def test_chunked_rounds_are_run_rounds_on_spawned_seeds():
    """run_chunked_rounds runs ``_CHUNK``-round chunks in order, the k-th on
    the k-th child spawned from the seed, so its results depend only on
    the seed and the trial count: at two full chunks and one of 88 rounds,
    its pooled moments (of every round, of a class and of an absent class),
    fidelities and matched fraction are bit for bit those of one outcome
    holding every chunk's rounds."""
    cfg = cli.parse_config({"error": {"gamma": 0.5, "law": {"magnitude": 20.0}}})
    sizes = (_CHUNK, _CHUNK, 88)
    trials = sum(sizes)
    want = concatenate_outcomes([
        run_rounds(cfg.code, cfg.error, np.random.default_rng(child), size, 32)
        for child, size in zip(np.random.SeedSequence(9).spawn(3), sizes)])
    want_fidelities = fidelity_from_moments(*cfg.code.input_state(), want.corrected_mean,
                                            want.corrected_cov)
    assert AMBIGUOUS_P not in want.final_codes
    for pool in (None, NO_ERROR, 3, AMBIGUOUS_P):
        fold = run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(9), trials, 32,
                                  pool)
        want_pooled = pooled_moments(want, pool)
        if pool == AMBIGUOUS_P:
            assert fold.moments is None and want_pooled is None
        else:
            for got_part, want_part in zip(fold.moments, want_pooled, strict=True):
                np.testing.assert_array_equal(got_part, want_part)
        assert len(fold.fidelities) == trials
        np.testing.assert_array_equal(fold.fidelities, want_fidelities)
        assert fold.accuracy == want.summary.accuracy


def _fold_chunk_by_chunk(cfg, seed, trials, window, pool):
    """The fold of ``run_chunked_rounds``, one ``_CHUNK``-round chunk at
    a time: each chunk's fidelities, its ``pooling_sums`` carried onto the
    previous chunks' and its matched count."""
    fidelities, sums, matched = [], None, 0
    children = np.random.SeedSequence(seed).spawn(-(-trials // _CHUNK))
    for start, child in zip(range(0, trials, _CHUNK), children, strict=True):
        part = run_rounds(cfg.code, cfg.error, np.random.default_rng(child),
                          min(_CHUNK, trials - start), window)
        fidelities.append(fidelity_from_moments(*cfg.code.input_state(), part.corrected_mean,
                                                part.corrected_cov))
        sums = pooling_sums(part, pool, sums)
        matched += int(np.count_nonzero(part.matched))
    return moments_from_sums(sums, window), np.concatenate(fidelities), matched / trials


def test_chunked_rounds_fold_groups_as_chunk_by_chunk():
    """At ``_GROUP`` full chunks and 76 rounds more (a group of
    ``_GROUP`` chunks, then one chunk alone) the grouped fold gives the
    chunk-by-chunk fold's pooled moments (of every round, of one class and of
    an absent class), fidelities and matched fraction bit for bit, on a
    lossy gaussian-p sweep point whose rounds rerun in the rotated basis."""
    cfg = cli.parse_config({"code": {"channel_loss": 0.9},
                            "error": {"gamma": 0.5, "law": {"kind": "p", "shape": "gaussian"}}})
    trials = _GROUP * _CHUNK + 76
    for pool in (None, 3, AMBIGUOUS_P):
        got = run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(4), trials, 30,
                                 pool)
        want = _fold_chunk_by_chunk(cfg, 4, trials, 30, pool)
        want_moments, want_fidelities, want_accuracy = want
        if pool == AMBIGUOUS_P:
            assert got.moments is None and want_moments is None
        else:
            for got_part, want_part in zip(got.moments, want_moments, strict=True):
                np.testing.assert_array_equal(got_part, want_part)
        np.testing.assert_array_equal(got.fidelities, want_fidelities)
        assert got.accuracy == want_accuracy


def test_fold_estimate_is_the_pooled_fidelity_and_the_spread_of_every_round():
    """A fold that pooled a class reads the fidelity of its pooled moments
    against the input and every round's fidelity's sample standard deviation
    over sqrt(n), bit for bit; one that pooled no round reads nan for both."""
    cfg = cli.parse_config({"error": {"gamma": 0.5, "law": {"magnitude": 20.0}}})
    trials = _CHUNK + 40
    for pool in (None, 3):
        fold = run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(5), trials, 32,
                                  pool)
        assert fold.moments is not None
        assert fold.fidelity == fidelity_from_moments(*cfg.code.input_state(), *fold.moments)
        assert fold.spread == float(np.std(fold.fidelities, ddof=1) / math.sqrt(trials))
    absent = run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(5), trials, 32,
                                AMBIGUOUS_P)
    assert absent.moments is None
    assert math.isnan(absent.fidelity) and math.isnan(absent.spread)


def test_one_round_fold_has_an_estimate_but_no_spread():
    """One round has no sample deviation: ``spread`` is nan without numpy's
    degrees-of-freedom warning, while a pooled round still gives a finite
    ``fidelity``."""
    cfg = cli.parse_config({"error": {"channel": 3, "law": {"magnitude": 20.0}}})
    for pool in (None, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fold = run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(5), 1, 30,
                                      pool)
            assert math.isnan(fold.spread)
        assert fold.moments is not None and math.isfinite(fold.fidelity)


@pytest.mark.parametrize("trials, pool", [(0, None), (-1, None), (2.5, None),
                                          (MAX_TRIALS + 1, None), (2 ** 40, None),
                                          (np.int64(300), None), (True, None),
                                          (8, True), (8, "x"), (8, 9), (8, 3.5)])
def test_chunked_rounds_reject_bad_trials_or_pool(monkeypatch, trials, pool):
    """A trial count that is not an int in [1, ``MAX_TRIALS``] (a numpy
    integer or a bool included: ``ExperimentConfig``'s rule), or a
    pool that is not None or a round code 0..7 (a bool included), is a
    ValueError naming it and its value before any seed is spawned (the seed
    sequence is None, which cannot spawn) or round drawn."""
    monkeypatch.setattr(montecarlo, "run_rounds", None)
    cfg = cli.parse_config({})
    name, bad = ("pool", pool) if trials == 8 else ("trials", trials)
    with pytest.raises(ValueError, match=rf"^{name} .*{re.escape(repr(bad))}$"):
        run_chunked_rounds(cfg.code, cfg.error, None, trials, 30, pool)


def test_fold_reads_only_the_rounds_folded_so_far():
    """Before its first round a fold has no estimate, no error bar and no
    accuracy; holding 5 rounds of its 10 trials it reads what a 5-trial fold
    of the same rounds reads, bit for bit, at their window."""
    cfg = cli.parse_config({"error": {"gamma": 0.5, "law": {"magnitude": 20.0}}})
    outcome = run_rounds(cfg.code, cfg.error, np.random.default_rng(3), 5, 30)
    part, whole = Fold(cfg.code, 10), Fold(cfg.code, 5)
    assert part.window is None and part.moments is None and len(part.fidelities) == 0
    assert all(map(math.isnan, (part.fidelity, part.spread, part.accuracy)))
    part.add(outcome)
    whole.add(outcome)
    assert part.rounds == 5 and part.window == whole.window == 30
    np.testing.assert_array_equal(part.fidelities, whole.fidelities)
    assert math.isfinite(part.spread) and math.isfinite(part.fidelity)
    assert ((part.accuracy, part.spread, part.fidelity)
            == (whole.accuracy, whole.spread, whole.fidelity))
    assert part.accuracy == np.count_nonzero(outcome.matched) / 5


def test_fold_rejects_a_batch_at_another_window_or_past_its_trials():
    """A batch at another window than the fold's, or one with more rounds
    than the fold has trials left, is a ValueError naming both numbers, and
    the fold is left as it was."""
    cfg = cli.parse_config({})
    empty, fold = Fold(cfg.code, 10), Fold(cfg.code, 10)
    fold.add(run_rounds(cfg.code, cfg.error, np.random.default_rng(1), 4, 30))
    with pytest.raises(ValueError, match="^a batch at window 64 cannot join a fold at window 30$"):
        fold.add(run_rounds(cfg.code, cfg.error, np.random.default_rng(2), 4, 64))
    for held, target in ((0, empty), (4, fold)):
        with pytest.raises(ValueError, match=f"^a batch of 20 rounds overfills a fold of 10 "
                                             f"trials that holds {held}$"):
            target.add(run_rounds(cfg.code, cfg.error, np.random.default_rng(2), 20, 30))
    assert (empty.rounds, empty.window, empty.sums) == (0, None, None)
    assert (fold.rounds, fold.window, len(fold.fidelities)) == (4, 30, 4)


def test_folds_compare_by_identity():
    """A fold holds numpy arrays, so folds compare by identity, as
    ``RoundsOutcome``s do, and never ask numpy for an array's truth value."""
    code = cli.parse_config({}).code
    first, second = Fold(code, 4), Fold(code, 4)
    assert first == first and first != second


_GROUP_ROUNDS = _GROUP * _CHUNK


@pytest.mark.parametrize("trials", (1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                    _GROUP_ROUNDS, _GROUP_ROUNDS + 1, _GROUP_ROUNDS + 76,
                                    2 * _GROUP_ROUNDS + 1))
def test_chunked_rounds_run_one_call_per_chunk(monkeypatch, trials):
    """``run_rounds`` runs exactly ceil(trials / ``_CHUNK``) times, on
    ``_CHUNK`` rounds each but the last, however the chunks are grouped
    for the fold."""
    sizes = []

    def counted(code_cfg, error_cfg, rng, n_rounds, window):
        sizes.append(n_rounds)
        return run_rounds(code_cfg, error_cfg, rng, n_rounds, window)

    monkeypatch.setattr(montecarlo, "run_rounds", counted)
    cfg = cli.parse_config({})
    run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(2), trials, 30)
    assert len(sizes) == math.ceil(trials / _CHUNK)
    assert sizes == ([_CHUNK] * (len(sizes) - 1)
                     + [trials - _CHUNK * (len(sizes) - 1)])


def test_chunked_rounds_memory_is_flat_in_trials():
    """A run's traced peak memory does not grow with its trials beyond the
    8 bytes a round of its fidelities: 65,536 trials (``65536 / _CHUNK``
    chunks) peak within 1 MB plus 8 B a trial of 2,048."""
    cfg = cli.parse_config({"error": {"channel": 3}})

    def peak(trials):
        tracemalloc.start()
        try:
            run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(1), trials, 30, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)                                 # the config's maps, built once
    small, large = peak(2048), peak(65536)
    assert large <= small + 2 ** 20 + 8 * 65536, (small, large)
