"""CLI harness: config validation, experiment artifacts, determinism."""

import contextlib
import copy
import csv
import dataclasses
import filecmp
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqec import cli
from cvqec.code import (AMBIGUOUS_P, NO_ERROR, moments_from_sums, pooled_moments,
                        pooling_sums, run_rounds, syndrome_trace)
from cvqec.errors import MAX_MAGNITUDE
from cvqec.gaussian import db_to_r, fidelity_from_moments
from test_code import concatenate_outcomes


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_parse_config_defaults():
    cfg = cli.parse_config({})
    assert cfg.code.input_kind == "vacuum"
    assert cfg.code.r == pytest.approx((db_to_r(3.5),) * 4)
    assert cfg.error.gamma == 1.0
    assert cfg.trials == 50 and cfg.window == 512 and cfg.seed == 0
    assert cfg == cli.ExperimentConfig() == cli.load_config(None)


def test_parse_config_sets_only_the_keys_a_document_holds():
    """Each key replaces its one field of ``ExperimentConfig()``: the
    README's example written out at the defaults is the default config, and
    a lone law kind or input squeezing keeps the other values of its part."""
    default = cli.ExperimentConfig()
    spelled = {"code": {"squeezing_db": 3.5, "input": "vacuum", "fourier": False,
                        "channel_loss": None},
               "error": {"gamma": 1.0, "channel": "uniform",
                         "law": {"kind": "general", "magnitude": 5.0, "shape": "fixed"}},
               "trials": 50, "window": 512, "seed": 0, "sweep": None}
    assert cli.parse_config(spelled) == default
    law = dataclasses.replace(default.error.law, kind="x")
    assert (cli.parse_config({"error": {"law": {"kind": "x"}}})
            == dataclasses.replace(default, error=dataclasses.replace(default.error, law=law)))
    code = dataclasses.replace(default.code, input_kind="squeezed", input_squeeze_db=2.0)
    assert (cli.parse_config({"code": {"input": {"squeeze_db": 2.0}}})
            == dataclasses.replace(default, code=code))


@pytest.mark.parametrize("part, value, message", [
    ("code", {"r": 0.4}, "code must be a CodeConfig, not {'r': 0.4}"),
    ("code", None, "code must be a CodeConfig, not None"),
    ("error", None, "error must be an ErrorConfig, not None"),
    ("error", "general", "error must be an ErrorConfig, not 'general'"),
])
def test_config_rejects_parts_of_another_type(part, value, message):
    """A code or error part of the wrong type is a ValueError naming it when
    the config is built, not a failure deep in a runner."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(cli.ExperimentConfig(), **{part: value})


@pytest.mark.parametrize("doc", [
    {"unexpected": 1},
    {"code": {"squeeze": 3.5}},
    {"error": {"probability": 0.5}},
    {"error": {"law": {"kind": "general", "amp": 2}}},
    {"code": {"input": {"db": 3}}},
    {"sweep": {"parameter": "r", "values": [1.0, 2.0], "step": 0.1}},
])
def test_parse_config_rejects_unknown_keys(doc):
    with pytest.raises(ValueError):
        cli.parse_config(doc)


def test_parse_config_validates_sweep():
    with pytest.raises(ValueError):
        cli.parse_config({"sweep": {"parameter": "bogus", "values": [1, 2]}})
    with pytest.raises(ValueError):
        cli.parse_config({"sweep": {"parameter": "r", "values": [1.0]}})


def test_parse_config_squeezed_input():
    cfg = cli.parse_config({"code": {"input": {"squeeze_db": 3.5,
                                               "antisqueeze_db": 8.9}}})
    assert cfg.code.input_kind == "squeezed"
    v_x, v_p = cfg.code.input_variances()
    assert v_p == pytest.approx(0.25 * 10 ** -0.35)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_table2_artifact(tmp_path):
    cfg = cli.parse_config({"trials": 4, "window": 64, "seed": 5})
    cli.run_experiment("table2", cfg, tmp_path)
    rows = _read_csv(tmp_path / "table2.csv")
    assert rows[0][:4] == ["channel", "input", "ancilla", "fidelity_theory"]
    assert len(rows) == 21  # header + 5 channels x 2 inputs x 2 ancillas
    doc = json.loads((tmp_path / "table2.json").read_text())
    assert len(doc["rows"]) == 20
    vac_coh = {int(r["channel"]): float(r["fidelity_theory"])
               for r in doc["rows"]
               if r["input"] == "vacuum" and r["ancilla"] == "coherent"}
    assert vac_coh[3] == pytest.approx(0.612, abs=5e-4)
    assert vac_coh[1] == pytest.approx(1.0)


def test_table2_theory_column_ignores_seed(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for seed, out in ((1, out_a), (2, out_b)):
        cfg = cli.parse_config({"trials": 3, "window": 64, "seed": seed})
        cli.run_experiment("table2", cfg, out)
    rows_a = _read_csv(out_a / "table2.csv")
    rows_b = _read_csv(out_b / "table2.csv")
    theory_a = [r[3] for r in rows_a[1:]]
    theory_b = [r[3] for r in rows_b[1:]]
    mc_a = [r[4] for r in rows_a[1:]]
    mc_b = [r[4] for r in rows_b[1:]]
    assert theory_a == theory_b
    assert mc_a != mc_b


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_table2_deterministic_and_crlf(tmp_path, experiment):
    """Every experiment's artifacts are byte-identical across two runs with
    one seed, and its CSV files end lines with CRLF."""
    doc = {"trials": 3, "window": 64, "seed": 42}
    if experiment == "mc-sweep":
        doc["sweep"] = {"parameter": "gamma", "values": [0.5, 1.0]}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cli.run_experiment(experiment, cli.parse_config(dict(doc)), out)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert any(name.endswith(".csv") for name in names)
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
        if name.endswith(".csv"):
            assert b"\r\n" in (out_a / name).read_bytes()


def test_chunked_rounds_are_run_rounds_on_spawned_seeds():
    """run_chunked_rounds runs ``cli._CHUNK``-round chunks in order, the k-th
    on the k-th child spawned from the seed, so its results depend only on
    the seed and the trial count: at two full chunks and one of 88 rounds,
    its pooled moments (of every round, of a class and of an absent class),
    fidelities and matched fraction are bit for bit those of one outcome
    holding every chunk's rounds."""
    cfg = cli.parse_config({"error": {"gamma": 0.5, "law": {"magnitude": 20.0}}})
    sizes = (cli._CHUNK, cli._CHUNK, 88)
    trials = sum(sizes)
    want = concatenate_outcomes([
        run_rounds(cfg.code, cfg.error, np.random.default_rng(child), size, 32)
        for child, size in zip(np.random.SeedSequence(9).spawn(3), sizes)])
    want_fidelities = fidelity_from_moments(*cfg.code.input_state(), want.corrected_mean,
                                            want.corrected_cov)
    assert AMBIGUOUS_P not in want.final_codes
    for pool in (None, NO_ERROR, 3, AMBIGUOUS_P):
        fold = cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(9), trials,
                                      32, pool)
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
    """The fold of ``run_chunked_rounds``, one ``cli._CHUNK``-round chunk at
    a time: each chunk's fidelities, its ``pooling_sums`` carried onto the
    previous chunks' and its matched count."""
    fidelities, sums, matched = [], None, 0
    children = np.random.SeedSequence(seed).spawn(-(-trials // cli._CHUNK))
    for start, child in zip(range(0, trials, cli._CHUNK), children, strict=True):
        part = run_rounds(cfg.code, cfg.error, np.random.default_rng(child),
                          min(cli._CHUNK, trials - start), window)
        fidelities.append(fidelity_from_moments(*cfg.code.input_state(), part.corrected_mean,
                                                part.corrected_cov))
        sums = pooling_sums(part, pool, sums)
        matched += int(np.count_nonzero(part.matched))
    return moments_from_sums(sums, window), np.concatenate(fidelities), matched / trials


def test_chunked_rounds_fold_groups_as_chunk_by_chunk():
    """At ``cli._GROUP`` full chunks and 76 rounds more (a group of
    ``cli._GROUP`` chunks, then one chunk alone) the grouped fold gives the
    chunk-by-chunk fold's pooled moments (of every round, of one class and of
    an absent class), fidelities and matched fraction bit for bit, on a
    lossy gaussian-p sweep point whose rounds rerun in the rotated basis."""
    cfg = cli.parse_config({"code": {"channel_loss": 0.9},
                            "error": {"gamma": 0.5, "law": {"kind": "p", "shape": "gaussian"}}})
    trials = cli._GROUP * cli._CHUNK + 76
    for pool in (None, 3, AMBIGUOUS_P):
        got = cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(4), trials, 30,
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
    trials = cli._CHUNK + 40
    for pool in (None, 3):
        fold = cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(5), trials,
                                      32, pool)
        assert fold.moments is not None
        assert fold.fidelity == fidelity_from_moments(*cfg.code.input_state(), *fold.moments)
        assert fold.spread == float(np.std(fold.fidelities, ddof=1) / math.sqrt(trials))
    absent = cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(5), trials,
                                    32, AMBIGUOUS_P)
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
            fold = cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(5), 1,
                                          30, pool)
            assert math.isnan(fold.spread)
        assert fold.moments is not None and math.isfinite(fold.fidelity)


@pytest.mark.parametrize("trials, pool", [(0, None), (-1, None), (2.5, None),
                                          (cli.MAX_TRIALS + 1, None), (2 ** 40, None),
                                          (np.int64(300), None), (True, None),
                                          (8, True), (8, "x"), (8, 9), (8, 3.5)])
def test_chunked_rounds_reject_bad_trials_or_pool(monkeypatch, trials, pool):
    """A trial count that is not an int in [1, ``cli.MAX_TRIALS``] (a numpy
    integer or a bool included: ``ExperimentConfig``'s rule), or a
    pool that is not None or a round code 0..7 (a bool included), is a
    ValueError naming it and its value before any seed is spawned (the seed
    sequence is None, which cannot spawn) or round drawn."""
    monkeypatch.setattr(cli, "run_rounds", None)
    cfg = cli.parse_config({})
    name, bad = ("pool", pool) if trials == 8 else ("trials", trials)
    with pytest.raises(ValueError, match=rf"^{name} .*{re.escape(repr(bad))}$"):
        cli.run_chunked_rounds(cfg.code, cfg.error, None, trials, 30, pool)


def test_fold_reads_only_the_rounds_folded_so_far():
    """Before its first round a fold has no estimate, no error bar and no
    accuracy; holding 5 rounds of its 10 trials it reads what a 5-trial fold
    of the same rounds reads, bit for bit, at their window."""
    cfg = cli.parse_config({"error": {"gamma": 0.5, "law": {"magnitude": 20.0}}})
    outcome = run_rounds(cfg.code, cfg.error, np.random.default_rng(3), 5, 30)
    part, whole = cli.Fold(cfg.code, 10), cli.Fold(cfg.code, 5)
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
    empty, fold = cli.Fold(cfg.code, 10), cli.Fold(cfg.code, 10)
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
    first, second = cli.Fold(code, 4), cli.Fold(code, 4)
    assert first == first and first != second


_GROUP_ROUNDS = cli._GROUP * cli._CHUNK


@pytest.mark.parametrize("trials", (1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1,
                                    _GROUP_ROUNDS, _GROUP_ROUNDS + 1, _GROUP_ROUNDS + 76,
                                    2 * _GROUP_ROUNDS + 1))
def test_chunked_rounds_run_one_call_per_chunk(monkeypatch, trials):
    """``run_rounds`` runs exactly ceil(trials / ``cli._CHUNK``) times, on
    ``cli._CHUNK`` rounds each but the last, however the chunks are grouped
    for the fold."""
    sizes = []

    def counted(code_cfg, error_cfg, rng, n_rounds, window):
        sizes.append(n_rounds)
        return run_rounds(code_cfg, error_cfg, rng, n_rounds, window)

    monkeypatch.setattr(cli, "run_rounds", counted)
    cfg = cli.parse_config({})
    cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(2), trials, 30)
    assert len(sizes) == math.ceil(trials / cli._CHUNK)
    assert sizes == ([cli._CHUNK] * (len(sizes) - 1)
                     + [trials - cli._CHUNK * (len(sizes) - 1)])


def test_chunked_rounds_memory_is_flat_in_trials():
    """A run's traced peak memory does not grow with its trials beyond the
    8 bytes a round of its fidelities: 65,536 trials (``65536 / cli._CHUNK``
    chunks) peak within 1 MB plus 8 B a trial of 2,048."""
    cfg = cli.parse_config({"error": {"channel": 3}})

    def peak(trials):
        tracemalloc.start()
        try:
            cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(1), trials, 30, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)                                 # the config's maps, built once
    small, large = peak(2048), peak(65536)
    assert large <= small + 2 ** 20 + 8 * 65536, (small, large)


def test_syndrome_demo_holds_one_trace_at_a_time(tmp_path):
    """The demo writes each channel's trace as ``syndrome_trace`` returns it
    and drops it before the next channel's draw, so at a 2^16-sample window
    its traced peak is within 10 % of one ``syndrome_trace`` call's."""
    cfg = cli.parse_config({"window": 2 ** 16})

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(lambda: syndrome_trace(cfg.code, 1, cfg.window, np.random.default_rng(0),
                                      cfg.error.law.magnitude))
    demo = peak(lambda: cli.run_syndrome_demo(cfg, tmp_path))
    assert demo <= 1.1 * one, (demo, one)


def test_trace_csv_matches_csv_writer_byte_for_byte(tmp_path):
    """The trace writer's numbered rows of float reprs are what ``csv.writer``
    writes, CRLF line ends and no space after a comma included, for awkward
    floats too."""
    header = ["sample", "x_D1", "p_D2", "x_D3", "x_D4"]
    rows = [[0, -0.0, 5e-324, 1e-05, 1e16],
            [1, -1e300, float("nan"), float("inf"), -float("inf")],
            [2, 0.1, -2.5, 1.0, 123456789.123]]
    cli._write_trace_csv(tmp_path / "fast.csv", header, np.array([row[1:] for row in rows]))
    cli._write_csv(tmp_path / "reference.csv", header, rows)
    got = (tmp_path / "fast.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert got.count(b"\r\n") == len(rows) + 1 and b", " not in got
    assert b"0,-0.0,5e-324,1e-05,1e+16\r\n" in got
    cli._write_trace_csv(tmp_path / "empty.csv", header, np.empty((0, 4)))
    cli._write_csv(tmp_path / "empty_reference.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "empty_reference.csv").read_bytes()


def test_tableC1_artifact(tmp_path):
    cfg = cli.parse_config({"seed": 0})
    cli.run_experiment("tableC1", cfg, tmp_path)
    doc = json.loads((tmp_path / "tableC1.json").read_text())
    assert len(doc["rows"]) == 40
    by_key = {(int(r["channel"]), r["quadrature"], r["input"], r["ancilla"]): r
              for r in doc["rows"]}
    assert float(by_key[(4, "p", "vacuum", "coherent")]["noise_db_theory"]) == \
        pytest.approx(9.542, abs=5e-4)
    assert by_key[(4, "p", "vacuum", "coherent")]["noise_db_measured"] == 9.13
    # channels 1-2 with squeezed ancillas were not measured
    assert by_key[(1, "x", "vacuum", "squeezed")]["noise_db_measured"] == ""


def test_syndrome_demo_artifacts(tmp_path):
    cfg = cli.parse_config({"window": 256, "seed": 3,
                            "error": {"law": {"magnitude": 5.0}}})
    cli.run_experiment("syndrome-demo", cfg, tmp_path)
    doc = json.loads((tmp_path / "syndrome_demo.json").read_text())
    for ch in range(1, 6):
        entry = doc["traces"][f"channel-{ch}"]
        assert entry["classification"] == f"channel-{ch}"
        rows = _read_csv(tmp_path / entry["trace_file"])
        assert rows[0] == ["sample", "x_D1", "p_D2", "x_D3", "x_D4"]
        assert len(rows) == 257
    ch1 = _read_csv(tmp_path / "syndrome_demo_ch1.csv")
    data = np.array([[float(v) for v in row[1:]] for row in ch1[1:]])
    baseline = 0.25 * 10 ** -0.35
    assert data[:, 3].var(ddof=1) < 4 * baseline       # D4 flat
    assert np.corrcoef(data[:, 0], data[:, 2])[0, 1] > 0.5   # D1-D3 in phase


def test_witness_artifact(tmp_path):
    cfg = cli.parse_config({"sweep": {"parameter": "r", "values": [0.0, 0.4]}})
    cli.run_experiment("witness", cfg, tmp_path)
    rows = _read_csv(tmp_path / "witness.csv")
    assert len(rows) == 3
    r0 = [float(v) for v in rows[1][1:5]]
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in r0)
    assert rows[2][-1] == "True"


def test_witness_default_grid_holds_the_configured_r(tmp_path):
    """Without an r sweep the witness grid holds the code's r, set directly,
    as four equal per-ancilla values or through ``squeezing_db``."""
    for code, r in (({"r": 1.0}, 1.0), ({"squeezing_db": 6.0}, db_to_r(6.0)),
                    ({"r": [0.7] * 4}, 0.7)):
        cli.run_experiment("witness", cli.parse_config({"code": code}), tmp_path)
        assert r in [float(row[0]) for row in _read_csv(tmp_path / "witness.csv")[1:]]


@pytest.mark.parametrize("r", [0.4, 0.0, 1.0])
def test_witness_default_grid_writes_each_r_once(tmp_path, r):
    """A configured r already on the default grid gives one row, not two, so
    the CSV and the JSON hold the same r values, in sorted order."""
    cli.run_experiment("witness", cli.parse_config({"code": {"r": r}}), tmp_path)
    csv_r = [row[0] for row in _read_csv(tmp_path / "witness.csv")[1:]]
    json_r = list(json.loads((tmp_path / "witness.json").read_text())["results"])
    assert csv_r == json_r == sorted(json_r, key=float)
    assert len(csv_r) == (5 if r in (0.0, 0.4) else 6)
    assert repr(r) in csv_r


def test_witness_sweep_writes_each_r_once(tmp_path):
    """A repeated sweep value gives one row, at its first occurrence."""
    doc = {"sweep": {"parameter": "r", "values": [0.4, 0.0, 0.4, 0]}}
    cli.run_experiment("witness", cli.parse_config(doc), tmp_path)
    assert [row[0] for row in _read_csv(tmp_path / "witness.csv")[1:]] == ["0.4", "0.0"]


def test_spectra_artifact(tmp_path):
    cfg = cli.parse_config({"trials": 4, "window": 64, "seed": 1,
                            "error": {"law": {"magnitude": 5.0}}})
    cli.run_experiment("spectra", cfg, tmp_path)
    doc = json.loads((tmp_path / "spectra.json").read_text())
    assert len(doc["rows"]) == 20
    for row in doc["rows"]:
        if int(row["channel"]) >= 3:
            assert float(row["after_db_theory"]) < float(row["before_db_theory"])


_TOTAL_LOSS = {"trials": 8, "window": 64, "code": {"channel_loss": 0.0}}
_WEAK_ERROR = {"trials": 20, "window": 64, "error": {"law": {"magnitude": 0.05}}}
# The Monte-Carlo and theory columns of each experiment's rows.
_MC_COLUMNS = {"spectra": ("after_db_mc", "after_db_theory"),
               "table2": ("fidelity_mc", "fidelity_theory")}


@pytest.mark.parametrize("experiment,doc", [
    ("spectra", _TOTAL_LOSS), ("spectra", _WEAK_ERROR),
    ("table2", _TOTAL_LOSS), ("table2", _WEAK_ERROR),
], ids=["total-loss", "weak-error", "table2-total-loss", "table2-weak-error"])
def test_spectra_without_rounds_of_the_hit_channel(tmp_path, capsys, experiment, doc):
    """Total loss and a weak error leave channels with no round classified
    as the hit channel: ``cvqec run spectra`` and ``cvqec run table2`` exit
    0 and write their Monte-Carlo column as nan beside a finite theory."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert run_cli(["run", experiment, "--config", config, "--out", tmp_path / "out"]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "out" / f"{experiment}.json").read_text())["rows"]
    assert len(rows) == 20
    mc_column, theory_column = _MC_COLUMNS[experiment]
    mc = [float(row[mc_column]) for row in rows]
    assert any(np.isnan(mc))
    assert all(np.isfinite(float(row[theory_column])) for row in rows)


def test_table2_stderr_is_nan_beside_a_nan_estimate(tmp_path, capsys):
    """Under total loss some table2 rows pool no round of the hit channel
    (channel 1 with a vacuum input and coherent ancillas among them): such a
    row writes ``fidelity_mc_stderr`` as nan beside its nan ``fidelity_mc``,
    and every row with an estimate writes a finite error bar."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_TOTAL_LOSS))
    assert run_cli(["run", "table2", "--config", config, "--out", tmp_path / "out"]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "table2.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    pooled_none = [row for row in rows if row["fidelity_mc"] == "nan"]
    assert pooled_none
    assert ("1", "vacuum", "coherent") in {(r["channel"], r["input"], r["ancilla"])
                                           for r in pooled_none}
    for row in rows:
        stderr = float(row["fidelity_mc_stderr"])
        assert math.isnan(stderr) == (row["fidelity_mc"] == "nan"), row
        assert math.isnan(stderr) or stderr >= 0.0


def test_mc_sweep_r_is_monotone(tmp_path):
    cfg = cli.parse_config({
        "trials": 6, "window": 64, "seed": 2,
        "error": {"channel": 3, "law": {"kind": "general", "magnitude": 8.0}},
        "sweep": {"parameter": "r", "values": [0.0, 0.4, 1.0, 2.0]}})
    cli.run_experiment("mc-sweep", cfg, tmp_path)
    doc = json.loads((tmp_path / "mc_sweep.json").read_text())
    theory = [float(r["fidelity_theory"]) for r in doc["rows"]]
    assert all(b > a for a, b in zip(theory, theory[1:]))
    assert theory[-1] > 0.98
    assert all(float(r["classification_accuracy"]) == 1.0 for r in doc["rows"])


def test_mc_sweep_loss_is_non_increasing(tmp_path):
    cfg = cli.parse_config({
        "trials": 4, "window": 64, "seed": 2,
        "error": {"channel": 4, "law": {"magnitude": 8.0}},
        "sweep": {"parameter": "loss", "values": [1.0, 0.95, 0.9, 0.8]}})
    cli.run_experiment("mc-sweep", cfg, tmp_path)
    doc = json.loads((tmp_path / "mc_sweep.json").read_text())
    theory = [float(r["fidelity_theory"]) for r in doc["rows"]]
    assert all(b <= a + 1e-12 for a, b in zip(theory, theory[1:]))


def test_mc_sweep_requires_sweep_section(tmp_path):
    with pytest.raises(ValueError):
        cli.run_experiment("mc-sweep", cli.parse_config({}), tmp_path)


@pytest.mark.parametrize("key, value, message", [
    ("trials", 2.5, "trials must be an integer, not 2.5"),
    ("trials", 64.0, "trials must be an integer, not 64.0"),
    ("trials", True, "trials must be an integer, not True"),
    ("trials", "40", "trials must be an integer, not '40'"),
    ("trials", np.int64(40), "trials must be an integer"),
    ("window", 64.5, "window must be an integer, not 64.5"),
    ("window", False, "window must be an integer, not False"),
    ("seed", 1.5, "seed must be an integer, not 1.5"),
    ("seed", "4", "seed must be an integer, not '4'"),
    ("trials", cli.MAX_TRIALS + 1, f"trials must be at most {cli.MAX_TRIALS}, not"),
    ("trials", 2 ** 40, f"trials must be at most {cli.MAX_TRIALS}, not 1099511627776"),
    ("window", cli.MAX_WINDOW + 1, f"window must be at most {cli.MAX_WINDOW}, not"),
    ("window", 2 ** 40, f"window must be at most {cli.MAX_WINDOW}, not 1099511627776"),
])
def test_config_built_in_code_rejects_bad_counts(key, value, message):
    """An ``ExperimentConfig`` built in code, not parsed, meets the parser's
    count rules when it is built: trials, window and seed are ints, not
    bools, floats or strings, and trials and window are bounded."""
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(cli.parse_config({"sweep": _GAMMA_SWEEP}), **{key: value})


def test_check_experiment_takes_counts_at_their_bounds():
    cfg = cli.parse_config({"trials": cli.MAX_TRIALS, "window": cli.MAX_WINDOW,
                            "seed": 2 ** 64})
    cli.check_experiment("table2", cfg)


def test_run_experiment_rejects_a_fractional_trial_count_before_it_starts(tmp_path):
    with pytest.raises(ValueError, match="trials must be an integer"):
        cli.run_experiment("table2", dataclasses.replace(cli.parse_config({}), trials=2.5),
                           tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ValueError):
        cli.run_experiment("table3", cli.parse_config({}), tmp_path)


def test_main_runs_and_overrides_seed(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": 2, "window": 64, "seed": 1}))
    rc = run_cli(["run", "table2", "--config", config,
                  "--seed", 7, "--out", tmp_path / "out"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["experiment"] == "table2"
    assert (tmp_path / "out" / "table2.csv").exists()


_GAMMA_SWEEP = {"parameter": "gamma", "values": [0.5, 1.0]}


def test_main_builds_the_config_once_with_the_seed_override(tmp_path, monkeypatch):
    """``--seed`` takes the document's seed's place in the one parse, so a
    sweep run checks its config, sweep values included, once."""
    built = []
    check = cli.ExperimentConfig.__post_init__
    monkeypatch.setattr(cli.ExperimentConfig, "__post_init__",
                        lambda cfg: (built.append(cfg.seed), check(cfg)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "sweep": {"parameter": "r", "values": [0.0, 0.4]}}))
    assert run_cli(["run", "witness", "--config", config, "--seed", 7,
                    "--out", tmp_path / "out"]) == 0
    assert built == [7]


@pytest.mark.parametrize("experiment, change, sweep, message", [
    ("mc-sweep", {"sweep_parameter": "foo"}, {"parameter": "foo", "values": [0.5, 1.0]},
     "unknown sweep parameter 'foo'"),
    ("mc-sweep", {"sweep_values": (0.5,)}, {"parameter": "gamma", "values": [0.5]},
     "a sweep needs at least two values"),
    ("table2", {"sweep_parameter": None}, {"values": [0.5, 1.0]}, "a sweep needs a parameter"),
    ("witness", {"sweep_parameter": None}, {"values": [0.5, 1.0]},
     "a sweep needs a parameter"),
    ("mc-sweep", {"sweep_parameter": ["r"]}, {"parameter": ["r"], "values": [0.5, 1.0]},
     "unknown sweep parameter ['r']"),
    ("mc-sweep", {"sweep_values": (True, False)},
     {"parameter": "gamma", "values": [True, False]},
     "sweep value must be finite and within [0, 1.79769e+308], not True"),
])
def test_config_built_in_code_meets_the_parsed_sweep_rules(tmp_path, experiment, change,
                                                            sweep, message):
    """A gamma sweep's config changed in code is rejected when it is built,
    with the message of a parsed document holding the same sweep, so
    ``run_experiment`` creates no output directory: an unknown or non-str
    parameter, one value, values without a parameter and bool values."""
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.parse_config({"sweep": sweep})
    base = cli.parse_config({"sweep": _GAMMA_SWEEP})
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(base, **change)
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.run_experiment(experiment, dataclasses.replace(base, **change), tmp_path / "out")
    assert not (tmp_path / "out").exists()


_HUGE = 10 ** 400          # a JSON integer beyond the float range

_BAD_CONFIGS = [
    ("table2", {"trials": 0}, "trials must be at least 1"),
    ("table2", {"code": {"squeeze": 3.5}}, "unknown code keys"),
    ("table2", {"window": 29}, "window must be at least 30"),
    ("spectra", {"window": 16}, "window must be at least 30"),
    ("mc-sweep", {"window": 16, "sweep": _GAMMA_SWEEP}, "window must be at least 30"),
    ("syndrome-demo", {"window": 16}, "window must be at least 30"),
    ("table2", {"seed": -1}, "seed must be non-negative"),
    ("mc-sweep", {"sweep": {"parameter": "gamma", "values": [0.5, 1.5]}},
     "sweep gamma = 1.5: gamma must be finite and within [0, 1]"),
    ("table2", {"code": {"fourier": "false"}}, "Fourier flag must be a bool"),
    ("table2", {"window": 64.9}, "window must be an integer"),
    ("table2", {"trials": True}, "trials must be an integer"),
    ("table2", {"seed": "4"}, "seed must be an integer"),
    ("table2", {"trials": 1e400}, "trials must be an integer"),
    ("table2", {"code": {"r": float("nan")}}, "squeezing parameter must be finite"),
    ("table2", {"code": {"r": True}},
     "squeezing parameter must be finite and within [0, 25], not True"),
    ("table2", {"code": {"r": [0.1, "0.2", 0.3, 0.4]}},
     "squeezing parameter must be finite and within [0, 25], not '0.2'"),
    ("table2", {"code": {"squeezing_db": "3.5"}},
     "ancilla squeezing in dB must be finite and within [0, 217.147], not '3.5'"),
    ("table2", {"code": {"input": {"squeeze_db": "3.5"}}},
     "input squeezing in dB must be finite and within [0, 30], not '3.5'"),
    ("table2", {"code": {"input": {"antisqueeze_db": False}}},
     "antisqueezing in dB must be finite and within [0, 30], not False"),
    ("table2", {"code": {"channel_loss": "0.9"}},
     "channel transmissivity must be finite and within [0, 1], not '0.9'"),
    ("table2", {"code": {"channel_loss": [1.0, 0.9, True, 0.9, 1.0]}},
     "channel transmissivity must be finite and within [0, 1], not True"),
    ("table2", {"error": {"channel": True}}, "channel must be 1..5 or 'uniform'"),
    ("table2", {"error": {"channel": 3.0}}, "channel must be 1..5 or 'uniform'"),
    ("table2", {"error": {"gamma": True}}, "gamma must be finite and within [0, 1], not True"),
    ("table2", {"error": {"law": {"magnitude": "5"}}},
     "magnitude must be finite and within [0, 1e+06], not '5'"),
    ("mc-sweep", {"sweep": {"parameter": "gamma", "values": [True, False]}},
     "sweep value must be finite and within [0, 1.79769e+308], not True"),
    ("mc-sweep", {"sweep": {"parameter": "loss", "values": ["1.0", "0.9"]}},
     "sweep value must be finite and within [0, 1.79769e+308], not '1.0'"),
    ("mc-sweep", {"sweep": {"values": [0.1, 0.2]}}, "a sweep needs a parameter"),
    ("mc-sweep", {"sweep": {"parameter": "gamma", "values": 5}}, "sweep values must be a list"),
    ("mc-sweep", {"sweep": {"parameter": "gamma", "values": "ab"}},
     "sweep values must be a list"),
    ("mc-sweep", {"sweep": {"parameter": "gamma"}}, "sweep values must be a list"),
    ("mc-sweep", {"sweep": 5}, "sweep must be a JSON object"),
    ("table2", {"code": 5}, "code must be a JSON object"),
    ("table2", {"error": 5}, "error must be a JSON object"),
    ("table2", {"error": {"law": 3}}, "error.law must be a JSON object"),
    ("table2", {"out": "elsewhere"}, "unknown config keys: ['out']"),
    ("table2", {"code": {"input": {"squeeze_db": 3.5, "antisqueeze_db": 1.0}}},
     "input antisqueezing 1.0 dB is below its squeezing 3.5 dB"),
    ("table2", {"error": {"law": {"magnitude": 1e160}}},
     "magnitude must be finite and within [0, 1e+06]"),
    ("mc-sweep", {"sweep": {"parameter": "magnitude", "values": [5.0, 1e160]}},
     "sweep magnitude = 1e+160: magnitude must be finite and within"),
    ("table2", {"code": {"squeezing_db": 400}},
     "ancilla squeezing in dB must be finite and within [0, 217.147]"),
    ("mc-sweep", {"sweep": {"parameter": "r", "values": [0.4, 10.0, 30.0]}},
     "sweep r = 30.0: squeezing parameter must be finite and within [0, 25]"),
    ("table2", {"code": {"r": 0.5, "squeezing_db": 3.5}}, "code sets both r and squeezing_db"),
    ("witness", {"code": {"r": [0.1, 0.2, 0.3, 0.4]}},
     "the witness experiment needs one r for all ancillas"),
    ("witness", {"code": {"channel_loss": 0.5}},
     "the witness experiment models a lossless code: code.channel_loss must be 1"),
    ("syndrome-demo", {"error": {"law": {"kind": "p"}}}, "error.law.kind must be 'general'"),
    ("table2", {"trials": 1}, "the table2 experiment needs trials of at least 2"),
    ("mc-sweep", {"trials": 1, "sweep": _GAMMA_SWEEP},
     "the mc-sweep experiment needs trials of at least 2"),
    ("tableC1", {"code": {"input": {"squeeze_db": 1e308, "antisqueeze_db": 1e308}}},
     "input squeezing in dB must be finite and within [0, 30]"),
    ("table2", {"code": {"input": {"squeeze_db": -300, "antisqueeze_db": 300}}},
     "input squeezing in dB must be finite and within [0, 30]"),
    ("table2", {"code": {"r": _HUGE}}, "squeezing parameter must be finite and within [0, 25]"),
    ("table2", {"code": {"squeezing_db": _HUGE}},
     "ancilla squeezing in dB must be finite and within [0, 217.147]"),
    ("tableC1", {"code": {"input": {"squeeze_db": _HUGE, "antisqueeze_db": _HUGE}}},
     "input squeezing in dB must be finite and within [0, 30]"),
    ("tableC1", {"code": {"input": {"antisqueeze_db": _HUGE}}},
     "antisqueezing in dB must be finite and within [0, 30]"),
    ("spectra", {"code": {"channel_loss": _HUGE}},
     "channel transmissivity must be finite and within [0, 1]"),
    ("table2", {"error": {"gamma": _HUGE}}, "gamma must be finite and within [0, 1]"),
    ("spectra", {"error": {"law": {"magnitude": _HUGE}}},
     "magnitude must be finite and within [0, 1e+06]"),
    ("mc-sweep", {"sweep": {"parameter": "loss", "values": [1.0, _HUGE]}},
     "sweep value must be finite and within"),
    ("mc-sweep", {"sweep": {"parameter": "loss", "values": [1.0, [1.0, 0.9, 0.9, 0.9, 1.0]]}},
     "sweep value must be finite and within"),
    ("table2", {"trials": _HUGE}, f"trials must be at most {cli.MAX_TRIALS}"),
    ("table2", {"trials": cli.MAX_TRIALS + 1}, f"trials must be at most {cli.MAX_TRIALS}"),
    ("syndrome-demo", {"window": 10 ** 11}, f"window must be at most {cli.MAX_WINDOW}"),
    ("table2", {"window": cli.MAX_WINDOW + 1}, f"window must be at most {cli.MAX_WINDOW}"),
    ("tableC1", {"experiment": "tableC1"}, "unknown config keys: ['experiment']"),
    ("table2", {"error": {"channel": "u" * 10 ** 4}}, "channel must be 1..5 or 'uniform', not 'uuu"),
    ("table2", {"code": {"r": -_HUGE}}, "squeezing parameter must be finite and within [0, 25], not -1"),
    ("table2", {"seed": -_HUGE}, "seed must be non-negative, not -1000"),
    ("table2", {"code": {"input": "v" * 10 ** 4}}, "unknown input spec 'vvv"),
    ("table2", {"code": {"x" * 10 ** 4: 1}}, "unknown code keys: ['xxx"),
    # deeper than json's recursion limit, written as text: json.dumps recurses too
    ("table2", "[" * 2000 + "]" * 2000, "bad config: maximum recursion depth exceeded"),
    ("table2", '{"code": {"r": ' + "[" * 2000 + "]" * 2000 + "}}",
     "bad config: maximum recursion depth exceeded"),
    # the window floor holds for experiments that draw no syndrome too
    *((name, {"window": window}, f"window must be at least 30, not {window}")
      for name in ("tableC1", "witness") for window in (-5, 0, 29)),
]


@pytest.mark.parametrize("experiment,doc,message", _BAD_CONFIGS,
                         ids=[f"doc{i}-{m}" for i, (_, _, m) in enumerate(_BAD_CONFIGS)])
def test_main_reports_bad_config_as_usage_error(tmp_path, capsys, experiment, doc, message):
    """A bad config stops ``cvqec run <experiment>`` with exit 2 before the
    runner starts, and its message echoes a huge number or a long string
    shortened: stderr stays below 300 bytes."""
    config = tmp_path / "cfg.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", experiment, "--config", config, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.encode()) < 300, err
    assert not (tmp_path / "out").exists()


def test_spectra_runs_one_trial(tmp_path):
    """spectra writes no stderr column, so a single trial is a valid run."""
    cli.run_experiment("spectra", cli.parse_config({"trials": 1, "window": 64}), tmp_path)
    assert (tmp_path / "spectra.csv").exists()


def test_largest_magnitude_runs_table2_cleanly(tmp_path):
    """At the largest accepted error magnitude table2 raises no numpy
    warning and writes only finite numbers."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": 32, "window": 64,
                                  "error": {"law": {"magnitude": MAX_MAGNITUDE}}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "table2", "--config", config, "--out", tmp_path / "out"]) == 0
    with open(tmp_path / "out" / "table2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for row in rows:
        for key in ("fidelity_theory", "fidelity_mc", "fidelity_mc_stderr"):
            assert np.isfinite(float(row[key])), (key, row)


def test_main_reports_uncreatable_out_as_usage_error(tmp_path, capsys):
    """An output directory that cannot be created (here below a file) stops
    ``cvqec run`` with exit 2, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "tableC1", "--out", blocker / "x"])
    assert exc.value.code == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_main_reports_mc_sweep_without_sweep_as_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "mc-sweep", "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert "mc-sweep requires a sweep section" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_reports_witness_sweep_over_gamma_as_usage_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sweep": {"parameter": "gamma", "values": [0.1, 0.5]}}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "witness", "--config", config, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert "the witness experiment sweeps r only" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["run", "tableX", "--out", tmp_path])


def test_main_writes_to_cvqec_out_by_default(tmp_path, monkeypatch, capsys):
    """The output directory is set by ``--out`` alone, and is ``cvqec-out``
    without it."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", "tableC1"]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == "cvqec-out"
    assert (tmp_path / "cvqec-out" / "tableC1.csv").exists()


# Valid values of each schema entry, its bounds among them, each taken in one
# sampled draw: float ranges cost far more to draw, and the model tests draw
# them.  Runs stay tiny: at most 40 trials and 100 samples per window.
_TRIALS, _WINDOW = st.sampled_from([1, 2, 3, 40]), st.sampled_from([30, 30, 64, 100])
_UNIT = [0.0, 0.3, 0.9, 1.0]
_SCHEMA = {
    ("code", "r"): [0.0, 0.4, 25.0, [0.0, 0.4, 2.0, 25.0], [25.0] * 4],
    ("code", "squeezing_db"): [0.0, 3.5, 217.0],
    ("code", "input"): ["vacuum", {"squeeze_db": 3.5, "antisqueeze_db": 8.9},
                        {"squeeze_db": 0.0, "antisqueeze_db": 30.0},
                        {"squeeze_db": 30.0, "antisqueeze_db": 30.0}],
    ("code", "fourier"): [False, True],
    ("code", "channel_loss"): [None, 0.0, 0.3, 1.0, [1.0, 0.9, 0.0, 0.5, 1.0]],
    ("error", "gamma"): _UNIT,
    ("error", "channel"): ["uniform", 1, 2, 3, 4, 5],
    ("error", "law"): [{}, {"magnitude": 0.05}, {"magnitude": MAX_MAGNITUDE}]
    + [{"kind": kind, "shape": shape, "magnitude": magnitude} for kind in ("x", "p")
       for shape in ("fixed", "gaussian") for magnitude in (0.0, 5.0, MAX_MAGNITUDE)],
    ("seed",): [0, 7, 2 ** 64, 10 ** 400],
    ("sweep",): [{"parameter": p, "values": v} for p in ("r", "gamma", "magnitude", "loss")
                 for v in ([0.0, 1.0], [1.0, 0.3, 0.0])],
}
# A value in place of an entry.  A size takes only values that are rejected
# or tiny; any other entry also takes out-of-range and odd values.
_SIZE_WILD = st.sampled_from([
    10 ** 400, -(10 ** 400), math.nan, math.inf, -math.inf, -1, 0, 1, 29, 64.5, 1e400,
    cli.MAX_TRIALS + 1, cli.MAX_WINDOW + 1, 10 ** 11, True, False, "1", None, [], [0.5, 0.5], {}])
_WILD = _SIZE_WILD | st.sampled_from([
    -1e-300, 5e-324, 0.5, 1.0000001, 25.000001, 50.0, 217.2, 30.5, 1e6, 1e6 + 1, 1e7, 1e308,
    -0.0, "general", "gaussian", "uniform", "vacuum", [1.0] * 5, [0.4] * 4, [[0.4] * 4] * 4])
_WILD_PATHS = [*_SCHEMA, ("trials",), ("window",), ("code",), ("error",),
               ("error", "law", "magnitude"), ("error", "law", "kind"), ("sweep", "values"),
               ("sweep", "parameter"), ("code", "input", "antisqueeze_db"), ("out",)]


def _set_in(doc, path, value):
    """Sets the entry at ``path``, unless a wild value replaced a section on it."""
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
        if not isinstance(doc, dict):
            return
    doc[path[-1]] = value


_ABSENT = object()
_ENTRIES = [(path, st.sampled_from([_ABSENT, *values])) for path, values in _SCHEMA.items()]
_WILD_ENTRIES = st.lists(st.sampled_from(_WILD_PATHS), max_size=2)


@st.composite
def _cli_docs(draw):
    """A config document of tiny sizes and schema entries, each present or
    not (r or squeezing_db, not both), with up to two entries or sections
    replaced by a wild value, or an unknown key added."""
    doc = {"trials": draw(_TRIALS), "window": draw(_WINDOW)}
    for path, values in _ENTRIES:
        value = draw(values)
        both_r = path[-1] == "squeezing_db" and "r" in doc.get("code", {})
        if value is not _ABSENT and not both_r:
            _set_in(doc, path, copy.deepcopy(value))
    for path in draw(_WILD_ENTRIES):
        _set_in(doc, path, draw(_SIZE_WILD if path in (("trials",), ("window",)) else _WILD))
    return doc


# The Monte-Carlo columns the README allows to read nan, and the error bar
# that reads nan beside a nan estimate.
_NAN_COLUMNS = {"fidelity_mc", "after_db_mc"}
_NAN_BESIDE = {"fidelity_mc_stderr": "fidelity_mc"}


@given(experiment=st.sampled_from(cli.EXPERIMENTS), doc=_cli_docs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_cli_ends_in_a_usage_error_or_finite_tables(experiment, doc):
    """``cvqec run`` on any config either exits 2 with a message and no
    output directory, or exits 0 and writes CSV columns whose numbers are
    finite, but for a documented nan column; any warning fails the draw."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = run_cli(["run", experiment, "--config", config, "--out", out])
            except SystemExit as exc:
                code = exc.code
        if code == 2:
            assert "error:" in err.getvalue() and not out.exists()
            return
        assert code == 0
        tables = list(out.glob("*.csv"))
        assert tables
        for path in tables:
            header, *rows = _read_csv(path)
            for row in rows:
                cells = dict(zip(header, row))
                for key, cell in cells.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue                    # a label, a flag or no measured value
                    allowed = (key in _NAN_COLUMNS
                               or key in _NAN_BESIDE and cells[_NAN_BESIDE[key]] == "nan")
                    assert math.isfinite(value) or allowed and math.isnan(value), \
                        (path.name, key, row)
