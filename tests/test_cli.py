"""CLI harness: config validation, experiment artifacts, determinism."""

import csv
import dataclasses
import filecmp
import json
import warnings

import numpy as np
import pytest

from cvqec import cli
from cvqec.code import RoundsOutcome, run_rounds
from cvqec.errors import MAX_MAGNITUDE
from cvqec.gaussian import db_to_r


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_parse_config_defaults():
    cfg = cli.parse_config({})
    assert cfg.code.input_kind == "vacuum"
    assert cfg.code.r == pytest.approx((db_to_r(3.5),) * 4)
    assert cfg.error.gamma == 1.0
    assert cfg.trials == 50 and cfg.window == 512 and cfg.seed == 0


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
    """run_chunked_rounds runs 256-round chunks in order, the k-th on the k-th
    child spawned from the seed, so its outcome depends only on the seed and
    the trial count."""
    cfg = cli.parse_config({"error": {"gamma": 0.5, "law": {"magnitude": 20.0}}})
    got = cli.run_chunked_rounds(cfg.code, cfg.error, np.random.SeedSequence(9), 600, 32)
    want = RoundsOutcome.concatenate([
        run_rounds(cfg.code, cfg.error, np.random.default_rng(child), size, 32)
        for child, size in zip(np.random.SeedSequence(9).spawn(3), (256, 256, 88))])
    assert len(got.channels) == 600
    for f in dataclasses.fields(got):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), f.name)


def test_trace_csv_matches_csv_writer_byte_for_byte(tmp_path):
    """The trace writer's numbered rows of float reprs are what ``csv.writer``
    writes, CRLF line ends and no space after a comma included, for awkward
    floats too."""
    header = ["sample", "x_D1", "p_D2", "x_D3", "x_D4"]
    rows = [[0, -0.0, 5e-324, 1e-05, 1e16],
            [1, -1e300, float("nan"), float("inf"), -float("inf")],
            [2, 0.1, -2.5, 1.0, 123456789.123]]
    cli._write_trace_csv(tmp_path / "fast.csv", header, [row[1:] for row in rows])
    cli._write_csv(tmp_path / "reference.csv", header, rows)
    got = (tmp_path / "fast.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert got.count(b"\r\n") == len(rows) + 1 and b", " not in got
    assert b"0,-0.0,5e-324,1e-05,1e+16\r\n" in got
    cli._write_trace_csv(tmp_path / "empty.csv", header, [])
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


@pytest.mark.parametrize("doc,message", [
    ({"trials": 0}, "trials must be at least 1"),
    ({"code": {"squeeze": 3.5}}, "unknown code keys"),
    ({"window": 29}, "window must be at least 30"),
    ({"experiment": "spectra", "window": 16}, "window must be at least 30"),
    ({"experiment": "mc-sweep", "window": 16, "sweep": _GAMMA_SWEEP},
     "window must be at least 30"),
    ({"experiment": "syndrome-demo", "window": 16}, "window must be at least 30"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "gamma", "values": [0.5, 1.5]}},
     "sweep gamma = 1.5: gamma must lie in [0, 1]"),
    ({"code": {"fourier": "false"}}, "code.fourier must be true or false"),
    ({"window": 64.9}, "window must be an integer"),
    ({"trials": True}, "trials must be an integer"),
    ({"seed": "4"}, "seed must be an integer"),
    ({"trials": 1e400}, "trials must be an integer"),
    ({"code": {"r": float("nan")}}, "squeezing parameter must be finite"),
    ({"code": {"r": True}}, "squeezing parameter must be a number"),
    ({"code": {"r": [0.1, "0.2", 0.3, 0.4]}}, "squeezing parameter must be a number"),
    ({"code": {"squeezing_db": "3.5"}}, "code.squeezing_db must be a number"),
    ({"code": {"input": {"squeeze_db": "3.5"}}}, "code.input.squeeze_db must be a number"),
    ({"code": {"input": {"antisqueeze_db": False}}},
     "code.input.antisqueeze_db must be a number"),
    ({"code": {"channel_loss": "0.9"}}, "code.channel_loss must be a number"),
    ({"code": {"channel_loss": [1.0, 0.9, True, 0.9, 1.0]}},
     "code.channel_loss must be a number"),
    ({"error": {"channel": True}}, "channel must be 1..5 or 'uniform'"),
    ({"error": {"channel": 3.0}}, "channel must be 1..5 or 'uniform'"),
    ({"error": {"gamma": True}}, "error.gamma must be a number"),
    ({"error": {"law": {"magnitude": "5"}}}, "error.law.magnitude must be a number"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "gamma", "values": [True, False]}},
     "sweep value must be a number"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "loss", "values": ["1.0", "0.9"]}},
     "sweep value must be a number"),
    ({"experiment": "mc-sweep", "sweep": {"values": [0.1, 0.2]}}, "a sweep needs a parameter"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "gamma", "values": 5}},
     "sweep values must be a list"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "gamma", "values": "ab"}},
     "sweep values must be a list"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "gamma"}}, "sweep values must be a list"),
    ({"experiment": "mc-sweep", "sweep": 5}, "sweep must be a JSON object"),
    ({"code": 5}, "code must be a JSON object"),
    ({"error": 5}, "error must be a JSON object"),
    ({"error": {"law": 3}}, "error.law must be a JSON object"),
    ({"out": 5}, "out must be a string"),
    ({"code": {"input": {"squeeze_db": 3.5, "antisqueeze_db": 1.0}}},
     "input antisqueezing 1.0 dB is below its squeezing 3.5 dB"),
    ({"error": {"law": {"magnitude": 1e160}}}, "magnitude must be finite and within [0, 1e+06]"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "magnitude", "values": [5.0, 1e160]}},
     "sweep magnitude = 1e+160: magnitude must be finite and within"),
    ({"code": {"squeezing_db": 400}}, "squeezing parameter must be finite and within [0, 25]"),
    ({"experiment": "mc-sweep", "sweep": {"parameter": "r", "values": [0.4, 10.0, 30.0]}},
     "sweep r = 30.0: squeezing parameter must be finite and within [0, 25]"),
    ({"code": {"r": 0.5, "squeezing_db": 3.5}}, "code sets both r and squeezing_db"),
    ({"experiment": "witness", "code": {"r": [0.1, 0.2, 0.3, 0.4]}},
     "the witness experiment needs one r for all ancillas"),
    ({"experiment": "witness", "code": {"channel_loss": 0.5}},
     "the witness experiment models a lossless code: code.channel_loss must be 1"),
    ({"experiment": "syndrome-demo", "error": {"law": {"kind": "p"}}},
     "error.law.kind must be 'general'"),
    ({"trials": 1}, "the table2 experiment needs trials of at least 2"),
    ({"experiment": "mc-sweep", "trials": 1, "sweep": _GAMMA_SWEEP},
     "the mc-sweep experiment needs trials of at least 2"),
    ({"experiment": "tableC1", "code": {"input": {"squeeze_db": 1e308, "antisqueeze_db": 1e308}}},
     "input squeezing in dB must be finite and within [0, 30]"),
    ({"code": {"input": {"squeeze_db": -300, "antisqueeze_db": 300}}},
     "input squeezing in dB must be finite and within [0, 30]"),
])
def test_main_reports_bad_config_as_usage_error(tmp_path, capsys, doc, message):
    """A bad config stops ``cvqec run`` with exit 2 before the runner starts;
    the experiment is the one the config names, else table2."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", doc.get("experiment", "table2"), "--config", config,
                 "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
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


def test_config_experiment_and_out_keys(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "tableC1", "out": str(tmp_path / "from-config"),
        "trials": 2, "window": 64}))
    assert run_cli(["run", "tableC1", "--config", config]) == 0
    assert (tmp_path / "from-config" / "tableC1.csv").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit):
        run_cli(["run", "table2", "--config", config])
    with pytest.raises(ValueError):
        cli.parse_config({"experiment": "not-a-thing"})
