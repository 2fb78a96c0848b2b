"""CLI harness: config validation, experiment artifacts, determinism."""

import csv
import dataclasses
import filecmp
import json

import numpy as np
import pytest

from cvqec import cli
from cvqec.gaussian import db_to_r


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_parse_config_defaults():
    cfg = cli.parse_config({})
    assert cfg.code.input_kind == "vacuum"
    assert cfg.code.r == pytest.approx(db_to_r(3.5))
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


def test_thread_cap_does_not_change_results(tmp_path, monkeypatch):
    doc = {"trials": 600, "window": 32, "seed": 9,
           "error": {"channel": 3, "law": {"magnitude": 20.0}}}
    monkeypatch.setenv("CVQEC_THREADS", "1")
    a = cli.run_chunked_rounds(cli.parse_config(doc).code,
                               cli.parse_config(doc).error,
                               np.random.SeedSequence(9), 600, 32)
    monkeypatch.setenv("CVQEC_THREADS", "4")
    b = cli.run_chunked_rounds(cli.parse_config(doc).code,
                               cli.parse_config(doc).error,
                               np.random.SeedSequence(9), 600, 32)
    for f in dataclasses.fields(a):
        if f.init:
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), f.name)


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


def test_spectra_artifact(tmp_path):
    cfg = cli.parse_config({"trials": 4, "window": 64, "seed": 1,
                            "error": {"law": {"magnitude": 5.0}}})
    cli.run_experiment("spectra", cfg, tmp_path)
    doc = json.loads((tmp_path / "spectra.json").read_text())
    assert len(doc["rows"]) == 20
    for row in doc["rows"]:
        if int(row["channel"]) >= 3:
            assert float(row["after_db_theory"]) < float(row["before_db_theory"])


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
