"""Reproduction driver: seeded experiments emitting CSV/JSON artifacts.

``cvqec run <experiment> --config cfg.json --seed 42 --out dir`` regenerates
the headline tables (output fidelities, output noise powers), oscilloscope-
style syndrome traces, witness curves, and Monte-Carlo parameter sweeps.
Identical config and seed give byte-identical outputs.  ``cvqec verify`` runs
the acceptance suite and exits non-zero on failure.

The environment variable ``CVQEC_THREADS`` caps how many worker threads may
process Monte-Carlo chunks; results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import code as qec
from .code import (CodeConfig, RoundsOutcome, closed_form_output,
                   coherent_ancilla_config, output_mixture, pooled_moments,
                   run_rounds)
from .errors import ErrorConfig, ErrorLaw
from .gaussian import db_to_r, fidelity_from_moments, variance_to_db
from .witness import evaluate_witness

EXPERIMENTS = ("table2", "tableC1", "syndrome-demo", "spectra", "witness", "mc-sweep")

# Experimentally measured reference values (embedded so emitted tables can be
# diffed against them; tagged "measured" to separate physical imperfection
# from simulator regressions).  Fidelities by (input, ancilla) and channel.
MEASURED_FIDELITY = {
    ("vacuum", "coherent"): {1: 0.99, 2: 0.99, 3: 0.60, 4: 0.40, 5: 0.39},
    ("vacuum", "squeezed"): {1: 0.99, 2: 0.99, 3: 0.75, 4: 0.56, 5: 0.59},
    ("squeezed", "coherent"): {1: 0.99, 2: 0.99, 3: 0.68, 4: 0.42, 5: 0.44},
    ("squeezed", "squeezed"): {1: 0.99, 2: 0.99, 3: 0.85, 4: 0.60, 5: 0.59},
}

# Measured output noise powers in dB, (value, one-sigma), by
# (channel, quadrature, ancilla, input); None where not measured.
MEASURED_NOISE_DB = {
    (1, "x", "coherent", "vacuum"): (0.15, 0.30),
    (1, "p", "coherent", "vacuum"): (0.13, 0.30),
    (2, "x", "coherent", "vacuum"): (0.19, 0.29),
    (2, "p", "coherent", "vacuum"): (0.18, 0.30),
    (3, "x", "coherent", "vacuum"): (2.39, 0.28),
    (3, "p", "coherent", "vacuum"): (4.80, 0.29),
    (4, "x", "coherent", "vacuum"): (2.47, 0.34),
    (4, "p", "coherent", "vacuum"): (9.13, 0.30),
    (5, "x", "coherent", "vacuum"): (2.99, 0.31),
    (5, "p", "coherent", "vacuum"): (9.01, 0.32),
    (3, "x", "squeezed", "vacuum"): (1.37, 0.29),
    (3, "p", "squeezed", "vacuum"): (3.07, 0.31),
    (4, "x", "squeezed", "vacuum"): (1.49, 0.29),
    (4, "p", "squeezed", "vacuum"): (6.40, 0.28),
    (5, "x", "squeezed", "vacuum"): (1.14, 0.28),
    (5, "p", "squeezed", "vacuum"): (5.94, 0.30),
    (1, "x", "coherent", "squeezed"): (8.22, 0.31),
    (1, "p", "coherent", "squeezed"): (-2.78, 0.27),
    (2, "x", "coherent", "squeezed"): (8.09, 0.31),
    (2, "p", "coherent", "squeezed"): (-2.73, 0.29),
    (3, "x", "coherent", "squeezed"): (9.85, 0.27),
    (3, "p", "coherent", "squeezed"): (4.28, 0.28),
    (4, "x", "coherent", "squeezed"): (9.96, 0.32),
    (4, "p", "coherent", "squeezed"): (9.25, 0.27),
    (5, "x", "coherent", "squeezed"): (9.51, 0.27),
    (5, "p", "coherent", "squeezed"): (9.03, 0.32),
    (3, "x", "squeezed", "squeezed"): (8.93, 0.27),
    (3, "p", "squeezed", "squeezed"): (1.46, 0.30),
    (4, "x", "squeezed", "squeezed"): (8.89, 0.29),
    (4, "p", "squeezed", "squeezed"): (6.04, 0.30),
    (5, "x", "squeezed", "squeezed"): (9.02, 0.30),
    (5, "p", "squeezed", "squeezed"): (6.10, 0.33),
}

_CHUNK = 256


# --------------------------------------------------------------------------
# configuration document


@dataclass(frozen=True)
class ExperimentConfig:
    code: CodeConfig
    error: ErrorConfig
    trials: int
    window: int
    seed: int
    squeezing_db: float
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    experiment: str | None = None
    out: str | None = None
    echo: dict | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _parse_code(doc: dict) -> tuple[CodeConfig, float]:
    _reject_unknown(doc, {"squeezing_db", "r", "input", "fourier", "channel_loss"},
                    "code")
    squeezing_db = _parse_number(doc.get("squeezing_db", 3.5), "code.squeezing_db")
    r = (_parse_number(doc["r"], "squeezing parameter", allow_list=True) if "r" in doc
         else db_to_r(squeezing_db))
    inp = doc.get("input", "vacuum")
    kwargs = {}
    if inp == "vacuum":
        kwargs["input_kind"] = "vacuum"
    elif isinstance(inp, dict):
        _reject_unknown(inp, {"squeeze_db", "antisqueeze_db"}, "code.input")
        kwargs["input_kind"] = "squeezed"
        kwargs["input_squeeze_db"] = _parse_number(inp.get("squeeze_db", 3.5),
                                                   "code.input.squeeze_db")
        kwargs["input_antisqueeze_db"] = _parse_number(inp.get("antisqueeze_db", 8.9),
                                                       "code.input.antisqueeze_db")
    else:
        raise ValueError(f"unknown input spec {inp!r}")
    if doc.get("channel_loss") is not None:
        kwargs["channel_loss"] = _parse_number(doc["channel_loss"], "code.channel_loss",
                                               allow_list=True)
    fourier = doc.get("fourier", False)
    if not isinstance(fourier, bool):
        raise ValueError(f"code.fourier must be true or false, not {fourier!r}")
    cfg = CodeConfig(r=r, fourier_mode=fourier, **kwargs)
    return cfg, squeezing_db


def _parse_error(doc: dict) -> ErrorConfig:
    _reject_unknown(doc, {"gamma", "channel", "law"}, "error")
    law_doc = doc.get("law", {})
    _reject_unknown(law_doc, {"kind", "magnitude", "shape"}, "error.law")
    law = ErrorLaw(kind=law_doc.get("kind", "general"),
                   magnitude=_parse_number(law_doc.get("magnitude", 5.0),
                                           "error.law.magnitude"),
                   shape=law_doc.get("shape", "fixed"))
    return ErrorConfig(gamma=_parse_number(doc.get("gamma", 1.0), "error.gamma"),
                       channel=doc.get("channel", "uniform"), law=law)


def _parse_number(value, name: str, allow_list: bool = False):
    """A finite real number, or with ``allow_list`` a list of them as a
    tuple; a bool, string or non-finite value is rejected, not converted."""
    if allow_list and isinstance(value, list):
        return tuple(_parse_number(v, name) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return float(value)


def _parse_count(doc: dict, key: str, default: int) -> int:
    """An integer entry; a bool, string or non-integral number is rejected,
    not truncated."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(value)


def parse_config(doc: dict) -> ExperimentConfig:
    """Parses an experiment config document; unknown keys are rejected."""
    _reject_unknown(doc, {"code", "error", "trials", "window", "seed", "sweep",
                          "experiment", "out"}, "config")
    experiment = doc.get("experiment")
    if experiment is not None and experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    code, squeezing_db = _parse_code(doc.get("code", {}))
    error = _parse_error(doc.get("error", {}))
    sweep = doc.get("sweep")
    sweep_parameter, sweep_values = None, ()
    if sweep is not None:
        _reject_unknown(sweep, {"parameter", "values"}, "sweep")
        sweep_parameter = sweep["parameter"]
        if sweep_parameter not in ("r", "gamma", "magnitude", "loss"):
            raise ValueError(f"unknown sweep parameter {sweep_parameter!r}")
        sweep_values = tuple(_parse_number(v, "sweep value") for v in sweep["values"])
        if len(sweep_values) < 2:
            raise ValueError("a sweep needs at least two values")
    return ExperimentConfig(
        code=code, error=error,
        trials=_parse_count(doc, "trials", 50),
        window=_parse_count(doc, "window", 512),
        seed=_parse_count(doc, "seed", 0),
        squeezing_db=squeezing_db,
        sweep_parameter=sweep_parameter, sweep_values=sweep_values,
        experiment=experiment, out=doc.get("out"), echo=doc)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return parse_config({})
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


# --------------------------------------------------------------------------
# deterministic chunked Monte-Carlo


def _thread_cap() -> int:
    raw = os.environ.get("CVQEC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_chunked_rounds(code_cfg: CodeConfig, error_cfg: ErrorConfig,
                       seed_seq: np.random.SeedSequence, trials: int,
                       window: int) -> RoundsOutcome:
    """Runs trials in fixed-size chunks with per-chunk derived RNG streams.

    Chunk seeds are spawned up front in a fixed order, so the outcome is
    byte-identical for any CVQEC_THREADS setting.
    """
    sizes = [_CHUNK] * (trials // _CHUNK)
    if trials % _CHUNK:
        sizes.append(trials % _CHUNK)
    children = seed_seq.spawn(len(sizes))

    def job(child, size):
        return run_rounds(code_cfg, error_cfg, np.random.default_rng(child),
                          size, window)

    workers = min(_thread_cap(), len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, children, sizes))
    else:
        outcomes = [job(c, s) for c, s in zip(children, sizes)]
    return RoundsOutcome.concatenate(outcomes)


# --------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ancilla_variants(cfg: ExperimentConfig):
    return (("coherent", coherent_ancilla_config(cfg.code)),
            ("squeezed", cfg.code))


def _input_variants(code: CodeConfig):
    return (("vacuum", replace(code, input_kind="vacuum")),
            ("squeezed", replace(code, input_kind="squeezed")))


def _mc_stderr(outcome: RoundsOutcome) -> float:
    fids = outcome.fidelity_mc
    if len(fids) < 2:
        return float("nan")
    return float(np.std(fids, ddof=1) / math.sqrt(len(fids)))


# --------------------------------------------------------------------------
# experiments


def run_table2(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Output fidelities per channel, ancilla kind and input kind."""
    root = np.random.SeedSequence(cfg.seed)
    header = ["channel", "input", "ancilla", "fidelity_theory", "fidelity_mc",
              "fidelity_mc_stderr", "fidelity_measured", "source"]
    rows = []
    for input_kind, base in _input_variants(cfg.code):
        for ancilla, variant in _ancilla_variants(replace(cfg, code=base)):
            for channel in range(1, 6):
                theory = closed_form_output(variant, channel).fidelity
                error = replace(cfg.error, gamma=1.0, channel=channel)
                outcome = run_chunked_rounds(variant, error, root.spawn(1)[0],
                                             cfg.trials, cfg.window)
                key = f"channel-{channel}"
                mc = outcome.summary.pooled_fidelity.get(key, float("nan"))
                rows.append([channel, input_kind, ancilla,
                             repr(theory), repr(mc),
                             repr(_mc_stderr(outcome)),
                             MEASURED_FIDELITY[(input_kind, ancilla)][channel],
                             "measured"])
    _write_csv(out_dir / "table2.csv", header, rows)
    _write_json(out_dir / "table2.json", {
        "experiment": "table2", "seed": cfg.seed, "trials": cfg.trials,
        "window": cfg.window,
        "rows": [dict(zip(header, row)) for row in rows]})
    return {"csv": "table2.csv", "json": "table2.json"}


def run_tableC1(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Output noise powers in dB per channel/quadrature/ancilla/input."""
    header = ["channel", "quadrature", "input", "ancilla", "noise_db_theory",
              "noise_db_measured", "noise_db_measured_err", "source"]
    rows = []
    for input_kind, base in _input_variants(cfg.code):
        for ancilla, variant in _ancilla_variants(replace(cfg, code=base)):
            for channel in range(1, 6):
                stats = closed_form_output(variant, channel)
                for quad in ("x", "p"):
                    measured = MEASURED_NOISE_DB.get(
                        (channel, quad, ancilla, input_kind))
                    rows.append([channel, quad, input_kind, ancilla,
                                 repr(stats.noise_db(quad)),
                                 "" if measured is None else measured[0],
                                 "" if measured is None else measured[1],
                                 "measured"])
    _write_csv(out_dir / "tableC1.csv", header, rows)
    _write_json(out_dir / "tableC1.json", {
        "experiment": "tableC1", "seed": cfg.seed,
        "rows": [dict(zip(header, row)) for row in rows]})
    return {"csv": "tableC1.csv", "json": "tableC1.json"}


def run_syndrome_demo(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Per-channel detector traces with a slowly swept error phase."""
    root = np.random.SeedSequence(cfg.seed)
    summary = {}
    files = []
    fourier = cfg.code.fourier_mode
    labels = [f"{qec.measured_quad(det, fourier)}_{det}" for det in qec.DETECTORS]
    for channel in range(1, 6):
        rng = np.random.default_rng(root.spawn(1)[0])
        traces, result = qec.syndrome_trace(cfg.code, channel, cfg.window, rng,
                                            cfg.error.law.magnitude)
        name = f"syndrome_demo_ch{channel}.csv"
        rows = [[t] + [repr(float(traces[det][t])) for det in qec.DETECTORS]
                for t in range(cfg.window)]
        _write_csv(out_dir / name, ["sample"] + labels, rows)
        files.append(name)
        summary[f"channel-{channel}"] = {
            "classification": str(result),
            "trace_file": name,
        }
    _write_json(out_dir / "syndrome_demo.json", {
        "experiment": "syndrome-demo", "seed": cfg.seed, "window": cfg.window,
        "magnitude": cfg.error.law.magnitude, "traces": summary})
    return {"csv": files, "json": "syndrome_demo.json"}


def run_witness(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Witness combination values and optimal gains over a squeezing grid."""
    values = cfg.sweep_values or (0.0, 0.2, 0.4, db_to_r(cfg.squeezing_db), 0.8, 1.6)
    header = (["r"] + [f"combination_{i}" for i in (1, 2, 3, 4)]
              + [f"g{i}" for i in range(1, 7)] + ["all_satisfied"])
    rows = []
    results = {}
    for r in values:
        res = evaluate_witness(replace(cfg.code, r=float(r), input_kind="vacuum"))
        rows.append([repr(float(r))] + [repr(v) for v in res.values]
                    + [repr(g) for g in res.gains] + [res.all_satisfied()])
        results[repr(float(r))] = res.to_dict()
    _write_csv(out_dir / "witness.csv", header, rows)
    _write_json(out_dir / "witness.json", {
        "experiment": "witness", "results": results})
    return {"csv": "witness.csv", "json": "witness.json"}


def run_spectra(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Output noise power before/after correction, theory plus windowed MC."""
    root = np.random.SeedSequence(cfg.seed)
    header = ["channel", "quadrature", "ancilla", "snl_db", "before_db_theory",
              "after_db_theory", "after_db_mc"]
    rows = []
    for ancilla, variant in _ancilla_variants(cfg):
        for channel in range(1, 6):
            error = replace(cfg.error, gamma=1.0, channel=channel)
            outcome = run_chunked_rounds(variant, error, root.spawn(1)[0],
                                         cfg.trials, cfg.window)
            _, mc_cov = outcome.summary.pooled_moments[f"channel-{channel}"]
            before = closed_form_output(
                variant, channel, corrected=False,
                extra_error_var=cfg.error.law.quadrature_variances())
            after = closed_form_output(variant, channel)
            for k, quad in enumerate(("x", "p")):
                rows.append([channel, quad, ancilla, repr(0.0),
                             repr(before.noise_db(quad)),
                             repr(after.noise_db(quad)),
                             repr(variance_to_db(float(mc_cov[k, k])))])
    _write_csv(out_dir / "spectra.csv", header, rows)
    _write_json(out_dir / "spectra.json", {
        "experiment": "spectra", "seed": cfg.seed, "trials": cfg.trials,
        "window": cfg.window,
        "rows": [dict(zip(header, row)) for row in rows]})
    return {"csv": "spectra.csv", "json": "spectra.json"}


def _sweep_apply(cfg: ExperimentConfig, value: float) -> tuple[CodeConfig, ErrorConfig]:
    code, error = cfg.code, cfg.error
    if cfg.sweep_parameter == "r":
        code = replace(code, r=value)
    elif cfg.sweep_parameter == "gamma":
        error = replace(error, gamma=value)
    elif cfg.sweep_parameter == "magnitude":
        error = replace(error, law=replace(error.law, magnitude=value))
    elif cfg.sweep_parameter == "loss":
        code = replace(code, channel_loss=value)
    return code, error


def run_mc_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Fidelity and classification accuracy versus a swept parameter."""
    root = np.random.SeedSequence(cfg.seed)
    header = [cfg.sweep_parameter, "fidelity_theory", "fidelity_mc",
              "fidelity_mc_stderr", "classification_accuracy"]
    rows = []
    for value in cfg.sweep_values:
        code, error = _sweep_apply(cfg, value)
        outcome = run_chunked_rounds(code, error, root.spawn(1)[0],
                                     cfg.trials, cfg.window)
        inp = code.input_state()
        # theory assumes correct classification; MC pools every round
        # regardless of class: both are the full channel mixture
        theory = fidelity_from_moments(inp.mean, inp.cov,
                                       *output_mixture(code, error).moments())
        mc = fidelity_from_moments(inp.mean, inp.cov, *pooled_moments(outcome))
        rows.append([repr(float(value)), repr(theory),
                     repr(mc), repr(_mc_stderr(outcome)),
                     repr(outcome.summary.accuracy)])
    _write_csv(out_dir / "mc_sweep.csv", header, rows)
    _write_json(out_dir / "mc_sweep.json", {
        "experiment": "mc-sweep", "seed": cfg.seed, "trials": cfg.trials,
        "window": cfg.window, "parameter": cfg.sweep_parameter,
        "rows": [dict(zip(header, row)) for row in rows]})
    return {"csv": "mc_sweep.csv", "json": "mc_sweep.json"}


_RUNNERS = {
    "table2": run_table2,
    "tableC1": run_tableC1,
    "syndrome-demo": run_syndrome_demo,
    "spectra": run_spectra,
    "witness": run_witness,
    "mc-sweep": run_mc_sweep,
}


_WINDOWED = ("table2", "spectra", "mc-sweep", "syndrome-demo")


def check_experiment(name: str, cfg: ExperimentConfig) -> None:
    """Raises ValueError if the experiment is unknown or cannot run with the
    config: a negative seed, a window below the syndrome floor, a missing or
    unsuitable sweep section, or a sweep value that makes an invalid config."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, not {cfg.seed}")
    if name in _WINDOWED and cfg.window < qec.MIN_SYNDROME_WINDOW:
        raise ValueError(f"window must be at least {qec.MIN_SYNDROME_WINDOW}")
    if name == "mc-sweep" and cfg.sweep_parameter is None:
        raise ValueError("mc-sweep requires a sweep section in the config")
    if name == "witness" and cfg.sweep_parameter not in (None, "r"):
        raise ValueError("the witness experiment sweeps r only")
    for value in cfg.sweep_values:
        try:
            _sweep_apply(cfg, value)
        except ValueError as exc:
            raise ValueError(f"sweep {cfg.sweep_parameter} = {value}: {exc}") from None


def run_experiment(name: str, cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    check_experiment(name, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[name](cfg, out)


# --------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvqec",
        description="Five-channel continuous-variable error-correction simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a named experiment")
    runp.add_argument("experiment", choices=EXPERIMENTS)
    runp.add_argument("--config", default=None, help="JSON config path")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--out", default=None, help="output directory")
    verp = sub.add_parser("verify", help="run the acceptance suite")
    verp.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "verify":
        from .acceptance import run_all
        return 0 if run_all(quiet=args.quiet) else 1

    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        parser.error(f"bad config: {exc}")
    if cfg.experiment is not None and cfg.experiment != args.experiment:
        parser.error(f"config names experiment {cfg.experiment!r} but "
                     f"{args.experiment!r} was requested")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        check_experiment(args.experiment, cfg)
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = args.out or cfg.out or "cvqec-out"
    artifacts = run_experiment(args.experiment, cfg, out_dir)
    print(json.dumps({"experiment": args.experiment, "out": str(out_dir),
                      "artifacts": artifacts}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
