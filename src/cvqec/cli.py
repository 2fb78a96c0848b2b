"""Reproduction driver: seeded experiments emitting CSV/JSON artifacts.

``cvqec run <experiment> --config cfg.json --seed 42 --out dir`` regenerates
the headline tables (output fidelities, output noise powers), oscilloscope-
style syndrome traces, witness curves, and Monte-Carlo parameter sweeps.
Identical config and seed give byte-identical outputs.  ``cvqec verify`` runs
the acceptance suite and exits non-zero on failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import code as qec
from .code import (CodeConfig, closed_form_output, moments_from_sums, output_mixture,
                   pooling_sums, run_rounds)
from .errors import LAW_GENERAL, ErrorConfig, ErrorLaw, _bounded, _echo
from .gaussian import db_to_r, fidelity_from_moments, variance_to_db
from .witness import evaluate_witness

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
_TRACE_ROWS = 4096          # trace rows turned into text at a time


# --------------------------------------------------------------------------
# configuration document


@dataclass(frozen=True)
class ExperimentConfig:
    code: CodeConfig
    error: ErrorConfig
    trials: int
    window: int
    seed: int
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()


# The largest trial count and syndrome window.  A run keeps 8 bytes a round
# and a syndrome trace every sample, so at either bound it peaks below 300 MB
# of resident memory: measured with getrusage (2-vCPU x86-64 host, numpy 2.4),
# table2 at MAX_TRIALS (window 30) peaks at 74 MB in 240 s and syndrome-demo
# at MAX_WINDOW at 170 MB in 31-42 s.
MAX_TRIALS = 2 ** 21
MAX_WINDOW = 2 ** 20


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {_echo(doc)}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {_echo(sorted(unknown))}")


def _parse_code(doc: dict) -> CodeConfig:
    _reject_unknown(doc, {"squeezing_db", "r", "input", "fourier", "channel_loss"},
                    "code")
    if "r" in doc and "squeezing_db" in doc:
        raise ValueError("code sets both r and squeezing_db; give one of them")
    r = doc["r"] if "r" in doc else db_to_r(
        _bounded(doc.get("squeezing_db", 3.5), "ancilla squeezing in dB", qec.MAX_R_DB))
    inp = doc.get("input", "vacuum")
    kwargs = {}
    if inp == "vacuum":
        kwargs["input_kind"] = "vacuum"
    elif isinstance(inp, dict):
        _reject_unknown(inp, {"squeeze_db", "antisqueeze_db"}, "code.input")
        kwargs["input_kind"] = "squeezed"
        kwargs["input_squeeze_db"] = inp.get("squeeze_db", 3.5)
        kwargs["input_antisqueeze_db"] = inp.get("antisqueeze_db", 8.9)
    else:
        raise ValueError(f"unknown input spec {_echo(inp)}")
    fourier = doc.get("fourier", False)
    if not isinstance(fourier, bool):
        raise ValueError(f"code.fourier must be true or false, not {_echo(fourier)}")
    return CodeConfig(r=r, fourier_mode=fourier, channel_loss=doc.get("channel_loss"),
                      **kwargs)


def _parse_error(doc: dict) -> ErrorConfig:
    _reject_unknown(doc, {"gamma", "channel", "law"}, "error")
    law_doc = doc.get("law", {})
    _reject_unknown(law_doc, {"kind", "magnitude", "shape"}, "error.law")
    law = ErrorLaw(kind=law_doc.get("kind", "general"),
                   magnitude=law_doc.get("magnitude", 5.0),
                   shape=law_doc.get("shape", "fixed"))
    return ErrorConfig(gamma=doc.get("gamma", 1.0), channel=doc.get("channel", "uniform"),
                       law=law)


def _parse_count(doc: dict, key: str, default: int, high: float = math.inf) -> int:
    """An integer entry of at most ``high``; a bool, string or non-integral
    number is rejected, not truncated."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be an integer, not {_echo(value)}")
    if value > high:
        raise ValueError(f"{key} must be at most {high}, not {_echo(value)}")
    return int(value)


def parse_config(doc: dict) -> ExperimentConfig:
    """Parses an experiment config document; unknown keys are rejected."""
    _reject_unknown(doc, {"code", "error", "trials", "window", "seed", "sweep"}, "config")
    code = _parse_code(doc.get("code", {}))
    error = _parse_error(doc.get("error", {}))
    sweep = doc.get("sweep")
    sweep_parameter, sweep_values = None, ()
    if sweep is not None:
        _reject_unknown(sweep, {"parameter", "values"}, "sweep")
        if "parameter" not in sweep:
            raise ValueError("a sweep needs a parameter")
        sweep_parameter = sweep["parameter"]
        if sweep_parameter not in ("r", "gamma", "magnitude", "loss"):
            raise ValueError(f"unknown sweep parameter {_echo(sweep_parameter)}")
        if not isinstance(sweep.get("values"), list):
            raise ValueError(f"sweep values must be a list, not {_echo(sweep.get('values'))}")
        # one scalar each; its model checks its range
        sweep_values = tuple(_bounded(v, "sweep value", sys.float_info.max)
                             for v in sweep["values"])
        if len(sweep_values) < 2:
            raise ValueError("a sweep needs at least two values")
    return ExperimentConfig(
        code=code, error=error,
        trials=_parse_count(doc, "trials", 50, MAX_TRIALS),
        window=_parse_count(doc, "window", 512, MAX_WINDOW),
        seed=_parse_count(doc, "seed", 0),
        sweep_parameter=sweep_parameter, sweep_values=sweep_values)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return parse_config({})
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


# --------------------------------------------------------------------------
# deterministic chunked Monte-Carlo


def run_chunked_rounds(code_cfg: CodeConfig, error_cfg: ErrorConfig,
                       seed_seq: np.random.SeedSequence, trials: int, window: int,
                       pool: int | None = None) -> tuple:
    """Runs trials in fixed-size chunks, each with its own RNG stream, and
    folds each chunk into the results as soon as it is drawn: the pooled
    moments of the rounds whose final code is ``pool`` (every round when
    None; None when no round has it), every round's fidelity against the
    input of ``code_cfg`` and the matched fraction.  The chunk seeds are
    spawned up front in chunk order, so the results depend only on the seed
    and the trial count; the carried ``pooling_sums`` are one batch's."""
    fidelities = np.empty(trials)
    sums, matched = None, 0
    for start, child in zip(range(0, trials, _CHUNK), seed_seq.spawn(-(-trials // _CHUNK))):
        size = min(_CHUNK, trials - start)
        part = run_rounds(code_cfg, error_cfg, np.random.default_rng(child), size, window)
        fidelities[start:start + size] = fidelity_from_moments(
            *code_cfg.input_state(), part.corrected_mean, part.corrected_cov)
        sums = pooling_sums(part, pool, sums)
        matched += int(np.count_nonzero(part.matched))
        del part                        # one chunk's outcome at a time
    return moments_from_sums(sums, window), fidelities, matched / trials


# --------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trace_csv(path: Path, header: list[str], series: np.ndarray) -> None:
    """Writes a header of plain names and one row per sample of the 2-D
    ``series``, its index and then its floats, as ``csv.writer`` does (the
    reprs of ints and floats need no quoting), ``_TRACE_ROWS`` at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(series), _TRACE_ROWS):
            rows = series[start:start + _TRACE_ROWS].tolist()
            fh.write("".join(f"{t}," + ",".join(map(repr, vals)) + "\r\n"
                             for t, vals in enumerate(rows, start)))


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_table(out_dir: Path, stem: str, header: list[str], rows: list[list],
                 **meta) -> dict:
    """Writes ``stem``.csv and ``stem``.json, whose rows are keyed by the
    header beside the ``meta`` entries, and returns the artifact dict."""
    _write_csv(out_dir / f"{stem}.csv", header, rows)
    _write_json(out_dir / f"{stem}.json",
                {**meta, "rows": [dict(zip(header, row)) for row in rows]})
    return {"csv": f"{stem}.csv", "json": f"{stem}.json"}


def _ancilla_variants(code: CodeConfig):
    # the coherent variant is the classical-limit twin: unsqueezed ancillas
    return (("coherent", replace(code, r=0.0)),
            ("squeezed", code))


def _input_variants(code: CodeConfig):
    return (("vacuum", replace(code, input_kind="vacuum")),
            ("squeezed", replace(code, input_kind="squeezed")))


def _stderr(fidelities: np.ndarray) -> float:
    """The sample standard deviation of every round's fidelity over sqrt(n).
    It is not the standard error of a pooled ``fidelity_mc``, whose moments
    pool every round of a sweep value but only a table2 row's hit-channel
    rounds."""
    return float(np.std(fidelities, ddof=1) / math.sqrt(len(fidelities)))


# --------------------------------------------------------------------------
# experiments


def run_table2(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Output fidelities per channel, ancilla kind and input kind."""
    root = np.random.SeedSequence(cfg.seed)
    header = ["channel", "input", "ancilla", "fidelity_theory", "fidelity_mc",
              "fidelity_mc_stderr", "fidelity_measured", "source"]
    rows = []
    for input_kind, base in _input_variants(cfg.code):
        for ancilla, variant in _ancilla_variants(base):
            for channel in range(1, 6):
                theory = closed_form_output(variant, channel).fidelity
                error = replace(cfg.error, gamma=1.0, channel=channel)
                pooled, fidelities, _ = run_chunked_rounds(
                    variant, error, root.spawn(1)[0], cfg.trials, cfg.window, channel)
                mc = (float("nan") if pooled is None
                      else fidelity_from_moments(*variant.input_state(), *pooled))
                rows.append([channel, input_kind, ancilla,
                             repr(theory), repr(mc), repr(_stderr(fidelities)),
                             MEASURED_FIDELITY[(input_kind, ancilla)][channel],
                             "measured"])
    return _write_table(out_dir, "table2", header, rows, experiment="table2",
                        seed=cfg.seed, trials=cfg.trials, window=cfg.window)


def run_tableC1(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Output noise powers in dB per channel/quadrature/ancilla/input."""
    header = ["channel", "quadrature", "input", "ancilla", "noise_db_theory",
              "noise_db_measured", "noise_db_measured_err", "source"]
    rows = []
    for input_kind, base in _input_variants(cfg.code):
        for ancilla, variant in _ancilla_variants(base):
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
    return _write_table(out_dir, "tableC1", header, rows, experiment="tableC1",
                        seed=cfg.seed)


def run_syndrome_demo(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Per-channel detector traces with a slowly swept error phase."""
    root = np.random.SeedSequence(cfg.seed)
    summary = {}
    files = []
    fourier = cfg.code.fourier_mode
    labels = [f"{qec.measured_quad(det, fourier)}_{det}" for det in qec.DETECTORS]
    for channel in range(1, 6):
        rng = np.random.default_rng(root.spawn(1)[0])
        trace, code = qec.syndrome_trace(cfg.code, channel, cfg.window, rng,
                                         cfg.error.law.magnitude)
        name = f"syndrome_demo_ch{channel}.csv"
        _write_trace_csv(out_dir / name, ["sample"] + labels, trace)
        del trace                       # one trace at a time
        files.append(name)
        summary[f"channel-{channel}"] = {
            "classification": qec.CODE_NAMES[code],
            "trace_file": name,
        }
    _write_json(out_dir / "syndrome_demo.json", {
        "experiment": "syndrome-demo", "seed": cfg.seed, "window": cfg.window,
        "magnitude": cfg.error.law.magnitude, "traces": summary})
    return {"csv": files, "json": "syndrome_demo.json"}


def run_witness(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Witness combination values and optimal gains over a squeezing grid:
    the r sweep, or a default grid with the configuration's r in sorted
    place; one row per distinct r, at its first occurrence."""
    values = cfg.sweep_values or sorted((0.0, 0.2, 0.4, 0.8, 1.6, cfg.code.r[0]))
    header = (["r"] + [f"combination_{i}" for i in (1, 2, 3, 4)]
              + [f"g{i}" for i in range(1, 7)] + ["all_satisfied"])
    rows = []
    results = {}
    for r in dict.fromkeys(map(float, values)):
        res = evaluate_witness(replace(cfg.code, r=r, input_kind="vacuum"))
        rows.append([repr(r)] + [repr(v) for v in res.values]
                    + [repr(g) for g in res.gains] + [res.all_satisfied()])
        results[repr(r)] = res.to_dict()
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
    for ancilla, variant in _ancilla_variants(cfg.code):
        for channel in range(1, 6):
            error = replace(cfg.error, gamma=1.0, channel=channel)
            pooled = run_chunked_rounds(variant, error, root.spawn(1)[0],
                                        cfg.trials, cfg.window, channel)[0]
            before = closed_form_output(variant, channel,
                                        error_var=cfg.error.law.quadrature_variances())
            after = closed_form_output(variant, channel)
            for k, quad in enumerate(("x", "p")):
                mc = float("nan") if pooled is None else variance_to_db(float(pooled[1][k, k]))
                rows.append([channel, quad, ancilla, repr(0.0),
                             repr(before.noise_db(quad)),
                             repr(after.noise_db(quad)), repr(mc)])
    return _write_table(out_dir, "spectra", header, rows, experiment="spectra",
                        seed=cfg.seed, trials=cfg.trials, window=cfg.window)


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
        pooled, fidelities, accuracy = run_chunked_rounds(
            code, error, root.spawn(1)[0], cfg.trials, cfg.window)
        inp = code.input_state()
        # theory assumes correct classification; MC pools every round
        # regardless of class: both are the full channel mixture
        theory = fidelity_from_moments(*inp, *output_mixture(code, error))
        mc = fidelity_from_moments(*inp, *pooled)
        rows.append([repr(float(value)), repr(theory),
                     repr(mc), repr(_stderr(fidelities)), repr(accuracy)])
    return _write_table(out_dir, "mc_sweep", header, rows, experiment="mc-sweep",
                        seed=cfg.seed, trials=cfg.trials, window=cfg.window,
                        parameter=cfg.sweep_parameter)


_RUNNERS = {
    "table2": run_table2,
    "tableC1": run_tableC1,
    "syndrome-demo": run_syndrome_demo,
    "spectra": run_spectra,
    "witness": run_witness,
    "mc-sweep": run_mc_sweep,
}
EXPERIMENTS = tuple(_RUNNERS)


_WINDOWED = ("table2", "spectra", "mc-sweep", "syndrome-demo")
_WITH_STDERR = ("table2", "mc-sweep")      # write fidelity_mc_stderr, a spread over rounds


def check_experiment(name: str, cfg: ExperimentConfig) -> None:
    """Raises ValueError if the experiment is unknown or cannot run with the
    config: no trial, a negative seed, a window below the syndrome floor, a
    single trial where a row's stderr needs two, a missing or unsuitable
    sweep section, a witness grid around a per-ancilla r or on a lossy code,
    a syndrome demo of a single-quadrature law, or a sweep value that makes
    an invalid config."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {_echo(name)}")
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, not {_echo(cfg.seed)}")
    if name in _WINDOWED and cfg.window < qec.MIN_SYNDROME_WINDOW:
        raise ValueError(f"window must be at least {qec.MIN_SYNDROME_WINDOW}")
    if name in _WITH_STDERR and cfg.trials < 2:
        raise ValueError(f"the {name} experiment needs trials of at least 2: "
                         "fidelity_mc_stderr is a spread over its rounds")
    if name == "mc-sweep" and cfg.sweep_parameter is None:
        raise ValueError("mc-sweep requires a sweep section in the config")
    if name == "witness" and cfg.sweep_parameter not in (None, "r"):
        raise ValueError("the witness experiment sweeps r only")
    if name == "witness" and cfg.sweep_parameter is None and len(set(cfg.code.r)) > 1:
        raise ValueError("the witness experiment needs one r for all ancillas, or an r sweep")
    if name == "witness" and cfg.code.has_loss:
        raise ValueError("the witness experiment models a lossless code: "
                         "code.channel_loss must be 1")
    if name == "syndrome-demo" and cfg.error.law.kind != LAW_GENERAL:
        raise ValueError("the syndrome-demo experiment sweeps a general-law phase: "
                         "error.law.kind must be 'general'")
    for value in cfg.sweep_values:
        try:
            _sweep_apply(cfg, value)
        except ValueError as exc:
            raise ValueError(f"sweep {cfg.sweep_parameter} = {value}: {exc}") from None


def run_experiment(name: str, cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """The library entry: checks the config, creates ``out_dir`` and runs."""
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
    runp.add_argument("--out", default="cvqec-out", help="output directory")
    verp = sub.add_parser("verify", help="run the acceptance suite")
    verp.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "verify":
        from .acceptance import run_all
        return 0 if run_all(quiet=args.quiet) else 1

    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, RecursionError) as exc:    # json recurses per nesting level
        parser.error(f"bad config: {exc}")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        check_experiment(args.experiment, cfg)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create output directory: {exc}")
    artifacts = _RUNNERS[args.experiment](cfg, Path(args.out))
    print(json.dumps({"experiment": args.experiment, "out": args.out,
                      "artifacts": artifacts}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
