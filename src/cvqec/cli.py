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
from .code import CodeConfig, closed_form_output, output_mixture
from .errors import LAW_GENERAL, ErrorConfig, ErrorLaw, bounded, check_integer, echo
from .gaussian import db_to_r, fidelity_from_moments, variance_to_db
from .montecarlo import check_trials, run_chunked_rounds
from .witness import R_GRID, evaluate_witness

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

_TRACE_ROWS = 4096          # trace rows turned into text at a time


# --------------------------------------------------------------------------
# configuration document


# The largest syndrome window.  syndrome-demo keeps a trace every sample:
# measured with getrusage (2-vCPU x86-64 host, numpy 2.4), at MAX_WINDOW it
# peaks at 110 MB of resident memory in 20-23 s, lossless or at loss 0.9.
MAX_WINDOW = 2 ** 20

# The code and error configs at one value of each sweep parameter.
_SWEEPS = {
    "r": lambda code, error, value: (replace(code, r=value), error),
    "gamma": lambda code, error, value: (code, replace(error, gamma=value)),
    "magnitude": lambda code, error, value: (
        code, replace(error, law=replace(error.law, magnitude=value))),
    "loss": lambda code, error, value: (replace(code, channel_loss=value), error),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's configuration, checked when built, parsed or not: a
    ``CodeConfig`` and an ``ErrorConfig``; ints (not bools) for trials in
    [1, ``montecarlo.MAX_TRIALS``], window in [``code.MIN_SYNDROME_WINDOW``,
    ``MAX_WINDOW``] and a non-negative seed; no sweep values, not even [],
    without a parameter, and a sweep of a ``_SWEEPS`` parameter over two or
    more real values (kept as floats), each giving a valid code and error
    config.  The defaults are the paper's setting, which ``cvqec run`` runs
    without a config."""
    code: CodeConfig = CodeConfig(r=db_to_r(3.5))
    error: ErrorConfig = ErrorConfig(law=ErrorLaw(magnitude=5.0))
    trials: int = 50
    window: int = 512
    seed: int = 0
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.code, CodeConfig):
            raise ValueError(f"code must be a CodeConfig, not {echo(self.code)}")
        if not isinstance(self.error, ErrorConfig):
            raise ValueError(f"error must be an ErrorConfig, not {echo(self.error)}")
        check_trials(self.trials)
        check_integer("window", self.window, MAX_WINDOW)
        if self.window < qec.MIN_SYNDROME_WINDOW:
            raise ValueError(f"window must be at least {qec.MIN_SYNDROME_WINDOW}, "
                             f"not {echo(self.window)}")
        check_integer("seed", self.seed, math.inf)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {echo(self.seed)}")
        parameter = self.sweep_parameter
        if parameter is None:
            if self.sweep_values != ():
                raise ValueError("a sweep needs a parameter")
            return
        if not isinstance(parameter, str) or parameter not in _SWEEPS:
            raise ValueError(f"unknown sweep parameter {echo(parameter)}")
        if not isinstance(self.sweep_values, (list, tuple)):
            raise ValueError(f"sweep values must be a list, not {echo(self.sweep_values)}")
        # one scalar each; its model checks its range
        values = tuple(bounded(v, "sweep value", sys.float_info.max)
                       for v in self.sweep_values)
        if len(values) < 2:
            raise ValueError("a sweep needs at least two values")
        for value in values:
            try:
                _SWEEPS[parameter](self.code, self.error, value)
            except ValueError as exc:
                raise ValueError(f"sweep {parameter} = {value}: {exc}") from None
        object.__setattr__(self, "sweep_values", values)


def _reject_unknown(doc: dict, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, not {echo(doc)}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {echo(sorted(unknown))}")


def _parse_code(doc: dict, code: CodeConfig) -> CodeConfig:
    """``code`` with the values that ``doc`` sets."""
    _reject_unknown(doc, {"squeezing_db", "r", "input", "fourier", "channel_loss"},
                    "code")
    if "r" in doc and "squeezing_db" in doc:
        raise ValueError("code sets both r and squeezing_db; give one of them")
    changes = {field: doc[key] for key, field in (
        ("r", "r"), ("fourier", "fourier_mode"), ("channel_loss", "channel_loss")) if key in doc}
    if "squeezing_db" in doc:
        changes["r"] = db_to_r(
            bounded(doc["squeezing_db"], "ancilla squeezing in dB", qec.MAX_R_DB))
    inp = doc.get("input")
    if inp == "vacuum":
        changes["input_kind"] = "vacuum"
    elif isinstance(inp, dict):
        _reject_unknown(inp, {"squeeze_db", "antisqueeze_db"}, "code.input")
        changes.update({f"input_{key}": value for key, value in inp.items()},
                       input_kind="squeezed")
    elif "input" in doc:
        raise ValueError(f"unknown input spec {echo(inp)}")
    return replace(code, **changes)


def _parse_error(doc: dict, error: ErrorConfig) -> ErrorConfig:
    """``error`` with the values that ``doc`` sets, keyed by field name."""
    _reject_unknown(doc, {"gamma", "channel", "law"}, "error")
    changes = dict(doc)
    if "law" in doc:
        _reject_unknown(doc["law"], {"kind", "magnitude", "shape"}, "error.law")
        changes["law"] = replace(error.law, **doc["law"])
    return replace(error, **changes)


def _integral(value):
    """A whole float such as 64.0, which JSON may write for an integer, as an int."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def parse_config(doc: dict, seed: int | None = None) -> ExperimentConfig:
    """Parses an experiment config document onto ``ExperimentConfig``'s
    field defaults, with ``seed``, when given, in place of its seed; unknown
    keys are rejected.  The config is built once, so a sweep is checked once."""
    _reject_unknown(doc, {"code", "error", "trials", "window", "seed", "sweep"}, "config")
    changes = {key: _integral(doc[key]) for key in ("trials", "window", "seed") if key in doc}
    if seed is not None:
        changes["seed"] = seed
    sweep = doc.get("sweep")
    if sweep is not None:               # a section's missing key is None, never the default
        _reject_unknown(sweep, {"parameter", "values"}, "sweep")
        changes.update(sweep_parameter=sweep.get("parameter"), sweep_values=sweep.get("values"))
    return ExperimentConfig(code=_parse_code(doc.get("code", {}), ExperimentConfig.code),
                            error=_parse_error(doc.get("error", {}), ExperimentConfig.error),
                            **changes)


def load_config(path: str | None, seed: int | None = None) -> ExperimentConfig:
    """``parse_config`` of the JSON document at ``path``, or of {} when None."""
    if path is None:
        return parse_config({}, seed)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh), seed)


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
                theory = fidelity_from_moments(*variant.input_state(),
                                               *closed_form_output(variant, channel))
                error = replace(cfg.error, gamma=1.0, channel=channel)
                fold = run_chunked_rounds(variant, error, root.spawn(1)[0],
                                          cfg.trials, cfg.window, channel)
                rows.append([channel, input_kind, ancilla,
                             repr(theory), repr(fold.fidelity), repr(fold.spread),
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
                cov = closed_form_output(variant, channel)[1]
                for k, quad in enumerate(("x", "p")):
                    measured = MEASURED_NOISE_DB.get(
                        (channel, quad, ancilla, input_kind))
                    rows.append([channel, quad, input_kind, ancilla,
                                 repr(variance_to_db(float(cov[k, k]))),
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
    values = cfg.sweep_values or sorted((*R_GRID, cfg.code.r[0]))
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
                                        cfg.trials, cfg.window, channel).moments
            before = closed_form_output(variant, channel,
                                        error_var=cfg.error.law.quadrature_variances())[1]
            after = closed_form_output(variant, channel)[1]
            for k, quad in enumerate(("x", "p")):
                mc = float("nan") if pooled is None else variance_to_db(float(pooled[1][k, k]))
                rows.append([channel, quad, ancilla, repr(0.0),
                             repr(variance_to_db(float(before[k, k]))),
                             repr(variance_to_db(float(after[k, k]))), repr(mc)])
    return _write_table(out_dir, "spectra", header, rows, experiment="spectra",
                        seed=cfg.seed, trials=cfg.trials, window=cfg.window)


def run_mc_sweep(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Fidelity and classification accuracy versus a swept parameter."""
    root = np.random.SeedSequence(cfg.seed)
    header = [cfg.sweep_parameter, "fidelity_theory", "fidelity_mc",
              "fidelity_mc_stderr", "classification_accuracy"]
    rows = []
    for value in cfg.sweep_values:
        code, error = _SWEEPS[cfg.sweep_parameter](cfg.code, cfg.error, value)
        fold = run_chunked_rounds(code, error, root.spawn(1)[0], cfg.trials, cfg.window)
        # theory assumes correct classification; MC pools every round
        # regardless of class: both are the full channel mixture
        theory = fidelity_from_moments(*code.input_state(), *output_mixture(code, error))
        rows.append([repr(float(value)), repr(theory),
                     repr(fold.fidelity), repr(fold.spread), repr(fold.accuracy)])
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


_WITH_STDERR = ("table2", "mc-sweep")      # write fidelity_mc_stderr, a spread over rounds


def check_experiment(name: str, cfg: ExperimentConfig) -> None:
    """Raises ValueError if the experiment is unknown or cannot run with the
    config, which checked itself when it was built: a single trial where a
    row's stderr needs two, a missing or unsuitable sweep, a witness grid
    around a per-ancilla r or on a lossy code, or a syndrome demo of a
    single-quadrature law."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {echo(name)}")
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
        cfg = load_config(args.config, args.seed)
        check_experiment(args.experiment, cfg)
    except (OSError, ValueError, RecursionError) as exc:    # json recurses per nesting level
        parser.error(f"bad config: {exc}")
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
