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
from .code import (CodeConfig, RoundsOutcome, closed_form_output, moments_from_sums,
                   output_mixture, pooling_sums, run_rounds)
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

# Rounds per ``run_rounds`` call.  Each call also pays a cost that barely
# grows with its rounds, about 150 us outside its draws at 8 rounds of the
# sweep's shape on a 2-vCPU x86-64 host, which larger chunks would pay less
# often.  The benchmark's ``perfbench/workloads.py`` mirrors it as ``CHUNK``,
# and ``perfbench/run.py``'s ``check_counts`` requires exactly
# ceil(trials / 256) ``run_rounds`` calls per configuration, so a change of
# ``_CHUNK`` alone fails every benchmark run: larger chunks (ROADMAP item 1)
# wait on the benchmark's count check (item 7).
_CHUNK = 256
_GROUP = 4                  # chunks folded at once: 1,024 rounds
_TRACE_ROWS = 4096          # trace rows turned into text at a time


# --------------------------------------------------------------------------
# configuration document


# The largest trial count and syndrome window.  A run keeps 8 bytes a round
# and a syndrome trace every sample, so at either bound it peaks below 300 MB
# of resident memory: measured with getrusage (2-vCPU x86-64 host, numpy 2.4),
# table2 at MAX_TRIALS (window 30) peaks at 74 MB in 240 s and syndrome-demo
# at MAX_WINDOW at 170 MB in 31-42 s.
MAX_TRIALS = 2 ** 21
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
    """A run's configuration, checked when built, parsed or not: ints (not
    bools) for trials in [1, ``MAX_TRIALS``], window up to ``MAX_WINDOW`` and
    a non-negative seed; no sweep values, not even [], without a parameter,
    and a sweep of a ``_SWEEPS`` parameter over two or more real values
    (kept as floats), each giving a valid code and error config."""
    code: CodeConfig
    error: ErrorConfig
    trials: int
    window: int
    seed: int
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        for key, high in (("trials", MAX_TRIALS), ("window", MAX_WINDOW), ("seed", math.inf)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, not {_echo(value)}")
            if value > high:
                raise ValueError(f"{key} must be at most {high}, not {_echo(value)}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {_echo(self.seed)}")
        parameter = self.sweep_parameter
        if parameter is None:
            if self.sweep_values != ():
                raise ValueError("a sweep needs a parameter")
            return
        if not isinstance(parameter, str) or parameter not in _SWEEPS:
            raise ValueError(f"unknown sweep parameter {_echo(parameter)}")
        if not isinstance(self.sweep_values, (list, tuple)):
            raise ValueError(f"sweep values must be a list, not {_echo(self.sweep_values)}")
        # one scalar each; its model checks its range
        values = tuple(_bounded(v, "sweep value", sys.float_info.max)
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


def _parse_count(doc: dict, key: str, default: int) -> int:
    """An integer entry, which JSON may write as an integral float such as
    64.0, as an int; ``ExperimentConfig`` rejects every other non-int."""
    value = doc.get(key, default)
    return int(value) if isinstance(value, float) and value.is_integer() else value


def parse_config(doc: dict, seed: int | None = None) -> ExperimentConfig:
    """Parses an experiment config document, with ``seed``, when given, in
    place of its seed; unknown keys are rejected."""
    _reject_unknown(doc, {"code", "error", "trials", "window", "seed", "sweep"}, "config")
    code = _parse_code(doc.get("code", {}))
    error = _parse_error(doc.get("error", {}))
    sweep = doc.get("sweep")
    if sweep is None:                   # no sweep: the config's empty default
        sweep = {"values": ()}
    _reject_unknown(sweep, {"parameter", "values"}, "sweep")
    return ExperimentConfig(
        code=code, error=error,
        trials=_parse_count(doc, "trials", 50),
        window=_parse_count(doc, "window", 512),
        seed=_parse_count(doc, "seed", 0) if seed is None else seed,
        sweep_parameter=sweep.get("parameter"), sweep_values=sweep.get("values"))


def load_config(path: str | None, seed: int | None = None) -> ExperimentConfig:
    """``parse_config`` of the JSON document at ``path``, or of {} when None."""
    if path is None:
        return parse_config({}, seed)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh), seed)


# --------------------------------------------------------------------------
# deterministic chunked Monte-Carlo


def run_chunked_rounds(code_cfg: CodeConfig, error_cfg: ErrorConfig,
                       seed_seq: np.random.SeedSequence, trials: int, window: int,
                       pool: int | None = None) -> tuple:
    """Runs trials in chunks of ``_CHUNK`` rounds, each with its own RNG
    stream, and folds each group of up to ``_GROUP`` chunks into the results
    as soon as it is drawn: the pooled moments of the rounds whose final code
    is ``pool`` (every round when None; None when no round has it), every
    round's fidelity against the input of ``code_cfg`` and the matched
    fraction.  The chunk seeds are spawned up front in chunk order, so the
    results depend only on the seed and the trial count; the carried
    ``pooling_sums`` add in round order and the fidelity is elementwise, so
    both are one batch's bit for bit however the chunks are grouped."""
    fidelities = np.empty(trials)
    sums, matched = None, 0
    children = seed_seq.spawn(-(-trials // _CHUNK))
    for first in range(0, len(children), _GROUP):
        start = first * _CHUNK
        parts = [run_rounds(code_cfg, error_cfg, np.random.default_rng(child),
                            min(_CHUNK, trials - begin), window)
                 for begin, child in zip(range(start, trials, _CHUNK),
                                         children[first:first + _GROUP])]
        group = parts[0] if len(parts) == 1 else _joined(parts)
        del parts                       # one group's outcome at a time
        fidelities[start:start + len(group.final_codes)] = fidelity_from_moments(
            *code_cfg.input_state(), group.corrected_mean, group.corrected_cov)
        sums = pooling_sums(group, pool, sums)
        matched += int(np.count_nonzero(group.matched))
        del group
    return moments_from_sums(sums, window), fidelities, matched / trials


def _joined(parts: list[RoundsOutcome]) -> RoundsOutcome:
    """One outcome holding the rounds of ``parts`` in order."""
    return RoundsOutcome(parts[0].window, *(np.concatenate(column) for column in zip(
        *((p.channels, p.final_codes, p.syndrome, p.corrected_mean, p.corrected_cov)
          for p in parts))))


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
                theory = fidelity_from_moments(*variant.input_state(),
                                               *closed_form_output(variant, channel))
                error = replace(cfg.error, gamma=1.0, channel=channel)
                pooled, fidelities, _ = run_chunked_rounds(
                    variant, error, root.spawn(1)[0], cfg.trials, cfg.window, channel)
                # a row that pooled no round has no estimate, and so no error bar
                mc, stderr = ((math.nan, math.nan) if pooled is None else
                              (fidelity_from_moments(*variant.input_state(), *pooled),
                               _stderr(fidelities)))
                rows.append([channel, input_kind, ancilla,
                             repr(theory), repr(mc), repr(stderr),
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
    config, which checked itself when it was built: a window below the
    syndrome floor, a single trial where a row's stderr needs two, a missing
    or unsuitable sweep, a witness grid around a per-ancilla r or on a lossy
    code, or a syndrome demo of a single-quadrature law."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {_echo(name)}")
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
