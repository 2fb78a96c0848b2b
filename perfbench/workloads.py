"""The benchmark's workloads: what one iteration runs and how its output is checked.

An operation is one experiment run or one acceptance criterion.  It fails
if it raises or if its output fails a check.  The checks do not depend on the
exact Monte-Carlo stream, so a sampler that is equal in law still passes:

* theory columns match ``reference.json`` within ``THEORY_RTOL``;
* Monte-Carlo fidelities lie within ``MC_MAX_SE`` standard errors of theory;
* classification accuracy meets a per-workload floor, and every
  ``syndrome-demo`` trace is classified as its own channel;
* all 11 acceptance criteria pass; criterion 1's wall-clock bound is held
  at reference host speed (see ``Verify.error``);
* repeating an iteration with the same seed gives byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path
from typing import Callable

from cvqec import acceptance, cli

THEORY_RTOL = 1e-9
THEORY_ATOL = 1e-12
# Over 60 seeds of the sweep and 15 of table2 (540 rows) the largest
# |MC - theory| / stderr seen was 3.9.
MC_MAX_SE = 8.0
CHUNK = 256                 # rounds per Monte-Carlo chunk in `cvqec run`
N_CRITERIA = 11
SLOW_CRITERIA = (8, 10)     # left out at smoke scale: seconds each, fixed size
# Criterion 1's own wall-clock bound (acceptance.criterion_1_matrix_identity)
# and the message it fails with when only that bound is missed.
CRITERION_1_BOUND_MS = 1.0
CRITERION_1_TIMING = re.compile(r"compose\+equality took ([0-9.]+) ms")

REFERENCE = Path(__file__).with_name("reference.json")


def run_cli(argv: list[str]) -> None:
    """Runs ``cvqec <argv>`` in this process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"cvqec {' '.join(argv)} exited with {rc}")


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=THEORY_RTOL, abs_tol=THEORY_ATOL)


def theory_columns(experiment: str, out_dir: Path) -> dict:
    """The seed-independent columns of one experiment's JSON artifact."""
    if experiment == "table2":
        rows = json.loads((out_dir / "table2.json").read_text())["rows"]
        return {f"{r['channel']}/{r['input']}/{r['ancilla']}": float(r["fidelity_theory"])
                for r in rows}
    if experiment == "mc-sweep":
        doc = json.loads((out_dir / "mc_sweep.json").read_text())
        return {r[doc["parameter"]]: float(r["fidelity_theory"]) for r in doc["rows"]}
    if experiment == "tableC1":
        rows = json.loads((out_dir / "tableC1.json").read_text())["rows"]
        return {f"{r['channel']}/{r['quadrature']}/{r['input']}/{r['ancilla']}":
                float(r["noise_db_theory"]) for r in rows}
    if experiment == "witness":
        results = json.loads((out_dir / "witness.json").read_text())["results"]
        return {r: {"values": res["values"], "gains": res["gains"],
                    "satisfied": res["satisfied"]} for r, res in results.items()}
    raise ValueError(f"no theory columns for {experiment!r}")


def check_theory(experiment: str, out_dir: Path, reference: dict) -> list[str]:
    got, want = theory_columns(experiment, out_dir), reference[experiment]
    if set(got) != set(want):
        return [f"{experiment}: rows {sorted(got)} != reference {sorted(want)}"]
    bad = []
    for key, ref in want.items():
        if experiment == "witness":
            ok = (got[key]["satisfied"] == ref["satisfied"]
                  and all(_close(a, b) for part in ("values", "gains")
                          for a, b in zip(got[key][part], ref[part], strict=True)))
        else:
            ok = _close(got[key], ref)
        if not ok:
            bad.append(f"{experiment} {key}: theory {got[key]} != reference {ref}")
    return bad


def check_mc(label: str, rows, mc_key: str) -> list[str]:
    """Monte-Carlo fidelity within MC_MAX_SE standard errors of theory."""
    bad = []
    for row in rows:
        theory, mc = float(row["fidelity_theory"]), float(row[mc_key])
        se = float(row["fidelity_mc_stderr"])
        if not (math.isfinite(se) and abs(mc - theory) <= MC_MAX_SE * se):
            bad.append(f"{label} {row}: MC {mc} vs theory {theory}, stderr {se}")
    return bad


class Workload:
    """One iteration of ``experiments`` per loop turn, all with the run's seed."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, reference: dict):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.reference = reference
        self.config: Path | None = None
        self.notes: list[str] = []      # printed with the run's results
        self._digests: dict[str, str] = {}

    def _write_config(self, doc: dict) -> Path:
        path = self.workdir / f"{self.name}.json"
        path.write_text(json.dumps(doc))
        return path

    def _experiment(self, experiment: str, config: Path | None) -> tuple[str, Callable]:
        out = self.workdir / "out" / experiment
        argv = ["run", experiment, "--seed", str(self.seed), "--out", str(out)]
        if config is not None:
            argv += ["--config", str(config)]
        return experiment, lambda: run_cli(argv)

    def operations(self) -> list[tuple[str, Callable[[], object]]]:
        """One iteration's operations, in order; one that raises has failed."""
        raise NotImplementedError

    def error(self, op: str, exc: Exception, host_factor: float) -> str | None:
        """The failure an operation's exception stands for, or None if it is
        none.  ``host_factor`` is the host's time over reference-host time,
        gauged just before the operation."""
        return f"{type(exc).__name__}: {exc}"

    def check(self, ops: dict[str, str | None], stats: dict) -> dict[str, str | None]:
        """Adds output-check failures to the operations that produced them."""
        raise NotImplementedError

    def _check_op(self, ops: dict, experiment: str, checks) -> None:
        """Records the problems ``checks()`` finds in an operation's output;
        output that cannot be read fails the operation too."""
        if ops[experiment] is not None:
            return
        try:
            problems = checks()
        except (OSError, LookupError, ValueError, TypeError) as exc:
            problems = [f"{experiment}: unreadable output ({type(exc).__name__}: {exc})"]
        if problems:
            ops[experiment] = "; ".join(problems)

    def _check_repeat(self, experiment: str) -> list[str]:
        d = digest(self.workdir / "out" / experiment)
        first = self._digests.setdefault(experiment, d)
        return [] if d == first else [f"{experiment}: artifacts differ from the "
                                      f"first iteration with the same seed"]

    def expected_counts(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-iteration span counts: (exact, at least)."""
        raise NotImplementedError


class Table2(Workload):
    name = "table2-w512"
    CONFIGS = 20
    WINDOW = 512
    ACCURACY_FLOOR = 0.999

    def __init__(self, *args):
        super().__init__(*args)
        self.trials = 16 if self.smoke else 512
        self.config = self._write_config({"trials": self.trials, "window": self.WINDOW})

    def operations(self):
        return [self._experiment("table2", self.config)]

    def check(self, ops, stats):
        def checks():
            out = self.workdir / "out" / "table2"
            rows = json.loads((out / "table2.json").read_text())["rows"]
            problems = (check_theory("table2", out, self.reference)
                        + check_mc("table2", rows, "fidelity_mc")
                        + self._check_repeat("table2"))
            rr = stats.get("code.run_rounds", {})
            accuracy = rr.get("matched", 0) / max(rr.get("rounds", 0), 1)
            if accuracy < self.ACCURACY_FLOOR:
                problems.append(f"table2: accuracy {accuracy} below {self.ACCURACY_FLOOR}")
            return problems

        self._check_op(ops, "table2", checks)
        return ops

    def expected_counts(self):
        chunks = self.CONFIGS * math.ceil(self.trials / CHUNK)
        rounds = self.CONFIGS * self.trials
        return ({"cli.run_table2.calls": 1,
                 "cli.run_chunked_rounds.calls": self.CONFIGS,
                 "code.run_rounds.calls": chunks,
                 "code.run_rounds.rounds": rounds,
                 "code.run_rounds.samples": rounds * self.WINDOW},
                {"code.closed_form_output.calls": self.CONFIGS})


class SweepLossP(Workload):
    name = "sweep-loss-p-w64"
    LOSS = (1.0, 0.95, 0.9, 0.8)
    WINDOW = 64
    ACCURACY_FLOOR = 0.98

    def __init__(self, *args):
        super().__init__(*args)
        self.trials = 256 if self.smoke else 1024
        self.config = self._write_config({
            "trials": self.trials, "window": self.WINDOW,
            "error": {"gamma": 0.5, "channel": "uniform",
                      "law": {"kind": "p", "shape": "gaussian"}},
            "sweep": {"parameter": "loss", "values": list(self.LOSS)}})

    def operations(self):
        return [self._experiment("mc-sweep", self.config)]

    def check(self, ops, stats):
        def checks():
            out = self.workdir / "out" / "mc-sweep"
            rows = json.loads((out / "mc_sweep.json").read_text())["rows"]
            return (check_theory("mc-sweep", out, self.reference)
                    + check_mc("mc-sweep", rows, "fidelity_mc")
                    + self._check_repeat("mc-sweep")
                    + [f"mc-sweep loss {r['loss']}: accuracy "
                       f"{r['classification_accuracy']} below {self.ACCURACY_FLOOR}"
                       for r in rows
                       if float(r["classification_accuracy"]) < self.ACCURACY_FLOOR])

        self._check_op(ops, "mc-sweep", checks)
        return ops

    def expected_counts(self):
        values = len(self.LOSS)
        rounds = values * self.trials
        return ({"cli.run_mc_sweep.calls": 1,
                 "cli.run_chunked_rounds.calls": values,
                 "code.run_rounds.calls": values * math.ceil(self.trials / CHUNK),
                 "code.run_rounds.rounds": rounds,
                 "code.run_rounds.samples": rounds * self.WINDOW},
                {"code.closed_form_output.calls": values})


class Verify(Workload):
    name = "verify"
    EXPERIMENTS = ("tableC1", "witness", "syndrome-demo")

    def criteria(self) -> list[int]:
        return [n for n in range(1, N_CRITERIA + 1)
                if not (self.smoke and n in SLOW_CRITERIA)]

    def operations(self):
        """The acceptance criteria as `cvqec verify` runs them, one op each,
        then the exact and witness experiments."""
        table = {label.split()[0]: fn for label, fn in acceptance.CRITERIA}
        ops = [(f"criterion {n}", table.get(str(n), _missing_criterion))
               for n in self.criteria()]
        return ops + [self._experiment(e, None) for e in self.EXPERIMENTS]

    def error(self, op, exc, host_factor):
        """Criterion 1 asserts a wall-clock bound after its exactness checks.
        A miss of only that bound is no failure if the time, scaled to
        reference host speed like every time the benchmark reports, is within
        it: on a shared host the raw time measures the host as much as cvqec."""
        m = CRITERION_1_TIMING.fullmatch(str(exc))
        if op != "criterion 1" or not isinstance(exc, AssertionError) or m is None:
            return super().error(op, exc, host_factor)
        raw_ms = float(m.group(1))
        ref_ms = raw_ms / host_factor
        self.notes.append(f"criterion 1: {raw_ms:.3f} ms raw, {ref_ms:.3f} ms at reference "
                          f"host speed (host factor {host_factor:.3f}), "
                          f"bound {CRITERION_1_BOUND_MS} ms")
        return None if ref_ms < CRITERION_1_BOUND_MS else super().error(op, exc, host_factor)

    def check(self, ops, stats):
        for experiment in ("tableC1", "witness"):
            self._check_op(ops, experiment, lambda e=experiment: (
                check_theory(e, self.workdir / "out" / e, self.reference)
                + self._check_repeat(e)))

        def syndrome_classes():
            out = self.workdir / "out" / "syndrome-demo"
            traces = json.loads((out / "syndrome_demo.json").read_text())["traces"]
            wrong = [f"syndrome-demo {ch} classified {t['classification']}"
                     for ch, t in sorted(traces.items()) if t["classification"] != ch]
            if len(traces) != 5:
                wrong.append(f"syndrome-demo: {len(traces)} traces, expected 5")
            return wrong + self._check_repeat("syndrome-demo")

        self._check_op(ops, "syndrome-demo", syndrome_classes)
        return ops

    def expected_counts(self):
        exact = {f"acceptance.criterion_{n}.calls": 1 for n in self.criteria()}
        exact.update({"cli.run_tableC1.calls": 1, "cli.run_witness.calls": 1,
                      "cli.run_syndrome_demo.calls": 1, "code.syndrome_trace.calls": 5})
        at_least = {"code.run_rounds.calls": 1, "code.encode.calls": 1,
                    "code.closed_form_output.calls": 1,
                    "witness.evaluate_witness.calls": 6,
                    "witness.combination_value.calls": 1}
        return exact, at_least


def _missing_criterion() -> None:
    raise LookupError("missing from acceptance.CRITERIA")


WORKLOADS = {w.name: w for w in (Table2, SweepLossP, Verify)}
