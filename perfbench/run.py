"""Benchmark of the cvqec simulator, one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2-w512 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``table2-w512``,
``sweep-loss-p-w64`` and ``verify``.  Each runs as a closed loop: one client
runs one iteration at a time, in this process, with every iteration using the
workload seed, until the next iteration would end after ``--seconds`` (at
least two iterations).  ``CVQEC_THREADS`` is 1 and the BLAS/OpenMP thread
counts are capped at the number of usable CPUs.

``--trace 0`` reports the end-to-end metrics: the mean wall time of an
iteration (``wall_s``), Monte-Carlo samples per second (first-pass rounds
times window, summed over the loop, over its wall time), set-up time of a
fresh process through ``import cvqec`` and config parsing (``setup_s``,
median of several processes spread over the run) and the peak resident set.
Times are given in seconds of a reference-speed host: a fixed gauge of
interpreter and numpy work that never calls cvqec (``host_kernel``) runs
before and after every operation of an iteration, and each operation's time
is scaled by ``KERNEL_REF_S`` over the mean of the two gauge times beside it.
On a shared VM the host's speed drifts by up to 1.7x, within seconds as well
as over minutes; the scaling removes most of that drift and none of a change
in cvqec.  Raw values are printed beside the scaled ones.  The gauge time is
not part of ``wall_s``.

``--trace 1`` alternates untraced and traced iterations and reports per-layer
metrics ``<module>.<function>.<stat>`` from spans around calls into the
package (``spans.py``): counts per iteration and raw times as the median over
traced iterations, plus ``trace.overhead_frac``, the traced over the untraced
median wall time minus one.

Every operation's output is checked (``workloads.py``).  Human-readable lines
(metrics with their high percentile and sample count, failures, the
environment) come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 2 when the checkout has no ``src/cvqec`` to run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("table2-w512", "sweep-loss-p-w64", "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 2
SETUP_REPEATS = {"full": 7, "smoke": 1}
# host_kernel() time, in its fast mode, on the 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4) where the benchmark was defined; end-to-end times are scaled to it.
KERNEL_REF_S = 0.09

# Fresh-process set-up: interpreter start, `import cvqec`, config parsing.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); from cvqec import cli; "
               "cli.load_config(sys.argv[2] or None)")

# Per-layer metrics: span name -> exported statistics.
PER_LAYER = {
    "code.run_rounds": ("calls", "rounds", "samples", "self_s", "rerun_frac", "accuracy"),
    "code.PipelineMaps": ("calls", "total_s"),
    "code.closed_form_output": ("calls", "total_s"),
    "code.summarize_reports": ("calls", "total_s"),
    "code.encode": ("calls", "total_s", "self_s"),
    "code.decode": ("calls", "total_s", "self_s"),
    "code.syndrome_trace": ("calls", "total_s", "self_s"),
    "network.encoder_matrix": ("calls", "total_s"),
    "network.inverse": ("calls", "total_s"),
    "network.lift_to_symplectic": ("calls", "total_s"),
    "exact.mode_forms_apply_matrix": ("calls", "total_s"),
    "gaussian.fidelity_from_moments": ("calls", "total_s"),
    "errors.ErrorLaw.draw": ("calls", "samples", "total_s"),
    "witness.combination_value": ("calls", "total_s"),
    "witness.optimize_gains": ("calls", "total_s"),
    "witness.evaluate_witness": ("calls", "total_s"),
    "cli.run_chunked_rounds": ("calls", "self_s"),
    **{f"cli.run_{e}": ("self_s",)
       for e in ("table2", "mc_sweep", "tableC1", "witness", "syndrome_demo")},
    **{f"acceptance.criterion_{n}": ("total_s",) for n in range(1, 12)},
}
UNITS = {"calls": "count", "rounds": "count", "samples": "count",
         "rerun_frac": "ratio", "accuracy": "ratio", "total_s": "s", "self_s": "s"}


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_threads(environ, nproc: int) -> None:
    """One cvqec worker thread; BLAS/OpenMP threads at most ``nproc``."""
    environ["CVQEC_THREADS"] = "1"
    for var in THREAD_VARS:
        try:
            n = int(environ.get(var, ""))
        except ValueError:
            n = nproc
        environ[var] = str(min(max(n, 1), nproc))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_in_force"] = fn()
                return info
    return info


def environment(args, nproc: int) -> dict:
    import numpy as np

    return {"git_sha": git_sha(), "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(),
            "threads": {v: os.environ.get(v) for v in ("CVQEC_THREADS",) + THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale}


def setup_time(config: Path | None) -> float:
    """Wall time of a fresh process that imports cvqec and parses the config."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config or "")]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def host_kernel() -> float:
    """Times a fixed mix of interpreter, exact-fraction and numpy work that
    never calls cvqec, as a gauge of how fast the host runs at the moment."""
    import numpy as np

    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k)
    acc, counts = 0.0, {}
    for k in range(180_000):
        acc += k * 0.5
        counts[k % 97] = counts.get(k % 97, 0) + 1
    rng = np.random.default_rng(0)
    mix = np.ones((10, 6))
    for _ in range(18):
        acc += float((rng.standard_normal((64, 256, 10)) @ mix).var(axis=1).sum())
    return time.perf_counter() - t0


@dataclass
class Iteration:
    traced: bool
    wall_s: float           # time in the workload's operations
    scaled_s: float         # the same at reference host speed
    gauges: list[float]     # host_kernel() times around the operations
    stats: dict
    ops: dict


def run_operations(workload) -> tuple[dict, float, float, list[float]]:
    """Runs one iteration's operations with the host gauge before each and
    after the last.  Each operation's time is scaled by ``KERNEL_REF_S`` over
    the mean of the gauges on either side of it."""
    ops, wall, scaled, gauges = {}, 0.0, 0.0, [host_kernel()]
    for name, op in workload.operations():
        t0 = time.perf_counter()
        try:
            op()
            ops[name] = None
        except Exception as exc:  # an operation that raises may have failed
            ops[name] = workload.error(name, exc, gauges[-1] / KERNEL_REF_S)
        elapsed = time.perf_counter() - t0
        gauges.append(host_kernel())
        wall += elapsed
        scaled += elapsed * 2.0 * KERNEL_REF_S / (gauges[-2] + gauges[-1])
    return ops, wall, scaled, gauges


def check_counts(workload, tracer, stats: dict) -> None:
    """Span counts must match what the workload implies; a binding the
    tracer missed would otherwise show as zero calls."""
    names = {target[0] for target in tracer.targets}
    exact, at_least = workload.expected_counts()
    wrong = []
    for key, want in list(exact.items()) + list(at_least.items()):
        name, stat = key.rsplit(".", 1)
        if name not in names:
            continue
        got = stats.get(name, {}).get(stat, 0)
        if got < want or (key in exact and got != want):
            wrong.append(f"{key} = {got}, expected {'' if key in exact else '>= '}{want}")
    if wrong:
        raise RuntimeError("span counts do not match the workload: " + "; ".join(wrong))


def closed_loop(workload, tracers, seconds: float,
                setup_repeats: int) -> tuple[list[Iteration], list[float]]:
    """Runs iterations until the next would end after ``seconds``.  The host
    gauge runs between operations; set-up probes run one after each
    iteration so that they sample the same stretch of time."""
    done: list[Iteration] = []
    setup: list[float] = []
    turns: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer = tracers[len(done) % len(tracers)]
        tracer.install()
        try:
            ops, wall, scaled, gauges = run_operations(workload)
        finally:
            tracer.uninstall()
        stats = tracer.take()
        ops = workload.check(ops, stats)
        if not any(ops.values()):       # failed operations stop early; counts differ
            check_counts(workload, tracer, stats)
        done.append(Iteration(tracer is not tracers[0], wall, scaled, gauges, stats, ops))
        if len(setup) < setup_repeats:
            setup.append(setup_time(workload.config))
        turns.append(time.perf_counter() - t0)
        if (len(done) >= MIN_ITERATIONS
                and time.perf_counter() - start + statistics.median(turns) > seconds):
            break
    while len(setup) < setup_repeats:
        setup.append(setup_time(workload.config))
    return done, setup


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[min(len(ordered) - 1, len(ordered) * p // 100)]
    return "max", ordered[-1]


def metric(name: str, value: float, samples: list[float], unit: str,
           scale: float = 1.0) -> tuple[str, dict]:
    label, high = high_percentile(samples)
    raw = f"raw {value:.6g}; " if scale != 1.0 else ""
    print(f"{name:<18} {value * scale:.6g} {unit}  ({raw}samples: median "
          f"{statistics.median(samples):.6g}, {label} {high:.6g}, n={len(samples)})")
    return name, {"value": value * scale, "unit": unit}


def end_to_end(iterations: list[Iteration], setup: list[float]) -> dict:
    """Run totals of the loop, scaled to reference host speed; a run mean
    follows the host's drift between speed modes less than a median does."""
    walls = [i.wall_s for i in iterations]
    samples = [i.stats.get("code.run_rounds", {}).get("samples", 0) for i in iterations]
    speed = sum(i.scaled_s for i in iterations) / sum(walls)
    gauges = [g for i in iterations for g in i.gauges]
    print(f"host gauge         {statistics.fmean(gauges):.6g} s mean of {len(gauges)}, "
          f"reference {KERNEL_REF_S} s: times scaled by {speed:.4f}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return dict([
        metric("wall_s", statistics.fmean(walls), walls, "s", speed),
        metric("mc_samples_per_s", sum(samples) / sum(walls),
               [n / w for n, w in zip(samples, walls)], "1/s", 1.0 / speed),
        metric("setup_s", statistics.median(setup), setup, "s", speed),
        metric("peak_rss_mb", rss_mb, [rss_mb], "MB")])


def layer_value(stats: dict, name: str, stat: str) -> float:
    s = stats.get(name, {})
    if stat in ("rerun_frac", "accuracy"):
        part = s.get("reruns" if stat == "rerun_frac" else "matched", 0)
        return part / s["rounds"] if s.get("rounds") else 0.0
    return s.get(stat, 0)


def per_layer(iterations: list[Iteration]) -> dict:
    traced = [i for i in iterations if i.traced]
    out = {}
    for name, stats in PER_LAYER.items():
        for stat in stats:
            value = statistics.median_low(layer_value(i.stats, name, stat) for i in traced)
            out[f"{name}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    overhead = (statistics.median(i.wall_s for i in traced)
                / statistics.median(i.wall_s for i in iterations if not i.traced) - 1.0)
    out["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    for name, m in out.items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    return out


def bench(args, workdir: Path, nproc: int) -> dict:
    import cvqec

    if not Path(cvqec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cvqec was imported from {cvqec.__file__}, not from {SRC}")
    import spans
    import workloads

    reference = json.loads(workloads.REFERENCE.read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale == "smoke",
                                                  workdir, reference)
    tracers = [spans.Tracer(spans.COUNTING_TARGETS)]
    if args.trace:
        tracers.append(spans.Tracer(spans.TRACED_TARGETS + spans.criterion_targets()))
    iterations, setup = closed_loop(workload, tracers, args.seconds,
                                    0 if args.trace else SETUP_REPEATS[args.scale])

    failures = [f"{op}: {err}" for i in iterations for op, err in i.ops.items() if err]
    attempted = sum(len(i.ops) for i in iterations)
    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    for line in workload.notes:
        print(line)
    print(f"workload {args.workload} seed {args.seed}: {len(iterations)} iterations, "
          f"{attempted} operations, ops_failed_frac {len(failures) / attempted:.6g} ratio "
          f"({len(failures)}/{attempted})")
    metrics = per_layer(iterations) if args.trace else end_to_end(iterations, setup)
    print("env " + json.dumps(environment(args, nproc), sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SETUP_REPEATS), default="full",
                        help="smoke: tiny sizes and no slow criteria, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "cvqec" / "__init__.py").is_file():
        print(f"no cvqec package under {SRC}", file=sys.stderr)
        return 2

    nproc = usable_cpus()
    cap_threads(os.environ, nproc)      # before numpy is imported
    workdir = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    sys.path.insert(0, str(SRC))
    try:
        result = bench(args, workdir, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
