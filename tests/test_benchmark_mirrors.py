"""The benchmark's hand mirrors of the program agree with it.

``perfbench/workloads.py`` restates two things by hand: ``CHUNK``, the
rounds per ``run_rounds`` call from which ``perfbench/run.py`` derives the
exact call count it requires, and ``digest``, the output-directory hash that
``tests/test_artifacts.py`` pins.  ``perfbench/spans.py`` names each traced
function by module and attribute, such as ``cli.run_chunked_rounds``, which
``cli`` binds by import.  A change on one side only would fail every
benchmark run but no other test.  The modules are loaded from their files
without writing bytecode beside them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cvqec import cli, montecarlo
from test_artifacts import digest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_benchmark_chunk_is_the_fold_chunk(workloads):
    assert workloads.CHUNK == montecarlo._CHUNK


def test_benchmark_digest_is_the_pinned_digest(workloads, tmp_path):
    assert cli.main(["run", "tableC1", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 2
    assert workloads.digest(tmp_path) == digest(tmp_path)


def test_benchmark_span_targets_resolve(spans):
    """Every counting and traced target names a function of its module, or
    a method in its class's own ``__dict__``, and each of the benchmark's
    two tracers installs, one at a time as the benchmark installs them,
    without a ``MissedBinding``."""
    targets = spans.COUNTING_TARGETS + spans.TRACED_TARGETS
    for name, module, attr, _ in targets:
        owner = importlib.import_module(f"cvqec.{module}")
        if "." in attr:
            cls, method = attr.split(".")
            assert callable(vars(getattr(owner, cls)).get(method)), name
        else:
            assert callable(vars(owner).get(attr)), name
    for targets in (spans.COUNTING_TARGETS, spans.TRACED_TARGETS + spans.criterion_targets()):
        tracer = spans.Tracer(targets)
        tracer.install()
        tracer.uninstall()
