"""The benchmark's hand mirrors of the program agree with it.

``perfbench/workloads.py`` restates two things by hand: ``CHUNK``, the
rounds per ``run_rounds`` call from which ``perfbench/run.py`` derives the
exact call count it requires, and ``digest``, the output-directory hash that
``tests/test_artifacts.py`` pins.  A change on one side only would fail every
benchmark run but no other test.  The module is loaded from its file without
writing bytecode beside it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cvqec import cli
from test_artifacts import digest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_benchmark_chunk_is_the_cli_chunk(workloads):
    assert workloads.CHUNK == cli._CHUNK


def test_benchmark_digest_is_the_pinned_digest(workloads, tmp_path):
    assert cli.main(["run", "tableC1", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 2
    assert workloads.digest(tmp_path) == digest(tmp_path)
