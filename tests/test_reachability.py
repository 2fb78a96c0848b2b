"""Every function of ``src/cvqec`` runs in some experiment or criterion.

A fresh interpreter installs a ``sys.setprofile`` hook before it imports
cvqec, so import-time builders count and no cache warmed by another test
hides a call.  It then runs each experiment of ``RUNS`` through ``cli.main``
and ``cvqec verify``.  A ``def`` that never ran fails the test unless
``ALLOWLIST`` gives a reason to keep it; an allowlisted ``def`` that ran, or
one that no longer exists, fails it too, so the list only shrinks.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cvqec"

# Functions kept although no run calls them, by module-qualified name.
ALLOWLIST = {
    "code.summarize_reports": "kept until perfbench stops tracing it by name",
    "code.RoundsOutcome.summary": "kept until perfbench stops tracing it by name",
    "errors.ErrorLaw.draw": "kept until perfbench stops tracing it by name",
    "exact.ExactScalar.__setattr__": "the shared ZERO and ONE must not mutate",
    "exact.LinearForm.__setattr__": "forms shared by the cached decoder must not mutate",
    "exact.ExactScalar.__bool__": "without it a zero scalar would be truthy",
    "exact.ExactScalar.__repr__": "failed exact comparisons print their operands",
    "exact.LinearForm.__repr__": "a failed form comparison names its symbols",
    "exact.ModeForm.fourier": "builds the Fourier forms the tests check PLANS[True] against",
}

# (experiment, config) pairs, each small: every experiment, and between
# them what a config selects: a vacuum and a squeezed input, Fourier
# ancillas, per-channel loss, the general, x and p laws and both shapes, all
# four sweep parameters, and a table2 of more than one chunk, whose chunks
# are joined.
_SQUEEZED_FOURIER = {"fourier": True, "input": {"squeeze_db": 3.0, "antisqueeze_db": 6.0}}
RUNS = (
    ("table2", {"trials": 300, "window": 30}),
    ("tableC1", {"code": _SQUEEZED_FOURIER}),
    ("spectra", {"code": _SQUEEZED_FOURIER, "trials": 8, "window": 30}),
    ("syndrome-demo", {"window": 64}),
    ("witness", {"sweep": {"parameter": "r", "values": [0.0, 0.4]}}),
    ("mc-sweep", {"trials": 8, "window": 30,
                  "sweep": {"parameter": "r", "values": [0.2, 0.5]}}),
    ("mc-sweep", {"trials": 8, "window": 30, "error": {"gamma": 0.5, "law": {
                  "kind": "x", "shape": "gaussian"}},
                  "sweep": {"parameter": "gamma", "values": [0.5, 1.0]}}),
    ("mc-sweep", {"trials": 8, "window": 30, "error": {"law": {"kind": "p"}},
                  "sweep": {"parameter": "magnitude", "values": [1.0, 5.0]}}),
    ("mc-sweep", {"trials": 8, "window": 30,
                  "code": {"channel_loss": [1.0, 0.9, 0.95, 1.0, 0.8]},
                  "sweep": {"parameter": "loss", "values": [1.0, 0.9]}}),
)

# The child: hook, import, run.  It writes the (file, first line) of every
# code object of the package that was entered.
_CHILD = """
import json, os, sys
package, runs, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
called = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.setprofile(hook)
import cvqec
from cvqec import cli
assert os.path.dirname(cvqec.__file__) == package, cvqec.__file__
for k, (experiment, doc) in enumerate(runs):
    config = os.path.join(out, f"config{k}.json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["run", experiment, "--config", config,
                     "--out", os.path.join(out, str(k))]) == 0
# pass or fail is the acceptance tests' to judge: under the hook criterion 1
# may miss its sub-millisecond bound after every call it makes
cli.main(["verify", "-q"])
sys.setprofile(None)
with open(os.path.join(out, "called.json"), "w") as fh:
    json.dump(sorted(called), fh)
"""


def _defs(node, prefix=""):
    """(qualified name, first line) of every ``def`` under ``node``; the first
    line is a decorated function's first decorator's, as in its code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, min([child.lineno]
                                           + [d.lineno for d in child.decorator_list])
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def package_defs() -> dict[tuple[str, int], str]:
    """{(file name, first line): module-qualified name} of every ``def``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _defs(ast.parse(path.read_text(encoding="utf-8"))):
            out[path.name, line] = f"{path.stem}.{name}"
    return out


def test_every_function_runs_or_is_allowlisted(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(PACKAGE), json.dumps(RUNS),
                           str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    called = {tuple(key) for key in json.loads((tmp_path / "called.json").read_text())}
    defs = package_defs()
    ran = {name for key, name in defs.items() if key in called}
    never = set(defs.values()) - ran
    unused = sorted(never - set(ALLOWLIST))
    assert not unused, f"no run calls {unused}: delete them or allowlist them with a reason"
    stale = sorted(set(ALLOWLIST) - never)
    assert not stale, f"allowlisted but ran or gone: {stale}; drop them from ALLOWLIST"
    assert elapsed < 10.0
