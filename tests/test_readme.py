"""The README's library sketch runs against the public API, and its stated
input limits and result columns are the code's."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from cvqec.cli import MAX_TRIALS, MAX_WINDOW
from cvqec.code import MAX_INPUT_DB, MAX_R, RoundsOutcome
from cvqec.errors import MAX_MAGNITUDE

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_sketch_runs():
    """The sketch runs and prints one line per ``print`` line, and each print
    line whose comment is a number prints that number to its digits."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    prints = [line for line in blocks[0].splitlines() if line.startswith("print(")]
    printed = done.stdout.splitlines()
    assert len(printed) == len(prints), printed
    stated = [(m, out) for line, out in zip(prints, printed)
              if (m := re.search(r"#\s*(-?\d+\.(\d+))\s*$", line))]
    assert len(stated) >= 2
    for m, out in stated:
        assert f"{float(out):.{len(m.group(2))}f}" == m.group(1), (m.group(0), out)


def test_readme_input_limits_match_the_code():
    """Every README limit "at most <value> (`<bound>`" equals its bound, and
    the squeezing limit's "about <n> dB" is MAX_R in dB, rounded."""
    text = " ".join((ROOT / "README.md").read_text().split())
    for bound, value in (("errors.MAX_MAGNITUDE", MAX_MAGNITUDE), ("code.MAX_R", MAX_R),
                         ("code.MAX_INPUT_DB", MAX_INPUT_DB), ("cli.MAX_TRIALS", MAX_TRIALS),
                         ("cli.MAX_WINDOW", MAX_WINDOW)):
        stated = re.findall(rf"at most (\S+) \(`{re.escape(bound)}`", text)
        assert stated and all(float(v) == value for v in stated), (bound, stated)
    db = re.findall(r"\(`code\.MAX_R`, about (\d+) dB\)", text)
    assert db == [str(round(20.0 * MAX_R / math.log(10.0)))], db


def test_readme_lists_the_outcome_columns():
    """The README's backticked list of the columns a ``RoundsOutcome``
    stores is its dataclass fields, in order."""
    text = " ".join((ROOT / "README.md").read_text().split())
    stated = re.findall(r"`RoundsOutcome`, whose stored columns are ([^:]*):", text)
    assert len(stated) == 1, stated
    assert (re.findall(r"`(\w+)`", stated[0])
            == [f.name for f in dataclasses.fields(RoundsOutcome)])
