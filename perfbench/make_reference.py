"""Regenerates ``reference.json``, the theory columns the benchmark checks.

Theory columns depend on neither trials nor seed, so tiny runs suffice.  Run
from the root of a checkout whose theory columns are trusted:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> int:
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        tmp = Path(tmp)
        table2 = workloads.Table2(0, True, tmp, {})
        sweep = workloads.SweepLossP(0, True, tmp, {})
        for experiment, config in (("table2", table2.config), ("mc-sweep", sweep.config),
                                   ("tableC1", None), ("witness", None)):
            out = tmp / experiment
            argv = ["run", experiment, "--seed", "0", "--out", str(out)]
            workloads.run_cli(argv + (["--config", str(config)] if config else []))
            reference[experiment] = workloads.theory_columns(experiment, out)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
