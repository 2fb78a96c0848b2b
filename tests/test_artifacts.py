"""Characterization test: the exact bytes that ``cvqec run`` writes.

Each case runs one experiment through the CLI and compares the SHA-256
digest of its output directory, hashed as ``perfbench/workloads.digest``
does (every file's name, a NUL byte and its bytes, in name order), with a
pinned value.  On a mismatch the failure names the files whose own digest
moved and prints the new directory digest and each moved file's SHA-256, in
the form of the pins below, and this host's numpy, OpenBLAS core and
AVX-512 dispatch beside ``PINNED_HOST``'s.  A change that moves an artifact
byte re-pins them and says why.

The digests hold on one host only, so a second check re-runs every case in a
child process under each of ``KERNEL_SETTINGS``, which force another BLAS or
SIMD kernel, and compares every CSV cell with this host's within
``KERNEL_RTOL``.
"""

import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvqec import cli

_SMALL = {"trials": 32, "window": 64}
_FOURIER_SQUEEZED = {"squeezing_db": 4, "fourier": True,
                     "input": {"squeeze_db": 3.5, "antisqueeze_db": 8.9}}
_R_SWEEP = {"parameter": "r", "values": [0.0, 0.4, 1.0]}

# config name -> (config document, experiments that accept it)
CONFIGS = {
    "seed0": ({**_SMALL, "seed": 0}, cli.EXPERIMENTS),
    "seed3-fourier": ({**_SMALL, "seed": 3, "code": _FOURIER_SQUEEZED, "sweep": _R_SWEEP},
                      cli.EXPERIMENTS),
    "seed3-fourier-loss": ({**_SMALL, "seed": 3, "sweep": _R_SWEEP,
                            "code": {**_FOURIER_SQUEEZED,
                                     "channel_loss": [1.0, 0.95, 0.9, 0.85, 0.8]}},
                           tuple(e for e in cli.EXPERIMENTS if e != "witness")),
}
CASES = [f"{config}/{experiment}" for config, (_, experiments) in CONFIGS.items()
         for experiment in experiments]


def config_doc(config: str, experiment: str) -> dict:
    """The config document of one case; the seed-0 mc-sweep sweeps gamma."""
    doc = CONFIGS[config][0]
    if experiment == "mc-sweep" and "sweep" not in doc:
        doc = {**doc, "sweep": {"parameter": "gamma", "values": [0.1, 0.5]}}
    return doc


# What the digests were pinned on: numpy 2.4.6, the SkylakeX core of its
# bundled OpenBLAS and numpy's AVX-512 loops.  Another numpy, BLAS core or
# SIMD dispatch can move the last bits of a float, and so a digest.
PINNED_HOST = "numpy 2.4.6, OpenBLAS core SkylakeX, AVX-512 dispatch X86_V4 AVX512_ICL AVX512_SPR"


def host() -> str:
    """This host's numpy version, the core its bundled OpenBLAS picked (read
    through ctypes) and the AVX-512 targets numpy dispatches to, as in
    ``PINNED_HOST``."""
    cores = []
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        cores.append(corename().decode())
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        avx512 = ["unknown"]
    else:
        avx512 = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)
                  and (t == "X86_V4" or t.startswith("AVX512"))]
    return (f"numpy {np.__version__}, OpenBLAS core {'/'.join(cores) or 'unknown'}, "
            f"AVX-512 dispatch {' '.join(avx512) or 'none'}")


def test_host_names_what_the_digests_pin():
    """``host`` reads the three things ``PINNED_HOST`` names."""
    assert host().startswith(f"numpy {np.__version__}, OpenBLAS core ")
    assert " AVX-512 dispatch " in host()


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# case -> (digest of the output directory, {file: SHA-256 of its bytes})
_DIGESTS = {
    "seed0/table2": ("c84b8056b456f2c7eb023872bbfdf9d5da22b4873bdd2243018362b5bbd367f4", {
        "table2.csv": "9fb4536e89a24d2cf823e1c8b62d78a32fbe3114a08e04bddb2233c93b095108",
        "table2.json": "65fbdf4aafa812f779cd55e0019d238f0bb538623ab21b4d188afd2dd512924e",
    }),
    "seed0/tableC1": ("01aee40032464259a819b7717cfa73e7edc8ee1a4c56a7236605a0ed70b74ab6", {
        "tableC1.csv": "b56d917c2e3e79d004595f69e4e912ec8d3a43257b07f4d5adc447ff2dc036c0",
        "tableC1.json": "c7e154c311773baf6ae9a58dc2abbc8bbe209e76f55a828f1dfad1ea60949409",
    }),
    "seed0/syndrome-demo": ("f447c504f0af26b1488a0e6a2af088666ce3b30972a668ac836a9a253c9d94f0", {
        "syndrome_demo.json": "72b64c3032e280face94dac08afabf2cfb2b07957455f3bc5cd47e7e4588cbf4",
        "syndrome_demo_ch1.csv": "a2c8796bb531a88f41a621bb53f43eeeef94da2932bce4bf4a6144ce3a7ea16a",
        "syndrome_demo_ch2.csv": "8bed8a70670e5b1941058c267d5ec60b8ad683a01b6dd082c2f87fbb9e6bfcbc",
        "syndrome_demo_ch3.csv": "88eeba8dec2888d63444e0cacc8f07d0673794777ee7082aa20460ffed5f0cb7",
        "syndrome_demo_ch4.csv": "450c3179b977c46712238e3f08b99a5f851ca4a1bcd9ca2caac390ea228c50bf",
        "syndrome_demo_ch5.csv": "1309dc59f6c3aa44e5a3fd2b3180b87da1462306429eee8e7ab9d274a89668cb",
    }),
    "seed0/spectra": ("51e17000dc08bc1d5fc9a9125ccda5c148b68041b02270337412b81e7ab59155", {
        "spectra.csv": "fb33f18cfe268a1c897ab47c06e67ab5598ed60bc68bbc82cc58b4a3339270ed",
        "spectra.json": "f558008958d58d48cc0267fbc9548f5a46e993610bad190d4a5796e3a9fa5ddc",
    }),
    "seed0/witness": ("ad7958dbd75c0beedfddf5fbf7053566d2ea079ed47a022f71db19b61eb1e0fc", {
        "witness.csv": "4490bae6496b6b744d6d631a6daf64b1b25f6306e3579a64f23b17ea315a7ecd",
        "witness.json": "0b772e9f5917ac89e9a15e14d71cce3b9a7f68f223f60129ad82fd16fa9740a4",
    }),
    "seed0/mc-sweep": ("1f984951b11b44238c43d57d46f7961ee5a54b79a69b741445d4bb66a464cdbb", {
        "mc_sweep.csv": "bc5ecae65dc9862a2b645cbf45f996a5d5f7e70f438a8dd3f805cd575c36944d",
        "mc_sweep.json": "e22e83c0a6c5b69ae8475d5b3d8cd33aa8fe94f1140b04fcc833fe74c7d01203",
    }),
    "seed3-fourier/table2": ("b4c8a24ff6916de34aef007e991f52328d7acd6488773910b53565c05941cbf8", {
        "table2.csv": "54758944e31a3440efa117de759bc59cb09827a39eaa6dde2d4c2566daac10b7",
        "table2.json": "db8253db4fce8212a66f39aff7e1e1ba2df9954a38fb45c9b88e336520f384b3",
    }),
    "seed3-fourier/tableC1": ("7504ea20cf223666a8caad6f8eb8198e17f64d245f162dfa483fca7d6e390bb2", {
        "tableC1.csv": "fed40e6f8d42ce5dc150bfd3fe1172c961e992461e3be1db0e381d4869465cf2",
        "tableC1.json": "71a4e09ffc1b9c0c5c46cf2b335192e51384de6ceee643673353b6108e7df13c",
    }),
    "seed3-fourier/syndrome-demo": ("55c435d5516bb1fb7e45eaa0a533f1e55025b37ac8242e9e54f83b52174934cc", {
        "syndrome_demo.json": "d0f62c10008b156608bd385e7975294cb6d32f385347e160af6de7786b6c8d27",
        "syndrome_demo_ch1.csv": "3c623f2529daddbb6f2fb6f1e6bba5f62aa080ad3db24794d3538511b5e0a5bc",
        "syndrome_demo_ch2.csv": "fc8a5ec82e5ec433698700b46b284235975a16b1b88214cda568039a70e60e15",
        "syndrome_demo_ch3.csv": "4f8efbdc883fec63e8e5de2e0b671a5104667e538326bd0b700067d7bf974cb7",
        "syndrome_demo_ch4.csv": "157cb00f2fb7c0df2f6534a0af60ffa922bb5c8ee9a9be22471de8c7b5fad39c",
        "syndrome_demo_ch5.csv": "e4606574f85d5c9720ddb8edacc76355c24a722a56af7de9eba826b52aa7c09e",
    }),
    "seed3-fourier/spectra": ("06b8d4f498034bf422101d15709622bf60e3da3d0aa7856df9c559b4f9cab77c", {
        "spectra.csv": "7674d8523c42c532a2cd5cdfcb5bd1cbe2c26f2be3c48d7a2fe3e041f12e109a",
        "spectra.json": "0101395fcfd1fca9e40c032a695038465b36838cac9d21280bf1b6c6126c54d2",
    }),
    "seed3-fourier/witness": ("f73ee52c6a605f1040c7f9ee07ab3370e2506450fa60c7f4a7e5eae0a7ce2e1c", {
        "witness.csv": "b0e60b3d6097b21a99a2d05679421d03c3a5ed4208bf4038c4ee063d807b7f8f",
        "witness.json": "2fabe4b6e4817d4d4660442b67308839fb314a0c567213838f0fc7af1f541fc5",
    }),
    "seed3-fourier/mc-sweep": ("2174879b78c039d10c98284ce11d561405a7939eca2d5e8dca0331d35700cdbb", {
        "mc_sweep.csv": "9f88779c2b38804b832b1260791443cba07f4300aed0dad7c5ce0fbf5711a860",
        "mc_sweep.json": "5e2a30c3b03cc167661822a46b482c43a6166630bf4a67ffd60e343ac0d4235e",
    }),
    "seed3-fourier-loss/table2": ("af5c32628e3fe0babf9ba35a0cb9a89f0331a6b929acb2af34835f876658279c", {
        "table2.csv": "8c66ff2a2a863d2e1367c4f01f27ef831e65d6910b0b94ac258f929345ef01de",
        "table2.json": "9cf2abfd75b379a66763ed2629ae87d355e7836731fb510eb448af16bd03e225",
    }),
    "seed3-fourier-loss/tableC1": ("85285e8a04fd1a3f30c63f38a78c0dc5ca4060a0ee4b9b05de85454fc42b14ab", {
        "tableC1.csv": "cea3b150c8c1f50bd06a1542cba81061a9bb1e476ad9a3dcad62df007a096118",
        "tableC1.json": "efec5263b13df925c2b36da83ca2e6ed3aff31e8e6ddd2c889ec6ae53a4c32b9",
    }),
    # A lossy trace's noise is one draw of twenty normals per sample, the
    # source quadratures and the loss vacua together.
    "seed3-fourier-loss/syndrome-demo": ("faf1b4ce65d7863c0b0de2e2ae33aaef5a998b8e21cb59fa9252aa107bb51d50", {
        "syndrome_demo.json": "d0f62c10008b156608bd385e7975294cb6d32f385347e160af6de7786b6c8d27",
        "syndrome_demo_ch1.csv": "00ee5958d97e25be270c89cb83bad51cc9a7d1990f853d9f88de85a01c771f8e",
        "syndrome_demo_ch2.csv": "15d63edefd84a7f88b2df732e30b96093b6c9ab6e76cdc2cfcf7a2017823102f",
        "syndrome_demo_ch3.csv": "d2f5e0cb0c957e1e8bbf16258176e2019b751f9c62c436532f8b6e3262b65737",
        "syndrome_demo_ch4.csv": "946226a49add8b823505deec58c2b5d3c2019cfec62f7f83d15b5b2f332733cd",
        "syndrome_demo_ch5.csv": "8ab6a54d2e035d811ca04c916a942de0624fc9d2ab7fcc3a019579662418322f",
    }),
    "seed3-fourier-loss/spectra": ("c0acd8bd7dff4895376b24627a5c0e71322e7a66dab6b3497460a3e28ec4dec3", {
        "spectra.csv": "de5c92fe66134652b4d7457b145820e69a94a999f449e21f76e7816fb9e58cae",
        "spectra.json": "8d98bd7017cd80f751d425c60f84e6b5a4e90070066fcfbf9e41502409f89a04",
    }),
    "seed3-fourier-loss/mc-sweep": ("b83e1e7dad4cbd42292eab26d6207d984dda0f846f85bf103701a11e4f531ccc", {
        "mc_sweep.csv": "6efc15475b3e5b2a4b4032d95070b8eba43e7fb57ccaa38581ddee32b6b804d4",
        "mc_sweep.json": "a50b4d5ad88a60f639bfeab1285252beee53b51683b6875988c916953d03149d",
    }),
}


def run_case(case: str, root: Path) -> Path:
    """Runs one case through the CLI under ``root``; its output directory."""
    config, experiment = case.split("/")
    path = root / f"{config}-{experiment}.json"
    path.write_text(json.dumps(config_doc(config, experiment)))
    out = root / config / experiment
    assert cli.main(["run", experiment, "--config", str(path), "--out", str(out)]) == 0
    return out


def case_cells(root: Path) -> dict[str, list[str]]:
    """The cells of every CSV file of every case, by "case/file", run under
    ``root``."""
    cells = {}
    for case in CASES:
        for path in sorted(run_case(case, root).glob("*.csv")):
            with path.open(newline="") as f:
                cells[f"{case}/{path.name}"] = [cell for row in csv.reader(f) for cell in row]
    return cells


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_their_pinned_digests(case, tmp_path):
    config, experiment = case.split("/")
    out = run_case(case, tmp_path)
    want_dir, want_files = _DIGESTS[case]
    if digest(out) != want_dir:
        got_files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in out.iterdir()}
        moved = sorted(name for name in got_files.keys() | want_files.keys()
                       if got_files.get(name) != want_files.get(name))
        pins = "".join(f"\n    {name!r}: {got_files.get(name)!r}," for name in moved)
        pytest.fail(f"{experiment} ({config}): the digest of {', '.join(moved)} moved; "
                    f"directory digest now {digest(out)!r}, moved files now:{pins}\n"
                    f"pinned on {PINNED_HOST}\nthis host {host()}")


# setting -> (environment of the child, why it can leave the kernels as they
# are).  Prescott picks OpenBLAS's oldest x86-64 kernels.
KERNEL_SETTINGS = {
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"},
                "OPENBLAS_CORETYPE acts only on a DYNAMIC_ARCH OpenBLAS, and this host "
                "may already run that core"),
    "prescott": ({"OPENBLAS_CORETYPE": "Prescott"},
                 "OPENBLAS_CORETYPE acts only on a DYNAMIC_ARCH OpenBLAS"),
    "no-avx512": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                  "this numpy does not know these feature names or this CPU lacks them"),
}

# The bound on a numeric CSV cell under another kernel: KERNEL_RTOL relative
# plus KERNEL_ATOL absolute.  With the readout factor's canonical signs, the
# cells of the lossless cases moved by at most 7.6e-15 relative under
# Prescott, 2.0e-15 under Haswell and 7.8e-16 without the AVX-512 loops, and
# those of the lossy case by at most 1.8e-15 absolute.  The floor is for the
# lossy theory cells in dB, a ratio of two nearly equal variances or the
# residue of one that is 0 in theory, which Prescott moves by up to 4.8e-16
# dB.  Without loss the map is exact, so a cell that is exactly 0 here must
# print the same.
KERNEL_RTOL = 1e-13
KERNEL_ATOL = 1e-14

# A child run: this host's description, then every case's cells, as JSON.
_CHILD = """
import json, sys, tempfile
from pathlib import Path
import test_artifacts as t
with tempfile.TemporaryDirectory() as tmp:
    cells = t.case_cells(Path(tmp))
Path(sys.argv[1]).write_text(json.dumps({"host": t.host(), "cells": cells}))
"""


@pytest.fixture(scope="module")
def host_cells(tmp_path_factory):
    return case_cells(tmp_path_factory.mktemp("host"))


def cell_moved(want: str, got: str, lossless: bool) -> bool:
    """Whether a cell under another kernel moved past the bound from this
    host's: a text or non-finite cell, or a zero one of a lossless case,
    must be the same string."""
    try:
        w, g = float(want), float(got)
    except ValueError:
        return got != want
    if (lossless and w == 0.0) or not math.isfinite(w):
        return got != want
    return not math.isclose(g, w, rel_tol=KERNEL_RTOL, abs_tol=KERNEL_ATOL)


def test_cell_moved_reads_numbers_texts_and_zeros():
    assert not cell_moved("1.0", str(1.0 + 5e-14), True)
    assert cell_moved("1.0", str(1.0 + 5e-13), True)
    assert cell_moved("0.0", "-0.0", True) and cell_moved("0.0", "1e-300", True)
    assert not cell_moved("0.0", "-4.8e-16", False) and cell_moved("0.0", "2e-14", False)
    assert cell_moved("x", "p", True) and not cell_moved("", "", True)
    assert cell_moved("nan", "1.0", False)


def lossless(name: str) -> bool:
    """Whether the case of a "case/file" cell name runs without channel loss."""
    return "channel_loss" not in CONFIGS[name.split("/")[0]][0].get("code", {})


@pytest.mark.parametrize("setting", KERNEL_SETTINGS)
def test_artifacts_agree_under_other_kernels(setting, host_cells, tmp_path):
    """Every case's CSV cells under a forced kernel equal this host's within
    ``KERNEL_RTOL``; skipped where the setting leaves this host's kernels as
    they are."""
    env, why_inert = KERNEL_SETTINGS[setting]
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    result = tmp_path / "cells.json"
    child = subprocess.run([sys.executable, "-c", _CHILD, str(result)],
                           env={**os.environ, **env, "PYTHONPATH": path},
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    doc = json.loads(result.read_text())
    if doc["host"] == host():
        pytest.skip(f"{setting} left this host as it is ({host()}): {why_inert}")
    assert doc["cells"].keys() == host_cells.keys()
    moved = [f"{name}[{i}]: {want} -> {got}"
             for name, want_cells in host_cells.items()
             for i, (want, got) in enumerate(zip(want_cells, doc["cells"][name]))
             if cell_moved(want, got, lossless(name))]
    moved += [f"{name}: {len(want)} cells -> {len(doc['cells'][name])}"
              for name, want in host_cells.items() if len(want) != len(doc["cells"][name])]
    assert not moved, f"under {doc['host']}, {len(moved)} cells moved: {moved[:10]}"
