"""Characterization test: the exact bytes that ``cvqec run`` writes.

Each case runs one experiment through the CLI and compares the SHA-256
digest of its output directory, hashed as ``perfbench/workloads.digest``
does (every file's name, a NUL byte and its bytes, in name order), with a
pinned value.  On a mismatch the failure names the files whose own digest
moved and prints the new directory digest and each moved file's SHA-256, in
the form of the pins below, and this host's numpy, OpenBLAS core and
AVX-512 dispatch beside ``PINNED_HOST``'s.  A change that moves an artifact
byte re-pins them and says why.
"""

import ctypes
import hashlib
import json
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
    "seed0/table2": ("dc23c58070a2afe25b2115657f4e8026eb813abfe4679f0d2917de9d0f4362ad", {
        "table2.csv": "d29b274a47dd02d77dbeda62f9cd6f4281fd026c2ddaf26df1c6d60629588b86",
        "table2.json": "c47f80f79765d6612e4417f9d3c5e853c194a8077fad3a91b17cdf2183494782",
    }),
    "seed0/tableC1": ("511f0bb53fecf0346983e83949f223f51c511d77173ff61d69018d623f3b30cc", {
        "tableC1.csv": "96be08af111e274370ce155298c0274e49529d1a60dcdfef56115d6c83c7b51d",
        "tableC1.json": "0392365ee0e9d2e92c36065d887591f62fab9bfdb51e965f233968a03eb32678",
    }),
    "seed0/syndrome-demo": ("b5f8a6651ad8cd496758c95b58b6582a481f6aef28457f665a3a788b35ebb0df", {
        "syndrome_demo.json": "72b64c3032e280face94dac08afabf2cfb2b07957455f3bc5cd47e7e4588cbf4",
        "syndrome_demo_ch1.csv": "44c32c9c1236b89c4467bfaad033275c252f2e6e92bffea9043d85b9c2cc756b",
        "syndrome_demo_ch2.csv": "5e403b3df5d86b925d2cd3a5e877d347c7342f0b2324b56db26c829e67a677b5",
        "syndrome_demo_ch3.csv": "ead6378c8bf47b94374ba28485e6817d5640aa4d5acce4b957f3e00f04052ae5",
        "syndrome_demo_ch4.csv": "317168c7e33351335f01634ae160a2c55373111ccc146ca9f78f93a94cdde9a3",
        "syndrome_demo_ch5.csv": "2be12d9523b678b27b78bb39ed9762c0289fe9a42addc9f00ac330b9b7680575",
    }),
    "seed0/spectra": ("923e31092dc53b2986b829869c97ec588a8868470b27568d89df3bc5377a3730", {
        "spectra.csv": "aa122e3c009077c07d2018638ce2528718ed5440a9b8ba6088f86df4b15c81c8",
        "spectra.json": "24bdad85db5f8fb79c5ba797d0c83e4a49da5d77a353fc72032bb29504d1cae5",
    }),
    "seed0/witness": ("6aab95cade46eeb51f63b6e4dc4b0112f5faea7aec3fa9d1c56c6c68766a594d", {
        "witness.csv": "dac9ce53b72cd2d187dca462c498c51f5a4de52c4dbe1618ed689e05374117c8",
        "witness.json": "9da8251fbadce7c4df6140aab42ba1c0e715b8d66f5c7e39b503e23100b50e2b",
    }),
    "seed0/mc-sweep": ("d7b3d6018c9a7a48421ae3a5315d9a67ae939f2f27e99826e3d7fb244c209137", {
        "mc_sweep.csv": "113a753a19b3d060a1fa733dc1a8424cb3e91ec4ab4dc9f6994a9bb3ce7ba291",
        "mc_sweep.json": "080735bbcc13dcee4b0ed53c028204e6f9b2b918780ce70ccc6f7e295c1d07fe",
    }),
    "seed3-fourier/table2": ("da07a2e3a65a74bcd2400cd6bedce9f4cd468aef3a6e85a862a8dc7aed9c5f09", {
        "table2.csv": "a5f1c9c90a63837765ad7b41682c44efd52dddb0c8c97b22ab925aa83bea3f60",
        "table2.json": "f901d34ed703160dfa18fd94ad531663344b4a9360de9ffe71726c1eaf6fba5e",
    }),
    "seed3-fourier/tableC1": ("ac1e11d188a45688fee691ceb8c91d60623c770053bbed531299fe83296bac81", {
        "tableC1.csv": "74ac5b70ee488216bcc526eebd03f87b75c9bd89e078fddb1535be609aa52bdc",
        "tableC1.json": "e5ff6c20ca7f0d6d9d2d58c062405cfc4e4fe0a8cefb2f4f4f2a968002e1cd4f",
    }),
    "seed3-fourier/syndrome-demo": ("4879e0e1d6dc73da93616df8303b0699b12a2cdbbd0b970426ae1cd5cefd2119", {
        "syndrome_demo.json": "d0f62c10008b156608bd385e7975294cb6d32f385347e160af6de7786b6c8d27",
        "syndrome_demo_ch1.csv": "471d2757f11c8d60a86d4b90c48878339d8a6f7f4a23c60c5fbb45d1f0fab618",
        "syndrome_demo_ch2.csv": "ccbaa0badc5a4eb179cda4c30eb676aafd01b67f47e2ff8e19237a8af53ab110",
        "syndrome_demo_ch3.csv": "ecd54d0cb04c0ea5a9de0f47b4a7e0c34170d632a04a38514c6bdc97c1167f71",
        "syndrome_demo_ch4.csv": "74b3c933f72b8484bef8519c19ebb5899e5433bd01273885b049b8131fe25a41",
        "syndrome_demo_ch5.csv": "f8c089fe590882663dfe80d91a009a2a81a6b0fcc842ee1e19d61711ecae7244",
    }),
    "seed3-fourier/spectra": ("ddca6a21d27881f222ea06ee296b1bdf1d4f8e339b6b1fe4f27c76de9eea845a", {
        "spectra.csv": "579647ca6593c944540c7be94d3030adec9672918d49cae1cc2277efabc42bf4",
        "spectra.json": "591a696ca472ad79a76033336228634e7f5a8ca117899744ae1bc53e582b0ace",
    }),
    "seed3-fourier/witness": ("733ae3259ac91fb566dcf3ab668b2751e30c5691d42f517831a00fab5e35b4d5", {
        "witness.csv": "203f4e1dec16afd5bdc69bf5ac4ec963c4e51a39f2ace5f5782318bdcab846b0",
        "witness.json": "5c452995af9e399300ddd8eb10eef6d9db340290bc6ea80082e00b4d576290eb",
    }),
    "seed3-fourier/mc-sweep": ("279acabb3fb2cc225376753057c673a590f87a9a634ba718f35d98bd3d63f6d8", {
        "mc_sweep.csv": "222066368de67aa8cd3e06e67391dd53bd5c6dcdf6a1b3baf7ac982fa21c905c",
        "mc_sweep.json": "4ba4d5ad4588f5a220fbe858cb10a77c5a4d5c98ecf6af70cfe9f91e65e12c42",
    }),
    "seed3-fourier-loss/table2": ("557b3c75093c25a1e78079cdaf7ac64d36500f8b3b929fa99b67e5d996c9bd6a", {
        "table2.csv": "7fee6d3439cd870f1cebb50db8e5206c91ce8ab5a3f1da01d2404dfccd16dcab",
        "table2.json": "86ebbeef6d35838cefd615f45b252475864c36f8f4142269a523641b6929736b",
    }),
    "seed3-fourier-loss/tableC1": ("68b73a99e7ff68403ec8527cb043c5e9d72ca2eaea5147fb9f054dffcdd4acc5", {
        "tableC1.csv": "323da114605615eb135e0ef4da0775282e698802fc7a947a9e2ebaddb541e5fb",
        "tableC1.json": "8c8cea670899d6c5cddf647b270fad87bf73ea380eae361a388e2d76afcfd6ef",
    }),
    # A lossy trace's noise is one draw of twenty normals per sample, the
    # source quadratures and the loss vacua together.
    "seed3-fourier-loss/syndrome-demo": ("b568af585366ccdc0d1372b66ce0270b03e186b68c6fcba1c33cc4b54e7cf66a", {
        "syndrome_demo.json": "d0f62c10008b156608bd385e7975294cb6d32f385347e160af6de7786b6c8d27",
        "syndrome_demo_ch1.csv": "372e8a2b7816083b0d6bcb22e0043aff730f45ec19b291e9fdeb4430e3562070",
        "syndrome_demo_ch2.csv": "08a9e88c282af66fabbf98adbc928eaf3ce89c1d6e37dcee5c7754b195367c07",
        "syndrome_demo_ch3.csv": "e84c64c0c8662de853508d338cc333636508faa6501b8c667c73c7eba5075995",
        "syndrome_demo_ch4.csv": "674efdd78ddfef0c20e45e292569e4af3f3953d79d8468008ee1fc1865486931",
        "syndrome_demo_ch5.csv": "be5efd6fe35b3f999bfa5b0c8fdb55af4f181d2b454140396036f3f47460b3a6",
    }),
    "seed3-fourier-loss/spectra": ("7a4c2910f865ef4936ee6bd8a755bb408924caa07cfced74f9523becd0628232", {
        "spectra.csv": "2d39fc1c205c8694cb0461bf8b22091f66b2652c527e751f1726d35859041b67",
        "spectra.json": "afcf883ac0f88bda7bfd958e688657937e6442ccbe3084cdffc808c55f766478",
    }),
    "seed3-fourier-loss/mc-sweep": ("d3d399859bcac36b9029e81fa817a076d827c90d8c94742debf5a4b98b5dbb35", {
        "mc_sweep.csv": "874bb3a58f7626804ee927fb66473cc4f0d4c8a63b9fb9484ed280fa03b3d76f",
        "mc_sweep.json": "eec0d1b98ee3e413b504aa5df5af5f3f77226705b55f70004c6c0d7a13d53ef4",
    }),
}


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_their_pinned_digests(case, tmp_path):
    config, experiment = case.split("/")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_doc(config, experiment)))
    out = tmp_path / "out"
    assert cli.main(["run", experiment, "--config", str(path), "--out", str(out)]) == 0
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
