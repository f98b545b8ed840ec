"""The byte-stability baseline: every report of a fixed set of runs, hashed.

``scripts/output_digest.py`` runs one operation of every benchmarked kind
plus the bundled case study under several configs, and prints one hash
over all the report files and printed text. A change that moves any
report byte changes that hash.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
# the listing at each pinned seed
LISTINGS = {
    1: "f8874912ec9ec1b0f03f7b8b3569bbe4be71f451db7e38d50d966b2304825158",
    2: "373bccbc729c7e7c7d086984c9f96b677da3820c5bb0e8849f81da2e2a07ff09",
}


def kernels() -> str:
    """The numpy version and the kernel choices a fit's last bits depend on.

    The pins hold where OpenBLAS picks the same kernel and numpy the same
    SIMD builds of ``exp``/``log1p`` as on the machine that recorded them:
    an OpenBLAS core type forced by ``OPENBLAS_CORETYPE``, or AVX-512
    targets switched off by ``NPY_DISABLE_CPU_FEATURES``, move them.
    """
    try:
        from numpy._core import _multiarray_umath as umath

        avx512 = [
            target for target in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(target) and (target.startswith("AVX512") or target == "X86_V4")
        ]
    except (ImportError, AttributeError):
        avx512 = "unknown"
    return (
        f"numpy {np.__version__}, OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')!r}, "
        f"NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES')!r}, "
        f"enabled AVX-512 dispatch targets {avx512}"
    )


def test_reports_match_the_pinned_listing():
    for seed, listing in LISTINGS.items():
        run = subprocess.run(
            [sys.executable, str(SCRIPT), "--seed", str(seed)], capture_output=True, text=True, check=True
        )
        last = run.stdout.splitlines()[-1]
        assert last == f"{listing}  listing", (
            "a report byte changed. Save a listing from the parent checkout with "
            f"`python3 scripts/output_digest.py --seed {seed} > parent.txt` and rerun this checkout's "
            "script with `--against parent.txt` to see which files differ. If the output change "
            "is deliberate, update LISTINGS and record why in CHANGES.md. "
            f"This run: {kernels()}."
        )
