"""The byte-stability baseline: every report of a fixed set of runs, hashed.

``scripts/output_digest.py`` runs one operation of every benchmarked kind
plus the bundled case study under several configs, and prints one hash
over all the report files and printed text. A change that moves any
report byte changes that hash.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
# the listing at each pinned seed
LISTINGS = {
    1: "f8874912ec9ec1b0f03f7b8b3569bbe4be71f451db7e38d50d966b2304825158",
    2: "373bccbc729c7e7c7d086984c9f96b677da3820c5bb0e8849f81da2e2a07ff09",
}


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
            "is deliberate, update LISTINGS and record why in CHANGES.md."
        )
