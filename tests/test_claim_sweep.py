import hashlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "claim_sweep.py"
# sha256 of the full result that ``--json`` writes at the default arguments
SWEEP_JSON = "21cebd3ca24680c47575b86933fe21b6ecbb9ee02e2009c174874de2388f84fb"


def load_script():
    spec = importlib.util.spec_from_file_location("claim_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clopper_pearson_matches_closed_forms_and_tables():
    cp = load_script().clopper_pearson
    # k = 0 and k = n have closed forms: 1 - (alpha/2)^(1/n) and (alpha/2)^(1/n)
    assert cp(0, 20) == pytest.approx((0.0, 1 - 0.025 ** (1 / 20)), abs=1e-9)
    assert cp(20, 20) == pytest.approx((0.025 ** (1 / 20), 1.0), abs=1e-9)
    # published exact 95 % interval for 8 of 20
    assert cp(8, 20) == pytest.approx((0.1911901, 0.6394574), abs=1e-6)


def test_clopper_pearson_at_two_thousand_trials():
    # math.comb(2000, 1000) is past the float range; the terms are summed in log space
    lo, hi = load_script().clopper_pearson(1000, 2000)
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < 0.5 < hi
    assert (lo, hi) == pytest.approx((0.4779, 0.5221), abs=1e-4)


def test_sweep_json_matches_the_pinned_hash(tmp_path):
    # the only output that carries the loop's curated-positive shares
    out = tmp_path / "sweep.json"
    subprocess.run([sys.executable, str(SCRIPT), "--json", str(out)], capture_output=True, check=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_JSON, (
        "a claim-sweep byte changed. Write the parent checkout's result with "
        "`python3 scripts/claim_sweep.py --json parent.json`, this checkout's with `--json new.json`, "
        "and compare them with `diff parent.json new.json`. If the change is deliberate, update "
        "SWEEP_JSON and record why in CHANGES.md."
    )
