import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "claim_sweep.py"


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
