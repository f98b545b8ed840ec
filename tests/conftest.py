from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

DATA_DIR = Path(__file__).parent / "data"


def student_file() -> Path:
    """The student data file the suite runs on.

    A real upstream file can be dropped in as tests/data/student-mat.csv or
    pointed at via EQUITY_AUDIT_STUDENT_FILE; otherwise the bundled
    schema-identical sample is used.
    """
    override = os.environ.get("EQUITY_AUDIT_STUDENT_FILE")
    if override:
        return Path(override)
    real = DATA_DIR / "student-mat.csv"
    if real.exists():
        return real
    return DATA_DIR / "student_sample.csv"


@pytest.fixture(scope="session")
def student_path() -> Path:
    return student_file()


# Case-study seeds the multi-seed tp_share claims are checked over: the
# default range of scripts/claim_sweep.py, whose tables in README.md give
# how often each claim holds there
SWEEP_SEEDS = range(20)


@pytest.fixture(scope="session")
def tp_share_sweep(student_path) -> list[dict]:
    """tp_share by regime name of the case study at every seed of SWEEP_SEEDS."""
    from equity_audit.config import RunConfig
    from equity_audit.dataio import run_case_study

    return [
        {r.name: r.tp_share for r in run_case_study(RunConfig(input_path=str(student_path), seed=s)).regimes}
        for s in SWEEP_SEEDS
    ]


@pytest.fixture()
def plain_blocks(monkeypatch) -> list[bool]:
    """Whether numpy's reader read each block of CSV text offered to it, in order."""
    from equity_audit import dataio

    taken = []
    plain_columns = dataio._plain_columns

    def counted(block, cols):
        values = plain_columns(block, cols)
        taken.append(values is not None)
        return values

    monkeypatch.setattr(dataio, "_plain_columns", counted)
    return taken
