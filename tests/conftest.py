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
    from equity_audit.dataio import build_case_study_views, load_uci_students, run_case_study

    table = load_uci_students(student_path)
    sweep = []
    for s in SWEEP_SEEDS:
        cfg = RunConfig(seed=s)
        sweep.append({r.name: r.tp_share for r in run_case_study(cfg, build_case_study_views(table, cfg)).regimes})
    return sweep


@pytest.fixture()
def plain_blocks(monkeypatch) -> list[str]:
    """Which reader took each CSV file read, in order, one entry per file.

    ``"ints"``: a whole regular file whose scanned text the integer kernel
    read. ``"file"``: a whole regular file numpy read from its path.
    ``"csv"``: a file the csv module read, from the line after its header.
    """
    from equity_audit import dataio

    taken, loadtxt_calls = [], []
    whole_file_columns, loadtxt = dataio._whole_file_columns, dataio._loadtxt

    def counted_loadtxt(*args):
        loadtxt_calls.append(args)
        return loadtxt(*args)

    def whole_file(fh, path, header_lines, width, cols):
        loadtxt_calls.clear()
        values = whole_file_columns(fh, path, header_lines, width, cols)
        taken.append("csv" if values is None else "file" if loadtxt_calls else "ints")
        return values

    monkeypatch.setattr(dataio, "_loadtxt", counted_loadtxt)
    monkeypatch.setattr(dataio, "_whole_file_columns", whole_file)
    return taken
