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
    """Which readers took each CSV body read, in order, one entry per read.

    A body is read in chunks, from a regular file or a pipe alike, and
    each chunk goes down one ladder of readers. It is taken by the integer
    kernel, the byte grid or the separator scan of an all-integer plan
    (``"ints"``), or by numpy's reader (``"numpy"``), or else the csv
    module reads from that chunk to the end (``"csv"``). A read's entry
    names its readers in the order they first took a chunk, joined by
    ``+``: ``"ints+csv"`` is a body the kernel read up to a chunk that
    every fast reader turned down. Reads made with the fast readers
    patched out (``_csv_path_only``) are not recorded.
    """
    from equity_audit import csvio

    taken, readers, loadtxt_calls = [], [], []
    body_columns, fast_columns, loadtxt = csvio._body_columns, csvio._fast_columns, csvio._loadtxt

    def counted_loadtxt(*args):
        loadtxt_calls.append(args)
        return loadtxt(*args)

    def fast(chunk, width, cols):
        loadtxt_calls.clear()
        values = fast_columns(chunk, width, cols)
        reader = "csv" if values is None else "numpy" if loadtxt_calls else "ints"
        if reader not in readers:
            readers.append(reader)
        return values

    def body(*args):
        readers.clear()
        try:
            return body_columns(*args)
        finally:
            if readers:
                taken.append("+".join(readers))

    monkeypatch.setattr(csvio, "_loadtxt", counted_loadtxt)
    monkeypatch.setattr(csvio, "_fast_columns", fast)
    monkeypatch.setattr(csvio, "_body_columns", body)
    return taken
