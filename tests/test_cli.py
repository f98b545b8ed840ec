import gzip
import json
import os
import subprocess
import sys
import threading
import time
import tomllib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from equity_audit import __version__, cli, csvio, reports
from equity_audit.cli import main
from equity_audit.dataio import load_audit_csv
from equity_audit.errors import EquityAuditError
from equity_audit.loopsim import REGIMES
from equity_audit.metrics import audit_reports

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def audit_csv(tmp_path):
    path = tmp_path / "audit.csv"
    path.write_text(
        "pred,label,group,y_tt\n"
        "1,1,0,1\n0,0,0,1\n1,0,0,0\n0,1,0,1\n"
        "1,1,1,1\n0,0,1,1\n1,0,1,1\n1,1,1,0\n"
    )
    return path


def write_population(path, obstructed=()):
    """40 rows over one feature ``a``; rows in ``obstructed`` have z_a = x_a + 1."""
    lines = ["id,group,y,y_prime,x_a,z_a"]
    for k in range(40):
        grp = k % 2
        positive = (k // 2) % 2 == 0
        x = 3.0 if positive else 1.0
        y = 1 if positive else 0
        z = x + 1.0 if k in obstructed else x
        lines.append(f"i{k},{grp},{y},{y},{x},{z}")
    path.write_text("\n".join(lines) + "\n")
    return path


def rewrite(text: str, how: str) -> str:
    """``text``, a plain CSV file, written ``how``: plain, with CRLF line ends, or every cell quoted."""
    if how == "crlf":
        return text.replace("\n", "\r\n")
    if how == "quoted":
        return "".join(",".join(f'"{c}"' for c in line.split(",")) + "\n" for line in text.splitlines())
    return text


def write_spaces(path, dataset, proxy_alpha=0.0):
    doc = {
        "proxy": {
            "dataset": dataset,
            "alpha": [proxy_alpha],
            "specs": [
                {"features": ["a"], "function_class": "norm_threshold",
                 "hyperparams": {"threshold": 2.0}}
            ],
            "policies": [0],
        },
        "intended": {
            "dataset": dataset,
            "alpha": [0.0],
            "specs": [
                {"features": ["a"], "function_class": "norm_threshold",
                 "hyperparams": {"threshold": 1.0}}
            ],
            "policies": ["inf"],
        },
    }
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def spaces_json(tmp_path):
    pop_csv = write_population(tmp_path / "pop.csv")
    return write_spaces(tmp_path / "spaces.json", str(pop_csv))


def test_version_is_the_one_pyproject_declares(capsys):
    # the version is written in both places; --version prints the package's
    assert tomllib.loads(PYPROJECT.read_text())["project"]["version"] == __version__
    assert run_cli("--version") == 0
    assert capsys.readouterr().out == f"equity-audit {__version__}\n"


def test_importing_the_cli_leaves_out_logging_and_concurrent_futures():
    # no command uses logging or concurrent.futures (which imports it), so
    # start-up pays for neither
    code = (
        f"import sys; sys.path.insert(0, {str(PYPROJECT.parent / 'src')!r}); import equity_audit.cli; "
        "print(sorted({'logging', 'concurrent.futures'} & sys.modules.keys()))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_no_command_imports_numpy_ma(tmp_path, student_path, audit_csv):
    # np.unique and np.median import numpy.ma on their first call (numpy 2.4),
    # about 1 MiB and 8-13 ms; no command uses masked arrays, so none pays for them.
    # Each command runs in turn in one process; after each, the line says
    # whether numpy.ma has been imported so far
    population = write_population(tmp_path / "pop.csv", obstructed=(1, 2))
    spaces = write_spaces(tmp_path / "spaces.json", str(population), proxy_alpha=1.0)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"feature_names": ["a", "b"], "importance": [0.5, 0.5]}))
    commands = [
        ["audit", str(audit_csv)],
        ["score", str(spaces)],
        ["casestudy", str(student_path)],
        ["gaps", str(model), str(model)],
        ["questions"],
        *(["simulate-loop", "--regime", regime, "--rounds", "3"] for regime in REGIMES),
    ]
    code = (
        f"import contextlib, io, json, sys; sys.path.insert(0, {str(PYPROJECT.parent / 'src')!r})\n"
        "from dataclasses import replace\n"
        "from equity_audit import cli, loopsim\n"
        "cli.default_config = lambda seed: replace(loopsim.default_config(seed), n_per_round=300)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['--out', sys.argv[2], *argv])\n"
        "    print(*argv[:3], code, 'numpy.ma' in sys.modules)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands), str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines() == [" ".join([*argv[:3], "0 False"]) for argv in commands]


def test_a_loop_starts_no_thread_and_imports_no_executor():
    # every cohort is drawn on the caller's thread, so each fit sees that
    # thread alone and the run leaves logging and concurrent.futures out
    code = (
        f"import sys, threading; sys.path.insert(0, {str(PYPROJECT.parent / 'src')!r})\n"
        "from dataclasses import replace\n"
        "from equity_audit import loopsim\n"
        "train, threads = loopsim.train, []\n"
        "def spy(*args, **kwargs):\n"
        "    threads.append(threading.active_count())\n"
        "    return train(*args, **kwargs)\n"
        "loopsim.train = spy\n"
        "loopsim.run_inequity_loop(replace(loopsim.default_config(42), n_per_round=400), 3, 'access_and_outcome')\n"
        "print(threads, sorted({'logging', 'concurrent.futures'} & sys.modules.keys()))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[1, 1, 1] []\n"


class TestQuestions:
    def test_exit_zero_and_content(self, capsys):
        assert run_cli("questions") == 0
        out = capsys.readouterr().out
        assert out.count(")") >= 21
        assert "Curation of ground truth" in out

    def test_byte_identical_output(self, capsys):
        run_cli("questions")
        first = capsys.readouterr().out
        run_cli("questions")
        assert capsys.readouterr().out == first


class TestAudit:
    def test_writes_report(self, audit_csv, tmp_path, capsys):
        out = tmp_path / "reports"
        assert run_cli("--out", str(out), "audit", str(audit_csv)) == 0
        doc = json.loads((out / "audit.json").read_text())
        assert "outcome" in doc and "utilization" in doc
        assert doc["outcome"]["eo_violation"] == pytest.approx(0.5)

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "audit", str(tmp_path / "nope.csv")) == 2

    @staticmethod
    def _log_text(n=3000) -> str:
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2, size=(n, 4)).tolist()
        return "pred,label,group,y_tt\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)

    def test_plain_crlf_and_quoted_logs_give_one_report(self, tmp_path, monkeypatch, plain_blocks):
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", 4096)  # a csv read decodes several blocks
        text = self._log_text()
        reports = {}
        for how in ("plain", "crlf", "quoted"):
            plain_blocks.clear()
            path = tmp_path / f"{how}.csv"
            path.write_bytes(rewrite(text, how).encode())
            assert run_cli("--out", str(tmp_path / how), "audit", str(path)) == 0
            reports[how] = (tmp_path / how / "audit.json").read_bytes()
            # the integer kernel reads plain and CRLF files; quotes send a file to the csv path
            assert plain_blocks == (["csv"] if how == "quoted" else ["ints"])
        assert reports["plain"] == reports["crlf"] == reports["quoted"]

    @staticmethod
    def _log_shape(text: str, shape: str) -> str:
        """``text``, a one-digit log from ``_log_text``, reshaped as ``shape``."""
        header, *rows = text.splitlines()
        if shape == "id-column":  # cells of any width, in a column no plan reads
            header, rows = "id," + header, [f"u{k},{row}" for k, row in enumerate(rows)]
        elif shape == "y_tt-300":  # on one rejected row, the only cell past one digit
            k = next(k for k, row in enumerate(rows) if row.startswith("0,"))
            rows[k] = rows[k][:-1] + "300"
        elif shape == "plus-signs":
            rows = [row.replace("1", "+1") for row in rows]
        elif shape == "blank-lines":  # one before every 97th row
            rows = [line for k, row in enumerate(rows) for line in ["", row][k % 97 > 0:]]
        text = "".join(line + "\n" for line in [header, *rows])
        return rewrite(text, "crlf") if shape == "crlf" else text

    @pytest.mark.parametrize(
        "shape, reader",
        [("one-digit", "ints"), ("id-column", "ints"), ("y_tt-300", "numpy"), ("plus-signs", "numpy"),
         ("blank-lines", "numpy"), ("crlf", "ints")],
        ids=["one-digit", "id-column", "y_tt-300", "plus-signs", "blank-lines", "crlf"],
    )
    def test_report_is_the_same_whichever_reader_took_the_log(self, tmp_path, monkeypatch, plain_blocks, shape, reader):
        # the ladder's report against the csv module's, byte for byte
        path = tmp_path / "log.csv"
        path.write_bytes(self._log_shape(self._log_text(), shape).encode())
        assert run_cli("--out", str(tmp_path / "ladder"), "audit", str(path)) == 0
        monkeypatch.setattr(csvio, "_fast_columns", lambda chunk, width, cols: None)
        assert run_cli("--out", str(tmp_path / "csv"), "audit", str(path)) == 0
        assert plain_blocks == [reader]  # a read with the fast readers patched out is not recorded
        assert (tmp_path / "ladder" / "audit.json").read_bytes() == (tmp_path / "csv" / "audit.json").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe_once(self, tmp_path, monkeypatch, plain_blocks):
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", 4096)  # a csv read decodes several blocks
        text = self._log_text()
        regular = tmp_path / "log.csv"
        regular.write_text(text)
        assert run_cli("--out", str(tmp_path / "file"), "audit", str(regular)) == 0
        assert plain_blocks == ["ints"]
        plain_blocks.clear()
        fifo = tmp_path / "log.fifo"
        os.mkfifo(fifo)
        fed = threading.Event()

        def feed():
            with open(fifo, "w") as fh:
                fh.write(text)
            fed.set()
            # a second open of the pipe reads an empty file instead of waiting forever
            while not stop.is_set():
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    time.sleep(0.01)

        stop = threading.Event()
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            code = run_cli("--out", str(tmp_path / "fifo"), "audit", str(fifo))
        finally:
            stop.set()
            writer.join(timeout=10)
        assert not writer.is_alive() and fed.is_set()
        assert code == 0
        # a pipe is read once, as a file is: its plain body reaches the integer kernel
        assert plain_blocks == ["ints"]
        assert (tmp_path / "fifo" / "audit.json").read_bytes() == (tmp_path / "file" / "audit.json").read_bytes()

    @staticmethod
    def _runs(path, out, capsys) -> tuple:
        """The exit code, stdout, stderr and ``audit.json`` bytes (None if not written) of an ``audit`` of ``path``."""
        report = out / "audit.json"
        report.unlink(missing_ok=True)
        code = run_cli("--out", str(out), "audit", str(path))
        captured = capsys.readouterr()
        return code, captured.out, captured.err, report.read_bytes() if report.exists() else None

    @staticmethod
    def _int64_runs(path, out, capsys) -> tuple:
        """``_runs`` with every column the loader returns copied to int64."""
        def widened(path):
            return tuple(None if c is None else c.astype(np.int64) for c in load_audit_csv(path))

        with mock.patch.object(cli, "load_audit_csv", widened):
            return TestAudit._runs(path, out, capsys)

    def test_a_y_tt_of_300_on_a_rejected_row_is_audited_as_before(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("pred,label,group,y_tt\n0,1,0,300\n1,1,0,1\n1,0,0,0\n0,0,0,1\n1,1,1,1\n0,0,1,1\n1,0,1,1\n0,1,1,0\n")
        assert load_audit_csv(path)[3].dtype == np.int64
        runs = self._runs(path, tmp_path / "r", capsys)
        assert runs[0] == 0 and runs[2] == ""
        assert runs == self._int64_runs(path, tmp_path / "r", capsys)

    def test_narrow_columns_audit_as_their_int64_copies(self, tmp_path_factory, capsys):
        """Mostly binary logs, up to three cells at the edges of int8, a group sometimes dropped.

        ``audit_reports`` on the loader's columns gives the reports, or the
        error, that it gives on int64 copies of them, and so does the
        ``audit`` command: its exit code, output and report bytes.
        """
        folder = tmp_path_factory.mktemp("narrow")
        path, out = folder / "log.csv", folder / "r"
        seen = set()
        # pred, label, group, y_tt: both label classes in both groups, rows 0 and 2 accepted
        BOTH_GROUPS = [(1, 1, 0, 1), (0, 0, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0)]

        def reports(columns):
            try:
                return tuple(map(repr, audit_reports(*columns)))
            except EquityAuditError as exc:
                return type(exc), str(exc), getattr(exc, "row", None)

        @given(
            st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=4, max_size=24),
            st.lists(
                st.tuples(st.integers(0, 23), st.integers(0, 3), st.sampled_from([-129, -128, -1, 2, 127, 128])),
                max_size=3,
            ),
            st.sampled_from(["both"] * 6 + ["no group 0", "no group 1"]),
        )
        # one fixed example for each case the assertions after the search need
        @example(rows=BOTH_GROUPS, swaps=[(0, 1, 128)], groups_kept="both")  # an int64 column
        @example(rows=BOTH_GROUPS, swaps=[], groups_kept="no group 1")  # a missing group
        @example(rows=BOTH_GROUPS, swaps=[(1, 3, 2)], groups_kept="both")  # y_tt 2 on a rejected row
        @example(rows=BOTH_GROUPS, swaps=[(0, 3, 2)], groups_kept="both")  # y_tt 2 on an accepted row
        @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        def check(rows, swaps, groups_kept):
            rows = [list(row) for row in rows]
            for k, column, value in swaps:
                rows[k % len(rows)][column] = value
            if groups_kept != "both":
                rows = [row for row in rows if row[2] != (0 if groups_kept == "no group 0" else 1)]
            path.write_text("pred,label,group,y_tt\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
            columns = load_audit_csv(path)
            assert reports(columns) == reports([c.astype(np.int64) for c in columns])
            assert self._runs(path, out, capsys) == self._int64_runs(path, out, capsys)
            seen.update(f"y_tt {row[3]} on a {('rejected', 'accepted')[row[0]]} row"
                        for row in rows if row[0] in (0, 1) and row[3] not in (0, 1))
            seen.update({"int64 column"} if any(c.dtype == np.int64 for c in columns) else ())
            seen.update({"missing group"} if groups_kept != "both" else ())

        check()
        assert {"int64 column", "missing group"} <= seen
        assert any("rejected" in case for case in seen) and any("accepted" in case for case in seen)

    def test_degenerate_group_exit_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pred,label,group\n1,1,0\n0,0,0\n1,1,1\n0,1,1\n")
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == 3

    def test_non_binary_y_tt_names_the_file_row(self, tmp_path, capsys):
        # data row 7 is the fourth accepted row; rows 2 and 5 are not accepted
        path = tmp_path / "ytt.csv"
        path.write_text(
            "pred,label,group,y_tt\n"
            "1,1,0,1\n0,0,0,9\n1,0,0,0\n\n1,1,1,1\n0,0,1,1\n1,0,1,1\n1,1,1,3\n"
        )
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == 2
        err = capsys.readouterr().err
        assert "(row 7, column 'y_tt')" in err
        assert "got 3" in err

    @pytest.mark.parametrize(
        "body, code, message",
        [
            ("1,1,0,1\n0,0,0,9\n1,0,1,1\n0,1,1,0\n", 0, ""),  # y_tt 9 on a rejected row
            ("1,1,0,1\n0,0,0,0\n1,0,1,3\n0,1,1,0\n", 2, "error: y_tt must be 0 or 1, got 3 (row 3, column 'y_tt')"),
            ("1,1,0,1\n0,0,0,0\n1,0,2,1\n0,1,1,0\n", 2, "error: both groups 0 and 1 must be present, got [0, 1, 2]"),
            ("0,1,0,1\n0,0,0,1\n0,1,1,1\n0,0,1,0\n", 3, "error: utilization is undefined: no proxy-positive records (m = 0)"),
            ("1,0,0,1\n0,0,0,0\n1,1,1,1\n0,0,1,0\n", 3, "error: TPR undefined for group 0: it has no positives"),
        ],
        ids=["y_tt-9-rejected", "y_tt-3-accepted", "group-2", "none-accepted", "undefined-tpr"],
    )
    def test_one_count_keeps_every_exit(self, tmp_path, capsys, body, code, message):
        path = tmp_path / "log.csv"
        path.write_text("pred,label,group,y_tt\n" + body)
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == code
        assert capsys.readouterr().err == (message and message + "\n")

    def test_compressed_log_exit_2(self, tmp_path, capsys):
        path = tmp_path / "log.csv.gz"
        path.write_bytes(gzip.compress(b"pred,label,group\n1,1,0\n0,0,1\n"))
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path} is not UTF-8 text (invalid start byte)\n"

    def test_undecodable_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"pred,label,group\n1,1,0\n\xff,1,1\n")
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_oversized_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("pred,label,group\n1,1,0\n1," + "0" * 140_000 + ",1\n")
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == 2
        assert "row 2" in capsys.readouterr().err

    def test_bad_cell_before_an_oversized_cell_is_named_first(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("pred,label,group\n1,x,0\n1," + "0" * 140_000 + ",1\n")
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(path)) == 2
        assert "error: expected an integer, got 'x' (row 1, column 'label')" in capsys.readouterr().err

    def test_mistyped_config_value_exit_2(self, audit_csv, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_text('tau = "abc"\n')
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(audit_csv)) == 2
        assert "tau" in capsys.readouterr().err

    def test_nan_epsilon_exit_2(self, audit_csv, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_text("epsilon = nan\n")
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(audit_csv)) == 2
        assert "error: epsilon must be >= 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_infinite_epsilon_exit_2(self, tmp_path, capsys):
        # omega is 2 here; an infinite epsilon would call it equal
        path = tmp_path / "opposite.csv"
        path.write_text("pred,label,group\n1,1,0\n0,0,0\n0,1,1\n1,0,1\n")
        config = tmp_path / "run.toml"
        config.write_text("epsilon = inf\n")
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(path)) == 2
        assert "error: epsilon must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        config.write_text("epsilon = 2.0\n")  # the largest omega: finite, so accepted, and vacuous
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(path)) == 0
        doc = json.loads((tmp_path / "r" / "audit.json").read_text())
        assert doc["outcome"]["eo_violation"] == 2.0 and doc["outcome"]["equal_outcomes"] is True

    def test_nan_uplift_exit_2(self, student_path, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_text("uplift_std_fraction = nan\n")
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "casestudy", str(student_path)) == 2
        assert "error: uplift_std_fraction must be >= 0, got nan" in capsys.readouterr().err

    def test_infinite_uplift_exit_2(self, student_path, tmp_path, capsys):
        # an infinite step would clip every flagged student's features to the top of their range
        config = tmp_path / "run.toml"
        config.write_text("uplift_std_fraction = inf\n")
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "casestudy", str(student_path)) == 2
        assert "error: uplift_std_fraction must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("uplift_std_fraction", "1e308"), ("uplift_ordinal_step", "1" + "0" * 400)],
        ids=["uplift_std_fraction", "uplift_ordinal_step"],
    )
    def test_overflowing_uplift_exit_2(self, student_path, tmp_path, capsys, field, value):
        # finite settings whose largest uplift draw is no finite float
        config = tmp_path / "run.toml"
        config.write_text(f"{field} = {value}\n")
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "casestudy", str(student_path)) == 2
        assert f"error: {field} is too large: the largest uplift draw overflows" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_header_only_student_file_exit_2(self, student_path, tmp_path):
        # in a process of its own, so a numpy RuntimeWarning would reach stderr
        path = tmp_path / "students.csv"
        path.write_text(student_path.read_text().splitlines()[0] + "\n")
        argv = ["--out", str(tmp_path / "r"), "casestudy", str(path)]
        code = (
            f"import sys; sys.path.insert(0, {str(PYPROJECT.parent / 'src')!r}); "
            f"from equity_audit.cli import main; sys.exit(main({argv!r}))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 2
        assert "RuntimeWarning" not in run.stderr
        assert run.stderr == "error: case study needs at least 10 students\n"
        assert not (tmp_path / "r").exists()

    def test_directory_input_exit_2(self, tmp_path, capsys):
        folder = tmp_path / "some_dir.csv"
        folder.mkdir()
        assert run_cli("--out", str(tmp_path / "r"), "audit", str(folder)) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_undecodable_config_exit_2(self, audit_csv, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_bytes(b"seed = 7 # \xff\n")
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(audit_csv)) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [("seed = 1\ntau = .5\n", "line 2"), ("seed = " + "[" * 3000 + "\n", "maximum recursion depth"),
         ("seed = " + "9" * 5000 + "\n", "4300 digits")],
        ids=["leading-dot", "nested", "long-integer"],
    )
    def test_config_that_is_not_toml_exit_2(self, audit_csv, tmp_path, capsys, text, where):
        config = tmp_path / "run.toml"
        config.write_text(text)
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(audit_csv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid TOML in {config}: ") and where in err
        assert "Traceback" not in err and not (tmp_path / "r").exists()

    def test_usage_error_exit_1(self):
        assert run_cli("audit") == 1
        assert run_cli("definitely-not-a-command") == 1


class TestScore:
    def test_perfect_space_scores_three(self, spaces_json, tmp_path, capsys):
        out = tmp_path / "reports"
        code = run_cli(
            "--out", str(out), "--format", "csv", "score", str(spaces_json),
            "--tau", "0.85", "--tau-o", "0.15",
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged" in printed
        trace_csv = (out / "scoring_trace.csv").read_text()
        assert trace_csv.splitlines()[0].startswith("iter,spec_id,policy_id")

    @pytest.mark.parametrize("flag", ["--max-outer", "--max-inner"])
    def test_zero_iteration_cap_exit_2(self, spaces_json, tmp_path, capsys, flag):
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces_json), flag, "0") == 2
        assert "error: iteration caps must be positive" in capsys.readouterr().err

    def test_bad_spaces_doc_exit_2(self, tmp_path):
        path = tmp_path / "spaces.json"
        path.write_text('{"proxy": {}}')
        assert run_cli("--out", str(tmp_path / "r"), "score", str(path)) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"5", "must hold a JSON object"),
            (b'{"proxy": \xff}', "UTF-8"),
            (b'{"proxy": 5, "intended": 5}', "proxy space must be a JSON object"),
            (b'{"proxy": {}, "intended": {}}', "proxy space is missing 'dataset'"),
        ],
    )
    def test_malformed_spaces_file_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "spaces.json"
        path.write_bytes(content)
        assert run_cli("--out", str(tmp_path / "r"), "score", str(path)) == 2
        assert message in capsys.readouterr().err

    def test_relative_dataset_is_read_beside_the_spaces_file(self, tmp_path, monkeypatch):
        rel = tmp_path / "rel"
        rel.mkdir()
        write_population(rel / "pop.csv")
        write_spaces(rel / "spaces.json", "pop.csv")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("--out", str(tmp_path / "r"), "score", "../rel/spaces.json") == 0

    def test_duplicate_ids_exit_2(self, tmp_path):
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text("id,group,y,y_prime,x_a,z_a\nd,0,1,1,1.0,1.0\nd,1,0,0,1.0,1.0\n")
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv))
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2

    def test_tau_from_config_reaches_the_search(self, tmp_path):
        # every other row is obstructed and the only policy is 0, so psi = 0.5
        pop_csv = write_population(tmp_path / "pop.csv", obstructed=range(0, 40, 2))
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv), proxy_alpha=1.0)
        config = tmp_path / "run.toml"
        config.write_text("tau = 0.5\n")

        def access_accepted(name, config_flags=(), tau_flags=()):
            out = tmp_path / name
            code = run_cli(
                "--out", str(out), *config_flags, "score", str(spaces),
                "--max-outer", "1", "--max-inner", "1", *tau_flags,
            )
            assert code == 0
            record = json.loads((out / "scoring_trace.json").read_text())["records"][0]
            assert record["phase"] == "access" and record["psi"] == 0.5
            return record["accepted"]

        from_toml = ("--config", str(config))
        assert access_accepted("default") is False  # default tau 0.85
        assert access_accepted("toml", from_toml) is True
        assert access_accepted("flag", from_toml, ("--tau", "0.9")) is False

    def test_plain_crlf_and_quoted_populations_give_one_trace(self, tmp_path, monkeypatch, plain_blocks):
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", 2048)
        rng = np.random.default_rng(3)
        n = 300
        x = rng.normal(size=(n, 2)).round(6)
        grp = rng.integers(0, 2, size=n)
        y = (x.sum(axis=1) + rng.normal(scale=0.5, size=n) > 0).astype(int)
        z = x + np.where(rng.random((n, 1)) < 0.3, rng.exponential(1.0, size=(n, 2)), 0.0).round(6)
        lines = ["id,group,y,y_prime,x_a,x_b,z_a,z_b"]
        for i in range(n):
            cells = [f"p{i}", str(grp[i]), str(y[i]), str(y[i]), *map(repr, x[i].tolist()), *map(repr, z[i].tolist())]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        space = {
            "dataset": "pop.csv",
            "alpha": [1.0, 0.0],
            "specs": [{"features": ["a", "b"]}, {"features": ["a"]}],
            "policies": [0, 0.5, "inf"],
        }
        traces = {}
        for how in ("plain", "crlf", "quoted"):
            plain_blocks.clear()
            folder = tmp_path / how
            folder.mkdir()
            (folder / "pop.csv").write_bytes(rewrite(text, how).encode())
            (folder / "spaces.json").write_text(json.dumps({"proxy": space, "intended": space}))
            code = run_cli(
                "--out", str(folder / "r"), "--format", "json", "score", str(folder / "spaces.json"),
                "--max-outer", "3", "--max-inner", "3",
            )
            assert code == 0
            traces[how] = (folder / "r" / "scoring_trace.json").read_bytes()
            assert set(plain_blocks) == ({"numpy"} if how == "plain" else {"csv"})
        assert traces["plain"] == traces["crlf"] == traces["quoted"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha", ["a"], "'alpha' must list one number per dataset feature (1)"),
            ("alpha", [], "'alpha' must list one number per dataset feature (1)"),
            ("policies", [[1]], "policy delta must be a number or 'inf', got [1]"),
            ("policies", [None], "policy delta must be a number or 'inf', got None"),
            ("policies", [{}], "policy delta must be a number or 'inf', got {}"),
            ("policies", [True], "policy delta must be a number or 'inf', got True"),
            ("specs", [5], "spec 0 must be a JSON object with 'features'"),
            ("specs", [{"features": "a0"}], "spec 0: 'features' must be a list of feature names"),
            ("dataset", 5, "'dataset' must be a path string"),
            ("affected_features", ["x"], "'affected_features' must be a list of feature indices"),
            ("specs", [{"features": ["a"], "function_class": 5}], "spec 0: 'function_class' must be a string"),
        ],
        ids=[
            "alpha-string", "alpha-short", "policy-list", "policy-null", "policy-object",
            "policy-bool", "spec-number", "features-string", "dataset-number", "affected-string",
            "class-number",
        ],
    )
    def test_malformed_space_exit_2(self, tmp_path, capsys, key, value, message):
        pop_csv = write_population(tmp_path / "pop.csv")
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv))
        doc = json.loads(spaces.read_text())
        doc["proxy"][key] = value
        spaces.write_text(json.dumps(doc))
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2
        assert f"error: proxy space: {message}" in capsys.readouterr().err


    def test_declared_affected_features_bound_the_alpha(self, tmp_path, capsys):
        # every other row is obstructed; declaring the support of alpha gives
        # the trace its absence gives, and a weight outside it is refused
        pop_csv = write_population(tmp_path / "pop.csv", obstructed=range(0, 40, 2))
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv), proxy_alpha=1.0)
        doc = json.loads(spaces.read_text())
        traces = []
        for affected in (None, [0]):
            if affected is not None:
                doc["proxy"]["affected_features"] = affected
            spaces.write_text(json.dumps(doc))
            out = tmp_path / f"r{len(traces)}"
            assert run_cli("--out", str(out), "score", str(spaces), "--max-outer", "2", "--max-inner", "2") == 0
            traces.append((out / "scoring_trace.json").read_bytes())
        assert traces[0] == traces[1]
        doc["proxy"]["affected_features"] = []
        spaces.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2
        assert "error: alpha[0] > 0 but feature 0 is not in affected_features" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["specs", "policies"])
    def test_specs_or_policies_not_a_list_exit_2(self, tmp_path, capsys, key):
        pop_csv = write_population(tmp_path / "pop.csv")
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv))
        doc = json.loads(spaces.read_text())
        doc["intended"][key] = {"0": 1}
        spaces.write_text(json.dumps(doc))
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2
        assert f"error: intended space: '{key}' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("hyperparams", [{"l2": "0.1"}, {"l2": True}, {"l2": None}, [1.0]])
    def test_hyperparams_not_an_object_of_numbers_exit_2(self, tmp_path, capsys, hyperparams):
        pop_csv = write_population(tmp_path / "pop.csv")
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv))
        doc = json.loads(spaces.read_text())
        doc["proxy"]["specs"] = [{"features": ["a"], "hyperparams": hyperparams}]
        spaces.write_text(json.dumps(doc))
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2
        assert "error: proxy space: spec 0: 'hyperparams' must be an object of numbers" in capsys.readouterr().err

    def test_non_integral_iterations_exit_2(self, tmp_path, capsys):
        pop_csv = write_population(tmp_path / "pop.csv")
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv))
        doc = json.loads(spaces.read_text())
        for cap, rule in [(2.5, "a whole number of Newton steps"), (-1, ">= 0")]:
            doc["proxy"]["specs"] = [{"features": ["a"], "hyperparams": {"iterations": cap}}]
            spaces.write_text(json.dumps(doc))
            assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2
            assert f"hyperparameter 'iterations' must be {rule}, got {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "function_class, name, value",
        [
            ("logistic_regression", "l2", float("nan")),
            ("logistic_regression", "l2", -1),
            ("logistic_regression", "l2", float("inf")),
            ("logistic_regression", "decision_threshold", float("nan")),
            ("norm_threshold", "threshold", float("nan")),
        ],
    )
    def test_non_finite_or_negative_hyperparameter_exit_2(self, tmp_path, capsys, function_class, name, value):
        pop_csv = write_population(tmp_path / "pop.csv")
        spaces = write_spaces(tmp_path / "spaces.json", str(pop_csv))
        doc = json.loads(spaces.read_text())
        hyperparams = {"threshold": 2.0, name: value}
        doc["proxy"]["specs"] = [{"features": ["a"], "function_class": function_class, "hyperparams": hyperparams}]
        spaces.write_text(json.dumps(doc))
        assert run_cli("--out", str(tmp_path / "r"), "score", str(spaces)) == 2
        assert f"hyperparameter {name!r} must be a finite number" in capsys.readouterr().err


class TestCasestudy:
    def test_runs_and_is_byte_stable(self, student_path, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli(
                "--seed", "7", "--out", str(out), "--format", "json",
                "casestudy", str(student_path),
            )
            assert code == 0
        assert (out_a / "casestudy.json").read_bytes() == (out_b / "casestudy.json").read_bytes()
        doc = json.loads((out_a / "casestudy.json").read_text())
        assert len(doc["regimes"]) == 8

    def test_csv_output(self, student_path, tmp_path):
        out = tmp_path / "r"
        code = run_cli(
            "--seed", "7", "--out", str(out), "--format", "csv",
            "casestudy", str(student_path),
        )
        assert code == 0
        lines = (out / "casestudy.csv").read_text().splitlines()
        assert lines[0] == "regime,metric,group,value"
        assert any("admission_rate" in line for line in lines)


class TestSimulateLoop:
    def test_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = run_cli(
            "--seed", "5", "--out", str(out),
            "simulate-loop", "--regime", "no_equity", "--rounds", "1",
        )
        assert code == 0
        text = (out / "trajectory_no_equity.csv").read_text()
        assert text.splitlines()[0].startswith("round,regime,psi")
        assert len(text.splitlines()) == 2

    # both counts fail in numpy's size check, before any memory is touched
    @pytest.mark.parametrize("rounds", [10**15, 10**30])
    def test_unallocatable_round_count_exit_2(self, tmp_path, capsys, rounds):
        out = tmp_path / "r"
        code = run_cli("--out", str(out), "simulate-loop", "--regime", "no_equity", "--rounds", str(rounds))
        assert code == 2
        rows = 4000 + rounds * 4000
        assert f"rounds={rounds} needs a pool of {rows} rows, more than can be allocated" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["casestudy", "score", "simulate-loop"])
def test_negative_seed_exit_2(student_path, spaces_json, tmp_path, capsys, command):
    argv = {
        "casestudy": ["casestudy", str(student_path)],
        "score": ["score", str(spaces_json)],
        "simulate-loop": ["simulate-loop", "--regime", "no_equity", "--rounds", "1"],
    }[command]
    assert run_cli("--seed", "-1", "--out", str(tmp_path / "r"), *argv) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("pass_mark", [21, -1])
def test_pass_mark_off_the_grade_scale_exit_2(student_path, tmp_path, capsys, pass_mark):
    config = tmp_path / "run.toml"
    config.write_text(f"pass_mark = {pass_mark}\n")
    assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "casestudy", str(student_path)) == 2
    assert "error: pass_mark must be within the 0-20 grade scale" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_a_pass_mark_every_student_clears_exit_2(student_path, tmp_path, capsys):
    # every grade is >= 0, so every training label is 1
    config = tmp_path / "run.toml"
    config.write_text("pass_mark = 0\n")
    assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "casestudy", str(student_path)) == 2
    assert capsys.readouterr().err == "error: case study training degenerate: training labels contain a single class\n"
    assert not (tmp_path / "r").exists()


class TestGaps:
    def test_gap_report(self, tmp_path, capsys):
        proxy = tmp_path / "proxy.json"
        proxy.write_text(json.dumps({
            "feature_names": ["code experience", "team player", "references", "gender", "race"],
            "importance": [0.5, 0.2, 0.2, 0.05, 0.05],
        }))
        intended = tmp_path / "intended.json"
        intended.write_text(json.dumps({
            "feature_names": ["accomplished tasks", "team player", "manager ratings", "gender", "race"],
            "importance": [0.5, 0.2, 0.2, 0.05, 0.05],
        }))
        out = tmp_path / "r"
        assert run_cli("--out", str(out), "gaps", str(proxy), str(intended)) == 0
        doc = json.loads((out / "gaps.json").read_text())
        assert doc["gamma_x"] == [1, 0, 1, 0, 0]
        assert doc["gamma_l"] == pytest.approx([0.5, 0.0, 0.2, 0.0, 0.0])
        assert doc["notes"]

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"5", "must hold a JSON object, got int"),
            (b"[]", "must hold a JSON object, got list"),
            (b'{"feature_names": ["\xff"]}', "UTF-8"),
        ],
    )
    def test_malformed_model_document_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(path), str(path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"feature_names": 5}, "'feature_names' must be a list of feature names"),
            ({"feature_names": [[1], [2]]}, "'feature_names' must be a list of feature names"),
            ({"importance": ["x", "y"]}, "'importance' must list one number per feature name (2)"),
            ({"importance": [0.5]}, "'importance' must list one number per feature name (2)"),
            ({"importance": [True, 0.5]}, "'importance' must list one number per feature name (2)"),
            ({"alpha": ["x"]}, "'alpha' must list one number per feature name (2)"),
            ({"alpha": [1.0, 0.0], "affected_features": 5}, "'affected_features' must be a list of feature indices"),
            ({"affected_features": 5}, "'affected_features' must be a list of feature indices"),
            ({"alpha": [1.0, 0.0], "affected_features": ["x"]}, "'affected_features' must be a list of feature indices"),
            ({"affected_features": [0]}, "'affected_features' needs 'alpha'"),
        ],
        ids=[
            "names-number", "names-lists", "importance-strings", "importance-short", "importance-bool",
            "alpha-string", "affected-number", "affected-without-alpha", "affected-string",
            "affected-list-without-alpha",
        ],
    )
    def test_misshapen_model_document_exit_2(self, tmp_path, capsys, fields, message):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"feature_names": ["a", "b"], "importance": [0.5, 0.5]}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"feature_names": ["a", "b"], "importance": [0.5, 0.5], **fields}))
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(good), str(good)) == 0
        capsys.readouterr()
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(bad), str(good)) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_model_document_without_importance_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"feature_names": ["a", "b"]}))
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(path), str(path)) == 2
        assert f"error: {path} must contain feature_names and importance" in capsys.readouterr().err

    def test_an_integer_past_the_float_range_is_no_number_exit_2(self, tmp_path, capsys):
        # JSON reads the 400-digit integer exactly; it has no float, so it is no number
        path = tmp_path / "m.json"
        path.write_text('{"feature_names": ["a", "b"], "importance": [1' + "0" * 400 + ", 0.5]}")
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(path), str(path)) == 2
        assert f"error: {path}: 'importance' must list one number per feature name (2)" in capsys.readouterr().err

    def test_an_alpha_that_reads_as_infinity_exit_2(self, tmp_path, capsys):
        # 1e400 is a JSON number that Python reads as inf
        path = tmp_path / "m.json"
        path.write_text('{"feature_names": ["a", "b"], "importance": [0.5, 0.5], "alpha": [1e400, 0]}')
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(path), str(path)) == 2
        assert "error: alpha contains non-finite values" in capsys.readouterr().err

    def test_alpha_distance_past_the_float_range_exit_2(self, tmp_path, capsys):
        # each alpha is finite, their L1 distance is not; JSON has no Infinity to write it with
        paths = []
        for name, alpha in (("proxy.json", [0, 0]), ("intended.json", [1e308, 1e308])):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps({
                "feature_names": ["a", "b"], "importance": [0.5, 0.5], "alpha": alpha, "affected_features": [0, 1],
            }))
        out = tmp_path / "r"
        assert run_cli("--out", str(out), "gaps", *map(str, paths)) == 2
        captured = capsys.readouterr()
        assert "Infinity" not in captured.out
        assert "error: alpha: the L1 distance between matched alpha values overflows" in captured.err
        assert not (out / "gaps.json").exists()

    def test_directory_model_document_exit_2(self, tmp_path, capsys):
        assert run_cli("--out", str(tmp_path / "r"), "gaps", str(tmp_path), str(tmp_path)) == 2
        assert "cannot open" in capsys.readouterr().err

    def test_saved_case_study_models_feed_gaps(self, tmp_path, student_path):
        out = tmp_path / "r"
        assert run_cli("--seed", "7", "--out", str(out), "casestudy", str(student_path)) == 0
        proxy_doc = out / "proxy_model.json"
        intended_doc = out / "intended_model.json"
        assert proxy_doc.exists() and intended_doc.exists()
        code = run_cli("--out", str(out), "gaps", str(proxy_doc), str(intended_doc))
        assert code == 0
        doc = json.loads((out / "gaps.json").read_text())
        assert doc["gamma_x"] == [0, 1, 1, 1, 1, 1, 1, 1, 1, 1]

    def test_model_documents_without_fit_diagnostics_feed_gaps(self, tmp_path, student_path, capsys):
        out = tmp_path / "r"
        assert run_cli("--seed", "7", "--out", str(out), "casestudy", str(student_path)) == 0
        docs = [out / "proxy_model.json", out / "intended_model.json"]
        for doc in docs:
            fitted = json.loads(doc.read_text())
            assert fitted["converged"] is True and fitted["n_iter"] >= 1
        capsys.readouterr()
        assert run_cli("--out", str(out), "gaps", *map(str, docs)) == 0
        with_diagnostics = capsys.readouterr().out
        # the documents as versions before the Newton fit wrote them
        for doc in docs:
            fitted = json.loads(doc.read_text())
            for key in ("n_iter", "grad_norm", "converged"):
                del fitted[key]
            doc.write_text(json.dumps(fitted))
        assert run_cli("--out", str(out), "gaps", *map(str, docs)) == 0
        assert capsys.readouterr().out == with_diagnostics

    def test_config_file_round_trip(self, tmp_path, student_path):
        config = tmp_path / "run.toml"
        config.write_text('seed = 7\nformats = ["json"]\n')
        out = tmp_path / "r"
        code = run_cli(
            "--config", str(config), "--out", str(out), "casestudy", str(student_path)
        )
        assert code == 0
        assert (out / "casestudy.json").exists()


@pytest.mark.parametrize("command", ["audit", "gaps"])
def test_prints_the_report_it_writes_encoded_once(audit_csv, tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "r"
    argv = {"audit": ["audit", str(audit_csv)], "gaps": ["gaps", str(tmp_path / "p.json"), str(tmp_path / "i.json")]}
    for name in ("p.json", "i.json"):
        (tmp_path / name).write_text(json.dumps({"feature_names": ["a", "b"], "importance": [0.75, 0.25]}))
    encoded, json_text = [], reports.json_text
    monkeypatch.setattr(reports, "json_text", lambda *a, **k: encoded.append(a) or json_text(*a, **k))
    assert run_cli("--out", str(out), *argv[command]) == 0
    assert capsys.readouterr().out == (out / f"{command}.json").read_text()
    assert len(encoded) == 1


UNWRITABLE_OUT = ["out-is-a-file", "out-below-a-file", "report-is-a-directory"]


@pytest.mark.parametrize("case", UNWRITABLE_OUT)
@pytest.mark.parametrize("command", ["audit", "simulate-loop"])
def test_unwritable_out_exit_2(audit_csv, tmp_path, capsys, command, case):
    argv, report = {
        "audit": (["audit", str(audit_csv)], "audit.json"),
        "simulate-loop": (["simulate-loop", "--regime", "no_equity", "--rounds", "1"], "trajectory_no_equity.csv"),
    }[command]
    taken = tmp_path / "taken"
    if case == "report-is-a-directory":
        (taken / report).mkdir(parents=True)
        out, failed, reason = taken, taken / report, "Is a directory"
    else:
        taken.write_text("")
        out, failed, reason = {
            "out-is-a-file": (taken, taken, "File exists"),
            "out-below-a-file": (taken / "sub", taken / "sub", "Not a directory"),
        }[case]
    assert run_cli("--out", str(out), *argv) == 2
    assert capsys.readouterr().err == f"error: cannot write reports to {failed}: {reason}\n"
