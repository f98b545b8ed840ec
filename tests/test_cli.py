import json
import os
import threading
import time

import numpy as np
import pytest

from equity_audit import dataio
from equity_audit.cli import main


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
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 4096)  # several blocks per file
        text = self._log_text()
        reports = {}
        for how in ("plain", "crlf", "quoted"):
            plain_blocks.clear()
            path = tmp_path / f"{how}.csv"
            path.write_bytes(rewrite(text, how).encode())
            assert run_cli("--out", str(tmp_path / how), "audit", str(path)) == 0
            reports[how] = (tmp_path / how / "audit.json").read_bytes()
            # plain text is read by numpy; CRLF and quotes send the file to the csv path
            assert plain_blocks == ([True] * len(plain_blocks) if how == "plain" else [False])
        assert reports["plain"] == reports["crlf"] == reports["quoted"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe_once(self, tmp_path):
        text = self._log_text()
        regular = tmp_path / "log.csv"
        regular.write_text(text)
        assert run_cli("--out", str(tmp_path / "file"), "audit", str(regular)) == 0
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
        assert (tmp_path / "fifo" / "audit.json").read_bytes() == (tmp_path / "file" / "audit.json").read_bytes()

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

    def test_mistyped_config_value_exit_2(self, audit_csv, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_text('tau = "abc"\n')
        assert run_cli("--config", str(config), "--out", str(tmp_path / "r"), "audit", str(audit_csv)) == 2
        assert "tau" in capsys.readouterr().err

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
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 2048)
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
            assert any(plain_blocks) == (how == "plain")
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
        ],
        ids=[
            "alpha-string", "alpha-short", "policy-list", "policy-null", "policy-object",
            "policy-bool", "spec-number", "features-string", "dataset-number", "affected-string",
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
