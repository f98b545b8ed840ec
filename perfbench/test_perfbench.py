"""Tests of the benchmark itself.

Each workload runs one short operation with its checks on, and then each
check is shown to fire on a deliberately corrupted output, so that no
check passes vacuously. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

CLI = run.load_cli()

import checks  # noqa: E402  (needs the program on the path)
import spans  # noqa: E402
import workloads as W  # noqa: E402


def _op(workload: str, tmp_path: Path, kind: int = 0, seed: int = 101) -> W.Op:
    wl = W.WORKLOADS[workload]
    op = wl.make_op(seed, 0, kind, tmp_path / f"{workload}{kind}")
    elapsed, problems = run.run_op(CLI, op, checks.CHECKS[workload])
    assert problems == [], problems
    assert elapsed > 0
    return op


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _fires(op: W.Op, fragment: str) -> None:
    problems = checks.CHECKS[op.workload](op)
    assert any(fragment in p for p in problems), problems


@pytest.fixture
def fresh(tmp_path):
    """A copy of an operation whose outputs a test may corrupt."""

    def copy(op: W.Op) -> W.Op:
        work = tmp_path / f"copy-{op.workload}-{op.index}-{len(list(tmp_path.iterdir()))}"
        shutil.copytree(op.work_dir, work)
        context = {k: (work / v.name if isinstance(v, Path) else v) for k, v in op.context.items()}
        return W.Op(op.workload, op.index, op.seed, work, op.argvs, context)

    return copy


# --------------------------------------------------------------------- loop


@pytest.fixture(scope="module")
def loop_ops(tmp_path_factory):
    base = tmp_path_factory.mktemp("loop")
    return {kind: _op("loop", base, kind) for kind in (0, 1)}  # no_equity, access_only


def _edit_trajectory(op: W.Op, edit) -> None:
    path = op.out_dir / f"trajectory_{op.context['regime']}.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows))


def _set(col: str, row: int, value: str):
    def edit(rows):
        rows[row][checks.LOOP_COLUMNS.index(col)] = value

    return edit


@pytest.mark.parametrize(
    "kind, edit, fragment",
    [
        (0, lambda rows: rows.pop(), "rows, expected"),
        (0, _set("psi", 3, "0.55"), "psi 0.55 is not"),
        (1, _set("psi", 2, "0.99975"), "expected exactly 1"),
        (0, _set("zeta", 1, "1.01"), "zeta=1.01 outside"),
        (0, _set("fp_share_g1", 1, "-0.1"), "fp_share_g1=-0.1 outside"),
        (0, _set("omega", 4, "2.5"), "omega=2.5 outside"),
        (0, _set("curated_size", 5, "10"), "curated_size fell"),
        (0, _set("regime", 5, "full_equity"), "round 5 of full_equity"),
    ],
)
def test_loop_checks_fire(loop_ops, fresh, kind, edit, fragment):
    op = fresh(loop_ops[kind])
    _edit_trajectory(op, edit)
    _fires(op, fragment)


# -------------------------------------------------------------------- score


@pytest.fixture(scope="module")
def score_op(tmp_path_factory):
    return _op("score", tmp_path_factory.mktemp("score"))


def _trace_edit(fn):
    return lambda op: _edit_json(op.out_dir / "scoring_trace.json", fn)


def _shift_psi(doc):
    # move the accepted psi consistently everywhere in the trace, so only
    # the count from the population file can tell
    final = doc["records"][-1]
    for r in doc["records"]:
        if r["iter"] == final["iter"] and r["phase"] != "access":
            r["psi"] = final["psi"] - 0.0005
    f = doc["records"][-1]
    doc["final_score"] = f["psi"] + (1.0 - min(f["omega"], 1.0)) + f["zeta"]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_trace_edit(lambda d: d.update(terminated_reason="iteration_cap")), "expected 'converged'"),
        (_trace_edit(lambda d: d.update(final_score=d["final_score"] + 1e-9)), "final_score"),
        (_trace_edit(lambda d: d["records"].reverse()), "out of order"),
        (_trace_edit(lambda d: d["records"].extend([dict(d["records"][0], iter=999)] * 2500)), "for a budget of"),
        (_trace_edit(_shift_psi), "counted from the population file"),
        (_trace_edit(lambda d: d["records"][-1].update(zeta=0.5)), "accepted utilization record has zeta=0.5"),
    ],
)
def test_score_checks_fire(score_op, fresh, edit, fragment):
    op = fresh(score_op)
    edit(op)
    _fires(op, fragment)


def test_plain_psi_counts_obstacles(score_op):
    alpha = dict(zip(W.PROXY_FEATURES, W.PROXY_ALPHA))
    path = score_op.context["proxy_csv"]
    assert checks.plain_psi(path, ("a0", "a1"), alpha, 0.0) == 1.0
    assert checks.plain_psi(path, ("a0", "a2"), alpha, float("inf")) == 1.0
    assert checks.plain_psi(path, ("a0", "a2"), alpha, 0.0) < 0.85


def test_repeat_candidates_counts_within_an_iteration():
    rec = lambda it, phase, s, p: {"iter": it, "phase": phase, "spec_id": s, "policy_id": p}  # noqa: E731
    records = [rec(1, "utilization", 0, 0), rec(1, "utilization", 0, 0), rec(2, "utilization", 0, 0),
               rec(2, "outcome", 0, 0), rec(2, "utilization", 1, 0)]
    assert spans.repeat_candidates(records) == 1


# ---------------------------------------------------------------- casestudy


@pytest.fixture(scope="module")
def casestudy_op(tmp_path_factory):
    return _op("casestudy", tmp_path_factory.mktemp("casestudy"))


def _regime(doc, access: bool):
    return next(r for r in doc["regimes"] if r["equal_access"] == access and r["report"])


def _cs_edit(fn):
    return lambda op: _edit_json(op.out_dir / "casestudy.json", fn)


def _eq_acc_psi(doc):
    r = _regime(doc, True)
    r["report"]["access"]["psi"] = 0.99
    r["report"]["access"]["per_individual"][0] = False


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (_cs_edit(lambda d: _regime(d, False)["report"].update(score=2.5)), "score 2.5 !="),
        (_cs_edit(_eq_acc_psi), "under equal access"),
        (_cs_edit(lambda d: _regime(d, False)["report"]["access"].update(psi=0.5)), "per-person flags"),
        (_cs_edit(lambda d: _regime(d, False)["admissibility_by_group"].update({"0": 1.2})), "outside [0, 1]"),
        (_cs_edit(lambda d: _regime(d, False)["report"]["outcome"]["tpr_by_group"].update({"0": 0.0})), "is not |dTPR|"),
        (_cs_edit(lambda d: d["regimes"].pop()), "casestudy: regimes"),
        (lambda op: _edit_json(op.out_dir / "gaps.json", lambda d: d["gamma_x"].__setitem__(0, 1)), "gaps.json gamma_x"),
        (lambda op: _edit_json(op.out_dir / "gaps.json", lambda d: d["gamma_l"].pop()), "gamma_l length"),
    ],
)
def test_casestudy_checks_fire(casestudy_op, fresh, edit, fragment):
    op = fresh(casestudy_op)
    edit(op)
    _fires(op, fragment)


def test_name_squashing_matches_the_documented_rule():
    assert checks.squash_name("  Test__Scores ") == "test scores"
    assert checks.squash_name("study \t_ time") == "study time"
    assert checks.squash_name("sex") == "sex"


# -------------------------------------------------------------------- audit


@pytest.fixture(scope="module")
def audit_op(tmp_path_factory):
    return _op("audit", tmp_path_factory.mktemp("audit"))


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        (("outcome", "tpr_by_group", "1"), 0.5, "tpr_by_group"),
        (("outcome", "fpr_by_group", "0"), 0.5, "fpr_by_group"),
        (("outcome", "eo_violation"), 0.25, "eo_violation"),
        (("utilization", "zeta"), 0.5, "zeta"),
        (("utilization", "m"), 7, "m 7"),
    ],
)
def test_audit_checks_fire(audit_op, fresh, path, value, fragment):
    op = fresh(audit_op)

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    _edit_json(op.out_dir / "audit.json", edit)
    _fires(op, fragment)


# ----------------------------------------------------------- byte stability


def test_repeat_is_byte_identical_and_the_comparison_fires(casestudy_op, tmp_path):
    assert run.repeat_problems(CLI, casestudy_op) == []
    again = casestudy_op.work_dir / "repeat"
    target = again / "gaps.json"
    target.write_bytes(target.read_bytes().replace(b"0", b"1", 1))
    assert any("gaps.json differs" in p for p in checks.compare_outputs(casestudy_op.out_dir, again))
    target.unlink()
    assert any("file sets differ" in p for p in checks.compare_outputs(casestudy_op.out_dir, again))


# --------------------------------------------------------------- whole runs


def test_a_short_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "casestudy", "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == ["items_per_s", "op_p50_s", "peak_rss_mib", "setup_s"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
