"""Output checks for every operation, made apart from the program.

Each check reads what one operation wrote and returns a list of problems
(empty when the output is right). Expected values come from the inputs
the benchmark generated, recomputed here in plain Python, or from
properties the method must have; nothing is compared with a stored copy
of an earlier run's output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import workloads as W

LOOP_COLUMNS = [
    "round", "regime", "psi", "omega", "zeta", "pos_rate_g0", "pos_rate_g1",
    "fp_share_g0", "fp_share_g1", "curated_size",
]
# the loop generator's documented defaults: half the cohort in each group,
# obstacle probability 0.15 in group 0 and 0.65 in group 1; an
# unalleviated obstacle always blocks access
LOOP_NO_EQUITY_PSI = 0.5 * (1 - 0.15) + 0.5 * (1 - 0.65)
LOOP_PSI_TOLERANCE = 5 * math.sqrt(LOOP_NO_EQUITY_PSI * (1 - LOOP_NO_EQUITY_PSI) / W.LOOP_COHORT)

TAU = 0.85
TAU_O = 0.15
PHASE_ORDER = {"access": 0, "outcome": 1, "utilization": 2}
# the quantity each phase gates on, and the test an accepted record passes
GATES = {
    "access": ("psi", lambda v: v >= TAU),
    "outcome": ("omega", lambda v: v <= TAU_O),
    "utilization": ("zeta", lambda v: v >= TAU),
}


def _in_unit(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _score(psi: float, omega: float, zeta: float) -> float:
    return psi + (1.0 - min(omega, 1.0)) + zeta


# --------------------------------------------------------------------- loop


def check_loop(op: W.Op) -> list[str]:
    regime = op.context["regime"]
    path = op.out_dir / f"trajectory_{regime}.csv"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != LOOP_COLUMNS:
        return [f"loop: unexpected header {rows[0]}"]
    body = rows[1:]
    if len(body) != W.LOOP_ROUNDS:
        problems.append(f"loop: {len(body)} rows, expected {W.LOOP_ROUNDS}")
    last_size = -1
    for k, row in enumerate(body, start=1):
        rec = dict(zip(LOOP_COLUMNS, row))
        if rec["round"] != str(k) or rec["regime"] != regime:
            problems.append(f"loop: row {k} is round {rec['round']} of {rec['regime']}")
        psi = float(rec["psi"])
        if regime == "no_equity":
            if abs(psi - LOOP_NO_EQUITY_PSI) > LOOP_PSI_TOLERANCE:
                problems.append(f"loop: round {k} psi {psi} is not {LOOP_NO_EQUITY_PSI} +- {LOOP_PSI_TOLERANCE:.4f}")
        elif psi != 1.0:
            problems.append(f"loop: round {k} psi {psi} under {regime}, expected exactly 1")
        for col in ("zeta", "pos_rate_g0", "pos_rate_g1", "fp_share_g0", "fp_share_g1"):
            if not _in_unit(float(rec[col])):
                problems.append(f"loop: round {k} {col}={rec[col]} outside [0, 1]")
        omega = float(rec["omega"])
        if not 0.0 <= omega <= 2.0:
            problems.append(f"loop: round {k} omega={omega} outside [0, 2]")
        size = int(rec["curated_size"])
        if size < last_size:
            problems.append(f"loop: curated_size fell from {last_size} to {size} in round {k}")
        last_size = size
    return problems


# -------------------------------------------------------------------- score


def plain_psi(population_csv: Path, features, alpha: dict, delta: float) -> float:
    """Access rate of one feature view, counted row by row from the file."""
    accessed = total = 0
    with population_csv.open(newline="") as fh:
        for row in csv.DictReader(fh):
            magnitude = 0.0
            for f in features:
                magnitude += alpha[f] * (float(row[f"z_{f}"]) - float(row[f"x_{f}"]))
            total += 1
            if magnitude == 0.0 or max(magnitude - delta, 0.0) == 0.0:
                accessed += 1
    return accessed / total


def check_score(op: W.Op) -> list[str]:
    doc = json.loads((op.out_dir / "scoring_trace.json").read_text())
    records = doc["records"]
    problems = []
    if doc["terminated_reason"] != "converged":
        return [f"score: search ended {doc['terminated_reason']!r}, expected 'converged'"]
    if not records:
        return ["score: empty trace"]
    if len(records) > W.SCORE_MAX_OUTER * W.SCORE_MAX_INNER:
        problems.append(f"score: {len(records)} records for a budget of {W.SCORE_MAX_OUTER * W.SCORE_MAX_INNER}")
    last = (0, 0)
    for r in records:
        key = (r["iter"], PHASE_ORDER[r["phase"]])
        if key < last or (key[0] > last[0] and r["phase"] != "access"):
            problems.append(f"score: {r['phase']} record of iteration {r['iter']} out of order")
        last = key
        quantity, passes = GATES[r["phase"]]
        if r["accepted"] and (r[quantity] is None or not passes(r[quantity])):
            problems.append(f"score: accepted {r['phase']} record has {quantity}={r[quantity]}")
    final = records[-1]
    if not (final["phase"] == "utilization" and final["accepted"]):
        return problems + ["score: the last record is not an accepted utilization record"]
    outcome = [r for r in records if r["iter"] == final["iter"] and r["phase"] == "outcome" and r["accepted"]]
    if len(outcome) != 1:
        return problems + [f"score: {len(outcome)} accepted outcome records in the final iteration"]
    psi, omega, zeta = final["psi"], final["omega"], final["zeta"]
    if (outcome[0]["psi"], outcome[0]["omega"]) != (psi, omega):
        problems.append("score: final record's psi/omega differ from the accepted outcome record")
    if doc["final_score"] != _score(psi, omega, zeta):
        problems.append(f"score: final_score {doc['final_score']} != psi + 1 - min(omega, 1) + zeta = {_score(psi, omega, zeta)}")
    features = W.PROXY_SPECS[outcome[0]["spec_id"]]
    delta = W.policy_delta(W.SCORE_POLICIES[outcome[0]["policy_id"]])
    expected = plain_psi(op.context["proxy_csv"], features, dict(zip(W.PROXY_FEATURES, W.PROXY_ALPHA)), delta)
    if psi != expected:
        problems.append(f"score: accepted psi {psi} != {expected} counted from the population file")
    return problems


# ---------------------------------------------------------------- casestudy


def squash_name(name: str) -> str:
    """Feature-name equivalence: case-insensitive, runs of blanks and
    underscores read as one space, outer blanks ignored."""
    out = []
    for ch in name.strip().lower():
        sep = ch == "_" or ch.isspace()
        if sep and out and out[-1] == " ":
            continue
        out.append(" " if sep else ch)
    return "".join(out)


def check_casestudy(op: W.Op) -> list[str]:
    out = op.out_dir
    doc = json.loads((out / "casestudy.json").read_text())
    gaps = json.loads((out / "gaps.json").read_text())
    proxy = json.loads((out / "proxy_model.json").read_text())["feature_names"]
    intended = json.loads((out / "intended_model.json").read_text())["feature_names"]
    problems = []
    names = [r["name"] for r in doc["regimes"]]
    if len(names) != W.CASESTUDY_REGIMES or len(set(names)) != len(names):
        problems.append(f"casestudy: regimes {names}")
    for r in doc["regimes"]:
        name = r["name"]
        rates = list(r["admissibility_by_group"].values()) + list(r["fp_share_by_group"].values())
        rates += [v for v in (r["tp_share"], r["fp_share"]) if v is not None]
        rep = r["report"]
        if rep is None:
            if not r["degenerate"]:
                problems.append(f"casestudy: {name} has no report and no reason")
            continue
        psi = rep["access"]["psi"]
        omega = rep["outcome"]["eo_violation"]
        zeta = rep["utilization"]["zeta"]
        flags = rep["access"]["per_individual"]
        if len(flags) != W.STUDENT_ROWS or psi != sum(flags) / len(flags):
            problems.append(f"casestudy: {name} psi {psi} disagrees with its per-person flags")
        if r["equal_access"] and psi != 1.0:
            problems.append(f"casestudy: {name} psi {psi} under equal access, expected exactly 1")
        if rep["score"] != _score(psi, omega, zeta):
            problems.append(f"casestudy: {name} score {rep['score']} != {_score(psi, omega, zeta)}")
        tpr, fpr = rep["outcome"]["tpr_by_group"], rep["outcome"]["fpr_by_group"]
        if omega != abs(tpr["0"] - tpr["1"]) + abs(fpr["0"] - fpr["1"]):
            problems.append(f"casestudy: {name} omega {omega} is not |dTPR| + |dFPR|")
        rates += [psi, zeta, rep["utilization"]["true_positive_share"], rep["utilization"]["false_positive_share"]]
        rates += list(rep["access"]["per_group"].values()) + list(tpr.values()) + list(fpr.values())
        rates += list(rep["utilization"]["per_group_fp_share"].values())
        if not all(_in_unit(v) for v in rates):
            problems.append(f"casestudy: {name} has a rate outside [0, 1]")
    proxy_names = {squash_name(f) for f in proxy}
    gamma_x = [0 if squash_name(f) in proxy_names else 1 for f in intended]
    for label, got in (("gaps.json", gaps["gamma_x"]), ("casestudy.json", doc["gaps"]["gamma_x"])):
        if got != gamma_x:
            problems.append(f"casestudy: {label} gamma_x {got} != {gamma_x} from the model documents")
    if len(gaps["gamma_l"]) != len(intended):
        problems.append("casestudy: gamma_l length differs from the evaluation features")
    return problems


# -------------------------------------------------------------------- audit


def audit_expected(arrays: dict) -> dict:
    """omega, per-group TPR/FPR and zeta by counting over the generated log."""
    pred, label, group, y_tt = (arrays[k] for k in ("pred", "label", "group", "y_tt"))
    tpr, fpr = {}, {}
    for g in (0, 1):
        pos = (group == g) & (label == 1)
        neg = (group == g) & (label == 0)
        tpr[str(g)] = int(np.count_nonzero(pred[pos] == 1)) / int(np.count_nonzero(pos))
        fpr[str(g)] = int(np.count_nonzero(pred[neg] == 1)) / int(np.count_nonzero(neg))
    accepted = pred == 1
    m = int(np.count_nonzero(accepted))
    return {
        "tpr_by_group": tpr,
        "fpr_by_group": fpr,
        "eo_violation": abs(tpr["0"] - tpr["1"]) + abs(fpr["0"] - fpr["1"]),
        "zeta": int(np.count_nonzero(y_tt[accepted] == 1)) / m,
        "m": m,
    }


def check_audit(op: W.Op) -> list[str]:
    doc = json.loads((op.out_dir / "audit.json").read_text())
    want = audit_expected(op.context["arrays"])
    got = {
        "tpr_by_group": doc["outcome"]["tpr_by_group"],
        "fpr_by_group": doc["outcome"]["fpr_by_group"],
        "eo_violation": doc["outcome"]["eo_violation"],
        "zeta": doc["utilization"]["zeta"],
        "m": doc["utilization"]["m"],
    }
    return [f"audit: {k} {got[k]} != {want[k]} counted from the log" for k in want if got[k] != want[k]]


# ------------------------------------------------------------ byte stability


def compare_outputs(first: Path, second: Path) -> list[str]:
    """Two runs of one operation on identical inputs wrote identical files."""
    a = {p.name: p.read_bytes() for p in sorted(first.iterdir()) if p.is_file()}
    b = {p.name: p.read_bytes() for p in sorted(second.iterdir()) if p.is_file()}
    if sorted(a) != sorted(b):
        return [f"repeat: file sets differ: {sorted(a)} vs {sorted(b)}"]
    return [f"repeat: {name} differs between identical runs" for name in sorted(a) if a[name] != b[name]]


CHECKS = {
    "loop": check_loop,
    "score": check_score,
    "casestudy": check_casestudy,
    "audit": check_audit,
}
