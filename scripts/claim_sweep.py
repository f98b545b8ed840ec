#!/usr/bin/env python3
"""Count over seeds how often each directional claim of the acceptance suite holds.

The acceptance suite checks the paper's directional claims (alleviating
access, outcome and utilization obstacles beats leaving them) at one
seed. This script reruns them over many seeds and reports, per claim, the
number of seeds where it holds with a 95 % Clopper-Pearson interval, and
per regime the median and quartiles of tp_share, omega and zeta.

Case-study claims (criterion 5, and the tp_share ordering of the case
study tests) are swept three ways on the student file:

- ``seed``: one seed drives both the train/test split and the uplift
  draws, as ``equity-audit --seed N casestudy`` does;
- ``split``: the split seed varies, the uplift draws stay at ``FIXED_SEED``;
- ``uplift``: the uplift seed varies, the split stays at ``FIXED_SEED``.

Loop claims (criterion 6 and the loop tests) are swept over
``LOOP_SEEDS``, the seed of the default loop configuration, with
``LOOP_ROUNDS`` rounds; zeta and omega are each run's mean over its
rounds. The output carries no timings, so a rerun on the same code
prints the same bytes. Run from anywhere:

    python3 scripts/claim_sweep.py [--input FILE] [--seeds 20] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "tests" / "data" / "student_sample.csv"
FIXED_SEED = 7  # held while the other seed varies; the acceptance suite's seed
LOOP_REGIMES = ("no_equity", "access_only", "access_and_outcome", "full_equity")
LOOP_SEEDS = range(40, 50)
LOOP_ROUNDS = 10
CONFIDENCE = 0.95


def clopper_pearson(k: int, n: int, confidence: float = CONFIDENCE) -> tuple[float, float]:
    """Exact two-sided binomial interval for k successes in n trials."""
    tail = (1.0 - confidence) / 2.0

    log_n = math.lgamma(n + 1)

    def cdf(j: int, p: float) -> float:  # P(X <= j), each term taken in log space so none overflows
        log_p, log_q = math.log(p), math.log1p(-p)
        return math.fsum(
            math.exp(log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
            for i in range(j + 1)
        )

    def solve(f, target: float) -> float:  # the p in [0, 1] where the increasing f crosses target
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
        return (lo + hi) / 2.0

    # lower: P(X >= k) = tail; upper: P(X <= k) = tail
    lower = 0.0 if k == 0 else solve(lambda p: 1.0 - cdf(k - 1, p), tail)
    upper = 1.0 if k == n else solve(lambda p: 1.0 - cdf(k, p), 1.0 - tail)
    return lower, upper


def quartiles(values: list) -> dict:
    vals = sorted(v for v in values if v is not None and not math.isnan(v))
    if len(vals) < 2:
        return {"n": len(vals), "q1": None, "median": vals[0] if vals else None, "q3": None}
    q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"n": len(vals), "q1": q1, "median": median, "q3": q3}


# ----------------------------------------------------------------- case study


def case_study_claims(result) -> dict[str, bool]:
    from equity_audit.dataio import regime_name

    by_name = {r.name: r for r in result.regimes}
    tp = {name: r.tp_share for name, r in by_name.items()}
    full, none = regime_name(True, True, True), regime_name(False, False, False)
    access_only = regime_name(True, False, False)

    raises = all(
        by_name[regime_name(True, o, u)].admissibility_by_group[g]
        > by_name[regime_name(False, o, u)].admissibility_by_group[g]
        for o in (True, False)
        for u in (True, False)
        for g in (0, 1)
    )
    reports = {(a, o): by_name[regime_name(a, o, True)].report for a in (True, False) for o in (True, False)}
    if any(r is None for r in reports.values()):
        lowest_omega = False
    else:
        best = reports[(True, True)].outcome.eo_violation
        lowest_omega = all(best < r.outcome.eo_violation for k, r in reports.items() if k != (True, True))
    uneq_util = [regime_name(a, o, False) for a in (True, False) for o in (True, False)]
    if any(v is None for v in tp.values()):
        highest = lowest = above = spread = ordered = beats = raises_util = False
        full_access = access_none = False
    else:
        highest = all(tp[full] > v for name, v in tp.items() if name != full)
        lowest = all(tp[none] < v for name, v in tp.items() if name != none)
        above = tp[full] >= 0.90
        spread = tp[full] - tp[none] >= 0.15
        ordered = tp[full] > tp[none]
        beats = all(tp[full] > tp[name] for name in uneq_util)
        raises_util = all(
            tp[regime_name(a, o, True)] > tp[regime_name(a, o, False)]
            for a in (True, False)
            for o in (True, False)
        )
        full_access = tp[full] >= tp[access_only]
        access_none = tp[access_only] >= tp[none]
    return {
        "5(a) equal access raises both groups' admission rate": raises,
        "5(b) eq_acc+eq_out has the strictly lowest omega": lowest_omega,
        "5(c) full equity has the strictly highest tp_share": highest,
        "5(c) fully unequal has the strictly lowest tp_share": lowest,
        "5(c) tp(full) >= 0.90": above,
        "5(c) tp(full) - tp(none) >= 0.15": spread,
        "5(c) as a whole": highest and lowest and above and spread,
        "tp(full) > tp(none)": ordered,
        "tp(full) > tp of every regime with unequal utilization": beats,
        "equal utilization raises tp_share at every access/outcome setting": raises_util,
        "tp(full) >= tp(access only)": full_access,
        "tp(access only) >= tp(none)": access_none,
        "tp(full) >= tp(access only) >= tp(none)": full_access and access_none,
    }


def case_study_values(result) -> dict[str, dict[str, float | None]]:
    out = {}
    for r in result.regimes:
        out[r.name] = {
            "tp_share": r.tp_share,
            "omega": None if r.report is None else r.report.outcome.eo_violation,
            "zeta": None if r.report is None else r.report.utilization.zeta,
        }
    return out


def sweep_case_study(path: Path, seeds: list[int]) -> dict:
    from equity_audit.config import RunConfig
    from equity_audit.dataio import build_case_study_views, load_uci_students, run_case_study

    table = load_uci_students(path)
    fixed_views = build_case_study_views(table, RunConfig(seed=FIXED_SEED))

    def run(kind: str, seed: int):
        if kind == "seed":
            return run_case_study(RunConfig(seed=seed), build_case_study_views(table, RunConfig(seed=seed)))
        if kind == "split":
            return run_case_study(RunConfig(seed=seed), fixed_views)
        return run_case_study(RunConfig(seed=FIXED_SEED), build_case_study_views(table, RunConfig(seed=seed)))

    sweeps = {}
    for kind in ("seed", "split", "uplift"):
        results = [run(kind, s) for s in seeds]
        sweeps[kind] = summarize([case_study_claims(r) for r in results], [case_study_values(r) for r in results], seeds)
    return sweeps


# ----------------------------------------------------------------------- loop


def loop_claims(traj: dict) -> dict[str, bool]:
    full, access, none = traj["full_equity"], traj["access_only"], traj["no_equity"]
    return {
        "6 full equity keeps the fp-share gap <= 0.05 every round": all(
            abs(r.fp_share_by_group[0] - r.fp_share_by_group[1]) <= 0.05 for r in full.rounds
        ),
        "6 no_equity erodes group 1's curated-positive share": (
            none.rounds[-1].curated_pos_share_by_group[1] <= none.rounds[0].curated_pos_share_by_group[1]
        ),
        "6 mean zeta: full > none": full.mean_zeta() > none.mean_zeta(),
        "mean zeta: full >= access_only >= none": full.mean_zeta() >= access.mean_zeta() >= none.mean_zeta(),
    }


def _mean(values: list[float]) -> float | None:
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else None


def sweep_loop() -> dict:
    from equity_audit.loopsim import default_config, run_inequity_loop

    claims, values = [], []
    for seed in LOOP_SEEDS:
        traj = {reg: run_inequity_loop(default_config(seed=seed), LOOP_ROUNDS, reg)[0] for reg in LOOP_REGIMES}
        claims.append(loop_claims(traj))
        values.append({
            reg: {"zeta": _mean([r.zeta for r in t.rounds]), "omega": _mean([r.omega for r in t.rounds])}
            for reg, t in traj.items()
        })
    return summarize(claims, values, list(LOOP_SEEDS))


# -------------------------------------------------------------------- summary


def summarize(claims: list[dict], values: list[dict], seeds: list[int]) -> dict:
    n = len(seeds)
    out_claims = {}
    for name in claims[0]:
        holds = [s for s, c in zip(seeds, claims) if c[name]]
        lo, hi = clopper_pearson(len(holds), n)
        out_claims[name] = {"holds": len(holds), "n": n, "ci95": [round(lo, 4), round(hi, 4)], "seeds_holding": holds}
    regimes = {}
    for regime in values[0]:
        regimes[regime] = {q: quartiles([v[regime][q] for v in values]) for q in values[0][regime]}
    return {"seeds": seeds, "claims": out_claims, "regimes": regimes}


def _fmt(q: dict) -> str:
    if q["median"] is None:
        return "-"
    if q["q1"] is None:
        return f"{q['median']:.3f}"
    return f"{q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]"


def table(title: str, sweep: dict) -> list[str]:
    seeds = sweep["seeds"]
    lines = [f"### {title} (seeds {seeds[0]}-{seeds[-1]})", "", "| claim | holds | 95% CI |", "|---|---|---|"]
    for name, c in sweep["claims"].items():
        lines.append(f"| {name} | {c['holds']} of {c['n']} | {c['ci95'][0]:.2f}-{c['ci95'][1]:.2f} |")
    quantities = list(next(iter(sweep["regimes"].values())))
    lines += ["", "| regime | " + " | ".join(f"{q} median [q1, q3]" for q in quantities) + " |",
              "|---" * (len(quantities) + 1) + "|"]
    for regime, qs in sweep["regimes"].items():
        label = regime.replace("|", "/")  # a bare | would split the cell
        lines.append(f"| {label} | " + " | ".join(_fmt(qs[q]) for q in quantities) + " |")
    return lines + [""]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--input", type=Path, default=SAMPLE, help="student file (default: the bundled sample)")
    parser.add_argument("--seeds", type=int, default=20, help="case-study seeds 0..N-1")
    parser.add_argument("--json", type=Path, default=None, help="also write the full result here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    case = sweep_case_study(args.input, list(range(args.seeds)))
    loop = sweep_loop()
    doc = {"input": args.input.name, "fixed_seed": FIXED_SEED, "rounds": LOOP_ROUNDS, "case_study": case, "loop": loop}
    lines = []
    for kind, label in (("seed", "case study, one seed"), ("split", "case study, split seed"),
                        ("uplift", "case study, uplift seed")):
        lines += table(label, case[kind])
    lines += table(f"loop, {LOOP_ROUNDS} rounds", loop)
    print("\n".join(lines), end="")
    if args.json is not None:
        args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
