"""Command-line surface.

Subcommands:
    audit          odds-gap (and optional utilization) metrics on a CSV of
                   pred,label,group rows
    score          gated candidate search over model spaces declared in JSON
    casestudy      the student-admission audit over regime combinations
    simulate-loop  multi-round curation feedback simulation
    gaps           feature/label/obstacle gap between two model documents
    questions      the pre-deployment checklist

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 degenerate-metric error (a rate the data cannot define).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checklist import emit_checklist
from .config import RunConfig
from .core import ObstacleModel, Policy
from .dataio import (
    load_audit_csv,
    load_model_document,
    load_population_csv,
    run_case_study,
)
from .errors import (
    DataFormatError,
    EquityAuditError,
    NoPositivesError,
    UndefinedRateError,
    ValidationError,
)
from .inputs import read_json
from .learner import ModelSpec
from .loopsim import REGIMES, default_config, run_inequity_loop, trajectory_to_csv
from .metrics import compute_gap_report, eo_violation, utilization_from_labels
from .reports import equity_report_rows, long_csv, write_json
from .scoring import ModelSpace, ScoringConfig, run_equity_scoring

USAGE_ERROR = 1
DATA_ERROR = 2
DEGENERATE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="equity-audit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--config", type=str, default=None, help="TOML config file")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument(
        "--format", choices=("json", "csv"), default=None, help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="metrics on a pred/label/group CSV")
    p_audit.add_argument("input", help="comma-delimited CSV with pred,label,group[,y_tt]")

    p_score = sub.add_parser("score", help="gated search over declared model spaces")
    p_score.add_argument("spaces", help="JSON document declaring the two spaces")
    p_score.add_argument("--tau", type=float, default=None)
    p_score.add_argument("--tau-o", type=float, default=None)
    p_score.add_argument("--max-outer", type=int, default=100)
    p_score.add_argument("--max-inner", type=int, default=25)

    p_case = sub.add_parser("casestudy", help="student-admission regime audit")
    p_case.add_argument("input", help="semicolon-delimited student file")

    p_loop = sub.add_parser("simulate-loop", help="curation feedback simulation")
    p_loop.add_argument("--regime", choices=REGIMES, required=True)
    p_loop.add_argument("--rounds", type=int, default=10)

    p_gaps = sub.add_parser("gaps", help="proxy gaps between two model documents")
    p_gaps.add_argument("proxy_model", help="JSON model document (deployed model)")
    p_gaps.add_argument("intended_model", help="JSON model document (evaluation model)")

    sub.add_parser("questions", help="print the pre-deployment checklist")
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_toml(args.config) if args.config else RunConfig()
    return cfg.override(
        seed=args.seed,
        out_dir=args.out,
        formats=(args.format,) if args.format else None,
        tau=getattr(args, "tau", None),  # only `score` has the tau flags
        tau_o=getattr(args, "tau_o", None),
    )


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_audit(args, cfg: RunConfig) -> int:
    preds, labels, groups, y_tt = load_audit_csv(args.input)
    outcome = eo_violation(preds, labels, groups, cfg.epsilon)
    doc = {"outcome": outcome.to_dict()}
    if y_tt is not None:
        accepted = np.flatnonzero(preds == 1)
        try:
            util = utilization_from_labels(y_tt[accepted], groups[accepted])
        except ValidationError as exc:  # a non-binary y_tt: name its file row
            if exc.row is None:
                raise
            raise DataFormatError(str(exc), row=int(accepted[exc.row]) + 1, column="y_tt") from None
        doc["utilization"] = util.to_dict()
    out = _out_dir(cfg)
    write_json(doc, out / "audit.json")
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _is_number(value) -> bool:
    """A JSON number; a bool is no number, as in ``RunConfig``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_list_of(value, check) -> bool:
    return isinstance(value, list) and all(map(check, value))


def _policy_from_value(value, where: str) -> Policy:
    if value == "inf":
        return Policy(math.inf)
    if not _is_number(value):
        raise DataFormatError(f"{where}: policy delta must be a number or 'inf', got {value!r}")
    return Policy(float(value))


def _spec_from_doc(spec, where: str) -> ModelSpec:
    if not isinstance(spec, dict) or "features" not in spec:
        raise DataFormatError(f"{where} must be a JSON object with 'features'")
    if not _is_list_of(spec["features"], lambda f: isinstance(f, str)):
        raise DataFormatError(f"{where}: 'features' must be a list of feature names")
    function_class = spec.get("function_class", "logistic_regression")
    if not isinstance(function_class, str):
        raise DataFormatError(f"{where}: 'function_class' must be a string")
    hyperparams = spec.get("hyperparams", {})
    if not isinstance(hyperparams, dict) or not all(map(_is_number, hyperparams.values())):
        raise DataFormatError(f"{where}: 'hyperparams' must be an object of numbers")
    return ModelSpec(tuple(spec["features"]), function_class, dict(hyperparams))


def _space_from_doc(doc: dict, label: str, base: Path) -> ModelSpace:
    """Build one space from its document, its shape checked first.

    A relative ``dataset`` path is read from ``base``. Every fault in the
    document is a DataFormatError (exit 2).
    """
    if not isinstance(doc, dict):
        raise DataFormatError(f"{label} space must be a JSON object")
    for key in ("dataset", "alpha", "specs", "policies"):
        if key not in doc:
            raise DataFormatError(f"{label} space is missing {key!r}")
    if not isinstance(doc["dataset"], str):
        raise DataFormatError(f"{label} space: 'dataset' must be a path string")
    pop = load_population_csv(base / doc["dataset"])
    d = len(pop.feature_names)
    if not _is_list_of(doc["alpha"], _is_number) or len(doc["alpha"]) != d:
        raise DataFormatError(f"{label} space: 'alpha' must list one number per dataset feature ({d})")
    alpha = np.asarray(doc["alpha"], dtype=float)
    if "affected_features" in doc:
        affected = doc["affected_features"]
        if not _is_list_of(affected, lambda i: isinstance(i, int) and not isinstance(i, bool)):
            raise DataFormatError(f"{label} space: 'affected_features' must be a list of feature indices")
        om = ObstacleModel(alpha, frozenset(affected))
    else:
        om = ObstacleModel.from_alpha(alpha)
    if not isinstance(doc["specs"], list):
        raise DataFormatError(f"{label} space: 'specs' must be a list")
    specs = tuple(_spec_from_doc(spec, f"{label} space: spec {k}") for k, spec in enumerate(doc["specs"]))
    if not isinstance(doc["policies"], list):
        raise DataFormatError(f"{label} space: 'policies' must be a list")
    policies = tuple(_policy_from_value(v, f"{label} space") for v in doc["policies"])
    return ModelSpace(specs, pop, om, policies)


def _cmd_score(args, cfg: RunConfig) -> int:
    path = Path(args.spaces)
    doc = read_json(path)
    for key in ("proxy", "intended"):
        if key not in doc:
            raise DataFormatError(f"spaces document is missing {key!r}")
    scoring_cfg = ScoringConfig(
        tau=cfg.tau,
        tau_o=cfg.tau_o,
        max_outer_iters=args.max_outer,
        max_inner_iters=args.max_inner,
        epsilon_outcomes=cfg.epsilon,
        seed=cfg.seed,
        train_fraction=cfg.train_fraction,
    )
    trace = run_equity_scoring(
        _space_from_doc(doc["proxy"], "proxy", path.parent),
        _space_from_doc(doc["intended"], "intended", path.parent),
        scoring_cfg,
    )
    out = _out_dir(cfg)
    if "csv" in cfg.formats:
        (out / "scoring_trace.csv").write_text(trace.to_csv())
    if "json" in cfg.formats:
        write_json(trace.to_dict(), out / "scoring_trace.json")
    print(
        f"terminated: {trace.terminated_reason}; "
        f"score: {'-' if trace.final_score is None else repr(trace.final_score)}"
    )
    return 0


def _cmd_casestudy(args, cfg: RunConfig) -> int:
    cfg = cfg.override(input_path=args.input)
    result = run_case_study(cfg)
    out = _out_dir(cfg)
    # fitted models are saved in the document format the gaps command reads
    if result.proxy_model is not None:
        write_json(result.proxy_model.to_dict(), out / "proxy_model.json")
    if result.intended_model is not None:
        write_json(result.intended_model.to_dict(), out / "intended_model.json")
    if "json" in cfg.formats:
        write_json(result.to_dict(), out / "casestudy.json")
    if "csv" in cfg.formats:
        rows = []
        for regime in result.regimes:
            if regime.report is not None:
                rows.extend(equity_report_rows(regime.name, regime.report))
            for g, v in sorted(regime.admissibility_by_group.items()):
                rows.append((regime.name, "admission_rate", str(g), v))
            rows.append((regime.name, "tp_share", "", regime.tp_share))
            rows.append((regime.name, "fp_share", "", regime.fp_share))
        (out / "casestudy.csv").write_text(long_csv(rows))
    for regime in result.regimes:
        score = "-" if regime.report is None else f"{regime.report.score:.4f}"
        tp = "-" if regime.tp_share is None else f"{regime.tp_share:.3f}"
        print(f"{regime.name}: score={score} tp_share={tp}")
    return 0


def _cmd_simulate_loop(args, cfg: RunConfig) -> int:
    loop_cfg = default_config(seed=cfg.seed)
    trajectory, _ = run_inequity_loop(loop_cfg, args.rounds, args.regime)
    out = _out_dir(cfg)
    (out / f"trajectory_{args.regime}.csv").write_text(trajectory_to_csv(trajectory))
    last = trajectory.rounds[-1]
    print(
        f"{args.regime}: rounds={len(trajectory.rounds)} "
        f"mean_zeta={trajectory.mean_zeta():.4f} final_curated={last.curated_size}"
    )
    return 0


def _cmd_gaps(args, cfg: RunConfig) -> int:
    p_features, p_importance, p_om = load_model_document(args.proxy_model)
    t_features, t_importance, t_om = load_model_document(args.intended_model)
    report = compute_gap_report(
        p_features, t_features, p_importance, t_importance, p_om, t_om
    )
    doc = report.to_dict()
    out = _out_dir(cfg)
    write_json(doc, out / "gaps.json")
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        if args.command == "audit":
            return _cmd_audit(args, cfg)
        if args.command == "score":
            return _cmd_score(args, cfg)
        if args.command == "casestudy":
            return _cmd_casestudy(args, cfg)
        if args.command == "simulate-loop":
            return _cmd_simulate_loop(args, cfg)
        if args.command == "gaps":
            return _cmd_gaps(args, cfg)
        if args.command == "questions":
            print(emit_checklist(), end="")
            return 0
        parser.error(f"unknown command {args.command!r}")
    except (UndefinedRateError, NoPositivesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERATE_ERROR
    except (DataFormatError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except EquityAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
