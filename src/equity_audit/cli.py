"""Command-line surface.

Subcommands:
    audit          odds-gap (and optional utilization) metrics on a CSV of
                   pred,label,group rows
    score          gated candidate search over model spaces declared in JSON
    casestudy      the student-admission audit over regime combinations
    simulate-loop  multi-round curation feedback simulation
    gaps           feature/label/obstacle gap between two model documents
    questions      the pre-deployment checklist

Exit codes: 0 success, 1 usage error, 2 data/validation error (an
unwritable output directory included), 3 degenerate-metric error (a rate
the data cannot define). The commands parse no input themselves:
:mod:`equity_audit.dataio` reads the data files and JSON documents, and
:class:`~equity_audit.config.RunConfig` the TOML config.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .checklist import emit_checklist
from .config import RunConfig
from .dataio import (
    build_case_study_views,
    load_audit_csv,
    load_model_document,
    load_spaces_document,
    load_uci_students,
    run_case_study,
)
from .errors import (
    DataFormatError,
    EquityAuditError,
    NoPositivesError,
    UndefinedRateError,
    ValidationError,
)
from .loopsim import REGIMES, default_config, run_inequity_loop, trajectory_to_csv
from .metrics import audit_reports, compute_gap_report
from .reports import equity_report_rows, long_csv, write_json
from .scoring import run_equity_scoring

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


@contextmanager
def _reports_dir(cfg: RunConfig):
    """The output directory, made if missing, for the reports written in the block.

    A directory that cannot be made or a report that cannot be written is a
    DataFormatError (exit 2) naming the path.
    """
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        path = exc.filename or out
        raise DataFormatError(f"cannot write reports to {path}: {exc.strerror or exc}") from None


def _cmd_audit(args, cfg: RunConfig) -> int:
    preds, labels, groups, y_tt = load_audit_csv(args.input)
    try:
        outcome, util = audit_reports(preds, labels, groups, y_tt, cfg.epsilon)
    except ValidationError as exc:  # a non-binary y_tt of an accepted row: name its file row
        if exc.row is None:
            raise
        accepted = np.flatnonzero(preds == 1)
        raise DataFormatError(str(exc), row=int(accepted[exc.row]) + 1, column="y_tt") from None
    doc = {"outcome": outcome.to_dict()}
    if util is not None:
        doc["utilization"] = util.to_dict()
    with _reports_dir(cfg) as out:
        text = write_json(doc, out / "audit.json")
    print(text)
    return 0


def _cmd_score(args, cfg: RunConfig) -> int:
    proxy, intended = load_spaces_document(args.spaces)
    trace = run_equity_scoring(proxy, intended, cfg, args.max_outer, args.max_inner)
    with _reports_dir(cfg) as out:
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
    result = run_case_study(cfg, build_case_study_views(load_uci_students(args.input), cfg))
    with _reports_dir(cfg) as out:
        # fitted models are saved in the document format the gaps command reads
        write_json(result.proxy_model.to_dict(), out / "proxy_model.json")
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
    with _reports_dir(cfg) as out:
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
    with _reports_dir(cfg) as out:
        text = write_json(doc, out / "gaps.json")
    print(text)
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
        # argparse admits no command but the five above and this one
        print(emit_checklist(), end="")
        return 0
    except (UndefinedRateError, NoPositivesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERATE_ERROR
    except EquityAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
