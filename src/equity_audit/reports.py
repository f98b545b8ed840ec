"""Report emission: JSON documents and plot-ready long-format CSV.

Output is deterministic for a given input: keys are sorted, no timestamps
are embedded, and floats are written with ``repr`` so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .metrics import EquityReport

LONG_CSV_COLUMNS = ("regime", "metric", "group", "value")


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def equity_report_rows(regime: str, report: EquityReport) -> list[tuple]:
    """Flatten one report into (regime, metric, group, value) rows."""
    rows: list[tuple] = [
        (regime, "psi", "", report.access.psi),
    ]
    for g, v in sorted(report.access.per_group.items()):
        rows.append((regime, "psi", str(g), v))
    rows.append((regime, "eo_violation", "", report.outcome.eo_violation))
    for g, v in sorted(report.outcome.tpr_by_group.items()):
        rows.append((regime, "tpr", str(g), v))
    for g, v in sorted(report.outcome.fpr_by_group.items()):
        rows.append((regime, "fpr", str(g), v))
    rows.append((regime, "zeta", "", report.utilization.zeta))
    rows.append((regime, "true_positive_share", "", report.utilization.true_positive_share))
    rows.append((regime, "false_positive_share", "", report.utilization.false_positive_share))
    for g, v in sorted(report.utilization.per_group_fp_share.items()):
        rows.append((regime, "fp_share", str(g), v))
    rows.append((regime, "score", "", report.score))
    return rows


def long_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LONG_CSV_COLUMNS)
    for regime, metric, group, value in rows:
        writer.writerow([regime, metric, group, _fmt(value)])
    return buf.getvalue()


def write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

