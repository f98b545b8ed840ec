import json
import re

import pytest

from equity_audit.checklist import SECTIONS, emit_checklist
from equity_audit.config import RunConfig
from equity_audit.errors import ValidationError
from equity_audit.metrics import (
    EquityReport,
    EvaluationRecord,
    eo_violation,
    model_access,
    utilization,
)
from equity_audit.core import ObstacleModel, Policy
from equity_audit.reports import equity_report_rows, long_csv, write_json
from test_metrics import population_with_obstacles


def sample_report() -> EquityReport:
    pop = population_with_obstacles([0, 2, 6, 0], groups=[0, 0, 1, 1])
    access = model_access(pop, ObstacleModel.from_alpha([1.0]), Policy(5.0))
    outcome = eo_violation([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1])
    util = utilization(
        [EvaluationRecord(f"r{i}", 1, t, i % 2) for i, t in enumerate([1, 1, 0, 1])]
    )
    return EquityReport.from_reports(access, outcome, util)


class TestChecklist:
    def test_exactly_21_numbered_questions(self):
        text = emit_checklist()
        numbered = re.findall(r"^\d+\) ", text, flags=re.MULTILINE)
        assert len(numbered) == 21

    def test_section_counts(self):
        counts = [len(questions) for _, questions in SECTIONS]
        assert counts == [9, 10, 2]

    def test_section_headers(self):
        text = emit_checklist()
        assert "Selection of the proxy model" in text
        assert "Selection of evaluation model" in text
        assert "Curation of ground truth" in text

    def test_byte_identical(self):
        assert emit_checklist() == emit_checklist()
        assert emit_checklist().encode() == emit_checklist().encode()


class TestEmitReport:
    """Report files as the commands write them, with ``write_json`` and ``long_csv``."""

    def test_json_round_trip(self, tmp_path):
        report = sample_report()
        write_json(report.to_dict(), tmp_path / "demo.json")
        parsed = json.loads((tmp_path / "demo.json").read_text())
        assert parsed == report.to_dict()
        assert parsed["access"]["psi"] == report.access.psi

    def test_csv_row_count_matches_cells(self, tmp_path):
        report = sample_report()
        rows = equity_report_rows("demo", report)
        # psi + per-group psi, omega + tpr/fpr per group, zeta + tp/fp
        # shares + per-group fp shares, score
        expected = (
            1 + len(report.access.per_group)
            + 1 + len(report.outcome.tpr_by_group) + len(report.outcome.fpr_by_group)
            + 3 + len(report.utilization.per_group_fp_share)
            + 1
        )
        assert len(rows) == expected
        lines = long_csv(rows).splitlines()
        assert lines[0] == "regime,metric,group,value"
        assert len(lines) == expected + 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="unknown report format 'xml'"):
            RunConfig(formats=("json", "xml"))

    def test_long_csv_formats_values(self):
        text = long_csv([("r", "psi", "", 0.75), ("r", "flag", "1", True)])
        lines = text.splitlines()
        assert lines[1] == "r,psi,,0.75"
        assert lines[2] == "r,flag,1,1"

    def test_deterministic_bytes(self, tmp_path):
        report = sample_report()
        write_json(report.to_dict(), tmp_path / "a.json")
        write_json(report.to_dict(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
