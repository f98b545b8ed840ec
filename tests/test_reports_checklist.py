import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equity_audit.cli  # noqa: F401  (imports every module a record class lives in)
from equity_audit.checklist import SECTIONS, emit_checklist
from equity_audit.config import RunConfig
from equity_audit.errors import ValidationError
from equity_audit.metrics import (
    EquityReport,
    EvaluationRecord,
    GapReport,
    ObstacleGap,
    eo_violation,
    model_access,
    utilization,
)
from equity_audit.core import ObstacleModel, Policy
from equity_audit.reports import Record, equity_report_rows, json_form, json_text, long_csv, write_json
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
        # None and NaN are empty cells; an int or a str is written by str()
        text = long_csv([("r", "m", "", None), ("r", "m", "", float("nan")), ("r", "m", 0, 3), ("r", "m", "", "x")])
        assert text.splitlines()[1:] == ["r,m,,", "r,m,,", "r,m,0,3", "r,m,,x"]

    def test_deterministic_bytes(self, tmp_path):
        report = sample_report()
        write_json(report.to_dict(), tmp_path / "a.json")
        write_json(report.to_dict(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# the report keys of every record class, in order: a change here is a
# change of report format
RECORD_KEYS = {
    "AccessReport": ("psi", "per_individual", "per_group"),
    "OutcomeReport": ("eo_violation", "tpr_by_group", "fpr_by_group", "equal_outcomes"),
    "UtilizationReport": ("zeta", "m", "true_positive_share", "false_positive_share", "per_group_fp_share"),
    "ObstacleGap": ("unmatched_affected_features", "alpha_l1_distance_on_matched"),
    "GapReport": ("gamma_x", "gamma_l", "obstacle_gap", "notes"),
    "EquityReport": ("access", "outcome", "utilization", "gaps", "score"),
    "IterationRecord": ("iter", "phase", "spec_id", "policy_id", "psi", "omega", "zeta", "accepted", "reason"),
    "ScoringTrace": ("records", "final_score", "terminated_reason"),
    "RegimeResult": (
        "name", "equal_access", "equal_outcome", "equal_utilization", "report",
        "admissibility_by_group", "tp_share", "fp_share", "fp_share_by_group", "degenerate",
    ),
}


# str keys with non-ASCII text, quotes, backslashes and control characters
JSON_KEYS = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7fé中😀\u2028') | st.characters(), max_size=6)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.sampled_from([-0.0, 1e-300, 5e-324, np.float64(-0.0)])
    | JSON_KEYS
)
# nested dicts, lists and tuples, empty ones included
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=5),
    max_leaves=40,
)


class TestJsonText:
    def test_sorted_keys_and_python_float_text(self):
        doc = {"b": [0.1, 1e-300, -0.0], "a": {"2": None, "10": True}}
        assert json_text(doc) == json.dumps(doc, sort_keys=True)
        assert json_text(doc, indent=2) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_number_is_a_validation_error(self, value):
        with pytest.raises(ValidationError, match="cannot write the report as JSON"):
            json_text({"gap": [0.5, value]})
        # indented, the message names the value, as json.dumps' indented encoder does
        message = f"cannot write the report as JSON: Out of range float values are not JSON compliant: {value!r}"
        for doc in ({"gap": [0.5, value]}, {"a": "x", "rates": {"by_group": [[1.0, value]]}}, {"a": {value: 1}}):
            with pytest.raises(ValidationError) as info:
                json_text(doc, indent=2)
            assert str(info.value) == message

    @pytest.mark.parametrize("doc", [{"a": [{1, 2}]}, {"a": {"b": [np.int64(3)]}}, {"a": {(1,): [1]}}])
    def test_an_unencodable_value_raises_what_json_dumps_raises(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(TypeError) as got:
            json_text(doc, indent=2)
        assert str(got.value) == str(expected.value)

    def test_a_cycle_is_a_validation_error(self):
        doc = {"a": [1]}
        doc["a"].append(doc)
        with pytest.raises(ValidationError, match="cannot write the report as JSON: Circular reference detected"):
            json_text(doc, indent=2)

    @pytest.mark.parametrize(
        "doc", [{2: [1], 10: {"a": []}}, {0.5: [1], -0.0: [[]], np.float64(2.5): (3,)}, {None: [1]}, {True: [1], False: [2]}]
    )
    def test_scalar_keys_are_written_as_json_dumps_writes_them(self, doc):
        assert json_text(doc, indent=2) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)

    @settings(max_examples=200, deadline=None)
    @given(doc=JSON_DOCS)
    def test_indented_text_is_what_json_dumps_writes(self, doc):
        for indent in (0, 1, 2, 4):
            assert json_text(doc, indent=indent) == json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)


class TestJsonForm:
    def test_keys_become_strings_and_tuples_lists(self):
        assert json_form({0: (1, 2.5), 1: [("a",)]}) == {"0": [1, 2.5], "1": [["a"]]}
        assert json.dumps(json_form({1: 0.5, 0: 0.25}), sort_keys=True) == '{"0": 0.25, "1": 0.5}'

    def test_scalars_and_none_are_unchanged(self):
        for value in (None, 0, -3, 1.5, float("inf"), "x", ""):
            assert json_form(value) is value
        assert json_form(True) is True and json_form(False) is False
        assert json_form((True, 0)) == [True, 0]
        assert [type(v) for v in json_form((True, 0))] == [bool, int]

    def test_other_values_are_returned_unconverted(self):
        # a numpy scalar or any other object is left as it is, for the JSON writer to write or refuse
        for value in (np.float64(1.5), np.int64(2), object()):
            assert json_form(value) is value
            assert json_form({1: [value]}) == {"1": [value]}

    def test_nested_records_and_none_convert(self):
        report = GapReport((0, 1), (0.5, -0.25), ObstacleGap(2, 0.75), ("note",))
        assert json_form(report) == {
            "gamma_x": [0, 1],
            "gamma_l": [0.5, -0.25],
            "obstacle_gap": {"unmatched_affected_features": 2, "alpha_l1_distance_on_matched": 0.75},
            "notes": ["note"],
        }
        assert json_form(GapReport((0,), (0.0,)))["obstacle_gap"] is None
        assert report.to_dict() == json_form(report)

    def test_equity_report_nests_its_parts(self):
        report = sample_report()
        doc = report.to_dict()
        assert doc["access"] == report.access.to_dict()
        assert doc["access"]["per_individual"] == list(report.access.per_individual)
        assert all(type(v) is bool for v in doc["access"]["per_individual"])
        assert set(doc["utilization"]["per_group_fp_share"]) == {"0", "1"}
        assert doc["gaps"] is None


def test_record_keys_are_pinned():
    """A renamed field fails here instead of silently renaming a report key."""
    classes = {cls.__name__: cls for cls in Record.__subclasses__()}
    assert set(classes) == set(RECORD_KEYS)
    for name, keys in RECORD_KEYS.items():
        assert tuple(f.name for f in fields(classes[name])) == keys, name
        assert "to_dict" not in vars(classes[name]), f"{name} writes its own report form"
