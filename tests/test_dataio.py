import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equity_audit import dataio
from equity_audit.config import RunConfig, parse_toml_subset
from equity_audit.core import Population, dominates
from equity_audit.dataio import (
    INTENDED_AFFECTED,
    INTENDED_FEATURES,
    PROXY_AFFECTED,
    PROXY_FEATURES,
    StudentTable,
    build_case_study_views,
    derive_obstacle_flags,
    load_audit_csv,
    load_model_document,
    load_population_csv,
    load_uci_students,
    run_case_study,
)
from equity_audit.errors import DataFormatError, EquityAuditError, ValidationError

UCI_HEADER = (
    '"school";"sex";"age";"address";"famsize";"Pstatus";"Medu";"Fedu";"Mjob";"Fjob";'
    '"reason";"guardian";"traveltime";"studytime";"failures";"schoolsup";"famsup";'
    '"paid";"activities";"nursery";"higher";"internet";"romantic";"famrel";"freetime";'
    '"goout";"Dalc";"Walc";"health";"absences";"G1";"G2";"G3"'
)


def uci_row(**overrides) -> str:
    values = {
        "school": "GP", "sex": "F", "age": "17", "address": "U", "famsize": "GT3",
        "Pstatus": "T", "Medu": "2", "Fedu": "2", "Mjob": "other", "Fjob": "services",
        "reason": "course", "guardian": "mother", "traveltime": "1", "studytime": "2",
        "failures": "0", "schoolsup": "no", "famsup": "yes", "paid": "no",
        "activities": "yes", "nursery": "yes", "higher": "yes", "internet": "yes",
        "romantic": "no", "famrel": "4", "freetime": "3", "goout": "3", "Dalc": "1",
        "Walc": "2", "health": "4", "absences": "2", "G1": "11", "G2": "12", "G3": "12",
    }
    values.update(overrides)
    quoted = {
        "school", "sex", "address", "famsize", "Pstatus", "Mjob", "Fjob", "reason",
        "guardian", "schoolsup", "famsup", "paid", "activities", "nursery", "higher",
        "internet", "romantic",
    }
    return ";".join(
        f'"{values[c]}"' if c in quoted else values[c]
        for c in [h.strip('"') for h in UCI_HEADER.split(";")]
    )


class TestLoader:
    def test_row_count_matches_file(self, student_path):
        table = load_uci_students(student_path)
        with open(student_path) as fh:
            n_lines = sum(1 for line in fh if line.strip())
        assert len(table) == n_lines - 1

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(UCI_HEADER + "\n")
        table = load_uci_students(path)
        assert len(table) == 0

    def test_non_numeric_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(UCI_HEADER + "\n" + uci_row() + "\n" + uci_row(age="old") + "\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_uci_students(path)
        assert excinfo.value.row == 2
        assert excinfo.value.column == "age"

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "short.csv"
        header = UCI_HEADER.replace(';"health"', "")
        path.write_text(header + "\n")
        with pytest.raises(DataFormatError, match="health"):
            load_uci_students(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_uci_students(tmp_path / "nope.csv")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(UCI_HEADER + "\n" + uci_row() + ';"extra"\n')
        with pytest.raises(DataFormatError):
            load_uci_students(path)


class TestObstacleFlags:
    def _table(self, rows):
        columns = tuple(h.strip('"') for h in UCI_HEADER.split(";"))
        return StudentTable(columns=columns, rows=tuple(rows))

    def _row(self, paid, famrel, mjob, fjob, medu, fedu):
        return {
            "paid": paid, "famrel": famrel, "Mjob": mjob, "Fjob": fjob,
            "Medu": medu, "Fedu": fedu, "sex": "F",
        }

    def test_two_student_median_split(self):
        low = self._row("no", 1, "other", "other", 0, 1)   # sum 3
        high = self._row("yes", 4, "services", "other", 1, 0)  # sum 9
        flags = derive_obstacle_flags(self._table([low, high]))
        assert flags.tolist() == [True, False]

    def test_identical_students_flag_nobody(self):
        rows = [self._row("no", 3, "other", "other", 2, 2) for _ in range(5)]
        flags = derive_obstacle_flags(self._table(rows))
        assert not flags.any()

    def test_unknown_level_listed(self):
        rows = [self._row("no", 3, "astronaut", "other", 2, 2)]
        with pytest.raises(DataFormatError, match="astronaut"):
            derive_obstacle_flags(self._table(rows))

    def test_real_file_flag_rate_interior(self, student_path):
        flags = derive_obstacle_flags(load_uci_students(student_path))
        assert 0.0 < flags.mean() < 1.0


@pytest.fixture(scope="module")
def views(student_path):
    return build_case_study_views(load_uci_students(student_path), RunConfig(seed=7))


class TestViews:
    def test_unflagged_students_have_equal_views(self, views):
        for pop in (views.proxy, views.intended):
            for ind, flagged in zip(pop.individuals, views.obstacle_flags):
                if not flagged:
                    assert np.array_equal(ind.x, ind.z)

    def test_flagged_students_dominated(self, views):
        assert views.obstacle_flags.any()
        for pop in (views.proxy, views.intended):
            for ind, flagged in zip(pop.individuals, views.obstacle_flags):
                if flagged:
                    assert dominates(ind.z, ind.x)

    def test_view_alignment(self, views):
        assert views.proxy.ids() == views.intended.ids()
        assert np.array_equal(views.proxy.groups(), views.intended.groups())

    def test_uplift_respects_documented_ranges(self, views):
        z = views.proxy.z_matrix()
        for name in PROXY_AFFECTED:
            j = PROXY_FEATURES.index(name)
            assert z[:, j].max() <= 20.0
        zt = views.intended.z_matrix()
        bounds = {"health": 5.0, "study_time": 4.0, "school_absences": 0.0, "free_time": 5.0}
        for name in INTENDED_AFFECTED:
            j = INTENDED_FEATURES.index(name)
            assert zt[:, j].max() <= bounds[name]

    def test_obstacle_free_label_never_below_recorded(self, views):
        y = views.proxy.labels()
        y_free = views.proxy.labels_prime()
        assert np.all(y_free >= y)

    def test_deterministic(self, student_path, views):
        again = build_case_study_views(load_uci_students(student_path), RunConfig(seed=7))
        assert np.array_equal(again.proxy.z_matrix(), views.proxy.z_matrix())
        assert np.array_equal(again.intended.z_matrix(), views.intended.z_matrix())


@pytest.fixture(scope="module")
def result(student_path):
    return run_case_study(RunConfig(input_path=str(student_path), seed=7))


class TestRunCaseStudy:
    def test_all_eight_regimes(self, result):
        assert len(result.regimes) == 8
        assert len({r.name for r in result.regimes}) == 8

    def test_equal_access_raises_admissibility_for_both_groups(self, result):
        for eq_out in (True, False):
            for eq_util in (True, False):
                by_access = {r.equal_access: r for r in result.regimes
                             if r.equal_outcome == eq_out and r.equal_utilization == eq_util}
                for g in (0, 1):
                    assert (
                        by_access[True].admissibility_by_group[g]
                        > by_access[False].admissibility_by_group[g]
                    )

    def test_gap_report_includes_feature_and_obstacle_gaps(self, result):
        assert result.gaps.gamma_x == (0, 1, 1, 1, 1, 1, 1, 1, 1, 1)
        assert result.gaps.obstacle_gap.unmatched_affected_features == 4

    def test_tp_share_monotone_in_equalized_dimensions(self, tp_share_sweep):
        """At every seed of 0-19, equal utilization raises tp_share at each
        access/outcome setting and full equity is at least access-only.

        Access alone does not order tp_share: access-only >= fully unequal
        held at 7 of these seeds under the gradient-descent learner and 5
        under Newton (scripts/claim_sweep.py).
        """
        from equity_audit.dataio import regime_name

        for tp in tp_share_sweep:
            for access in (True, False):
                for outcome in (True, False):
                    assert tp[regime_name(access, outcome, True)] > tp[regime_name(access, outcome, False)]
            assert tp[regime_name(True, True, True)] >= tp[regime_name(True, False, False)]

    def test_regime_filter(self, student_path):
        cfg = RunConfig(
            input_path=str(student_path), seed=7, equal_access=True, equal_utilization=True
        )
        result = run_case_study(cfg)
        assert len(result.regimes) == 2
        assert all(r.equal_access and r.equal_utilization for r in result.regimes)


class TestAuxiliaryLoaders:
    def test_audit_csv(self, tmp_path):
        path = tmp_path / "audit.csv"
        path.write_text("pred,label,group,y_tt\n1,1,0,1\n0,1,1,0\n")
        preds, labels, groups, y_tt = load_audit_csv(path)
        assert preds.tolist() == [1, 0]
        assert y_tt.tolist() == [1, 0]

    def test_audit_csv_without_ytt(self, tmp_path):
        path = tmp_path / "audit.csv"
        path.write_text("pred,label,group\n1,1,0\n")
        _, _, _, y_tt = load_audit_csv(path)
        assert y_tt is None

    def test_audit_csv_bad_cell(self, tmp_path):
        path = tmp_path / "audit.csv"
        path.write_text("pred,label,group\nyes,1,0\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_audit_csv(path)
        assert excinfo.value.row == 1
        assert excinfo.value.column == "pred"

    def test_population_csv_round_trip(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(
            "id,group,y,y_prime,x_a,x_b,z_a,z_b\n"
            "u1,0,1,1,1.0,2.0,1.0,2.0\n"
            "u2,1,0,1,0.5,1.0,1.5,1.0\n"
        )
        pop = load_population_csv(path)
        assert pop.feature_names == ("a", "b")
        assert pop.ids() == ["u1", "u2"]
        assert pop.individuals[1].y_prime == 1

    @pytest.mark.parametrize("bad_cells", ["5,1,1.0,1.0", "1,1,nan,1.0"])
    def test_population_csv_names_the_bad_row(self, tmp_path, bad_cells):
        # columns after id,group: y,y_prime,x_a,z_a; data row 2 has y=5 or x_a=nan
        path = tmp_path / "pop.csv"
        path.write_text(
            "id,group,y,y_prime,x_a,z_a\n"
            "u1,0,1,1,1.0,1.0\n"
            f"u2,0,{bad_cells}\n"
            "u3,1,0,0,1.0,1.0\n"
        )
        with pytest.raises(DataFormatError) as excinfo:
            load_population_csv(path)
        assert excinfo.value.row == 2

    def test_population_csv_missing_z(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,group,y,y_prime,x_a\nu1,0,1,1,1.0\n")
        with pytest.raises(DataFormatError, match="z_a"):
            load_population_csv(path)

    def test_model_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"feature_names": ["a", "b"], "importance": [0.6, -0.4], '
            '"alpha": [1.0, 0.0]}'
        )
        features, importance, om = load_model_document(path)
        assert features == ["a", "b"]
        assert importance.tolist() == [0.6, -0.4]
        assert om is not None and om.affected_features == frozenset({0})


def _error_text(convert, cell) -> str:
    """The message Python's own ``int()``/``float()`` gives for a bad cell."""
    try:
        convert(cell)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{cell!r} converts")


def _raises(loader, path) -> DataFormatError:
    with pytest.raises(DataFormatError) as excinfo:
        loader(path)
    return excinfo.value


class TestAuditCsvContract:
    """How ``load_audit_csv`` reads a file, pinned cell by cell."""

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n\n1,1,0,1\n\n\n0,1,1,0\n\nx,0,0,0\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (3, "pred")
        path.write_text("pred,label,group,y_tt\n\n1,1,0,1\n\n\n0,1,1,0\n\n")
        preds, labels, groups, y_tt = load_audit_csv(path)
        assert (preds.tolist(), labels.tolist(), groups.tolist(), y_tt.tolist()) == (
            [1, 0], [1, 1], [0, 1], [1, 0]
        )

    def test_short_row_reads_none(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n1,1,0,1\n1,1\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (2, "group")
        assert str(err) == "expected an integer, got None (row 2, column 'group')"

    def test_short_row_missing_only_y_tt(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n1,1,0\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (1, "y_tt")

    def test_extra_cells_ignored(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group\n1,1,0,9,junk\n0,0,1,,\n")
        preds, labels, groups, y_tt = load_audit_csv(path)
        assert (preds.tolist(), labels.tolist(), groups.tolist(), y_tt) == ([1, 0], [1, 0], [0, 1], None)

    def test_duplicate_header_reads_last_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,pred\n0,1,0,1\nx,0,1,0\n")
        preds, _, _, _ = load_audit_csv(path)
        assert preds.tolist() == [1, 0]
        path.write_text("pred,label,group,pred\n0,1,0\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (1, "pred")
        assert "got None" in str(err)

    def test_python_int_syntax(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n 1,+1,0 ,1_0\n")
        preds, labels, groups, y_tt = load_audit_csv(path)
        assert (preds.tolist(), labels.tolist(), groups.tolist(), y_tt.tolist()) == ([1], [1], [0], [10])

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n")
        arrays = load_audit_csv(path)
        assert [a.tolist() for a in arrays] == [[], [], [], []]
        path.write_text("pred,label,group\n")
        assert load_audit_csv(path)[3] is None

    def test_empty_file_and_blank_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("")
        assert "empty" in str(_raises(load_audit_csv, path))
        path.write_text("\npred,label,group\n")
        assert "missing expected columns: pred, label, group" in str(_raises(load_audit_csv, path))

    def test_earlier_bad_row_wins_over_earlier_bad_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n1,1,0,1\n1,1,0,q\nz,1,0,1\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (2, "y_tt")
        assert str(err) == "expected an integer, got 'q' (row 2, column 'y_tt')"

    def test_columns_checked_in_order_within_a_row(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("y_tt,group,label,pred\nq,r,s,t\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (1, "pred")

    def test_long_file_values_and_row_numbers(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 20_011
        cols = rng.integers(0, 2, size=(n, 4))
        lines = ["pred,label,group,y_tt"]
        for k, row in enumerate(cols.tolist()):
            lines.append(",".join(map(str, row)))
            if k % 997 == 0:
                lines.append("")
        path = tmp_path / "a.csv"
        path.write_text("\n".join(lines) + "\n")
        arrays = load_audit_csv(path)
        assert [a.tolist() for a in arrays] == [cols[:, j].tolist() for j in range(4)]
        assert all(a.dtype.kind == "i" for a in arrays)
        lines[-1] = "1,1,,1"  # data row n: an empty group cell
        path.write_text("\n".join(lines) + "\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (n, "group")


class TestPopulationCsvContract:
    """How ``load_population_csv`` reads a file, pinned cell by cell."""

    HEADER = "id,group,y,y_prime,x_a,z_a"

    def _write(self, tmp_path, *rows, header=HEADER):
        path = tmp_path / "pop.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = self._write(tmp_path, "", "u1,0,1,1,1.0,1.0", "", "", "u2,1,0,0,x,1.0")
        err = _raises(load_population_csv, path)
        assert err.row == 2 and err.column is None
        assert str(err) == f"bad row: {_error_text(float, 'x')} (row 2)"
        path = self._write(tmp_path, "", "u1,0,1,1,1.0,1.0", "", "u2,1,0,0,2.0,2.5", "")
        pop = load_population_csv(path)
        assert pop.ids() == ["u1", "u2"]
        assert pop.z_matrix().tolist() == [[1.0], [2.5]]

    def test_short_row_reads_none(self, tmp_path):
        path = self._write(tmp_path, "u1,0,1,1,1.0,1.0", "u2,1,0,0,1.0")
        err = _raises(load_population_csv, path)
        assert str(err) == f"bad row: {_error_text(float, None)} (row 2)"

    def test_extra_cells_ignored(self, tmp_path):
        path = self._write(tmp_path, "u1,0,1,1,1.0,1.5,junk,9", "u2,1,0,0,2.0,2.0,")
        pop = load_population_csv(path)
        assert pop.x_matrix().tolist() == [[1.0], [2.0]]
        assert pop.z_matrix().tolist() == [[1.5], [2.0]]

    def test_duplicate_header_reads_last_column(self, tmp_path):
        path = self._write(tmp_path, "u1,0,5,1,1.0,1.0,1", header=self.HEADER + ",y")
        assert load_population_csv(path).labels().tolist() == [1]

    def test_python_number_syntax(self, tmp_path):
        path = self._write(tmp_path, "u1, 1,+1,1 , 1.5 ,1_5.0")
        pop = load_population_csv(path)
        assert pop.groups().tolist() == [1]
        assert pop.labels().tolist() == [1]
        assert (pop.x_matrix().tolist(), pop.z_matrix().tolist()) == ([[1.5]], [[15.0]])

    def test_header_only_file(self, tmp_path):
        pop = load_population_csv(self._write(tmp_path, header="id,group,y,y_prime,x_a,x_b,z_a,z_b"))
        assert len(pop) == 0
        assert pop.feature_names == ("a", "b")
        assert pop.x_matrix().shape == (0, 2)

    def test_earlier_bad_row_wins_over_earlier_bad_column(self, tmp_path):
        # row 1 fails at group (checked after x_a), row 2 at x_a
        path = self._write(tmp_path, "u1,g,1,1,1.0,1.0", "u2,0,1,1,bad,1.0")
        err = _raises(load_population_csv, path)
        assert str(err) == f"bad row: {_error_text(int, 'g')} (row 1)"

    def test_features_checked_before_labels_within_a_row(self, tmp_path):
        path = self._write(tmp_path, "u1,0,zz,1,1.0,qq")
        err = _raises(load_population_csv, path)
        assert str(err) == f"bad row: {_error_text(float, 'qq')} (row 1)"

    def test_unparseable_cell_wins_over_earlier_value_fault(self, tmp_path):
        path = self._write(tmp_path, "u1,0,5,1,1.0,1.0", "u2,0,1,1,1.0,1.0", "u3,0,1,1,abc,1.0")
        assert _raises(load_population_csv, path).row == 3

    def test_long_file_values_and_row_numbers(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 12_007
        lines = [self.HEADER]
        x = rng.uniform(0, 4, size=n).round(3).tolist()
        for k in range(n):
            lines.append(f"p{k},{k % 2},{k % 3 % 2},1,{x[k]!r},{x[k] + 1!r}")
            if k % 1009 == 0:
                lines.append("")
        path = tmp_path / "pop.csv"
        path.write_text("\n".join(lines) + "\n")
        pop = load_population_csv(path)
        assert pop.ids()[-1] == f"p{n - 1}"
        assert pop.x_matrix()[:, 0].tolist() == x
        lines[-1] = f"p{n - 1},0,1,1,1.0"  # data row n is short
        path.write_text("\n".join(lines) + "\n")
        assert _raises(load_population_csv, path).row == n


class TestUnreadableInput:
    """Undecodable bytes and oversized cells are format errors, never tracebacks."""

    def test_undecodable_byte(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"pred,label,group\n1,1,0\n1,\xff,0\n")
        assert "UTF-8" in str(_raises(load_audit_csv, path))
        path.write_bytes(b"id,group,y,y_prime,x_a,z_a\nu\xff,0,1,1,1.0,1.0\n")
        assert "UTF-8" in str(_raises(load_population_csv, path))
        path.write_bytes((UCI_HEADER + "\n").encode() + b"\xfe\xff\n")
        assert "UTF-8" in str(_raises(load_uci_students, path))

    def test_oversized_cell_names_the_row(self, tmp_path):
        huge = "1" * 200_000
        path = tmp_path / "a.csv"
        path.write_text(f"pred,label,group\n1,1,0\n\n0,1,{huge}\n")
        err = _raises(load_audit_csv, path)
        assert err.row == 2 and "field limit" in str(err)
        path.write_text(f"id,group,y,y_prime,x_a,z_a\nu1,0,1,1,1.0,{huge}\n")
        assert _raises(load_population_csv, path).row == 1
        path.write_text(UCI_HEADER + "\n" + uci_row() + "\n" + uci_row(G3=huge) + "\n")
        assert _raises(load_uci_students, path).row == 2

    def test_integer_beyond_int64_names_the_cell(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(f"pred,label,group\n1,1,0\n1,{2 ** 63},0\n")
        err = _raises(load_audit_csv, path)
        assert (err.row, err.column) == (2, "label")
        path.write_text(f"id,group,y,y_prime,x_a,z_a\nu1,0,1,{-(2 ** 70)},1.0,1.0\n")
        assert _raises(load_population_csv, path).row == 1


_CSV_ALPHABET = st.sampled_from(
    [b"0", b"1", b"2", b"-", b"+", b" ", b".", b"e", b"nan", b",", b"\n", b"\r", b'"', b"\xff", b"\x00", b"u", b"x_"]
)


def _fuzz_files(header: bytes):
    body = st.lists(_CSV_ALPHABET, max_size=60).map(b"".join)
    return st.one_of(st.binary(max_size=200), body.map(lambda b: header + b))


@pytest.mark.parametrize(
    "loader, header",
    [
        (load_audit_csv, b"pred,label,group,y_tt\n"),
        (load_population_csv, b"id,group,y,y_prime,x_a,z_a\n"),
    ],
)
def test_arbitrary_bytes_raise_only_package_errors(tmp_path_factory, loader, header):
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"

    @given(_fuzz_files(header))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(data):
        path.write_bytes(data)
        try:
            loader(path)
        except EquityAuditError:
            pass

    check()


def _float_columns(path):
    """The reader itself over float columns a, b and a str column id: NaN bits and all."""

    def plan(header):
        if not {"a", "b", "id"} <= set(header):
            raise DataFormatError("missing expected columns")
        return [("a", float), ("b", float), ("id", str)]

    return dataio._read_csv_columns(path, plan, dataio._row_fault)[1]


def _outcome(loader, path):
    """What ``loader`` makes of ``path``: its values (floats as bits), or its error."""
    try:
        result = loader(path)
    except EquityAuditError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    if isinstance(result, Population):
        result = [
            result.x_matrix(), result.z_matrix(), result.labels(), result.labels_prime(),
            result.groups(), result.ids(), result.feature_names,
        ]
    return [
        (c.dtype.str, c.shape, c.tobytes()) if isinstance(c, np.ndarray) else c for c in result
    ]


def _csv_path_only():
    return mock.patch.object(dataio, "_plain_columns", lambda block, cols: None)


# over-long cells are over a field size limit lowered to this while the fuzz runs
_FIELD_LIMIT = 40
_CELL_TOKENS = [
    "0", "1", "2", "7", ",", '"', "\r", "\n", " ", "_", ".", "e", "+", "-", "nan", "inf",
    "\x00", "\x1c", "\x1d", "\x1e", "\x1f", "١", "ᅰ", "1" * (_FIELD_LIMIT + 1),
]
_INT_CELLS = ["0", "1", "1", " 1", "+1", "007", "-0"]
_FLOAT_CELLS = _INT_CELLS + ["1.5", ".5", "1e400", "nan", "-nan", "-Infinity", "1_0", "3.25"]


def _wedge(cells: list, k: int, token: str, after: bool) -> list:
    """``cells`` with ``token`` put before or after cell ``k``."""
    cells = list(cells)
    cells[k] = cells[k] + token if after else token + cells[k]
    return cells


def _csv_texts(names: list[str], good: list[str]):
    """CSV-like text: a header from ``names`` (repeats allowed), then rows.

    A row is ``good`` cells, or such a row with a token of ``_CELL_TOKENS``
    wedged into one cell, or ``good`` cells one short of the header to one
    over it.
    """
    good_row = st.lists(st.sampled_from(good), min_size=len(names), max_size=len(names))
    wedged = st.builds(
        _wedge, good_row, st.integers(0, len(names) - 1), st.sampled_from(_CELL_TOKENS), st.booleans()
    )
    ragged = st.lists(st.sampled_from(good), min_size=len(names) - 1, max_size=len(names) + 1)
    row = st.one_of(good_row, wedged, ragged).map(",".join)
    line_end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\n\n"])
    header = st.one_of(
        st.just(names), st.just(names),
        st.lists(st.sampled_from(names + ["junk"]), max_size=len(names) + 2),
    ).map(",".join)
    return st.tuples(header, st.lists(st.tuples(row, line_end), max_size=12), st.booleans()).map(
        lambda t: t[0] + "\n" + "".join(r + e for r, e in t[1]) + ("\n" if t[2] else "")
    )


@pytest.mark.parametrize(
    "loader, names, good",
    [
        (load_audit_csv, ["pred", "label", "group", "y_tt"], _INT_CELLS),
        (load_population_csv, ["id", "group", "y", "y_prime", "x_a", "z_a"], _INT_CELLS),
        (_float_columns, ["a", "b", "id"], _FLOAT_CELLS),
    ],
)
def test_numpy_and_csv_paths_agree(tmp_path_factory, plain_blocks, loader, names, good):
    """Values, or the error with its message, row and column, do not depend on the path taken."""
    path = tmp_path_factory.mktemp("paths") / "input.csv"

    @given(_csv_texts(names, good), st.sampled_from([8, 40, 1 << 16]))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(text, block_chars):
        path.write_bytes(text.encode())
        with mock.patch.object(dataio, "_BLOCK_CHARS", block_chars):
            either = _outcome(loader, path)
            with _csv_path_only():
                assert either == _outcome(loader, path)

    old_limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        check()
    finally:
        csv.field_size_limit(old_limit)
    # the fuzz reaches both paths
    assert any(plain_blocks) and not all(plain_blocks)


class TestReadPaths:
    """Files read by numpy block by block give what the csv path gives."""

    def _lines(self, n):
        return [f"{k % 2},{k // 2 % 2},{k % 3 % 2},1" for k in range(n)]

    def test_late_fault_after_plain_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 24)  # three lines a block
        lines = self._lines(40)
        lines[33] = "1,1,0,x"
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n" + "\n".join(lines) + "\n")
        err = _raises(load_audit_csv, path)
        assert str(err) == "expected an integer, got 'x' (row 34, column 'y_tt')"
        lines[33] = "1,1,0,1"
        lines[20:20] = ["", ""]  # blank lines before the fault are not counted
        lines[35] = "1,1,0"
        path.write_text("pred,label,group,y_tt\n" + "\n".join(lines) + "\n")
        assert str(_raises(load_audit_csv, path)) == "expected an integer, got None (row 34, column 'y_tt')"

    def test_quoted_cell_spanning_a_block_end(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 24)
        lines = self._lines(20)
        lines[9] = '1,"1\n",0,1'  # int() strips the newline in the quoted cell
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n" + "\n".join(lines) + "\n")
        arrays = load_audit_csv(path)
        with _csv_path_only():
            assert [a.tolist() for a in arrays] == [a.tolist() for a in load_audit_csv(path)]
        assert len(arrays[0]) == 20 and arrays[1][9] == 1

    def test_cell_over_the_field_limit(self, tmp_path):
        # numpy would read this cell as 1.0; the csv module refuses it
        path = tmp_path / "a.csv"
        path.write_text("a,b,id\n1,2,u\n1." + "0" * 140_000 + ",2,v\n")
        with pytest.raises(DataFormatError, match="field larger than field limit") as excinfo:
            _float_columns(path)
        assert excinfo.value.row == 2

    @pytest.mark.parametrize("cell", ["\x1c1", "1\x1f", "ᅰ", "1_0", "١"])
    def test_cells_numpy_would_misread(self, tmp_path, cell):
        # numpy reads "\x1c1" as 1 and "ᅰ" as 4416; Python rejects both
        path = tmp_path / "a.csv"
        path.write_text(f"pred,label,group\n1,{cell},0\n", encoding="utf-8")
        with _csv_path_only():
            expected = _outcome(load_audit_csv, path)
        assert _outcome(load_audit_csv, path) == expected


class TestRunConfigToml:
    def test_parse_subset(self, tmp_path):
        text = (
            "# audit settings\n"
            'input_path = "students.csv"\n'
            "seed = 11\n"
            "tau_o = 0.2  # outcomes threshold\n"
            "[report]\n"
            'formats = ["json", "csv"]\n'
            "equal_access = true\n"
        )
        path = tmp_path / "run.toml"
        path.write_text(text)
        cfg = RunConfig.from_toml(path)
        assert cfg.input_path == "students.csv"
        assert cfg.seed == 11
        assert cfg.tau_o == 0.2
        assert cfg.formats == ("json", "csv")
        assert cfg.equal_access is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("mystery = 3\n")
        with pytest.raises(DataFormatError, match="mystery"):
            RunConfig.from_toml(path)

    def test_bad_value_line_numbered(self):
        with pytest.raises(DataFormatError, match="row 2"):
            parse_toml_subset("a = 1\nb = !!!\n")

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(tau=2.0)
        with pytest.raises(ValidationError):
            RunConfig(formats=("yaml",))

    @pytest.mark.parametrize(
        "line", ['tau = "abc"', "seed = 1.5", "seed = true", "equal_access = 1", 'formats = ["json", 2]']
    )
    def test_mistyped_value_is_a_format_error(self, tmp_path, line):
        path = tmp_path / "run.toml"
        path.write_text(line + "\n")
        with pytest.raises(DataFormatError, match=line.split()[0]):
            RunConfig.from_toml(path)

    def test_int_accepted_where_a_float_is_expected(self):
        assert RunConfig(tau=1, epsilon=0).tau == 1
        with pytest.raises(DataFormatError):
            RunConfig(tau=True)

    def test_override(self):
        cfg = RunConfig().override(seed=3, out_dir=None)
        assert cfg.seed == 3
        assert cfg.out_dir == RunConfig().out_dir
