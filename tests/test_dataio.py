import csv
import importlib.util
import json
import os
import re
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from equity_audit import csvio, dataio, learner
from equity_audit.config import RunConfig
from equity_audit.core import ObstacleModel, Policy, Population, dominates
from equity_audit.dataio import (
    INTENDED_AFFECTED,
    INTENDED_FEATURES,
    PROXY_AFFECTED,
    PROXY_FEATURES,
    CaseStudyViews,
    StudentTable,
    build_case_study_views,
    derive_obstacle_flags,
    load_audit_csv,
    load_model_document,
    load_population_csv,
    load_spaces_document,
    load_uci_students,
    run_case_study,
)
from equity_audit.errors import DataFormatError, EquityAuditError, ValidationError
from oracles import case_study_oracle

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
        # refused before any draw, whose np.std of an empty column would warn
        with pytest.raises(ValidationError, match="^case study needs at least 10 students$"):
            build_case_study_views(table, RunConfig())

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

    def test_file_without_activities_draws_extracurricular(self, student_path, tmp_path):
        lines = student_path.read_text().splitlines()
        drop = lines[0].split(";").index('"activities"')
        path = tmp_path / "no_activities.csv"
        path.write_text("".join(";".join(c for k, c in enumerate(line.split(";")) if k != drop) + "\n" for line in lines))
        table = load_uci_students(path)
        assert "activities" not in table.columns
        n, cfg = len(table), RunConfig(seed=5)
        drawn = build_case_study_views(table, cfg).proxy.x_matrix()[:, PROXY_FEATURES.index("extracurricular")]
        # a fair coin per student from the views' stream, after the essay draw
        rng = np.random.default_rng([cfg.seed, 7919])
        rng.uniform(0.0, 2.0, size=n)
        assert drawn.tolist() == (rng.random(n) < 0.5).astype(float).tolist()
        assert 0 < drawn.sum() < n


class TestObstacleFlags:
    def _table(self, rows):
        columns = tuple(rows[0])
        return StudentTable(columns=columns, data={c: [row[c] for row in rows] for c in columns})

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

    def test_an_empty_table_flags_nobody(self):
        columns = tuple(self._row("no", 3, "other", "other", 2, 2))
        flags = derive_obstacle_flags(StudentTable(columns=columns, data={c: [] for c in columns}))
        assert flags.dtype == bool and flags.shape == (0,)

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

    def test_median_is_np_median(self):
        # equal as numbers: -0.0 and 0.0 may trade places between a sort and numpy's partition
        rng = np.random.default_rng(2025)
        specials = np.array([0.0, -0.0, np.nan, 1.5, -2.0, 1e300])
        for k in range(4000):
            n = int(rng.integers(1, 60))
            if k % 2:
                v = rng.integers(-4, 5, size=n)
            else:
                v = np.concatenate([rng.choice(specials, size=n), rng.normal(size=int(rng.integers(0, 6)))])
                rng.shuffle(v)
            got, want = dataio._median(v), np.median(v)
            assert type(got) is type(want)
            assert got == want or (np.isnan(got) and np.isnan(want)), v


def write_students(path, rows):
    path.write_text(UCI_HEADER + "\n" + "\n".join(rows) + "\n")
    return path


def _view_fault(path) -> DataFormatError:
    return _raises(lambda p: build_case_study_views(load_uci_students(p), RunConfig()), path)


class TestStudentFileFaults:
    """Which fault a bad student file reports: the first in row order, and
    within a row the first in file column order. The level checks of the
    views run after the loader: the obstacle-flag columns (paid, Mjob,
    Fjob) in row order first, then sex, activities and romantic, one whole
    column at a time."""

    def test_blank_line_is_a_row_without_fields(self, tmp_path):
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", [uci_row(), "", uci_row()]))
        assert str(err) == "expected 33 fields, found 0 (row 2)"
        assert (err.row, err.column) == (2, None)

    def test_earlier_bad_cell_wins_over_later_ragged_row(self, tmp_path):
        rows = [uci_row() for _ in range(10)]
        rows[4] = uci_row(age="old")
        rows[7] = uci_row() + ';"extra"'
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", rows))
        assert str(err) == "expected an integer, got 'old' (row 5, column 'age')"
        rows[4] = uci_row()
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", rows))
        assert str(err) == "expected 33 fields, found 34 (row 8)"

    def test_file_column_order_within_a_row(self, tmp_path):
        rows = [uci_row(), uci_row(G1="x", absences="y", Medu="z")]
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (2, "Medu")
        assert "got 'z'" in str(err)

    def test_unreadable_row_named(self, tmp_path):
        huge = "1" * 200_000
        path = write_students(tmp_path / "s.csv", [uci_row(), uci_row(G3=huge), uci_row(age="old")])
        err = _raises(load_uci_students, path)
        assert err.row == 2 and err.column is None and "unreadable row" in str(err)
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", [uci_row(), uci_row(age="old"), uci_row(G3=huge)]))
        assert (err.row, err.column) == (2, "age")

    def test_integer_beyond_int64_names_the_cell(self, tmp_path):
        rows = [uci_row(), uci_row(G1=str(2**63), age="old"), uci_row(absences=str(-(2**63) - 1))]
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", rows))
        assert str(err) == "expected an integer, got 'old' (row 2, column 'age')"
        rows[1] = uci_row(G1=str(2**63))
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", rows))
        assert str(err) == f"integer out of range, got '{2**63}' (row 2, column 'G1')"
        rows[1] = uci_row(G1=str(2**63 - 1))
        err = _raises(load_uci_students, write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (3, "absences")

    def test_earlier_bad_cell_wins_over_later_undecodable_byte(self, tmp_path):
        rows = [uci_row() for _ in range(300)]
        rows[1] = uci_row(age="old")
        path = tmp_path / "s.csv"
        path.write_bytes((UCI_HEADER + "\n" + "\n".join(rows) + "\n").encode() + b"\xff\n")
        err = _raises(load_uci_students, path)
        assert (err.row, err.column) == (2, "age")
        rows[1] = uci_row()
        path.write_bytes((UCI_HEADER + "\n" + "\n".join(rows) + "\n").encode() + b"\xff\n")
        assert "UTF-8" in str(_raises(load_uci_students, path))

    def test_spaced_and_quoted_cells_accepted(self, tmp_path):
        table = load_uci_students(write_students(tmp_path / "s.csv", [uci_row(age=' "18" ', sex=" M ")]))
        assert list(table.column("age")) == [18]
        assert list(table.column("sex")) == ["M"]

    def test_flag_stage_fault_wins_over_earlier_view_stage_fault(self, tmp_path):
        rows = [uci_row(sex="F" if i % 2 else "M") for i in range(12)]
        rows[6] = uci_row(sex="X")
        rows[9] = uci_row(paid="maybe")
        err = _view_fault(write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (10, "paid")
        assert "'maybe'" in str(err)

    def test_flag_columns_checked_in_row_order(self, tmp_path):
        rows = [uci_row() for _ in range(6)]
        rows[2] = uci_row(Fjob="astronaut")
        rows[3] = uci_row(paid="maybe")
        err = _view_fault(write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (3, "Fjob")
        rows[2] = uci_row(paid="maybe", Mjob="astronaut")
        err = _view_fault(write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (3, "paid")

    def test_view_columns_checked_one_column_at_a_time(self, tmp_path):
        rows = [uci_row() for _ in range(10)]
        rows[1] = uci_row(activities="often", romantic="maybe")
        rows[8] = uci_row(sex="X")
        err = _view_fault(write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (9, "sex")
        rows[8] = uci_row(activities="never")
        err = _view_fault(write_students(tmp_path / "s.csv", rows))
        assert (err.row, err.column) == (2, "activities")

    @pytest.mark.parametrize(
        "column, expected", [("sex", "expected 'F' or 'M'"), ("activities", "expected 'yes' or 'no'"),
                             ("romantic", "expected 'yes' or 'no'")]
    )
    def test_unknown_view_level_names_row_and_column(self, tmp_path, column, expected):
        rows = [uci_row() for _ in range(5)]
        rows[2] = uci_row(**{column: "other"})
        err = _view_fault(write_students(tmp_path / "s.csv", rows))
        assert str(err) == f"unknown level 'other'; {expected} (row 3, column {column!r})"


@pytest.fixture(scope="module")
def views(student_path):
    return build_case_study_views(load_uci_students(student_path), RunConfig(seed=7))


class TestViews:
    def test_unflagged_students_have_equal_views(self, views):
        for pop in (views.proxy, views.intended):
            unflagged = ~views.obstacle_flags
            assert np.array_equal(pop.x_matrix()[unflagged], pop.z_matrix()[unflagged])

    def test_flagged_students_dominated(self, views):
        assert views.obstacle_flags.any()
        for pop in (views.proxy, views.intended):
            for z, x in zip(pop.z_matrix()[views.obstacle_flags], pop.x_matrix()[views.obstacle_flags]):
                assert dominates(z, x)

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
    cfg = RunConfig(seed=7)
    return run_case_study(cfg, build_case_study_views(load_uci_students(student_path), cfg))


class TestRunCaseStudy:
    def test_all_eight_regimes(self, result):
        assert len(result.regimes) == 8
        assert len({r.name for r in result.regimes}) == 8
        assert all(result.regime(r.name) is r for r in result.regimes)
        with pytest.raises(KeyError, match="sideways"):
            result.regime("sideways")

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

    def test_each_access_setting_scores_the_students_once(self, student_path, monkeypatch):
        """The decision model scores every student once per access setting;
        the threshold search ranks its pairs on the train rows' share of
        those scores, and each deployment cuts them."""
        calls = []
        real = learner.predict_proba

        def spy(model, features):
            calls.append((model, sys._getframe(1).f_code.co_name))
            return real(model, features)

        monkeypatch.setattr(learner, "predict_proba", spy)
        monkeypatch.setattr(dataio, "predict_proba", spy)
        cfg = RunConfig(seed=7)
        result = run_case_study(cfg, build_case_study_views(load_uci_students(student_path), cfg))
        assert len(result.regimes) == 8
        assert not hasattr(dataio, "predict_with_group_thresholds")
        # a call through predict, predict_with_group_thresholds or the
        # threshold search would name them
        callers = [caller for model, caller in calls if model is result.proxy_model]
        assert callers == ["run_case_study"] * 2

    def test_regime_filter(self, student_path):
        cfg = RunConfig(seed=7, equal_access=True, equal_utilization=True)
        result = run_case_study(cfg, build_case_study_views(load_uci_students(student_path), cfg))
        assert len(result.regimes) == 2
        assert all(r.equal_access and r.equal_utilization for r in result.regimes)


SETTINGS = [None, True, False]
ALL_FILTERS = [
    {"equal_access": a, "equal_outcome": o, "equal_utilization": u}
    for a in SETTINGS for o in SETTINGS for u in SETTINGS
]


def _student_sample_module():
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_student_sample.py"
    spec = importlib.util.spec_from_file_location("make_student_sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_matches_oracle(cfg, views):
    result, expected = run_case_study(cfg, views), case_study_oracle(cfg, views)
    assert result.to_dict() == expected.to_dict()
    assert result.proxy_model.to_dict() == expected.proxy_model.to_dict()
    assert result.intended_model.to_dict() == expected.intended_model.to_dict()
    return result


def _hand_views(y, y_prime, grp, flags, seed=0) -> CaseStudyViews:
    """Views of random features whose flagged rows carry one unit of uplift on an affected column."""
    rng = np.random.default_rng(seed)
    n = len(y)
    ids = [f"h{i}" for i in range(n)]

    def view(names, affected):
        x = rng.normal(size=(n, len(names)))
        z = x.copy()
        z[flags, names.index(affected[0])] += 1.0
        alpha = np.array([1.0 if f in affected else 0.0 for f in names])
        return Population(x, z, y, y_prime, grp, ids, names), ObstacleModel.from_alpha(alpha)

    proxy, om_proxy = view(PROXY_FEATURES, PROXY_AFFECTED)
    intended, om_intended = view(INTENDED_FEATURES, INTENDED_AFFECTED)
    return CaseStudyViews(proxy, intended, np.asarray(flags), om_proxy, om_intended)


def _degenerate_views() -> dict[str, CaseStudyViews]:
    n = 60
    grp = np.arange(n) % 2
    flags = np.arange(n) % 3 == 0
    mixed = (np.arange(n) // 2) % 2
    # group 1 is all positive once obstacles are gone, but its flagged
    # members received negatives: equal access leaves the threshold search
    # one class short for group 1, and the audit has no group-1 negatives
    y_prime = np.where(grp == 1, 1, mixed)
    y = np.where((grp == 1) & flags, 0, y_prime)
    # about one positive in seven on uninformative features: the plain
    # model admits nobody
    rare = (np.arange(n) % 7 == 3).astype(int)
    return {
        "one-class group": _hand_views(y, y_prime, grp, flags),
        "rare positives": _hand_views(rare, rare, grp, flags, seed=1),
    }


class TestCaseStudyAgainstOracle:
    """The case study equals its per-regime loop (tests/oracles.py) under
    every regime filter, degenerate regimes included."""

    @pytest.mark.parametrize("filters", ALL_FILTERS, ids=lambda f: "-".join(map(str, f.values())))
    def test_bundled_sample(self, student_path, result, filters):
        cfg = RunConfig(seed=7, **filters)
        regimes = _assert_matches_oracle(cfg, build_case_study_views(load_uci_students(student_path), cfg)).regimes
        # a filter selects regimes of the full run and changes none of them
        assert [r.to_dict() for r in regimes] == [result.regime(r.name).to_dict() for r in regimes]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_generated_files(self, tmp_path, seed):
        module = _student_sample_module()
        path = tmp_path / "students.csv"
        module.write_csv(module.generate(seed=seed, n=150), path)
        views = build_case_study_views(load_uci_students(path), RunConfig(seed=seed))
        for filters in ALL_FILTERS:
            _assert_matches_oracle(RunConfig(seed=seed, **filters), views)

    def test_degenerate_regimes(self):
        raised = set()
        for views in _degenerate_views().values():
            for seed in (0, 1):
                for filters in ALL_FILTERS:
                    for r in _assert_matches_oracle(RunConfig(seed=seed, **filters), views).regimes:
                        raised |= {m.split(":")[0] for m in r.degenerate}
                        if any(m.startswith(("omega", "no admitted")) for m in r.degenerate):
                            assert r.report is None
        assert raised == {
            "omega undefined", "no admitted students to evaluate", "outcome equalization skipped",
        }

    def test_each_degenerate_reason_is_recorded_once(self):
        # omega's definedness rests on the held-out labels and groups alone,
        # so the threshold walk and the untuned cut may not both record it
        for name, views in _degenerate_views().items():
            for seed in (0, 1):
                for filters in ALL_FILTERS:
                    for r in run_case_study(RunConfig(seed=seed, **filters), views).regimes:
                        assert len(set(r.degenerate)) == len(r.degenerate), (name, seed, r.name, r.degenerate)


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
        assert pop.labels_prime().tolist() == [1, 1]
        assert pop.z_matrix()[1].tolist() == [1.5, 1.0]

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
        # every missing column is named: each z_<f>, then id, group, y, y_prime
        path.write_text("group,y,y_prime,x_a\n0,1,1,1.0\n")
        assert str(_raises(load_population_csv, path)) == "missing expected columns: z_a, id"

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

    def test_population_csv_without_feature_columns(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,group,y,y_prime\nu1,0,1,1\n")
        assert str(_raises(load_population_csv, path)) == "no x_<feature> columns found"

    def test_model_document_needs_feature_names_and_importance(self, tmp_path):
        path = tmp_path / "model.json"
        for doc in ('{"feature_names": ["a"]}', '{"importance": [1.0]}'):
            path.write_text(doc)
            assert str(_raises(load_model_document, path)) == f"{path} must contain feature_names and importance"

    def test_spaces_document(self, tmp_path):
        (tmp_path / "pop.csv").write_text("id,group,y,y_prime,x_a,x_b,z_a,z_b\nu1,0,1,1,1.0,2.0,1.5,2.0\n")
        space = {"dataset": "pop.csv", "alpha": [1.0, 0.0], "specs": [{"features": ["a"]}], "policies": [0, 2.5, "inf"]}
        path = tmp_path / "spaces.json"
        path.write_text(json.dumps({"proxy": space, "intended": space | {
            "alpha": [1.0, 2.0], "affected_features": [0, 1],
            "specs": [{"features": ["b", "a"], "function_class": "norm_threshold", "hyperparams": {"threshold": 1}}],
        }}))
        proxy, intended = load_spaces_document(path)
        assert proxy.dataset.ids() == intended.dataset.ids() == ["u1"]
        assert proxy.candidate_specs == (learner.ModelSpec(("a",)),)
        assert proxy.candidate_policies == (Policy(0.0), Policy(2.5), Policy(float("inf")))
        assert proxy.obstacle_model.affected_features == frozenset({0})
        assert intended.candidate_specs == (learner.ModelSpec(("b", "a"), "norm_threshold", {"threshold": 1}),)
        assert intended.obstacle_model.affected_features == frozenset({0, 1})
        assert intended.obstacle_model.alpha.tolist() == [1.0, 2.0]
        path.write_text(json.dumps({"proxy": space}))
        assert str(_raises(load_spaces_document, path)) == "spaces document is missing 'intended'"


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

    def test_csv_path_holds_no_spare_buffer(self, tmp_path):
        # one quoted cell sends the body to the csv module, whose column
        # buffers grow by doubling: 20,000 rows fill 32,768-row buffers
        import tracemalloc

        rows = 20_000
        path = tmp_path / "a.csv"
        path.write_text('pred,label,group,y_tt\n"1",0,1,1\n' + "0,1,0,1\n" * (rows - 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            columns = load_audit_csv(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [c.tolist() for c in columns] == [[1] + [0] * (rows - 1), [0] + [1] * (rows - 1),
                                                  [1] + [0] * (rows - 1), [1] * rows]
        assert held <= 1.1 * sum(c.nbytes for c in columns)

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

    def test_short_row_missing_only_its_text_cell(self, tmp_path):
        # numpy turns the short row down; the csv path refuses it as it refuses
        # a row missing a number cell, not reading the missing id as the text 'None'
        path = self._write(tmp_path, "1.0,1.0,0,1,1,u1", "2.0,2.0,1,0,0", header="x_a,z_a,group,y,y_prime,id")
        err = _raises(load_population_csv, path)
        assert (err.row, err.column) == (2, None)
        assert str(err) == "bad row: no 'id' cell (row 2)"

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

    def test_bad_cell_wins_over_an_undecodable_byte_in_a_later_row(self, tmp_path):
        # the whole small file is read in one chunk before row 1 is checked
        path = tmp_path / "a.csv"
        path.write_bytes(b"pred,label,group\n1,x,0\n1,1\xff,1\n")
        assert str(_raises(load_audit_csv, path)) == "expected an integer, got 'x' (row 1, column 'label')"
        path.write_bytes(b"id,group,y,y_prime,x_a,z_a\nu1,0,1,1,1.0,oops\nu\xff,0,1,1,1.0,1.0\n")
        assert _raises(load_population_csv, path).row == 1
        path.write_bytes(b"pred,label,group\r1,x,0\r1,1\xff,1\r")  # lines end at \r alone too
        assert _raises(load_audit_csv, path).column == "label"

    def test_student_bad_cell_wins_over_an_undecodable_byte_in_a_later_row(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = (UCI_HEADER + "\n" + uci_row(age="old") + "\n" + uci_row(school="G#") + "\n").encode()
        path.write_bytes(rows.replace(b"G#", b"G\xff"))
        assert str(_raises(load_uci_students, path)) == "expected an integer, got 'old' (row 1, column 'age')"

    def test_a_row_cut_by_the_undecodable_line_is_not_checked(self, tmp_path):
        # row 2's quoted cell runs on into the bad line: only row 1 is complete before it
        path = tmp_path / "a.csv"
        path.write_bytes(b'pred,label,group\n1,1,0\n"1\n\xff",1,1\n')
        assert "UTF-8" in str(_raises(load_audit_csv, path))
        path.write_bytes(b"pred,label\xff,group\n1,x,0\n")
        assert "UTF-8" in str(_raises(load_audit_csv, path))

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

    def test_oversized_header_cell_is_an_unreadable_header(self, tmp_path):
        huge = "h" * 200_000
        path = tmp_path / "a.csv"
        for loader, header, row in [
            (load_audit_csv, f"pred,label,group,{huge}", "1,1,0"),
            (load_population_csv, f"id,group,y,y_prime,x_a,z_a,{huge}", "u1,0,1,1,1.0,1.0"),
            (load_uci_students, f'{UCI_HEADER};"{huge}"', uci_row()),
        ]:
            path.write_text(f"{header}\n{row}\n")
            err = _raises(loader, path)
            assert str(err).startswith("unreadable header row: field larger than field limit")
            assert err.row is None

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


# TOML and JSON pieces, bytes that do not decode, a BOM, an integer over
# Python's 4300-digit conversion limit and nesting deeper than the recursion limit
_DOCUMENT_ALPHABET = st.sampled_from(
    [
        b"{", b"}", b"[", b"]", b'"', b"'", b":", b",", b"=", b"#", b"\n", b"\r", b" ", b"1", b"-", b".",
        b"e", b"inf", b"nan", b"NaN", b"Infinity", b"true", b"null", b'"feature_names"', b'"importance"',
        b'"alpha"', b'"affected_features"', b'"a"', b"seed", b"epsilon", b"formats", b"[report]",
        b"\xff", b"\x00", b"\x1e", b"\xef\xbb\xbf", b"\xc3\xa9", b"9" * 5000, b"[" * 3000,
    ]
)
_DOCUMENT_BYTES = st.one_of(st.binary(max_size=200), st.lists(_DOCUMENT_ALPHABET, max_size=30).map(b"".join))


@pytest.mark.parametrize("reader", [RunConfig.from_toml, load_model_document])
def test_arbitrary_bytes_in_documents_raise_only_package_errors(tmp_path_factory, reader):
    path = tmp_path_factory.mktemp("fuzz") / "document"

    @given(_DOCUMENT_BYTES)
    @example(b'{"feature_names": ["a"], "importance": [' + b"9" * 5000 + b"]}")
    @example(b"[" * 3000)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(data):
        path.write_bytes(data)
        try:
            reader(path)
        except EquityAuditError:
            pass

    check()


def _float_columns(path):
    """The reader itself over float columns a, b and a str column id: NaN bits and all."""

    def plan(header):
        if not {"a", "b", "id"} <= set(header):
            raise DataFormatError("missing expected columns")
        return [("a", float), ("b", float), ("id", str)]

    return csvio._read_csv_columns(path, plan, dataio._row_fault)[1]


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
    """Every body to the csv path: no chunk read by the integer kernel or by numpy."""
    return mock.patch.object(csvio, "_fast_columns", lambda chunk, width, cols: None)


def _through_fifo(loader, fifo, data: bytes):
    """``_outcome`` of ``loader`` on ``data`` fed through the named pipe ``fifo``."""

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at a fault before the end
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return _outcome(loader, fifo)
    finally:
        # release a writer still waiting for a reader, then wait for it
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


def _three_ways(loader, path: Path, fifo: Path) -> list:
    """``_outcome`` of ``loader`` on the bytes of ``path``: as a regular file, through a pipe, by the csv path only."""
    as_file = _outcome(loader, path)
    through_pipe = _through_fifo(loader, fifo, path.read_bytes())
    with _csv_path_only():
        csv_only = _outcome(loader, path)
    return [as_file, through_pipe, csv_only]


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


# over-long cells are over a field size limit lowered to this while the fuzz runs
_FIELD_LIMIT = 40
_CELL_TOKENS = [
    "0", "1", "2", "7", ",", '"', "\r", "\n", " ", "_", ".", "e", "+", "-", "nan", "inf",
    "\x00", "\x1c", "\x1d", "\x1e", "\x1f", "\x0b", "\x0c", "\t", "\u2028", "١", "ᅰ", "1" * (_FIELD_LIMIT + 1),
]
_INT_CELLS = ["0", "1", "1", " 1", "+1", "007", "-0"]
# cells of the integer kernel's grammar, -?[0-9]{1,18}, and cells at its edges and at int64's
_KERNEL_CELLS = ["0", "1", "1", "007", "-0", "9" * 18, "-" + "9" * 18]
_EDGE_INT_CELLS = [
    "-", "--1", "1-2", "1" * 19, "9223372036854775807", "-9223372036854775807",
    "-9223372036854775808", "9223372036854775808",
]
_FLOAT_CELLS = _INT_CELLS + ["1.5", ".5", "1e400", "nan", "-nan", "-Infinity", "1_0", "3.25"]


def _wedge(cells: list, k: int, token: str, after: bool) -> list:
    """``cells`` with ``token`` put before or after cell ``k``."""
    cells = list(cells)
    cells[k] = cells[k] + token if after else token + cells[k]
    return cells


def _csv_texts(names: list[str], good: list[str]):
    """CSV-like text: a header from ``names`` (repeats allowed), then rows.

    A body is rows of one of two kinds, each row ending in its line end:

    - mixed rows: ``good`` cells, or such a row with a token of
      ``_CELL_TOKENS`` wedged into one cell, or ``good`` cells one short
      of the header to one over it;
    - rows of ``_KERNEL_CELLS`` ending in ``\n``, which the integer kernel
      reads, one cell perhaps swapped for one of ``_EDGE_INT_CELLS``.

    The last row ends with its line end, with an extra newline, or with no
    line end at all.
    """
    width = len(names)
    good_row = st.lists(st.sampled_from(good), min_size=width, max_size=width)
    wedged = st.builds(_wedge, good_row, st.integers(0, width - 1), st.sampled_from(_CELL_TOKENS), st.booleans())
    ragged = st.lists(st.sampled_from(good), min_size=width - 1, max_size=width + 1)
    row = st.one_of(good_row, wedged, ragged).map(",".join)
    line_end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\n\n"])
    kernel_rows = st.lists(
        st.lists(st.sampled_from(_KERNEL_CELLS), min_size=width, max_size=width), min_size=1, max_size=12
    )
    kernel_body = st.builds(
        _swap_cell, kernel_rows, st.integers(0, 11), st.integers(0, width - 1),
        st.one_of(st.none(), st.sampled_from(_EDGE_INT_CELLS)),
    )
    header = st.one_of(
        st.just(names), st.just(names),
        st.lists(st.sampled_from(names + ["junk"]), max_size=width + 2),
    ).map(",".join)
    return st.builds(
        _csv_text, header, st.one_of(st.lists(st.tuples(row, line_end), max_size=12), kernel_body),
        st.sampled_from(["line end", "extra newline", "no line end"]),
    )


def _swap_cell(rows: list, r: int, c: int, cell) -> list:
    """``rows`` as (text, ``\n``) pairs, with ``cell`` put at row ``r`` (wrapped) and column ``c`` unless None."""
    if cell is not None:
        rows[r % len(rows)][c] = cell
    return [(",".join(row), "\n") for row in rows]


def _csv_text(header: str, rows: list, last: str) -> str:
    body = "".join(row + line_end for row, line_end in rows)
    if last == "no line end" and rows:
        body = body[: -len(rows[-1][1])]
    return header + "\n" + body + ("\n" if last == "extra newline" else "")


@pytest.mark.parametrize(
    "loader, names, good",
    [
        (load_audit_csv, ["pred", "label", "group", "y_tt"], _INT_CELLS + _EDGE_INT_CELLS),
        (load_population_csv, ["id", "group", "y", "y_prime", "x_a", "z_a"], _INT_CELLS),
        (_float_columns, ["a", "b", "id"], _FLOAT_CELLS),
    ],
)
@needs_fifo
def test_numpy_and_csv_paths_agree(tmp_path_factory, plain_blocks, loader, names, good):
    """Values, or the error with its message, row and column, do not depend on the path taken.

    The same text is read as a regular file and through a pipe, chunk by
    chunk down the ladder of fast readers (for the all-integer audit plan
    the byte grid and the separator scan, then numpy for every plan), with
    the csv path from the first chunk they all turn down; and it is read by
    the csv path alone.
    """
    folder = tmp_path_factory.mktemp("paths")
    path, fifo = folder / "input.csv", folder / "input.fifo"
    os.mkfifo(fifo)

    # a line that starts with "\x0c": str.splitlines would break it there and drop the \x0c from an id
    zeros, ones = (",".join(cell for _ in names) + "\n" for cell in "01")
    # one line a chunk: a fast reader takes the first and turns down the
    # quoted one, so the csv path resumes (the fuzz alone may miss this)
    quoted = '"0"' + zeros[1:]

    @given(_csv_texts(names, good), st.sampled_from([8, 40, 1 << 16]), st.sampled_from([1, 30, 1 << 22]))
    @example(",".join(names) + "\n" + zeros + ones + "\x0c" + zeros, 1 << 16, 1 << 22)
    @example(",".join(names) + "\n" + zeros + quoted + ones, 1 << 16, 1)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(text, block_chars, kernel_chars):
        path.write_bytes(text.encode())
        with mock.patch.multiple(csvio, _BLOCK_CHARS=block_chars, _KERNEL_CHARS=kernel_chars):
            as_file, through_pipe, csv_only = _three_ways(loader, path, fifo)
        assert as_file == through_pipe == csv_only

    old_limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        check()
    finally:
        csv.field_size_limit(old_limit)
    # the fuzz reaches each reader, and a resume on the csv path after each fast reader
    fast = ["ints", "numpy"] if loader is load_audit_csv else ["numpy"]
    assert {*fast, "csv", *(f"{reader}+csv" for reader in fast)} <= set(plain_blocks)


class TestReadPaths:
    """Bodies the fast readers take or turn down give what the csv path gives."""

    def _lines(self, n):
        return [f"{k % 2},{k // 2 % 2},{k % 3 % 2},1" for k in range(n)]

    def test_late_fault_after_plain_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", 24)  # three lines a block
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
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", 24)
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

    @needs_fifo
    def test_quoted_newline_in_the_header_above_a_plain_body(self, tmp_path, plain_blocks):
        # the header takes four physical lines, one of them blank
        path, fifo = tmp_path / "a.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        path.write_text('"note\nover\n\nlines",pred,label,group\nx,1,0,1\ny,0,1,0\n')
        as_file, through_pipe, csv_only = _three_ways(load_audit_csv, path, fifo)
        assert plain_blocks == ["ints", "ints"]
        assert as_file == through_pipe == csv_only
        assert [a.tolist() for a in load_audit_csv(path)[:3]] == [[1, 0], [0, 1], [1, 0]]

    @needs_fifo
    @pytest.mark.parametrize(
        "body",
        [
            "\n1,1,0\n0,1,1\n",  # right after the header
            "1,1,0\n\n\n0,1,1\n",  # between rows
            "1,1,0\n0,1,1\n\n\n",  # at the end
            "1,1,0\n0,1,1\n\n",
            "\n\n",  # nothing else
            "\n",
            "",
        ],
    )
    def test_blank_lines_anywhere(self, tmp_path, plain_blocks, body):
        path, fifo = tmp_path / "a.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        path.write_text("pred,label,group\n" + body)
        as_file, through_pipe, csv_only = _three_ways(load_audit_csv, path, fifo)
        assert as_file == through_pipe == csv_only
        preds, labels, groups, _ = load_audit_csv(path)
        rows = [line.split(",") for line in body.split("\n") if line]
        assert [preds.tolist(), labels.tolist(), groups.tolist()] == [
            [int(row[k]) for row in rows] for k in range(3)
        ]
        # numpy skips a blank line, as the csv path does; a body of blank lines alone is no data to numpy
        assert plain_blocks[:1] == (["ints"] if not body else ["numpy"] if body.strip() else ["csv"])

    @needs_fifo
    def test_bad_cell_wins_over_a_later_undecodable_byte(self, tmp_path, plain_blocks):
        # the scan meets the byte first; it leaves the file to the csv path, which meets the cell first
        path, fifo = tmp_path / "a.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        path.write_bytes(b"pred,label,group\nx,1,0\n" + b"1,1,0\n" * 20_000 + b"\xff\n")
        as_file, through_pipe, csv_only = _three_ways(load_audit_csv, path, fifo)
        assert as_file == through_pipe == csv_only
        assert as_file[1] == "expected an integer, got 'x' (row 1, column 'pred')"
        assert plain_blocks[0] == "csv"

    @needs_fifo
    @pytest.mark.parametrize(
        "body, message",
        [
            (b"1,x,0\n1,1\xff,1\n", "expected an integer, got 'x' (row 1, column 'label')"),
            (b"1,x,0\r1,1\xff,1\r\n", "expected an integer, got 'x' (row 1, column 'label')"),
            (b"1,1,0\n1,1\xff,1\n1,x,0\n", "is not UTF-8 text (invalid start byte)"),
            (b"1,1,0\n1,1\xe2\x82\n", "is not UTF-8 text (invalid continuation byte)"),
        ],
    )
    def test_first_fault_in_row_order_through_a_pipe(self, tmp_path, body, message):
        # a bad cell above the line of an undecodable byte is reported, through a pipe as from a file
        path, fifo = tmp_path / "a.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        path.write_bytes(b"pred,label,group\n" + body)
        outcomes = {
            (kind, text.replace(str(fifo), "<input>").replace(str(path), "<input>"), row, column)
            for kind, text, row, column in _three_ways(load_audit_csv, path, fifo)
        }
        assert len(outcomes) == 1
        assert outcomes.pop()[1].endswith(message)

    @pytest.mark.parametrize("block_chars", [8, 40, 1 << 16])
    @pytest.mark.parametrize(
        "line_ends, reader",
        [(["\r\n"], "ints"), (["\n", "\r\n"], "ints"), (["\r\n", "\r\r\n"], "csv"), (["\r\n", "\r"], "csv")],
        ids=["crlf", "mixed", "cr-crlf", "bare-cr"],
    )
    def test_crlf_line_ends_reach_the_integer_kernel(
        self, tmp_path, monkeypatch, plain_blocks, block_chars, line_ends, reader
    ):
        # a \r directly before \n is a line end to the csv module and to the kernel;
        # a \r anywhere else sends the body to the csv path
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", block_chars)
        lines = self._lines(200)
        path = tmp_path / "a.csv"
        body = "".join(line + line_ends[k % len(line_ends)] for k, line in enumerate(lines))
        path.write_bytes(("pred,label,group,y_tt\r\n" + body).encode())
        as_read = _outcome(load_audit_csv, path)
        assert plain_blocks == [reader]
        with _csv_path_only():
            assert as_read == _outcome(load_audit_csv, path)
        assert as_read[0][1] == (len(lines),)

    @pytest.mark.parametrize("last_line", ['1,"0",1,1\n', "1,0,1,1\r"])
    def test_one_line_not_plain_sends_the_whole_body_to_the_csv_path(self, tmp_path, plain_blocks, last_line):
        # every scan block but the last is plain; the csv module still reads every line
        lines = self._lines(3 * csvio._BLOCK_CHARS // 8)
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n" + "".join(line + "\n" for line in lines) + last_line, newline="")
        assert path.stat().st_size > 2 * csvio._BLOCK_CHARS
        as_read = _outcome(load_audit_csv, path)
        assert plain_blocks == ["csv"]
        with _csv_path_only():
            assert as_read == _outcome(load_audit_csv, path)
        assert as_read[0][1] == (len(lines) + 1,)

    @needs_fifo
    @pytest.mark.parametrize(
        "late", ["", "1,x,0,1\n", "\n", '1,"1\n",0,1\n'], ids=["clean", "bad-cell", "blank-line", "quoted-newline"]
    )
    def test_bare_cr_lines_read_as_their_newline_twin(self, tmp_path, monkeypatch, late):
        # a file whose lines end in a bare \r is read a few lines at a time, not as one line
        monkeypatch.setattr(csvio, "_KERNEL_CHARS", 16)
        monkeypatch.setattr(csvio, "_BLOCK_CHARS", 16)
        whole_lines, blocks = csvio._whole_lines, []

        def counted(raw, size):
            block = whole_lines(raw, size)
            if size > 1:  # a header line is read whole
                blocks.append(len(block) - size)
            return block

        monkeypatch.setattr(csvio, "_whole_lines", counted)
        text = "pred,label,group,y_tt\n" + "".join(line + "\n" for line in self._lines(20)) + late
        text += "".join(line + "\n" for line in self._lines(20))
        path, cr_path, fifo = tmp_path / "a.csv", tmp_path / "cr.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        path.write_text(text)
        cr_path.write_text(text, newline="\r")
        twin = _three_ways(load_audit_csv, path, fifo)
        blocks.clear()
        assert _three_ways(load_audit_csv, cr_path, fifo) == twin
        # many blocks, and none ran on past the line its last byte is in
        assert len(blocks) > 10 and max(blocks) < len("1,0,1,1\r")

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_text(self, tmp_path, plain_blocks, suffix):
        # the fast readers read the open file's bytes whatever its name; no path is opened twice
        path = tmp_path / f"log.csv{suffix}"
        path.write_text("pred,label,group\n1,1,0\n0,1,1\n")
        assert [a.tolist() for a in load_audit_csv(path)[:3]] == [[1, 0], [1, 1], [0, 1]]
        assert plain_blocks == ["ints"]
        path = tmp_path / f"population.csv{suffix}"
        path.write_text("id,group,y,y_prime,x_a,z_a\np,0,1,1,0.5,0.5\nq,1,0,1,1.5,2.5\n")
        assert load_population_csv(path).z_matrix().tolist() == [[0.5], [2.5]]
        assert plain_blocks == ["ints", "numpy"]

    @pytest.mark.parametrize("cell", ["\x1c1", "1\x1f", "ᅰ", "1_0", "١"])
    def test_cells_numpy_would_misread(self, tmp_path, cell):
        # numpy reads "\x1c1" as 1 and "ᅰ" as 4416; Python rejects both
        path = tmp_path / "a.csv"
        path.write_text(f"pred,label,group\n1,{cell},0\n", encoding="utf-8")
        with _csv_path_only():
            expected = _outcome(load_audit_csv, path)
        assert _outcome(load_audit_csv, path) == expected

    @needs_fifo
    @pytest.mark.parametrize("kernel_chars", [8, 16, 20])
    @pytest.mark.parametrize(
        "late, outcome, readers",
        [
            (
                "1,1,0,x\n", ("DataFormatError", "expected an integer, got 'x' (row 5, column 'y_tt')", 5, "y_tt"),
                "ints+csv",
            ),
            ("\n", 8, "ints+numpy"),  # a blank line, skipped and not counted
            ('1,1,"10\n",1\n', 9, "ints+csv"),  # with 8-byte chunks, a chunk ends inside the quotes
        ],
        ids=["bad-cell", "blank-line", "quoted-newline"],
    )
    def test_csv_path_resumes_after_plain_chunks(
        self, tmp_path, monkeypatch, plain_blocks, kernel_chars, late, outcome, readers
    ):
        # the grid takes the chunks above the late line; numpy takes a blank
        # line's chunk, and the csv module reads on from a chunk numpy turns down
        monkeypatch.setattr(csvio, "_KERNEL_CHARS", kernel_chars)
        path, fifo = tmp_path / "a.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        lines = [line + "\n" for line in self._lines(8)]
        path.write_text("pred,label,group,y_tt\n" + "".join(lines[:4]) + late + "".join(lines[4:]))
        as_file, through_pipe, csv_only = _three_ways(load_audit_csv, path, fifo)
        assert as_file == through_pipe == csv_only
        assert plain_blocks == [readers, readers]
        if isinstance(outcome, tuple):
            assert as_file == outcome
        else:
            assert as_file[0][1] == (outcome,)
            assert load_audit_csv(path)[2][4] == (10 if '"' in late else 1)  # the late row's group, or the next row's

    @needs_fifo
    @pytest.mark.parametrize(
        "loader, text, reader",
        [
            (load_audit_csv, "pred,label,group,y_tt\n1,0,1,1\n0,1,1,0\n", "ints"),
            (load_population_csv, "id,group,y,y_prime,x_a,z_a\np,0,1,1,0.5,0.5\nq,1,0,1,1.5,2.5\n", "numpy"),
        ],
    )
    def test_a_pipe_reaches_the_fast_readers(self, tmp_path, plain_blocks, loader, text, reader):
        path, fifo = tmp_path / "a.csv", tmp_path / "a.fifo"
        os.mkfifo(fifo)
        path.write_text(text)
        as_file, through_pipe, csv_only = _three_ways(loader, path, fifo)
        assert as_file == through_pipe == csv_only
        assert plain_blocks == [reader, reader]


def _separator_scan_only():
    """The ladder without its byte grid: every all-integer chunk to the separator scan, then numpy."""
    return mock.patch.object(csvio, "_grid_columns", lambda data, width, indices: None)


def _int_pair(path):
    """The columns ``a`` and ``b`` of ``path``, both planned as int: an all-integer plan, as ``audit``'s is."""
    return csvio._read_csv_columns(path, lambda header: [("a", int), ("b", int)], dataio._integer_fault)[1]


def _one_digit_readers(text: bytes, width: int, indices: list[int]) -> tuple:
    """What the byte grid and the separator scan each make of newline-ended ``text``: columns as lists, or None."""
    data = np.frombuffer(text, np.uint8)
    return tuple(_as_lists(read(data, width, indices)) for read in (csvio._grid_columns, csvio._separated_columns))


def _perturbed(names: list, rows: list, perturbations: list, crlf: bool, final_newline: bool) -> str:
    """Header and body of one-byte cells, each ``(kind, row, column)`` of ``perturbations`` applied."""
    rows = [list(row) for row in rows]
    for kind, r, c in perturbations:
        if not rows:
            break
        r = r % len(rows)
        row = rows[r]
        if kind == "blank line":
            rows.insert(r, [])
        elif kind in ("short row", "long row"):
            rows[r] = row[:-1] if kind == "short row" else row + ["1"]
        elif kind == "letter in an unused column":
            if "note" in names and names.index("note") < len(row):
                row[names.index("note")] = "x"
        elif row:
            row[c % len(row)] = {"wide cell": "10", "signed zero": "-0", "empty cell": ""}[kind]
    end = "\r\n" if crlf else "\n"
    body = "".join(",".join(row) + end for row in rows)
    if not final_newline:
        body = body[: -len(end)]
    return ",".join(names) + end + body


_AUDIT_NAMES = ["pred", "label", "group", "y_tt", "note"]
_PERTURBATIONS = [
    "wide cell", "signed zero", "blank line", "empty cell", "letter in an unused column", "short row", "long row",
]


def _one_byte_logs():
    """Logs of one-digit cells under an audit header, at most two cells or lines perturbed."""
    names = st.tuples(
        st.permutations(_AUDIT_NAMES), st.sampled_from([(), ("y_tt",), ("note",), ("y_tt", "note")])
    ).map(lambda drawn: [n for n in drawn[0] if n not in drawn[1]])
    return names.flatmap(
        lambda names: st.builds(
            _perturbed,
            st.just(names),
            st.lists(st.lists(st.sampled_from("01192"), min_size=len(names), max_size=len(names)), max_size=12),
            st.lists(st.tuples(st.sampled_from(_PERTURBATIONS), st.integers(0, 11), st.integers(0, 4)), max_size=2),
            st.booleans(),
            st.booleans(),
        )
    )


def _as_lists(columns):
    return None if columns is None else [c.tolist() for c in columns]


@pytest.fixture
def grid_reads(monkeypatch) -> list[bool]:
    """Whether the byte grid read each chunk the integer kernel was given, in order."""
    reads, grid = [], csvio._grid_columns

    def spy(data, width, indices):
        columns = grid(data, width, indices)
        reads.append(columns is not None)
        return columns

    monkeypatch.setattr(csvio, "_grid_columns", spy)
    return reads


class TestIntColumns:
    """The integer kernel (byte grid and separator scan) and the ladder: what each reads, turns down and returns."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,-2\n007,-0\n", [[1, 7], [-2, 0]]),
            ("1,-2\n3,4", [[1, 3], [-2, 4]]),  # no final newline
            ("", [[], []]),
            ("9" * 18 + ",-" + "9" * 18 + "\n", [[10**18 - 1], [1 - 10**18]]),
        ],
    )
    def test_reads_its_grammar(self, tmp_path, plain_blocks, text, expected):
        # cells past one digit are numpy's; the ladder reads them as the csv path does
        path = tmp_path / "a.csv"
        path.write_text("a,b\n" + text)
        outcome = _outcome(_int_pair, path)
        assert [c.tolist() for c in _int_pair(path)] == expected
        assert plain_blocks == [("ints" if not text else "numpy")] * 2
        with _csv_path_only():
            assert _outcome(_int_pair, path) == outcome

    @pytest.mark.parametrize(
        "text",
        [
            "+1,2\n", " 1,2\n", "1 ,2\n", "-,2\n", "--1,2\n", "1-2,2\n", ",2\n", "1" * 19 + ",2\n", "1_0,2\n",
            "1\n", "1,2,3\n", "1,2\n\n", "\n1,2\n", "1,2\n3\n4,5\n", "1,2\n3,4\n\n",
        ],
    )
    def test_turns_down_everything_else(self, tmp_path, text):
        # neither one-digit reader takes these; the ladder gives what the csv path gives
        assert _one_digit_readers(text.encode(), 2, [0, 1]) == (None, None)
        path = tmp_path / "a.csv"
        path.write_text("a,b\n" + text)
        outcome = _outcome(_int_pair, path)
        with _csv_path_only():
            assert _outcome(_int_pair, path) == outcome

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_the_grid_accepts_only_plain_bytes(self, width):
        # the kernel tries the grid before any plain check: every text the
        # grid takes must be plain, and hold one digit a cell
        text = ((",".join("0123456789"[:width]) + "\n") * 2).encode()
        row = 2 * width
        for offset in range(len(text)):
            wanted = b"\n" if offset % row == row - 1 else b"," if offset % 2 else b"0123456789"
            for byte in range(256):
                mutated = bytearray(text)
                mutated[offset] = byte
                columns = csvio._grid_columns(np.frombuffer(mutated, np.uint8), width, list(range(width)))
                assert (columns is not None) == (byte in wanted), (offset, byte)
                if columns is not None:
                    assert csvio._is_plain(bytes(mutated))
                    rows = [line.split(b",") for line in bytes(mutated).splitlines()]
                    assert [c.tolist() for c in columns] == [[int(r[i]) for r in rows] for i in range(width)]

    @pytest.mark.parametrize("kernel_chars", [1, 1 << 22])  # a chunk a row, or one chunk
    def test_columns_are_contiguous_int64(self, tmp_path, monkeypatch, plain_blocks, kernel_chars):
        monkeypatch.setattr(csvio, "_KERNEL_CHARS", kernel_chars)
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n1,0,10,1\n0,1,-3,0\n1,1,123456789012,1\n")
        columns = load_audit_csv(path)
        # the wide cells go to numpy, in one chunk or a row at a time
        assert plain_blocks == ["numpy"]
        # int8 where every value fits, int64 in the column that holds 123456789012
        assert [c.dtype for c in columns] == [np.int8, np.int8, np.int64, np.int8]
        # every column owns contiguous data: the int8 columns are narrowed copies,
        # and numpy's int64 column is copied out of its table, not left a view of it
        assert all(c.flags.c_contiguous for c in columns)
        outcome = _outcome(load_audit_csv, path)
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome

    def test_int64_bounds(self, tmp_path, plain_blocks):
        # numpy reads the bounds exactly; past them it turns the chunk down and the csv path reports the cell
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group\n1,9223372036854775807,0\n0,-9223372036854775808,1\n")
        assert load_audit_csv(path)[1].tolist() == [2**63 - 1, -(2**63)]
        outcome = _outcome(load_audit_csv, path)
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome
        path.write_text("pred,label,group\n1,1,0\n0,9223372036854775808,1\n")
        err = _raises(load_audit_csv, path)
        assert str(err) == "integer out of range, got '9223372036854775808' (row 2, column 'label')"
        outcome = _outcome(load_audit_csv, path)
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome
        assert plain_blocks == ["numpy", "numpy", "csv", "csv"]

    def test_unused_columns_may_hold_anything_plain(self, tmp_path, plain_blocks):
        path = tmp_path / "a.csv"
        path.write_text("note,pred,label,group,score\nfirst row,1,0,1,0.25\n,0,1,0,nan\n-x-,1,1,0,\n")
        preds, labels, groups, y_tt = load_audit_csv(path)
        assert plain_blocks == ["ints"]
        assert [preds.tolist(), labels.tolist(), groups.tolist(), y_tt] == [[1, 0, 1], [0, 1, 1], [1, 0, 0], None]

    @pytest.mark.parametrize(
        "text, width, indices",
        [("1\n0\n7\n", 1, [0]), ("", 2, [0, 1]), ("1,0,9\n2,3,4\n", 3, [2, 0])],
    )
    def test_grid_reads_one_byte_cells(self, text, width, indices):
        data = np.frombuffer(text.encode(), np.uint8)
        columns, scanned = csvio._grid_columns(data, width, indices), csvio._separated_columns(data, width, indices)
        assert _as_lists(columns) == _as_lists(scanned)
        assert all(c.dtype == np.int8 and c.flags.c_contiguous for c in columns + scanned)

    def test_an_aligned_wide_cell_goes_to_the_separator_scan(self, monkeypatch, grid_reads):
        # one row of 2 * width bytes whose first cell is two bytes wide: the
        # grid turns it down, the scan turns down a cell past one digit, numpy reads it
        scan, scans = csvio._separated_columns, []
        monkeypatch.setattr(csvio, "_separated_columns", lambda *args: scans.append(scan(*args)))
        assert _as_lists(csvio._fast_columns(b"10,\n", 2, [("a", 0, int)])) == [[10]]
        assert (grid_reads, scans) == ([False], [None])

    def test_a_y_tt_of_2_on_a_rejected_row_is_read_by_the_grid(self, tmp_path, plain_blocks, grid_reads):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n0,1,0,2\n1,1,1,1\n")
        columns = load_audit_csv(path)
        assert (plain_blocks, grid_reads) == (["ints"], [True])
        assert columns[3].tolist() == [2, 1]
        with _csv_path_only():
            assert _as_lists(columns) == _as_lists(load_audit_csv(path))

    @pytest.mark.parametrize(
        "groups, width",
        [([127, -128, 1], np.int8), ([128, 0, 1], np.int64), ([-129, 0, 1], np.int64)],
    )
    def test_a_column_is_int8_where_every_value_fits(self, tmp_path, plain_blocks, groups, width):
        # the group column holds the values; the other columns are one digit
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n" + "".join(f"1,0,{g},1\n" for g in groups))
        columns = load_audit_csv(path)
        assert plain_blocks == ["numpy"]  # the scan turns down a cell past one digit
        assert [c.dtype for c in columns] == [np.int8, np.int8, width, np.int8]
        assert columns[2].tolist() == groups
        outcome = _outcome(load_audit_csv, path)
        with _separator_scan_only():
            assert _outcome(load_audit_csv, path) == outcome
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome

    @pytest.mark.parametrize("k, width", [(127, np.int8), (-128, np.int8), (128, np.int64), (-129, np.int64)])
    def test_numpys_reader_follows_the_width_rule(self, tmp_path, plain_blocks, k, width):
        # a plan with a float column goes to np.loadtxt, as a population file's does
        path = tmp_path / "a.csv"
        path.write_text(f"x,k\n0.5,{k}\n1.5,0\n")

        def read(path):
            return csvio._read_csv_columns(path, lambda header: [("x", float), ("k", int)], None)[1]

        outcome = _outcome(read, path)
        assert plain_blocks == ["numpy"]
        assert [dtype for dtype, _, _ in outcome] == [np.dtype(np.float64).str, np.dtype(width).str]
        with _csv_path_only():
            assert _outcome(read, path) == outcome

    def test_population_labels_stay_int(self, tmp_path, plain_blocks):
        path = tmp_path / "pop.csv"
        path.write_text("id,group,y,y_prime,x_a,z_a\nu1,0,1,1,1.0,1.0\nu2,1,0,0,2.0,2.0\n")
        pop = load_population_csv(path)
        assert plain_blocks == ["numpy"]
        assert {c.dtype for c in (pop.labels(), pop.labels_prime(), pop.groups())} == {np.dtype(int)}

    def test_an_empty_body_reads_int8_columns(self, tmp_path, plain_blocks):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n")
        outcome = _outcome(load_audit_csv, path)
        assert plain_blocks == ["ints"]
        assert outcome == [(np.dtype(np.int8).str, (0,), b"")] * 4
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome

    @pytest.mark.parametrize("y_tt, width", [("1", np.int8), ("300", np.int64)])
    def test_a_grid_chunk_then_a_csv_chunk(self, tmp_path, monkeypatch, plain_blocks, grid_reads, y_tt, width):
        # 8-byte chunks: the grid reads two rows, then turns down a quoted cell, which sends the rest to the csv module
        monkeypatch.setattr(csvio, "_KERNEL_CHARS", 8)
        path = tmp_path / "a.csv"
        path.write_text(f'pred,label,group,y_tt\n1,0,1,1\n0,1,0,0\n"1",1,0,{y_tt}\n1,1,1,1\n')
        columns = load_audit_csv(path)
        assert (plain_blocks, grid_reads) == (["ints+csv"], [True, True, False])
        assert [c.dtype for c in columns] == [np.int8, np.int8, np.int8, width]
        assert columns[3].tolist() == [1, 0, int(y_tt), 1]
        outcome = _outcome(load_audit_csv, path)
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome

    def test_a_y_tt_of_300_on_a_rejected_row_widens_that_column_only(self, tmp_path, plain_blocks):
        path = tmp_path / "a.csv"
        path.write_text("pred,label,group,y_tt\n0,1,0,300\n1,1,1,1\n")
        columns = load_audit_csv(path)
        assert plain_blocks == ["numpy"]
        assert [c.dtype for c in columns] == [np.int8, np.int8, np.int8, np.int64]
        assert _as_lists(columns) == [[0, 1], [1, 1], [0, 1], [300, 1]]
        outcome = _outcome(load_audit_csv, path)
        with _csv_path_only():
            assert _outcome(load_audit_csv, path) == outcome

    def test_grid_separator_scan_and_csv_path_agree(self, tmp_path_factory, plain_blocks, grid_reads):
        """One-byte-cell logs, perturbed or not: one outcome whichever reader takes them.

        A body the byte grid reads, the separator scan reads to the same
        columns. For the file, the ladder with its grid, without it, and
        the csv path give the same values or the same error.
        """
        path = tmp_path_factory.mktemp("grid") / "log.csv"

        @given(_one_byte_logs(), st.sampled_from([8, 1 << 16]), st.sampled_from([1, 1 << 22]))
        @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        def check(text, block_chars, kernel_chars):
            header, body = text.split("\n", 1)
            names = header.rstrip("\r").split(",")
            indices = [names.index(n) for n in ("pred", "label", "group", "y_tt") if n in names]
            body = body.replace("\r\n", "\n").encode()
            if body and not body.endswith(b"\n"):
                body += b"\n"
            grid, scanned = _one_digit_readers(body, len(names), indices)
            assert grid is None or grid == scanned
            path.write_bytes(text.encode())
            with mock.patch.multiple(csvio, _BLOCK_CHARS=block_chars, _KERNEL_CHARS=kernel_chars):
                outcome = _outcome(load_audit_csv, path)
                with _separator_scan_only():
                    assert _outcome(load_audit_csv, path) == outcome
                with _csv_path_only():
                    assert _outcome(load_audit_csv, path) == outcome

        check()
        # the fuzz reaches the grid, the other readers of the ladder, the csv path and a resume on it
        assert set(grid_reads) == {True, False}
        assert {"ints", "numpy", "csv", "ints+csv"} <= set(plain_blocks)
        # the ladder widens only a column holding a value past int8
        path.write_text("pred,label,group,y_tt\n1,127,-128,128\n0,10,-1,-129\n")
        columns = load_audit_csv(path)
        assert [c.dtype for c in columns] == [np.int8, np.int8, np.int8, np.int64]
        assert _as_lists(columns) == [[1, 0], [127, 10], [-128, -1], [128, -129]]


class TestRunConfigToml:
    def test_parse_subset(self, tmp_path):
        text = (
            "# audit settings\n"
            'out_dir = "student-reports"\n'
            "seed = 11\n"
            "tau_o = 0.2  # outcomes threshold\n"
            "[report]\n"
            'formats = ["json", "csv"]\n'
            "equal_access = true\n"
        )
        path = tmp_path / "run.toml"
        path.write_text(text)
        cfg = RunConfig.from_toml(path)
        assert cfg.out_dir == "student-reports"
        assert cfg.seed == 11
        assert cfg.tau_o == 0.2
        assert cfg.formats == ("json", "csv")
        assert cfg.equal_access is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("mystery = 3\n")
        with pytest.raises(DataFormatError, match="mystery"):
            RunConfig.from_toml(path)

    def test_dialect_is_an_unknown_key(self, tmp_path):
        # no reader takes a dialect: the student file is semicolon-delimited
        path = tmp_path / "run.toml"
        path.write_text('dialect = "uci-semicolon"\n')
        with pytest.raises(DataFormatError, match="unknown config keys: dialect"):
            RunConfig.from_toml(path)

    def test_input_path_is_an_unknown_key(self, tmp_path):
        # the student file is the casestudy command's argument, not a setting
        path = tmp_path / "run.toml"
        path.write_text('input_path = "students.csv"\n')
        with pytest.raises(DataFormatError, match="unknown config keys: input_path"):
            RunConfig.from_toml(path)

    def test_bad_value_line_numbered(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("seed = 1\ntau = !!!\n")
        with pytest.raises(DataFormatError, match=rf"invalid TOML in {re.escape(str(path))}: .*line 2"):
            RunConfig.from_toml(path)

    @pytest.mark.parametrize(
        "text, line",
        [("seed = 1\ntau = .5\n", 2), ("seed = 07\n", 1), ("seed = 1\ntau = 0.5\nseed = 2\n", 3),
         ("tau = 5.\n", 1), ("tau = Infinity\n", 1), ('out_dir = "a" "b"\n', 1),
         ("[report]\nseed = 1\n[report]\n", 3)],
        ids=["leading-dot", "leading-zero", "repeated-key", "trailing-dot", "infinity", "two-strings",
             "repeated-section"],
    )
    def test_text_that_is_not_toml_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "run.toml"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=rf"invalid TOML in {re.escape(str(path))}: .*\(at line {line}, column \d+\)$"):
            RunConfig.from_toml(path)

    def test_strings_follow_toml_escapes(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('out_dir = "a\\tb"\n')
        assert RunConfig.from_toml(path).out_dir == "a\tb"
        # a literal string keeps its backslashes, as a Windows path needs
        path.write_text("out_dir = 'C:\\reports'\n")
        assert RunConfig.from_toml(path).out_dir == "C:\\reports"
        path.write_text('out_dir = "C:\\reports"\n')  # \r is a carriage return
        assert RunConfig.from_toml(path).out_dir == "C:\reports"
        path.write_text('out_dir = "C:\\data"\n')  # \d is no TOML escape
        with pytest.raises(DataFormatError, match="invalid TOML.*line 1"):
            RunConfig.from_toml(path)

    def test_toml_beyond_the_old_subset_loads(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('run.tau = 0.5\n[report]\nformats = [\n  "json",\n  "csv",  # both\n]\nseed = 0x1f\n')
        cfg = RunConfig.from_toml(path)
        assert (cfg.formats, cfg.seed, cfg.tau) == (("json", "csv"), 31, 0.5)

    @pytest.mark.parametrize(
        "text",
        ["seed = 1979-05-27\n", "[report]\nseed = {a = 1}\n", "seed = {a = 1}\n", "[seed]\na = 1\n"],
        ids=["date", "inline-table", "top-level-inline-table", "table-named-like-a-field"],
    )
    def test_value_of_no_config_type_names_its_field(self, tmp_path, text):
        path = tmp_path / "run.toml"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="config value seed must be int, got "):
            RunConfig.from_toml(path)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(tau=2.0)
        with pytest.raises(ValidationError):
            RunConfig(formats=("yaml",))

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_train_fraction_must_lie_inside_0_1(self, fraction):
        with pytest.raises(ValidationError, match=r"^train_fraction must be in \(0, 1\)$"):
            RunConfig(train_fraction=fraction)

    @pytest.mark.parametrize(
        "line", ['tau = "abc"', "seed = 1.5", "seed = true", "equal_access = 1", 'formats = ["json", 2]']
    )
    def test_mistyped_value_is_a_format_error(self, tmp_path, line):
        path = tmp_path / "run.toml"
        path.write_text(line + "\n")
        with pytest.raises(DataFormatError, match=line.split()[0]):
            RunConfig.from_toml(path)

    def test_integer_past_the_float_range_is_no_float(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("uplift_std_fraction = 1" + "0" * 400 + "\n")
        with pytest.raises(DataFormatError, match="config value uplift_std_fraction must be float, got 1000"):
            RunConfig.from_toml(path)

    def test_int_accepted_where_a_float_is_expected(self):
        assert RunConfig(tau=1, epsilon=0).tau == 1
        with pytest.raises(DataFormatError):
            RunConfig(tau=True)

    def test_field_types_resolved_once(self):
        RunConfig()
        with mock.patch("typing.get_type_hints", side_effect=AssertionError("resolved again")):
            assert RunConfig(seed=3).override(tau=0.5).tau == 0.5
            with pytest.raises(DataFormatError, match=r"config value seed must be int, got 1\.5"):
                RunConfig(seed=1.5)

    def test_override(self):
        cfg = RunConfig().override(seed=3, out_dir=None)
        assert cfg.seed == 3
        assert cfg.out_dir == RunConfig().out_dir
