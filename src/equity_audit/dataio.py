"""Student-performance ingestion and the admission case study.

The case study audits a school-admission pipeline that decides with an
"admissibility" model (sex, test_scores, essay, grades, letter of
recommendation, extracurricular) but whose admits are later evaluated by a
"likelihood to thrive" model reading a different slice of the student's
life (health, study time, absences, travel time, paid tutoring, free time,
romantic relationship, parents' education).

The public data file carries no explicit obstacle information, so both are
derived, deterministically and configurably:

* obstacle flags: a student faces obstacles when the sum of six
  family-background values (paid tutoring, family relationship, both
  parents' jobs ordinal-encoded, both parents' education) falls strictly
  below the population median.
* obstacle-free values ``z``: flagged students' affected features are
  uplifted from their recorded values ``x`` by a per-student severity draw
  around the configured base step (an ordinal-scale step for ordinal
  columns, a population-standard-deviation fraction for score-like ones),
  clipped to the documented range. A constant step would preserve
  within-group ranking and be correctable by a threshold, which no real
  barrier is. Unflagged students keep ``z == x``.

``school_absences`` is stored negated (0 = no absences is the maximum) so
that for every obstacle-affected column a larger value is the obstacle-free
direction. The decision columns that do not exist in the file (test_scores,
essay, letter_of_recommendation) are derived, seeded mappings documented in
the README; they make runs reproducible but are not measurements.

The module also holds the loaders of the other inputs: audit logs and
population files, whose bytes :mod:`equity_audit.csvio` reads, and the
model documents of ``gaps`` and spaces documents of ``score``, whose
obstacle declarations (``alpha``, ``affected_features``) one reader checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import RunConfig
from .core import ObstacleModel, Policy, Population, reveal_population
from .errors import (
    DataFormatError,
    SingleClassError,
    UndefinedRateError,
    ValidationError,
)
from .csvio import _INT64, _binary_file, _decoded_lines, _header_row, _read_csv_columns
from .inputs import is_index, is_list_of, is_number, read_json
from .learner import (
    ModelSpec,
    TrainedModel,
    candidate_group_thresholds,
    group_cutoffs,
    predict,
    predict_proba,
    train,
)
from .metrics import (
    EquityReport,
    GapReport,
    access_from_mask,
    compute_gap_report,
    eo_violation,
    utilization_from_labels,
)
from .reports import Record, json_form
from .scoring import ModelSpace, split_indices

UCI_NUMERIC_COLUMNS = (
    "age", "Medu", "Fedu", "traveltime", "studytime", "failures", "famrel",
    "freetime", "goout", "Dalc", "Walc", "health", "absences", "G1", "G2", "G3",
)

REQUIRED_COLUMNS = (
    "sex", "health", "studytime", "absences", "traveltime", "paid", "freetime",
    "romantic", "Medu", "Fedu", "famrel", "Mjob", "Fjob", "G1", "G2", "G3",
)

MJOB_ORDINAL = {"at_home": 0, "other": 1, "services": 2, "health": 3, "teacher": 4}
YESNO_ORDINAL = {"no": 0, "yes": 1}

PROXY_FEATURES = (
    "sex", "test_scores", "essay", "grades", "letter_of_recommendation",
    "extracurricular",
)
PROXY_AFFECTED = ("test_scores", "essay", "grades")

INTENDED_FEATURES = (
    "sex", "health", "study_time", "school_absences", "travel_time", "paid",
    "free_time", "romantic", "mothers_education", "fathers_education",
)
INTENDED_AFFECTED = ("health", "study_time", "school_absences", "free_time")

# documented value ranges used to clip uplifted features
_PROXY_RANGES = {"test_scores": (0.0, 20.0), "essay": (0.0, 20.0), "grades": (0.0, 20.0)}
_INTENDED_RANGES = {
    "health": (1.0, 5.0),
    "study_time": (1.0, 4.0),
    "school_absences": (-93.0, 0.0),
    "free_time": (1.0, 5.0),
}
_ORDINAL_AFFECTED = {"health", "study_time", "free_time"}


@dataclass(frozen=True)
class StudentTable:
    """Parsed student file: column order plus one column per name.

    A known numeric column is an int64 array, any other a list of str. A
    name given twice keeps its last column.
    """

    columns: tuple[str, ...]
    data: dict[str, np.ndarray | list[str]]

    def __len__(self) -> int:
        return len(self.data[self.columns[0]])

    def column(self, name: str) -> np.ndarray | list[str]:
        return self.data[name]


def load_uci_students(path: str | Path) -> StudentTable:
    """Read a semicolon-delimited UTF-8 student file with a quoted header row.

    Every line after the header is a row, a blank one too, and must have
    as many fields as the header. Each cell is stripped of surrounding
    whitespace, then of double quotes. Known numeric columns are converted
    to int, within the int64 range; everything else stays a string. The
    first fault in row order, and within a row in column order, is raised
    with its data row number (1-based) and column name.
    """
    path = Path(path)
    with _binary_file(path) as raw:
        columns, rows = _student_rows(_decoded_lines(raw), path)
    return StudentTable(columns=columns, data=dict(zip(columns, _student_columns(rows, columns))))


def _student_rows(lines, path: Path) -> tuple[tuple[str, ...], list[list[str]]]:
    """The header's column names and the raw rows of a student file's ``lines``.

    A fault in the header, or a row the csv module cannot read or whose
    line does not decode, is raised after any fault in an earlier row.
    """
    reader = csv.reader(lines, delimiter=";")
    columns = tuple(col.strip().strip('"') for col in _header_row(reader, path))
    _require_columns(columns, REQUIRED_COLUMNS)
    rows: list[list[str]] = []
    try:
        rows.extend(reader)
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        _student_columns_by_row(rows, columns)  # a fault in an earlier row comes first
        raise DataFormatError(f"unreadable row: {exc}", row=len(rows) + 1) from None
    except UnicodeDecodeError:
        _student_columns_by_row(rows, columns)
        raise
    return columns, rows


def _student_columns(rows: list[list[str]], columns: tuple[str, ...]) -> list:
    """Every column of ``rows``, converted a whole column at a time.

    ``int()`` strips the whitespace ``str.strip`` does and rejects any
    ``"``, so where it accepts every cell of a column it reads the values
    the row-by-row check would; anything else goes to that check.
    """
    n = len(rows)
    if set(map(len, rows)) == {len(columns)}:
        try:
            return [
                np.fromiter(map(int, cells), np.int64, n)
                if name in UCI_NUMERIC_COLUMNS
                else list(map(str.strip, map(str.strip, cells), repeat('"')))
                for name, cells in zip(columns, zip(*rows))
            ]
        except (ValueError, OverflowError):
            pass
    return _student_columns_by_row(rows, columns)


def _student_columns_by_row(rows: list[list[str]], columns: tuple[str, ...]) -> list:
    """The columns of ``rows`` converted cell by cell, raising the first fault in row order."""
    values: list[list] = [[] for _ in columns]
    for rownum, raw in enumerate(rows, start=1):
        if len(raw) != len(columns):
            raise DataFormatError(f"expected {len(columns)} fields, found {len(raw)}", row=rownum)
        for name, cell, out in zip(columns, raw, values):
            cell = cell.strip().strip('"')
            if name in UCI_NUMERIC_COLUMNS:
                try:
                    number = int(cell)
                except ValueError:
                    raise DataFormatError(
                        f"expected an integer, got {cell!r}", row=rownum, column=name
                    ) from None
                if number not in _INT64:
                    raise DataFormatError(f"integer out of range, got {cell!r}", row=rownum, column=name)
                out.append(number)
            else:
                out.append(cell)
    return [
        np.array(out, dtype=np.int64) if name in UCI_NUMERIC_COLUMNS else out
        for name, out in zip(columns, values)
    ]


def _levels(table: StudentTable, column: str, codes: dict, expected: str) -> np.ndarray:
    """The float codes of ``column``'s levels; the first unknown level is a fault naming its row."""
    values = table.column(column)
    try:
        return np.fromiter(map(codes.__getitem__, values), float, len(values))
    except KeyError as exc:
        level = exc.args[0]
        raise DataFormatError(
            f"unknown level {level!r}; expected {expected}",
            row=values.index(level) + 1,
            column=column,
        ) from None


def _median(values) -> float:
    """``np.median`` of a nonempty vector, read off one ``np.sort``.

    The middle value, or ``(a + b) / 2`` of the two middle values, in float,
    as ``np.median`` computes them; NaN if any value is NaN. Unlike
    ``np.median``, it does not import ``numpy.ma`` (numpy 2.4 does on the
    first call).
    """
    s = np.sort(np.asarray(values, dtype=float))
    if np.isnan(s[-1]):  # a NaN sorts last
        return s[-1]
    mid = s.size // 2
    return s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2


def derive_obstacle_flags(table: StudentTable) -> np.ndarray:
    """Flag students whose family-background sum is strictly below median.

    An unknown paid, Mjob or Fjob level is a fault; of several, the first
    in row order (within a row, in that column order) is raised.
    """
    sums = sum(np.asarray(table.column(c), dtype=float) for c in ("famrel", "Medu", "Fedu"))
    faults = []
    for k, (column, codes) in enumerate(
        (("paid", YESNO_ORDINAL), ("Mjob", MJOB_ORDINAL), ("Fjob", MJOB_ORDINAL))
    ):
        try:
            sums = sums + _levels(table, column, codes, f"one of {sorted(codes)}")
        except DataFormatError as exc:
            faults.append((exc.row, k, exc))
    if faults:
        raise min(faults)[2]
    if len(table) == 0:
        return np.zeros(0, dtype=bool)
    return sums < _median(sums)


@dataclass(frozen=True)
class CaseStudyViews:
    """Aligned decision-side and evaluation-side views of the same students."""

    proxy: Population
    intended: Population
    obstacle_flags: np.ndarray
    om_proxy: ObstacleModel
    om_intended: ObstacleModel


_YES_OR_NO = "'yes' or 'no'"


# per-student severity spread around the base uplift step; a constant
# step would preserve within-group ranking and let a single threshold
# undo the obstacle, which no real barrier does
_UPLIFT_SPREAD = (0.5, 1.5)


def _check_largest_draw(largest: float, field: str) -> None:
    """Reject ``field`` when the largest uplift a draw can give is no finite float."""
    if not math.isfinite(largest):
        raise ValidationError(f"{field} is too large: the largest uplift draw overflows")


def _uplift(
    x: np.ndarray,
    flags: np.ndarray,
    names: tuple[str, ...],
    affected: tuple[str, ...],
    ranges: dict,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    z = x.copy()
    n_flagged = int(np.sum(flags))
    for name in affected:
        j = names.index(name)
        lo, hi = ranges[name]
        if name in _ORDINAL_AFFECTED:
            field = "uplift_ordinal_step"
            try:
                step = float(cfg.uplift_ordinal_step)
            except OverflowError:
                step = math.inf
        else:
            field = "uplift_std_fraction"
            step = cfg.uplift_std_fraction * float(np.std(x[:, j]))
        _check_largest_draw(_UPLIFT_SPREAD[1] * step, field)
        severity = rng.uniform(*_UPLIFT_SPREAD, size=n_flagged)
        z[flags, j] = np.clip(x[flags, j] + severity * step, lo, hi)
    return z


_TOO_FEW_STUDENTS = "case study needs at least 10 students"


def build_case_study_views(table: StudentTable, cfg: RunConfig) -> CaseStudyViews:
    """Construct both feature views, labels and obstacle structure."""
    n = len(table)
    if n == 0:  # refused before any draw; a short table meets run_case_study's check
        raise ValidationError(_TOO_FEW_STUDENTS)
    rng = np.random.default_rng([cfg.seed, 7919])
    flags = derive_obstacle_flags(table)

    sex = _levels(table, "sex", {"F": 1.0, "M": 0.0}, "'F' or 'M'")
    g1, g2, g3, studytime, famrel, health, absences, traveltime, freetime, medu, fedu = (
        np.asarray(table.column(c), dtype=float)
        for c in ("G1", "G2", "G3", "studytime", "famrel", "health", "absences", "traveltime",
                  "freetime", "Medu", "Fedu")
    )

    # derived decision columns (seeded, documented in the README)
    test_scores = (g1 + g2) / 2.0
    essay_raw = 3.0 * studytime + 2.0 * famrel + rng.uniform(0.0, 2.0, size=n)
    essay = np.clip((essay_raw - 5.0) / 19.0 * 20.0, 0.0, 20.0)
    grades = g1.copy()
    letter = famrel.copy()
    if "activities" in table.columns:
        extracurricular = _levels(table, "activities", YESNO_ORDINAL, _YES_OR_NO)
    else:
        extracurricular = (rng.random(n) < 0.5).astype(float)

    proxy_x = np.column_stack(
        [sex, test_scores, essay, grades, letter, extracurricular]
    )
    proxy_z = _uplift(proxy_x, flags, PROXY_FEATURES, PROXY_AFFECTED, _PROXY_RANGES, cfg, rng)

    paid = _levels(table, "paid", YESNO_ORDINAL, _YES_OR_NO)
    romantic = _levels(table, "romantic", YESNO_ORDINAL, _YES_OR_NO)

    intended_x = np.column_stack(
        [sex, health, studytime, -absences, traveltime, paid, freetime, romantic, medu, fedu]
    )
    intended_z = _uplift(
        intended_x, flags, INTENDED_FEATURES, INTENDED_AFFECTED, _INTENDED_RANGES, cfg, rng
    )

    # the file records the obstacle-refrained world, so the recorded pass
    # label is y; the obstacle-free label applies the same uplift rule to
    # the final grade before the pass mark
    y = (g3 >= cfg.pass_mark).astype(int)
    g3_free = _uplift(g3[:, None], flags, ("G3",), ("G3",), {"G3": (0.0, 20.0)}, cfg, rng)[:, 0]
    y_prime = (g3_free >= cfg.pass_mark).astype(int)
    ids = [f"s{i}" for i in range(n)]
    groups = sex.astype(int)

    proxy_pop = Population(
        x=proxy_x, z=proxy_z, y=y, y_prime=y_prime, grp=groups, ids=ids,
        feature_names=PROXY_FEATURES,
    )
    intended_pop = Population(
        x=intended_x, z=intended_z, y=y, y_prime=y_prime, grp=groups, ids=ids,
        feature_names=INTENDED_FEATURES,
    )
    alpha_p = np.array([1.0 if f in PROXY_AFFECTED else 0.0 for f in PROXY_FEATURES])
    alpha_t = np.array([1.0 if f in INTENDED_AFFECTED else 0.0 for f in INTENDED_FEATURES])
    return CaseStudyViews(
        proxy=proxy_pop,
        intended=intended_pop,
        obstacle_flags=flags,
        om_proxy=ObstacleModel.from_alpha(alpha_p),
        om_intended=ObstacleModel.from_alpha(alpha_t),
    )


def regime_name(access: bool, outcome: bool, util: bool) -> str:
    return "|".join(
        [
            "eq_acc" if access else "uneq_acc",
            "eq_out" if outcome else "uneq_out",
            "eq_util" if util else "uneq_util",
        ]
    )


@dataclass(frozen=True)
class RegimeResult(Record):
    """Everything measured for one (access, outcome, utilization) setting."""

    name: str
    equal_access: bool
    equal_outcome: bool
    equal_utilization: bool
    report: EquityReport | None
    admissibility_by_group: dict[int, float]
    tp_share: float | None
    fp_share: float | None
    fp_share_by_group: dict[int, float]
    degenerate: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseStudyResult:
    regimes: tuple[RegimeResult, ...]
    gaps: GapReport
    proxy_model: TrainedModel
    intended_model: TrainedModel

    def regime(self, name: str) -> RegimeResult:
        for r in self.regimes:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:  # the fitted models are saved as documents of their own
        return {"regimes": json_form(self.regimes), "gaps": json_form(self.gaps)}


def _regime_axes(cfg: RunConfig) -> list[tuple[bool, ...]]:
    """The settings each of the access, outcome and utilization switches runs."""
    return [
        (True, False) if flag is None else (flag,)
        for flag in (cfg.equal_access, cfg.equal_outcome, cfg.equal_utilization)
    ]


# Half of a flagged student's uplift is credited to decision-time
# alleviation and half to evaluation-time alleviation: decision-time
# obstacles left unalleviated resurface when the evaluation model scores
# the student, on top of whatever evaluation-side obstacles remain.
ACCESS_CARRY_FRACTION = 0.5


def run_case_study(cfg: RunConfig, views: CaseStudyViews) -> CaseStudyResult:
    """Audit every requested regime combination on the views of one student file.

    Both models are fitted once, on the train split: the decision model on
    recorded (obstacle-refrained) features, since its ground truth predates
    any alleviation, and the evaluation model on obstacle-free features,
    since the environment's yardstick does not change with the
    decision-maker's policy. Each regime then controls deployment on the
    held-out students: (a) whether decision-time obstacles are alleviated
    when they reveal themselves, (b) whether per-group decision thresholds
    are walked until the reported odds gap clears ``tau_o``, and (c)
    whether evaluation-side obstacles are alleviated before the evaluation
    model scores the admitted students. Obstacles not alleviated at
    decision time carry into the evaluation (``ACCESS_CARRY_FRACTION``).

    Each side is computed once per setting of the switches it depends on:
    the revealed data, the access report and the decision model's scores
    per access setting, the threshold walk, the outcome report and the
    admits, one cut of those scores, per (access, outcome), and only the
    evaluation per regime. Regimes come in the order of
    ``itertools.product`` over the three switches.

    ``cfg.seed`` seeds the train/test split; views built with another
    seed vary the uplift draws apart from the split.
    """
    n = len(views.proxy)
    if n < 10:
        raise ValidationError(_TOO_FEW_STUDENTS)
    train_idx, test_idx = split_indices(n, cfg.train_fraction, cfg.seed)

    groups = views.proxy.groups()
    y_all = views.proxy.labels()
    y_free = views.proxy.labels_prime()
    x_proxy = views.proxy.x_matrix()

    try:
        proxy_model = train(
            ModelSpec(PROXY_FEATURES), x_proxy[train_idx], y_all[train_idx], cfg.seed
        )
        intended_model = train(
            ModelSpec(INTENDED_FEATURES),
            views.intended.z_matrix()[train_idx],
            views.proxy.labels_prime()[train_idx],
            cfg.seed,
        )
    except SingleClassError as exc:
        raise ValidationError(f"case study training degenerate: {exc}") from exc

    gaps = compute_gap_report(
        list(PROXY_FEATURES),
        list(INTENDED_FEATURES),
        proxy_model.importance,
        intended_model.importance,
        views.om_proxy,
        views.om_intended,
    )

    # evaluation-side feature states, per (access, utilization) setting
    x_intended = views.intended.x_matrix()
    uplift_t = views.intended.z_matrix() - x_intended

    # the audit measures the odds gap against obstacle-free labels:
    # received labels would let an unequal-access deployment look
    # outcome-equal on the very data its obstacles distorted
    def audited_outcome(preds):
        return eo_violation(preds, y_free[test_idx], groups[test_idx], cfg.epsilon)

    # omega's definedness rests on the held-out labels and groups, never on
    # a cut: decided once, it skips every walk and each regime records it once
    omega_undefined = None
    try:
        audited_outcome(np.zeros(test_idx.size, dtype=int))
    except UndefinedRateError as exc:
        omega_undefined = f"omega undefined: {exc}"

    access_axis, outcome_axis, util_axis = _regime_axes(cfg)
    regimes: list[RegimeResult] = []
    for eq_access in access_axis:
        access_policy = Policy(float("inf")) if eq_access else Policy(0.0)
        x_rev, y_rev, accessed = reveal_population(views.proxy, views.om_proxy, access_policy)
        access_report = access_from_mask(accessed, groups)
        # one score per student: the threshold search ranks pairs on the
        # train rows' scores, and every deployment of this setting cuts them
        scores = predict_proba(proxy_model, x_rev)

        for eq_outcome in outcome_axis:
            degenerate: list[str] = []
            cutoffs = proxy_model.decision_threshold
            outcome_report = None
            if eq_outcome:
                # the decision-maker walks threshold pairs ranked on the data
                # they receive, stopping once the audited gap clears tau_o;
                # failing that, the best pair found within the cap stands
                try:
                    pairs = candidate_group_thresholds(
                        scores[train_idx], y_rev[train_idx], groups[train_idx],
                        proxy_model.decision_threshold, tau_o=cfg.tau_o, k=25,
                    )
                except ValidationError as exc:
                    degenerate.append(f"outcome equalization skipped: {exc}")
                    pairs = []
                for thresholds in () if omega_undefined else pairs:
                    pair_cutoffs = group_cutoffs(groups, thresholds)
                    candidate = audited_outcome((scores[test_idx] >= pair_cutoffs[test_idx]).astype(int))
                    if outcome_report is None or candidate.eo_violation < outcome_report.eo_violation:
                        outcome_report, cutoffs = candidate, pair_cutoffs
                    if candidate.eo_violation <= cfg.tau_o:
                        break

            # admissibility is a population-level figure: who would this
            # deployment admit, across every student in the file
            preds_all = (scores >= cutoffs).astype(int)
            admissibility = {g: float(np.mean(preds_all[groups == g])) for g in (0, 1)}
            preds_test = preds_all[test_idx]
            if omega_undefined:
                degenerate.append(omega_undefined)
            elif outcome_report is None:
                outcome_report = audited_outcome(preds_test)

            accepted_rows = test_idx[preds_test == 1]
            if accepted_rows.size == 0:
                degenerate.append("no admitted students to evaluate")
            x_accepted, uplift_accepted = x_intended[accepted_rows], uplift_t[accepted_rows]

            for eq_util in util_axis:
                util_report = None
                if accepted_rows.size:
                    alleviated = ACCESS_CARRY_FRACTION * eq_access + (1 - ACCESS_CARRY_FRACTION) * eq_util
                    y_tt = np.asarray(predict(intended_model, x_accepted + alleviated * uplift_accepted))
                    util_report = utilization_from_labels(y_tt, groups[accepted_rows])

                report = None
                if outcome_report is not None and util_report is not None:
                    report = EquityReport.from_reports(access_report, outcome_report, util_report, gaps)
                regimes.append(
                    RegimeResult(
                        name=regime_name(eq_access, eq_outcome, eq_util),
                        equal_access=eq_access,
                        equal_outcome=eq_outcome,
                        equal_utilization=eq_util,
                        report=report,
                        admissibility_by_group=dict(admissibility),
                        tp_share=None if util_report is None else util_report.true_positive_share,
                        fp_share=None if util_report is None else util_report.false_positive_share,
                        fp_share_by_group={} if util_report is None else util_report.per_group_fp_share,
                        degenerate=tuple(degenerate),
                    )
                )

    return CaseStudyResult(
        regimes=tuple(regimes),
        gaps=gaps,
        proxy_model=proxy_model,
        intended_model=intended_model,
    )


def _require_columns(header, names) -> None:
    """Refuse a header without every one of ``names``, naming each missing one in order."""
    missing = [c for c in names if c not in header]
    if missing:
        raise DataFormatError(f"missing expected columns: {', '.join(missing)}")


def _integer_fault(exc, cell, row, column) -> DataFormatError:
    return DataFormatError(f"expected an integer, got {cell!r}", row=row, column=column)


def load_audit_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a generic audit file: comma-delimited UTF-8 with pred,label,group.

    An optional ``y_tt`` column enables the utilization report. Returns
    (preds, labels, groups, y_tt-or-None), each an int8 array when every
    value in it lies in [-128, 127] (an empty column too, and every column
    of a valid log) and an int64 array otherwise, whichever reader took
    the file.
    """
    path = Path(path)

    def plan(header):
        _require_columns(header, ("pred", "label", "group"))
        names = ("pred", "label", "group", "y_tt") if "y_tt" in header else ("pred", "label", "group")
        return [(name, int) for name in names]

    _, (preds, labels, groups, *y_tt) = _read_csv_columns(path, plan, _integer_fault)
    return preds, labels, groups, y_tt[0] if y_tt else None


def _row_fault(exc, cell, row, column) -> DataFormatError:
    return DataFormatError(f"bad row: {exc}", row=row)


def _x_features(header: list[str]) -> list[str]:
    return [c[2:] for c in header if c.startswith("x_")]


def load_population_csv(path: str | Path) -> Population:
    """Read a UTF-8 population file: id, group, y, y_prime, x_<f>..., z_<f>... columns."""
    path = Path(path)

    def plan(header):
        feature_names = _x_features(header)
        if not feature_names:
            raise DataFormatError("no x_<feature> columns found")
        _require_columns(header, [f"z_{f}" for f in feature_names] + ["id", "group", "y", "y_prime"])
        features = [f"x_{f}" for f in feature_names] + [f"z_{f}" for f in feature_names]
        labels = [("y", int), ("y_prime", int), ("group", int), ("id", str)]
        return [(name, float) for name in features] + labels

    header, (*xz, y, y_prime, grp, ids) = _read_csv_columns(path, plan, _row_fault)
    d = len(xz) // 2
    try:
        return Population(
            np.column_stack(xz[:d]), np.column_stack(xz[d:]), y, y_prime, grp, ids,
            _x_features(header),
        )
    except ValidationError as exc:  # a value check failed: name its data row
        if exc.row is None:
            raise
        raise DataFormatError(f"bad row: {exc}", row=exc.row + 1) from None


def _obstacle_model(doc: dict, where: str, n: int, per: str) -> ObstacleModel | None:
    """The obstacle model of ``doc``'s ``alpha`` (``n`` numbers) and ``affected_features``; None without ``alpha``."""
    if "alpha" in doc and not (is_list_of(doc["alpha"], is_number) and len(doc["alpha"]) == n):
        raise DataFormatError(f"{where}: 'alpha' must list one number per {per} ({n})")
    if "affected_features" not in doc:
        return ObstacleModel.from_alpha(np.asarray(doc["alpha"], dtype=float)) if "alpha" in doc else None
    if not is_list_of(doc["affected_features"], is_index):
        raise DataFormatError(f"{where}: 'affected_features' must be a list of feature indices")
    if "alpha" not in doc:
        raise DataFormatError(f"{where}: 'affected_features' needs 'alpha'")
    return ObstacleModel(np.asarray(doc["alpha"], dtype=float), frozenset(doc["affected_features"]))


def load_model_document(path: str | Path) -> tuple[list[str], np.ndarray, ObstacleModel | None]:
    """Read a model JSON document for gap computation.

    Accepts either a serialized trained model or a minimal document with
    ``feature_names`` and ``importance`` (optionally ``alpha``, and only
    beside it ``affected_features``, describing its obstacle structure).
    The shape of every field is checked before any value is converted:
    each fault is a DataFormatError (exit 2) naming the field.
    """
    path = Path(path)
    doc = read_json(path)
    if "feature_names" not in doc or "importance" not in doc:
        raise DataFormatError(f"{path} must contain feature_names and importance")
    if not is_list_of(doc["feature_names"], lambda f: isinstance(f, str)):
        raise DataFormatError(f"{path}: 'feature_names' must be a list of feature names")
    features = doc["feature_names"]
    if not (is_list_of(doc["importance"], is_number) and len(doc["importance"]) == len(features)):
        raise DataFormatError(f"{path}: 'importance' must list one number per feature name ({len(features)})")
    om = _obstacle_model(doc, str(path), len(features), "feature name")
    return features, np.asarray(doc["importance"], dtype=float), om


def _policy(value, where: str) -> Policy:
    if value != "inf" and not is_number(value):
        raise DataFormatError(f"{where}: policy delta must be a number or 'inf', got {value!r}")
    return Policy(float(value))


def _model_spec(spec, where: str) -> ModelSpec:
    if not isinstance(spec, dict) or "features" not in spec:
        raise DataFormatError(f"{where} must be a JSON object with 'features'")
    if not is_list_of(spec["features"], lambda f: isinstance(f, str)):
        raise DataFormatError(f"{where}: 'features' must be a list of feature names")
    function_class = spec.get("function_class", "logistic_regression")
    if not isinstance(function_class, str):
        raise DataFormatError(f"{where}: 'function_class' must be a string")
    hyperparams = spec.get("hyperparams", {})
    if not isinstance(hyperparams, dict) or not all(map(is_number, hyperparams.values())):
        raise DataFormatError(f"{where}: 'hyperparams' must be an object of numbers")
    return ModelSpec(tuple(spec["features"]), function_class, dict(hyperparams))


def _model_space(doc, label: str, base: Path) -> ModelSpace:
    """Build one space from its document, its shape checked first; a relative ``dataset`` is read from ``base``."""
    if not isinstance(doc, dict):
        raise DataFormatError(f"{label} space must be a JSON object")
    for key in ("dataset", "alpha", "specs", "policies"):
        if key not in doc:
            raise DataFormatError(f"{label} space is missing {key!r}")
    if not isinstance(doc["dataset"], str):
        raise DataFormatError(f"{label} space: 'dataset' must be a path string")
    pop = load_population_csv(base / doc["dataset"])
    om = _obstacle_model(doc, f"{label} space", len(pop.feature_names), "dataset feature")
    if not isinstance(doc["specs"], list):
        raise DataFormatError(f"{label} space: 'specs' must be a list")
    specs = tuple(_model_spec(spec, f"{label} space: spec {k}") for k, spec in enumerate(doc["specs"]))
    if not isinstance(doc["policies"], list):
        raise DataFormatError(f"{label} space: 'policies' must be a list")
    policies = tuple(_policy(v, f"{label} space") for v in doc["policies"])
    return ModelSpace(specs, pop, om, policies)


def load_spaces_document(path: str | Path) -> tuple[ModelSpace, ModelSpace]:
    """Read the ``proxy`` and ``intended`` model spaces of a spaces JSON document for ``score``.

    A relative ``dataset`` path is read from the document's directory. Every
    fault in the document is a DataFormatError (exit 2) naming the space and the key.
    """
    path = Path(path)
    doc = read_json(path)
    for key in ("proxy", "intended"):
        if key not in doc:
            raise DataFormatError(f"spaces document is missing {key!r}")
    return _model_space(doc["proxy"], "proxy", path.parent), _model_space(doc["intended"], "intended", path.parent)
