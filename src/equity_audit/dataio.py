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
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
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
from .inputs import decode_error, is_index, is_list_of, is_number, open_error, read_json
from .learner import (
    ModelSpec,
    TrainedModel,
    candidate_group_thresholds,
    group_cutoffs,
    predict,
    predict_proba,
    predict_with_group_thresholds,
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
from .scoring import split_indices

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


def _decoded_lines(raw):
    """The lines of the binary file ``raw``, decoded from UTF-8 about ``_BLOCK_CHARS`` bytes of whole lines at a time.

    Lines break where a ``newline=""`` text file breaks them: at ``\n``,
    ``\r`` and ``\r\n``. A block that does not decode is decoded a line
    at a time, so the lines above its first undecodable byte are yielded
    before the UnicodeDecodeError is raised.
    """
    for block in iter(partial(raw.read, _BLOCK_CHARS), b""):
        if block[-1:] != b"\n":
            block += raw.readline()  # whole lines, so no \r\n is split between blocks
        try:
            lines = io.StringIO(block.decode("utf-8"), newline="")
        except UnicodeDecodeError:
            lines = map(partial(bytes.decode, encoding="utf-8"), block.splitlines(keepends=True))
        yield from lines


@contextmanager
def _text_file(path: Path, parse):
    """The lines of a UTF-8 file for ``csv.reader``, and the open file: as text when it is regular, else as bytes.

    An unopenable path or undecodable bytes raise DataFormatError. A pipe,
    or any other file that is not regular, is read as bytes and decoded by
    ``_decoded_lines``, so the rows above an undecodable byte are checked
    first. A regular file is read through the text layer, which decodes
    ahead of the reader, so an undecodable byte can surface before the
    rows above it are checked. On that error the file is read again by
    ``_decoded_lines`` and ``parse`` runs over its lines: the rows
    complete before the line of the first bad byte are checked by the
    same reader and converters, and a fault among them is raised instead
    of the decode error.
    """
    try:
        raw = path.open("rb")
    except OSError as exc:
        raise open_error(path, exc) from None
    with raw:
        regular = stat.S_ISREG(os.fstat(raw.fileno()).st_mode)
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline="") if regular else raw
        try:
            yield (fh if regular else _decoded_lines(raw)), fh
        except UnicodeDecodeError as exc:
            if regular:
                raw.seek(0)
                try:
                    parse(_decoded_lines(raw))
                except UnicodeDecodeError:
                    pass
            raise decode_error(path, exc) from None


def _header_row(reader, path: Path) -> list[str]:
    try:
        header = next(reader, None)
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise DataFormatError(f"unreadable header row: {exc}") from None
    if header is None:
        raise DataFormatError(f"{path} is empty (no header row)")
    return header


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
    parse = partial(_student_rows, path=path)
    with _text_file(path, parse) as (lines, _):
        columns, rows = parse(lines)
    return StudentTable(columns=columns, data=dict(zip(columns, _student_columns(rows, columns))))


def _student_rows(lines, path: Path) -> tuple[tuple[str, ...], list[list[str]]]:
    """The header's column names and the raw rows of a student file's ``lines``.

    A fault in the header, or a row the csv module or the text layer
    cannot read, is raised after any fault in an earlier row.
    """
    reader = csv.reader(lines, delimiter=";")
    columns = tuple(col.strip().strip('"') for col in _header_row(reader, path))
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise DataFormatError(
            f"missing expected columns: {', '.join(missing)}"
        )
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
    return sums < np.median(sums)


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


def build_case_study_views(table: StudentTable, cfg: RunConfig) -> CaseStudyViews:
    """Construct both feature views, labels and obstacle structure."""
    n = len(table)
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
    g3_free = g3.copy()
    _check_largest_draw(
        _UPLIFT_SPREAD[1] * cfg.uplift_std_fraction * float(np.std(g3)), "uplift_std_fraction"
    )
    g3_severity = rng.uniform(*_UPLIFT_SPREAD, size=int(np.sum(flags)))
    g3_free[flags] = np.clip(
        g3[flags] + g3_severity * cfg.uplift_std_fraction * float(np.std(g3)), 0.0, 20.0
    )
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
    proxy_model: TrainedModel | None = None
    intended_model: TrainedModel | None = None

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
    the revealed data and the access report per access setting, the
    threshold walk, the outcome report and the admits per (access,
    outcome), and only the evaluation per regime. Regimes come in the
    order of ``itertools.product`` over the three switches.

    ``cfg.seed`` seeds the train/test split; views built with another
    seed vary the uplift draws apart from the split.
    """
    n = len(views.proxy)
    if n < 10:
        raise ValidationError("case study needs at least 10 students")
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

    access_axis, outcome_axis, util_axis = _regime_axes(cfg)
    regimes: list[RegimeResult] = []
    for eq_access in access_axis:
        access_policy = Policy(float("inf")) if eq_access else Policy(0.0)
        x_rev, y_rev, accessed = reveal_population(views.proxy, views.om_proxy, access_policy)
        access_report = access_from_mask(accessed, groups)
        base_preds = np.asarray(predict(proxy_model, x_rev[test_idx]))

        for eq_outcome in outcome_axis:
            degenerate: list[str] = []
            preds_test = base_preds
            outcome_report = None
            selected_thresholds = None
            if eq_outcome:
                # the decision-maker walks threshold pairs ranked on the data
                # they receive, stopping once the audited gap clears tau_o;
                # failing that, the best pair found within the cap stands
                try:
                    pairs = candidate_group_thresholds(
                        proxy_model,
                        x_rev[train_idx],
                        y_rev[train_idx],
                        groups[train_idx],
                        tau_o=cfg.tau_o,
                        k=25,
                    )
                except ValidationError as exc:
                    degenerate.append(f"outcome equalization skipped: {exc}")
                    pairs = []
                best = None
                # scored once, cut per pair as predict_with_group_thresholds cuts
                test_scores = np.asarray(predict_proba(proxy_model, x_rev[test_idx]), dtype=float)
                for thresholds in pairs:
                    candidate_preds = (test_scores >= group_cutoffs(groups[test_idx], thresholds)).astype(int)
                    try:
                        candidate_report = audited_outcome(candidate_preds)
                    except UndefinedRateError as exc:
                        degenerate.append(f"omega undefined: {exc}")
                        break
                    if best is None or candidate_report.eo_violation < best[0].eo_violation:
                        best = (candidate_report, candidate_preds, thresholds)
                    if candidate_report.eo_violation <= cfg.tau_o:
                        break
                if best is not None:
                    outcome_report, preds_test, selected_thresholds = best
            if outcome_report is None:
                try:
                    outcome_report = audited_outcome(preds_test)
                except UndefinedRateError as exc:
                    degenerate.append(f"omega undefined: {exc}")

            # admissibility is a population-level figure: who would this
            # deployment admit, across every student in the file
            if selected_thresholds is not None:
                preds_all = predict_with_group_thresholds(
                    proxy_model, x_rev, groups, selected_thresholds
                )
            else:
                preds_all = np.asarray(predict(proxy_model, x_rev))
            admissibility = {g: float(np.mean(preds_all[groups == g])) for g in (0, 1)}

            accepted_rows = test_idx[preds_test == 1]
            if accepted_rows.size == 0:
                degenerate.append("no admitted students to evaluate")
            x_accepted, uplift_accepted = x_intended[accepted_rows], uplift_t[accepted_rows]

            for eq_util in util_axis:
                util_report = None
                tp_share = fp_share = None
                fp_by_group: dict[int, float] = {}
                if accepted_rows.size:
                    alleviated = ACCESS_CARRY_FRACTION * eq_access + (1 - ACCESS_CARRY_FRACTION) * eq_util
                    y_tt = np.asarray(predict(intended_model, x_accepted + alleviated * uplift_accepted))
                    util_report = utilization_from_labels(y_tt, groups[accepted_rows])
                    tp_share = util_report.true_positive_share
                    fp_share = util_report.false_positive_share
                    fp_by_group = util_report.per_group_fp_share

                report = None
                if outcome_report is not None and util_report is not None:
                    report = EquityReport.from_reports(
                        access_report, outcome_report, util_report, gaps
                    )
                regimes.append(
                    RegimeResult(
                        name=regime_name(eq_access, eq_outcome, eq_util),
                        equal_access=eq_access,
                        equal_outcome=eq_outcome,
                        equal_utilization=eq_util,
                        report=report,
                        admissibility_by_group=dict(admissibility),
                        tp_share=tp_share,
                        fp_share=fp_share,
                        fp_share_by_group=fp_by_group,
                        degenerate=tuple(degenerate),
                    )
                )

    return CaseStudyResult(
        regimes=tuple(regimes),
        gaps=gaps,
        proxy_model=proxy_model,
        intended_model=intended_model,
    )


# data rows converted at a time; bounds the raw cells held in memory
_BATCH_ROWS = 4096
# characters the plain scan reads at a time, completed to a line end
_BLOCK_CHARS = 1 << 16
# characters of scanned blocks the integer kernel decodes at a time
_KERNEL_CHARS = 1 << 22
# characters numpy's reader takes otherwise than csv.reader and int()/float()
# do: the quote, '\r', and the separators \x1c-\x1f, which numpy's number
# parser skips as whitespace. Non-ASCII text is kept from numpy as well: its
# integer parser reads some code points as digits. The integer kernel's
# blocks have each \r\n line end made \n before this test.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'
# suffixes numpy's reader opens through a decompressor when given a path
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_INT64 = range(-(2**63), 2**63)
# the most digits an ``_int_columns`` cell holds: every such number is in int64
_INT_DIGITS = 18
_COMMA, _NEWLINE, _MINUS, _ZERO = b",\n-0"
# a digit and "," read as one little-endian 16-bit pair, XORed with this,
# give the digit's value; a byte XOR "0" is under 10 only for a digit
_COMMA_PAIR = _COMMA << 8 | _ZERO
# XORed in as well, a digit and "\n" give the digit's value
_NEWLINE_FLIP = (_COMMA ^ _NEWLINE) << 8
_DTYPES = {int: np.int64, float: np.float64, str: object}


def _convert_batch(batch: list, first_row: int, cols: list, fault) -> list[np.ndarray]:
    """Convert the chosen columns of non-blank rows numbered from ``first_row``."""
    try:
        return [
            np.fromiter(map(convert, map(itemgetter(i), batch)), _DTYPES[convert], len(batch))
            for _, i, convert in cols
        ]
    except (IndexError, TypeError, ValueError, OverflowError):
        pass
    # a short row or a bad cell: convert row by row, so the first fault in
    # row order (and within a row, in column order) is the one reported
    values = [[] for _ in cols]
    for rownum, row in enumerate(batch, start=first_row):
        for (name, i, convert), out in zip(cols, values):
            cell = row[i] if i < len(row) else None
            try:
                value = convert(cell)
            except (TypeError, ValueError) as exc:
                raise fault(exc, cell, rownum, name) from None
            if convert is int and value not in _INT64:
                raise DataFormatError(f"integer out of range, got {cell!r}", row=rownum, column=name)
            out.append(value)
    return [np.fromiter(out, _DTYPES[convert], len(out)) for (_, _, convert), out in zip(cols, values)]


def _is_plain(block: str) -> bool:
    """Whether a block of whole lines is plain: ASCII, none of ``_NOT_PLAIN``, no line over the field size limit."""
    limit = csv.field_size_limit()
    return (
        block.isascii()
        and not any(c in block for c in _NOT_PLAIN)
        and not (len(block) > limit and max(map(len, block.split("\n"))) > limit)
    )


def _loadtxt(path: str, cols: list, skiprows: int) -> list[np.ndarray] | None:
    """The chosen columns of the file at ``path``, read by ``np.loadtxt``; None on an error or a warning.

    On plain text (``_is_plain``) numpy accepts a subset of what
    ``csv.reader`` and ``int()``/``float()`` accept and gives the same
    values, so any other text (a bad cell, a short row, ``1_0``) goes to
    the csv path, which reports the fault.

    Each column is a view into one structured table. Copying the table
    into contiguous columns made a 200k-row ``audit`` no faster (2-core
    VM, numpy 2.4): the copy cost what the strided passes saved. All-integer
    plans are read by ``_int_columns`` instead.
    """
    dtype = [(str(k), _DTYPES[convert]) for k, (_, _, convert) in enumerate(cols)]
    with warnings.catch_warnings():
        # e.g. "input contained no data", or an older numpy's float-as-int DeprecationWarning
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                usecols=[i for _, i, _ in cols], ndmin=1, skiprows=skiprows, encoding="utf-8",
            )
        # what numpy rejects, the csv path reads or reports; OSError: a path gone since the scan
        except (OSError, ValueError, Warning):
            return None
    return [table[name] for name, _ in dtype]


def _int_columns(text: str, width: int, indices: list[int]) -> list[np.ndarray] | None:
    """Columns ``indices`` of plain all-integer text, one C-contiguous int64 array each; else None.

    ``text`` is whole lines the plain scan (``_is_plain``) cleared. It is
    taken only when every row has exactly ``width`` cells and ends at a
    newline (the last row may end the text instead) and every cell of
    ``indices`` matches ``-?[0-9]{1,18}``. Such a cell is one ``int()``
    reads, to the same value, inside the int64 range. Anything else (a
    blank, short or long row, a sign or space ``int()`` would strip, a
    longer number) is None, and the csv path reads the text or reports
    its fault.

    Text whose every cell is one digit is read as a byte grid
    (``_grid_columns``). Any other text, or text the grid turns down,
    goes to the separator scan (``_separated_columns``), which reads
    cells of any width; both give the same values.
    """
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    if data.size and data[-1] != _NEWLINE:
        data = np.append(data, np.uint8(_NEWLINE))
    columns = _grid_columns(data, width, indices)
    return _separated_columns(data, width, indices) if columns is None else columns


def _grid_columns(data: np.ndarray, width: int, indices: list[int]) -> list[np.ndarray] | None:
    """Columns ``indices`` of newline-ended text whose every cell is one digit, read as a byte grid; else None.

    Such text is rows of ``2 * width`` bytes: a digit at every even
    offset, and ``,`` at every odd offset but the last, which is ``\\n``.
    Each cell and the separator after it are read as one 16-bit pair and
    XORed with its template (``_COMMA_PAIR``, and ``_NEWLINE_FLIP`` too
    at a row's end), which leaves the digit's value in a pair that fits
    and 10 or more in any other. The pairs are the one working array.
    """
    if data.size % (2 * width):
        return None
    pairs = data.view("<u2") ^ np.uint16(_COMMA_PAIR)
    cells = pairs.reshape(-1, width)
    cells[:, -1] ^= np.uint16(_NEWLINE_FLIP)
    if pairs.max(initial=0) > 9:
        return None
    return [cells[:, i].astype(np.int64) for i in indices]


def _separated_columns(data: np.ndarray, width: int, indices: list[int]) -> list[np.ndarray] | None:
    """Columns ``indices`` of newline-ended text with cells of any width, found by a scan for separators; else None."""
    newline = data == _NEWLINE
    separator = newline | (data == _COMMA)
    ends = np.flatnonzero(separator)
    rows = len(ends) // width
    # rows of the grid are lines only if its last column holds every newline
    if len(ends) % width or np.count_nonzero(newline) != rows or not newline[ends[width - 1::width]].all():
        return None
    # at each separator: the byte before it as a digit (a byte below "0"
    # wraps past 9) where that byte is its cell's only one, else 255
    lone = np.concatenate(([np.uint8(255)], data[:-1] - np.uint8(_ZERO)))
    lone[2:] |= ~separator[:-2] * np.uint8(255)
    lone = lone[ends].reshape(rows, width)
    columns = []
    for i in indices:
        column = lone[:, i].astype(np.int64)
        others = np.flatnonzero(column > 9)  # longer cells, and cells that are no integer
        if others.size:
            cells = others * width + i
            values = _int_cells(data, np.where(cells > 0, ends[cells - 1] + 1, 0), ends[cells])
            if values is None:
                return None
            column[others] = values
        columns.append(column)
    return columns


def _int_cells(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The integers of the cells ``data[starts:ends]``, decoded by digit position; None if one is no ``-?[0-9]{1,18}``."""
    digits = ends - starts
    signed = np.flatnonzero(digits > 1)  # a lone "-" is left to fail as a digit
    negative = signed[data[starts[signed]] == _MINUS]
    digits[negative] -= 1
    if digits.min() < 1 or digits.max() > _INT_DIGITS:
        return None
    values = np.zeros(len(ends), np.int64)
    for k in range(digits.max()):
        rows = np.flatnonzero(digits > k)
        place = data[ends[rows] - (k + 1)] - np.uint8(_ZERO)
        if place.max() > 9:
            return None
        values[rows] += place * np.int64(10**k)
    values[negative] *= -1
    return values


def _file_identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _whole_file_columns(fh, path: Path, header_lines: int, width: int, cols: list) -> list[np.ndarray] | None:
    """The chosen columns of a plain regular file, read whole by a numpy reader.

    ``fh`` is the file opened at ``path``, read up to the end of its
    header, which took ``header_lines`` physical lines and names ``width``
    columns. Its text is read block by block and each block must pass the
    plain test, so no reader parses text the scan did not clear:

    - an all-integer plan is decoded by ``_int_columns`` as the blocks
      are read, about ``_KERNEL_CHARS`` characters at a time
      (``_int_blocks``): as a fixed byte grid when every cell is one
      digit, else by a scan for separators. It reads that very text and
      never the path again;
    - any other plan is read by ``np.loadtxt`` from ``path`` once every
      block has passed, and the table is kept only when numpy read it
      without an error or a warning and ``path`` still names the file
      scanned: the same device, inode, size and modification time.

    Otherwise None, with ``fh`` rewound to the line after the header. A
    pipe or any other file that is not regular, and a plan for
    ``np.loadtxt`` whose path numpy would decompress, get None before
    anything is read; the integer kernel reads a file of any name.
    """
    before = os.fstat(fh.fileno())
    ints = all(convert is int for _, _, convert in cols)
    if not stat.S_ISREG(before.st_mode) or (not ints and path.suffix in _COMPRESSED_SUFFIXES):
        return None
    blocks = iter(partial(_read_block, fh), "")
    values = None
    try:  # on a UnicodeDecodeError the csv path raises it where the row order puts it
        if ints:
            values = _int_blocks(blocks, width, [i for _, i, _ in cols])
        elif all(map(_is_plain, blocks)):
            values = _loadtxt(os.fspath(path), cols, header_lines)
            try:
                same = _file_identity(os.stat(path)) == _file_identity(before)
            except OSError:
                same = False
            if not same:
                values = None
    except UnicodeDecodeError:
        pass
    if values is None:
        fh.seek(0)
        for _ in range(header_lines):
            fh.readline()
    return values


def _int_blocks(blocks, width: int, indices: list[int]) -> list[np.ndarray] | None:
    """Columns ``indices`` of the text of ``blocks``, every block plain, read by ``_int_columns``; else None.

    A ``\r\n`` line end is read as ``\n``, as the csv module reads it; a
    ``\r`` anywhere else leaves its block not plain. The blocks are
    decoded about ``_KERNEL_CHARS`` characters at a time, which bounds
    the kernel's working arrays on a large file.
    """
    pieces, chunk, size = [], [], 0
    for block in chain(blocks, [""]):  # "" ends the last chunk
        if "\r" in block:  # on a 64k block the test takes about 1 us, replace about 100 us
            block = block.replace("\r\n", "\n")
        if not _is_plain(block):
            return None
        chunk.append(block)
        size += len(block)
        if size >= _KERNEL_CHARS or not block:
            text, chunk, size = "".join(chunk), [], 0
            values = _int_columns(text, width, indices)
            if values is None:
                return None
            pieces.append(values)
    return pieces[0] if len(pieces) == 1 else [np.concatenate(column) for column in zip(*pieces)]


def _read_block(fh) -> str:
    """About ``_BLOCK_CHARS`` characters of ``fh`` up to a line end (or the end); "" at the end."""
    block = fh.read(_BLOCK_CHARS)
    if block and block[-1] != "\n":
        block += fh.readline()
    return block


def _store(column: np.ndarray, start: int, values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` written from ``start``, doubled in length when full.

    Growing one buffer per column, rather than keeping every batch's arrays
    until the end, leaves no trail of small blocks behind in the heap.
    """
    end = start + len(values)
    if end > len(column):
        grown = np.empty(max(end, 2 * len(column)), dtype=column.dtype)
        grown[:start] = column[:start]
        column = grown
    column[start:end] = values
    return column


def _stored_columns(reader, cols: list, fault) -> list[np.ndarray]:
    """The chosen columns of the rows ``reader`` yields, converted ``_BATCH_ROWS`` rows at a time."""
    stored = [np.empty(_BATCH_ROWS, dtype=_DTYPES[convert]) for _, _, convert in cols]
    done = 0
    while True:
        chunk = []
        try:
            chunk.extend(islice(reader, _BATCH_ROWS))
        except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            batch = list(filter(None, chunk))
            _convert_batch(batch, done + 1, cols, fault)  # a fault in an earlier row comes first
            raise DataFormatError(f"unreadable row: {exc}", row=done + len(batch) + 1) from None
        except UnicodeDecodeError:
            _convert_batch(list(filter(None, chunk)), done + 1, cols, fault)
            raise
        if not chunk:
            return [column[:done] for column in stored]
        batch = list(filter(None, chunk))
        for k, values in enumerate(_convert_batch(batch, done + 1, cols, fault)):
            stored[k] = _store(stored[k], done, values)
        done += len(batch)


def _read_csv_columns(path: Path, plan, fault) -> tuple[list[str], list]:
    """Read chosen columns of a comma-delimited UTF-8 file.

    ``plan(header)`` checks the header row and returns ``(name, convert)``
    pairs, ``convert`` being int, float or str, in the order the cells of a
    row are checked; ``fault(exc, cell, row, name)`` builds the error for a
    cell ``convert`` rejects. Returns the header and one column per pair:
    an int64 or float64 array, or a list of str.

    Rows read as ``csv.DictReader`` reads them: blank lines are skipped and
    not counted, a name given twice reads its last column, a short row
    reads None in its missing cells and extra cells are ignored. Cells go
    through Python's own ``int()``/``float()``; an integer outside the
    int64 range is a fault too.

    Three readers give the same values and the same faults. A regular
    file whose text after the header is plain throughout (``_is_plain``)
    is read whole by a numpy reader (``_whole_file_columns``): the
    integer kernel (``_int_columns``; a byte grid where every cell is one
    digit) when every pair converts by int, with ``\r\n`` line ends read
    as ``\n``; else ``np.loadtxt`` from the path, when numpy would not
    decompress that name. Every other body is read from the line after
    the header by the header's own ``csv.reader`` (``_stored_columns``):
    a pipe (its lines decoded by ``_decoded_lines``), a compressed suffix
    on a ``np.loadtxt`` plan, a byte that is not plain, a body the kernel
    or numpy turns down or numpy warns on, and a file changed since the
    scan.
    """
    def parse(lines, fh=None):  # fh: the open file, None on the retry after a decode error
        reader = csv.reader(lines)
        header = _header_row(reader, path)
        columns = plan(header)
        index = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        cols = [(name, index[name], convert) for name, convert in columns]
        values = None if fh is None else _whole_file_columns(fh, path, reader.line_num, len(header), cols)
        if values is None:
            values = _stored_columns(reader, cols, fault)
        return header, cols, values

    with _text_file(path, parse) as (lines, fh):
        header, cols, values = parse(lines, fh)
    return header, [
        column.tolist() if convert is str else column
        for (_, _, convert), column in zip(cols, values)
    ]


def _integer_fault(exc, cell, row, column) -> DataFormatError:
    return DataFormatError(f"expected an integer, got {cell!r}", row=row, column=column)


def load_audit_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a generic audit file: comma-delimited UTF-8 with pred,label,group.

    An optional ``y_tt`` column enables the utilization report. Returns
    (preds, labels, groups, y_tt-or-None) as int64 arrays.
    """
    path = Path(path)

    def plan(header):
        missing = [c for c in ("pred", "label", "group") if c not in header]
        if missing:
            raise DataFormatError(f"missing expected columns: {', '.join(missing)}")
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
        for f in feature_names:
            if f"z_{f}" not in header:
                raise DataFormatError(f"missing expected columns: z_{f}")
        for col in ("id", "group", "y", "y_prime"):
            if col not in header:
                raise DataFormatError(f"missing expected columns: {col}")
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


def load_model_document(path: str | Path) -> tuple[list[str], np.ndarray, ObstacleModel | None]:
    """Read a model JSON document for gap computation.

    Accepts either a serialized trained model or a minimal document with
    ``feature_names`` and ``importance`` (optionally ``alpha`` /
    ``affected_features`` describing its obstacle structure). The shape of
    every field is checked before any value is converted: each fault is a
    DataFormatError (exit 2) naming the field.
    """
    path = Path(path)
    doc = read_json(path)
    if "feature_names" not in doc or "importance" not in doc:
        raise DataFormatError(f"{path} must contain feature_names and importance")
    if not is_list_of(doc["feature_names"], lambda f: isinstance(f, str)):
        raise DataFormatError(f"{path}: 'feature_names' must be a list of feature names")
    features = doc["feature_names"]
    for key in ("importance", "alpha"):
        if key in doc and not (is_list_of(doc[key], is_number) and len(doc[key]) == len(features)):
            raise DataFormatError(
                f"{path}: '{key}' must list one number per feature name ({len(features)})"
            )
    if "affected_features" in doc and not is_list_of(doc["affected_features"], is_index):
        raise DataFormatError(f"{path}: 'affected_features' must be a list of feature indices")
    importance = np.asarray(doc["importance"], dtype=float)
    om = None
    if "alpha" in doc:
        alpha = np.asarray(doc["alpha"], dtype=float)
        if "affected_features" in doc:
            om = ObstacleModel(alpha, frozenset(doc["affected_features"]))
        else:
            om = ObstacleModel.from_alpha(alpha)
    return features, importance, om
