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
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, product
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
from .inputs import decode_error, open_error, read_json
from .learner import (
    ModelSpec,
    TrainedModel,
    candidate_group_thresholds,
    predict,
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
from .scoring import _split_indices

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
    """Parsed student file: column order plus typed row dicts."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


@contextmanager
def _text_file(path: Path):
    """A UTF-8 file opened for ``csv.reader``; an unopenable path or undecodable bytes raise DataFormatError."""
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise open_error(path, exc) from None
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
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

    Known numeric columns are converted to int; everything else stays a
    string. Malformed cells raise with the data row number (1-based) and
    column name.
    """
    path = Path(path)
    with _text_file(path) as fh:
        reader = csv.reader(fh, delimiter=";")
        columns = tuple(col.strip().strip('"') for col in _header_row(reader, path))
        missing = [c for c in REQUIRED_COLUMNS if c not in columns]
        if missing:
            raise DataFormatError(
                f"missing expected columns: {', '.join(missing)}"
            )
        numeric = set(UCI_NUMERIC_COLUMNS) & set(columns)
        rows = []
        rownum = 0
        try:
            for rownum, raw in enumerate(reader, start=1):
                if len(raw) != len(columns):
                    raise DataFormatError(
                        f"expected {len(columns)} fields, found {len(raw)}", row=rownum
                    )
                parsed = {}
                for col, cell in zip(columns, raw):
                    cell = cell.strip().strip('"')
                    if col in numeric:
                        try:
                            parsed[col] = int(cell)
                        except ValueError:
                            raise DataFormatError(
                                f"expected an integer, got {cell!r}", row=rownum, column=col
                            ) from None
                    else:
                        parsed[col] = cell
                rows.append(parsed)
        except csv.Error as exc:
            raise DataFormatError(f"unreadable row: {exc}", row=rownum + 1) from None
    return StudentTable(columns=columns, rows=tuple(rows))


def derive_obstacle_flags(table: StudentTable) -> np.ndarray:
    """Flag students whose family-background sum is strictly below median."""
    sums = np.empty(len(table), dtype=float)
    for i, row in enumerate(table.rows):
        total = row["famrel"] + row["Medu"] + row["Fedu"]
        for col, mapping in (("paid", YESNO_ORDINAL), ("Mjob", MJOB_ORDINAL), ("Fjob", MJOB_ORDINAL)):
            level = row[col]
            if level not in mapping:
                raise DataFormatError(
                    f"unknown level {level!r}; expected one of {sorted(mapping)}",
                    row=i + 1,
                    column=col,
                )
            total += mapping[level]
        sums[i] = total
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


def _encode_yes_no(value: str, rownum: int, column: str) -> float:
    if value not in YESNO_ORDINAL:
        raise DataFormatError(
            f"unknown level {value!r}; expected 'yes' or 'no'", row=rownum, column=column
        )
    return float(YESNO_ORDINAL[value])


# per-student severity spread around the base uplift step; a constant
# step would preserve within-group ranking and let a single threshold
# undo the obstacle, which no real barrier does
_UPLIFT_SPREAD = (0.5, 1.5)


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
            step = float(cfg.uplift_ordinal_step)
        else:
            step = cfg.uplift_std_fraction * float(np.std(x[:, j]))
        severity = rng.uniform(*_UPLIFT_SPREAD, size=n_flagged)
        z[flags, j] = np.clip(x[flags, j] + severity * step, lo, hi)
    return z


def build_case_study_views(table: StudentTable, cfg: RunConfig) -> CaseStudyViews:
    """Construct both feature views, labels and obstacle structure."""
    n = len(table)
    rng = np.random.default_rng([cfg.seed, 7919])
    flags = derive_obstacle_flags(table)

    sex = np.empty(n, dtype=float)
    for i, row in enumerate(table.rows):
        if row["sex"] not in ("F", "M"):
            raise DataFormatError(
                f"unknown level {row['sex']!r}; expected 'F' or 'M'",
                row=i + 1,
                column="sex",
            )
        sex[i] = 1.0 if row["sex"] == "F" else 0.0

    g1 = np.array(table.column("G1"), dtype=float)
    g2 = np.array(table.column("G2"), dtype=float)
    g3 = np.array(table.column("G3"), dtype=float)
    studytime = np.array(table.column("studytime"), dtype=float)
    famrel = np.array(table.column("famrel"), dtype=float)

    # derived decision columns (seeded, documented in the README)
    test_scores = (g1 + g2) / 2.0
    essay_raw = 3.0 * studytime + 2.0 * famrel + rng.uniform(0.0, 2.0, size=n)
    essay = np.clip((essay_raw - 5.0) / 19.0 * 20.0, 0.0, 20.0)
    grades = g1.copy()
    letter = famrel.copy()
    if "activities" in table.columns:
        extracurricular = np.array(
            [
                _encode_yes_no(row["activities"], i + 1, "activities")
                for i, row in enumerate(table.rows)
            ]
        )
    else:
        extracurricular = (rng.random(n) < 0.5).astype(float)

    proxy_x = np.column_stack(
        [sex, test_scores, essay, grades, letter, extracurricular]
    )
    proxy_z = _uplift(proxy_x, flags, PROXY_FEATURES, PROXY_AFFECTED, _PROXY_RANGES, cfg, rng)

    health = np.array(table.column("health"), dtype=float)
    absences = np.array(table.column("absences"), dtype=float)
    traveltime = np.array(table.column("traveltime"), dtype=float)
    freetime = np.array(table.column("freetime"), dtype=float)
    medu = np.array(table.column("Medu"), dtype=float)
    fedu = np.array(table.column("Fedu"), dtype=float)
    paid = np.array(
        [_encode_yes_no(row["paid"], i + 1, "paid") for i, row in enumerate(table.rows)]
    )
    romantic = np.array(
        [_encode_yes_no(row["romantic"], i + 1, "romantic") for i, row in enumerate(table.rows)]
    )

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
    g3_severity = rng.uniform(*_UPLIFT_SPREAD, size=int(np.sum(flags)))
    g3_free[flags] = np.clip(
        g3[flags] + g3_severity * cfg.uplift_std_fraction * float(np.std(g3)), 0.0, 20.0
    )
    y_prime = (g3_free >= cfg.pass_mark).astype(int)
    ids = [f"s{i}" for i in range(n)]
    groups = sex.astype(int)

    proxy_pop = Population(
        x=proxy_x, z=proxy_z, y=y, y_prime=y_prime, grp=groups, ids=ids,
        feature_names=PROXY_FEATURES, group_name="sex",
    )
    intended_pop = Population(
        x=intended_x, z=intended_z, y=y, y_prime=y_prime, grp=groups, ids=ids,
        feature_names=INTENDED_FEATURES, group_name="sex",
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
class RegimeResult:
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "equal_access": self.equal_access,
            "equal_outcome": self.equal_outcome,
            "equal_utilization": self.equal_utilization,
            "report": None if self.report is None else self.report.to_dict(),
            "admissibility_by_group": {
                str(k): v for k, v in sorted(self.admissibility_by_group.items())
            },
            "tp_share": self.tp_share,
            "fp_share": self.fp_share,
            "fp_share_by_group": {
                str(k): v for k, v in sorted(self.fp_share_by_group.items())
            },
            "degenerate": list(self.degenerate),
        }


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

    def to_dict(self) -> dict:
        return {
            "regimes": [r.to_dict() for r in self.regimes],
            "gaps": self.gaps.to_dict(),
        }


def _regime_settings(cfg: RunConfig) -> list[tuple[bool, bool, bool]]:
    axes = [
        (True, False) if flag is None else (flag,)
        for flag in (cfg.equal_access, cfg.equal_outcome, cfg.equal_utilization)
    ]
    return list(product(*axes))


# Half of a flagged student's uplift is credited to decision-time
# alleviation and half to evaluation-time alleviation: decision-time
# obstacles left unalleviated resurface when the evaluation model scores
# the student, on top of whatever evaluation-side obstacles remain.
ACCESS_CARRY_FRACTION = 0.5


def run_case_study(cfg: RunConfig, views: CaseStudyViews | None = None) -> CaseStudyResult:
    """Audit every requested regime combination on one student file.

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

    ``cfg.seed`` seeds the train/test split and, unless ``views`` are
    given, the views built from ``cfg.input_path``; views built with
    another seed vary the uplift draws apart from the split.
    """
    if views is None:
        views = build_case_study_views(load_uci_students(cfg.input_path), cfg)
    n = len(views.proxy)
    if n < 10:
        raise ValidationError("case study needs at least 10 students")
    train_idx, test_idx = _split_indices(n, cfg.train_fraction, cfg.seed)

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

    regimes: list[RegimeResult] = []
    for eq_access, eq_outcome, eq_util in _regime_settings(cfg):
        name = regime_name(eq_access, eq_outcome, eq_util)
        degenerate: list[str] = []

        access_policy = Policy(float("inf")) if eq_access else Policy(0.0)
        x_rev, y_rev, accessed = reveal_population(views.proxy, views.om_proxy, access_policy)
        access_report = access_from_mask(accessed, groups)

        # the audit measures the odds gap against obstacle-free labels:
        # received labels would let an unequal-access deployment look
        # outcome-equal on the very data its obstacles distorted
        def audited_outcome(preds):
            return eo_violation(preds, y_free[test_idx], groups[test_idx], cfg.epsilon)

        preds_test = np.asarray(predict(proxy_model, x_rev[test_idx]))
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
            for thresholds in pairs:
                candidate_preds = predict_with_group_thresholds(
                    proxy_model, x_rev[test_idx], groups[test_idx], thresholds
                )
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

        util_report = None
        tp_share = fp_share = None
        fp_by_group: dict[int, float] = {}
        accepted_rows = test_idx[preds_test == 1]
        if accepted_rows.size == 0:
            degenerate.append("no admitted students to evaluate")
        else:
            alleviated = ACCESS_CARRY_FRACTION * eq_access + (1 - ACCESS_CARRY_FRACTION) * eq_util
            x_eval = x_intended + alleviated * uplift_t
            y_tt = np.asarray(predict(intended_model, x_eval[accepted_rows]))
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
                name=name,
                equal_access=eq_access,
                equal_outcome=eq_outcome,
                equal_utilization=eq_util,
                report=report,
                admissibility_by_group=admissibility,
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
# characters of text offered to numpy's reader at a time, completed to a line end
_BLOCK_CHARS = 1 << 16
# characters numpy's reader takes otherwise than csv.reader and int()/float()
# do: the quote, '\r', and the separators \x1c-\x1f, which numpy's number
# parser skips as whitespace. Non-ASCII text is kept from numpy as well: its
# integer parser reads some code points as digits.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'
_INT64 = range(-(2**63), 2**63)
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


def _plain_columns(block: str, cols: list) -> list[np.ndarray] | None:
    """The chosen columns of a block of whole lines, read by numpy's C reader.

    None unless the block is plain: ASCII with none of ``_NOT_PLAIN``, no
    line longer than the csv module's field size limit, and read by
    ``np.loadtxt`` without an error or a warning. On plain text numpy
    accepts a subset of what ``csv.reader`` and ``int()``/``float()``
    accept and gives the same values, so any other block (a bad cell, a
    short row, ``1_0``) goes to the csv path, which reports the fault.
    """
    limit = csv.field_size_limit()
    if (
        not block.isascii()
        or any(c in block for c in _NOT_PLAIN)
        or len(block) > limit and max(map(len, block.split("\n"))) > limit
    ):
        return None
    dtype = [(str(k), _DTYPES[convert]) for k, (_, _, convert) in enumerate(cols)]
    with warnings.catch_warnings():
        # e.g. "input contained no data", or an older numpy's float-as-int DeprecationWarning
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                io.StringIO(block), dtype=dtype, delimiter=",", comments=None,
                quotechar=None, usecols=[i for _, i, _ in cols], ndmin=1,
            )
        except (ValueError, Warning):  # what numpy rejects, the csv path reads or reports
            return None
    return [table[name] for name, _ in dtype]


def _read_block(fh) -> str:
    """About ``_BLOCK_CHARS`` characters of ``fh`` up to a line end (or the end); "" at the end."""
    block = fh.read(_BLOCK_CHARS)
    if block and block[-1] != "\n":
        block += fh.readline()
    return block


def _column_batches(fh, cols: list, fault):
    """Yield the chosen columns of the data rows of ``fh``, some rows at a time.

    Plain blocks are read by numpy (``_plain_columns``). From the first
    block that is not plain on, every line goes through ``csv.reader`` and
    ``_convert_batch``: a quoted cell may span lines, so the csv path never
    hands back.
    """
    rows = 0
    while block := _read_block(fh):
        values = _plain_columns(block, cols)
        if values is None:
            break
        yield values
        rows += len(values[0])
    reader = csv.reader(chain(io.StringIO(block, newline=""), fh))
    while True:
        chunk = []
        try:
            chunk.extend(islice(reader, _BATCH_ROWS))
        except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            raise DataFormatError(
                f"unreadable row: {exc}", row=rows + sum(map(bool, chunk)) + 1
            ) from None
        if not chunk:
            return
        batch = list(filter(None, chunk))
        yield _convert_batch(batch, rows + 1, cols, fault)
        rows += len(batch)


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


def _read_csv_columns(path: Path, plan, fault) -> tuple[list[str], list]:
    """Read chosen columns of a comma-delimited UTF-8 file, a block of lines at a time.

    ``plan(header)`` checks the header row and returns ``(name, convert)``
    pairs, ``convert`` being int, float or str, in the order the cells of a
    row are checked; ``fault(exc, cell, row, name)`` builds the error for a
    cell ``convert`` rejects. Returns the header and one column per pair:
    an int64 or float64 array, or a list of str.

    Rows read as ``csv.DictReader`` reads them: blank lines are skipped and
    not counted, a name given twice reads its last column, a short row
    reads None in its missing cells and extra cells are ignored. Cells go
    through Python's own ``int()``/``float()``; an integer outside the
    int64 range is a fault too. Plain text is parsed by numpy instead
    (``_column_batches``), with the same values and the same faults. The
    file is read once, front to back, so a pipe works as an input.
    """
    with _text_file(path) as fh:
        header = _header_row(csv.reader(fh), path)
        columns = plan(header)
        index = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        cols = [(name, index[name], convert) for name, convert in columns]
        stored = [np.empty(_BATCH_ROWS, dtype=_DTYPES[convert]) for _, _, convert in cols]
        done = 0
        for batch in _column_batches(fh, cols, fault):
            for k, values in enumerate(batch):
                stored[k] = _store(stored[k], done, values)
            done += len(batch[0])
    return header, [
        column[:done].tolist() if convert is str else column[:done]
        for (_, _, convert), column in zip(cols, stored)
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


def load_population_csv(path: str | Path, group_name: str = "group") -> Population:
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
            _x_features(header), group_name,
        )
    except ValidationError as exc:  # a value check failed: name its data row
        if exc.row is None:
            raise
        raise DataFormatError(f"bad row: {exc}", row=exc.row + 1) from None


def load_model_document(path: str | Path) -> tuple[list[str], np.ndarray, ObstacleModel | None]:
    """Read a model JSON document for gap computation.

    Accepts either a serialized trained model or a minimal document with
    ``feature_names`` and ``importance`` (optionally ``alpha`` /
    ``affected_features`` describing its obstacle structure).
    """
    path = Path(path)
    doc = read_json(path)
    if "feature_names" not in doc or "importance" not in doc:
        raise DataFormatError(f"{path} must contain feature_names and importance")
    features = [str(f) for f in doc["feature_names"]]
    importance = np.asarray(doc["importance"], dtype=float)
    if importance.shape != (len(features),):
        raise DataFormatError(f"{path}: importance length must match feature_names")
    om = None
    if "alpha" in doc:
        alpha = np.asarray(doc["alpha"], dtype=float)
        if alpha.shape != (len(features),):
            raise DataFormatError(f"{path}: alpha length must match feature_names")
        if "affected_features" in doc:
            om = ObstacleModel(alpha, frozenset(int(i) for i in doc["affected_features"]))
        else:
            om = ObstacleModel.from_alpha(alpha)
    return features, importance, om
