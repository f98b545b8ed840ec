"""Measured quantities: access, outcomes, utilization, proxy gaps, score.

Definitions, all computed by exact counting:

* model access ``psi``: fraction of a population whose obstacle magnitude
  is zero or fully alleviated under the policy.
* model outcomes ``eo_violation`` (``omega``): |TPR0 - TPR1| + |FPR0 - FPR1|
  across the two protected groups. Absolute values are used so opposite-sign
  rate gaps cannot cancel into a fake zero. A group with no positives (TPR
  undefined) or no negatives (FPR undefined) raises
  :class:`~equity_audit.errors.UndefinedRateError` rather than defaulting.
* model utilization ``zeta``: among individuals the deployed model accepted,
  the fraction the evaluation model also marks positive.
* feature gap ``gamma_x``: per evaluation-model feature, 0 when the deployed
  model reads a feature of the same (normalized) name, 1 otherwise.
* label gap ``gamma_l``: per evaluation-model feature, the importance
  difference when the feature is name-matched with agreeing sign, and the
  evaluation model's own importance otherwise.
* obstacle gap: a descriptive pair (how many evaluation-side affected
  features have no name match among deployed-side affected features, plus
  the L1 distance of the constraint weights on name-matched features). It
  is reported, never folded into the score.
* equity score: ``psi + (1 - min(omega, 1)) + zeta`` in [0, 3]; 3 exactly at
  the perfect point psi=1, omega=0, zeta=1.

Omega and zeta are counted in one place, :func:`_count_log`: a 16-cell
table over (evaluation label where accepted, group, label, prediction),
with groups 0 and 1. :func:`eo_violation`, :func:`utilization_from_labels`
and :func:`audit_reports` read their reports from it, and so does the
inequity loop.

All reports are immutable :class:`~equity_audit.reports.Record` values, whose
``to_dict`` gives their JSON form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import ObstacleModel, Policy, Population, _distinct, _obstacle_access
from .errors import NoPositivesError, UndefinedRateError, ValidationError
from .reports import Record

DEFAULT_OUTCOME_EPSILON = 1e-9


@dataclass(frozen=True)
class AccessReport(Record):
    psi: float
    per_individual: tuple[bool, ...]
    per_group: dict[int, float]


@dataclass(frozen=True)
class OutcomeReport(Record):
    eo_violation: float
    tpr_by_group: dict[int, float]
    fpr_by_group: dict[int, float]
    equal_outcomes: bool


@dataclass(frozen=True)
class EvaluationRecord:
    """One accepted individual and what the evaluation model said later."""

    id: str
    y_pt: int
    y_tt: int
    grp: int


@dataclass(frozen=True)
class UtilizationReport(Record):
    zeta: float
    m: int
    true_positive_share: float
    false_positive_share: float
    per_group_fp_share: dict[int, float]


@dataclass(frozen=True)
class ObstacleGap(Record):
    unmatched_affected_features: int
    alpha_l1_distance_on_matched: float


@dataclass(frozen=True)
class GapReport(Record):
    gamma_x: tuple[int, ...]
    gamma_l: tuple[float, ...]
    obstacle_gap: ObstacleGap | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquityReport(Record):
    access: AccessReport
    outcome: OutcomeReport
    utilization: UtilizationReport
    gaps: GapReport | None
    score: float

    @classmethod
    def from_reports(
        cls,
        access: AccessReport,
        outcome: OutcomeReport,
        utilization: UtilizationReport,
        gaps: GapReport | None = None,
    ) -> "EquityReport":
        return cls(
            access=access,
            outcome=outcome,
            utilization=utilization,
            gaps=gaps,
            score=equity_score(access, outcome, utilization),
        )


def access_from_mask(accessed: np.ndarray, groups: np.ndarray) -> AccessReport:
    """psi, per-person flags and per-group rates of a nonempty access mask.

    The mask is the one :func:`~equity_audit.core.reveal_population`
    returns, so a caller that reveals need not compute access again.
    """
    per_group = {
        int(g): float(np.mean(accessed[groups == g])) for g in _distinct(groups)
    }
    return AccessReport(
        psi=float(np.mean(accessed)),
        per_individual=tuple(accessed.tolist()),
        per_group=per_group,
    )


def model_access(pop: Population, om: ObstacleModel, policy: Policy) -> AccessReport:
    """Fraction of the population with zero or fully alleviated obstacles."""
    if len(pop) == 0:
        raise ValidationError("model_access requires a nonempty population")
    flags = _obstacle_access(pop.x_matrix(), pop.z_matrix(), om.alpha, policy.delta, pop.ids())
    return access_from_mask(flags, pop.groups())


def eo_violation(
    preds, labels, groups, epsilon: float = DEFAULT_OUTCOME_EPSILON
) -> OutcomeReport:
    """Equalized-odds violation |dTPR| + |dFPR| between groups 0 and 1."""
    return audit_reports(preds, labels, groups, None, epsilon)[0]


def _groups_missing(present: list[int]) -> ValidationError:
    return ValidationError(f"both groups 0 and 1 must be present, got {present}")


def _binary(c: np.ndarray) -> bool:
    """Whether every value of ``c`` is 0 or 1: one OR-reduction for a signed-integer column, ``==`` for any other."""
    if c.dtype.kind == "i":
        return not np.bitwise_or.reduce(c) >> 1
    return bool(np.all((c == 0) | (c == 1)))


def _count_log(p: np.ndarray, y: np.ndarray, g: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    """The count of a log: a (2, 2, 2, 2) table over (t where p is 1, group, label, pred).

    ``p``, ``y`` and ``g`` must be 0/1 vectors of one length, and ``t``, if
    given, a vector of that length that is 0 or 1 wherever ``p`` is 1. The
    values are checked as given, so a 1.5 or a group of 0.5 is never
    truncated to 0/1. A rejected row's ``t``, and every ``t`` when it is
    None, counts as 0. Every omega and zeta the package reports is read
    from this count, by :func:`_outcome_from_table`,
    :func:`_utilization_from_table` and :func:`_group_counts`.

    Signed-integer columns are counted at their own width: the int8
    columns of :func:`~equity_audit.dataio.load_audit_csv` make an int8
    key, and a column of another dtype is cast to int8 once checked. The
    key is counted two rows at a time: each pair of int8 cells read as
    one 16-bit number is under 4096, so ``np.bincount`` widens half as
    many values to intp, and summing the 16 x 16 corner of that count
    along both axes gives each cell's count, on either byte order.
    """
    if not (p.shape == y.shape == g.shape) or p.ndim != 1:
        raise ValidationError("preds, labels and groups must be equal-length vectors")
    if t is not None and t.shape != p.shape:
        raise ValidationError(f"y_tt must be a vector as long as preds ({p.size}), got shape {t.shape}")
    if not (_binary(p) and _binary(y)):
        raise ValidationError("preds and labels must be binary (0/1)")
    if not _binary(g):
        raise _groups_missing(_distinct(g).tolist())
    p, y, g = (c if c.dtype.kind == "i" else c.astype(np.int8) for c in (p, y, g))
    if t is None:
        key, t_ok = np.zeros_like(p), True
    elif t.dtype.kind == "i":
        key = t * p
        t_ok = not np.bitwise_or.reduce(key) >> 1
    else:  # compared only where p is 1, so a NaN on a rejected row passes
        accepted = p == 1
        t_ok = np.all((t == 0) | (t == 1) | ~accepted)
        key = (accepted & (t == 1)).view(np.int8)
    if not t_ok:  # name the first bad value by its index among the rows with p 1
        t = t[p == 1]
        row = int(np.argmax(~((t == 0) | (t == 1))))
        raise ValidationError(f"y_tt must be 0 or 1, got {t[row].item()!r}", row=row)
    for c in (g, y, p):  # shifted in place: one working array for the whole key
        key <<= 1
        key |= c
    key = key.astype(np.int8, copy=False)
    odd = key.size & 1  # the last row of an odd length is counted on its own
    pairs = np.bincount(key[: key.size - odd].view(np.uint16), minlength=4096).reshape(16, 256)[:, :16]
    table = pairs.sum(axis=0) + pairs.sum(axis=1)
    if odd:
        table[key[-1]] += 1
    return table.reshape(2, 2, 2, 2)


def _group_counts(table: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Members, accepted (pred 1) and confirmed (accepted with t 1) of groups 0 and 1 in a count table."""
    return (
        table.sum(axis=(0, 2, 3)).tolist(),
        table[..., 1].sum(axis=(0, 2)).tolist(),
        table[1, ..., 1].sum(axis=1).tolist(),
    )


def _outcome_from_table(table: np.ndarray, epsilon: float) -> OutcomeReport:
    """omega and the rates of groups 0 and 1 from a count table."""
    cells = table.sum(axis=0).reshape(2, 4).tolist()  # per group: (label, pred) 00, 01, 10, 11
    present = [grp for grp in (0, 1) if sum(cells[grp])]
    if len(present) < 2:
        raise _groups_missing(present)
    tpr: dict[int, float] = {}
    fpr: dict[int, float] = {}
    for grp in (0, 1):
        neg_0, neg_1, pos_0, pos_1 = cells[grp]
        if not pos_0 + pos_1:
            raise UndefinedRateError(grp, "tpr")
        if not neg_0 + neg_1:
            raise UndefinedRateError(grp, "fpr")
        tpr[grp] = pos_1 / (pos_0 + pos_1)
        fpr[grp] = neg_1 / (neg_0 + neg_1)

    omega = abs(tpr[0] - tpr[1]) + abs(fpr[0] - fpr[1])
    return OutcomeReport(
        eo_violation=omega,
        tpr_by_group=tpr,
        fpr_by_group=fpr,
        equal_outcomes=omega <= epsilon,
    )


def _utilization_from_table(table: np.ndarray) -> UtilizationReport:
    """Utilization of the accepted rows of a count table; ``per_group_fp_share`` keys the groups among them."""
    _, accepted, confirmed = _group_counts(table)
    m = sum(accepted)
    if m == 0:
        raise NoPositivesError(
            "utilization is undefined: no proxy-positive records (m = 0)"
        )
    false_pos = [a - c for a, c in zip(accepted, confirmed)]
    n_fp = sum(false_pos)
    agree = m - n_fp
    return UtilizationReport(
        zeta=agree / m,
        m=m,
        true_positive_share=agree / m,
        false_positive_share=n_fp / m,
        per_group_fp_share={k: false_pos[k] / n_fp if n_fp else 0.0 for k in (0, 1) if accepted[k]},
    )


def utilization_from_labels(y_tt, groups) -> UtilizationReport:
    """Utilization of the accepted individuals, by counting their evaluation labels.

    ``y_tt[k]`` is what the evaluation model said of the k-th individual the
    deployed model accepted, and ``groups[k]`` is that individual's group,
    0 or 1. A non-binary label raises ``ValidationError`` whose ``row`` is
    its index.
    """
    y, g = np.asarray(y_tt), np.asarray(groups)
    if y.ndim != 1 or g.shape != y.shape:
        raise ValidationError("y_tt and groups must be equal-length vectors")
    accepted = np.ones(len(g), dtype=np.int8)
    return _utilization_from_table(_count_log(accepted, np.zeros_like(accepted), g, y))


def audit_reports(
    preds, labels, groups, y_tt=None, epsilon: float = DEFAULT_OUTCOME_EPSILON
) -> tuple[OutcomeReport, UtilizationReport | None]:
    """The outcome report of a prediction log and, given ``y_tt``, the utilization report of its accepted rows.

    Both come from one count (:func:`_count_log`). The reports, and any
    error, are those of :func:`eo_violation` followed by
    :func:`utilization_from_labels` on the rows with pred 1: a non-binary
    ``y_tt`` there raises ``ValidationError`` whose ``row`` is the index
    among those rows, after any error of the outcome report. A ``y_tt``
    of another shape than ``preds`` is a ``ValidationError``.
    """
    p, y, g = (np.asarray(c) for c in (preds, labels, groups))
    t = None if y_tt is None else np.asarray(y_tt)
    try:
        table = _count_log(p, y, g, t)
    except ValidationError as exc:
        if exc.row is not None:  # a bad y_tt value: an outcome error is reported first
            _outcome_from_table(_count_log(p, y, g, None), epsilon)
        raise
    outcome = _outcome_from_table(table, epsilon)
    return outcome, None if t is None else _utilization_from_table(table)


def utilization(records: list[EvaluationRecord]) -> UtilizationReport:
    """:func:`utilization_from_labels` over one record per accepted individual."""
    for rec in records:
        if rec.y_pt != 1:
            raise ValidationError(
                f"record {rec.id!r} has y_pt={rec.y_pt}; utilization is computed "
                "over proxy-positives only"
            )
        if rec.y_tt not in (0, 1):
            raise ValidationError(f"record {rec.id!r} has non-binary y_tt")
    return utilization_from_labels([rec.y_tt for rec in records], [rec.grp for rec in records])


_NAME_SQUASH = re.compile(r"[\s_]+")


def normalize_feature_name(name: str) -> str:
    """Canonical form used for feature-name equivalence.

    Case-insensitive; runs of whitespace and underscores collapse to one
    separator, so "Test_Scores" and "test scores" are the same feature.
    """
    return _NAME_SQUASH.sub(" ", name.strip()).lower()


def match_features(
    proxy_features: list[str], intended_features: list[str]
) -> dict[int, int | None]:
    """Map each evaluation-feature index to a deployed-feature index.

    Matching is exact on normalized names; unmatched indices map to None.
    Raises on duplicate evaluation-feature names (the gap would be
    ambiguous).
    """
    if not intended_features:
        raise ValidationError("intended feature list must be nonempty")
    normalized_intended = [normalize_feature_name(f) for f in intended_features]
    if len(set(normalized_intended)) != len(normalized_intended):
        raise ValidationError("intended feature names must be unique after normalization")
    proxy_index = {}
    for j, name in enumerate(proxy_features):
        proxy_index.setdefault(normalize_feature_name(name), j)
    return {
        i: proxy_index.get(norm) for i, norm in enumerate(normalized_intended)
    }


def feature_proxy_gap(
    proxy_features: list[str], intended_features: list[str]
) -> np.ndarray:
    """Binary vector over evaluation features: 1 where no name match exists."""
    matching = match_features(proxy_features, intended_features)
    return np.array(
        [0 if matching[i] is not None else 1 for i in range(len(intended_features))],
        dtype=int,
    )


def label_proxy_gap(omega_p, omega_t, matching: dict[int, int | None]) -> np.ndarray:
    """Signed importance gap per evaluation feature.

    A name-matched feature whose importances agree in sign contributes the
    difference ``omega_t[i] - omega_p[j]``; every other feature contributes
    ``omega_t[i]`` unchanged.
    """
    wp = np.asarray(omega_p, dtype=float)
    wt = np.asarray(omega_t, dtype=float)
    for vec, name in ((wp, "omega_p"), (wt, "omega_t")):
        with np.errstate(over="ignore"):  # a sum past the float range is inf and fails
            total = float(np.sum(np.abs(vec)))
        if not (total == 0.0 or abs(total - 1.0) <= 1e-6):  # NaN fails both
            raise ValidationError(
                f"{name} must be L1-normalized or all-zero (sum |w| = {total:.6g})"
            )
    out = np.empty(wt.shape[0], dtype=float)
    for i in range(wt.shape[0]):
        j = matching.get(i)
        if j is not None:
            if not 0 <= j < wp.shape[0]:
                raise ValidationError(f"matching index {j} out of range for omega_p")
            if np.sign(wt[i]) == np.sign(wp[j]):
                out[i] = wt[i] - wp[j]
                continue
        out[i] = wt[i]
    return out


LABEL_GAP_NOTE = (
    "gamma_l[i] is omega_t[i] - omega_p[j] when evaluation feature i "
    "name-matches deployed feature j and the importances share a sign; "
    "otherwise gamma_l[i] copies omega_t[i] verbatim."
)


def compute_gap_report(
    proxy_features: list[str],
    intended_features: list[str],
    omega_p,
    omega_t,
    om_proxy: ObstacleModel | None = None,
    om_intended: ObstacleModel | None = None,
) -> GapReport:
    """Bundle feature gap, label gap and (optionally) the obstacle gap."""
    matching = match_features(proxy_features, intended_features)
    gx = feature_proxy_gap(proxy_features, intended_features)
    gl = label_proxy_gap(omega_p, omega_t, matching)
    og = None
    if om_proxy is not None and om_intended is not None:
        og = obstacle_gap(om_proxy, proxy_features, om_intended, intended_features)
    return GapReport(
        gamma_x=tuple(int(v) for v in gx),
        gamma_l=tuple(float(v) for v in gl),
        obstacle_gap=og,
        notes=(LABEL_GAP_NOTE,),
    )


def obstacle_gap(
    om_proxy: ObstacleModel,
    proxy_features: list[str],
    om_intended: ObstacleModel,
    intended_features: list[str],
) -> ObstacleGap:
    """Descriptive distance between utilization and access obstacles.

    Counts evaluation-side affected features whose names have no match among
    deployed-side affected features, and sums |alpha_t - alpha_p| over all
    name-matched features. Larger values mean the two obstacle structures
    disagree more. A sum past the float range is a ValidationError.
    """
    if om_proxy.alpha.shape[0] != len(proxy_features):
        raise ValidationError("proxy obstacle model does not match its feature list")
    if om_intended.alpha.shape[0] != len(intended_features):
        raise ValidationError("intended obstacle model does not match its feature list")
    matching = match_features(proxy_features, intended_features)
    proxy_affected_names = {
        normalize_feature_name(proxy_features[j]) for j in om_proxy.affected_features
    }
    unmatched = sum(
        1
        for i in om_intended.affected_features
        if normalize_feature_name(intended_features[i]) not in proxy_affected_names
    )
    l1 = 0.0
    for i, j in matching.items():
        if j is not None:
            l1 += abs(float(om_intended.alpha[i]) - float(om_proxy.alpha[j]))
    if not math.isfinite(l1):
        raise ValidationError("alpha: the L1 distance between matched alpha values overflows the float range")
    return ObstacleGap(unmatched_affected_features=int(unmatched), alpha_l1_distance_on_matched=l1)


def equity_score(
    access: AccessReport, outcome: OutcomeReport, util: UtilizationReport
) -> float:
    """Composite score ``psi + (1 - min(omega, 1)) + zeta`` in [0, 3]."""
    return _score(access.psi, outcome.eo_violation, util.zeta)


def _score(psi: float, omega: float, zeta: float) -> float:
    """``psi + (1 - min(omega, 1)) + zeta``: the one formula of every equity score."""
    return float(psi + (1.0 - min(omega, 1.0)) + zeta)
