"""Brute-force counting oracles, written independently of the library.

Everything here is deliberate pure-Python looping over rows: no numpy
vectorization, no shared helpers with the package. These are the reference
implementations the fast paths are checked against.

Some exceptions are written in numpy. The gradient-descent trainer is a
long-run reference for the package's Newton fit: a pure-Python loop would
need minutes for the thousands of full-batch steps it takes. The mask-based
equalized-odds violation and the decision-matrix threshold grid are the
package's earlier implementations, kept to pin their counting replacements
bit for bit. So are the ``np.where`` forms of the sigmoid, the logistic
terms and the cohort generator, and the per-row population validator:
they pin the branch-free, buffer-reusing and whole-array replacements.
So are the boolean-mask threshold grid, the ``np.unique`` group cutoffs
and the row-major logistic prediction formula: they pin the grid's radix
ordering, the cutoffs' fill by threshold and feature-major prediction.
The case-study oracle is the package's earlier per-regime loop: it calls
the package's training, threshold and metric functions and pins only how
the loop combines them. The inequity-loop oracle does the same for
``run_inequity_loop``: a pool grown by concatenation, and every rate by
masks and means.
"""

from __future__ import annotations

import math

import numpy as np


def magnitude_oracle(alphas, z, x) -> float:
    """One person's obstacle ``<alpha, z - x>``, summed in column order."""
    magnitude = 0.0
    for a, zi, xi in zip(alphas, z, x):
        magnitude += a * (zi - xi)
    return magnitude


def reveal_oracle(alphas, z, x, y_prime, y, delta) -> tuple[list, int, bool]:
    """One person's ``(features, label, fully_accessed)`` under the piecewise rule."""
    magnitude = magnitude_oracle(alphas, z, x)
    residual = magnitude - delta
    if residual < 0:
        residual = 0.0
    if magnitude == 0.0 or residual == 0.0:
        return list(z), y_prime, True
    return list(x), y, False


def psi_oracle(alphas, zs, xs, delta) -> float:
    """Access rate: count individuals whose obstacle survives the budget."""
    n = len(zs)
    assert n > 0
    accessed = 0
    for z, x in zip(zs, xs):
        magnitude = 0.0
        for a, zi, xi in zip(alphas, z, x):
            magnitude += a * (zi - xi)
        residual = magnitude - delta
        if residual < 0:
            residual = 0.0
        if magnitude == 0.0 or residual == 0.0:
            accessed += 1
    return accessed / n


def eo_violation_oracle(preds, labels, groups) -> float:
    """|TPR0 - TPR1| + |FPR0 - FPR1| by direct counting."""
    counts = {}
    for p, y, g in zip(preds, labels, groups):
        key = (g, y)
        total, hits = counts.get(key, (0, 0))
        counts[key] = (total + 1, hits + (1 if p == 1 else 0))
    rates = {}
    for g in (0, 1):
        for y in (0, 1):
            total, hits = counts.get((g, y), (0, 0))
            assert total > 0, f"group {g} has no labels y={y}"
            rates[(g, y)] = hits / total
    return abs(rates[(0, 1)] - rates[(1, 1)]) + abs(rates[(0, 0)] - rates[(1, 0)])


def zeta_oracle(y_tt_values) -> float:
    """Utilization: share of accepted individuals confirmed positive."""
    m = len(y_tt_values)
    assert m > 0
    confirmed = 0
    for value in y_tt_values:
        if value == 1:
            confirmed += 1
    return confirmed / m


def fp_share_oracle(y_tt_values, groups) -> dict:
    """Each accepted group's share of the accepted individuals the evaluation model rejects (0 when there are none)."""
    rejected = {}
    for value, g in zip(y_tt_values, groups):
        rejected[g] = rejected.get(g, 0) + (1 if value == 0 else 0)
    total = sum(rejected.values())
    return {g: (rejected[g] / total if total else 0.0) for g in sorted(rejected)}


def two_branch_sigmoid(scores):
    """1/(1+e^-s) where s >= 0 and e^s/(1+e^s) elsewhere, by boolean masks."""
    out = np.empty_like(scores)
    pos = scores >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-scores[pos]))
    expv = np.exp(scores[~pos])
    out[~pos] = expv / (1.0 + expv)
    return out


def logistic_gradient_oracle(X, y, coefficients, intercept, mu, sigma, l2) -> list[float]:
    """Gradient of the mean log-loss plus ``l2/2 * |w|^2`` at a fitted model.

    Row by row: standardize with ``mu``/``sigma``, score, and accumulate
    ``(p - y) * x``. Returned as ``[d/dw_1 .. d/dw_d, d/dintercept]`` in the
    standardized coordinates the model's coefficients act on.
    """
    d = len(coefficients)
    sums = [0.0] * (d + 1)
    for row, label in zip(X, y):
        xs = [(float(v) - float(m)) / float(s) for v, m, s in zip(row, mu, sigma)]
        score = float(intercept) + sum(float(w) * v for w, v in zip(coefficients, xs))
        if score >= 0:
            p = 1.0 / (1.0 + math.exp(-score))
        else:
            p = math.exp(score) / (1.0 + math.exp(score))
        resid = p - float(label)
        for j in range(d):
            sums[j] += resid * xs[j]
        sums[d] += resid
    n = len(y)
    return [sums[j] / n + l2 * float(coefficients[j]) for j in range(d)] + [sums[d] / n]


def logistic_loss_oracle(X, y, coefficients, intercept, mu, sigma, l2) -> float:
    """Mean log-loss plus ``l2/2 * |w|^2`` at a fitted model, row by row."""
    total = 0.0
    for row, label in zip(X, y):
        xs = [(float(v) - float(m)) / float(s) for v, m, s in zip(row, mu, sigma)]
        score = float(intercept) + sum(float(w) * v for w, v in zip(coefficients, xs))
        # log(1 + e^s) - y*s, without overflow
        total += max(score, 0.0) + math.log1p(math.exp(-abs(score))) - float(label) * score
    return total / len(y) + 0.5 * l2 * sum(float(w) ** 2 for w in coefficients)


def logistic_fit_reference(X, y, iterations, learning_rate, l2, variance_floor=1e-12):
    """Standardize, then take ``iterations`` full-batch gradient steps from zero.

    Returns ``(coefficients, intercept, mu, sigma)``. Each step evaluates the
    mean log-loss gradient with an L2 penalty on the non-intercept weights.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = X.mean(axis=0)
    sigma = np.sqrt(np.maximum(X.var(axis=0), variance_floor))
    Xs = (X - mu) / sigma
    weights = np.zeros(X.shape[1] + 1)
    for _ in range(iterations):
        w, b = weights[:-1], weights[-1]
        resid = two_branch_sigmoid(Xs @ w + b) - y
        grad_w = Xs.T @ resid / Xs.shape[0] + l2 * w
        grad_b = float(np.mean(resid))
        weights = weights - learning_rate * np.append(grad_w, grad_b)
    return weights[:-1], float(weights[-1]), mu, sigma


class UndefinedRate(Exception):
    """A group-conditional rate with an empty denominator."""

    def __init__(self, group: int, rate: str):
        super().__init__(group, rate)
        self.group, self.rate = group, rate


def eo_violation_masks(preds, labels, groups) -> tuple[float, dict, dict]:
    """``(omega, tpr, fpr)`` from one boolean mask per group and label class.

    Raises ValueError with the package's message for malformed input and
    :class:`UndefinedRate` for a group without positives or negatives.
    """
    p = np.asarray(preds, dtype=int)
    y = np.asarray(labels, dtype=int)
    g = np.asarray(groups, dtype=int)
    if not (p.shape == y.shape == g.shape) or p.ndim != 1:
        raise ValueError("preds, labels and groups must be equal-length vectors")
    if not np.all(np.isin(p, (0, 1))) or not np.all(np.isin(y, (0, 1))):
        raise ValueError("preds and labels must be binary (0/1)")
    present = sorted(int(v) for v in np.unique(g))
    if present != [0, 1]:
        raise ValueError(f"both groups 0 and 1 must be present, got {present}")
    tpr, fpr = {}, {}
    for grp in (0, 1):
        mask = g == grp
        pos = mask & (y == 1)
        neg = mask & (y == 0)
        if not np.any(pos):
            raise UndefinedRate(grp, "tpr")
        if not np.any(neg):
            raise UndefinedRate(grp, "fpr")
        tpr[grp] = float(np.mean(p[pos]))
        fpr[grp] = float(np.mean(p[neg]))
    return abs(tpr[0] - tpr[1]) + abs(fpr[0] - fpr[1]), tpr, fpr


def threshold_grid_dense(scores, labels, groups, decision_threshold, n_candidates):
    """Per-group cutoff curves from an ``n_candidates x n_rows`` decision matrix.

    Returns ``(per_group, gap, combined_acc)`` shaped as the package's
    threshold grid: ``per_group[g] = (cands, tpr, fpr, acc, weight)``.
    Raises ValueError with the package's message when a group is missing
    or lacks a label class.
    """
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    g = np.asarray(groups, dtype=int)
    present = np.unique(g).tolist()
    if present != [0, 1]:
        raise ValueError(f"need both groups 0 and 1, got {present}")
    per_group = {}
    for grp in (0, 1):
        mask = g == grp
        if not np.any(y[mask] == 1) or not np.any(y[mask] == 0):
            raise ValueError(
                f"group {grp} lacks a label class; per-group thresholds undefined"
            )
        s = scores[mask]
        qs = np.quantile(s, np.linspace(0.0, 1.0, min(n_candidates, s.size)))
        cands = np.unique(np.concatenate([qs, [decision_threshold, 0.0, 1.0 + 1e-12]]))
        dec = s[None, :] >= cands[:, None]
        pos = y[mask] == 1
        tpr = dec[:, pos].mean(axis=1)
        fpr = dec[:, ~pos].mean(axis=1)
        acc = (dec == pos[None, :]).mean(axis=1)
        per_group[grp] = (cands, tpr, fpr, acc, float(np.mean(mask)))
    c0, tpr0, fpr0, acc0, w0 = per_group[0]
    c1, tpr1, fpr1, acc1, w1 = per_group[1]
    gap = np.abs(tpr0[:, None] - tpr1[None, :]) + np.abs(fpr0[:, None] - fpr1[None, :])
    combined_acc = w0 * acc0[:, None] + w1 * acc1[None, :]
    return per_group, gap, combined_acc


# score quantiles per group in the package's threshold search
GRID_QUANTILES = 64


def ranked_threshold_pairs(scores, labels, groups, decision_threshold, tau_o, k):
    """The first ``k`` cutoff pairs of the dense grid in the order the case study walks them.

    One ``np.lexsort`` of the whole grid: pairs whose gap is at most
    ``tau_o`` first, by accuracy descending, then the rest by gap; ties by
    gap, then in flat index order.
    """
    per_group, gap, acc = threshold_grid_dense(scores, labels, groups, decision_threshold, GRID_QUANTILES)
    feasible = gap <= tau_o
    order = np.lexsort((gap.ravel(), np.where(feasible, -acc, gap).ravel(), (~feasible).ravel()))
    rows, cols = np.unravel_index(order[:k], gap.shape)
    return [{0: float(per_group[0][0][i]), 1: float(per_group[1][0][j])} for i, j in zip(rows, cols)]


def best_threshold_pair(scores, labels, groups, decision_threshold, tau_o):
    """The most accurate cutoff pair of the dense grid whose gap is at most ``tau_o``; of ties, the first by ``np.argmax``."""
    per_group, gap, acc = threshold_grid_dense(scores, labels, groups, decision_threshold, GRID_QUANTILES)
    i, j = np.unravel_index(np.argmax(np.where(gap <= tau_o, acc, -np.inf)), gap.shape)
    return {0: float(per_group[0][0][i]), 1: float(per_group[1][0][j])}


def row_major_proba(model, X):
    """The package's earlier logistic ``predict_proba``: the formula on a C-ordered (n, d) matrix."""
    from equity_audit.learner import _sigmoid

    X = np.ascontiguousarray(X, dtype=float)
    return _sigmoid(((X - model.mu) / model.sigma) @ model.coefficients + model.intercept)


def threshold_grid_masks(scores, labels, groups, decision_threshold, n_candidates):
    """The package's earlier ``_group_threshold_grid``: each group's label classes picked by boolean masks."""
    from equity_audit.errors import ValidationError
    from equity_audit.learner import _binary_values, _sorted_quantiles

    scores = np.asarray(scores, dtype=float)
    g = np.asarray(groups)
    masks = (g == 0, g == 1)
    sizes = [int(np.count_nonzero(mask)) for mask in masks]
    if 0 in sizes or sum(sizes) != g.size:
        raise ValidationError(f"need both groups 0 and 1, got {np.unique(g).tolist()}")
    zero, positive = _binary_values(labels, "labels")

    per_group = {}
    for grp, mask in enumerate(masks):
        in_pos = mask & positive
        if not np.any(in_pos) or not np.any(mask & zero):
            raise ValidationError(
                f"group {grp} lacks a label class; per-group thresholds undefined"
            )
        s_pos, s_neg = np.sort(scores[in_pos]), np.sort(scores[mask ^ in_pos])
        s = np.sort(np.concatenate([s_pos, s_neg]), kind="stable")
        qs = _sorted_quantiles(s, np.linspace(0.0, 1.0, min(n_candidates, s.size)))
        cands = np.unique(np.concatenate([qs, [decision_threshold, 0.0, 1.0 + 1e-12]]))
        below_pos = np.searchsorted(s_pos, cands)
        below_neg = np.searchsorted(s_neg, cands)
        tpr = (s_pos.size - below_pos) / s_pos.size
        fpr = (s_neg.size - below_neg) / s_neg.size
        acc = (s_pos.size - below_pos + below_neg) / s.size
        per_group[grp] = (cands, tpr, fpr, acc, sizes[grp] / g.size)

    c0, tpr0, fpr0, acc0, w0 = per_group[0]
    c1, tpr1, fpr1, acc1, w1 = per_group[1]
    gap = np.abs(tpr0[:, None] - tpr1[None, :]) + np.abs(fpr0[:, None] - fpr1[None, :])
    combined_acc = w0 * acc0[:, None] + w1 * acc1[None, :]
    return per_group, gap, combined_acc


def group_cutoffs_by_label(groups, thresholds):
    """The package's earlier ``group_cutoffs``: one fill per label ``np.unique`` finds, in its order."""
    from equity_audit.errors import ValidationError

    g = np.asarray(groups)
    cuts = np.empty(g.shape)
    for label in np.unique(g).tolist():
        if label not in thresholds:
            raise ValidationError(f"no decision threshold for group {label}")
        cuts[g == label] = thresholds[label]
    return cuts


def case_study_oracle(cfg, views):
    """The case study run one regime at a time, every side recomputed per regime.

    The package's earlier ``run_case_study`` loop, kept to pin the one that
    computes each side once per setting of the axes it depends on. It calls
    the package's own training, reveal, cutoff and metric functions, and
    ranks threshold pairs itself (:func:`ranked_threshold_pairs`).
    """
    from itertools import product

    from equity_audit.core import Policy, reveal_population
    from equity_audit.dataio import (
        ACCESS_CARRY_FRACTION,
        INTENDED_FEATURES,
        PROXY_FEATURES,
        CaseStudyResult,
        RegimeResult,
        regime_name,
    )
    from equity_audit.errors import SingleClassError, UndefinedRateError, ValidationError
    from equity_audit.learner import (
        ModelSpec,
        predict,
        predict_proba,
        predict_with_group_thresholds,
        train,
    )
    from equity_audit.metrics import (
        EquityReport,
        access_from_mask,
        compute_gap_report,
        eo_violation,
        utilization_from_labels,
    )
    from equity_audit.scoring import split_indices

    n = len(views.proxy)
    if n < 10:
        raise ValidationError("case study needs at least 10 students")
    train_idx, test_idx = split_indices(n, cfg.train_fraction, cfg.seed)
    groups = views.proxy.groups()
    y_all = views.proxy.labels()
    y_free = views.proxy.labels_prime()
    x_proxy = views.proxy.x_matrix()
    try:
        proxy_model = train(ModelSpec(PROXY_FEATURES), x_proxy[train_idx], y_all[train_idx], cfg.seed)
        intended_model = train(
            ModelSpec(INTENDED_FEATURES), views.intended.z_matrix()[train_idx], y_free[train_idx], cfg.seed
        )
    except SingleClassError as exc:
        raise ValidationError(f"case study training degenerate: {exc}") from exc
    gaps = compute_gap_report(
        list(PROXY_FEATURES), list(INTENDED_FEATURES), proxy_model.importance,
        intended_model.importance, views.om_proxy, views.om_intended,
    )
    x_intended = views.intended.x_matrix()
    uplift_t = views.intended.z_matrix() - x_intended

    def audited_outcome(preds):
        return eo_violation(preds, y_free[test_idx], groups[test_idx], cfg.epsilon)

    axes = [
        (True, False) if flag is None else (flag,)
        for flag in (cfg.equal_access, cfg.equal_outcome, cfg.equal_utilization)
    ]
    regimes = []
    for eq_access, eq_outcome, eq_util in product(*axes):
        degenerate = []
        policy = Policy(float("inf")) if eq_access else Policy(0.0)
        x_rev, y_rev, accessed = reveal_population(views.proxy, views.om_proxy, policy)
        access_report = access_from_mask(accessed, groups)
        preds_test = np.asarray(predict(proxy_model, x_rev[test_idx]))
        outcome_report = None
        selected = None
        if eq_outcome:
            try:
                pairs = ranked_threshold_pairs(
                    predict_proba(proxy_model, x_rev[train_idx]), y_rev[train_idx], groups[train_idx],
                    proxy_model.decision_threshold, cfg.tau_o, k=25,
                )
            except ValueError as exc:
                degenerate.append(f"outcome equalization skipped: {exc}")
                pairs = []
            best = None
            for thresholds in pairs:
                candidate_preds = predict_with_group_thresholds(
                    proxy_model, x_rev[test_idx], groups[test_idx], thresholds
                )
                try:
                    candidate_report = audited_outcome(candidate_preds)
                except UndefinedRateError:  # the fallback below records it
                    break
                if best is None or candidate_report.eo_violation < best[0].eo_violation:
                    best = (candidate_report, candidate_preds, thresholds)
                if candidate_report.eo_violation <= cfg.tau_o:
                    break
            if best is not None:
                outcome_report, preds_test, selected = best
        if outcome_report is None:
            try:
                outcome_report = audited_outcome(preds_test)
            except UndefinedRateError as exc:
                degenerate.append(f"omega undefined: {exc}")
        if selected is not None:
            preds_all = predict_with_group_thresholds(proxy_model, x_rev, groups, selected)
        else:
            preds_all = np.asarray(predict(proxy_model, x_rev))
        admissibility = {g: float(np.mean(preds_all[groups == g])) for g in (0, 1)}

        util_report = None
        tp_share = fp_share = None
        fp_by_group = {}
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
            report = EquityReport.from_reports(access_report, outcome_report, util_report, gaps)
        regimes.append(
            RegimeResult(
                name=regime_name(eq_access, eq_outcome, eq_util), equal_access=eq_access,
                equal_outcome=eq_outcome, equal_utilization=eq_util, report=report,
                admissibility_by_group=admissibility, tp_share=tp_share, fp_share=fp_share,
                fp_share_by_group=fp_by_group, degenerate=tuple(degenerate),
            )
        )
    return CaseStudyResult(
        regimes=tuple(regimes), gaps=gaps, proxy_model=proxy_model, intended_model=intended_model
    )


def where_sigmoid(scores):
    """The sigmoid with its numerator picked by ``np.where``."""
    e = np.exp(-np.abs(scores))
    return np.where(scores >= 0, 1.0, e) / (1.0 + e)


def where_logistic_terms(weights, XT, y, l2):
    """Loss, gradient and probabilities of a feature-major design, each step a new array."""
    w, b = weights[:-1], weights[-1]
    scores = w @ XT + b
    e = np.exp(-np.abs(scores))
    proba = np.where(scores >= 0, 1.0, e) / (1.0 + e)
    resid = proba - y
    n = XT.shape[1]
    grad = np.append((XT * resid).sum(axis=1) / n + l2 * w, np.mean(resid))
    softplus = np.maximum(scores, 0.0) + np.log1p(e)
    data_loss = float(np.mean(softplus - y * scores))
    return data_loss + 0.5 * l2 * float(w @ w), grad, proba


def where_cohort(cfg, round):
    """One cohort's arrays as the generator drew them with ``np.where`` selects.

    Returns ``(x_p, z_p, y_p, y_prime_p, grp, x_t_full, z_t,
    x_t_after_access, flagged)``.
    """
    rng = np.random.default_rng([cfg.seed, round, 101])
    n = cfg.n_per_round
    latent = rng.normal(size=n)
    grp = (rng.random(n) < cfg.group_fraction).astype(int)
    probs = np.array([cfg.obstacle_prob_by_group[0], cfg.obstacle_prob_by_group[1]])
    flagged = rng.random(n) < probs[grp]
    z_p = latent[:, None] * 1.0 + rng.normal(scale=0.5, size=(n, cfg.d_proxy))
    z_t = latent[:, None] * 1.0 + rng.normal(scale=0.5, size=(n, cfg.d_intended))
    affected_p = np.array([a > 0 for a in cfg.alpha_proxy])
    affected_t = np.array([a > 0 for a in cfg.alpha_intended])
    deg_p = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_proxy))
    deg_carry = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_intended))
    deg_util = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_intended))
    mask_p = flagged[:, None] & affected_p[None, :]
    mask_t = flagged[:, None] & affected_t[None, :]
    x_p = np.where(mask_p, z_p - deg_p, z_p)
    x_t_full = np.where(mask_t, z_t - deg_carry - deg_util, z_t)
    x_t_after_access = np.where(mask_t, z_t - deg_util, z_t)
    w_p = np.asarray(cfg.true_model_coefficients[0], dtype=float)
    flip_p = rng.random(n) < cfg.label_noise
    y_prime_p = ((z_p @ w_p >= 0) ^ flip_p).astype(int)
    y_p = ((x_p @ w_p >= 0) ^ flip_p).astype(int)
    return x_p, z_p, y_p, y_prime_p, grp, x_t_full, z_t, x_t_after_access, flagged


def population_fault(x, z, y, y_prime, grp, ids):
    """``(message, row)`` of the first value fault a population holds, or None.

    Per-row masks for every column: the first faulty row wins, and within
    it the first faulty column in the order z, x, y_prime, y, grp.
    """
    columns = {"z": np.array(z, dtype=float), "x": np.array(x, dtype=float),
               "y_prime": np.array(y_prime), "y": np.array(y), "grp": np.array(grp)}
    faults = []
    for name, col in columns.items():
        if col.ndim == 2:
            faults.append((f"{name} contains non-finite values", ~np.isfinite(col).all(axis=1)))
        else:
            faults.append((f"{name} must be 0 or 1", ~np.isin(col, (0, 1))))
    for row in range(len(ids)):
        for message, mask in faults:
            if mask[row]:
                return f"{message} for individual {ids[row]!r}", row
    return None


def loop_oracle(cfg, rounds, regime):
    """The inequity loop written plainly: ``(LoopTrajectory, CuratedDataset)``.

    Each cohort comes from :func:`where_cohort` on this thread, the pool
    grows by ``np.concatenate``, and each round calls the package's own
    training (warm-started from the last round's model), reveal and
    prediction functions. The thresholds come from
    :func:`best_threshold_pair`. omega is :func:`~equity_audit.metrics.eo_violation`
    and every other rate is a per-group mean over boolean masks. It pins
    how the package's loop combines those functions and counts its rates,
    and the curated dataset's dtypes: int8 labels, int32 rounds and int64
    source rows.
    """
    from equity_audit.core import ObstacleModel, Policy, Population, reveal_population
    from equity_audit.errors import UndefinedRateError
    from equity_audit.learner import (
        ModelSpec,
        TrainedModel,
        predict,
        predict_proba,
        predict_with_group_thresholds,
        train,
    )
    from equity_audit.loopsim import CuratedDataset, LoopRound, LoopTrajectory
    from equity_audit.metrics import eo_violation

    names = tuple(f"pf{i}" for i in range(cfg.d_proxy))
    env_model = TrainedModel.from_coefficients(
        ModelSpec(tuple(f"if{i}" for i in range(cfg.d_intended))), cfg.true_model_coefficients[1]
    )
    obstacles = ObstacleModel.from_alpha(cfg.alpha_proxy)
    policy = Policy(math.inf) if regime != "no_equity" else Policy(0.0)

    seed = where_cohort(cfg, 0)
    pool_X, pool_y, pool_g = seed[0], seed[2], seed[4]
    curated_X = np.empty((0, cfg.d_proxy))
    curated_y = np.empty(0, dtype=np.int8)
    curated_rounds = np.empty(0, dtype=np.int32)
    curated_rows = np.empty(0, dtype=np.int64)
    model = None
    records = []
    for t in range(1, rounds + 1):
        if len(set(pool_y.tolist())) == 1:
            nan = float("nan")
            records.append(LoopRound(
                round=t, psi=nan, omega=nan, zeta=nan, pos_rate_by_group={0: nan, 1: nan},
                fp_share_by_group={0: 0.0, 1: 0.0}, curated_pos_share_by_group={0: 0.0, 1: 0.0},
                curated_size=len(pool_y), events=("round skipped: single-class training pool",),
            ))
            continue
        events = []
        model = train(ModelSpec(names), pool_X, pool_y, cfg.seed, start=model)
        thresholds = None
        if regime in ("access_and_outcome", "full_equity"):
            try:
                thresholds = best_threshold_pair(
                    predict_proba(model, pool_X), pool_y, pool_g, model.decision_threshold, 0.15
                )
            except ValueError as exc:
                events.append(f"outcome equalization skipped: {exc}")

        x_p, z_p, y_p, y_prime_p, grp, x_t_full, z_t, x_t_after_access, _ = where_cohort(cfg, t)
        population = Population(
            x=x_p, z=z_p, y=y_p, y_prime=y_prime_p, grp=grp, ids=range(cfg.n_per_round),
            feature_names=names,
        )
        x_rev, y_rev, accessed = reveal_population(population, obstacles, policy)
        if thresholds is None:
            preds = np.asarray(predict(model, x_rev))
        else:
            preds = predict_with_group_thresholds(model, x_rev, grp, thresholds)
        try:
            omega = eo_violation(preds, y_rev, grp).eo_violation
        except UndefinedRateError as exc:
            omega = float("nan")
            events.append(f"omega undefined: {exc}")
        pos_rate = {
            g: float(np.mean(preds[grp == g])) if np.any(grp == g) else float("nan") for g in (0, 1)
        }

        x_eval = {"no_equity": x_t_full, "full_equity": z_t}.get(regime, x_t_after_access)
        accepted = np.flatnonzero(preds == 1)
        zeta = float("nan")
        fp_share = {0: 0.0, 1: 0.0}
        pos_share = {0: 0.0, 1: 0.0}
        if accepted.size == 0:
            events.append("no accepted individuals this round")
        else:
            y_tt = np.asarray(predict(env_model, x_eval[accepted]), dtype=int)
            zeta = float(np.mean(y_tt == 1))
            for g in (0, 1):
                in_g = grp[accepted] == g
                if np.any(in_g):
                    fp_share[g] = float(np.mean(y_tt[in_g] == 0))
                if np.any(y_tt == 1):
                    pos_share[g] = int(np.sum(y_tt[in_g] == 1)) / int(np.sum(y_tt == 1))
            pool_X = np.concatenate([pool_X, x_rev[accepted]])
            pool_y = np.concatenate([pool_y, y_tt])
            pool_g = np.concatenate([pool_g, grp[accepted]])
            curated_X = np.concatenate([curated_X, x_rev[accepted]])
            curated_y = np.concatenate([curated_y, y_tt.astype(np.int8)])
            curated_rounds = np.concatenate([curated_rounds, np.full(accepted.size, t, dtype=np.int32)])
            curated_rows = np.concatenate([curated_rows, accepted])
        records.append(LoopRound(
            round=t, psi=float(np.mean(accessed)), omega=omega, zeta=zeta, pos_rate_by_group=pos_rate,
            fp_share_by_group=fp_share, curated_pos_share_by_group=pos_share,
            curated_size=len(pool_y), events=tuple(events),
        ))
    trajectory = LoopTrajectory(regime=regime, seed_size=cfg.n_per_round, rounds=tuple(records))
    curated = CuratedDataset(
        feature_names=names, X=curated_X, y=curated_y, rounds=curated_rounds, source_rows=curated_rows
    )
    return trajectory, curated
