"""The package's public surface, pinned: each name ``equity_audit`` exports
and each exported callable's ``inspect.signature``, plus the two threshold
search functions of ``equity_audit.learner``.

A name added, removed or renamed, or a parameter added, dropped, reordered,
renamed or given another default, fails here, so an API change is made on
purpose and shows in this file's diff. A module is pinned as
``"<module>"``, and a class whose signature ``inspect`` cannot read (an
exception that keeps ``Exception``'s) as ``"<no signature>"``.
"""

import inspect

import equity_audit
from equity_audit import learner

SURFACE = {
    "AccessReport": (
        "(psi: 'float', per_individual: 'tuple[bool, ...]', per_group: 'dict[int, float]') -> None"
    ),
    "CandidateSampler": "(space: 'ModelSpace', rng: 'np.random.Generator')",
    "CuratedDataset": (
        "(feature_names: 'tuple[str, ...]', X: 'np.ndarray', y: 'np.ndarray', rounds: 'np.ndarray', "
        "source_rows: 'np.ndarray') -> None"
    ),
    "DataFormatError": "(message: 'str', *, row: 'int | None' = None, column: 'str | None' = None)",
    "DominanceError": "(message: 'str' = '', *, row: 'int | None' = None)",
    "EquityAuditError": "<no signature>",
    "EquityReport": (
        "(access: 'AccessReport', outcome: 'OutcomeReport', utilization: 'UtilizationReport', "
        "gaps: 'GapReport | None', score: 'float') -> None"
    ),
    "EvaluationRecord": "(id: 'str', y_pt: 'int', y_tt: 'int', grp: 'int') -> None",
    "GapReport": (
        "(gamma_x: 'tuple[int, ...]', gamma_l: 'tuple[float, ...]', "
        "obstacle_gap: 'ObstacleGap | None' = None, notes: 'tuple[str, ...]' = ()) -> None"
    ),
    "JoinError": "<no signature>",
    "LoopTrajectory": "(regime: 'str', seed_size: 'int', rounds: 'tuple[LoopRound, ...]') -> None",
    "ModelSpace": (
        "(candidate_specs: 'tuple[ModelSpec, ...]', dataset: 'Population', "
        "obstacle_model: 'ObstacleModel', candidate_policies: 'tuple[Policy, ...]') -> None"
    ),
    "ModelSpec": (
        "(feature_names: 'tuple[str, ...]', function_class: 'str' = 'logistic_regression', "
        "hyperparams: 'dict' = <factory>) -> None"
    ),
    "NoPositivesError": "<no signature>",
    "ObstacleGap": "(unmatched_affected_features: 'int', alpha_l1_distance_on_matched: 'float') -> None",
    "ObstacleModel": "(alpha: 'np.ndarray', affected_features: 'frozenset[int]' = <factory>) -> None",
    "OutcomeReport": (
        "(eo_violation: 'float', tpr_by_group: 'dict[int, float]', fpr_by_group: 'dict[int, float]', "
        "equal_outcomes: 'bool') -> None"
    ),
    "Policy": "(delta: 'float' = 0.0) -> None",
    "Population": "(x, z, y, y_prime, grp, ids, feature_names)",
    "ScoringTrace": (
        "(records: 'tuple[IterationRecord, ...]', final_score: 'float | None', "
        "terminated_reason: 'str') -> None"
    ),
    "SingleClassError": "(message: 'str' = '', *, row: 'int | None' = None)",
    "SyntheticConfig": (
        "(n_per_round: 'int', d_proxy: 'int', d_intended: 'int', group_fraction: 'float', "
        "obstacle_prob_by_group: 'dict[int, float]', alpha_proxy: 'tuple[float, ...]', "
        "alpha_intended: 'tuple[float, ...]', obstacle_severity: 'float', "
        "true_model_coefficients: 'tuple[tuple[float, ...], tuple[float, ...]]', "
        "label_noise: 'float', seed: 'int') -> None"
    ),
    "TrainedModel": (
        "(spec: 'ModelSpec', coefficients: 'np.ndarray', intercept: 'float', mu: 'np.ndarray', "
        "sigma: 'np.ndarray', importance: 'np.ndarray', decision_threshold: 'float' = 0.5, "
        "threshold: 'float | None' = None, n_iter: 'int | None' = None, "
        "grad_norm: 'float | None' = None, converged: 'bool | None' = None) -> None"
    ),
    "UndefinedRateError": "(group: 'int', rate: 'str')",
    "UtilizationReport": (
        "(zeta: 'float', m: 'int', true_positive_share: 'float', false_positive_share: 'float', "
        "per_group_fp_share: 'dict[int, float]') -> None"
    ),
    "ValidationError": "(message: 'str' = '', *, row: 'int | None' = None)",
    "audit_reports": (
        "(preds, labels, groups, y_tt=None, epsilon: 'float' = 1e-09) -> 'tuple[OutcomeReport, "
        "UtilizationReport | None]'"
    ),
    "compute_gap_report": (
        "(proxy_features: 'list[str]', intended_features: 'list[str]', omega_p, omega_t, "
        "om_proxy: 'ObstacleModel | None' = None, "
        "om_intended: 'ObstacleModel | None' = None) -> 'GapReport'"
    ),
    "config": "<module>",
    "core": "<module>",
    "curate_ground_truth": (
        "(positives: 'list[tuple[int, np.ndarray, int]]', round: 'int', feature_names: 'tuple[str, "
        "...] | None' = None) -> 'CuratedDataset'"
    ),
    "default_config": "(seed: 'int' = 42) -> 'SyntheticConfig'",
    "dominates": "(z, x) -> 'bool'",
    "eo_violation": "(preds, labels, groups, epsilon: 'float' = 1e-09) -> 'OutcomeReport'",
    "equity_score": (
        "(access: 'AccessReport', outcome: 'OutcomeReport', util: 'UtilizationReport') -> 'float'"
    ),
    "errors": "<module>",
    "feature_proxy_gap": "(proxy_features: 'list[str]', intended_features: 'list[str]') -> 'np.ndarray'",
    "generate_cohort": "(cfg: 'SyntheticConfig', round: 'int') -> 'Cohort'",
    "inputs": "<module>",
    "label_proxy_gap": "(omega_p, omega_t, matching: 'dict[int, int | None]') -> 'np.ndarray'",
    "learner": "<module>",
    "loopsim": "<module>",
    "match_features": (
        "(proxy_features: 'list[str]', intended_features: 'list[str]') -> 'dict[int, int | None]'"
    ),
    "metrics": "<module>",
    "model_access": "(pop: 'Population', om: 'ObstacleModel', policy: 'Policy') -> 'AccessReport'",
    "obstacle_gap": (
        "(om_proxy: 'ObstacleModel', proxy_features: 'list[str]', om_intended: 'ObstacleModel', "
        "intended_features: 'list[str]') -> 'ObstacleGap'"
    ),
    "predict": "(model: 'TrainedModel', x_rev) -> 'int | np.ndarray'",
    "predict_proba": "(model: 'TrainedModel', features) -> 'np.ndarray'",
    "reports": "<module>",
    "reveal_population": (
        "(pop: 'Population', model: 'ObstacleModel', policy: 'Policy') "
        "-> 'tuple[np.ndarray, np.ndarray, np.ndarray]'"
    ),
    "run_equity_scoring": (
        "(proxy_space: 'ModelSpace', intended_space: 'ModelSpace', cfg: 'RunConfig', "
        "max_outer_iters: 'int', max_inner_iters: 'int') -> 'ScoringTrace'"
    ),
    "run_inequity_loop": (
        "(cfg: 'SyntheticConfig', rounds: 'int', regime: 'str') "
        "-> 'tuple[LoopTrajectory, CuratedDataset]'"
    ),
    "scoring": "<module>",
    "train": (
        "(spec: 'ModelSpec', features, labels, seed: 'int' = 0, *, "
        "start: 'TrainedModel | None' = None) -> 'TrainedModel'"
    ),
    "utilization": "(records: 'list[EvaluationRecord]') -> 'UtilizationReport'",
    "utilization_from_labels": "(y_tt, groups) -> 'UtilizationReport'",
}

THRESHOLD_SEARCH = {
    "fit_group_thresholds": (
        "(scores, labels, groups, decision_threshold: 'float', tau_o: 'float') "
        "-> 'dict[int, float]'"
    ),
    "candidate_group_thresholds": (
        "(scores, labels, groups, decision_threshold: 'float', tau_o: 'float' = 0.15, "
        "k: 'int' = 25) -> 'list[dict[int, float]]'"
    ),
}


def signature(obj) -> str:
    if inspect.ismodule(obj):
        return "<module>"
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return "<no signature>"


def test_exported_names_and_their_signatures():
    assert sorted(equity_audit.__all__) == list(SURFACE)
    assert {name: signature(getattr(equity_audit, name)) for name in SURFACE} == SURFACE


def test_threshold_search_signatures():
    # both read the scores their caller holds; neither takes a model or features
    assert {name: signature(getattr(learner, name)) for name in THRESHOLD_SEARCH} == THRESHOLD_SEARCH
