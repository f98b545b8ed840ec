import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equity_audit import loopsim, metrics
from equity_audit.core import ObstacleModel, Policy, Population, reveal_population
from equity_audit.dataio import load_audit_csv
from equity_audit.errors import EquityAuditError, NoPositivesError, UndefinedRateError, ValidationError
from equity_audit.learner import ModelSpec, predict, train
from equity_audit.loopsim import SyntheticConfig, default_config, run_inequity_loop
from equity_audit.metrics import (
    EvaluationRecord,
    audit_reports,
    compute_gap_report,
    eo_violation,
    equity_score,
    feature_proxy_gap,
    label_proxy_gap,
    match_features,
    model_access,
    obstacle_gap,
    utilization,
    utilization_from_labels,
)
from oracles import (
    UndefinedRate,
    eo_violation_masks,
    eo_violation_oracle,
    fp_share_oracle,
    psi_oracle,
    zeta_oracle,
)


def population_with_obstacles(magnitudes, groups=None):
    """1-feature population whose per-person obstacle sizes are as given."""
    n = len(magnitudes)
    return Population(
        x=np.zeros((n, 1)),
        z=np.asarray(magnitudes, dtype=float).reshape(n, 1),
        y=np.zeros(n, dtype=int),
        y_prime=np.ones(n, dtype=int),
        grp=np.zeros(n, dtype=int) if groups is None else groups,
        ids=[f"i{i}" for i in range(n)],
        feature_names=("f",),
    )


OM_UNIT = ObstacleModel.from_alpha([1.0])


class TestModelAccess:
    def test_all_obstacles_zero(self):
        pop = population_with_obstacles([0, 0, 0])
        assert model_access(pop, OM_UNIT, Policy(0.0)).psi == 1.0

    def test_partial_budget(self):
        pop = population_with_obstacles([0, 2, 6, 0])
        report = model_access(pop, OM_UNIT, Policy(5.0))
        assert report.psi == 0.75
        assert report.per_individual == (True, True, False, True)

    def test_zero_budget_positive_obstacles(self):
        pop = population_with_obstacles([1, 3, 9])
        assert model_access(pop, OM_UNIT, Policy(0.0)).psi == 0.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError):
            model_access(population_with_obstacles([]), OM_UNIT, Policy(0.0))

    def test_per_group_rates(self):
        pop = population_with_obstacles([0, 4, 0, 4], groups=[0, 0, 1, 1])
        report = model_access(pop, OM_UNIT, Policy(1.0))
        assert report.per_group == {0: 0.5, 1: 0.5}
        assert report.psi == np.mean(report.per_individual)


class TestEoViolation:
    def test_identical_behavior_across_groups(self):
        preds = [1, 0, 1, 0, 1, 0, 1, 0]
        labels = [1, 1, 0, 0, 1, 1, 0, 0]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        assert eo_violation(preds, labels, groups).eo_violation == 0.0

    def test_hand_counted_example(self):
        labels = [1, 1, 0, 0, 1, 0]
        preds = [1, 0, 1, 0, 1, 0]
        groups = [0, 0, 0, 0, 1, 1]
        report = eo_violation(preds, labels, groups)
        assert report.eo_violation == pytest.approx(1.0, abs=1e-12)
        assert report.eo_violation == pytest.approx(
            eo_violation_oracle(preds, labels, groups), abs=1e-12
        )
        assert report.tpr_by_group == {0: 0.5, 1: 1.0}
        assert report.fpr_by_group == {0: 0.5, 1: 0.0}

    def test_group_without_positives_raises(self):
        with pytest.raises(UndefinedRateError) as excinfo:
            eo_violation([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1])
        assert excinfo.value.group == 1
        assert excinfo.value.rate == "tpr"
        assert "group 1" in str(excinfo.value)

    def test_group_without_negatives_raises(self):
        with pytest.raises(UndefinedRateError) as excinfo:
            eo_violation([1, 0, 1, 1], [1, 0, 1, 1], [0, 0, 1, 1])
        assert excinfo.value.rate == "fpr"

    def test_single_group_rejected(self):
        with pytest.raises(ValidationError):
            eo_violation([1, 0], [1, 0], [0, 0])

    @pytest.mark.parametrize(
        "preds, labels, groups", [([1, 0, 1], [1, 0], [0, 1, 1]), ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [0, 1]])]
    )
    def test_columns_must_be_vectors_of_one_length(self, preds, labels, groups):
        with pytest.raises(ValidationError, match="^preds, labels and groups must be equal-length vectors$"):
            eo_violation(preds, labels, groups)

    def test_equal_outcomes_flag_uses_epsilon(self):
        preds = [1, 0, 1, 0]
        labels = [1, 0, 1, 0]
        assert eo_violation(preds, labels, [0, 0, 1, 1]).equal_outcomes

    @pytest.mark.parametrize(
        "preds, groups, message",
        [
            ([1.5, 0, 1, 0.9], [0, 0, 1, 1], r"preds and labels must be binary \(0/1\)"),
            ([1, 0, 1, 0], [0, 0.5, 1, 1], r"both groups 0 and 1 must be present, got \[0\.0, 0\.5, 1\.0\]"),
        ],
    )
    def test_floats_are_checked_before_any_cast(self, preds, groups, message):
        # a cast to int first would read 1.5 and 0.9 as 1 and 0, and group 0.5 as group 0
        with pytest.raises(ValidationError, match=message):
            eo_violation(preds, [1, 0, 1, 0], groups)

    def test_cancellation_cannot_fake_equality(self):
        # dTPR = +0.5 and dFPR = -0.5: a signed sum would cancel to 0
        labels = [1, 1, 0, 0, 1, 1, 0, 0]
        preds = [1, 1, 0, 0, 1, 0, 1, 0]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        report = eo_violation(preds, labels, groups)
        assert report.eo_violation == pytest.approx(1.0)
        assert not report.equal_outcomes


class TestAccessOutcomeDecoupling:
    """Two-person scenario: tightening access can hide behind equal outcomes."""

    def setup_method(self):
        # person a faces obstacle 1 (z = [6, 0], x = [5, 0]); person b faces none
        self.pop = Population(
            x=[[5.0, 0.0], [6.0, 0.0]], z=[[6.0, 0.0], [6.0, 0.0]], y=[0, 1], y_prime=[1, 1],
            grp=[0, 1], ids=["a", "b"], feature_names=("f1", "f2"),
        )
        self.om = ObstacleModel.from_alpha([1.0, 1.0])
        X = np.array([[5.0, 0.0], [6.0, 0.0]])
        y = np.array([0, 1])
        self.h_prime = train(
            ModelSpec(("f1", "f2"), "norm_threshold", {"threshold": 5.5}), X, y, 0
        )
        self.h_dprime = train(
            ModelSpec(("f1", "f2"), "norm_threshold", {"threshold": 6.0}), X, y, 0
        )

    def test_access_separates_the_models(self):
        psi_equal = model_access(self.pop, self.om, Policy(float("inf"))).psi
        psi_unequal = model_access(self.pop, self.om, Policy(0.0)).psi
        assert psi_equal == 1.0
        assert psi_unequal == 0.5
        assert psi_unequal < psi_equal

    def test_outcomes_identical_on_received_data(self):
        # each model predicts exactly the labels it receives, so any
        # outcome measure computed from received data coincides
        agreements = {}
        for name, model, policy in (
            ("equal_access", self.h_prime, Policy(float("inf"))),
            ("unequal_access", self.h_dprime, Policy(0.0)),
        ):
            x_rev, labels, _ = reveal_population(self.pop, self.om, policy)
            preds = predict(model, x_rev)
            assert preds.tolist() == labels.tolist()
            agreements[name] = (preds == labels).tolist()
        assert agreements["equal_access"] == agreements["unequal_access"]


class TestUtilization:
    def _records(self, y_tts, groups=None):
        return [
            EvaluationRecord(id=f"r{i}", y_pt=1, y_tt=t, grp=0 if groups is None else groups[i])
            for i, t in enumerate(y_tts)
        ]

    def test_full_utilization(self):
        assert utilization(self._records([1, 1, 1])).zeta == 1.0

    def test_three_quarters(self):
        report = utilization(self._records([1, 1, 0, 1]))
        assert report.zeta == 0.75
        assert report.true_positive_share == 0.75
        assert report.false_positive_share == 0.25
        assert report.true_positive_share + report.false_positive_share == pytest.approx(1.0, abs=1e-12)

    def test_loan_default_scenario(self):
        # 175 of 1000 accepted borrowers default (a 15-20% default band)
        rng = np.random.default_rng(99)
        y_tt = np.ones(1000, dtype=int)
        y_tt[rng.choice(1000, size=175, replace=False)] = 0
        report = utilization(self._records(list(y_tt)))
        assert 0.80 <= report.zeta <= 0.85
        assert report.zeta == zeta_oracle(list(y_tt))

    def test_no_positives_is_loud(self):
        with pytest.raises(NoPositivesError):
            utilization([])

    def test_non_positive_record_rejected(self):
        bad = [EvaluationRecord(id="x", y_pt=0, y_tt=1, grp=0)]
        with pytest.raises(ValidationError):
            utilization(bad)

    def test_non_binary_evaluation_label_rejected(self):
        with pytest.raises(ValidationError, match="^record 'r1' has non-binary y_tt$"):
            utilization(self._records([1, 2, 1]))

    def test_fp_share_decomposition_by_group(self):
        report = utilization(self._records([0, 0, 0, 1], groups=[0, 0, 1, 1]))
        assert report.per_group_fp_share == {0: pytest.approx(2 / 3), 1: pytest.approx(1 / 3)}

    def test_no_false_positives_gives_zero_shares(self):
        report = utilization(self._records([1, 1], groups=[0, 1]))
        assert report.per_group_fp_share == {0: 0.0, 1: 0.0}


BAIL_PROXY = ["criminal history", "current crime", "age at arrest"]
BAIL_INTENDED = ["job", "support system", "financial stability"]

HIRING_PROXY = ["code experience", "team player", "references", "gender", "race"]
HIRING_INTENDED = ["accomplished tasks", "team player", "manager ratings", "gender", "race"]
HIRING_IMPORTANCE = [0.5, 0.2, 0.2, 0.05, 0.05]


class TestFeatureProxyGap:
    def test_bail_features_fully_unmatched(self):
        assert feature_proxy_gap(BAIL_PROXY, BAIL_INTENDED).tolist() == [1, 1, 1]

    def test_identical_lists(self):
        assert feature_proxy_gap(BAIL_PROXY, BAIL_PROXY).tolist() == [0, 0, 0]

    def test_hiring_fixture(self):
        assert feature_proxy_gap(HIRING_PROXY, HIRING_INTENDED).tolist() == [1, 0, 1, 0, 0]

    def test_name_normalization(self):
        assert feature_proxy_gap(["Test_Scores "], ["test  scores"]).tolist() == [0]

    def test_duplicate_intended_names_rejected(self):
        with pytest.raises(ValidationError):
            feature_proxy_gap(["a"], ["b", "B"])

    def test_empty_intended_rejected(self):
        with pytest.raises(ValidationError):
            feature_proxy_gap(["a"], [])


class TestLabelProxyGap:
    def test_fully_matched_identical_importances(self):
        matching = match_features(BAIL_PROXY, BAIL_PROXY)
        gap = label_proxy_gap([0.6, 0.3, 0.1], [0.6, 0.3, 0.1], matching)
        assert np.allclose(gap, 0.0)

    def test_unmatched_entry_copies_intended_importance(self):
        matching = {0: None, 1: 0}
        gap = label_proxy_gap([1.0], [0.4, 0.6], matching)
        assert gap[0] == pytest.approx(0.4)

    def test_hiring_fixture_formula_value(self):
        matching = match_features(HIRING_PROXY, HIRING_INTENDED)
        gap = label_proxy_gap(HIRING_IMPORTANCE, HIRING_IMPORTANCE, matching)
        assert np.allclose(gap, [0.5, 0.0, 0.2, 0.0, 0.0])

    def test_sign_flip_copies_intended_importance(self):
        matching = {0: 0, 1: 1}
        gap = label_proxy_gap([0.5, -0.5], [0.5, 0.5], matching)
        assert gap.tolist() == [0.0, 0.5]

    def test_out_of_range_matching_rejected(self):
        with pytest.raises(ValidationError):
            label_proxy_gap([1.0], [1.0], {0: 5})

    def test_unnormalized_importances_rejected(self):
        with pytest.raises(ValidationError):
            label_proxy_gap([0.9, 0.9], [1.0, 0.0][:2], {0: 0, 1: 1})

    @pytest.mark.parametrize("bad", [[float("nan"), 1.0], [float("nan"), float("inf")], [float("inf"), 0.0]])
    def test_non_finite_importances_rejected(self, bad):
        # a NaN sum passes no comparison, so it is no unit L1 norm
        with pytest.raises(ValidationError, match="L1-normalized"):
            label_proxy_gap(bad, [0.5, 0.5], {0: 0, 1: 1})

    def test_gap_report_carries_notes(self):
        report = compute_gap_report(
            HIRING_PROXY, HIRING_INTENDED, HIRING_IMPORTANCE, HIRING_IMPORTANCE
        )
        assert report.gamma_x == (1, 0, 1, 0, 0)
        assert report.gamma_l == pytest.approx((0.5, 0.0, 0.2, 0.0, 0.0))
        assert report.notes and "gamma_l" in report.notes[0]


class TestObstacleGap:
    def test_identical_models(self):
        om = ObstacleModel.from_alpha([1.0, 2.0])
        gap = obstacle_gap(om, ["a", "b"], om, ["a", "b"])
        assert gap.unmatched_affected_features == 0
        assert gap.alpha_l1_distance_on_matched == 0.0

    def test_disjoint_affected_names(self):
        om_p = ObstacleModel.from_alpha([1.0, 1.0])
        om_t = ObstacleModel.from_alpha([1.0, 1.0, 1.0, 1.0])
        gap = obstacle_gap(om_p, ["a", "b"], om_t, ["c", "d", "e", "f"])
        assert gap.unmatched_affected_features == 4
        assert gap.alpha_l1_distance_on_matched == 0.0

    def test_matched_weights_l1(self):
        om_p = ObstacleModel.from_alpha([1.0, 2.0])
        om_t = ObstacleModel.from_alpha([2.0, 2.0])
        gap = obstacle_gap(om_p, ["a", "b"], om_t, ["a", "b"])
        assert gap.unmatched_affected_features == 0
        assert gap.alpha_l1_distance_on_matched == 1.0

    @pytest.mark.parametrize("side", ["proxy", "intended"])
    def test_model_longer_than_its_feature_list_is_refused(self, side):
        short, om = ObstacleModel.from_alpha([1.0]), ObstacleModel.from_alpha([1.0, 2.0])
        args = (short, ["a", "b"], om, ["a", "b"]) if side == "proxy" else (om, ["a", "b"], short, ["a", "b"])
        with pytest.raises(ValidationError, match=f"^{side} obstacle model does not match its feature list$"):
            obstacle_gap(*args)


class TestEquityScore:
    def _access(self, psi):
        pop = population_with_obstacles([0] * 4)
        report = model_access(pop, OM_UNIT, Policy(0.0))
        return type(report)(psi=psi, per_individual=report.per_individual, per_group={})

    def test_perfect_point(self):
        access = self._access(1.0)
        outcome = eo_violation([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1])
        util = utilization([EvaluationRecord("a", 1, 1, 0)])
        assert equity_score(access, outcome, util) == 3.0

    def test_floor(self):
        access = self._access(0.0)
        outcome = eo_violation([1, 0, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1])
        assert outcome.eo_violation >= 1.0
        util = utilization([EvaluationRecord("a", 1, 0, 0)])
        assert equity_score(access, outcome, util) == 0.0

    def test_mixed_arithmetic(self):
        access = self._access(0.75)
        outcome_proto = eo_violation([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1])
        outcome = type(outcome_proto)(
            eo_violation=0.1,
            tpr_by_group={},
            fpr_by_group={},
            equal_outcomes=False,
        )
        util_proto = utilization([EvaluationRecord("a", 1, 1, 0)])
        util = type(util_proto)(
            zeta=0.8,
            m=10,
            true_positive_share=0.8,
            false_positive_share=0.2,
            per_group_fp_share={},
        )
        assert equity_score(access, outcome, util) == pytest.approx(2.45, abs=1e-12)


class TestClaim:
    """Feature-gap / label-gap dependency when importances never vanish."""

    def test_feature_gap_implies_label_gap(self):
        rng = np.random.default_rng(77)
        pool = [f"feat{k}" for k in range(12)]
        for _ in range(300):
            d = int(rng.integers(1, 6))
            intended = list(rng.choice(pool, size=d, replace=False))
            proxy = [f for f in pool if rng.random() < 0.4]
            wt = rng.uniform(0.05, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            wt /= np.abs(wt).sum()
            wp = rng.uniform(0.05, 1.0, size=max(len(proxy), 1))
            wp /= np.abs(wp).sum()
            gx = feature_proxy_gap(proxy, intended)
            if np.any(gx != 0):
                matching = match_features(proxy, intended)
                gl = label_proxy_gap(wp[: len(proxy)] if proxy else [], wt, matching)
                assert np.any(gl != 0)

    def test_zero_feature_gap_does_not_force_zero_label_gap(self):
        proxy = ["a", "b"]
        intended = ["a", "b"]
        matching = match_features(proxy, intended)
        assert feature_proxy_gap(proxy, intended).tolist() == [0, 0]
        gap = label_proxy_gap([0.7, 0.3], [0.3, 0.7], matching)
        assert np.any(gap != 0)


@given(st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=30), st.floats(min_value=0, max_value=12))
@settings(max_examples=100)
def test_psi_matches_oracle(magnitudes, delta):
    pop = population_with_obstacles(magnitudes)
    psi = model_access(pop, OM_UNIT, Policy(delta)).psi
    zs = [[m] for m in magnitudes]
    xs = [[0.0] for _ in magnitudes]
    assert psi == pytest.approx(psi_oracle([1.0], zs, xs, delta), abs=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=60, deadline=None)
def test_psi_monotone_in_delta(seed):
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(0, 10, size=rng.integers(1, 20))
    pop = population_with_obstacles(magnitudes)
    d1, d2 = sorted(rng.uniform(0, 12, size=2))
    assert (
        model_access(pop, OM_UNIT, Policy(d1)).psi
        <= model_access(pop, OM_UNIT, Policy(d2)).psi
    )


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=40, deadline=None)
def test_reports_invariant_under_reordering(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 30))
    preds = rng.integers(0, 2, size=n)
    labels = rng.integers(0, 2, size=n)
    groups = rng.integers(0, 2, size=n)
    # ensure each group has both label classes
    preds[:8] = [1, 0, 1, 0, 1, 0, 1, 0]
    labels[:8] = [1, 0, 1, 0, 1, 0, 1, 0]
    groups[:8] = [0, 0, 0, 0, 1, 1, 1, 1]
    perm = rng.permutation(n)
    base = eo_violation(preds, labels, groups)
    shuffled = eo_violation(preds[perm], labels[perm], groups[perm])
    assert base.eo_violation == pytest.approx(shuffled.eo_violation, abs=1e-12)
    assert base.tpr_by_group == shuffled.tpr_by_group

    magnitudes = rng.uniform(0, 5, size=n)
    pop = population_with_obstacles(magnitudes)
    pop_shuffled = population_with_obstacles(magnitudes[perm])
    assert (
        model_access(pop, OM_UNIT, Policy(1.0)).psi
        == model_access(pop_shuffled, OM_UNIT, Policy(1.0)).psi
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1, 1, 0, 2]),
            st.sampled_from([0, 1, 0, 1, -1]),
            st.sampled_from([0, 1, 0, 1, 2]),
        ),
        max_size=40,
    ),
    st.sampled_from(["equal", "binary", "pair", "pair", "pair", "short"]),
)
@settings(max_examples=500)
def test_eo_violation_counts_like_the_masks_and_the_oracle(rows, shape):
    # "binary" keeps p and y in {0, 1}, "pair" also g; "short" drops one pred
    if shape in ("binary", "pair"):
        rows = [(p % 2, y % 2, g % 2 if shape == "pair" else g) for p, y, g in rows]
    preds, labels, groups = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    if shape == "short" and preds:
        preds = preds[:-1]
    try:
        expected = eo_violation_masks(preds, labels, groups)
    except ValueError as exc:
        with pytest.raises(ValidationError) as excinfo:
            eo_violation(preds, labels, groups)
        assert type(excinfo.value) is ValidationError
        assert str(excinfo.value) == str(exc)
        return
    except UndefinedRate as exc:
        with pytest.raises(UndefinedRateError) as excinfo:
            eo_violation(preds, labels, groups)
        assert (excinfo.value.group, excinfo.value.rate) == (exc.group, exc.rate)
        assert str(excinfo.value) == str(UndefinedRateError(exc.group, exc.rate))
        return
    report = eo_violation(preds, labels, groups)
    assert (report.eo_violation, report.tpr_by_group, report.fpr_by_group) == expected
    assert report.eo_violation == eo_violation_oracle(preds, labels, groups)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=60))
@settings(max_examples=200)
def test_utilization_kernel_matches_records_and_oracle(rows):
    y_tt = [t for t, _ in rows]
    groups = [g for _, g in rows]
    records = [EvaluationRecord(id=f"r{i}", y_pt=1, y_tt=t, grp=g) for i, (t, g) in enumerate(rows)]
    if not rows:
        with pytest.raises(NoPositivesError):
            utilization_from_labels(np.array(y_tt, dtype=int), np.array(groups, dtype=int))
        with pytest.raises(NoPositivesError):
            utilization(records)
        return
    report = utilization_from_labels(np.array(y_tt), np.array(groups))
    assert report == utilization(records)
    assert report.zeta == zeta_oracle(y_tt)
    assert list(report.per_group_fp_share) == sorted(set(groups))
    assert all(type(k) is int for k in report.per_group_fp_share)


class TestUtilizationKernel:
    def test_single_group(self):
        report = utilization_from_labels(np.array([1, 0, 0, 1, 1]), np.array([1, 1, 1, 1, 1]))
        assert (report.zeta, report.m, report.false_positive_share) == (0.6, 5, 0.4)
        assert report.per_group_fp_share == {1: 1.0}

    @pytest.mark.parametrize("groups", [[0, 1, 2, 1], [4, 4, 4, 4], [0, 1, -1, 0], [0, 1, 0.5, 1]])
    def test_groups_other_than_0_and_1_are_refused(self, groups):
        with pytest.raises(ValidationError, match="both groups 0 and 1 must be present"):
            utilization_from_labels(np.array([1, 0, 0, 1]), np.array(groups))
        records = [EvaluationRecord(id=f"r{i}", y_pt=1, y_tt=1, grp=g) for i, g in enumerate(groups)]
        with pytest.raises(ValidationError, match="both groups 0 and 1 must be present"):
            utilization(records)

    def test_non_binary_label_names_its_index(self):
        with pytest.raises(ValidationError) as excinfo:
            utilization_from_labels(np.array([1, 0, 2, 7]), np.array([0, 1, 0, 1]))
        assert excinfo.value.row == 2
        assert "got 2" in str(excinfo.value)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            utilization_from_labels(np.array([1, 0]), np.array([0]))


def _reports_or_error(count, *args):
    """The report dicts ``count`` returns for a log, or the type, message and row of its error."""
    try:
        outcome, util = count(*args)
    except EquityAuditError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return repr(outcome.to_dict()), None if util is None else repr(util.to_dict())


def _one_by_one(preds, labels, groups, y_tt, epsilon):
    """eo_violation, then utilization_from_labels on the rows with pred 1."""
    outcome = eo_violation(preds, labels, groups, epsilon)
    if y_tt is None:
        return outcome, None
    accepted = np.flatnonzero(np.asarray(preds) == 1)
    return outcome, utilization_from_labels(np.asarray(y_tt)[accepted], np.asarray(groups)[accepted])


def _swapped(rows: list, swaps: list) -> list:
    """``rows`` with cell ``(k, column)`` set to ``value`` for each swap, ``k`` wrapped to a row."""
    rows = [list(row) for row in rows]
    for k, column, value in swaps if rows else ():
        rows[k % len(rows)][column] = value
    return rows


@given(
    st.builds(
        _swapped,
        st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=6, max_size=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3), st.sampled_from([-1, 2])), max_size=2)
        | st.just([]),
    ),
    st.sampled_from(["both"] * 8 + ["no group 0", "no group 1"]),
    st.sampled_from(["int64", "int64", "int8", "bool", "float64"]),
    st.sampled_from(["int64", "int64", "int8", "float64", "none"]),
    st.sampled_from([1e-9, 0.5]),
)
@settings(max_examples=300)
def test_audit_reports_equal_the_two_functions_and_the_oracles(rows, groups_kept, dtype, y_tt_dtype, epsilon):
    """Mostly binary logs, a cell or two swapped for -1 or 2, a group sometimes dropped.

    A bool column turns a swapped -1 or 2 into True.
    """
    if groups_kept != "both":
        rows = [r for r in rows if r[2] != (0 if groups_kept == "no group 0" else 1)]
    columns = [np.array(col, dtype=np.int64) for col in zip(*rows)] if rows else [np.zeros(0, dtype=np.int64)] * 4
    preds, labels, groups = (c.astype(dtype) for c in columns[:3])
    y_tt = None if y_tt_dtype == "none" else columns[3].astype(y_tt_dtype)
    got = _reports_or_error(audit_reports, preds, labels, groups, y_tt, epsilon)
    assert got == _reports_or_error(_one_by_one, preds, labels, groups, y_tt, epsilon)

    # the outcome error, if any, is the mask oracle's, and comes first
    try:
        expected = eo_violation_masks(preds, labels, groups)
    except ValueError as exc:
        assert (got[0], got[2]) == (ValidationError, None)
        # the oracle casts to int, so it names a float column's groups as ints
        assert got[1].split(" got ")[0] == str(exc).split(" got ")[0]
        if dtype != "float64":
            assert got[1] == str(exc)
        return
    except UndefinedRate as exc:
        assert got == (UndefinedRateError, str(UndefinedRateError(exc.group, exc.rate)), None)
        return
    # then the first accepted row whose y_tt is not 0 or 1, counted among the accepted rows
    accepted_t = [] if y_tt is None else [t for p, t in zip(preds.tolist(), y_tt.tolist()) if p == 1]
    bad = [k for k, t in enumerate(accepted_t) if t not in (0, 1)]
    if bad:
        assert got == (ValidationError, f"y_tt must be 0 or 1, got {accepted_t[bad[0]]!r}", bad[0])
        return
    if y_tt is not None and not accepted_t:
        assert got[0] is NoPositivesError
        return
    outcome, util = audit_reports(preds, labels, groups, y_tt, epsilon)
    assert (outcome.eo_violation, outcome.tpr_by_group, outcome.fpr_by_group) == expected
    assert outcome.eo_violation == eo_violation_oracle(preds.tolist(), labels.tolist(), groups.tolist())
    assert outcome.equal_outcomes == (outcome.eo_violation <= epsilon)
    if y_tt is not None:
        accepted = preds == 1
        assert util.zeta == zeta_oracle(accepted_t)
        assert util.m == len(accepted_t)
        assert util.per_group_fp_share == fp_share_oracle(accepted_t, groups[accepted].tolist())


class TestAuditReports:
    LOG = {
        "preds": np.array([1, 0, 1, 0, 1, 0, 1, 1]),
        "labels": np.array([1, 0, 0, 1, 1, 0, 0, 1]),
        "groups": np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        "y_tt": np.array([1, 1, 0, 1, 1, 1, 1, 0]),
    }

    def test_every_caller_counts_the_log_once(self, monkeypatch):
        # a second count beside metrics._count_log would show as a caller
        # that does not go through it, or goes through it twice
        count, calls = metrics._count_log, []

        def counting(*args):
            calls.append(len(args[0]))
            return count(*args)

        monkeypatch.setattr(metrics, "_count_log", counting)
        monkeypatch.setattr(loopsim, "_count_log", counting)
        log = self.LOG
        cfg = SyntheticConfig(**default_config(seed=3).__dict__ | {"n_per_round": 200})
        runs = {
            f"audit_reports {dtype}": lambda dtype=dtype: audit_reports(*(c.astype(dtype) for c in log.values()))
            for dtype in ("int8", "int64", "float64")
        } | {
            "eo_violation": lambda: eo_violation(log["preds"], log["labels"], log["groups"]),
            "utilization_from_labels": lambda: utilization_from_labels(log["y_tt"], log["groups"]),
            "one loop round": lambda: run_inequity_loop(cfg, 1, "no_equity"),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            assert calls == [200 if name == "one loop round" else 8], name
        assert audit_reports(*log.values())[1].per_group_fp_share == {0: 0.5, 1: 0.5}

    def test_non_binary_y_tt_on_a_rejected_row_is_allowed(self):
        expected = audit_reports(*self.LOG.values())
        log = dict(self.LOG, y_tt=np.array([1, 9, 0, -4, 1, 2**62, 1, 0]))
        assert audit_reports(*log.values()) == expected
        for value in (float("nan"), float("inf"), float("-inf")):
            y_tt = self.LOG["y_tt"].astype(np.float64)
            y_tt[[1, 5]] = value  # rows with pred 0
            assert audit_reports(*dict(self.LOG, y_tt=y_tt).values()) == expected

    @pytest.mark.parametrize(
        "y_tt", [np.ones(3, dtype=int), np.ones(20, dtype=int), np.ones((8, 1), dtype=int), np.ones((2, 8))],
        ids=["shorter", "longer", "a column", "2-D"],
    )
    def test_y_tt_of_another_shape_is_refused_before_counting(self, y_tt):
        # a shorter one must not raise IndexError, nor a longer one be read at the accepted rows
        message = f"y_tt must be a vector as long as preds (8), got shape {y_tt.shape}"
        with pytest.raises(ValidationError, match=re.escape(message)) as excinfo:
            audit_reports(self.LOG["preds"], self.LOG["labels"], self.LOG["groups"], y_tt)
        assert excinfo.value.row is None

    def test_float_y_tt_is_not_truncated(self):
        log = dict(self.LOG, y_tt=np.array([1, 1, 0.5, 1, 1, 1, 1, 0]))
        with pytest.raises(ValidationError, match=r"y_tt must be 0 or 1, got 0\.5") as excinfo:
            audit_reports(*log.values())
        assert excinfo.value.row == 1  # the second accepted row

    def test_text_y_tt_is_refused_by_its_value(self):
        log = dict(self.LOG, y_tt=self.LOG["y_tt"].astype(str))
        with pytest.raises(ValidationError, match="y_tt must be 0 or 1, got '1'") as excinfo:
            audit_reports(*log.values())
        assert excinfo.value.row == 0

    @pytest.mark.parametrize("column, value", [("preds", 0.5), ("labels", 1.5), ("groups", 0.5)])
    def test_float_columns_are_not_truncated(self, column, value):
        log = dict(self.LOG)
        log[column] = log[column].astype(np.float64)
        log[column][2] = value
        with pytest.raises(ValidationError):
            audit_reports(*log.values())

    def test_without_y_tt_there_is_no_utilization(self):
        outcome, util = audit_reports(self.LOG["preds"], self.LOG["labels"], self.LOG["groups"])
        assert util is None
        assert outcome == eo_violation(self.LOG["preds"], self.LOG["labels"], self.LOG["groups"])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4095, 4096, 200_001])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool, np.float64])
    def test_the_two_row_count_is_bincount(self, n, dtype):
        # the first 16 rows reach every cell, the rest are drawn
        cells = np.random.default_rng(n).integers(0, 16, size=n)
        cells[:16] = np.arange(16)[:n]
        t, g, y, p = (cells >> np.arange(3, -1, -1)[:, None]) & 1
        t |= 1 - p  # a rejected row's t is free; with p 0 it counts as 0
        columns = [c.astype(dtype) for c in (p, y, g, t)]
        for given_t, key in ((columns[3], cells & ~(8 * (1 - p))), (None, cells & 7)):
            expected = np.bincount(key, minlength=16)
            table = metrics._count_log(*columns[:3], given_t)
            assert table.dtype == expected.dtype
            assert table.ravel().tolist() == expected.tolist()
        # a reversed view: the count makes its own contiguous key
        reversed_table = metrics._count_log(*(c[::-1] for c in columns))
        assert reversed_table.ravel().tolist() == np.bincount(cells & ~(8 * (1 - p)), minlength=16).tolist()

    def test_an_empty_log_has_no_groups(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValidationError, match=r"both groups 0 and 1 must be present, got \[\]"):
            audit_reports(empty, empty, empty, empty)

    def test_a_200k_row_log_is_held_and_counted_at_byte_width(self, tmp_path):
        # one byte a cell: four int64 columns held 6.10 MiB, and the count
        # peaked at 7.63 MiB with them
        import tracemalloc

        cells = np.random.default_rng(28).integers(0, 2, size=(200_000, 4))
        path = tmp_path / "log.csv"
        path.write_text("pred,label,group,y_tt\n" + "".join(f"{a},{b},{c},{d}\n" for a, b, c, d in cells.tolist()))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            columns = load_audit_csv(path)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            reports = audit_reports(*columns)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held <= 1 << 20
        assert peak < 3 << 20
        assert reports == audit_reports(*cells.T)
