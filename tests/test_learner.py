import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equity_audit.errors import SingleClassError, ValidationError
from equity_audit.learner import (
    NEWTON_TOL,
    ModelSpec,
    TrainedModel,
    _group_threshold_grid,
    _logistic_terms,
    _sigmoid,
    _sorted_quantiles,
    _first_pairs,
    _Workspace,
    candidate_group_thresholds,
    fit_group_thresholds,
    group_cutoffs,
    logistic_loss_and_gradient,
    predict,
    predict_proba,
    predict_with_group_thresholds,
    train,
)
from equity_audit.reports import json_text
from oracles import (
    best_threshold_pair,
    group_cutoffs_by_label,
    logistic_fit_reference,
    logistic_gradient_oracle,
    logistic_loss_oracle,
    ranked_threshold_pairs,
    row_major_proba,
    threshold_grid_dense,
    threshold_grid_masks,
    two_branch_sigmoid,
    where_logistic_terms,
    where_sigmoid,
)


def separable_1d(n=60, seed=3):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-3, -0.5, n // 2), rng.uniform(0.5, 3, n // 2)])
    y = (x > 0).astype(int)
    return x[:, None], y


class TestTrain:
    def test_separable_data_reaches_full_accuracy(self):
        X, y = separable_1d()
        model = train(ModelSpec(("f",)), X, y, seed=0)
        preds = predict(model, X)
        assert np.mean(preds == y) == 1.0

    def test_determinism_bitwise(self):
        X, y = separable_1d(seed=9)
        m1 = train(ModelSpec(("f",)), X, y, seed=7)
        m2 = train(ModelSpec(("f",)), X, y, seed=7)
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert m1.intercept == m2.intercept

    def test_single_class_rejected(self):
        X = np.ones((5, 1))
        with pytest.raises(SingleClassError):
            train(ModelSpec(("f",)), X, np.ones(5), seed=0)

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.inf]])
        with pytest.raises(ValidationError):
            train(ModelSpec(("f",)), X, np.array([0, 1]), seed=0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationError):
            train(ModelSpec(("f",)), np.array([[1.0]]), np.array([1]), seed=0)

    def test_norm_threshold_requires_threshold(self):
        X, y = separable_1d()
        with pytest.raises(ValidationError):
            train(ModelSpec(("f",), "norm_threshold"), X, y, seed=0)

    @pytest.mark.parametrize(
        "X, y, message",
        [
            (np.ones(4), [0, 1, 0, 1], r"^features must be 2-D, got shape \(4,\)$"),
            (np.ones((4, 2)), [0, 1, 0, 1], r"^features have 2 columns, spec names 1$"),
            (np.ones((4, 1)), [0, 1, 0], r"^labels must be a vector matching the feature rows$"),
            (np.ones((4, 1)), [0, 1, 2, 1], r"^labels must be 0 or 1, got \[2.0\]$"),
        ],
        ids=["1-d", "columns", "label-count", "label-2"],
    )
    def test_misshapen_training_inputs_are_named(self, X, y, message):
        with pytest.raises(ValidationError, match=message):
            train(ModelSpec(("f",)), X, np.asarray(y), seed=0)

    @pytest.mark.parametrize(
        "names, function_class, message",
        [
            ((), "logistic_regression", r"^feature_names must be nonempty$"),
            (("f", "f"), "logistic_regression", r"^feature_names must be unique$"),
            (("f",), "forest", r"^unknown function_class 'forest'; expected one of \('logistic_regression', "),
        ],
        ids=["empty", "duplicate", "unknown-class"],
    )
    def test_malformed_spec_is_refused(self, names, function_class, message):
        with pytest.raises(ValidationError, match=message):
            ModelSpec(names, function_class)


class TestPredict:
    def test_norm_threshold_rules(self):
        spec2 = ModelSpec(("a", "b"), "norm_threshold", {"threshold": 6.0})
        X = np.array([[5.0, 0.0], [6.0, 0.0]])
        model6 = train(spec2, X, np.array([0, 1]), seed=0)
        assert predict(model6, np.array([5.0, 0.0])) == 0
        assert predict(model6, np.array([6.0, 0.0])) == 1
        spec55 = ModelSpec(("a", "b"), "norm_threshold", {"threshold": 5.5})
        model55 = train(spec55, X, np.array([0, 1]), seed=0)
        assert predict(model55, np.array([6.0, 0.0])) == 1

    def test_tie_at_threshold_classifies_positive(self):
        spec = ModelSpec(("a",), "norm_threshold", {"threshold": 2.0})
        model = train(spec, np.array([[1.0], [3.0]]), np.array([0, 1]), seed=0)
        assert predict(model, np.array([2.0])) == 1

    def test_dimension_mismatch(self):
        X, y = separable_1d()
        model = train(ModelSpec(("f",)), X, y, seed=0)
        with pytest.raises(ValidationError):
            predict(model, np.array([1.0, 2.0]))


def error_rate(model, X, y) -> float:
    """0/1 error of a model's decisions."""
    return float(np.mean(predict(model, X) != y))


class TestLoss:
    def test_perfect_threshold_classifier(self):
        spec = ModelSpec(("a",), "norm_threshold", {"threshold": 2.0})
        X = np.array([[1.0], [1.5], [2.5], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = train(spec, X, y, seed=0)
        assert error_rate(model, X, y) == 0.0

    def test_constant_positive_predictor_on_positive_labels(self):
        spec = ModelSpec(("a",), "norm_threshold", {"threshold": 0.0})
        X = np.array([[0.4], [2.0], [5.0], [0.1]])
        model = train(spec, X, np.array([0, 1, 1, 1]), seed=0)
        assert error_rate(model, X, np.ones(4)) == 0.0

    def test_random_labels_against_constant_predictor(self):
        rng = np.random.default_rng(123)
        y = rng.integers(0, 2, size=1000)
        spec = ModelSpec(("a",), "norm_threshold", {"threshold": 0.0})
        X = rng.uniform(1, 2, size=(1000, 1))
        model = train(spec, X[:2], np.array([0, 1]), seed=0)
        assert error_rate(model, X, y) == pytest.approx(0.5, abs=0.05)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d = int(rng.integers(4, 30)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(scale=0.5, size=d + 1)
            _, grad = logistic_loss_and_gradient(w, X, y, l2=1e-3)
            eps = 1e-6
            for k in range(d + 1):
                bump = np.zeros(d + 1)
                bump[k] = eps
                hi, _ = logistic_loss_and_gradient(w + bump, X, y, l2=1e-3)
                lo, _ = logistic_loss_and_gradient(w - bump, X, y, l2=1e-3)
                numeric = (hi - lo) / (2 * eps)
                denom = max(abs(numeric), abs(grad[k]), 1e-8)
                assert abs(numeric - grad[k]) / denom < 1e-5


def _reference_cases(student_path):
    """(name, X, y, hyperparams) of the shapes the package trains on."""
    from equity_audit.config import RunConfig
    from equity_audit.dataio import build_case_study_views, load_uci_students
    from equity_audit.loopsim import default_config, generate_cohort

    rng = np.random.default_rng(13)
    const = np.column_stack([rng.normal(size=50), np.full(50, 2.5)])
    wide = np.concatenate([rng.uniform(-3, -1, 40), rng.uniform(1, 3, 40)])[:, None]
    cohort = generate_cohort(default_config(seed=42), 0).proxy
    views = build_case_study_views(load_uci_students(student_path), RunConfig())
    return [
        ("n2_d1", np.array([[0.0], [1.0]]), np.array([0, 1]), {}),
        ("constant_column", const, (const[:, 0] > 0).astype(int), {"iterations": 300}),
        # separable with no penalty: no finite optimum, scores grow until
        # the sigmoid saturates
        ("saturating", wide, (wide[:, 0] > 0).astype(int), {"iterations": 300, "l2": 0.0}),
        ("loop", cohort.x_matrix(), cohort.labels(), {}),
        ("case_study", views.proxy.x_matrix(), views.proxy.labels(), {}),
    ]


def _fit_case(X, y, hyperparams):
    spec = ModelSpec(tuple(f"f{j}" for j in range(X.shape[1])), hyperparams=hyperparams)
    return train(spec, X, y, seed=0), spec.resolved_hyperparams()["l2"]


def test_train_meets_kkt_bound(student_path):
    """At return the loss gradient (recomputed row by row) is within the stopping rule's bound.

    The fit stops once g' H^-1 g / 2 <= NEWTON_TOL * loss. Since
    |g|^2 <= (g' H^-1 g) * lambda_max(H), lambda_max(H) <= (d + 1) / 4 + l2
    on standardized features, and the loss never exceeds its value log 2
    at the zero start, |g| <= sqrt(2 * NEWTON_TOL * log 2 * ((d + 1) / 4 + l2)).
    The separable shape has no finite optimum and must say so.
    """
    for name, X, y, hyperparams in _reference_cases(student_path):
        model, l2 = _fit_case(X, y, hyperparams)
        grad = logistic_gradient_oracle(
            X, y, model.coefficients, model.intercept, model.mu, model.sigma, l2
        )
        d = X.shape[1]
        bound = np.sqrt(2 * NEWTON_TOL * np.log(2) * ((d + 1) / 4 + l2))
        assert np.linalg.norm(grad) <= bound, name
        assert model.grad_norm == pytest.approx(np.linalg.norm(grad), abs=1e-12), name
        assert model.converged is (name != "saturating"), name
        assert 1 <= model.n_iter <= hyperparams.get("iterations", 2000), name


def test_train_agrees_with_long_run_gd(student_path):
    """Newton's loss is the long-run gradient-descent loss, to GD's own error bound.

    Plain GD from zero with step 1/L (L = lambda_max(A'A) / (4n) + l2 with
    A the standardized design plus an intercept column) satisfies
    f(w_K) - f(u) <= L |u|^2 / (2K) for every u, so with u the Newton
    weights the GD loss may exceed Newton's by at most that, and may fall
    below it by no more than Newton's stopping bound NEWTON_TOL * loss. On
    the loop shape, whose loss is well conditioned, 1000 steps also settle
    the weights, which must agree to 1e-6.
    """
    steps = 1000
    for name, X, y, hyperparams in _reference_cases(student_path):
        model, l2 = _fit_case(X, y, hyperparams)
        Xs = (X - X.mean(axis=0)) / np.sqrt(np.maximum(X.var(axis=0), 1e-12))
        design = np.column_stack([Xs, np.ones(len(y))])
        lipschitz = np.linalg.eigvalsh(design.T @ design / len(y)).max() / 4 + l2
        coef, intercept, mu, sigma = logistic_fit_reference(X, y, steps, 1 / lipschitz, l2)
        newton_loss = logistic_loss_oracle(
            X, y, model.coefficients, model.intercept, model.mu, model.sigma, l2
        )
        gd_loss = logistic_loss_oracle(X, y, coef, intercept, mu, sigma, l2)
        weights = np.append(model.coefficients, model.intercept)
        assert gd_loss - newton_loss <= lipschitz * (weights @ weights) / (2 * steps), name
        assert newton_loss - gd_loss <= NEWTON_TOL * newton_loss, name
        if name == "loop":
            assert np.max(np.abs(np.append(coef, intercept) - weights)) <= 1e-6


def test_sigmoid_bit_identical_to_two_branch_form():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0])
    rng = np.random.default_rng(17)
    arrays = [edges] + [
        rng.normal(scale=scale, size=n)
        for n in (1, 2, 7, 1000, 100_001)
        for scale in (1.0, 50.0, 800.0)
    ]
    for s in arrays:
        assert np.array_equal(_sigmoid(s).view(np.int64), two_branch_sigmoid(s).view(np.int64))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


# signed zeros, infinities, NaN and scores past +-745, where exp(-|s|) is 0
_EDGE_SCORES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e4, -1e4, 1e308, -1e308]
)


def test_sigmoid_bit_identical_to_where_form():
    rng = np.random.default_rng(23)
    for s in (_EDGE_SCORES, rng.normal(scale=500.0, size=1001), rng.normal(size=4)):
        assert np.array_equal(_bits(_sigmoid(s)), _bits(where_sigmoid(s)))


def test_logistic_terms_bit_identical_to_where_form_through_one_workspace():
    rng = np.random.default_rng(29)
    d, n = 3, 301
    XT = np.ascontiguousarray(rng.normal(size=(d, n)))
    y = (rng.random(n) < 0.4).astype(float)
    work = _Workspace(d, n)
    weight_sets = [
        np.zeros(d + 1),
        np.array([0.0, 0.0, 0.0, -0.0]),
        rng.normal(size=d + 1),
        rng.normal(scale=2e3, size=d + 1),  # most scores beyond +-745
        np.array([np.inf, 0.0, 0.0, 0.0]),  # scores of +-inf
        np.array([1e308, 1e308, 0.0, 0.0]),
        rng.normal(size=d + 1),  # a plain call after the extreme ones
    ]
    for l2 in (0.0, 1e-4):
        for weights in weight_sets:
            with np.errstate(invalid="ignore", over="ignore"):
                want = where_logistic_terms(weights, XT, y, l2)
                got = _logistic_terms(weights, XT, y, l2, work)
            assert got[2] is work.proba
            assert _bits(got[0]) == _bits(want[0])
            assert np.array_equal(_bits(got[1]), _bits(want[1]))
            assert np.array_equal(_bits(got[2]), _bits(want[2]))


class TestImportance:
    def test_normalized_signed(self):
        spec = ModelSpec(("a", "b"))
        model = TrainedModel.from_coefficients(spec, [2.0, -2.0])
        assert np.allclose(model.importance, [0.5, -0.5])

    def test_all_zero(self):
        spec = ModelSpec(("a", "b"))
        model = TrainedModel.from_coefficients(spec, [0.0, 0.0])
        assert np.array_equal(model.importance, [0.0, 0.0])

    @pytest.mark.parametrize("coefficients, shape", [([1.0], r"\(1,\)"), ([[1.0, 2.0]], r"\(1, 2\)")])
    def test_one_coefficient_per_feature(self, coefficients, shape):
        with pytest.raises(ValidationError, match=f"^expected 2 coefficients, got {shape}$"):
            TrainedModel.from_coefficients(ModelSpec(("a", "b")), coefficients)

    def test_already_normalized_fixture_unchanged(self):
        spec = ModelSpec(("code experience", "team player", "references", "gender", "race"))
        weights = [0.5, 0.2, 0.2, 0.05, 0.05]
        model = TrainedModel.from_coefficients(spec, weights)
        assert np.allclose(model.importance, weights)

    def test_trained_importance_sums_to_one(self):
        X, y = separable_1d()
        rng = np.random.default_rng(0)
        X = np.hstack([X, rng.normal(size=(len(y), 2))])
        model = train(ModelSpec(("a", "b", "c")), X, y, seed=0)
        assert abs(np.sum(np.abs(model.importance)) - 1.0) < 1e-9
        assert np.all(np.sign(model.importance) == np.sign(model.coefficients))


@given(
    scale=st.floats(min_value=0.05, max_value=40.0),
    shift=st.floats(min_value=-30.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_affine_rescaling_keeps_decisions(scale, shift, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 2))
    y = (X[:, 0] + 0.4 * rng.normal(size=50) > 0).astype(int)
    if y.min() == y.max():
        return
    spec = ModelSpec(("a", "b"))
    base = predict(train(spec, X, y, seed=0), X)
    X2 = X.copy()
    X2[:, 1] = X2[:, 1] * scale + shift
    rescaled = predict(train(spec, X2, y, seed=0), X2)
    assert np.array_equal(base, rescaled)


def test_case_study_features_beat_majority_rate(student_path):
    from equity_audit.config import RunConfig
    from equity_audit.dataio import PROXY_FEATURES, build_case_study_views, load_uci_students

    views = build_case_study_views(load_uci_students(student_path), RunConfig(seed=7))
    X = views.proxy.x_matrix()
    y = views.proxy.labels()
    majority = max(np.mean(y), 1 - np.mean(y))
    model = train(ModelSpec(PROXY_FEATURES), X, y, seed=7)
    accuracy = np.mean(predict(model, X) == y)
    assert accuracy > majority


class TestFitDiagnostics:
    def test_separable_without_penalty_ends_unconverged(self):
        X, y = separable_1d()
        for cap in (2000, 5):
            model = train(ModelSpec(("f",), hyperparams={"l2": 0.0, "iterations": cap}), X, y)
            assert model.converged is False
            assert model.n_iter <= cap
            assert np.all(np.isfinite(model.coefficients))

    def test_well_conditioned_fit_converges_in_a_few_steps(self):
        # shaped like the score workload's weak two-feature candidates
        # (weights near 0.3): after three Newton steps the gradient norm is
        # 1.6e-10, where a step lowers the loss by about 1e-19, below its
        # rounding; a fit that stops at |g| <= 1e-10 and halves the step
        # whenever the loss does not fall never gets there
        rng = np.random.default_rng(26)
        latent = rng.normal(size=1400)
        X = np.column_stack([0.2 * latent + rng.normal(size=1400), rng.normal(size=1400)])
        y = (latent > 0).astype(int)
        model = train(ModelSpec(("t0", "u0")), X, y)
        assert model.converged is True
        assert model.n_iter <= 5
        assert model.grad_norm < 1e-6

    def test_cap_is_honoured(self):
        X, y = separable_1d()
        model = train(ModelSpec(("f",), hyperparams={"iterations": 1}), X, y)
        assert model.n_iter == 1
        assert model.converged is False

    def test_negative_cap_is_refused(self):
        for cap in (-1, -5, -1.0):
            message = f"hyperparameter 'iterations' must be >= 0, got {cap!r}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                ModelSpec(("f",), hyperparams={"iterations": cap})
        assert train(ModelSpec(("f",), hyperparams={"iterations": 0}), *separable_1d()).n_iter == 0

    @staticmethod
    def noisy_two_features(n=500, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=n) > 0).astype(int)
        return X, y

    def test_constant_column_without_penalty_fits_the_others(self):
        # a constant integer column standardizes to exact zeros, a zero row
        # of the unpenalized Hessian
        X, y = self.noisy_two_features()
        reference = train(ModelSpec(("a", "b"), hyperparams={"l2": 0.0}), X, y)
        for value in (3.0, 0.1):
            with_const = np.column_stack([X[:, 0], np.full(len(y), value), X[:, 1]])
            model = train(ModelSpec(("a", "c", "b"), hyperparams={"l2": 0.0}), with_const, y)
            assert model.converged is True
            assert model.coefficients[1] == 0.0
            np.testing.assert_allclose(
                model.coefficients[[0, 2]], reference.coefficients, rtol=1e-9
            )
            assert model.intercept == pytest.approx(reference.intercept, rel=1e-9)

    def test_duplicate_column_without_penalty_splits_the_weight(self):
        # an exactly singular Hessian: the least-norm Newton step shares
        # the weight equally between the two copies
        X, y = self.noisy_two_features()
        reference = train(ModelSpec(("a", "b"), hyperparams={"l2": 0.0}), X, y)
        doubled = np.column_stack([X, X[:, 0]])
        model = train(ModelSpec(("a", "b", "a2"), hyperparams={"l2": 0.0}), doubled, y)
        assert model.converged is True
        assert model.coefficients[0] == pytest.approx(model.coefficients[2], rel=1e-9)
        assert model.coefficients[0] * 2 == pytest.approx(reference.coefficients[0], rel=1e-9)
        assert model.coefficients[1] == pytest.approx(reference.coefficients[1], rel=1e-9)

    def test_unfitted_models_carry_no_diagnostics(self):
        spec = ModelSpec(("a",), "norm_threshold", {"threshold": 1.0})
        fixed = train(spec, np.array([[0.0], [2.0]]), np.array([0, 1]))
        given = TrainedModel.from_coefficients(ModelSpec(("a",)), [1.0])
        for model in (fixed, given):
            assert (model.n_iter, model.grad_norm, model.converged) == (None, None, None)


def _fitted_loss(model: TrainedModel, X, y) -> float:
    """The training loss at a model's weights, in its own standardized coordinates."""
    Xs = (X - model.mu) / model.sigma
    weights = np.append(model.coefficients, model.intercept)
    return logistic_loss_and_gradient(weights, Xs, y, model.spec.resolved_hyperparams()["l2"])[0]


class TestWarmStart:
    @staticmethod
    def data(seed, n=300, d=3, scale=1.0, shift=0.0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * scale + shift
        y = ((X - shift) @ np.linspace(1.0, -0.5, d) + rng.normal(size=n) > 0).astype(int)
        return X, y

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=20, max_value=300),
        d=st.integers(min_value=1, max_value=4),
        scale=st.floats(min_value=0.1, max_value=20.0),
        shift=st.floats(min_value=-20.0, max_value=20.0),
        reach=st.sampled_from([0.5, 5.0, 200.0]),
        start_mu=st.floats(min_value=-5.0, max_value=5.0),
        start_sigma=st.floats(min_value=0.1, max_value=10.0),
        start_seed=st.integers(min_value=0, max_value=10_000),
        l2=st.sampled_from([1e-4, 0.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_fit_reaches_the_cold_fits_loss(
        self, seed, n, d, scale, shift, reach, start_mu, start_sigma, start_seed, l2
    ):
        # starts up to +-200 in their own standardized weights, mapped from
        # another standardization; some far ones saturate every score, where
        # only the cold refit finds the optimum
        X, y = self.data(seed, n, d, scale, shift)
        if y.min() == y.max():
            return
        spec = ModelSpec(tuple(f"f{i}" for i in range(d)), hyperparams={"l2": l2})
        rng = np.random.default_rng(start_seed)
        start = TrainedModel(
            spec=spec,
            coefficients=rng.uniform(-reach, reach, d),
            intercept=float(rng.uniform(-reach, reach)),
            mu=np.full(d, start_mu),
            sigma=np.full(d, start_sigma),
            importance=np.zeros(d),
        )
        cold = train(spec, X, y)
        warm = train(spec, X, y, start=start)
        assert np.array_equal(warm.mu, cold.mu) and np.array_equal(warm.sigma, cold.sigma)
        if cold.converged:
            assert warm.converged is True
            cold_loss, warm_loss = _fitted_loss(cold, X, y), _fitted_loss(warm, X, y)
            assert abs(warm_loss - cold_loss) <= 4 * NEWTON_TOL * cold_loss

    def test_start_at_the_fitted_model_takes_no_step(self):
        X, y = self.data(4)
        spec = ModelSpec(("a", "b", "c"))
        cold = train(spec, X, y)
        assert cold.converged is True and cold.n_iter > 0
        again = train(spec, X, y, start=cold)
        assert (again.n_iter, again.converged) == (0, True)

    def test_start_from_other_rows_takes_fewer_steps(self):
        # the loop's case: the pool grows by a batch between two fits
        X, y = self.data(5, n=2000)
        spec = ModelSpec(("a", "b", "c"))
        earlier = train(spec, X[:1500], y[:1500])
        cold, warm = train(spec, X, y), train(spec, X, y, start=earlier)
        assert warm.converged is True and warm.n_iter < cold.n_iter
        cold_loss = _fitted_loss(cold, X, y)
        assert abs(_fitted_loss(warm, X, y) - cold_loss) <= 4 * NEWTON_TOL * cold_loss

    def test_start_that_stops_short_is_refitted_from_zero(self):
        # a one-step cap stops the warm fit unconverged; the cold refit
        # then takes its own step, and both are counted
        X, y = separable_1d()
        spec = ModelSpec(("f",), hyperparams={"iterations": 1})
        start = TrainedModel.from_coefficients(ModelSpec(("f",)), [-50.0], 10.0)
        cold = train(spec, X, y)
        warm = train(spec, X, y, start=start)
        assert (cold.n_iter, warm.n_iter, warm.converged) == (1, 2, False)
        assert np.array_equal(warm.coefficients, cold.coefficients) and warm.intercept == cold.intercept

    def test_start_that_saturates_every_score_is_refitted_from_zero(self):
        # every score of this start is above 1300, where each row's curvature
        # p(1 - p) rounds to 0: the Hessian is singular, and its least-norm
        # step sees none of the gradient, so only the decrement would call it
        # converged
        X, y = self.data(0, n=20, d=1, shift=6.0)
        start = TrainedModel.from_coefficients(ModelSpec(("f",)), [100.0], 1000.0)
        for l2 in (1e-4, 0.0):
            spec = ModelSpec(("f",), hyperparams={"l2": l2})
            cold, warm = train(spec, X, y), train(spec, X, y, start=start)
            assert cold.converged is True and warm.converged is True
            assert warm.n_iter >= cold.n_iter
            assert np.array_equal(warm.coefficients, cold.coefficients) and warm.intercept == cold.intercept

    def test_mismatched_start_is_rejected(self):
        X, y = self.data(6, d=2)
        spec = ModelSpec(("a", "b"))
        with pytest.raises(ValidationError, match="features"):
            train(spec, X, y, start=train(ModelSpec(("b", "a")), X, y))
        threshold = train(ModelSpec(("a", "b"), "norm_threshold", {"threshold": 1.0}), X, y)
        with pytest.raises(ValidationError, match="logistic_regression"):
            train(spec, X, y, start=threshold)


class TestGroupThresholds:
    def _data(self):
        rng = np.random.default_rng(21)
        n = 400
        g = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 1)) + 0.8 * g[:, None]
        y = (x[:, 0] > 0.4).astype(int)
        return x, y, g

    def _scored(self):
        """The data with a model fitted to it and that model's scores of its rows."""
        x, y, g = self._data()
        model = train(ModelSpec(("f",)), x, y, seed=0)
        return model, x, predict_proba(model, x), y, g

    def test_reduces_gap(self):
        """The pair returned is the most accurate candidate whose gap clears tau_o.

        The candidates are the pairs ``candidate_group_thresholds`` ranks;
        each is scored here by counting decisions per group.
        """
        from equity_audit.metrics import eo_violation

        model, x, scores, y, g = self._scored()
        tau_o = 0.1
        cuts = fit_group_thresholds(scores, y, g, model.decision_threshold, tau_o=tau_o)
        preds = predict_with_group_thresholds(model, x, g, cuts)
        assert eo_violation(preds, y, g).eo_violation <= tau_o
        accuracy = float(np.mean(preds == y))

        counted = {}

        def rates(grp, cut):  # (TPR, FPR, correct decisions) of one group at one cutoff
            if (grp, cut) not in counted:
                dec, pos = scores[g == grp] >= cut, y[g == grp] == 1
                counted[grp, cut] = (dec[pos].mean(), dec[~pos].mean(), int(np.sum(dec == pos)))
            return counted[grp, cut]

        for pair in candidate_group_thresholds(scores, y, g, model.decision_threshold, tau_o=tau_o, k=10**6):
            tpr0, fpr0, right0 = rates(0, pair[0])
            tpr1, fpr1, right1 = rates(1, pair[1])
            if abs(tpr0 - tpr1) + abs(fpr0 - fpr1) <= tau_o - 1e-12:
                assert (right0 + right1) / len(y) <= accuracy + 1e-12, pair

    def test_a_tau_o_under_zero_is_refused(self):
        # a gap is never negative, so no pair could clear such a tau_o
        model, _, scores, y, g = self._scored()
        for tau_o in (-1.0, -1e-300, float("nan")):
            with pytest.raises(ValidationError, match="tau_o must be >= 0"):
                fit_group_thresholds(scores, y, g, model.decision_threshold, tau_o=tau_o)

    def test_the_accept_everyone_pair_clears_a_tau_o_of_zero(self):
        # each grid holds cutoff 0.0, so a pair of gap 0 always exists
        model, _, scores, y, g = self._scored()
        cuts = fit_group_thresholds(scores, y, g, model.decision_threshold, tau_o=0.0)
        dec = scores >= np.where(g == 1, cuts[1], cuts[0])
        rates = [(dec[(g == grp) & (y == 1)].mean(), dec[(g == grp) & (y == 0)].mean()) for grp in (0, 1)]
        assert abs(rates[0][0] - rates[1][0]) + abs(rates[0][1] - rates[1][1]) == 0.0

    def test_candidates_ranked_by_gap(self):
        model, _, scores, y, g = self._scored()
        pairs = candidate_group_thresholds(scores, y, g, model.decision_threshold, k=10)
        assert 1 <= len(pairs) <= 10
        assert all(set(p) == {0, 1} for p in pairs)

    def test_first_pairs_read_the_full_lexsort(self):
        # grids of few distinct values force ties inside and across the two blocks
        rng = np.random.default_rng(704)
        for _ in range(3000):
            shape = tuple(rng.integers(1, 70, size=2))
            k = int(rng.integers(0, 40))
            tau_o = float(rng.choice([0.0, 0.15, 0.5, 1.0, 3.0]))
            levels = int(rng.integers(1, 8))
            gap = rng.integers(0, levels, size=shape) * (2.0 / levels)
            acc = rng.integers(0, levels, size=shape) / levels
            feasible = gap <= tau_o
            secondary = np.where(feasible, -acc, gap)
            order = np.lexsort((gap.ravel(), secondary.ravel(), (~feasible).ravel()))
            got = _first_pairs(gap, acc, tau_o, max(1, k))
            assert got.tolist() == order[: max(1, k)].tolist(), (shape, k, tau_o, levels)

    def test_search_picks_what_the_whole_grid_ranks_first(self):
        # scores drawn from a few values tie cutoffs, gaps and accuracies
        rng = np.random.default_rng(77)
        for case in range(120):
            n = int(rng.integers(4, 300))
            levels = rng.random(int(rng.integers(1, 12)))
            scores = rng.choice(levels, size=n) if case % 2 else rng.random(n)
            labels = (rng.random(n) < 0.5).astype(int)
            groups = rng.integers(0, 2, size=n)
            threshold = float(rng.choice([0.5, *levels]))
            tau_o = float(rng.choice([0.0, 0.05, 0.15, 0.5]))
            k = int(rng.integers(1, 60))
            try:
                want = ranked_threshold_pairs(scores, labels, groups, threshold, tau_o, k)
            except ValueError as exc:
                with pytest.raises(ValidationError, match=re.escape(str(exc))):
                    candidate_group_thresholds(scores, labels, groups, threshold, tau_o, k)
                continue
            assert candidate_group_thresholds(scores, labels, groups, threshold, tau_o, k) == want
            best = best_threshold_pair(scores, labels, groups, threshold, tau_o)
            assert fit_group_thresholds(scores, labels, groups, threshold, tau_o) == best

    def test_missing_group_rejected(self):
        model, _, scores, y, _ = self._scored()
        with pytest.raises(ValidationError, match=r"need both groups 0 and 1, got \[0.0\]"):
            fit_group_thresholds(scores, y, np.zeros(len(y)), model.decision_threshold, tau_o=0.1)

    def test_group_without_threshold_named(self):
        x, y, g = self._data()
        model = train(ModelSpec(("f",)), x, y, seed=0)
        with pytest.raises(ValidationError, match="group 1"):
            predict_with_group_thresholds(model, x, g, {0: 0.5})

    def test_group_thresholds_apply_per_row(self):
        x, _, g = self._data()
        model = train(ModelSpec(("f",)), x, (x[:, 0] > 0.4).astype(int), seed=0)
        cuts = {0: 0.3, 1: 0.7}
        scores = predict_proba(model, x)
        expected = [int(s >= cuts[int(v)]) for s, v in zip(scores, g)]
        assert predict_with_group_thresholds(model, x, g, cuts).tolist() == expected


    def test_group_cutoffs_read_groups_as_given(self):
        with pytest.raises(ValidationError, match="no decision threshold for group 0.5$"):
            group_cutoffs([0.5, 1.0], {0: 0.3, 1: 0.7})
        assert group_cutoffs([0.0, 1.0, 1], {0: 0.3, 1: 0.7}).tolist() == [0.3, 0.7, 0.7]

    def test_threshold_fit_reads_labels_and_groups_as_given(self):
        # each of these was once cast to int first: 0.9 -> 0, a group of
        # 0.2/0.8 -> 0, and label-2 rows counted as negatives
        model, _, scores, y, g = self._scored()

        def fit(labels, groups):
            return fit_group_thresholds(scores, labels, groups, model.decision_threshold, tau_o=0.15)

        with pytest.raises(ValidationError, match=r"labels must be 0 or 1, got \[0.9\]"):
            fit(np.where(y == 1, 0.9, 0.0), g)
        with pytest.raises(ValidationError, match=r"got \[0.2, 0.8\]"):
            fit(y, np.where(g == 1, 0.8, 0.2))
        with pytest.raises(ValidationError, match=r"labels must be 0 or 1, got \[2\]"):
            fit(np.where(np.arange(y.size) < 5, 2, y), g)
        assert fit(y.astype(float), g.astype(float)) == fit(y, g)


# sigmoid(0) is the default decision threshold exactly, and repeated
# values tie, so candidates coincide with scores
_GRID_FEATURES = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-40, max_value=40, allow_nan=False),
)


@given(
    st.lists(
        st.tuples(_GRID_FEATURES, st.integers(0, 1), st.sampled_from([0, 1, 0, 1, 2])),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 70),
)
@settings(max_examples=300, deadline=None)
def test_counted_threshold_grid_equals_the_decision_matrix(rows, n_candidates):
    # groups of 1-3 rows, groups lacking a label class and a missing or
    # third group all occur among these draws
    x, labels, groups = (np.array(col) for col in zip(*rows))
    model = TrainedModel.from_coefficients(ModelSpec(("f",)), [1.0])
    grid_args = (predict_proba(model, x[:, None]), labels, groups, model.decision_threshold, n_candidates)
    try:
        expected = threshold_grid_dense(*grid_args)
    except ValueError as exc:
        with pytest.raises(ValidationError) as excinfo:
            _group_threshold_grid(*grid_args)
        assert str(excinfo.value) == str(exc)
        return
    per_group, gap, combined_acc = _group_threshold_grid(*grid_args)
    for grp in (0, 1):
        *curves, weight = per_group[grp]
        *expected_curves, expected_weight = expected[0][grp]
        assert weight == expected_weight
        for got, want in zip(curves, expected_curves):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(gap, expected[1]) and np.array_equal(combined_acc, expected[2])


@given(
    n=st.integers(1, 5000),
    distinct=st.integers(1, 5000),
    ends=st.sampled_from(["none", "zeros", "ones", "both"]),
    n_candidates=st.integers(1, 6000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_sorted_quantiles_equal_numpys_bit_for_bit(n, distinct, ends, n_candidates, seed):
    # scores drawn from a pool of `distinct` values tie when the pool is
    # small; exact 0.0 and 1.0 scores sit at the ends. A numpy release that
    # changes its linear method fails here instead of moving a threshold
    rng = np.random.default_rng(seed)
    pool = rng.random(min(distinct, n))
    if ends in ("zeros", "both"):
        pool[0] = 0.0
    if ends in ("ones", "both"):
        pool[-1] = 1.0
    s = np.sort(rng.choice(pool, size=n))
    for k in {min(n_candidates, n), n_candidates}:  # as the grid calls it, and beyond the group
        q = np.linspace(0.0, 1.0, k)
        assert _sorted_quantiles(s, q).tobytes() == np.quantile(s, q).tobytes()


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(1, 80))
@settings(max_examples=300, deadline=None)
def test_sorted_quantiles_of_any_unit_scores(values, n_candidates):
    s = np.sort(np.array(values))
    q = np.linspace(0.0, 1.0, n_candidates)
    assert _sorted_quantiles(s, q).tobytes() == np.quantile(s, q).tobytes()


def test_sorted_quantiles_of_a_nan_score_are_nan():
    s = np.array([0.25, 0.5, np.nan])
    q = np.linspace(0.0, 1.0, 4)
    assert _sorted_quantiles(s, q).tobytes() == np.quantile(s, q).tobytes()


class TestTrainLayout:
    def test_layout_and_views_do_not_change_the_fit(self):
        # the loop trains on a leading row view of its preallocated pool
        rng = np.random.default_rng(8)
        buffer = rng.normal(size=(700, 3))
        labels = (buffer @ [1.0, -0.5, 0.25] + rng.normal(size=700) > 0).astype(int)
        X, y = buffer[:500].copy(), labels[:500]
        layouts = (
            X,
            np.asfortranarray(X),
            buffer[:500],
            np.asfortranarray(buffer)[:500],  # neither C- nor F-contiguous
        )
        spec = ModelSpec(("a", "b", "c"))
        reference = train(spec, X, y)
        assert reference.converged is True
        for features in layouts[1:]:
            before = features.copy()
            model = train(spec, features, y)
            assert json_text(model.to_dict()) == json_text(reference.to_dict())
            assert np.array_equal(model.mu, reference.mu)
            assert np.array_equal(model.sigma, reference.sigma)
            assert np.array_equal(features, before)  # standardized on a copy of its own

    @pytest.mark.parametrize("n, d", [(2, 1), (37, 3), (1000, 2), (4003, 6)])
    def test_standardization_is_numpys_mean_and_variance(self, n, d):
        # the fit spells out np.mean and np.var to center its copy once
        rng = np.random.default_rng(n)
        X = rng.normal(loc=rng.uniform(-1e3, 1e3, size=d), scale=rng.uniform(1e-3, 1e2, size=d), size=(n, d))
        y = np.arange(n) % 2
        model = train(ModelSpec(tuple(f"f{j}" for j in range(d))), X, y)
        XT = np.ascontiguousarray(X.T)
        assert model.mu.tobytes() == XT.mean(axis=1).tobytes()
        assert model.sigma.tobytes() == np.sqrt(np.maximum(XT.var(axis=1), 1e-12)).tobytes()

    def test_one_column_input_is_left_unchanged(self):
        # the transpose of one column is C-contiguous already, so only an
        # explicit copy keeps the in-place standardization off the caller's array
        column, y = separable_1d()
        before = column.copy()
        spec = ModelSpec(("f",))
        model = train(spec, column, y)
        assert np.array_equal(column, before)
        assert json_text(model.to_dict()) == json_text(train(spec, before, y).to_dict())


HUGE_INT = pytest.param(10**400, id="10**400")  # beyond the float range


class TestIterationsHyperparameter:
    @pytest.mark.parametrize("cap", [2.5, True, False, "3", None, float("inf"), float("nan")])
    def test_non_integral_cap_is_rejected(self, cap):
        with pytest.raises(ValidationError, match="'iterations'"):
            ModelSpec(("f",), hyperparams={"iterations": cap})

    @pytest.mark.parametrize(
        "l2", [float("nan"), float("inf"), -float("inf"), -1, -1e-300, HUGE_INT, True, False, "0.1", None]
    )
    def test_l2_must_be_a_finite_nonnegative_number(self, l2):
        with pytest.raises(ValidationError, match="'l2'"):
            ModelSpec(("f",), hyperparams={"l2": l2})

    @pytest.mark.parametrize("name", ["decision_threshold", "threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), HUGE_INT, True, "0.5", None])
    def test_thresholds_must_be_finite_numbers(self, name, value):
        with pytest.raises(ValidationError, match=repr(name)):
            ModelSpec(("f",), "norm_threshold", hyperparams={name: value})

    def test_finite_hyperparameters_are_accepted(self):
        X, y = separable_1d()
        spec = ModelSpec(("f",), hyperparams={"l2": 0, "decision_threshold": -2.0, "iterations": 3})
        assert train(spec, X, y).decision_threshold == -2.0
        spec = ModelSpec(("f",), "norm_threshold", {"threshold": np.float64(-1.5), "l2": np.int64(2)})
        assert train(spec, X, y).threshold == -1.5

    def test_integral_float_is_a_cap(self):
        X, y = separable_1d()
        model = train(ModelSpec(("f",), hyperparams={"iterations": 1.0}), X, y)
        assert model.n_iter == 1


def _standardizing_model(d: int, rng) -> TrainedModel:
    """A logistic model over d features with a standardization that is not the identity."""
    coef = rng.normal(size=d)
    return TrainedModel(
        spec=ModelSpec(tuple(f"f{j}" for j in range(d))),
        coefficients=coef,
        intercept=float(rng.normal()),
        mu=rng.normal(scale=3.0, size=d),
        sigma=rng.uniform(0.3, 3.0, size=d),
        importance=coef / np.abs(coef).sum(),
    )


@pytest.mark.parametrize("n", [1, 2, 395, 4000])
@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_prediction_bits_do_not_depend_on_the_layout(d, n):
    # every layout gives the row-major formula's bits on the C-ordered matrix;
    # a product on a Fortran-ordered operand can round the last bit differently
    rng = np.random.default_rng(10 * n + d)
    X = rng.normal(scale=rng.uniform(0.5, 20.0, size=d), size=(n, d))
    model = _standardizing_model(d, rng)
    reference = row_major_proba(model, X)
    model = dataclasses.replace(model, decision_threshold=float(np.median(reference)))
    groups = rng.integers(0, 2, size=n)
    cuts = {0: float(np.quantile(reference, 0.3)), 1: float(np.quantile(reference, 0.7))}
    decided = (reference >= model.decision_threshold).astype(int)
    decided_by_group = (reference >= np.where(groups == 1, cuts[1], cuts[0])).astype(int)
    layouts = {
        "C order": X,
        "Fortran order": np.asfortranarray(X),
        "row view": np.repeat(X, 2, axis=0)[::2],  # every other row of a larger buffer
    }
    for name, features in layouts.items():
        before = features.copy()
        assert np.array_equal(_bits(predict_proba(model, features)), _bits(reference)), name
        assert np.array_equal(predict(model, features), decided), name
        assert np.array_equal(predict_with_group_thresholds(model, features, groups, cuts), decided_by_group), name
        assert np.array_equal(_bits(features), _bits(before)), name
    # one row given as a vector
    row = X[0].copy()
    want = row_major_proba(model, X[:1])[0]
    assert _bits(predict_proba(model, row)) == _bits(want)
    assert predict(model, row) == int(want >= model.decision_threshold)
    assert predict_with_group_thresholds(model, row, groups[0], cuts) == int(want >= cuts[int(groups[0])])
    assert np.array_equal(_bits(row), _bits(X[0]))


@pytest.mark.parametrize("d", [9, 33])
def test_norm_scores_do_not_depend_on_the_layout(d):
    # numpy sums a contiguous row of 8 or more terms in 8 partial sums, a strided one in order
    X = np.random.default_rng(d).normal(size=(395, d))
    model = train(ModelSpec(tuple(f"f{j}" for j in range(d)), "norm_threshold", {"threshold": 3.0}), X, X[:, 0] > 0)
    reference = np.linalg.norm(X, axis=1)
    for features in (np.asfortranarray(X), np.repeat(X, 2, axis=0)[::2]):
        assert np.array_equal(_bits(predict_proba(model, features)), _bits(reference))


def _assert_grids_equal(got, want):
    (per_group, gap, combined_acc), (want_per_group, want_gap, want_combined) = got, want
    for grp in (0, 1):
        *curves, weight = per_group[grp]
        *want_curves, want_weight = want_per_group[grp]
        assert weight == want_weight
        for have, expected in zip(curves, want_curves, strict=True):
            assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()
    for have, expected in ((gap, want_gap), (combined_acc, want_combined)):
        assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()


def test_radix_ordered_threshold_grid_equals_the_mask_grid():
    # logits of +-800 and +-40 score exactly 0.0 and 1.0, and drawing them
    # from a few values ties scores across labels and groups
    rng = np.random.default_rng(31)
    model = TrainedModel.from_coefficients(ModelSpec(("f",)), [1.0])
    tied = np.array([-800.0, -40.0, -2.0, 0.0, 0.0, 0.5, 3.0, 40.0, 800.0])
    ends_seen = set()
    for case in range(240):
        n = int(rng.integers(4, 400))
        x = rng.choice(tied, size=n) if case % 2 else rng.normal(scale=4.0, size=n)
        groups = rng.integers(0, 2, size=n)
        labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
        if case % 3 == 0:  # one group has a single row of one label class
            grp, cls = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            members = np.flatnonzero(groups == grp)
            if members.size < 2:
                continue
            labels[members] = 1 - cls
            labels[rng.choice(members)] = cls
        sizes = {(g, y) for g, y in zip(groups.tolist(), labels.tolist())}
        if len(sizes) < 4:
            continue
        if case % 5 == 0:
            labels, groups = labels.astype(float), groups.astype(float)
        scores = predict_proba(model, x[:, None])
        ends_seen.update({0.0, 1.0} & set(scores.tolist()))
        grid_args = (scores, labels, groups, model.decision_threshold, int(rng.integers(1, 80)))
        _assert_grids_equal(_group_threshold_grid(*grid_args), threshold_grid_masks(*grid_args))
    assert ends_seen == {0.0, 1.0}


@pytest.mark.parametrize("missing", [0, 1])
@pytest.mark.parametrize("grp", [0, 1])
def test_threshold_grid_names_the_group_lacking_a_label_class(grp, missing):
    scores = np.linspace(0.1, 0.9, 12)
    groups = np.tile([0, 1], 6)
    labels = np.tile([0, 0, 1, 1], 3)  # both classes in both groups
    labels[groups == grp] = 1 - missing
    message = f"group {grp} lacks a label class; per-group thresholds undefined"
    for grid in (_group_threshold_grid, threshold_grid_masks):
        with pytest.raises(ValidationError) as excinfo:
            grid(scores, labels, groups, 0.5, 8)
        assert str(excinfo.value) == message


def test_threshold_grid_needs_a_label_and_a_group_per_row():
    scores = np.linspace(0.1, 0.9, 12)
    groups, labels = np.tile([0, 1], 6), np.tile([0, 0, 1, 1], 3)
    for short_labels, short_groups in ((labels[:-4], groups), (labels, groups[:-4])):
        with pytest.raises(ValidationError, match=r"one entry per score \(12\)"):
            _group_threshold_grid(scores, short_labels, short_groups, 0.5, 8)


@pytest.mark.parametrize(
    "groups, thresholds, message",
    [
        ([0.5, 1.0, 0.0], {0: 0.3, 1: 0.7}, "no decision threshold for group 0.5"),
        ([np.nan, 1.0, 0.5], {0: 0.3, 1: 0.7}, "no decision threshold for group 0.5"),  # NaN sorts last
        ([np.nan, 1.0, 0.0], {0: 0.3, 1: 0.7}, "no decision threshold for group nan"),
        ([0, 3, 1, 2], {0: 0.3, 1: 0.7, 5: 0.9}, "no decision threshold for group 2"),
        ([1, 0, 1], {0: 0.3, 1: 0.7, 2: 0.9}, None),  # group 2 only in the thresholds
        ([1.0, 0.0, 1.0], {0: 0.3, 1: 0.7}, None),
        ([True, False], {0: 0.3, 1: 0.7}, None),
        (np.float32([0.1, 1.0]), {0.1: 0.3, 1: 0.7}, "no decision threshold for group 0.10000000149011612"),
    ],
)
def test_group_cutoffs_equal_the_fill_by_label(groups, thresholds, message):
    if message is not None:
        for cutoffs in (group_cutoffs, group_cutoffs_by_label):
            with pytest.raises(ValidationError) as excinfo:
                cutoffs(groups, thresholds)
            assert str(excinfo.value) == message
    else:
        assert group_cutoffs(groups, thresholds).tobytes() == group_cutoffs_by_label(groups, thresholds).tobytes()


_HYPERPARAMS = {"logistic_regression": {}, "norm_threshold": {"threshold": 1.0}}


class TestOverflowingFeatures:
    @pytest.mark.parametrize(
        "column",
        [
            pytest.param(lambda x: 1e300 * x, id="variance"),  # squared deviations past 1e308
            pytest.param(lambda x: np.full_like(x, 1e308), id="mean"),  # the sum overflows
        ],
    )
    def test_a_column_that_overflows_is_refused_before_any_warning(self, column):
        X, y = separable_1d()
        features = np.hstack([X, column(X)])
        assert np.isfinite(features).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"feature 'big' is too large to standardize"):
                train(ModelSpec(("f", "big")), features, y)

    def test_a_large_column_that_stays_in_range_is_fitted(self):
        X, y = separable_1d()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(ModelSpec(("f",)), 1e150 * X, y)
        assert model.converged is True and np.array_equal(predict(model, 1e150 * X), y)

    @pytest.mark.parametrize(
        "function_class, row",
        [("logistic_regression", [1e308, -1e308]), ("norm_threshold", [1e308, 1e308])],
    )
    def test_a_row_whose_score_overflows_is_refused_before_any_warning(self, function_class, row):
        X, y = separable_1d()
        features = np.hstack([X, -X])
        model = train(ModelSpec(("f", "g"), function_class, _HYPERPARAMS[function_class]), features, y)
        rows = np.array([features[0], row, features[1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for score in (
                lambda rows: predict_proba(model, rows),
                lambda rows: predict(model, rows),
                lambda rows: predict_with_group_thresholds(model, rows, np.zeros(len(rows), int), {0: 0.5}),
            ):
                with pytest.raises(ValidationError) as excinfo:
                    score(rows)
                assert (str(excinfo.value), excinfo.value.row) == (
                    "features of row 1 are too large to score: the score overflows", 1
                )
            with pytest.raises(ValidationError, match="row 0 are too large"):
                predict_proba(model, np.array(row))
            # the rows in range score as they do alone
            assert predict_proba(model, rows[[0, 2]]).tobytes() == np.array(
                [predict_proba(model, rows[0]), predict_proba(model, rows[2])]
            ).tobytes()

    @pytest.mark.parametrize("function_class", ["logistic_regression", "norm_threshold"])
    def test_a_non_finite_feature_still_scores(self, function_class):
        X, y = separable_1d()
        model = train(ModelSpec(("f",), function_class, _HYPERPARAMS[function_class]), X, y)
        scores = predict_proba(model, [[np.nan], [np.inf], [0.5]])
        assert np.isnan(scores[0]) and scores[1] == (1.0 if function_class == "logistic_regression" else np.inf)
