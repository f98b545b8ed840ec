"""Model function classes: training, prediction, loss, feature importance.

Two classes are supported. ``logistic_regression`` fits a regularized
logistic model on standardized features (zero mean, unit variance
computed from the training rows), which makes coefficient magnitudes
comparable across features. The fit is damped Newton (iteratively
reweighted least squares; Hastie, Tibshirani & Friedman, *The Elements of
Statistical Learning*, 4.4.1), with Armijo backtracking on the loss of
:func:`logistic_loss_and_gradient`. It starts from zero, or from a given
earlier model (a warm start; the inequity loop passes the previous
round's model, and every other caller starts cold). It stops when the
Newton decrement says the loss is within ``NEWTON_TOL`` times itself of
its minimum (Boyd & Vandenberghe, *Convex Optimization*, 9.5), so the
result is a deterministic function of (spec, data, start) and not of a
step count; the ``iterations`` hyperparameter only caps the Newton steps.
A fit that reaches the cap or whose line search fails (separable data
with ``l2 = 0`` has no finite optimum) stops there and reports
``converged=False``; a warm fit that stops so is fitted again from zero.
The fit runs feature-major, on a C-contiguous (d, n) copy of the
features standardized in place, so its reductions run along the
contiguous axis and the result does not depend on the layout of the
input. A column whose mean or variance leaves the float range is
refused with a ``ValidationError`` naming it, before numpy can warn.
Prediction standardizes a feature-major copy the same way and takes the
product ``Xs @ coefficients`` on a C-contiguous (n, d) block, so its bits
do not depend on the layout of the input either. A fit allocates its
n-sized and (d, n) buffers once, and every
Newton step writes into them in the order the formulas name, so reusing
them changes no bit. A constant column keeps weight 0 and stays out of
the fit; without a penalty, linearly dependent columns (a duplicated
one) make the Hessian singular, and the fit then takes least-norm Newton
steps. The
``learning_rate`` hyperparameter of earlier gradient-descent versions is
accepted and ignored.
``norm_threshold`` is the fixed rule "predict 1 iff the L2 norm of the
input is at least the configured threshold"; it has no fitted parameters
and exists so simple worked scenarios can be expressed in the same API as
trained models.

Feature importance is the vector of signed coefficients rescaled to unit
L1 norm; it feeds the label-gap comparison between a deployed model and
the evaluation model it stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import _distinct
from .errors import SingleClassError, ValidationError
from .inputs import is_finite_number, is_index, is_number

FUNCTION_CLASSES = ("logistic_regression", "norm_threshold")

DEFAULT_HYPERPARAMS = {
    "iterations": 2000,
    "l2": 1e-4,
    "decision_threshold": 0.5,
}

# standardization guard for constant columns
_VARIANCE_FLOOR = 1e-12

# Converged when half the Newton decrement, g' H^-1 g / 2 (the loss a full
# Newton step is predicted to remove), is at most this times the loss.
# Relative, because the loss's rounding is (about 1e-16 of it): far above
# that, every line search before the stop can still see the loss fall. On
# separable data without a penalty the loss tends to 0 with no minimizer,
# and the relative decrement stays near 1/2, so such a fit never converges.
NEWTON_TOL = 1e-12
# Armijo backtracking: a step t is taken when the loss falls by at least
# _ARMIJO * t * (Newton decrement); t halves at most _MAX_HALVINGS times
_ARMIJO = 0.25
_MAX_HALVINGS = 30
# a least-norm Newton step certifies convergence only when it accounts for
# the gradient to this relative precision (the square root of float64's
# epsilon; a dependent column leaves rounding there, a vanished curvature
# leaves the gradient itself)
_RANGE_TOL = 1.5e-8
# score quantiles per group in the threshold search's cutoff grid
_N_CANDIDATES = 64


@dataclass(frozen=True)
class ModelSpec:
    """A candidate model: which features it reads and how it decides."""

    feature_names: tuple[str, ...]
    function_class: str = "logistic_regression"
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if not self.feature_names:
            raise ValidationError("feature_names must be nonempty")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValidationError("feature_names must be unique")
        if self.function_class not in FUNCTION_CLASSES:
            raise ValidationError(
                f"unknown function_class {self.function_class!r}; "
                f"expected one of {FUNCTION_CLASSES}"
            )
        hp = self.hyperparams
        cap = hp.get("iterations", 0)
        if not (is_index(cap) or is_number(cap) and float(cap).is_integer()):
            raise ValidationError(f"hyperparameter 'iterations' must be a whole number of Newton steps, got {cap!r}")
        if cap < 0:
            raise ValidationError(f"hyperparameter 'iterations' must be >= 0, got {cap!r}")
        if "l2" in hp and not (is_finite_number(hp["l2"]) and hp["l2"] >= 0):
            raise ValidationError(f"hyperparameter 'l2' must be a finite number >= 0, got {hp['l2']!r}")
        for name in ("decision_threshold", "threshold"):
            if name in hp and not is_finite_number(hp[name]):
                raise ValidationError(f"hyperparameter {name!r} must be a finite number, got {hp[name]!r}")

    def resolved_hyperparams(self) -> dict:
        merged = dict(DEFAULT_HYPERPARAMS)
        merged.update(self.hyperparams)
        return merged


@dataclass(frozen=True)
class TrainedModel:
    """An immutable fitted model.

    For the logistic class, ``coefficients`` and ``intercept`` act on
    standardized inputs; ``mu`` and ``sigma`` are the standardization
    parameters remembered from training. For the threshold class only
    ``threshold`` is meaningful. ``importance`` is the signed, L1-normalized
    coefficient vector (all zeros when no coefficient is nonzero).

    A fitted logistic model carries its fit diagnostics: ``n_iter`` Newton
    steps taken, ``grad_norm`` the Euclidean norm of the loss gradient at
    the returned weights (standardized coordinates) and ``converged``
    whether the stopping rule was met. They are None for a model that was
    not fitted (the threshold class, given coefficients, or a document
    written before fits reported them).
    """

    spec: ModelSpec
    coefficients: np.ndarray
    intercept: float
    mu: np.ndarray
    sigma: np.ndarray
    importance: np.ndarray
    decision_threshold: float = 0.5
    threshold: float | None = None
    n_iter: int | None = None
    grad_norm: float | None = None
    converged: bool | None = None

    @property
    def dim(self) -> int:
        return len(self.spec.feature_names)

    @classmethod
    def from_coefficients(
        cls,
        spec: ModelSpec,
        coefficients,
        intercept: float = 0.0,
        decision_threshold: float = 0.5,
    ) -> "TrainedModel":
        """Wrap externally chosen coefficients (identity standardization).

        Handy for fixed "environment" models and worked examples where the
        weights are given rather than fitted.
        """
        coef = np.asarray(coefficients, dtype=float)
        if coef.shape != (len(spec.feature_names),):
            raise ValidationError(
                f"expected {len(spec.feature_names)} coefficients, got {coef.shape}"
            )
        d = coef.shape[0]
        return cls(
            spec=spec,
            coefficients=coef,
            intercept=float(intercept),
            mu=np.zeros(d),
            sigma=np.ones(d),
            importance=_normalize_importance(coef),
            decision_threshold=decision_threshold,
        )

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.spec.feature_names),
            "function_class": self.spec.function_class,
            "hyperparams": dict(self.spec.hyperparams),
            "coefficients": [float(c) for c in self.coefficients],
            "intercept": float(self.intercept),
            "mu": [float(v) for v in self.mu],
            "sigma": [float(v) for v in self.sigma],
            "importance": [float(v) for v in self.importance],
            "decision_threshold": float(self.decision_threshold),
            "threshold": None if self.threshold is None else float(self.threshold),
            "n_iter": self.n_iter,
            "grad_norm": self.grad_norm,
            "converged": self.converged,
        }


def _normalize_importance(coefficients: np.ndarray) -> np.ndarray:
    total = float(np.sum(np.abs(coefficients)))
    if total == 0.0:
        return np.zeros_like(coefficients)
    return coefficients / total


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    # exp(-|s|) cannot overflow, and -|s| is exactly -s for s >= 0 and s
    # for s < 0, so this matches 1/(1+e^-s) and e^s/(1+e^s) bit for bit.
    # The numerator is 1 where s >= 0 and e elsewhere: e lies in [0, 1], so
    # the larger of e and the 0/1 sign test picks it without a branch, and
    # a NaN score stays NaN
    e = np.exp(-np.abs(scores))
    return np.maximum(e, scores >= 0) / (1.0 + e)


class _Workspace:
    """The buffers one fit's Newton steps write into, allocated once per fit.

    ``proba`` holds the probabilities of the last :func:`_logistic_terms`
    call until the next one; ``scratch`` and ``dn`` are free between calls.
    """

    __slots__ = ("scores", "e", "proba", "scratch", "sign", "dn")

    def __init__(self, d: int, n: int):
        self.scores, self.e, self.proba, self.scratch = np.empty((4, n))
        self.sign = np.empty(n, dtype=bool)
        self.dn = np.empty((d, n))


def _logistic_terms(
    weights: np.ndarray, XT: np.ndarray, y: np.ndarray, l2: float, work: _Workspace
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss, gradient and positive-class probabilities at ``weights``.

    ``XT`` is feature-major, one C-contiguous row per feature, so every
    reduction over the samples runs along the contiguous axis. The
    gradient is an elementwise product summed per feature, so two equal
    feature rows get bit-equal gradient entries. Every n-sized result is
    written into ``work``, and the returned probabilities are its
    ``proba``. The operations are those of :func:`_sigmoid` and of the
    loss formula, in the same order, so the buffers change no bit.
    """
    scores, e, proba, scratch = work.scores, work.e, work.proba, work.scratch
    w, b = weights[:-1], weights[-1]
    np.matmul(w, XT, out=scores)
    scores += b
    # e = exp(-|s|), shared by the sigmoid and the softplus
    np.exp(np.negative(np.abs(scores, out=e), out=e), out=e)
    np.maximum(e, np.greater_equal(scores, 0, out=work.sign), out=proba)
    proba /= np.add(e, 1.0, out=scratch)
    resid = np.subtract(proba, y, out=scratch)
    n = XT.shape[1]
    grad = np.append(np.multiply(XT, resid, out=work.dn).sum(axis=1) / n + l2 * w, np.mean(resid))
    # mean[ softplus(s) - y*s ] == mean[-y log p - (1-y) log(1-p)]
    softplus = np.maximum(scores, 0.0, out=scratch)
    softplus += np.log1p(e, out=e)
    softplus -= np.multiply(y, scores, out=e)
    data_loss = float(np.mean(softplus))
    return data_loss + 0.5 * l2 * float(w @ w), grad, proba


def logistic_loss_and_gradient(
    weights: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Mean log-loss plus an L2 penalty on the non-intercept weights.

    ``weights`` is ``[w_1..w_d, intercept]`` and ``X`` holds one row per
    sample. Returns the loss value and its exact gradient, the pair
    :func:`train`'s Newton steps and line search evaluate; gradient-check
    tests difference this pair numerically.
    """
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    loss_value, grad, _ = _logistic_terms(weights, XT, np.asarray(y, dtype=float), l2, _Workspace(*XT.shape))
    return loss_value, grad


def _logistic_hessian(XT: np.ndarray, proba: np.ndarray, l2: float, work: _Workspace) -> np.ndarray:
    """Hessian of the loss in ``[w_1..w_d, intercept]``; the intercept is unpenalized.

    The curvature and the weighted copy of ``XT`` go into ``work``'s free
    buffers. Bit-symmetric: the Gram block's upper triangle is mirrored
    into its lower one.
    """
    d, n = XT.shape
    curvature = np.multiply(proba, np.subtract(1.0, proba, out=work.scratch), out=work.scratch)
    weighted = np.multiply(XT, curvature, out=work.dn)
    gram = weighted @ XT.T
    for i in range(1, d):
        gram[i, :i] = gram[:i, i]
    hess = np.empty((d + 1, d + 1))
    hess[:d, :d] = gram / n + l2 * np.eye(d)
    hess[:d, d] = hess[d, :d] = weighted.sum(axis=1) / n
    hess[d, d] = curvature.sum() / n
    return hess


def _newton_fit(
    XT: np.ndarray, y: np.ndarray, l2: float, max_steps: int, weights: np.ndarray
) -> tuple[np.ndarray, int, float, bool]:
    """Damped Newton from ``weights``: ``(weights, steps, gradient norm, converged)``.

    ``XT`` is the feature-major design of :func:`_logistic_terms`. With a
    positive ``l2`` the Hessian is positive definite. Without a penalty,
    linearly dependent features (a duplicated column) make every Hessian
    of the fit singular with the same null space; the rank of the first
    one decides, once, that each step is the least-norm one, since LU can
    return an arbitrary split of the weight instead of failing. A
    Hessian that ``solve`` still finds singular also gets the least-norm
    step.
    """
    work = _Workspace(*XT.shape)
    loss_value, grad, proba = _logistic_terms(weights, XT, y, l2, work)
    hess = _logistic_hessian(XT, proba, l2, work)
    least_norm = l2 <= 0.0 and np.linalg.matrix_rank(hess) < len(hess)
    steps = 0
    converged = False
    while True:
        direction = None
        if not least_norm:
            try:
                direction = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:  # singular in floating point after all
                pass
        solved = direction is not None
        if not solved:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        decrement = float(grad @ direction)
        if not np.isfinite(decrement):
            break
        if decrement / 2.0 <= NEWTON_TOL * loss_value:
            # the least-norm step leaves out the part of the gradient outside
            # the Hessian's range; at a start where every row's curvature
            # rounds to 0 that part is all of it, and the decrement says nothing
            converged = solved or bool(
                np.linalg.norm(hess @ direction - grad) <= _RANGE_TOL * np.linalg.norm(grad)
            )
            break
        if steps >= max_steps:
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = weights - t * direction
            trial_loss, trial_grad, trial_proba = _logistic_terms(trial, XT, y, l2, work)
            if trial_loss <= loss_value - _ARMIJO * t * decrement:
                break
            t /= 2.0
        else:  # no step length lowers the loss enough: stop where we are
            break
        weights, loss_value, grad, proba = trial, trial_loss, trial_grad, trial_proba
        hess = _logistic_hessian(XT, proba, l2, work)
        steps += 1
    return weights, steps, float(np.linalg.norm(grad)), converged


def _validate_training_inputs(spec: ModelSpec, features, labels) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {X.shape}")
    if X.shape[1] != len(spec.feature_names):
        raise ValidationError(
            f"features have {X.shape[1]} columns, spec names {len(spec.feature_names)}"
        )
    if y.shape != (X.shape[0],):
        raise ValidationError("labels must be a vector matching the feature rows")
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 training rows")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValidationError("training data contains non-finite values")
    _binary_values(y, "labels")
    if np.all(y == y[0]):
        raise SingleClassError("training labels contain a single class")
    return X, y


def _warm_weights(start: TrainedModel, spec: ModelSpec, mu, sigma, varying) -> np.ndarray:
    """``start``'s scores as weights over the features standardized by ``mu`` and ``sigma``.

    With ``c = coefficients / sigma`` the start scores ``c @ x + intercept
    - c @ mu``; on the new scale the same score takes the weights ``c *
    sigma`` and the intercept ``intercept + c @ (mu - start.mu)``.
    """
    if not isinstance(start, TrainedModel) or start.spec.function_class != "logistic_regression":
        raise ValidationError("a start must be a fitted logistic_regression model")
    if start.spec.feature_names != spec.feature_names:
        raise ValidationError(
            f"a start over features {start.spec.feature_names} cannot start a fit over {spec.feature_names}"
        )
    c = start.coefficients / start.sigma
    return np.append((c * sigma)[varying], start.intercept + c @ (mu - start.mu))


def train(
    spec: ModelSpec, features, labels, seed: int = 0, *, start: TrainedModel | None = None
) -> TrainedModel:
    """Fit a model of the spec's class.

    Logistic regression runs damped Newton steps on standardized features
    until half the Newton decrement is at most ``NEWTON_TOL`` times the
    loss, taking at most ``iterations`` steps; the model records the steps
    taken, the final gradient norm and whether the rule was met. Newton
    starts from zero, or from ``start``, a fitted logistic model over the
    same feature names, mapped onto this fit's standardization. A warm
    fit that does not converge is fitted again from zero; ``n_iter`` then
    counts the steps of both, and ``converged`` describes the returned
    weights. The result is a deterministic function of (spec, data,
    start); the seed is accepted for interface stability. The threshold
    class performs no fitting and just validates its inputs.
    """
    X, y = _validate_training_inputs(spec, features, labels)
    hp = spec.resolved_hyperparams()

    if spec.function_class == "norm_threshold":
        if "threshold" not in hp:
            raise ValidationError("norm_threshold requires a 'threshold' hyperparam")
        zeros = np.zeros(len(spec.feature_names))
        unfitted = TrainedModel.from_coefficients(spec, zeros, 0.0, float(hp["decision_threshold"]))
        return replace(unfitted, threshold=float(hp["threshold"]))

    # feature-major: the mean, the variance, the gradient and the Hessian
    # reduce along the contiguous axis, whatever the layout of ``features``.
    # ``np.array`` always copies (``ascontiguousarray`` would hand back the
    # caller's memory for a Fortran-ordered or one-column X), so the copy
    # is standardized in place
    XT = np.array(X.T, order="C")
    # np.mean's and np.var's arithmetic, with the copy centered once, in
    # place. A column whose mean or variance overflows cannot be
    # standardized; it is refused here, before numpy warns about it. An
    # overflowed mean makes the variance inf or NaN, so the variance tells both
    n = XT.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = XT.sum(axis=1) / n
        XT -= mu[:, None]
        var = np.square(XT).sum(axis=1) / n
    finite = np.isfinite(var)
    if not finite.all():
        name = spec.feature_names[int(np.argmin(finite))]
        raise ValidationError(f"feature {name!r} is too large to standardize: its mean or variance overflows")
    sigma = np.sqrt(np.maximum(var, _VARIANCE_FLOOR))
    XT /= sigma[:, None]
    # a constant column carries nothing to fit and, with l2 = 0, would make
    # the Hessian singular: it keeps weight 0 and stays out of the fit
    varying = var > _VARIANCE_FLOOR
    if not varying.all():
        XT = XT[varying]

    l2, max_steps = float(hp["l2"]), int(hp["iterations"])
    n_iter, converged = 0, False
    if start is not None:
        warm = _warm_weights(start, spec, mu, sigma, varying)
        # far from the optimum a Newton step can be so long that a trial
        # overflows; its loss is then inf or NaN, and Armijo refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            weights, n_iter, grad_norm, converged = _newton_fit(XT, y, l2, max_steps, warm)
    if not converged:  # a cold fit, or a warm one that stopped short of the optimum
        weights, steps, grad_norm, converged = _newton_fit(XT, y, l2, max_steps, np.zeros(len(XT) + 1))
        n_iter += steps
    coef = np.zeros(X.shape[1])
    coef[varying] = weights[:-1]
    return TrainedModel(
        spec=spec,
        coefficients=coef,
        intercept=float(weights[-1]),
        mu=mu,
        sigma=sigma,
        importance=_normalize_importance(coef),
        decision_threshold=float(hp["decision_threshold"]),
        n_iter=n_iter,
        grad_norm=grad_norm,
        converged=converged,
    )


def predict_proba(model: TrainedModel, features) -> np.ndarray:
    """Positive-class scores for one vector or a matrix of rows.

    The bits do not depend on the layout of ``features``, which is never
    written. The logistic class standardizes a C-contiguous (d, n) copy in
    place, as :func:`train` does, and takes the product ``Xs @
    coefficients`` on its C-contiguous (n, d) transpose: a feature-major
    operand (``c @ XT``) can round the last bit differently on some BLAS
    builds.

    A row of finite features whose standardized values or score overflow
    the float range is refused with a ValidationError naming the row,
    before numpy warns about it. A non-finite feature scores as numpy
    computes it.
    """
    X = np.asarray(features, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.shape[1] != model.dim:
        raise ValidationError(
            f"expected {model.dim} features, got {X.shape[1]}"
        )
    norm = model.spec.function_class == "norm_threshold"
    # an overflow leaves the score inf or NaN: it is refused below, by row
    with np.errstate(over="ignore", invalid="ignore"):
        if norm:
            scores = np.linalg.norm(np.ascontiguousarray(X), axis=1)
        else:
            XT = np.array(X.T, order="C")
            XT -= model.mu[:, None]
            XT /= model.sigma[:, None]
            scores = np.ascontiguousarray(XT.T) @ model.coefficients + model.intercept
    finite = np.isfinite(scores)
    if not finite.all():
        overflowed = ~finite & np.isfinite(X).all(axis=1)
        if overflowed.any():
            row = int(np.argmax(overflowed))
            raise ValidationError(f"features of row {row} are too large to score: the score overflows", row=row)
    if not norm:
        scores = _sigmoid(scores)
    return scores[0] if single else scores


def predict(model: TrainedModel, x_rev) -> int | np.ndarray:
    """Binary decision; ties at the threshold classify as 1."""
    scores = predict_proba(model, x_rev)
    cutoff = (
        model.threshold
        if model.spec.function_class == "norm_threshold"
        else model.decision_threshold
    )
    decided = np.asarray(scores) >= cutoff
    if np.ndim(scores) == 0:
        return int(decided)
    return decided.astype(int)


def _sorted_quantiles(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(s, q)`` for ascending ``s`` and ``q`` in [0, 1], read by index.

    The same arithmetic as numpy's default ``"linear"`` method: virtual
    index ``(n - 1) * q``, its floor and the next index (both -1, the last
    index, once the virtual index reaches ``n - 1``), ``gamma`` the virtual
    index less that floor index, and numpy's two-sided lerp. Sorted input
    needs no partition, which is most of ``np.quantile``'s cost.
    """
    virtual = (s.size - 1) * q
    below = np.floor(virtual)
    above = below + 1
    at_end = virtual >= s.size - 1
    below[at_end] = above[at_end] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    a, b = s[below], s[above]
    gamma = virtual - below
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    if s.size and np.isnan(s[-1]):  # a NaN sorts last and makes every quantile NaN
        out[:] = s[-1]
    return out


def _binary_values(values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the 0s and 1s in ``values``, checked as given, before any cast.

    Raises ``ValidationError`` naming every other value, so a 0.9 or a 2
    is never truncated or counted as a 0.
    """
    v = np.asarray(values)
    zero, one = v == 0, v == 1
    if np.count_nonzero(zero) + np.count_nonzero(one) != v.size:
        raise ValidationError(f"{what} must be 0 or 1, got {_distinct(v[~(zero | one)]).tolist()}")
    return zero, one


def _group_threshold_grid(
    scores, labels, groups, decision_threshold: float, n_candidates: int
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Per-group cutoff candidates with their TPR/FPR/accuracy curves, from the rows' scores.

    Each group's candidates are ``n_candidates`` quantiles of its scores,
    ``decision_threshold``, 0.0 and just over 1.0. The curves are counted:
    with each group's positive and negative scores sorted once, the rows
    scoring at least a candidate are those past its ``searchsorted``
    position, so no candidate-by-row decision matrix is built. One stable
    radix ``argsort`` of the int8 key ``2 * group + label`` lays the scores
    out as four contiguous runs (group 0 negatives, group 0 positives,
    group 1 negatives, group 1 positives), each in row order, and each run
    is sorted in place. Labels and groups are checked as given, so a label
    of 0.9 or 2 or a group of 0.2 is an error, not a truncated 0.
    """
    scores = np.asarray(scores, dtype=float)
    g = np.asarray(groups)
    masks = (g == 0, g == 1)
    sizes = [int(np.count_nonzero(mask)) for mask in masks]
    if 0 in sizes or sum(sizes) != g.size:
        raise ValidationError(f"need both groups 0 and 1, got {_distinct(g).tolist()}")
    _, positive = _binary_values(labels, "labels")
    if g.shape != scores.shape or positive.shape != scores.shape:
        raise ValidationError(
            f"labels and groups need one entry per score ({scores.size}), "
            f"got shapes {positive.shape} and {g.shape}"
        )
    key = masks[1].astype(np.int8) * 2 + positive
    counts = np.bincount(key, minlength=4).tolist()
    for grp in (0, 1):
        if not counts[2 * grp] or not counts[2 * grp + 1]:
            raise ValidationError(
                f"group {grp} lacks a label class; per-group thresholds undefined"
            )
    runs = np.split(scores[np.argsort(key, kind="stable")], np.cumsum(counts)[:3])

    per_group = {}
    for grp in (0, 1):
        s_neg, s_pos = runs[2 * grp], runs[2 * grp + 1]
        s_neg.sort()
        s_pos.sort()
        # the group's scores in order: a stable sort merges the two sorted runs
        s = np.sort(np.concatenate([s_pos, s_neg]), kind="stable")
        qs = _sorted_quantiles(s, np.linspace(0.0, 1.0, min(n_candidates, s.size)))
        cands = _distinct(np.concatenate([qs, [decision_threshold, 0.0, 1.0 + 1e-12]]))
        # rows of each label class scoring below each candidate
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


def fit_group_thresholds(scores, labels, groups, decision_threshold: float, tau_o: float) -> dict[int, float]:
    """Pick the most accurate per-group cutoffs on ``scores`` whose odds gap clears ``tau_o``.

    ``scores`` are a model's scores of the rows (``predict_proba``) and
    ``decision_threshold`` its single cutoff. Scans quantile-spaced score
    cutoffs per group and returns, among the pairs whose |TPR0-TPR1| +
    |FPR0-FPR1| on the given rows is at most ``tau_o``, the most accurate.
    Such a pair always exists: each group's grid holds cutoff 0.0, and the
    pair that accepts everyone has gap 0. Raises ``ValidationError`` for a
    ``tau_o`` that is not >= 0 and if either group lacks positives or
    negatives (the gap would be undefined).
    """
    if not tau_o >= 0:
        raise ValidationError(f"tau_o must be >= 0, got {tau_o!r}")
    per_group, gap, combined_acc = _group_threshold_grid(
        scores, labels, groups, decision_threshold, _N_CANDIDATES
    )
    flat = int(np.argmax(np.where(gap <= tau_o, combined_acc, -np.inf)))
    i, j = np.unravel_index(flat, gap.shape)
    return {0: float(per_group[0][0][i]), 1: float(per_group[1][0][j])}


def candidate_group_thresholds(
    scores, labels, groups, decision_threshold: float, tau_o: float = 0.15, k: int = 25
) -> list[dict[int, float]]:
    """Top-k per-group cutoff pairs on ``scores`` for the odds-gap search.

    Reads ``scores`` and ``decision_threshold`` as ``fit_group_thresholds``
    does. Pairs whose gap on the given rows clears ``tau_o`` come first,
    most accurate first (this keeps the degenerate accept-everyone and
    reject-everyone corners, which zero the gap at useless accuracy, from
    winning); remaining pairs follow by ascending gap. Callers walk the
    list until a pair also clears their reported-metric gate.
    """
    per_group, gap, combined_acc = _group_threshold_grid(
        scores, labels, groups, decision_threshold, _N_CANDIDATES
    )
    pairs = []
    for flat in _first_pairs(gap, combined_acc, tau_o, max(1, k)):
        i, j = np.unravel_index(int(flat), gap.shape)
        pairs.append({0: float(per_group[0][0][i]), 1: float(per_group[1][0][j])})
    return pairs


def _first_pairs(gap: np.ndarray, combined_acc: np.ndarray, tau_o: float, k: int) -> np.ndarray:
    """The flat indices of the first ``k`` pairs: feasible ones by (accuracy descending, gap), then the rest by gap, ties in index order.

    This is ``np.lexsort`` of the whole grid by (feasibility, that key,
    gap), read to its ``k``-th entry, without sorting the pairs past it:
    in each block ``np.partition`` finds the key of the last pair wanted,
    and only the pairs at or under it, ties included, are sorted.
    """
    gap = gap.ravel()
    feasible = gap <= tau_o
    picked = []
    for rows, key in ((np.flatnonzero(feasible), -combined_acc.ravel()), (np.flatnonzero(~feasible), gap)):
        key = key[rows]
        if k < rows.size:
            kept = key <= np.partition(key, k - 1)[k - 1]
            rows, key = rows[kept], key[kept]
        picked.append(rows[np.lexsort((gap[rows], key))][:k])
        k -= picked[-1].size
        if not k:
            break
    return np.concatenate(picked)


def group_cutoffs(groups, thresholds: dict[int, float]) -> np.ndarray:
    """Each row's score cutoff: the threshold of its group.

    Raises ``ValidationError`` naming the smallest group label that has
    no threshold. Labels are read as given: a group of 0.5 has none, and
    is not truncated to group 0.
    """
    g = np.asarray(groups)
    cuts = np.empty(g.shape)
    unfilled = np.ones(g.shape, dtype=bool)
    for label, cut in thresholds.items():
        # a 0-d array is compared at the wider of the two dtypes, as the key
        # is when it is looked up: a float32 0.1 is not the threshold of 0.1
        rows = g == np.asarray(label)
        cuts[rows] = cut
        unfilled &= ~rows
    if unfilled.any():
        raise ValidationError(f"no decision threshold for group {_distinct(g[unfilled]).tolist()[0]}")
    return cuts


def predict_with_group_thresholds(
    model: TrainedModel, features, groups, thresholds: dict[int, float]
) -> np.ndarray:
    """Binary decisions using a per-group score cutoff (``group_cutoffs``)."""
    scores = np.asarray(predict_proba(model, features), dtype=float)
    return (scores >= group_cutoffs(groups, thresholds)).astype(int)
