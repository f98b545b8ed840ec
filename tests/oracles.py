"""Brute-force counting oracles, written independently of the library.

Everything here is deliberate pure-Python looping over rows: no numpy
vectorization, no shared helpers with the package. These are the reference
implementations the fast paths are checked against.

The one exception is the logistic trainer at the end. Its iterates are
compared bit for bit, and the matrix products that produce them are only
reproducible by the same numpy calls in the same order, so it is written in
numpy, as the plain step the package took before its step was streamlined.
"""

from __future__ import annotations

import numpy as np


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


def two_branch_sigmoid(scores):
    """1/(1+e^-s) where s >= 0 and e^s/(1+e^s) elsewhere, by boolean masks."""
    out = np.empty_like(scores)
    pos = scores >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-scores[pos]))
    expv = np.exp(scores[~pos])
    out[~pos] = expv / (1.0 + expv)
    return out


def logistic_fit_reference(X, y, iterations, learning_rate, l2, variance_floor=1e-12):
    """Standardize, then take ``iterations`` full-batch gradient steps from zero.

    Returns ``(coefficients, intercept, mu, sigma)``. Each step evaluates the
    mean log-loss gradient with an L2 penalty on the non-intercept weights;
    the loss value itself never feeds the iterate and is not computed.
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
