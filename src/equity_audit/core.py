"""Core semantics: obstacles, alleviation policies, and revealed features.

The model here is a decision pipeline in which every individual has two
feature vectors of equal length: ``z``, the values they would present with
no barriers in the way (obstacle-free), and ``x``, the values they actually
present under the barriers they face (obstacle-refrained). Whenever barriers
bind, ``z`` dominates ``x``: every coordinate of ``z`` is at least the
matching coordinate of ``x`` and at least one is strictly larger.

An :class:`ObstacleModel` assigns each feature a nonnegative constraint
weight ``alpha``; the scalar obstacle magnitude for an individual is the
inner product ``<alpha, z - x>``. A :class:`Policy` carries a per-individual
alleviation budget ``delta``, and the alleviated residual is
``max(magnitude - delta, 0)``. An individual whose magnitude is zero, or
whose residual after alleviation is zero, interacts with the decision model
at full capacity and reveals ``(z, y_prime)``; everyone else reveals
``(x, y)``. One kernel, :func:`_obstacle_access`, applies that rule to a
block of rows; :func:`reveal_population` and ``metrics.model_access`` both
run it, so they give a person the same bits. :func:`reveal_population`
chooses between ``z`` and ``x`` per feature and returns the revealed
features as a new C-contiguous (n, d) block, whatever the layout of the
population's columns.

A :class:`Population` stores people as read-only columns, validated once.

All functions in this module are pure; nothing mutates its inputs, so the
operations are safe to call from several threads at once. The package
starts no thread of its own: every call into this module runs on the
caller's thread.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DominanceError, ValidationError

__all__ = [
    "Population",
    "ObstacleModel",
    "Policy",
    "dominates",
    "reveal_population",
]


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _distinct(values) -> np.ndarray:
    """The distinct values of ``values``, sorted, as ``np.unique`` gives them.

    One ``np.sort`` of the flattened values; each value that differs from
    the one before it is kept, and the NaNs, which sort last, collapse to
    the first of them (``np.unique``'s ``equal_nan=True``). Unlike
    ``np.unique``, it does not import ``numpy.ma`` (numpy 2.4 does on the
    first call, which costs a process about 1 MiB and 8-13 ms).
    """
    s = np.sort(values, axis=None)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    if s.dtype.kind == "f" and s.size and np.isnan(s[-1]):
        keep[np.searchsorted(s, s[-1]) + 1 :] = False
    return s[keep]


def _row_faults(name: str, col: np.ndarray) -> tuple[str, np.ndarray]:
    """A checked column's fault, a non-finite feature or a label other than 0/1, and the rows with it."""
    if col.ndim == 2:
        return f"{name} contains non-finite values", ~np.isfinite(col).all(axis=1)
    return f"{name} must be 0 or 1", ~np.isin(col, (0, 1))


def _column_passes(col: np.ndarray) -> bool:
    """Whether no row of the column fails, tested in one pass over it where its dtype allows."""
    if col.ndim == 2:
        return bool(np.isfinite(col).all())
    if col.dtype.kind in "biufc":
        return bool(((col == 0) | (col == 1)).all())
    return bool(np.isin(col, (0, 1)).all())


class Population:
    """An ordered population over one feature space, stored as columns.

    ``x`` and ``z`` are (n, d) float blocks, ``y``, ``y_prime`` and ``grp``
    length-n 0/1 columns and ``ids`` n unique hashable identifiers; a
    ``range`` is kept as it is, since its ids are unique by construction
    (the loop's cohorts use their row numbers). The constructor
    copies and validates its inputs once; the accessors return the stored
    read-only arrays without copying.
    """

    def __init__(self, x, z, y, y_prime, grp, ids, feature_names):
        ids = ids if isinstance(ids, range) else tuple(ids)
        feature_names = tuple(feature_names)
        n, d = len(ids), len(feature_names)
        columns = {"z": np.array(z, dtype=float), "x": np.array(x, dtype=float),
                   "y_prime": np.array(y_prime), "y": np.array(y), "grp": np.array(grp)}
        for name, col in columns.items():
            shape = (n, d) if name in ("x", "z") else (n,)
            if col.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, got {col.shape}")
        if not all(map(_column_passes, columns.values())):
            # name the first faulty row and, within it, the first faulty column
            faults = [_row_faults(name, col) for name, col in columns.items()]
            bad = np.logical_or.reduce([mask for _, mask in faults])
            row = int(np.argmax(bad))
            message = next(message for message, mask in faults if mask[row])
            raise ValidationError(f"{message} for individual {ids[row]!r}", row=row)
        if not isinstance(ids, range) and len(set(ids)) != n:
            raise ValidationError("individual ids must be unique")
        for name in ("y_prime", "y", "grp"):
            columns[name] = columns[name].astype(int)
        for col in columns.values():
            col.flags.writeable = False
        self.__dict__.update({"_" + name: col for name, col in columns.items()})
        self.__dict__.update(_ids=ids, feature_names=feature_names)

    def __setattr__(self, name, value):
        raise AttributeError(f"Population is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self._ids)

    def x_matrix(self) -> np.ndarray:
        return self._x

    def z_matrix(self) -> np.ndarray:
        return self._z

    def labels(self) -> np.ndarray:
        return self._y

    def labels_prime(self) -> np.ndarray:
        return self._y_prime

    def groups(self) -> np.ndarray:
        return self._grp

    def ids(self) -> list:
        return list(self._ids)  # kept as a tuple or range, so callers cannot reorder it

    def restrict(self, feature_names: list[str] | tuple[str, ...]) -> "Population":
        """Column slice onto a subset of the features; nothing is revalidated."""
        idx = [self.feature_names.index(f) for f in feature_names]
        x, z = self._x[:, idx], self._z[:, idx]
        x.flags.writeable = z.flags.writeable = False
        view = copy.copy(self)
        view.__dict__.update(_x=x, _z=z, feature_names=tuple(feature_names))
        return view


@dataclass(frozen=True)
class ObstacleModel:
    """Per-feature constraint weights describing how barriers bind.

    ``alpha`` must be nonnegative everywhere and zero outside
    ``affected_features``.
    """

    alpha: np.ndarray
    affected_features: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_float_vector(self.alpha, "alpha"))
        object.__setattr__(self, "affected_features", frozenset(self.affected_features))
        if np.any(self.alpha < 0):
            raise ValidationError("alpha must be nonnegative")
        for i, a in enumerate(self.alpha):
            if a > 0 and i not in self.affected_features:
                raise ValidationError(
                    f"alpha[{i}] > 0 but feature {i} is not in affected_features"
                )
        for i in self.affected_features:
            if not 0 <= i < self.alpha.shape[0]:
                raise ValidationError(f"affected feature index {i} out of range")

    @classmethod
    def from_alpha(cls, alpha) -> "ObstacleModel":
        """Build a model whose affected set is exactly the support of alpha."""
        arr = _as_float_vector(alpha, "alpha")
        return cls(arr, frozenset(int(i) for i in np.nonzero(arr > 0)[0]))

    def restrict(self, indices: list[int]) -> "ObstacleModel":
        """Project onto a subset of feature indices (re-indexed)."""
        alpha = self.alpha[indices]
        affected = frozenset(
            new for new, old in enumerate(indices) if old in self.affected_features
        )
        return ObstacleModel(alpha, affected)


@dataclass(frozen=True)
class Policy:
    """Per-individual alleviation budget. ``delta`` may be ``math.inf``."""

    delta: float = 0.0

    def __post_init__(self):
        if not self.delta >= 0:
            raise ValidationError(f"delta must be >= 0, got {self.delta!r}")


def dominates(z, x) -> bool:
    """True iff ``z_i >= x_i`` everywhere and ``z_i > x_i`` somewhere."""
    z = _as_float_vector(z, "z")
    x = _as_float_vector(x, "x")
    if z.shape != x.shape:
        raise ValidationError(f"length mismatch: {z.shape[0]} != {x.shape[0]}")
    return bool(np.all(z >= x) and np.any(z > x))


def _obstacle_access(
    x: np.ndarray, z: np.ndarray, alpha: np.ndarray, delta: float, ids
) -> np.ndarray:
    """Access mask for an (n, d) block of people.

    Magnitudes are summed over columns in a fixed order, so a row's bits do
    not depend on the rows around it or on the BLAS build.
    """
    if alpha.shape[0] != x.shape[1]:
        raise ValidationError(
            f"obstacle model has {alpha.shape[0]} weights, data has {x.shape[1]} features"
        )
    diff = z - x
    if np.any(diff < 0):
        row, col = np.argwhere(diff < 0)[0]
        raise DominanceError(
            f"z must dominate-or-equal x componentwise; violation at "
            f"individual {ids[int(row)]!r}, feature {int(col)}"
        )
    magnitude = np.zeros(x.shape[0])
    for j in range(x.shape[1]):
        magnitude = magnitude + alpha[j] * diff[:, j]
    residual = np.maximum(magnitude - delta, 0.0)
    return (magnitude == 0.0) | (residual == 0.0)


def reveal_population(
    pop: Population, model: ObstacleModel, policy: Policy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The piecewise reveal rule over a population.

    Returns ``(X_rev, y_rev, fully_accessed)`` where rows follow the
    population's order: a row whose obstacle magnitude is zero or fully
    alleviated by the policy reveals ``(z, y_prime)`` and is marked
    accessed; every other row reveals ``(x, y)``. ``X_rev`` is a new
    C-contiguous (n, d) block, whatever the layout of the population's
    columns. Deterministic.
    """
    x, z = pop.x_matrix(), pop.z_matrix()
    accessed = _obstacle_access(x, z, model.alpha, policy.delta, pop._ids)
    # selected per feature on the (d, n) transposes, whose result transposes
    # back to a C-contiguous block when the columns are C-contiguous
    x_rev = np.ascontiguousarray(np.where(accessed, z.T, x.T).T)
    y_rev = np.where(accessed, pop.labels_prime(), pop.labels())
    return x_rev, y_rev, accessed
