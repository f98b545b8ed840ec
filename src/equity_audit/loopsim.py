"""Synthetic cohorts and the multi-round ground-truth feedback loop.

The generator isolates one causal story: latent ability is distributed
identically across the two groups, and the only group difference is how
often individuals face obstacles. Each individual carries two linked
feature views sharing a latent score: a deployed-model view (what the
decision model reads) and an evaluation view (what the environment scores
later). Obstacles degrade the affected features of both views by
exponential draws with mean ``obstacle_severity``.

Alleviating obstacles at decision time removes their evaluation-side
residue: an individual whose barriers were cleared walks into the
evaluation phase carrying only the evaluation-specific degradation, while
an individual whose barriers were ignored carries both. That is the
mechanism the regimes toggle:

* ``no_equity``: nothing alleviated anywhere.
* ``access_only``: decision-time obstacles cleared; evaluation-specific
  obstacles remain.
* ``access_and_outcome``: as above, plus per-group decision thresholds
  fitted to shrink the odds gap on the training pool.
* ``full_equity``: evaluation-side obstacles cleared as well.

Each round trains the deployed model on everything curated so far (the
round-0 seed data is kept so training never starves), scores a fresh
cohort, sends its accepted members to the evaluation model, and appends
(deployed-view features, evaluation label) rows for accepted members only.
Rejected members contribute nothing, which is exactly the selective
labeling that lets the loop feed on its own decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObstacleModel, Policy, Population, reveal_population
from .errors import UndefinedRateError, ValidationError
from .learner import (
    ModelSpec,
    TrainedModel,
    fit_group_thresholds,
    predict,
    predict_with_group_thresholds,
    train,
)
from .metrics import eo_violation
from .reports import _csv_text

REGIMES = ("no_equity", "access_only", "access_and_outcome", "full_equity")

# shared-latent structure of the generated feature views
_LATENT_LOADING = 1.0
_FEATURE_NOISE = 0.5

TRAJECTORY_CSV_COLUMNS = (
    "round",
    "regime",
    "psi",
    "omega",
    "zeta",
    "pos_rate_g0",
    "pos_rate_g1",
    "fp_share_g0",
    "fp_share_g1",
    "curated_size",
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the cohort generator. See :func:`default_config`."""

    n_per_round: int
    d_proxy: int
    d_intended: int
    group_fraction: float
    obstacle_prob_by_group: dict[int, float]
    alpha_proxy: tuple[float, ...]
    alpha_intended: tuple[float, ...]
    obstacle_severity: float
    true_model_coefficients: tuple[tuple[float, ...], tuple[float, ...]]
    label_noise: float
    seed: int

    def __post_init__(self):
        if self.n_per_round < 1:
            raise ValidationError("n_per_round must be >= 1")
        if self.d_proxy < 1 or self.d_intended < 1:
            raise ValidationError("feature dimensions must be >= 1")
        if not 0 < self.group_fraction < 1:
            raise ValidationError("group_fraction must be in (0, 1)")
        for g in (0, 1):
            p = self.obstacle_prob_by_group.get(g)
            if p is None or not 0 <= p <= 1:
                raise ValidationError(
                    f"obstacle_prob_by_group[{g}] must be a probability"
                )
        if len(self.alpha_proxy) != self.d_proxy:
            raise ValidationError("alpha_proxy length must equal d_proxy")
        if len(self.alpha_intended) != self.d_intended:
            raise ValidationError("alpha_intended length must equal d_intended")
        if any(a < 0 for a in self.alpha_proxy + self.alpha_intended):
            raise ValidationError("alpha weights must be nonnegative")
        if self.obstacle_severity < 0:
            raise ValidationError("obstacle_severity must be >= 0")
        if not 0 <= self.label_noise < 0.5:
            raise ValidationError("label_noise must be in [0, 0.5)")
        w_p, w_t = self.true_model_coefficients
        if len(w_p) != self.d_proxy or len(w_t) != self.d_intended:
            raise ValidationError(
                "true_model_coefficients must be (proxy-view, intended-view) "
                "vectors matching d_proxy and d_intended"
            )
        if max(self.obstacle_prob_by_group.values()) > 0:
            if not any(a > 0 for a in self.alpha_proxy):
                raise ValidationError(
                    "obstacle probabilities are positive but alpha_proxy has no support"
                )
            if not any(a > 0 for a in self.alpha_intended):
                raise ValidationError(
                    "obstacle probabilities are positive but alpha_intended has no support"
                )


def default_config(seed: int = 42) -> SyntheticConfig:
    """Defaults used by the shipped simulations and regression tests."""
    return SyntheticConfig(
        n_per_round=4000,
        d_proxy=3,
        d_intended=3,
        group_fraction=0.5,
        obstacle_prob_by_group={0: 0.15, 1: 0.65},
        alpha_proxy=(1.0, 0.0, 0.0),
        alpha_intended=(1.0, 1.0, 0.0),
        obstacle_severity=1.2,
        true_model_coefficients=((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
        label_noise=0.05,
        seed=seed,
    )


@dataclass(frozen=True)
class Cohort:
    """One round's arrivals: the deployed-model view plus evaluation-side features.

    The proxy population's ids are its row numbers, 0 to n - 1.
    The evaluation view is three (n, d_intended) blocks in the proxy's row
    order: ``z_intended`` with no obstacle anywhere, ``x_intended`` the
    worst case (nothing alleviated anywhere) and ``x_intended_after_access``
    the same individuals with their decision-time obstacles cleared, so
    only evaluation-specific degradation remains.
    """

    proxy: Population
    x_intended: np.ndarray
    z_intended: np.ndarray
    x_intended_after_access: np.ndarray
    obstacle_flags: np.ndarray


@dataclass(frozen=True)
class CuratedDataset:
    """Feature/label rows harvested from accepted individuals.

    Provenance keeps, per row, the round it was curated in (``rounds``)
    and the individual's row in that round's cohort (``source_rows``, an
    int64 array).
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    rounds: np.ndarray
    source_rows: np.ndarray

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def source_ids(self) -> tuple[str, ...]:
        """Each row's provenance as ``r<round>-<row>``, formatted when read."""
        return tuple(map("r{}-{}".format, self.rounds.tolist(), self.source_rows.tolist()))

    @classmethod
    def empty(cls, feature_names: tuple[str, ...]) -> "CuratedDataset":
        d = len(feature_names)
        return cls(
            feature_names=feature_names,
            X=np.empty((0, d)),
            y=np.empty((0,), dtype=int),
            rounds=np.empty((0,), dtype=int),
            source_rows=np.empty((0,), dtype=np.int64),
        )

    @classmethod
    def from_columns(
        cls, feature_names: tuple[str, ...], X, y, round: int, source_rows
    ) -> "CuratedDataset":
        """One curation round's rows, given as columns.

        ``X`` holds one row of deployed-view features per individual, ``y``
        their 0/1 evaluation labels and ``source_rows`` their integer rows
        in the round's cohort, in the same order.
        """
        y = np.asarray(y, dtype=int)
        if not np.all(np.isin(y, (0, 1))):
            raise ValidationError("curated labels must be binary")
        return cls(
            feature_names=tuple(feature_names),
            X=np.asarray(X, dtype=float),
            y=y,
            rounds=np.full(len(y), round, dtype=int),
            source_rows=np.asarray(source_rows, dtype=np.int64),
        )


@dataclass(frozen=True)
class LoopRound:
    """Metrics observed in one simulated round.

    ``fp_share_by_group[g]`` is the false-positive rate among group g's
    accepted members this round: the share of them whose evaluation label
    is 0 (0.0 when none is accepted). It is not the case study's
    ``UtilizationReport.per_group_fp_share``, each group's share of all
    false positives, which sums to 1.
    """

    round: int
    psi: float
    omega: float
    zeta: float
    pos_rate_by_group: dict[int, float]
    fp_share_by_group: dict[int, float]
    curated_pos_share_by_group: dict[int, float]
    curated_size: int
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class LoopTrajectory:
    regime: str
    seed_size: int
    rounds: tuple[LoopRound, ...]

    def __post_init__(self):
        indices = [r.round for r in self.rounds]
        if indices != sorted(set(indices)):
            raise ValidationError("round indices must be strictly increasing")

    def mean_zeta(self) -> float:
        vals = [r.zeta for r in self.rounds if not math.isnan(r.zeta)]
        return float(np.mean(vals)) if vals else float("nan")


def _proxy_feature_names(cfg: SyntheticConfig) -> tuple[str, ...]:
    return tuple(f"pf{i}" for i in range(cfg.d_proxy))


def _intended_feature_names(cfg: SyntheticConfig) -> tuple[str, ...]:
    return tuple(f"if{i}" for i in range(cfg.d_intended))


def generate_cohort(cfg: SyntheticConfig, round: int) -> Cohort:
    """Draw one cohort; deterministic for a given (cfg.seed, round)."""
    rng = np.random.default_rng([cfg.seed, round, 101])
    n = cfg.n_per_round
    latent = rng.normal(size=n)
    grp = (rng.random(n) < cfg.group_fraction).astype(int)
    probs = np.array([cfg.obstacle_prob_by_group[0], cfg.obstacle_prob_by_group[1]])
    flagged = rng.random(n) < probs[grp]

    z_p = latent[:, None] * _LATENT_LOADING + rng.normal(
        scale=_FEATURE_NOISE, size=(n, cfg.d_proxy)
    )
    z_t = latent[:, None] * _LATENT_LOADING + rng.normal(
        scale=_FEATURE_NOISE, size=(n, cfg.d_intended)
    )

    affected_p = np.array([a > 0 for a in cfg.alpha_proxy])
    affected_t = np.array([a > 0 for a in cfg.alpha_intended])
    deg_p = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_proxy))
    deg_carry = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_intended))
    deg_util = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_intended))
    mask_p = flagged[:, None] & affected_p[None, :]
    mask_t = flagged[:, None] & affected_t[None, :]

    # a draw times its 0/1 mask is the draw or +0.0 (draws are finite and
    # nonnegative), and z - 0.0 == z bit for bit, -0.0 included: each block
    # is the masked subtraction without a select
    x_p = z_p - deg_p * mask_p
    # evaluation-side state: decision-time residue plus evaluation-specific part
    util = deg_util * mask_t
    x_t_full = z_t - deg_carry * mask_t - util
    x_t_after_access = z_t - util

    w_p = np.asarray(cfg.true_model_coefficients[0], dtype=float)
    flip_p = rng.random(n) < cfg.label_noise
    y_prime_p = ((z_p @ w_p >= 0) ^ flip_p).astype(int)
    y_p = ((x_p @ w_p >= 0) ^ flip_p).astype(int)

    proxy = Population(
        x=x_p, z=z_p, y=y_p, y_prime=y_prime_p, grp=grp, ids=range(n),
        feature_names=_proxy_feature_names(cfg),
    )
    return Cohort(
        proxy=proxy,
        x_intended=x_t_full,
        z_intended=z_t,
        x_intended_after_access=x_t_after_access,
        obstacle_flags=flagged,
    )


def curate_ground_truth(
    positives: list[tuple[int, np.ndarray, int]],
    round: int,
    feature_names: tuple[str, ...] | None = None,
) -> CuratedDataset:
    """Turn accepted individuals' evaluation outcomes into training rows.

    Each entry is ``(cohort row, deployed-view features, y_tt)``; only
    accepted (proxy-positive) individuals belong here, so an empty input
    yields an empty dataset rather than an error. A row-wise adapter to
    :meth:`CuratedDataset.from_columns`.
    """
    if not positives:
        if feature_names is None:
            raise ValidationError("feature_names required for an empty curation batch")
        return CuratedDataset.empty(tuple(feature_names))
    d = len(positives[0][1])
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"pf{i}" for i in range(d)
    )
    rows, features, labels = zip(*positives)
    return CuratedDataset.from_columns(
        names,
        np.array([np.asarray(feats, dtype=float) for feats in features]),
        [int(label) for label in labels],
        round,
        rows,
    )


def _group_rate(values: np.ndarray, groups: np.ndarray, g: int) -> float:
    mask = groups == g
    if not np.any(mask):
        return float("nan")
    return float(np.mean(values[mask]))


def run_inequity_loop(
    cfg: SyntheticConfig, rounds: int, regime: str
) -> tuple[LoopTrajectory, CuratedDataset]:
    """Simulate the curation feedback loop for a number of rounds.

    Each round's fit is warm-started from the last round's model (see
    :func:`~equity_audit.learner.train`). Returns the per-round trajectory
    and the accumulated curated dataset (seed rows excluded; each row keeps
    its curation round and its row in that round's cohort).
    """
    if regime not in REGIMES:
        raise ValidationError(f"regime must be one of {REGIMES}, got {regime!r}")
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")

    access_alleviated = regime != "no_equity"
    outcome_equalized = regime in ("access_and_outcome", "full_equity")
    utilization_alleviated = regime == "full_equity"

    om_p = ObstacleModel.from_alpha(cfg.alpha_proxy)
    proxy_policy = Policy(math.inf) if access_alleviated else Policy(0.0)
    feature_names = _proxy_feature_names(cfg)
    spec = ModelSpec(feature_names)
    env_model = TrainedModel.from_coefficients(
        ModelSpec(_intended_feature_names(cfg)),
        cfg.true_model_coefficients[1],
    )

    # the training pool, seed rows first and then each round's curated
    # rows with their round, grows in place; every round trains on a
    # leading view of it
    n_seed = cfg.n_per_round
    capacity = n_seed + rounds * cfg.n_per_round
    try:
        pool_X = np.empty((capacity, cfg.d_proxy))
        pool_y = np.empty(capacity, dtype=int)
        pool_groups = np.empty(capacity, dtype=int)
        pool_rounds = np.zeros(capacity, dtype=int)
    except (ValueError, OverflowError, MemoryError):
        raise ValidationError(
            f"rounds={rounds} needs a pool of {capacity} rows, more than can be allocated"
        ) from None
    seed_cohort = generate_cohort(cfg, 0)
    pool_X[:n_seed] = seed_cohort.proxy.x_matrix()
    pool_y[:n_seed] = seed_cohort.proxy.labels()
    pool_groups[:n_seed] = seed_cohort.proxy.groups()
    size = n_seed
    batch_rows = [np.empty(0, dtype=np.int64)]  # each round's accepted cohort rows
    records: list[LoopRound] = []
    model = None  # the last round's model, where each round's fit starts

    for t in range(1, rounds + 1):
        events: list[str] = []
        X, y, pool_g = pool_X[:size], pool_y[:size], pool_groups[:size]

        if np.all(y == y[0]):
            records.append(
                LoopRound(
                    round=t,
                    psi=float("nan"),
                    omega=float("nan"),
                    zeta=float("nan"),
                    pos_rate_by_group={0: float("nan"), 1: float("nan")},
                    fp_share_by_group={0: 0.0, 1: 0.0},
                    curated_pos_share_by_group={0: 0.0, 1: 0.0},
                    curated_size=size,
                    events=("round skipped: single-class training pool",),
                )
            )
            continue

        model = train(spec, X, y, cfg.seed, start=model)
        thresholds = None
        if outcome_equalized:
            try:
                thresholds = fit_group_thresholds(model, X, y, pool_g, tau_o=0.15)
            except ValidationError as exc:
                events.append(f"outcome equalization skipped: {exc}")

        cohort = generate_cohort(cfg, t)
        x_rev, y_rev, accessed = reveal_population(cohort.proxy, om_p, proxy_policy)
        groups = cohort.proxy.groups()
        psi = float(np.mean(accessed))

        if thresholds is not None:
            preds = predict_with_group_thresholds(model, x_rev, groups, thresholds)
        else:
            preds = np.asarray(predict(model, x_rev))

        try:
            omega = eo_violation(preds, y_rev, groups).eo_violation
        except UndefinedRateError as exc:
            omega = float("nan")
            events.append(f"omega undefined: {exc}")

        # evaluation-side features: cleared entirely under full equity;
        # otherwise the decision-time residue depends on the access regime
        if utilization_alleviated:
            x_eval = cohort.z_intended
        elif access_alleviated:
            x_eval = cohort.x_intended_after_access
        else:
            x_eval = cohort.x_intended

        b_mask = preds == 1
        m = int(np.sum(b_mask))
        if m == 0:
            events.append("no accepted individuals this round")
            records.append(
                LoopRound(
                    round=t,
                    psi=psi,
                    omega=omega,
                    zeta=float("nan"),
                    pos_rate_by_group={g: _group_rate(preds, groups, g) for g in (0, 1)},
                    fp_share_by_group={0: 0.0, 1: 0.0},
                    curated_pos_share_by_group={0: 0.0, 1: 0.0},
                    curated_size=size,
                    events=tuple(events),
                )
            )
            continue

        y_tt = np.asarray(predict(env_model, x_eval[b_mask]), dtype=int)
        zeta = float(np.mean(y_tt == 1))

        b_groups = groups[b_mask]
        pool_X[size : size + m] = x_rev[b_mask]
        pool_y[size : size + m] = y_tt
        pool_groups[size : size + m] = b_groups
        pool_rounds[size : size + m] = t
        size += m
        batch_rows.append(np.flatnonzero(b_mask))

        fp_share = {}
        for g in (0, 1):
            in_g = b_groups == g
            fp_share[g] = float(np.mean(y_tt[in_g] == 0)) if np.any(in_g) else 0.0
        pos_total = int(np.sum(y_tt == 1))
        pos_share = {
            g: (float(np.sum((y_tt == 1) & (b_groups == g))) / pos_total if pos_total else 0.0)
            for g in (0, 1)
        }

        records.append(
            LoopRound(
                round=t,
                psi=psi,
                omega=omega,
                zeta=zeta,
                pos_rate_by_group={g: _group_rate(preds, groups, g) for g in (0, 1)},
                fp_share_by_group=fp_share,
                curated_pos_share_by_group=pos_share,
                curated_size=size,
                events=tuple(events),
            )
        )

    trajectory = LoopTrajectory(regime=regime, seed_size=n_seed, rounds=tuple(records))
    curated = CuratedDataset(
        feature_names=feature_names,
        X=pool_X[n_seed:size].copy(),
        y=pool_y[n_seed:size].copy(),
        rounds=pool_rounds[n_seed:size].copy(),
        source_rows=np.concatenate(batch_rows),
    )
    return trajectory, curated


def trajectory_to_csv(trajectory: LoopTrajectory) -> str:
    """One row per round; plot-ready."""
    def row(r: LoopRound) -> list:
        rates = (r.psi, r.omega, r.zeta, r.pos_rate_by_group[0], r.pos_rate_by_group[1],
                 r.fp_share_by_group[0], r.fp_share_by_group[1])
        return [r.round, trajectory.regime, *map(repr, rates), r.curated_size]

    return _csv_text(TRAJECTORY_CSV_COLUMNS, map(row, trajectory.rounds))
