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
(deployed-view features, evaluation label) rows for accepted members only,
by their row indices in the cohort. Rejected members contribute nothing, which is exactly the selective
labeling that lets the loop feed on its own decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObstacleModel, Policy, Population, _distinct, reveal_population
from .errors import UndefinedRateError, ValidationError
from .inputs import is_finite_number, is_index
from .learner import (
    ModelSpec,
    TrainedModel,
    _binary_values,
    fit_group_thresholds,
    predict,
    predict_proba,
    predict_with_group_thresholds,
    train,
)
from .metrics import DEFAULT_OUTCOME_EPSILON, _count_log, _group_counts, _outcome_from_table
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
        for name in ("n_per_round", "d_proxy", "d_intended", "seed"):
            value = getattr(self, name)
            if not is_index(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        w_p, w_t = self.true_model_coefficients
        for name, values in (
            ("group_fraction", (self.group_fraction,)),
            ("obstacle_prob_by_group", tuple(self.obstacle_prob_by_group.values())),
            ("alpha_proxy", self.alpha_proxy),
            ("alpha_intended", self.alpha_intended),
            ("obstacle_severity", (self.obstacle_severity,)),
            ("true_model_coefficients", (*w_p, *w_t)),
            ("label_noise", (self.label_noise,)),
        ):
            if not all(map(is_finite_number, values)):
                raise ValidationError(f"{name} must be finite and numeric, got {getattr(self, name)!r}")
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
        if len(w_p) != self.d_proxy or len(w_t) != self.d_intended:
            raise ValidationError(
                "true_model_coefficients must be (proxy-view, intended-view) "
                "vectors matching d_proxy and d_intended"
            )
        # the evaluation-view vector becomes a model whose importance divides
        # by its L1 norm (a proxy-view vector that overflows is caught by the
        # cohort's own float-range check)
        with np.errstate(over="ignore"):
            l1 = float(np.sum(np.abs(np.asarray(w_t, dtype=float))))
        if not math.isfinite(l1):
            raise ValidationError(
                f"true_model_coefficients' evaluation view has an L1 norm past the float range, got {w_t!r}"
            )
        for name in ("alpha_proxy", "alpha_intended"):
            if max(self.obstacle_prob_by_group.values()) > 0 and not any(a > 0 for a in getattr(self, name)):
                raise ValidationError(f"obstacle probabilities are positive but {name} has no support")


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


@dataclass(frozen=True)
class CuratedDataset:
    """Feature/label rows harvested from accepted individuals.

    ``y`` holds the 0/1 labels as an int8 array. Provenance keeps, per
    row, the round it was curated in (``rounds``, an int32 array) and the
    individual's row in that round's cohort (``source_rows``, an int64
    array).
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    rounds: np.ndarray
    source_rows: np.ndarray

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @classmethod
    def from_columns(
        cls, feature_names: tuple[str, ...], X, y, round: int, source_rows
    ) -> "CuratedDataset":
        """One curation round's rows, given as columns.

        ``X`` holds one row of deployed-view features per individual, ``y``
        their 0/1 evaluation labels and ``source_rows`` their nonnegative
        integer rows in the round's cohort, in the same order; ``round`` is
        an integer in [0, 2**31).
        """
        if not is_index(round) or not 0 <= round <= np.iinfo(np.int32).max:
            raise ValidationError(f"round must be an integer in [0, 2**31), got {round!r}")
        feature_names = tuple(feature_names)
        try:
            X = np.asarray(X, dtype=float)
        except ValueError:  # ragged rows or a cell that is not a number
            raise ValidationError("curated features must be numeric rows of equal length") from None
        if X.ndim != 2 or X.shape[1] != len(feature_names):
            raise ValidationError(
                f"curated features must be (n, {len(feature_names)}) for feature names "
                f"{feature_names}, got shape {X.shape}"
            )
        y, rows = np.asarray(y), np.asarray(source_rows)
        if y.shape != (len(X),) or rows.shape != (len(X),):
            raise ValidationError(
                f"curated labels and source rows need one entry per feature row ({len(X)}), "
                f"got shapes {y.shape} and {rows.shape}"
            )
        # both checked as given, so a 0.5 is not truncated to 0 nor a row 1.7 to 1
        _binary_values(y, "curated labels")
        if rows.dtype.kind not in "iuf":
            raise ValidationError(f"curated source rows must be integers, got dtype {rows.dtype}")
        bad = ~((rows >= 0) & (rows == np.trunc(rows)) & (rows < 2**63))
        if bad.any():
            raise ValidationError(
                f"curated source rows must be nonnegative integers, got {_distinct(rows[bad]).tolist()}"
            )
        return cls(
            feature_names=feature_names,
            X=X,
            y=y.astype(np.int8, copy=False),
            rounds=np.full(len(y), round, dtype=np.int32),
            source_rows=rows.astype(np.int64, copy=False),
        )


@dataclass(frozen=True)
class LoopRound:
    """Metrics observed in one simulated round.

    ``psi`` is the share of the cohort with full access. Every other rate
    is a ratio of the round's count table over (evaluation label if
    accepted, group, revealed label, decision):

    * ``omega``: |dTPR| + |dFPR| of the decisions against the revealed
      labels (NaN when a group lacks a label class);
    * ``zeta``: accepted with evaluation label 1 over accepted (NaN when
      none is accepted);
    * ``pos_rate_by_group[g]``: group g's accepted over group g's members;
    * ``fp_share_by_group[g]``: group g's accepted with evaluation label 0
      over group g's accepted (0.0 when none is), the false-positive rate
      among them. It is not the case study's
      ``UtilizationReport.per_group_fp_share``, each group's share of all
      false positives, which sums to 1;
    * ``curated_pos_share_by_group[g]``: group g's accepted with evaluation
      label 1 over all accepted with evaluation label 1 (0.0 when none is).

    A skipped round counts no table: its rates are NaN and its shares 0.0.
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
    u_group = rng.random(n)
    u_obstacle = rng.random(n)
    z_p = rng.normal(scale=_FEATURE_NOISE, size=(n, cfg.d_proxy))
    z_t = rng.normal(scale=_FEATURE_NOISE, size=(n, cfg.d_intended))
    deg_p = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_proxy))
    deg_carry = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_intended))
    deg_util = rng.exponential(scale=cfg.obstacle_severity, size=(n, cfg.d_intended))
    u_flip = rng.random(n)

    grp = (u_group < cfg.group_fraction).astype(int)
    probs = np.array([cfg.obstacle_prob_by_group[0], cfg.obstacle_prob_by_group[1]])
    loaded = latent * _LATENT_LOADING

    # one column at a time. The obstacle-free views are latent plus noise.
    # An obstacle subtracts its degradation times the 0/1 flag from each
    # affected column: a finite nonnegative draw times 0.0 is +0.0 and
    # z - 0.0 == z bit for bit, -0.0 included, so each view is the masked
    # subtraction without a select
    for z in (z_p, z_t):
        for j in range(z.shape[1]):
            z[:, j] += loaded
    flag = (u_obstacle < probs[grp]).astype(float)
    w_p = np.asarray(cfg.true_model_coefficients[0], dtype=float)
    flip_p = u_flip < cfg.label_noise
    # a draw or a score past the float range stops the build before any
    # warning: an overflow or an inf times 0 raises here, and an inf draw
    # on a flagged row leaves a view that is not finite
    try:
        with np.errstate(over="raise", invalid="raise"):
            x_p = z_p.copy()
            for j in np.flatnonzero(np.asarray(cfg.alpha_proxy) > 0):
                x_p[:, j] -= deg_p[:, j] * flag
            # evaluation-side state: decision-time residue, then the evaluation-specific part
            x_t_full, x_t_after_access = z_t.copy(), z_t.copy()
            for j in np.flatnonzero(np.asarray(cfg.alpha_intended) > 0):
                util = deg_util[:, j] * flag
                x_t_full[:, j] -= deg_carry[:, j] * flag
                x_t_full[:, j] -= util
                x_t_after_access[:, j] -= util
            y_prime_p = ((z_p @ w_p >= 0) ^ flip_p).astype(int)
            y_p = ((x_p @ w_p >= 0) ^ flip_p).astype(int)
        finite = np.isfinite(x_p).all() and np.isfinite(x_t_full).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise ValidationError(
            f"cohort {round} leaves the float range: obstacle_severity={cfg.obstacle_severity!r} "
            f"or true_model_coefficients={cfg.true_model_coefficients!r} is too large"
        )

    proxy = Population(
        x=x_p, z=z_p, y=y_p, y_prime=y_prime_p, grp=grp, ids=range(n),
        feature_names=_proxy_feature_names(cfg),
    )
    return Cohort(
        proxy=proxy,
        x_intended=x_t_full,
        z_intended=z_t,
        x_intended_after_access=x_t_after_access,
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
        names = tuple(feature_names)
        return CuratedDataset.from_columns(names, np.empty((0, len(names))), [], round, [])
    d = len(positives[0][1])
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"pf{i}" for i in range(d)
    )
    rows, features, labels = zip(*positives)
    return CuratedDataset.from_columns(names, features, labels, round, rows)


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
    # evaluation-side features: cleared entirely under full equity;
    # otherwise the decision-time residue depends on the access regime
    if utilization_alleviated:
        eval_view = "z_intended"
    elif access_alleviated:
        eval_view = "x_intended_after_access"
    else:
        eval_view = "x_intended"

    om_p = ObstacleModel.from_alpha(cfg.alpha_proxy)
    proxy_policy = Policy(math.inf) if access_alleviated else Policy(0.0)
    feature_names = _proxy_feature_names(cfg)
    spec = ModelSpec(feature_names)
    env_model = TrainedModel.from_coefficients(
        ModelSpec(_intended_feature_names(cfg)),
        cfg.true_model_coefficients[1],
    )

    # the training pool, seed rows first and then each round's curated
    # rows, grows in place; every round trains on a leading view of it.
    # Labels and groups are 0/1, so they are held as int8 (train reads
    # its own float copy of the labels)
    n_seed = cfg.n_per_round
    capacity = n_seed + rounds * cfg.n_per_round
    try:
        pool_X = np.empty((capacity, cfg.d_proxy))
        pool_y = np.empty(capacity, dtype=np.int8)
        pool_groups = np.empty(capacity, dtype=np.int8)
    except (ValueError, OverflowError, MemoryError):
        raise ValidationError(
            f"rounds={rounds} needs a pool of {capacity} rows, more than can be allocated"
        ) from None
    size = n_seed
    batch_rows = [np.empty(0, dtype=np.int64)]  # batch t: round t's accepted cohort rows; batch 0 is the seed's
    records: list[LoopRound] = []

    def play(t: int, model: TrainedModel, thresholds, events: list[str]) -> LoopRound:
        """Round t from its cohort on: decide, curate into the pool, record.

        The cohort and every array made from it are locals here, so they
        are released when the round ends, before the next round's fit.
        """
        nonlocal size
        cohort = generate_cohort(cfg, t)
        x_rev, y_rev, accessed = reveal_population(cohort.proxy, om_p, proxy_policy)
        groups = cohort.proxy.groups()

        if thresholds is not None:
            preds = predict_with_group_thresholds(model, x_rev, groups, thresholds)
        else:
            preds = np.asarray(predict(model, x_rev))

        y_eval = predict(env_model, getattr(cohort, eval_view))

        # one count over (evaluation label if admitted, group, revealed label, decision)
        table = _count_log(preds, y_rev, groups, y_eval)
        members, admitted, confirmed = _group_counts(table)  # by group
        m, positives = sum(admitted), sum(confirmed)
        try:
            omega = _outcome_from_table(table, DEFAULT_OUTCOME_EPSILON).eo_violation
        except UndefinedRateError as exc:
            omega = float("nan")
            events.append(f"omega undefined: {exc}")
        if m == 0:
            events.append("no accepted individuals this round")

        # the accepted rows are appended by index; an empty batch writes no
        # pool row and adds an empty batch of rows
        rows = np.flatnonzero(preds == 1)
        pool_X[size : size + m] = x_rev[rows]
        pool_y[size : size + m] = y_eval[rows]
        pool_groups[size : size + m] = groups[rows]
        size += m
        batch_rows.append(rows)
        return LoopRound(
            round=t,
            psi=float(np.mean(accessed)),
            omega=omega,
            zeta=positives / m if m else float("nan"),
            pos_rate_by_group={g: admitted[g] / members[g] if members[g] else float("nan") for g in (0, 1)},
            fp_share_by_group={
                g: (admitted[g] - confirmed[g]) / admitted[g] if admitted[g] else 0.0 for g in (0, 1)
            },
            curated_pos_share_by_group={g: confirmed[g] / positives if positives else 0.0 for g in (0, 1)},
            curated_size=size,
            events=tuple(events),
        )

    model = None  # the last round's model, where each round's fit starts
    seed_cohort = generate_cohort(cfg, 0)
    pool_X[:n_seed] = seed_cohort.proxy.x_matrix()
    pool_y[:n_seed] = seed_cohort.proxy.labels()
    pool_groups[:n_seed] = seed_cohort.proxy.groups()
    del seed_cohort
    for t in range(1, rounds + 1):
        X, y, pool_g = pool_X[:size], pool_y[:size], pool_groups[:size]
        # only a single-class seed pool is skipped, and then every round
        # is, since a skipped round adds no row and builds no cohort
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

        events: list[str] = []
        model = train(spec, X, y, cfg.seed, start=model)
        thresholds = None
        if outcome_equalized:
            try:
                thresholds = fit_group_thresholds(
                    predict_proba(model, X), y, pool_g, model.decision_threshold, tau_o=0.15
                )
            except ValidationError as exc:
                events.append(f"outcome equalization skipped: {exc}")

        records.append(play(t, model, thresholds, events))

    trajectory = LoopTrajectory(regime=regime, seed_size=n_seed, rounds=tuple(records))
    curated = CuratedDataset(
        feature_names=feature_names,
        X=pool_X[n_seed:size].copy(),
        y=pool_y[n_seed:size].copy(),
        rounds=np.repeat(np.arange(len(batch_rows), dtype=np.int32), [len(r) for r in batch_rows]),
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
