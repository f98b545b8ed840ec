"""Gated equity scoring over candidate model spaces.

The search walks three gates in a fixed order, re-sampling candidates when
a gate fails:

1. access: draw a (spec, policy) pair for the deployed model and compute
   the access rate psi on the spec's feature view; below ``tau`` the pair
   is rejected and the outer iteration restarts with a fresh draw.
2. outcome: train the deployed model on a seeded 70/30 split of revealed
   rows, score the equalized-odds violation omega on the held-out rows,
   and re-sample just the model function while omega exceeds ``tau_o``.
3. utilization: take the held-out rows the deployed model accepted, join
   them by id into the evaluation dataset, reveal their evaluation-side
   features under a sampled evaluation policy, and check that the trained
   evaluation model confirms at least ``tau`` of them. Failing that, the
   whole evaluation configuration (features, policy, function) re-samples.

Every candidate evaluation appends one trace record, so a finished
:class:`ScoringTrace` is a complete audit log of what was tried, in which
phase, and why it was rejected. The trace is the run's budget: it holds at
most ``max_outer_iters * max_inner_iters`` records, the record of an
accepted model that admits no held-out row included, and a run that fills
it ends with ``terminated_reason="iteration_cap"``.

The evaluation model is fitted on evaluation-dataset rows whose ids are
not currently under evaluation, so accepted individuals are never scored
by a model trained on themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import ObstacleModel, Policy, Population, reveal_population
from .errors import JoinError, SingleClassError, UndefinedRateError, ValidationError
from .learner import ModelSpec, predict, train
from .metrics import _score, access_from_mask, eo_violation, utilization_from_labels
from .reports import Record, _csv_text, json_text

REJECT_ACCESS = "access_gate"
REJECT_OUTCOME = "outcome_gate"
REJECT_UTILIZATION = "utilization_gate"
REJECT_DEGENERATE = "degenerate_metric"

TRACE_CSV_COLUMNS = (
    "iter",
    "spec_id",
    "policy_id",
    "psi",
    "omega",
    "zeta",
    "phase",
    "accepted",
    "reason",
)


@dataclass(frozen=True)
class ModelSpace:
    """A pool of candidate specs and policies over one labeled dataset."""

    candidate_specs: tuple[ModelSpec, ...]
    dataset: Population
    obstacle_model: ObstacleModel
    candidate_policies: tuple[Policy, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidate_specs", tuple(self.candidate_specs))
        object.__setattr__(self, "candidate_policies", tuple(self.candidate_policies))
        if not self.candidate_specs:
            raise ValidationError("model space needs at least one candidate spec")
        if not self.candidate_policies:
            raise ValidationError("model space needs at least one candidate policy")
        for spec in self.candidate_specs:
            missing = [
                f for f in spec.feature_names if f not in self.dataset.feature_names
            ]
            if missing:
                raise ValidationError(
                    f"spec features {missing} not present in the dataset"
                )


@dataclass(frozen=True)
class IterationRecord(Record):
    iter: int
    phase: str
    spec_id: int
    policy_id: int
    psi: float | None
    omega: float | None
    zeta: float | None
    accepted: bool
    reason: str


@dataclass(frozen=True)
class ScoringTrace(Record):
    records: tuple[IterationRecord, ...]
    final_score: float | None
    terminated_reason: str  # "converged" or "iteration_cap"

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_csv(self) -> str:
        def cell(value):
            return "" if value is None else repr(value)

        return _csv_text(TRACE_CSV_COLUMNS, (
            [r.iter, r.spec_id, r.policy_id, cell(r.psi), cell(r.omega), cell(r.zeta),
             r.phase, int(r.accepted), r.reason]
            for r in self.records
        ))


class CandidateSampler:
    """Without-replacement cyclic sampler over a model space.

    Specs and policies are drawn from independent shuffled streams; a
    stream reshuffles once exhausted. :meth:`reset` starts a fresh
    without-replacement window (one per outer search iteration).
    """

    def __init__(self, space: ModelSpace, rng: np.random.Generator):
        self._space = space
        self._rng = rng
        self._spec_queue: list[int] = []
        self._policy_queue: list[int] = []

    def reset(self) -> None:
        self._spec_queue = []
        self._policy_queue = []

    def _next(self, queue: list[int], size: int) -> int:
        if not queue:
            queue.extend(self._rng.permutation(size).tolist())
        return queue.pop(0)

    def next_spec(self) -> int:
        return self._next(self._spec_queue, len(self._space.candidate_specs))

    def next_policy(self) -> int:
        return self._next(self._policy_queue, len(self._space.candidate_policies))

    def sample(self) -> tuple[int, int]:
        return self.next_spec(), self.next_policy()


def _spec_view(space: ModelSpace, spec: ModelSpec) -> tuple[Population, ObstacleModel]:
    """Restrict the dataset and obstacle model to the spec's features."""
    indices = [space.dataset.feature_names.index(f) for f in spec.feature_names]
    return space.dataset.restrict(spec.feature_names), space.obstacle_model.restrict(indices)


def split_indices(
    n: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """A seeded train/test split of row indices ``0..n-1``.

    The rows are permuted by a generator seeded with ``[seed, 17]``; the
    first ``round(train_fraction * n)`` of them, kept within 1 and
    ``n - 1``, are the train rows and the rest the test rows. The same
    ``n``, fraction and seed give the same split in every caller.
    """
    rng = np.random.default_rng([seed, 17])
    perm = rng.permutation(n)
    n_train = max(1, min(n - 1, int(round(train_fraction * n))))
    return perm[:n_train], perm[n_train:]


def run_equity_scoring(
    proxy_space: ModelSpace, intended_space: ModelSpace, cfg: RunConfig,
    max_outer_iters: int, max_inner_iters: int,
) -> ScoringTrace:
    """Search the two spaces for a configuration that clears all gates.

    ``cfg`` gives the gates ``tau`` and ``tau_o``, the outcome tolerance
    ``epsilon``, the ``seed`` and the ``train_fraction``. The search runs at
    most ``max_outer_iters`` outer iterations of ``max_inner_iters`` draws
    per phase.

    Returns a trace of every candidate evaluation. On convergence the final
    score is ``psi + (1 - min(omega, 1)) + zeta`` for the accepted
    configuration; if no configuration clears all three gates within
    ``max_outer_iters * max_inner_iters`` trace records, the trace ends
    with ``iteration_cap`` and no score.
    """
    if max_outer_iters < 1 or max_inner_iters < 1:
        raise ValidationError("iteration caps must be positive")
    if len(proxy_space.dataset) < 2:
        raise ValidationError("proxy dataset needs at least 2 rows")
    rng = np.random.default_rng([cfg.seed, 29])
    proxy_sampler = CandidateSampler(proxy_space, rng)
    intended_sampler = CandidateSampler(intended_space, rng)

    n = len(proxy_space.dataset)
    train_idx, test_idx = split_indices(n, cfg.train_fraction, cfg.seed)
    proxy_ids = proxy_space.dataset.ids()
    intended_ids = {ind_id: row for row, ind_id in enumerate(intended_space.dataset.ids())}

    groups = proxy_space.dataset.groups()

    records: list[IterationRecord] = []

    def spent() -> bool:
        return len(records) >= max_outer_iters * max_inner_iters

    def record(phase, spec_id, policy_id, psi, omega, zeta, reason=""):
        """Log one candidate evaluation; an empty reason means accepted."""
        records.append(
            IterationRecord(outer, phase, spec_id, policy_id, psi, omega, zeta, not reason, reason)
        )

    def spec_view(spec_id: int, policy: Policy):
        """A proxy spec, its revealed rows under the policy and its access rate."""
        spec = proxy_space.candidate_specs[spec_id]
        view, view_om = _spec_view(proxy_space, spec)
        x_rev, y_rev, accessed = reveal_population(view, view_om, policy)
        return spec, x_rev, y_rev, access_from_mask(accessed, groups).psi

    def evaluation_zeta(ispec_id: int, ipolicy_id: int) -> float | None:
        """zeta of one evaluation candidate on the accepted rows; None if degenerate."""
        ispec = intended_space.candidate_specs[ispec_id]
        ipolicy = intended_space.candidate_policies[ipolicy_id]
        ix_rev, iy_rev, _ = reveal_population(*_spec_view(intended_space, ispec), ipolicy)
        try:
            imodel = train(ispec, ix_rev[fit_rows], iy_rev[fit_rows], cfg.seed)
        except (SingleClassError, ValidationError):
            return None
        y_tt = np.asarray(predict(imodel, ix_rev[b_rows]))
        return utilization_from_labels(y_tt, b_groups).zeta

    for outer in range(1, max_outer_iters + 1):
        if spent():
            break
        proxy_sampler.reset()
        intended_sampler.reset()

        spec_id, policy_id = proxy_sampler.sample()
        policy = proxy_space.candidate_policies[policy_id]
        spec, x_rev, y_rev, psi = spec_view(spec_id, policy)

        if psi < cfg.tau:
            record("access", spec_id, policy_id, psi, None, None, REJECT_ACCESS)
            continue
        record("access", spec_id, policy_id, psi, None, None)

        # outcome phase: re-sample the model function while omega > tau_o.
        # A re-sampled spec may read different features, so its access rate
        # is re-checked; a spec that breaks the access gate is rejected
        # within this phase. Each draw records one reason, "" if accepted.
        accepted_omega = None
        for _ in range(max_inner_iters):
            if spent():
                break
            omega, reason = None, REJECT_ACCESS
            if psi >= cfg.tau:
                try:
                    model = train(spec, x_rev[train_idx], y_rev[train_idx], cfg.seed)
                    preds_test = np.asarray(predict(model, x_rev[test_idx]))
                    omega = eo_violation(preds_test, y_rev[test_idx], groups[test_idx], cfg.epsilon).eo_violation
                    reason = "" if omega <= cfg.tau_o else REJECT_OUTCOME
                except (SingleClassError, UndefinedRateError):
                    reason = REJECT_DEGENERATE
            record("outcome", spec_id, policy_id, psi, omega, None, reason)
            if not reason:
                accepted_omega = omega
                break
            spec_id = proxy_sampler.next_spec()
            spec, x_rev, y_rev, psi = spec_view(spec_id, policy)
        if accepted_omega is None:
            continue

        # utilization phase on the accepted model's held-out positives
        positive_rows = test_idx[preds_test == 1]
        if positive_rows.size == 0:
            if not spent():
                record("utilization", spec_id, policy_id, psi, accepted_omega, None, REJECT_DEGENERATE)
            continue
        b_ids = [proxy_ids[int(row)] for row in positive_rows]
        missing = [ind_id for ind_id in b_ids if ind_id not in intended_ids]
        if missing:
            raise JoinError(
                f"{len(missing)} accepted ids missing from the evaluation dataset "
                f"(first: {missing[0]!r})"
            )
        b_groups = groups[positive_rows]
        b_rows = np.array([intended_ids[ind_id] for ind_id in b_ids], dtype=int)
        fit_mask = np.ones(len(intended_space.dataset), dtype=bool)
        fit_mask[b_rows] = False
        fit_rows = np.flatnonzero(fit_mask)

        # the sampler's streams reshuffle independently, so a pair can be
        # drawn twice in one iteration; on the same rows it reaches the same
        # zeta, so a repeat is charged and recorded but not refitted
        zetas: dict[tuple[int, int], float | None] = {}
        converged_zeta = None
        for _ in range(max_inner_iters):
            if spent():
                break
            candidate = intended_sampler.sample()
            if candidate not in zetas:
                zetas[candidate] = evaluation_zeta(*candidate)
            zeta = zetas[candidate]
            if zeta is None:
                record("utilization", *candidate, psi, accepted_omega, None, REJECT_DEGENERATE)
                continue
            if zeta >= cfg.tau:
                converged_zeta = zeta
                record("utilization", *candidate, psi, accepted_omega, zeta)
                break
            record("utilization", *candidate, psi, accepted_omega, zeta, REJECT_UTILIZATION)
        if converged_zeta is None:
            continue

        return ScoringTrace(tuple(records), _score(psi, accepted_omega, converged_zeta), "converged")

    return ScoringTrace(tuple(records), None, "iteration_cap")
