import dataclasses
import hashlib

import numpy as np
import pytest

from equity_audit import scoring
from equity_audit.config import RunConfig
from equity_audit.core import ObstacleModel, Policy, Population
from equity_audit.errors import JoinError, ValidationError
from equity_audit.learner import ModelSpec
from equity_audit.loopsim import default_config, generate_cohort
from equity_audit.scoring import (
    CandidateSampler,
    ModelSpace,
    run_equity_scoring,
)

# the CLI's --max-outer and --max-inner defaults
CAPS = (100, 25)


def perfect_spaces():
    """A space containing a configuration with psi=1, omega=0, zeta=1.

    40 individuals, no obstacles anywhere; the deployed threshold rule
    reproduces the labels exactly and every accepted individual clears the
    evaluation threshold.
    """
    k = np.arange(40)
    y = ((k // 2) % 2 == 0).astype(int)
    ids = [f"p{i}" for i in k]
    x = np.where(y[:, None] == 1, [3.0, 0.0], [1.0, 0.0])
    xt = np.where(y[:, None] == 1, [4.0], [0.5])
    proxy_pop = Population(x, x, y, y, k % 2, ids, ("f1", "f2"))
    intended_pop = Population(xt, xt, y, y, k % 2, ids, ("g1",))
    proxy_space = ModelSpace(
        (ModelSpec(("f1", "f2"), "norm_threshold", {"threshold": 2.0}),),
        proxy_pop,
        ObstacleModel.from_alpha([0.0, 0.0]),
        (Policy(0.0),),
    )
    intended_space = ModelSpace(
        (ModelSpec(("g1",), "norm_threshold", {"threshold": 1.0}),),
        intended_pop,
        ObstacleModel.from_alpha([0.0]),
        (Policy(0.0),),
    )
    return proxy_space, intended_space


def starved_space():
    """Every individual faces obstacle 10 and no policy covers it."""
    k = np.arange(20)
    x = (k % 3).astype(float)[:, None]
    pop = Population(x, x + 10.0, k % 2, np.ones(20, dtype=int), k % 2, [f"s{i}" for i in k], ("f",))
    return ModelSpace(
        (ModelSpec(("f",)), ModelSpec(("f",), "norm_threshold", {"threshold": 1.0})),
        pop,
        ObstacleModel.from_alpha([1.0]),
        (Policy(0.0), Policy(2.0)),
    )


class TestSampler:
    def test_single_candidate_space(self):
        space, _ = perfect_spaces()
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert CandidateSampler(space, rng).sample() == (0, 0)

    def test_fixed_seed_reproducible(self):
        space = starved_space()
        seq1 = [CandidateSampler(space, np.random.default_rng(5)).sample() for _ in range(1)]
        s1 = CandidateSampler(space, np.random.default_rng(5))
        s2 = CandidateSampler(space, np.random.default_rng(5))
        assert [s1.sample() for _ in range(10)] == [s2.sample() for _ in range(10)]
        assert seq1[0] == s2.__class__(space, np.random.default_rng(5)).sample()

    def test_draws_without_replacement_within_window(self):
        ones = np.ones((3, 1))
        pop = Population(ones, ones, [1, 1, 1], [1, 1, 1], [0, 0, 0], ["d0", "d1", "d2"], ("f",))
        specs = tuple(
            ModelSpec(("f",), "norm_threshold", {"threshold": float(t)}) for t in (1, 2, 3)
        )
        space = ModelSpace(specs, pop, ObstacleModel.from_alpha([0.0]), (Policy(0.0),))
        sampler = CandidateSampler(space, np.random.default_rng(2))
        drawn = {sampler.next_spec() for _ in range(3)}
        assert drawn == {0, 1, 2}


class TestRunEquityScoring:
    def test_perfect_space_converges_to_three(self):
        proxy_space, intended_space = perfect_spaces()
        trace = run_equity_scoring(proxy_space, intended_space, RunConfig(seed=11), *CAPS)
        assert trace.terminated_reason == "converged"
        assert trace.final_score == pytest.approx(3.0, abs=1e-9)

    def test_starved_space_hits_iteration_cap(self):
        proxy_space = starved_space()
        _, intended_space = perfect_spaces()
        trace = run_equity_scoring(proxy_space, intended_space, RunConfig(seed=3), 12, 4)
        assert trace.terminated_reason == "iteration_cap"
        assert trace.final_score is None
        assert len(trace.records) > 0
        assert all(r.phase == "access" for r in trace.records)
        assert all(r.reason == "access_gate" and not r.accepted for r in trace.records)

    def test_an_evaluation_model_that_cannot_be_fitted_is_a_degenerate_metric(self):
        # the evaluation dataset holds label 0 only, so no logistic model can be fitted on it
        proxy, intended = perfect_spaces()
        pop = intended.dataset
        zeros = np.zeros(len(pop), dtype=int)
        unlabeled = Population(pop.x_matrix(), pop.z_matrix(), zeros, zeros, pop.groups(), pop.ids(), pop.feature_names)
        intended = dataclasses.replace(intended, candidate_specs=(ModelSpec(("g1",)),), dataset=unlabeled)
        trace = run_equity_scoring(proxy, intended, RunConfig(), 1, 3)
        assert trace.terminated_reason == "iteration_cap" and trace.final_score is None
        assert [(r.phase, r.zeta, r.accepted, r.reason) for r in trace.records] == [
            ("access", None, True, ""),
            ("outcome", None, True, ""),
            ("utilization", None, False, "degenerate_metric"),
        ]

    def test_phase_ordering_in_traces(self):
        proxy_space, intended_space = perfect_spaces()
        trace = run_equity_scoring(proxy_space, intended_space, RunConfig(seed=1), *CAPS)
        assert_phase_order(trace)

    def test_reproducible_trace(self):
        proxy_space, intended_space = perfect_spaces()
        cfg = RunConfig(seed=19)
        t1 = run_equity_scoring(proxy_space, intended_space, cfg, *CAPS)
        t2 = run_equity_scoring(proxy_space, intended_space, cfg, *CAPS)
        assert t1.to_json() == t2.to_json()

    def test_termination_budget(self):
        proxy_space = starved_space()
        _, intended_space = perfect_spaces()
        trace = run_equity_scoring(proxy_space, intended_space, RunConfig(seed=0), 7, 3)
        assert len(trace.records) <= 7 * 3

    @pytest.mark.parametrize("max_outer, max_inner", [(1, 1), (1, 2), (2, 1), (3, 2), (5, 4)])
    def test_trace_never_outgrows_its_budget(self, max_outer, max_inner):
        # a rule no row reaches admits no one, so every model passes the
        # outcome gate (omega 0) and then has no held-out row to evaluate:
        # that no-admits record counts toward the budget like any other
        proxy_space, intended_space = perfect_spaces()
        unreachable = ModelSpec(("f1", "f2"), "norm_threshold", {"threshold": 1e9})
        proxy_space = dataclasses.replace(proxy_space, candidate_specs=(unreachable,))
        trace = run_equity_scoring(proxy_space, intended_space, RunConfig(), max_outer, max_inner)
        assert trace.terminated_reason == "iteration_cap"
        assert len(trace.records) <= max_outer * max_inner

    def test_trace_serialization(self):
        proxy_space, intended_space = perfect_spaces()
        trace = run_equity_scoring(proxy_space, intended_space, RunConfig(seed=2), *CAPS)
        csv_text = trace.to_csv()
        header = csv_text.splitlines()[0]
        assert header == "iter,spec_id,policy_id,psi,omega,zeta,phase,accepted,reason"
        assert len(csv_text.splitlines()) == len(trace.records) + 1

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(tau=0.0)
        with pytest.raises(ValidationError):
            RunConfig(tau_o=1.0)
        for caps in ((0, 25), (100, 0)):
            with pytest.raises(ValidationError, match="iteration caps must be positive"):
                run_equity_scoring(*perfect_spaces(), RunConfig(), *caps)

    def test_one_row_proxy_dataset_is_refused(self):
        proxy_space, intended_space = perfect_spaces()
        one = Population([[3.0, 0.0]], [[3.0, 0.0]], [1], [1], [0], ["p0"], ("f1", "f2"))
        proxy_space = dataclasses.replace(proxy_space, dataset=one)
        with pytest.raises(ValidationError, match="^proxy dataset needs at least 2 rows$"):
            run_equity_scoring(proxy_space, intended_space, RunConfig(), *CAPS)

    def test_accepted_ids_missing_from_the_evaluation_dataset_are_refused(self):
        proxy_space, intended_space = perfect_spaces()
        pop = intended_space.dataset
        renamed = Population(
            pop.x_matrix(), pop.z_matrix(), pop.labels(), pop.labels_prime(), pop.groups(),
            [f"q{i}" for i in range(len(pop))], pop.feature_names,
        )
        intended_space = dataclasses.replace(intended_space, dataset=renamed)
        with pytest.raises(JoinError, match=r"accepted ids missing from the evaluation dataset \(first: 'p\d+'\)$"):
            run_equity_scoring(proxy_space, intended_space, RunConfig(), *CAPS)

    @pytest.mark.parametrize(
        "specs, policies, message",
        [
            ((), (Policy(0.0),), "^model space needs at least one candidate spec$"),
            ((ModelSpec(("f1",)),), (), "^model space needs at least one candidate policy$"),
            ((ModelSpec(("f1", "g9")),), (Policy(0.0),), r"^spec features \['g9'\] not present in the dataset$"),
        ],
        ids=["no-spec", "no-policy", "absent-feature"],
    )
    def test_malformed_space_is_refused(self, specs, policies, message):
        proxy_space, _ = perfect_spaces()
        with pytest.raises(ValidationError, match=message):
            ModelSpace(specs, proxy_space.dataset, proxy_space.obstacle_model, policies)


def assert_phase_order(trace):
    """Within an outer iteration: access, then outcome, then utilization."""
    rank = {"access": 0, "outcome": 1, "utilization": 2}
    by_iter: dict[int, list[str]] = {}
    for record in trace.records:
        by_iter.setdefault(record.iter, []).append(record.phase)
    for phases in by_iter.values():
        ranks = [rank[p] for p in phases]
        assert ranks == sorted(ranks)
        assert ranks[0] == 0


def evaluation_labels(cfg, cohort):
    """``(y, y_prime)`` of a round-0 cohort's evaluation view, noisy like the proxy's.

    The frozen benchmark values below were recorded when the generator
    also labelled its evaluation view, with label flips drawn after every
    other draw of the round; the stream is replayed here to draw them.
    """
    n = cfg.n_per_round
    rng = np.random.default_rng([cfg.seed, 0, 101])
    rng.normal(size=n)  # latent ability
    rng.random(n)  # group
    rng.random(n)  # obstacle flags
    rng.normal(size=(n, cfg.d_proxy))
    rng.normal(size=(n, cfg.d_intended))
    for d in (cfg.d_proxy, cfg.d_intended, cfg.d_intended):  # the three degradations
        rng.exponential(size=(n, d))
    rng.random(n)  # the proxy view's flips
    flip = rng.random(n) < cfg.label_noise
    w = np.asarray(cfg.true_model_coefficients[1], dtype=float)
    return (((x @ w >= 0) ^ flip).astype(int) for x in (cohort.x_intended, cohort.z_intended))


def synthetic_benchmark_spaces():
    """Two-group benchmark built from the cohort generator (seed 42)."""
    cfg = default_config(seed=42)
    cfg = type(cfg)(**{**cfg.__dict__, "n_per_round": 400})
    cohort = generate_cohort(cfg, 0)
    intended = Population(
        cohort.x_intended, cohort.z_intended, *evaluation_labels(cfg, cohort), cohort.proxy.groups(),
        cohort.proxy.ids(), ("if0", "if1", "if2"),
    )
    proxy_space = ModelSpace(
        (
            ModelSpec(("pf0", "pf1", "pf2"), hyperparams={"iterations": 400}),
            ModelSpec(("pf0", "pf1"), hyperparams={"iterations": 400}),
        ),
        cohort.proxy,
        ObstacleModel.from_alpha([1.0, 0.0, 0.0]),
        (Policy(0.0), Policy(float("inf"))),
    )
    intended_space = ModelSpace(
        (ModelSpec(("if0", "if1", "if2"), hyperparams={"iterations": 400}),),
        intended,
        ObstacleModel.from_alpha([1.0, 1.0, 0.0]),
        (Policy(float("inf")),),
    )
    return proxy_space, intended_space


class TestSyntheticBenchmark:
    def test_converged_score_is_stable(self):
        proxy_space, intended_space = synthetic_benchmark_spaces()
        cfg = RunConfig(seed=42, tau=0.8, tau_o=0.2)
        trace = run_equity_scoring(proxy_space, intended_space, cfg, *CAPS)
        assert trace.terminated_reason == "converged"
        # frozen regression value for this benchmark (seed 42)
        assert trace.final_score == pytest.approx(GOLDEN_BENCHMARK_SCORE, abs=1e-9)
        assert_phase_order(trace)
        assert 0.0 <= trace.final_score <= 3.0
        accepted = trace.records[-1]
        assert 0.0 <= accepted.psi <= 1.0
        assert 0.0 <= min(accepted.omega, 1.0) <= 1.0
        assert 0.0 <= accepted.zeta <= 1.0


GOLDEN_BENCHMARK_SCORE = 2.7831667356716157  # frozen from the first verified run


def repeating_spaces():
    """The synthetic benchmark with four evaluation candidates, none of which
    confirms 99.9 % of the admitted: every utilization phase walks its full
    25 draws, so most draws repeat a pair already tried."""
    proxy_space, intended_space = synthetic_benchmark_spaces()
    intended_space = ModelSpace(
        (
            ModelSpec(("if0", "if1", "if2"), hyperparams={"iterations": 400}),
            ModelSpec(("if2",), hyperparams={"iterations": 400}),
        ),
        intended_space.dataset,
        intended_space.obstacle_model,
        (Policy(0.0), Policy(float("inf"))),
    )
    return proxy_space, intended_space


# sha256 of the trace's JSON when every repeat was refitted (72 fits, not 15)
REPEATING_TRACE_SHA256 = "7c5cca0a73b63424eee9e21be53c0ecca817905fb85bc5d3e98ad6f822f223b0"


def test_repeated_utilization_candidates_fitted_once(monkeypatch):
    fits = []
    real_train = scoring.train

    def counting_train(spec, *args, **kwargs):
        fits.append(spec)
        return real_train(spec, *args, **kwargs)

    monkeypatch.setattr(scoring, "train", counting_train)
    cfg = RunConfig(seed=42, tau=0.999, tau_o=0.2)
    trace = run_equity_scoring(*repeating_spaces(), cfg, 3, CAPS[1])

    util = [(r.iter, r.spec_id, r.policy_id) for r in trace.records if r.phase == "utilization"]
    assert len(util) > len(set(util))  # the walk repeats candidates
    outcome_fits = sum(
        r.phase == "outcome" and r.reason != "access_gate" for r in trace.records
    )
    assert len(fits) == outcome_fits + len(set(util))
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == REPEATING_TRACE_SHA256


def outcome_phase_spaces():
    """100 rows and four proxy specs that the outcome phase rejects for every reason.

    ``y_prime`` is all 1, so a spec that reads only the obstacle-free
    feature ``b`` reveals one label class and cannot be trained
    (``degenerate_metric``). 40 % of the rows face an obstacle on ``a``
    and 80 % on ``c``, so under the one policy, which alleviates nothing,
    a spec reading ``c`` fails the access gate at ``tau = 0.5``
    (``access_gate``) while ``a`` and ``a, b`` pass it and train on mixed
    labels, their omegas straddling ``tau_o`` (``outcome_gate`` or accepted).
    """
    n = 100
    k = np.arange(n)
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, n)
    x = rng.normal(size=(n, 3)) + y[:, None] * [0.5, 0.0, 0.0]
    z = x.copy()
    z[k % 5 < 2, 0] += 1.0
    z[k % 5 < 4, 2] += 1.0
    pop = Population(x, z, y, np.ones(n, dtype=int), k % 2, [f"r{i}" for i in k], ("a", "b", "c"))
    space = ModelSpace(
        (ModelSpec(("a",)), ModelSpec(("b",)), ModelSpec(("c",)), ModelSpec(("a", "b"))),
        pop,
        ObstacleModel.from_alpha([1.0, 0.0, 1.0]),
        (Policy(0.0),),
    )
    return space, space


# sha256 of each trace's JSON, pinned before the outcome phase's three
# rejection branches became one
OUTCOME_PHASE_TRACES = {
    # converges after one outcome-phase record of each rejection reason
    (6, 0.2, 4, 6): "d2266f37d415a0a3264e2b33c9977f0ce57a1839f947f5fece0ceaa99a2dd449",
    # no omega clears tau_o: every outer iteration spends its outcome draws
    (0, 0.05, 3, 6): "364a363a90a2f06dd0a6111d66962a70e49ba946d695faaa3eae4db2ec434e9e",
}


@pytest.mark.parametrize("seed, tau_o, max_outer, max_inner", OUTCOME_PHASE_TRACES)
def test_outcome_phase_rejections_are_pinned(seed, tau_o, max_outer, max_inner):
    cfg = RunConfig(seed=seed, tau=0.5, tau_o=tau_o)
    trace = run_equity_scoring(*outcome_phase_spaces(), cfg, max_outer, max_inner)
    reasons = {r.reason for r in trace.records if r.phase == "outcome" and not r.accepted}
    assert reasons == {"access_gate", "degenerate_metric", "outcome_gate"}
    key = (seed, tau_o, max_outer, max_inner)
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == OUTCOME_PHASE_TRACES[key]
