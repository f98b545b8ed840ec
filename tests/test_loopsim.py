import operator
import threading
import weakref

import numpy as np
import pytest

from equity_audit.core import ObstacleModel, Policy, dominates, reveal_population
from equity_audit.errors import ValidationError
from equity_audit.loopsim import (
    REGIMES,
    CuratedDataset,
    SyntheticConfig,
    curate_ground_truth,
    default_config,
    generate_cohort,
    run_inequity_loop,
    trajectory_to_csv,
)
from oracles import where_cohort


def small_config(seed=42, **overrides) -> SyntheticConfig:
    base = default_config(seed=seed).__dict__ | {"n_per_round": 400} | overrides
    return SyntheticConfig(**base)


_LOOP_RUNS: dict = {}


def loop_run(regime: str):
    """Default-config 10-round run at seed 42, computed once per session."""
    if regime not in _LOOP_RUNS:
        _LOOP_RUNS[regime] = run_inequity_loop(default_config(seed=42), 10, regime)
    return _LOOP_RUNS[regime]


class TestGeneratePopulation:
    def test_no_obstacle_world(self):
        cfg = small_config(obstacle_prob_by_group={0: 0.0, 1: 0.0})
        pop = generate_cohort(cfg, 1).proxy
        assert np.array_equal(pop.x_matrix(), pop.z_matrix())
        assert np.array_equal(pop.labels(), pop.labels_prime())

    def test_group_fraction_concentrates(self):
        cfg = small_config(n_per_round=10000)
        pop = generate_cohort(cfg, 0).proxy
        share = np.mean(pop.groups())
        assert 0.48 <= share <= 0.52

    def test_deterministic_per_seed_and_round(self):
        cfg = small_config()
        p1 = generate_cohort(cfg, 3).proxy
        p2 = generate_cohort(cfg, 3).proxy
        assert np.array_equal(p1.x_matrix(), p2.x_matrix())
        assert np.array_equal(p1.z_matrix(), p2.z_matrix())
        assert np.array_equal(p1.labels(), p2.labels())
        p3 = generate_cohort(cfg, 4).proxy
        assert not np.array_equal(p1.x_matrix(), p3.x_matrix())

    def test_dominance_for_flagged_individuals(self):
        cfg = small_config()
        cohort = generate_cohort(cfg, 2)
        views = (
            (cohort.proxy.z_matrix(), cohort.proxy.x_matrix()),
            (cohort.z_intended, cohort.x_intended),
            (cohort.z_intended, cohort.x_intended_after_access),
        )
        for z, x in views:
            for z_row, x_row, flagged in zip(z, x, cohort.obstacle_flags):
                if flagged:
                    assert dominates(z_row, x_row)
                else:
                    assert np.array_equal(z_row, x_row)

    @pytest.mark.parametrize("seed", [0, 7, 42, 1234])
    @pytest.mark.parametrize("alphas", [None, ((1.0, 0.5, 2.0), (0.3, 1.0, 1.0))])
    def test_bit_identical_to_the_where_generator(self, seed, alphas):
        # the second config puts every feature under obstacles
        overrides = {} if alphas is None else {"alpha_proxy": alphas[0], "alpha_intended": alphas[1]}
        cfg = small_config(seed=seed, **overrides)
        for round in (0, 3):
            cohort = generate_cohort(cfg, round)
            pop = cohort.proxy
            got = (
                pop.x_matrix(), pop.z_matrix(), pop.labels(), pop.labels_prime(), pop.groups(),
                cohort.x_intended, cohort.z_intended, cohort.x_intended_after_access, cohort.obstacle_flags,
            )
            for have, want in zip(got, where_cohort(cfg, round), strict=True):
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes()
            assert pop.ids() == list(range(cfg.n_per_round))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            small_config(group_fraction=0.0)
        with pytest.raises(ValidationError):
            small_config(label_noise=0.7)
        with pytest.raises(ValidationError):
            small_config(alpha_proxy=(0.0, 0.0, 0.0))
        nan, inf = float("nan"), float("inf")
        for field, value in [
            ("n_per_round", 2.5), ("n_per_round", True), ("d_proxy", 3.0), ("d_intended", "3"),
            ("obstacle_severity", nan), ("obstacle_severity", inf),
            ("alpha_proxy", (nan, 0.0, 0.0)), ("alpha_intended", (inf, 0.0, 0.0)),
            ("true_model_coefficients", ((nan, 1.0, 1.0), (1.0, 1.0, 1.0))),
            ("true_model_coefficients", ((1.0, 1.0, 1.0), (1.0, -inf, 1.0))),
        ]:
            with pytest.raises(ValidationError, match=field):
                small_config(**{field: value})
        assert small_config(n_per_round=np.int64(50)).n_per_round == 50


class TestCurateGroundTruth:
    def test_cardinality_and_labels(self):
        batch = curate_ground_truth(
            [(k, np.array([1.0, 2.0]), 1) for k in range(4)], round=2
        )
        assert len(batch) == 4
        assert batch.y.tolist() == [1, 1, 1, 1]
        assert batch.rounds.tolist() == [2, 2, 2, 2]

    def test_negative_outcome_recorded_despite_acceptance(self):
        batch = curate_ground_truth([(0, np.array([5.0]), 0)], round=1)
        assert batch.y.tolist() == [0]

    def test_provenance_survives_concatenation(self):
        # the loop's pool joins one batch per round; each row keeps its round and id
        traj, curated = run_inequity_loop(small_config(), 3, "full_equity")
        seed_size = traj.seed_size
        sizes = [seed_size] + [r.curated_size for r in traj.rounds]
        assert np.bincount(curated.rounds, minlength=4)[1:].tolist() == np.diff(sizes).tolist()
        assert len(set(curated.source_ids)) == len(curated) == sizes[-1] - seed_size
        assert all(i.startswith(f"r{r}-") for i, r in zip(curated.source_ids, curated.rounds))

    def test_empty_batch(self):
        batch = curate_ground_truth([], round=1, feature_names=("a",))
        assert len(batch) == 0

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [0, 2], [0.0, -1.0]])
    def test_labels_checked_before_any_cast(self, labels):
        # a 0.5 must not be stored as 0, in either constructor
        bad = [v for v in labels if v not in (0, 1)]
        with pytest.raises(ValidationError, match=rf"curated labels must be 0 or 1, got \[{bad[0]}\]"):
            CuratedDataset.from_columns(("a",), [[1.0], [2.0]], labels, 1, [0, 1])
        with pytest.raises(ValidationError, match="curated labels"):
            curate_ground_truth([(k, np.array([1.0]), v) for k, v in enumerate(labels)], round=1)

    @pytest.mark.parametrize(
        "names, X, y, rows, match",
        [
            (("a",), [[1.0], [2.0]], [1], [0, 1, 2], "one entry per feature row"),
            (("a",), [[1.0], [2.0]], [1, 0], [0], "one entry per feature row"),
            (("a", "b"), [1.0, 2.0], [1, 0], [0, 1], r"must be \(n, 2\)"),
            (("a",), [[1.0, 2.0], [3.0, 4.0]], [1, 0], [0, 1], r"must be \(n, 1\)"),
            (("a", "b"), [[1.0, 2.0], [3.0]], [1, 0], [0, 1], "rows of equal length"),
        ],
    )
    def test_shapes_are_checked(self, names, X, y, rows, match):
        with pytest.raises(ValidationError, match=match):
            CuratedDataset.from_columns(names, X, y, 1, rows)

    def test_ragged_or_misnamed_rows_are_refused(self):
        ragged = [(0, np.array([1.0, 2.0]), 1), (1, np.array([1.0]), 0)]
        with pytest.raises(ValidationError, match="rows of equal length"):
            curate_ground_truth(ragged, round=1)
        wide = [(0, np.array([1.0, 2.0]), 1), (1, np.array([3.0, 4.0]), 0)]
        with pytest.raises(ValidationError, match=r"must be \(n, 1\)"):
            curate_ground_truth(wide, round=1, feature_names=("a",))

    def test_integral_float_labels_load_as_ints(self):
        batch = CuratedDataset.from_columns(("a",), [[1.0], [2.0]], [1.0, 0.0], 1, [0, 1])
        assert batch.y.dtype == int and batch.y.tolist() == [1, 0]


class TestRunInequityLoop:
    def test_single_round_trajectory(self):
        traj, _ = run_inequity_loop(small_config(), 1, "no_equity")
        assert len(traj.rounds) == 1
        assert traj.rounds[0].round == 1

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValidationError):
            run_inequity_loop(small_config(), 1, "sideways")

    def test_conservation_of_curated_rows(self):
        cfg = small_config()
        traj, curated = run_inequity_loop(cfg, 3, "access_only")
        per_round = np.bincount(curated.rounds, minlength=4)
        for r, record in enumerate(traj.rounds, start=1):
            assert record.curated_size == traj.seed_size + per_round[1 : r + 1].sum()

    def test_selective_labeling_sources(self):
        # every curated row is its round's cohort row as revealed to the model
        cfg = small_config()
        _, curated = run_inequity_loop(cfg, 3, "no_equity")
        assert curated.source_rows.dtype == np.int64
        assert len(set(curated.source_ids)) == len(curated)
        for r in (1, 2, 3):
            cohort = generate_cohort(cfg, r).proxy
            rows = curated.source_rows[curated.rounds == r]
            assert rows.size and np.all(np.diff(rows) > 0)
            assert rows[0] >= 0 and rows[-1] < len(cohort)
            x_rev, _, _ = reveal_population(cohort, ObstacleModel.from_alpha(cfg.alpha_proxy), Policy(0.0))
            assert np.array_equal(curated.X[curated.rounds == r], x_rev[rows])

    def test_each_round_trains_on_the_seed_then_earlier_batches_in_order(self, monkeypatch):
        import equity_audit.loopsim as loopsim

        pools = []
        train = loopsim.train

        def recording_train(spec, X, y, seed=0, *, start=None):
            pools.append((np.array(X), np.array(y)))
            return train(spec, X, y, seed, start=start)

        monkeypatch.setattr(loopsim, "train", recording_train)
        cfg = small_config()
        _, curated = run_inequity_loop(cfg, 3, "access_and_outcome")
        seed = generate_cohort(cfg, 0).proxy
        for t, (X, y) in enumerate(pools, start=1):
            earlier = curated.rounds < t
            assert np.array_equal(X, np.vstack([seed.x_matrix(), curated.X[earlier]]))
            assert np.array_equal(y, np.concatenate([seed.labels(), curated.y[earlier]]))
        assert len(pools) == 3 and np.all(np.diff(curated.rounds) >= 0)

    def test_warm_starts_move_no_trajectory_or_curated_row(self, monkeypatch):
        # each round starts from the last round's model; every decision the
        # loop takes is a count, so fits that differ from cold ones in their
        # last digits must leave every output byte as a cold loop leaves it
        import equity_audit.loopsim as loopsim

        train = loopsim.train
        fits = []

        def recording_train(spec, X, y, seed=0, *, start=None):
            model = train(spec, X, y, seed, start=start)
            fits.append((start, model))
            return model

        def cold_train(spec, X, y, seed=0, *, start=None):
            return train(spec, X, y, seed)

        for seed in range(40, 50):
            for regime in REGIMES:
                cfg = default_config(seed)
                fits.clear()
                monkeypatch.setattr(loopsim, "train", recording_train)
                warm_trajectory, warm_curated = run_inequity_loop(cfg, 10, regime)
                starts, models = zip(*fits)
                assert starts[0] is None and all(map(operator.is_, starts[1:], models))
                assert all(model.converged for model in models)
                monkeypatch.setattr(loopsim, "train", cold_train)
                cold_trajectory, cold_curated = run_inequity_loop(cfg, 10, regime)
                assert trajectory_to_csv(warm_trajectory) == trajectory_to_csv(cold_trajectory)
                assert repr(warm_trajectory) == repr(cold_trajectory)  # every LoopRound field
                for name in ("X", "y", "rounds", "source_rows"):
                    assert np.array_equal(getattr(warm_curated, name), getattr(cold_curated, name))

    SINGLE_CLASS = small_config(
        n_per_round=50,
        obstacle_prob_by_group={0: 0.0, 1: 0.0},
        true_model_coefficients=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        label_noise=0.0,
    )

    def test_single_class_seed_skips_rounds(self):
        traj, curated = run_inequity_loop(self.SINGLE_CLASS, 2, "no_equity")
        assert len(curated) == 0
        for record in traj.rounds:
            assert record.events and "single-class" in record.events[0]
            assert np.isnan(record.zeta)

    def test_skipped_rounds_build_no_cohort(self, monkeypatch):
        # round 1 is drawn on the worker while the seed cohort (round 0) is
        # drawn; a skipped round builds no cohort and asks for no draws, so
        # round 1's go unused and no later round is drawn
        import equity_audit.loopsim as loopsim

        drawn, built = [], []
        draws, generate = loopsim._cohort_draws, loopsim.generate_cohort

        def recording_generate(cfg, t, *, draws=None):
            built.append((t, draws))
            return generate(cfg, t, draws=draws)

        monkeypatch.setattr(loopsim, "_cohort_draws", lambda cfg, t: drawn.append(t) or draws(cfg, t))
        monkeypatch.setattr(loopsim, "generate_cohort", recording_generate)
        before = threading.active_count()
        run_inequity_loop(self.SINGLE_CLASS, 3, "no_equity")
        assert sorted(drawn) == [0, 1] and built == [(0, None)]
        assert threading.active_count() == before

    def test_regime_ordering_of_mean_utilization(self):
        full = loop_run("full_equity")[0]
        access = loop_run("access_only")[0]
        none = loop_run("no_equity")[0]
        assert full.mean_zeta() >= access.mean_zeta() >= none.mean_zeta()

    def test_full_equity_keeps_group_fp_rates_close(self):
        traj = loop_run("full_equity")[0]
        for record in traj.rounds:
            gap = abs(record.fp_share_by_group[0] - record.fp_share_by_group[1])
            assert gap <= 0.05

    def test_no_equity_erodes_disadvantaged_positive_share(self):
        traj = loop_run("no_equity")[0]
        first, last = traj.rounds[0], traj.rounds[-1]
        assert last.curated_pos_share_by_group[1] <= first.curated_pos_share_by_group[1]

    def test_outcome_equalized_regime_runs(self):
        traj, _ = run_inequity_loop(small_config(), 2, "access_and_outcome")
        assert len(traj.rounds) == 2
        assert all(not np.isnan(r.zeta) for r in traj.rounds)


class TestDrawsAhead:
    """Each round's random numbers are drawn on a worker thread during the round before."""

    @pytest.mark.parametrize("regime", ["no_equity", "access_and_outcome"])
    def test_each_cohort_is_built_from_its_own_rounds_draws_in_order(self, monkeypatch, regime):
        import equity_audit.loopsim as loopsim

        draws, generate = loopsim._cohort_draws, loopsim.generate_cohort
        made, built = {}, []

        def recording_draws(cfg, t):
            made[t] = (draws(cfg, t), threading.current_thread() is threading.main_thread())
            return made[t][0]

        def recording_generate(cfg, t, *, draws=None):
            built.append((t, draws))
            return generate(cfg, t, draws=draws)

        monkeypatch.setattr(loopsim, "_cohort_draws", recording_draws)
        monkeypatch.setattr(loopsim, "generate_cohort", recording_generate)
        cfg = default_config(seed=42)
        trajectory, curated = run_inequity_loop(cfg, 4, regime)
        # the seed cohort draws on the caller's thread, beside round 1 on the
        # worker; every round draws on the worker
        assert sorted(made) == [0, 1, 2, 3, 4]
        assert [made[t][1] for t in sorted(made)] == [True, False, False, False, False]
        assert [t for t, _ in built] == [0, 1, 2, 3, 4]
        assert built[0][1] is None
        for t, given in built[1:]:
            assert given is made[t][0] and given.key == (cfg.seed, t, cfg.n_per_round)
        monkeypatch.undo()
        want_trajectory, want_curated = run_inequity_loop(cfg, 4, regime)
        assert repr(trajectory) == repr(want_trajectory)
        for name in ("X", "y", "rounds", "source_rows"):
            assert np.array_equal(getattr(curated, name), getattr(want_curated, name))

    def test_mismatched_draws_are_refused(self):
        from equity_audit.loopsim import _cohort_draws

        cfg = small_config()
        with pytest.raises(ValueError, match="draws"):
            generate_cohort(cfg, 2, draws=_cohort_draws(cfg, 3))

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        run_inequity_loop(small_config(), 3, "access_only")
        assert threading.active_count() == before

    def test_a_failed_draw_reaches_the_caller_and_no_thread_outlives_it(self, monkeypatch):
        import equity_audit.loopsim as loopsim

        draws = loopsim._cohort_draws

        def failing_draws(cfg, t):
            if t == 3:
                raise MemoryError("round 3")
            return draws(cfg, t)

        monkeypatch.setattr(loopsim, "_cohort_draws", failing_draws)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="round 3"):
            run_inequity_loop(small_config(), 5, "full_equity")
        assert threading.active_count() == before

    def test_a_failed_round_joins_the_draws_it_started(self, monkeypatch):
        import equity_audit.loopsim as loopsim

        train = loopsim.train
        fits = []

        def failing_train(spec, X, y, seed=0, *, start=None):
            fits.append(len(y))
            if len(fits) == 2:  # round 2's draws were started in round 1
                raise KeyboardInterrupt
            return train(spec, X, y, seed, start=start)

        monkeypatch.setattr(loopsim, "train", failing_train)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_inequity_loop(small_config(), 5, "no_equity")
        assert threading.active_count() == before

    def test_earlier_cohorts_are_released_before_each_fit(self, monkeypatch):
        import equity_audit.loopsim as loopsim

        generate, train = loopsim.generate_cohort, loopsim.train
        cohorts, alive_at_fit = [], []

        def recording_generate(cfg, t, *, draws=None):
            cohort = generate(cfg, t, draws=draws)
            cohorts.append(weakref.ref(cohort.proxy.x_matrix()))
            cohorts.append(weakref.ref(cohort.x_intended))
            return cohort

        def recording_train(spec, X, y, seed=0, *, start=None):
            alive_at_fit.append(sum(ref() is not None for ref in cohorts))
            return train(spec, X, y, seed, start=start)

        monkeypatch.setattr(loopsim, "generate_cohort", recording_generate)
        monkeypatch.setattr(loopsim, "train", recording_train)
        run_inequity_loop(small_config(), 4, "access_and_outcome")
        assert alive_at_fit == [0, 0, 0, 0]


class TestTrajectoryCsv:
    def test_columns_and_rows(self):
        traj, _ = run_inequity_loop(small_config(), 2, "no_equity")
        text = trajectory_to_csv(traj)
        lines = text.splitlines()
        assert lines[0] == (
            "round,regime,psi,omega,zeta,pos_rate_g0,pos_rate_g1,"
            "fp_share_g0,fp_share_g1,curated_size"
        )
        assert len(lines) == 3
        assert lines[1].startswith("1,no_equity,")
