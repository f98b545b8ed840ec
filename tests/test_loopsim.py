import dataclasses
import operator
import warnings
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
from oracles import loop_oracle, where_cohort


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
        flags = where_cohort(cfg, 2)[-1]
        views = (
            (cohort.proxy.z_matrix(), cohort.proxy.x_matrix()),
            (cohort.z_intended, cohort.x_intended),
            (cohort.z_intended, cohort.x_intended_after_access),
        )
        for z, x in views:
            for z_row, x_row, flagged in zip(z, x, flags, strict=True):
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
                cohort.x_intended, cohort.z_intended, cohort.x_intended_after_access,
            )
            for have, want in zip(got, where_cohort(cfg, round)[:-1], strict=True):
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes()
            assert pop.ids() == list(range(cfg.n_per_round))

    def test_config_validation(self):
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
        # finite values whose cohort leaves the float range are refused before any warning.
        # In the second config everyone is flagged and no sum overflows, so no inf draw is
        # multiplied by 0 and no operation raises: the views hold the inf
        everyone = {0: 1.0, 1: 1.0}
        for field, overrides in [
            ("obstacle_severity", {"obstacle_severity": 1e308}),
            ("obstacle_severity", {"obstacle_severity": 1e308, "obstacle_prob_by_group": everyone, "seed": 0,
                                   "n_per_round": 3}),
            ("true_model_coefficients", {"true_model_coefficients": ((1e308,) * 3, (1.0,) * 3)}),
        ]:
            cfg = small_config(**{"seed": 1, "n_per_round": 200} | overrides)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=rf"cohort 1 leaves the float range: .*{field}"):
                    generate_cohort(cfg, 1)
                with pytest.raises(ValidationError, match=rf"cohort 0 leaves the float range: .*{field}"):
                    run_inequity_loop(cfg, 2, "no_equity")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("group_fraction", "0.5", "group_fraction must be finite and numeric, got '0.5'"),
            ("label_noise", None, "label_noise must be finite and numeric, got None"),
            ("obstacle_severity", "1", "obstacle_severity must be finite and numeric, got '1'"),
            ("alpha_proxy", (1.0, "a", 0.0), r"alpha_proxy must be finite and numeric, got \(1.0, 'a', 0.0\)"),
            ("obstacle_prob_by_group", {0: "0.1", 1: 0.2}, "obstacle_prob_by_group must be finite and numeric"),
            ("true_model_coefficients", ((1.0, "x", 1.0), (1.0, 1.0, 1.0)), "true_model_coefficients must be finite and numeric"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("seed", "a", "seed must be an integer, got 'a'"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
        ],
    )
    def test_a_value_of_the_wrong_kind_is_a_validation_error_naming_its_field(self, field, value, message):
        # each of these once raised a bare TypeError here, or passed and failed inside numpy
        with pytest.raises(ValidationError, match=f"^{message}"):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_per_round": 0}, "n_per_round must be >= 1"),
            ({"d_proxy": 0}, "feature dimensions must be >= 1"),
            ({"d_intended": 0}, "feature dimensions must be >= 1"),
            ({"group_fraction": 0.0}, r"group_fraction must be in \(0, 1\)"),
            ({"obstacle_prob_by_group": {0: 1.5, 1: 0.2}}, r"obstacle_prob_by_group\[0\] must be a probability"),
            ({"obstacle_prob_by_group": {0: 0.1}}, r"obstacle_prob_by_group\[1\] must be a probability"),
            ({"alpha_proxy": (1.0, 1.0)}, "alpha_proxy length must equal d_proxy"),
            ({"alpha_intended": (1.0,)}, "alpha_intended length must equal d_intended"),
            ({"alpha_intended": (1.0, -0.5, 1.0)}, "alpha weights must be nonnegative"),
            ({"obstacle_severity": -1.0}, "obstacle_severity must be >= 0"),
            ({"label_noise": 0.7}, r"label_noise must be in \[0, 0.5\)"),
            ({"true_model_coefficients": ((1.0, 1.0), (1.0, 1.0, 1.0))},
             r"true_model_coefficients must be \(proxy-view, intended-view\) vectors matching"),
            ({"alpha_proxy": (0.0, 0.0, 0.0)}, "obstacle probabilities are positive but alpha_proxy has no support"),
        ],
    )
    def test_a_value_out_of_its_range_is_refused(self, overrides, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            small_config(**overrides)

    def test_finite_inputs_that_overflow_the_learner_are_refused_before_any_warning(self):
        # the evaluation model's importance divides by its coefficients' L1 norm, and a
        # cohort that stays finite can still hold a column whose variance overflows
        for overrides, message in [
            ({"true_model_coefficients": ((1.0,) * 3, (1e308,) * 3)}, "true_model_coefficients"),
            ({"obstacle_severity": 1e300}, "feature 'pf0' is too large to standardize"),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=message):
                    cfg = dataclasses.replace(default_config(1), n_per_round=200, **overrides)
                    run_inequity_loop(cfg, 2, "no_equity")
        # the proxy view builds no model: its overflow is left to the cohort's check
        small_config(true_model_coefficients=((1e308,) * 3, (1.0,) * 3))


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
        provenance = list(zip(curated.rounds.tolist(), curated.source_rows.tolist()))
        assert len(set(provenance)) == len(curated) == sizes[-1] - seed_size

    def test_empty_batch(self):
        batch = curate_ground_truth([], round=1, feature_names=("a",))
        assert len(batch) == 0
        with pytest.raises(ValidationError, match="^feature_names required for an empty curation batch$"):
            curate_ground_truth([], round=1)

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
        # labels are held at byte width and rounds at int32, as the loop holds them
        batch = CuratedDataset.from_columns(("a",), [[1.0], [2.0]], [1.0, 0.0], 1, [0, 1])
        assert batch.y.dtype == np.int8 and batch.y.tolist() == [1, 0]
        assert batch.rounds.dtype == np.int32 and batch.rounds.tolist() == [1, 1]

    @pytest.mark.parametrize("round", [-1, 2**31, 1.0, True])
    def test_round_must_be_an_int32_index(self, round):
        with pytest.raises(ValidationError, match=r"round must be an integer in \[0, 2\*\*31\)"):
            CuratedDataset.from_columns(("a",), [[1.0]], [1], round, [0])
        assert CuratedDataset.from_columns(("a",), [[1.0]], [1], 2**31 - 1, [0]).rounds.tolist() == [2**31 - 1]

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([0.5, 1.7], r"nonnegative integers, got \[0.5, 1.7\]"),
            ([-1, 0], r"nonnegative integers, got \[-1\]"),
            ([float("nan"), 1], r"nonnegative integers, got \[nan\]"),
            ([1e19, 1], r"nonnegative integers, got \[1e\+19\]"),
            (["0", "1"], "must be integers, got dtype <U1"),
        ],
    )
    def test_source_rows_checked_before_any_cast(self, rows, match):
        # a row 1.7 must not be stored as 1, nor a -1 kept as a row
        with pytest.raises(ValidationError, match=match):
            CuratedDataset.from_columns(("a",), [[1.0], [2.0]], [1, 0], 1, rows)

    def test_integral_float_rows_load_as_int64(self):
        batch = CuratedDataset.from_columns(("a",), [[1.0], [2.0]], [1, 0], 1, [3.0, 0.0])
        assert batch.source_rows.dtype == np.int64 and batch.source_rows.tolist() == [3, 0]


class TestRunInequityLoop:
    def test_single_round_trajectory(self):
        traj, _ = run_inequity_loop(small_config(), 1, "no_equity")
        assert len(traj.rounds) == 1
        assert traj.rounds[0].round == 1

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValidationError):
            run_inequity_loop(small_config(), 1, "sideways")

    def test_no_round_rejected(self):
        with pytest.raises(ValidationError, match="^rounds must be >= 1$"):
            run_inequity_loop(small_config(), 0, "no_equity")

    def test_a_trajectory_holds_its_rounds_in_order(self):
        traj, _ = run_inequity_loop(small_config(), 2, "no_equity")
        first, second = traj.rounds
        for rounds in ((second, first), (first, first)):
            with pytest.raises(ValidationError, match="^round indices must be strictly increasing$"):
                dataclasses.replace(traj, rounds=rounds)

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
        assert len(set(zip(curated.rounds.tolist(), curated.source_rows.tolist()))) == len(curated)
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
        # a skipped round builds no cohort, so only the seed cohort is built
        import equity_audit.loopsim as loopsim

        built = []
        generate = loopsim.generate_cohort

        def recording_generate(cfg, t):
            built.append(t)
            return generate(cfg, t)

        monkeypatch.setattr(loopsim, "generate_cohort", recording_generate)
        run_inequity_loop(self.SINGLE_CLASS, 3, "no_equity")
        assert built == [0]

    def test_earlier_cohorts_are_released_before_each_fit(self, monkeypatch):
        import equity_audit.loopsim as loopsim

        generate, train = loopsim.generate_cohort, loopsim.train
        cohorts, alive_at_fit = [], []

        def recording_generate(cfg, t):
            cohort = generate(cfg, t)
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


class TestLoopOracle:
    """The loop agrees with the plain loop of ``tests/oracles.py`` in every field and curated byte."""

    @staticmethod
    def assert_matches_oracle(cfg, rounds, regime):
        trajectory, curated = run_inequity_loop(cfg, rounds, regime)
        want_trajectory, want_curated = loop_oracle(cfg, rounds, regime)
        assert repr(trajectory) == repr(want_trajectory)  # every LoopRound field, NaN and -0.0 too
        for name in ("X", "y", "rounds", "source_rows"):
            have, want = getattr(curated, name), getattr(want_curated, name)
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes(), name
        return trajectory

    @pytest.mark.parametrize("seed", range(40, 50))
    @pytest.mark.parametrize("regime", REGIMES)
    def test_default_config(self, seed, regime):
        self.assert_matches_oracle(default_config(seed), 10, regime)

    def test_every_event(self):
        events = set()
        for regime in REGIMES:
            for cfg, rounds in (
                (TestRunInequityLoop.SINGLE_CLASS, 2),
                (dataclasses.replace(default_config(5), n_per_round=6), 5),
            ):
                trajectory = self.assert_matches_oracle(cfg, rounds, regime)
                events.update(e.split(":")[0] for r in trajectory.rounds for e in r.events)
        assert events == {
            "round skipped", "outcome equalization skipped", "omega undefined",
            "no accepted individuals this round",
        }


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
