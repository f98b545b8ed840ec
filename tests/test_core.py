import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equity_audit.core import (
    Individual,
    ObstacleModel,
    Policy,
    Population,
    apply_policy,
    dominates,
    obstacle_magnitude,
    reveal,
    reveal_population,
)
from equity_audit.errors import DominanceError, ValidationError
from equity_audit.metrics import model_access
from oracles import psi_oracle


def make_individual(z, x, y_prime=1, y=0, grp=0, id="i0"):
    return Individual(z=z, x=x, y_prime=y_prime, y=y, grp=grp, id=id)


class TestObstacleMagnitude:
    def test_unit_weights(self):
        ind = make_individual(z=[6, 0], x=[5, 0])
        assert obstacle_magnitude(ObstacleModel.from_alpha([1, 1]), ind) == 1.0

    def test_no_difference_is_zero(self):
        ind = make_individual(z=[4, 2], x=[4, 2])
        assert obstacle_magnitude(ObstacleModel.from_alpha([3, 7]), ind) == 0.0

    def test_weighted(self):
        ind = make_individual(z=[3, 2], x=[1, 1])
        assert obstacle_magnitude(ObstacleModel.from_alpha([0.5, 2]), ind) == 3.0

    def test_dimension_mismatch(self):
        ind = make_individual(z=[1, 2], x=[1, 2])
        with pytest.raises(ValidationError):
            obstacle_magnitude(ObstacleModel.from_alpha([1]), ind)

    def test_dominance_violation(self):
        ind = make_individual(z=[1, 2], x=[2, 1])
        with pytest.raises(DominanceError):
            obstacle_magnitude(ObstacleModel.from_alpha([1, 1]), ind)

    def test_zero_alpha_with_unequal_features_is_no_obstacle(self):
        ind = make_individual(z=[5, 5], x=[1, 1])
        om = ObstacleModel.from_alpha([0, 0])
        assert obstacle_magnitude(om, ind) == 0.0
        assert reveal(ind, om, Policy(0.0)).fully_accessed


class TestDominates:
    def test_strict_in_one_coordinate(self):
        assert dominates([6, 0], [5, 0]) is True

    def test_equal_vectors(self):
        assert dominates([6, 0], [6, 0]) is False

    def test_violated_coordinate(self):
        assert dominates([1, 3], [2, 1]) is False

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            dominates([1, 2], [1])


class TestApplyPolicy:
    def test_surplus_budget(self):
        assert apply_policy(3.0, Policy(5.0)) == 0.0

    def test_partial_budget(self):
        assert apply_policy(7.0, Policy(5.0)) == 2.0

    def test_zero_case(self):
        assert apply_policy(0.0, Policy(0.0)) == 0.0

    def test_negative_obstacle_rejected(self):
        with pytest.raises(ValidationError):
            apply_policy(-1.0, Policy(0.0))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            Policy(-0.5)


class TestReveal:
    def test_alleviated_reveals_obstacle_free_pair(self):
        ind = make_individual(z=[6, 0], x=[5, 0], y_prime=1, y=0)
        pair = reveal(ind, ObstacleModel.from_alpha([1, 1]), Policy(5.0))
        assert pair.fully_accessed
        assert np.array_equal(pair.x_rev, [6, 0])
        assert pair.y_rev == 1

    def test_no_obstacle_reveals_obstacle_free_pair(self):
        ind = make_individual(z=[6, 0], x=[6, 0], y_prime=1, y=1)
        pair = reveal(ind, ObstacleModel.from_alpha([1, 1]), Policy(0.0))
        assert pair.fully_accessed
        assert np.array_equal(pair.x_rev, [6, 0])

    def test_residual_obstacle_reveals_refrained_pair(self):
        # magnitude 6 against budget 5 leaves residual 1
        ind = make_individual(z=[9, 3], x=[6, 0], y_prime=1, y=0)
        om = ObstacleModel.from_alpha([1, 1])
        assert obstacle_magnitude(om, ind) == 6.0
        pair = reveal(ind, om, Policy(5.0))
        assert not pair.fully_accessed
        assert np.array_equal(pair.x_rev, [6, 0])
        assert pair.y_rev == 0

    def test_vectorized_reveal_matches_per_individual(self):
        rng = np.random.default_rng(11)
        individuals = []
        for k in range(40):
            x = rng.normal(size=3)
            z = x + rng.exponential(size=3) * (k % 3 == 0)
            individuals.append(
                Individual(z=z, x=x, y_prime=1, y=int(rng.integers(2)), grp=k % 2, id=f"i{k}")
            )
        pop = Population.from_individuals(tuple(individuals), ("a", "b", "c"))
        om = ObstacleModel.from_alpha([0.5, 1.0, 0.0])
        policy = Policy(1.0)
        x_rev, y_rev, accessed = reveal_population(pop, om, policy)
        for i, ind in enumerate(pop.individuals):
            pair = reveal(ind, om, policy)
            assert np.array_equal(x_rev[i], pair.x_rev)
            assert y_rev[i] == pair.y_rev
            assert accessed[i] == pair.fully_accessed


class TestValidation:
    def test_binary_fields_checked(self):
        with pytest.raises(ValidationError):
            make_individual(z=[1], x=[1], grp=2)
        with pytest.raises(ValidationError):
            make_individual(z=[1], x=[1], y=5)

    def test_population_requires_unique_ids(self):
        inds = [make_individual(z=[1], x=[1], id="dup") for _ in range(2)]
        with pytest.raises(ValidationError):
            Population.from_individuals(tuple(inds), ("f",))

    def test_population_dimension_check(self):
        with pytest.raises(ValidationError):
            Population.from_individuals((make_individual(z=[1, 2], x=[1, 2]),), ("f",))

    def test_population_arrays_are_read_only(self):
        pop = Population.from_individuals((make_individual(z=[2.0], x=[1.0]),), ("f",))
        with pytest.raises(ValueError):
            pop.x_matrix()[0, 0] = 5.0
        with pytest.raises(ValueError):
            pop.restrict(["f"]).z_matrix()[0, 0] = 5.0

    def test_array_constructor_names_the_bad_row(self):
        with pytest.raises(ValidationError) as excinfo:
            Population(
                x=[[1.0], [np.nan]], z=[[1.0], [1.0]], y=[0, 1], y_prime=[0, 1],
                grp=[0, 1], ids=["a", "b"], feature_names=("f",),
            )
        assert excinfo.value.row == 1
        assert "'b'" in str(excinfo.value)

    def test_alpha_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            ObstacleModel.from_alpha([-1.0])

    def test_alpha_support_must_be_affected(self):
        with pytest.raises(ValidationError):
            ObstacleModel(np.array([1.0, 0.0]), frozenset())


@given(
    o1=st.floats(min_value=0, max_value=100),
    o2=st.floats(min_value=0, max_value=100),
    delta=st.floats(min_value=0, max_value=100),
)
def test_policy_monotone_in_obstacle(o1, o2, delta):
    lo, hi = min(o1, o2), max(o1, o2)
    assert apply_policy(lo, Policy(delta)) <= apply_policy(hi, Policy(delta))


@given(
    o=st.floats(min_value=0, max_value=100),
    d1=st.floats(min_value=0, max_value=100),
    d2=st.floats(min_value=0, max_value=100),
)
def test_policy_monotone_in_delta(o, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    assert apply_policy(o, Policy(lo)) >= apply_policy(o, Policy(hi))


@given(
    o=st.floats(min_value=0, max_value=100),
    delta=st.floats(min_value=0, max_value=100),
)
def test_policy_zero_iff_budget_covers(o, delta):
    assert (apply_policy(o, Policy(delta)) == 0.0) == (delta >= o)


@st.composite
def individuals(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    x = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=d, max_size=d
        )
    )
    bump = draw(
        st.lists(st.floats(min_value=0, max_value=3, allow_nan=False), min_size=d, max_size=d)
    )
    z = [xi + bi for xi, bi in zip(x, bump)]
    alpha = draw(
        st.lists(st.floats(min_value=0, max_value=2, allow_nan=False), min_size=d, max_size=d)
    )
    return make_individual(z=z, x=x), ObstacleModel.from_alpha(alpha)


@given(individuals())
@settings(max_examples=200)
def test_reveal_roundtrip_definition(pair):
    ind, om = pair
    revealed = reveal(ind, om, Policy(0.5))
    expected_full = np.array_equal(revealed.x_rev, ind.z) and revealed.y_rev == ind.y_prime
    assert revealed.fully_accessed == expected_full


@given(individuals(), st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
@settings(max_examples=200)
def test_full_access_preserved_by_larger_budget(pair, d1, d2):
    ind, om = pair
    lo, hi = min(d1, d2), max(d1, d2)
    if reveal(ind, om, Policy(lo)).fully_accessed:
        assert reveal(ind, om, Policy(hi)).fully_accessed


@given(individuals())
def test_zero_obstacle_when_features_equal(pair):
    ind, om = pair
    same = make_individual(z=ind.x, x=ind.x)
    assert obstacle_magnitude(om, same) == 0.0


@st.composite
def boundary_cases(draw):
    """A population, an obstacle model with some zero weights, and one person.

    Hypothesis picks the sizes, the zero patterns and a seed; the values
    themselves are drawn from that seed, since summation order only shows
    on values with full mantissas.
    """
    d = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    alpha = rng.uniform(0, 2, size=d) * (rng.random(d) < draw(st.floats(0.2, 1.0)))
    x = rng.normal(scale=3, size=(n, d))
    bump = rng.exponential(size=(n, d)) * (rng.random((n, d)) < draw(st.floats(0.0, 1.0)))
    rows = [
        make_individual(z=x[k] + bump[k], x=x[k], grp=k % 2, id=f"i{k}") for k in range(n)
    ]
    pop = Population.from_individuals(rows, [f"f{j}" for j in range(d)])
    pivot = draw(st.integers(min_value=0, max_value=n - 1))
    return pop, ObstacleModel.from_alpha(alpha), pivot


@given(boundary_cases())
@settings(max_examples=300, deadline=None)
def test_access_paths_agree_at_the_boundary(case):
    # delta equal to one person's magnitude is where summation order shows
    pop, om, pivot = case
    policy = Policy(obstacle_magnitude(om, pop.individuals[pivot]))
    per_row = [reveal(ind, om, policy).fully_accessed for ind in pop.individuals]
    _, _, vectorized = reveal_population(pop, om, policy)
    oracle = [
        psi_oracle(om.alpha.tolist(), [z], [x], policy.delta) == 1.0
        for z, x in zip(pop.z_matrix().tolist(), pop.x_matrix().tolist())
    ]
    assert per_row[pivot]
    assert per_row == vectorized.tolist()
    assert per_row == list(model_access(pop, om, policy).per_individual)
    assert per_row == oracle
