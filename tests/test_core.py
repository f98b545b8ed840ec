import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equity_audit.core import ObstacleModel, Policy, Population, _distinct, dominates, reveal_population
from equity_audit.errors import DominanceError, ValidationError
from equity_audit.metrics import model_access
from oracles import magnitude_oracle, population_fault, psi_oracle, reveal_oracle


def make_population(z, x, y_prime=1, y=0, grp=0):
    """One row per entry of ``z``/``x``; a scalar label or group applies to every row."""
    z, x = np.atleast_2d(np.asarray(z, dtype=float)), np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    return Population(
        x, z, np.broadcast_to(y, n), np.broadcast_to(y_prime, n), np.broadcast_to(grp, n),
        [f"i{k}" for k in range(n)], [f"f{j}" for j in range(d)],
    )


OM_UNIT = ObstacleModel.from_alpha([1.0])


def accessed(pop, om, delta) -> list[bool]:
    return reveal_population(pop, om, Policy(delta))[2].tolist()


def assert_magnitude(pop, om, magnitude):
    """Access switches on exactly at ``delta == magnitude``, so that is the row's obstacle."""
    assert accessed(pop, om, magnitude) == [True]
    if magnitude > 0:
        assert accessed(pop, om, np.nextafter(magnitude, 0.0)) == [False]
    z, x = pop.z_matrix()[0].tolist(), pop.x_matrix()[0].tolist()
    assert magnitude_oracle(om.alpha.tolist(), z, x) == magnitude


class TestObstacleMagnitude:
    def test_unit_weights(self):
        pop = make_population(z=[6, 0], x=[5, 0])
        assert_magnitude(pop, ObstacleModel.from_alpha([1, 1]), 1.0)

    def test_no_difference_is_zero(self):
        pop = make_population(z=[4, 2], x=[4, 2])
        assert_magnitude(pop, ObstacleModel.from_alpha([3, 7]), 0.0)

    def test_weighted(self):
        pop = make_population(z=[3, 2], x=[1, 1])
        assert_magnitude(pop, ObstacleModel.from_alpha([0.5, 2]), 3.0)

    def test_dimension_mismatch(self):
        pop = make_population(z=[1, 2], x=[1, 2])
        with pytest.raises(ValidationError):
            reveal_population(pop, ObstacleModel.from_alpha([1]), Policy(0.0))

    def test_dominance_violation(self):
        pop = make_population(z=[1, 2], x=[2, 1])
        with pytest.raises(DominanceError):
            reveal_population(pop, ObstacleModel.from_alpha([1, 1]), Policy(0.0))

    def test_zero_alpha_with_unequal_features_is_no_obstacle(self):
        pop = make_population(z=[5, 5], x=[1, 1])
        assert_magnitude(pop, ObstacleModel.from_alpha([0, 0]), 0.0)


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
    """The budget spent on one obstacle: a person with ``z = [o]``, ``x = [0]``
    and unit weight has obstacle ``o``, alleviated exactly when ``delta >= o``."""

    def test_surplus_budget(self):
        assert accessed(make_population(z=[3.0], x=[0.0]), OM_UNIT, 5.0) == [True]

    def test_partial_budget(self):
        pop = make_population(z=[7.0], x=[0.0])
        x_rev, _, access = reveal_population(pop, OM_UNIT, Policy(5.0))
        assert access.tolist() == [False]
        assert x_rev.tolist() == [[0.0]]

    def test_zero_case(self):
        assert accessed(make_population(z=[0.0], x=[0.0]), OM_UNIT, 0.0) == [True]

    def test_negative_obstacle_rejected(self):
        # an obstacle below zero needs z below x, which breaks dominance
        with pytest.raises(DominanceError):
            reveal_population(make_population(z=[0.0], x=[1.0]), OM_UNIT, Policy(0.0))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            Policy(-0.5)


class TestReveal:
    def test_alleviated_reveals_obstacle_free_pair(self):
        pop = make_population(z=[6, 0], x=[5, 0], y_prime=1, y=0)
        x_rev, y_rev, access = reveal_population(pop, ObstacleModel.from_alpha([1, 1]), Policy(5.0))
        assert access.tolist() == [True]
        assert x_rev.tolist() == [[6, 0]]
        assert y_rev.tolist() == [1]

    def test_no_obstacle_reveals_obstacle_free_pair(self):
        pop = make_population(z=[6, 0], x=[6, 0], y_prime=1, y=1)
        x_rev, _, access = reveal_population(pop, ObstacleModel.from_alpha([1, 1]), Policy(0.0))
        assert access.tolist() == [True]
        assert x_rev.tolist() == [[6, 0]]

    def test_residual_obstacle_reveals_refrained_pair(self):
        # magnitude 6 against budget 5 leaves residual 1
        pop = make_population(z=[9, 3], x=[6, 0], y_prime=1, y=0)
        om = ObstacleModel.from_alpha([1, 1])
        assert_magnitude(pop, om, 6.0)
        x_rev, y_rev, access = reveal_population(pop, om, Policy(5.0))
        assert access.tolist() == [False]
        assert x_rev.tolist() == [[6, 0]]
        assert y_rev.tolist() == [0]

    def test_vectorized_reveal_matches_per_individual(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3))
        z = x + rng.exponential(size=(40, 3)) * (np.arange(40) % 3 == 0)[:, None]
        y = rng.integers(2, size=40)
        pop = make_population(z=z, x=x, y_prime=1, y=y, grp=np.arange(40) % 2)
        om = ObstacleModel.from_alpha([0.5, 1.0, 0.0])
        x_rev, y_rev, access = reveal_population(pop, om, Policy(1.0))
        for i in range(40):
            x_i, y_i, access_i = reveal_oracle(om.alpha.tolist(), z[i].tolist(), x[i].tolist(), 1, int(y[i]), 1.0)
            assert x_rev[i].tolist() == x_i
            assert y_rev[i] == y_i
            assert access[i] == access_i

    def test_revealed_block_is_c_contiguous_whatever_the_column_layout(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 4))
        z = x + rng.exponential(size=(30, 4)) * (np.arange(30) % 2 == 0)[:, None]
        om = ObstacleModel.from_alpha([1.0, 0.0, 2.0, 0.0])
        reference = reveal_population(make_population(z=z, x=x), om, Policy(1.5))[0]
        assert reference.flags.c_contiguous
        fortran = make_population(z=np.asfortranarray(z), x=np.asfortranarray(x))
        x_rev = reveal_population(fortran, om, Policy(1.5))[0]
        assert x_rev.flags.c_contiguous and x_rev.tobytes() == reference.tobytes()


class TestValidation:
    def test_binary_fields_checked(self):
        with pytest.raises(ValidationError):
            make_population(z=[1], x=[1], grp=2)
        with pytest.raises(ValidationError):
            make_population(z=[1], x=[1], y=5)

    def test_population_requires_unique_ids(self):
        with pytest.raises(ValidationError):
            Population([[1.0], [1.0]], [[1.0], [1.0]], [0, 0], [1, 1], [0, 0], ["dup", "dup"], ("f",))

    def test_population_dimension_check(self):
        with pytest.raises(ValidationError):
            Population([[1.0, 2.0]], [[1.0, 2.0]], [0], [1], [0], ["i0"], ("f",))

    def test_population_arrays_are_read_only(self):
        pop = make_population(z=[2.0], x=[1.0])
        with pytest.raises(ValueError):
            pop.x_matrix()[0, 0] = 5.0
        with pytest.raises(ValueError):
            pop.restrict(["f0"]).z_matrix()[0, 0] = 5.0
        with pytest.raises(AttributeError, match="^Population is immutable; cannot set 'feature_names'$"):
            pop.feature_names = ("g0",)

    def test_array_constructor_names_the_bad_row(self):
        with pytest.raises(ValidationError) as excinfo:
            Population(
                x=[[1.0], [np.nan]], z=[[1.0], [1.0]], y=[0, 1], y_prime=[0, 1],
                grp=[0, 1], ids=["a", "b"], feature_names=("f",),
            )
        assert excinfo.value.row == 1
        assert "'b'" in str(excinfo.value)

    def test_a_text_or_object_label_column_names_the_bad_row(self):
        # no text cell equals 0 or 1, so a text column fails at its first row;
        # an object column holds 0 and 1 and fails at its None
        features = {"x": [[1.0]] * 3, "z": [[1.0]] * 3, "ids": ["a", "b", "c"], "feature_names": ("f",)}
        for y, row in [(["0", "1", "1"], 0), (np.array([0, 1, None], dtype=object), 2)]:
            with pytest.raises(ValidationError) as excinfo:
                Population(y=y, y_prime=[0, 1, 1], grp=[0, 1, 1], **features)
            assert (str(excinfo.value), excinfo.value.row) == (f"y must be 0 or 1 for individual {'abc'[row]!r}", row)

    def test_alpha_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            ObstacleModel.from_alpha([-1.0])

    def test_alpha_must_be_a_vector(self):
        with pytest.raises(ValidationError, match=r"^alpha must be a 1-D vector, got shape \(1, 2\)$"):
            ObstacleModel.from_alpha([[1.0, 1.0]])

    def test_alpha_support_must_be_affected(self):
        with pytest.raises(ValidationError):
            ObstacleModel(np.array([1.0, 0.0]), frozenset())

    def test_affected_feature_index_must_be_in_range(self):
        with pytest.raises(ValidationError, match="^affected feature index 2 out of range$"):
            ObstacleModel(np.zeros(2), frozenset({2}))


# valid values drawn more often, so rows and columns with and without faults mix
_FEATURE_VALUES = st.sampled_from([0.0, 1.0, -0.0, 3.0, 0.5, 2.0, -1.0, np.nan, np.inf, -np.inf])
_LABEL_VALUES = {
    float: st.sampled_from([0.0, 1.0, 0.0, 1.0, -0.0, 0.5, 2.0, -1.0, np.nan, np.inf]),
    np.int64: st.sampled_from([0, 1, 0, 1, 2, -1]),
    bool: st.booleans(),
}


@st.composite
def population_columns(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))

    def block():
        return np.array(draw(st.lists(st.lists(_FEATURE_VALUES, min_size=d, max_size=d), min_size=n, max_size=n)))

    def labels():
        dtype = draw(st.sampled_from(list(_LABEL_VALUES)))
        return np.array(draw(st.lists(_LABEL_VALUES[dtype], min_size=n, max_size=n)), dtype=dtype)

    return block(), block(), labels(), labels(), labels(), [f"i{k}" for k in range(n)], d


@given(population_columns())
@settings(max_examples=400, deadline=None)
def test_population_faults_match_the_row_mask_validator(columns):
    x, z, y, y_prime, grp, ids, d = columns
    expected = population_fault(x, z, y, y_prime, grp, ids)
    names = [f"f{j}" for j in range(d)]
    if expected is None:
        pop = Population(x, z, y, y_prime, grp, ids, names)
        for got, want in ((pop.labels(), y), (pop.labels_prime(), y_prime), (pop.groups(), grp)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        return
    with pytest.raises(ValidationError) as excinfo:
        Population(x, z, y, y_prime, grp, ids, names)
    assert (str(excinfo.value), excinfo.value.row) == expected


@given(
    o1=st.floats(min_value=0, max_value=100),
    o2=st.floats(min_value=0, max_value=100),
    delta=st.floats(min_value=0, max_value=100),
)
def test_policy_monotone_in_obstacle(o1, o2, delta):
    lo, hi = min(o1, o2), max(o1, o2)
    access_lo, access_hi = accessed(make_population(z=[[lo], [hi]], x=[[0.0], [0.0]]), OM_UNIT, delta)
    assert access_lo or not access_hi


@given(
    o=st.floats(min_value=0, max_value=100),
    d1=st.floats(min_value=0, max_value=100),
    d2=st.floats(min_value=0, max_value=100),
)
def test_policy_monotone_in_delta(o, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    pop = make_population(z=[o], x=[0.0])
    assert accessed(pop, OM_UNIT, hi)[0] or not accessed(pop, OM_UNIT, lo)[0]


@given(
    o=st.floats(min_value=0, max_value=100),
    delta=st.floats(min_value=0, max_value=100),
)
def test_policy_zero_iff_budget_covers(o, delta):
    assert accessed(make_population(z=[o], x=[0.0]), OM_UNIT, delta) == [delta >= o]


@st.composite
def people(draw):
    """One person with ``z`` dominating-or-equal ``x``, and an obstacle model."""
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
    return make_population(z=z, x=x), ObstacleModel.from_alpha(alpha)


@given(people())
@settings(max_examples=200)
def test_reveal_roundtrip_definition(pair):
    pop, om = pair
    (x_rev,), (y_rev,), (access,) = reveal_population(pop, om, Policy(0.5))
    z, x = pop.z_matrix()[0], pop.x_matrix()[0]
    expected_full = np.array_equal(x_rev, z) and y_rev == pop.labels_prime()[0]
    assert access == expected_full
    assert (x_rev.tolist(), y_rev, access) == reveal_oracle(om.alpha.tolist(), z.tolist(), x.tolist(), 1, 0, 0.5)


@given(people(), st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
@settings(max_examples=200)
def test_full_access_preserved_by_larger_budget(pair, d1, d2):
    pop, om = pair
    lo, hi = min(d1, d2), max(d1, d2)
    if accessed(pop, om, lo)[0]:
        assert accessed(pop, om, hi)[0]


@given(people())
def test_zero_obstacle_when_features_equal(pair):
    pop, om = pair
    same = make_population(z=pop.x_matrix(), x=pop.x_matrix())
    assert_magnitude(same, om, 0.0)


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
    pop = make_population(z=x + bump, x=x, grp=np.arange(n) % 2)
    pivot = draw(st.integers(min_value=0, max_value=n - 1))
    return pop, ObstacleModel.from_alpha(alpha), pivot


@given(boundary_cases())
@settings(max_examples=300, deadline=None)
def test_access_paths_agree_at_the_boundary(case):
    # delta equal to one person's magnitude is where summation order shows
    pop, om, pivot = case
    alpha, zs, xs = om.alpha.tolist(), pop.z_matrix().tolist(), pop.x_matrix().tolist()
    policy = Policy(magnitude_oracle(alpha, zs[pivot], xs[pivot]))
    _, _, vectorized = reveal_population(pop, om, policy)
    per_row = [reveal_oracle(alpha, z, x, 1, 0, policy.delta)[2] for z, x in zip(zs, xs)]
    oracle = [psi_oracle(alpha, [z], [x], policy.delta) == 1.0 for z, x in zip(zs, xs)]
    assert vectorized[pivot]
    assert vectorized.tolist() == per_row
    assert vectorized.tolist() == list(model_access(pop, om, policy).per_individual)
    assert vectorized.tolist() == oracle


def _vectors_with_repeats(rng, n_vectors):
    """Random int and float vectors, repeats, NaNs, infinities and -0.0 beside 0.0 among them."""
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0])
    for k in range(n_vectors):
        n = int(rng.integers(0, 80)) if k else 0
        if k % 2:
            yield rng.integers(-4, 5, size=n)
        else:
            v = np.concatenate([rng.choice(specials, size=n), rng.normal(size=int(rng.integers(0, 6)))])
            rng.shuffle(v)
            yield v


def test_distinct_values_are_np_unique_bit_for_bit():
    rng = np.random.default_rng(2024)
    for v in [*_vectors_with_repeats(rng, 3000), np.tile([0.0, -0.0, np.nan], 2000), np.arange(12.0).reshape(3, 4)]:
        got, want = _distinct(v), np.unique(v)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), v
