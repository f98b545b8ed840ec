"""Fuzz of the JSON and TOML documents the commands read.

Whatever a model document, a spaces document or a config file holds, each
command that reads it ends with exit 0 (it ran), 2 (a data or validation error) or 3 (a
rate the data cannot define), and no exception escapes ``cli.main``. The
suite turns a ``RuntimeWarning`` into an error, so a non-finite value that
reaches the arithmetic fails here too.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from equity_audit.cli import main

EXIT_CODES = (0, 2, 3)

FUZZ = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# the numbers a hand-edited document may hold: non-finite, negative, huge, bool
ODD_NUMBERS = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -1, -1e-300, 0, 0.0, 1e-12, 0.5, 3, 2000, 1e300, 10**400, True, False]
)
NUMBERS = ODD_NUMBERS | st.floats() | st.integers()


def run(*argv) -> int:
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES
    return code


@st.composite
def model_documents(draw):
    """A gaps model document: any JSON value, or the known fields, at times one of them replaced.

    Hypothesis leans to small draws, so the rarer branches are taken on the largest one.
    """
    if draw(st.integers(0, 3)) == 3:
        return draw(JSON_VALUES)
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "team player"]), min_size=1, max_size=4, unique=True))

    def per_name(numbers):
        return st.lists(numbers, min_size=len(names), max_size=len(names))

    unit_l1 = per_name(st.integers(-5, 5)).filter(any).map(lambda w: [v / sum(map(abs, w)) for v in w])
    doc = {"feature_names": names, "importance": draw(st.one_of(unit_l1, unit_l1, per_name(NUMBERS)))}
    optional = {
        "alpha": per_name(st.floats(0, 3)) | per_name(NUMBERS),
        "affected_features": st.lists(st.integers(-1, 4), max_size=3),
    }
    doc.update({key: draw(value) for key, value in optional.items() if draw(st.booleans())})
    if draw(st.integers(0, 3)) == 3:
        doc[draw(st.sampled_from([*doc, "extra"]))] = draw(JSON_VALUES)
    return doc


@given(proxy=model_documents(), intended=model_documents())
# importances whose L1 sum overflows: a ValidationError, not an overflow warning
@example(
    proxy={"feature_names": ["a"], "importance": [1.0]},
    intended={"feature_names": ["a", "b"], "importance": [8.988465674311579e307, 8.98846567431158e307]},
)
# finite alphas whose L1 distance overflows: a ValidationError, not "Infinity" in the report
@example(
    proxy={"feature_names": ["a", "b"], "importance": [0.5, 0.5], "alpha": [0, 0], "affected_features": [0, 1]},
    intended={"feature_names": ["a", "b"], "importance": [0.5, 0.5], "alpha": [1e308, 1e308], "affected_features": [0, 1]},
)
@settings(FUZZ, max_examples=150)
def test_gaps_model_documents(tmp_path, proxy, intended):
    paths = []
    for name, doc in (("proxy.json", proxy), ("intended.json", intended)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(path)
    if run("--out", tmp_path / "r", "gaps", *paths) == 0:
        # the report is JSON: no NaN or Infinity token
        json.loads((tmp_path / "r" / "gaps.json").read_text(), parse_constant=_no_constant)


def _no_constant(token):
    raise AssertionError(f"{token} in a JSON report")


@pytest.fixture()
def population_csv(tmp_path):
    """40 rows over features a and b; a separates the labels except for four flipped rows."""
    lines = ["id,group,y,y_prime,x_a,x_b,z_a,z_b"]
    for k in range(40):
        positive = (k // 2) % 2 == 0
        y = int(positive) ^ (k % 10 == 3)
        x_a = 3.0 if positive else 1.0
        lines.append(f"i{k},{k % 2},{y},{y},{x_a},{k % 7 / 7},{x_a + (k % 3 == 0)},{k % 7 / 7}")
    path = tmp_path / "pop.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


HYPERPARAMS = st.fixed_dictionaries(
    {},
    optional={
        "iterations": ODD_NUMBERS | st.integers(0, 50),
        "l2": ODD_NUMBERS | st.floats(0, 1),
        "decision_threshold": ODD_NUMBERS | st.floats(0, 1),
        "threshold": ODD_NUMBERS | st.floats(0, 5),
        "learning_rate": ODD_NUMBERS,
    },
)
SPECS = st.lists(
    st.fixed_dictionaries({
        "features": st.sampled_from([["a"], ["a", "b"], ["b"]]),
        "function_class": st.sampled_from(["logistic_regression", "norm_threshold"]),
        "hyperparams": HYPERPARAMS,
    }),
    min_size=1,
    max_size=2,
)
POLICIES = st.lists(st.sampled_from([0, 0.5, 1, "inf"]) | ODD_NUMBERS, min_size=1, max_size=2)


@given(proxy_specs=SPECS, intended_specs=SPECS, proxy_policies=POLICIES, intended_policies=POLICIES)
@settings(FUZZ, max_examples=60)
def test_score_hyperparameters(tmp_path, population_csv, proxy_specs, intended_specs, proxy_policies, intended_policies):
    def space(specs, policies, alpha):
        return {"dataset": str(population_csv), "alpha": alpha, "specs": specs, "policies": policies}

    doc = {
        "proxy": space(proxy_specs, proxy_policies, [1.0, 0.0]),
        "intended": space(intended_specs, intended_policies, [0.0, 0.0]),
    }
    spaces = tmp_path / "spaces.json"
    spaces.write_text(json.dumps(doc))
    run("--out", tmp_path / "r", "score", spaces, "--max-outer", 2, "--max-inner", 2)


CONFIG_KEYS = st.sampled_from(
    [
        "seed", "tau", "tau_o", "epsilon", "formats", "pass_mark", "equal_access", "out_dir",
        "uplift_std_fraction", "uplift_ordinal_step", "train_fraction", "mystery",
    ]
)
HUGE_INTEGER = "1" + "0" * 400  # finite, but no float
TOML_VALUES = st.sampled_from(
    [
        "1", "-3", "0.5", "inf", "nan", "-inf", "1e400", "1e308", HUGE_INTEGER, "true", '"x"', "'json'",
        '["json", "csv"]', "[1, [2]]", '"', "[", "",
    ]
) | st.text(max_size=8)
KEY_VALUE = st.tuples(CONFIG_KEYS, TOML_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}")
TOML_LINES = st.one_of(
    KEY_VALUE,
    KEY_VALUE,
    st.sampled_from(["[report]", "[", "[]", "# note", "=", "x ="]),
    st.text(max_size=12),
)
TOML_TEXTS = st.one_of(
    st.lists(TOML_LINES, max_size=6).map("\n".join),
    st.lists(KEY_VALUE, max_size=2).map("\n".join),  # short files, more of which load
    st.text(),
)


@given(text=TOML_TEXTS)
@example(text="seed = -1")
@example(text="uplift_std_fraction = 1e308")
@example(text=f"uplift_ordinal_step = {HUGE_INTEGER}")
@example(text=f"uplift_std_fraction = {HUGE_INTEGER}")
@settings(FUZZ, max_examples=200)
def test_config_toml(tmp_path, student_path, text):
    audit = tmp_path / "audit.csv"
    audit.write_text("pred,label,group\n1,1,0\n0,0,0\n1,1,1\n0,0,1\n")
    config = tmp_path / "run.toml"
    config.write_text(text, encoding="utf-8")
    # --out wins over any out_dir the file names
    flags = ("--config", config, "--out", tmp_path / "r")
    # every command loads the config alike, and this audit fails on nothing
    # else; a config it accepts also runs through the seed and uplift readers
    if run(*flags, "audit", audit) == 0:
        run(*flags, "casestudy", student_path)
        run(*flags, "simulate-loop", "--regime", "access_and_outcome", "--rounds", 1)
