"""Property tests: ``sweep_grid`` resolves each point without the schema, and
every point equals ``parse_scenario`` of the plain scenario built by hand
from the file; the schema walker reports what ``jsonschema`` reports. Needs
``hypothesis``, and ``jsonschema`` for the walker's oracle."""

import copy

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_scenario_cli import raw_point  # noqa: E402

from fockdamp.errors import ValidationError  # noqa: E402
from fockdamp.scenario import (  # noqa: E402
    RATE_KEYS,
    SCENARIO_SCHEMA,
    SWEEPABLE,
    _schema_errors,
    parse_scenario,
    sweep_grid,
)

alphas = st.floats(-4.0, 4.0, allow_nan=False)
# negative and zero rates and rates that empty a small cutoff are all drawn
rates = st.one_of(st.just(0.0), st.floats(-0.5, 2.0, allow_nan=False))
sweeps = st.dictionaries(
    st.sampled_from(("alpha",) + RATE_KEYS),
    st.lists(rates, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    alpha=alphas,
    base_rates=st.dictionaries(st.sampled_from(RATE_KEYS), st.floats(0.0, 2.0), max_size=4),
    sweep=sweeps,
    swept_alphas=st.lists(alphas, min_size=1, max_size=3),
    nmax=st.one_of(st.none(), st.integers(1, 30)),
)
def test_sweep_points_equal_parse_scenario_of_the_hand_built_point(
    alpha, base_rates, sweep, swept_alphas, nmax
):
    if "alpha" in sweep:
        sweep["alpha"] = swept_alphas
    obj = {"name": "p", "alpha": alpha, "rates": base_rates, "t_max": 1.0, "samples": 3,
           "engine": "pauli", "sweep": sweep}
    if nmax is not None:
        obj["nmax"] = nmax
    fields = sorted(sweep)
    expected = []
    rejected = False
    for point in _grid(sweep, fields):
        try:
            expected.append(parse_scenario(raw_point(obj, fields, point)))
        except ValidationError:
            rejected = True
    if rejected:
        with pytest.raises(ValidationError):
            sweep_grid(obj)
    else:
        got_fields, values, scenarios = sweep_grid(obj)
        assert got_fields == fields
        assert values == list(_grid(sweep, fields))
        assert scenarios == expected


def _grid(sweep, fields):
    points = [()]
    for f in fields:
        points = [p + (v,) for p in points for v in sweep[f]]
    return points


# a scenario the schema accepts with every key present, nested blocks included
FULL = {
    "name": "full",
    "alpha": [1.0, 0.5],
    "nmax": 10,
    "rates": {k: 0.5 for k in RATE_KEYS},
    "u1": 0.5,
    "t_max": 1.0,
    "samples": 3,
    "engine": "twomode",
    "integrator": {"abs_tol": 1e-9, "rel_tol": 1e-6, "max_step": 0.1, "fixed_step": 0.01},
    "trajectory": {"n_traj": 5, "master_seed": 3, "dt_max": 0.1},
    "twomode": {"u4": [1.0, 0.5], "gamma_b": 25.0, "gamma_a_formula": 1.0, "nmax_b": 4},
    "sweep": {k: [0.1, 0.2] for k in SWEEPABLE},
}


def _key_paths(obj, path=()):
    for key, value in obj.items():
        yield path + (key,), value
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


MISTYPED = [True, False, None, "x", [1.0], {"x": 1.0}, 1.5]
# values on and beyond the bounds the schema sets on each kind of key
OUT_OF_RANGE = {
    int: [0, 1, -1, 50.0, 0.5, 10**6, 10**6 + 1, 2**64 - 1, 2**64],
    float: [0, 0.0, -0.5, 1e300],
    list: [[], [1.0, 2.0, 3.0], [-1.0], [True, 1.0], ["x", 1.0]],
    str: ["", ".", "..", "a b", "warp", "dense"],
    dict: [{}],
}


def _changes(path, value):
    """The key at ``path`` missing, mistyped, out of range, or with an extra
    sibling, each change as likely as the key being kept (None)."""
    changes = [(path, "missing", None), (path, "extra", 1.0)]
    changes += [(path, "set", v) for v in MISTYPED + OUT_OF_RANGE[type(value)]]
    return st.sampled_from([None] * len(changes) + changes)


KEY_CHANGES = [_changes(path, value) for path, value in _key_paths(FULL)]


@pytest.fixture(scope="module")
def oracle():
    return pytest.importorskip("jsonschema").Draft202012Validator(SCENARIO_SCHEMA)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(changes=st.tuples(*KEY_CHANGES))
def test_schema_walker_reports_what_jsonschema_reports(oracle, changes):
    obj = copy.deepcopy(FULL)
    # keys before their blocks, so that no change to a key undoes one to its block
    for path, change, value in reversed(copy.deepcopy([c for c in changes if c])):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if change == "missing":
            parent.pop(path[-1], None)
        elif change == "set":
            parent[path[-1]] = value
        else:
            parent[path[-1] + "_extra"] = value
    expected = [(tuple(e.path), e.message) for e in oracle.iter_errors(obj)]
    assert sorted(_schema_errors(obj, SCENARIO_SCHEMA), key=_by_path) == sorted(expected, key=_by_path)


def _by_path(error):
    """The order ``_walk`` sorts violations in."""
    return list(map(str, error[0]))
