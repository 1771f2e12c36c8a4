"""Property test: ``sweep_grid`` resolves each point without the schema, and
every point equals ``parse_scenario`` of the plain scenario built by hand
from the file. Needs ``hypothesis``."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_scenario_cli import raw_point  # noqa: E402

from fockdamp.errors import ValidationError  # noqa: E402
from fockdamp.scenario import RATE_KEYS, parse_scenario, sweep_grid  # noqa: E402

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
