"""Property test of the CLI's exit-code contract: a flag-mode ``run`` on any
engine, with any numbers the flags parse, exits 0, 2, 3 or 4 and never
escapes ``cli.main`` with an exception. Needs ``hypothesis``."""

import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fockdamp import cli  # noqa: E402

EXTREMES = (5e-324, 1e-300, 1e300, 1.7e308)


def numbers(lo, hi, signed=False):
    """Ordinary floats in [lo, hi], or an extreme magnitude (of either sign if ``signed``)."""
    extremes = EXTREMES + tuple(-x for x in EXTREMES) * signed
    return st.one_of(st.floats(lo, hi), st.sampled_from(extremes))


# Each engine's alpha runs within a fraction of a second below the first
# bound, and resolves a cutoff above the engine's cap at these sample and
# trajectory counts beyond the second: dense nmax = 320, pauli 5791, and
# trajectories the search's own limit of 100000. In flag mode the two-mode
# engine has no 'twomode' block, so every alpha is a validation error there.
ALPHAS = {
    "dense": (4.0, 18.5),
    "pauli": (12.0, 77.0),
    "trajectories": (4.0, 320.0),
    "twomode": (4.0, 4.0),
}


@st.composite
def flag_runs(draw):
    engine = draw(st.sampled_from(sorted(ALPHAS)))
    runs, capped = ALPHAS[engine]
    alpha = draw(st.one_of(st.floats(-runs, runs), st.floats(0.0, runs), st.floats(capped, 1e300)))
    keys = draw(st.lists(st.sampled_from("eqst"), unique=True, min_size=1, max_size=4))
    rates = ",".join(f"{key}={draw(numbers(0.0, 3.0))!r}" for key in keys)
    # "--flag=value", since argparse reads a lone "-1e+300" as an option
    argv = ["run", f"--engine={engine}", f"--alpha={alpha!r}", f"--rates={rates}",
            f"--tmax={draw(numbers(1e-3, 20.0))!r}", f"--u1={draw(numbers(-5.0, 5.0, True))!r}",
            f"--samples={draw(st.integers(2, 5))}", f"--n-traj={draw(st.integers(1, 8))}"]
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--nmax={draw(st.integers(1, 40))}")
    return argv


@settings(derandomize=True, deadline=None, max_examples=60)
@given(argv=flag_runs())
def test_a_flag_mode_run_keeps_the_exit_code_contract(argv):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        # an overflow warning on the way to exit 3 is output, not a failure
        warnings.simplefilter("ignore")
        assert cli.main(argv + ["--out", out]) in (0, 2, 3, 4)
