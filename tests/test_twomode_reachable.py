"""Property tests of the two-mode engine's reachable sector. No term of the
pair raises N = n_A + n_B, so a run from rho_A x |0><0|_B fills only the
states with N <= nmax_a: the engine matches the exponential of the whole-pair
Liouvillian, and a partner mode with room for more photons than A started
with changes no bit. Needs ``hypothesis``."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_twomode import _liouvillian  # noqa: E402

from conftest import random_density  # noqa: E402
from fockdamp.twomode import TwoModeParams, two_mode_evolve  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=6)
u4s = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_infinity=False)
gamma_bs = st.floats(0.5, 40.0)
seeds = st.integers(0, 2**32 - 1)


def _run(rho_a, u4, gamma_b, nmax_b, grid):
    # small gamma_b / |u4| and a small nmax_b are the point here, not a regime to warn of
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "gamma_b/|u4||top B level", UserWarning)
        return two_mode_evolve(rho_a, TwoModeParams(u4=u4, gamma_b=gamma_b, nmax_b=nmax_b), grid)


def _excitations(nmax_a, nmax_b):
    """N = n_A + n_B of each product state, index n_A * (nmax_b + 1) + n_B."""
    return np.add.outer(np.arange(nmax_a + 1), np.arange(nmax_b + 1)).ravel()


@PROPS
@given(nmax_a=st.integers(1, 3), nmax_b=st.integers(1, 4), u4=u4s, gamma_b=gamma_bs, seed=seeds)
def test_the_reachable_sector_matches_the_whole_pair_expm(nmax_a, nmax_b, u4, gamma_b, seed):
    da, db = nmax_a + 1, nmax_b + 1
    rho_a = random_density(da, seed)
    grid = np.linspace(0.0, 0.6, 4)
    res = _run(rho_a, u4, gamma_b, nmax_b, grid)
    step = sla.expm(_liouvillian(u4, gamma_b, da, db).toarray() * grid[1])
    rho = np.kron(rho_a.entries, np.diag(np.eye(db)[0])).reshape(-1)
    top = 0.0
    for i in range(grid.size):
        by_level = np.diag(rho.reshape(da * db, da * db)).real.reshape(da, db)
        assert np.max(np.abs(res.series.populations[i] - by_level.sum(axis=1))) < 1e-10
        assert abs(res.b_occupation[i] - (by_level @ np.arange(db)).sum()) < 1e-10
        top = max(top, by_level[:, -1].sum())
        rho = step @ rho
    assert abs(res.b_top_level_mass - top) < 1e-10


@PROPS
@given(nmax_a=st.integers(1, 5), nmax_b=st.integers(1, 7), u4=u4s, gamma_b=gamma_bs)
def test_the_whole_pair_never_feeds_a_state_above_the_start(nmax_a, nmax_b, u4, gamma_b):
    # an entry rho[x, y] lies above the start when x or y has N > nmax_a
    n_tot = _excitations(nmax_a, nmax_b)
    above = np.maximum.outer(n_tot, n_tot).ravel() > nmax_a
    lsup = _liouvillian(u4, gamma_b, nmax_a + 1, nmax_b + 1)
    assert np.count_nonzero(lsup[np.flatnonzero(above)][:, np.flatnonzero(~above)].toarray()) == 0


@PROPS
@given(nmax_a=st.integers(1, 6), u4=u4s, gamma_b=gamma_bs, seed=seeds)
def test_room_for_more_photons_in_b_changes_no_bit(nmax_a, u4, gamma_b, seed):
    # B never holds more photons than A started with, and by the one-photon
    # dark state not even nmax_a: the top level stays exactly empty
    rho_a = random_density(nmax_a + 1, seed)
    grid = np.linspace(0.0, 2.0, 7)
    tight, roomy = (_run(rho_a, u4, gamma_b, nmax_b, grid) for nmax_b in (nmax_a, nmax_a + 2))
    assert np.array_equal(tight.series.populations, roomy.series.populations)
    assert np.array_equal(tight.b_occupation, roomy.b_occupation)
    assert tight.b_top_level_mass == roomy.b_top_level_mass == 0.0
