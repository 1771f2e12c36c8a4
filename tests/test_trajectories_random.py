"""Property tests: the batched sampler against the scalar reference loop of
``test_trajectories`` on random channel mixes, and its waiting times on
random weights and rates. Needs ``hypothesis``."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_trajectories import assert_matches_reference  # noqa: E402

import fockdamp as fd  # noqa: E402
from fockdamp import trajectories  # noqa: E402
from fockdamp.channels import (  # noqa: E402
    linear_loss,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)
from fockdamp.trajectories import TrajectoryConfig  # noqa: E402

LOSSES = (linear_loss, two_photon_loss, three_photon_loss, nonlinear_loss)


@st.composite
def ensembles(draw):
    losses = draw(st.lists(st.sampled_from(LOSSES), unique=True, min_size=1, max_size=len(LOSSES)))
    channels = [make(draw(st.floats(0.01, 3.0))) for make in losses]
    alpha = draw(st.floats(0.0, 2.5)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    psi0 = fd.coherent_state(alpha, fd.min_cutoff_for_coherent(alpha))
    kerr = draw(st.none() | st.floats(-5.0, 5.0).map(fd.KerrTerm))
    t0 = draw(st.floats(0.0, 2.0))
    grid = t0 + np.linspace(0.0, draw(st.floats(0.1, 10.0)), draw(st.integers(2, 12)))
    cfg = TrajectoryConfig(
        n_traj=draw(st.integers(2, 64)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        t_grid=grid,
    )
    return psi0, channels, kerr, cfg, draw(st.integers(1, 64))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(ensembles())
def test_batched_sampler_matches_reference_on_random_mixes(case):
    got = assert_matches_reference(*case)
    assert np.max(np.abs(got.series.populations.sum(axis=1) - 1.0)) <= 1e-12


RATES = st.just(0.0) | st.floats(1e-3, 1e3)
WEIGHTS = st.just(0.0) | st.floats(1e-3, 1.0)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_waiting_times_solve_the_norm_equation(data):
    n = data.draw(st.integers(1, 8))
    s = np.array(data.draw(st.lists(RATES, min_size=n, max_size=n)))
    rows = data.draw(st.integers(1, 6))
    row = st.lists(WEIGHTS, min_size=n, max_size=n)
    w = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))
    assume(np.all(w[:, s > 0].sum(axis=1) > 0))
    w /= w.sum(axis=1, keepdims=True)
    dark = w[:, s == 0].sum(axis=1)
    fraction = st.floats(1e-6, 1.0, exclude_max=True)
    v = np.array(data.draw(st.lists(fraction, min_size=rows, max_size=rows)))
    below = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    u = np.where(below & (dark > 0), dark * v, dark + (1.0 - dark) * v)

    tau = trajectories._waiting_times(w, s, u)
    jumps = u > dark
    assert np.array_equal(np.isinf(tau), ~jumps)
    q = (w[jumps] * np.exp(-s * tau[jumps, None])).sum(axis=1)
    assert np.max(np.abs(np.log(q) - np.log(u[jumps])), initial=0.0) <= 1e-12
