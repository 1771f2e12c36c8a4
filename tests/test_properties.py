"""Property tests over random channel mixes: the dense and population
engines agree, the trace holds, the dense state stays positive, and pure
d-photon loss conserves the mass of each class of n mod d."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fockdamp as fd  # noqa: E402
from fockdamp.channels import (  # noqa: E402
    linear_loss,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)

GRID = np.linspace(0.0, 3.0, 7)
CHANNELS = (nonlinear_loss, linear_loss, two_photon_loss, three_photon_loss)
PROPS = settings(derandomize=True, deadline=None, max_examples=20)

rate = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
mixes = st.lists(rate, min_size=4, max_size=4).filter(any)


def _coherent(alpha, nmax):
    return fd.coherent_density(alpha, fd.FockCutoff(nmax), tail_tol=1.0)


@PROPS
@given(
    rates=mixes,
    alpha=st.floats(0.3, 2.0),
    kerr=st.floats(0.0, 2.0),
    nmax=st.integers(6, 14),
)
def test_dense_matches_pauli_and_keeps_trace(rates, alpha, kerr, nmax):
    channels = [make(r) for make, r in zip(CHANNELS, rates) if r > 0.0]
    rho0 = _coherent(alpha, nmax)
    dense, _ = fd.evolve(rho0, channels, fd.KerrTerm(kerr), GRID)
    pauli = fd.evolve_populations(rho0.populations(), channels, GRID)
    assert np.max(np.abs(dense.populations - pauli.populations)) <= 1e-8
    assert dense.trace_err.max() <= 1e-8
    assert pauli.trace_err.max() <= 1e-8


@PROPS
@given(
    rates=mixes,
    alpha=st.complex_numbers(min_magnitude=0.3, max_magnitude=2.0),
    kerr=st.floats(0.0, 5.0),
    nmax=st.integers(6, 14),
)
def test_dense_state_stays_positive(rates, alpha, kerr, nmax):
    channels = [make(r) for make, r in zip(CHANNELS, rates) if r > 0.0]
    dense, final = fd.evolve(_coherent(alpha, nmax), channels, fd.KerrTerm(kerr), GRID)
    assert dense.min_eigenvalue.min() >= -1e-10
    assert np.linalg.eigvalsh(final.entries)[0] >= -1e-10


@PROPS
@given(
    d=st.sampled_from((2, 3)),
    rate=st.floats(0.05, 1.0),
    alpha=st.floats(0.3, 2.0),
    nmax=st.integers(6, 14),
)
def test_pure_d_photon_loss_conserves_classes(d, rate, alpha, nmax):
    loss = two_photon_loss if d == 2 else three_photon_loss
    p0 = _coherent(alpha, nmax).populations()
    pops = fd.evolve_populations(p0, [loss(rate)], GRID).populations
    for r in range(d):
        assert np.max(np.abs(pops[:, r::d].sum(axis=1) - p0[r::d].sum())) <= 1e-8
