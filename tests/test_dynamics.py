import math

import numpy as np
import pytest
import scipy.linalg as sla

import fockdamp as fd
from conftest import (
    fock_density,
    lindblad_rhs,
    lindblad_superoperator,
    random_density,
    stripe_min_eigenvalues,
)
from fockdamp import dynamics
from fockdamp.analysis import POSITIVITY_LIMIT
from fockdamp.channels import linear_loss, nonlinear_loss, three_photon_loss, two_photon_loss
from fockdamp.dynamics import stripe_generators

ALL = [nonlinear_loss(0.7), linear_loss(0.3), two_photon_loss(0.2), three_photon_loss(0.1)]


def test_rhs_two_photon_state_pure_nonlinear():
    rho = fock_density(2, fd.FockCutoff(5))
    out = lindblad_rhs(rho, [nonlinear_loss(1.0)])
    expected = np.zeros((6, 6), dtype=complex)
    expected[2, 2] = -2.0  # damping k(k-1)^2 at k=2
    expected[1, 1] = +2.0  # gain feeds one level down
    assert np.allclose(out, expected, atol=1e-14)


def test_rhs_vacuum_dark():
    rho = fock_density(0, fd.FockCutoff(4))
    out = lindblad_rhs(rho, ALL, fd.KerrTerm(2.0))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_rhs_three_photon_state():
    # |<0| a^3 |3>|^2 = 3! = 6 by hand
    rho = fock_density(3, fd.FockCutoff(5))
    out = lindblad_rhs(rho, [three_photon_loss(1.0)])
    assert abs(out[3, 3].real + 6.0) < 1e-13
    assert abs(out[0, 0].real - 6.0) < 1e-13
    out[3, 3] = out[0, 0] = 0.0
    assert np.allclose(out, 0.0, atol=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_rhs_hermitian_and_traceless(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(4, 12))
    rho = random_density(dim, seed)
    channels = [c for c in ALL if c.annihilation_power <= dim - 1 and rng.random() > 0.3]
    kerr = fd.KerrTerm(float(rng.normal()))
    out = lindblad_rhs(rho, channels, kerr)
    scale = np.linalg.norm(rho.entries)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12 * max(1.0, np.linalg.norm(out))
    assert abs(np.trace(out)) < 1e-12 * scale


@pytest.mark.parametrize("seed", range(5))
def test_banded_generator_matches_operator_form(seed):
    # stripes b and dim - b share block b, stripe b in the rows above dim - b
    # and stripe dim - b from there on; each sub-block, applied to its stripe
    # of rho, gives that stripe of the operator-form derivative, and the two
    # never couple. Odd and even dims: an even dim leaves the lower half of
    # its middle block empty
    kerr = fd.KerrTerm(1.3)
    for dim in (2, 3, 9, 10):
        rho = random_density(dim, 50 + seed)
        channels = [ch for ch in ALL if ch.annihilation_power < dim]
        stack = stripe_generators(channels, kerr, dim - 1)
        ref = lindblad_rhs(rho, channels, kerr)
        assert stack.shape == (dim // 2 + 1, dim, dim)
        for b, block in enumerate(stack):
            split = dim - b if b else dim
            assert not np.any(np.tril(block, -1))
            assert not np.any(block[:split, split:]) and not np.any(block[split:, :split])
            pairs = [(b, block[:split, :split])]
            if 0 < b < dim - b:
                pairs.append((dim - b, block[split:, split:]))
            else:
                assert not np.any(block[split:])
            for d, gen in pairs:
                k = np.arange(dim - d)
                fast = gen @ rho.entries[k, k + d]
                assert np.max(np.abs(fast - ref[k, k + d])) < 1e-13


def test_single_photon_linear_decay():
    rho = fock_density(1, fd.FockCutoff(3))
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    series, _ = fd.evolve(rho, [linear_loss(1.0)], None, grid)
    for i, t in enumerate(grid):
        assert abs(series.populations[i, 1] - math.exp(-t)) < 1e-8


def test_evolve_matches_expm_oracle():
    # independent oracle: exact exponential of the vectorized generator
    nmax = 6
    cut = fd.FockCutoff(nmax)
    rho0 = random_density(cut.dim, 7)
    kerr = fd.KerrTerm(0.4)
    d = cut.dim
    lsup = lindblad_superoperator(ALL, kerr, cut)
    t_end = 0.8
    exact = (sla.expm(lsup * t_end) @ rho0.entries.reshape(-1)).reshape(d, d)

    series, final = fd.evolve(rho0, ALL, kerr, np.array([0.0, t_end]))
    assert np.max(np.abs(final.entries - exact)) < 1e-9


def test_evolve_pure_nonlinear_two_point_steady():
    cut = fd.FockCutoff(40)
    rho0 = fd.coherent_density(3.0, cut)
    series, final = fd.evolve(
        rho0, [nonlinear_loss(1.0)], None, np.linspace(0, 100, 11)
    )
    assert abs(series.mean_n[-1] - (1.0 - math.exp(-9))) < 1e-6
    assert abs(series.std_n[-1] - math.sqrt(math.exp(-9) * (1 - math.exp(-9)))) < 1e-5
    assert series.g2[-1] < 1e-4


def test_evolve_pure_two_photon_parity_limit():
    cut = fd.FockCutoff(40)
    rho0 = fd.coherent_density(3.0, cut)
    series, _ = fd.evolve(
        rho0, [two_photon_loss(1.0)], None, np.linspace(0, 100, 11)
    )
    assert abs(series.populations[-1, 1] - (1.0 - math.exp(-18)) / 2.0) < 1e-6


def test_trace_hermiticity_positivity_monitors(record_samples):
    lowest = record_samples(dynamics, stripe_min_eigenvalues)
    cut = fd.FockCutoff(30)
    rho0 = fd.coherent_density(2.0, cut, tail_tol=1e-10)
    series, final = fd.evolve(
        rho0, [nonlinear_loss(1.0), linear_loss(0.05)], None, np.linspace(0, 20, 41),
    )
    assert series.trace_err.max() < 1e-8
    assert len(lowest) == 41 and min(lowest) > -1e-8
    assert np.max(np.abs(final.entries - final.entries.conj().T)) < 1e-10


def test_kerr_leaves_populations_invariant():
    cut = fd.min_cutoff_for_coherent(1.5)
    rho0 = fd.coherent_density(1.5, cut)
    grid = np.linspace(0, 5, 21)
    ch = [nonlinear_loss(1.0), linear_loss(0.05)]
    s0, _ = fd.evolve(rho0, ch, fd.KerrTerm(0.0), grid)
    s5, _ = fd.evolve(rho0, ch, fd.KerrTerm(5.0), grid)
    assert np.max(np.abs(s0.populations - s5.populations)) < 1e-8


def test_stripe_support_preserved():
    # |psi> = (|0> + |2>)/sqrt2 populates stripes 0 and +-2 only
    cut = fd.FockCutoff(12)
    v = np.zeros(cut.dim, dtype=complex)
    v[0] = v[2] = 1.0 / math.sqrt(2)
    rho0 = fd.DensityMatrix(np.outer(v, v.conj()))
    grid = np.array([0.0, 0.5])
    _, final = fd.evolve(rho0, ALL, fd.KerrTerm(0.7), grid)
    k, l = np.meshgrid(np.arange(cut.dim), np.arange(cut.dim), indexing="ij")
    off_support = np.abs(k - l) % 2 == 1
    assert np.max(np.abs(final.entries[off_support])) < 1e-10


def test_rhs_trace_free_at_step_start():
    rho = random_density(10, 77)
    out = lindblad_rhs(rho, ALL, fd.KerrTerm(0.9))
    assert abs(np.trace(out)) < 1e-12 * np.linalg.norm(rho.entries)


@pytest.mark.parametrize("n_samples", [1, 31, 32, 33, 65])
def test_min_eigenvalue_equals_per_sample_eigvalsh(record_samples, n_samples):
    # samples arrive in blocks of 32, each gated as one stack; these counts
    # cover its edges. The series keeps the last sample's eigenvalue.
    states = record_samples(dynamics)
    series, _ = fd.evolve(random_density(6, 4), ALL, fd.KerrTerm(0.5), np.linspace(0, 2, n_samples))
    expected = stripe_min_eigenvalues(np.array(states))
    assert len(states) == n_samples
    assert series.min_eigenvalue == expected[-1]
    assert expected.min() >= POSITIVITY_LIMIT
