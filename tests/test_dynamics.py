import math

import numpy as np
import pytest
import scipy.linalg as sla

import fockdamp as fd
from fockdamp import dynamics
from fockdamp.channels import linear_loss, nonlinear_loss, three_photon_loss, two_photon_loss
from fockdamp.dynamics import _stripe_index, stripe_generators

ALL = [nonlinear_loss(0.7), linear_loss(0.3), two_photon_loss(0.2), three_photon_loss(0.1)]


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    m /= np.trace(m).real
    return fd.DensityMatrix(0.5 * (m + m.conj().T))


def test_rhs_two_photon_state_pure_nonlinear():
    rho = fd.fock_density(2, fd.FockCutoff(5))
    out = fd.lindblad_rhs(rho, [nonlinear_loss(1.0)])
    expected = np.zeros((6, 6), dtype=complex)
    expected[2, 2] = -2.0  # damping k(k-1)^2 at k=2
    expected[1, 1] = +2.0  # gain feeds one level down
    assert np.allclose(out, expected, atol=1e-14)


def test_rhs_vacuum_dark():
    rho = fd.fock_density(0, fd.FockCutoff(4))
    out = fd.lindblad_rhs(rho, ALL, fd.KerrTerm(2.0))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_rhs_three_photon_state():
    # |<0| a^3 |3>|^2 = 3! = 6 by hand
    rho = fd.fock_density(3, fd.FockCutoff(5))
    out = fd.lindblad_rhs(rho, [three_photon_loss(1.0)])
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
    out = fd.lindblad_rhs(rho, channels, kerr)
    scale = np.linalg.norm(rho.entries)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12 * max(1.0, np.linalg.norm(out))
    assert abs(np.trace(out)) < 1e-12 * scale


@pytest.mark.parametrize("seed", range(5))
def test_banded_generator_matches_operator_form(seed):
    # stripe d of the stack, applied to rho[k, k + d], gives that stripe of
    # the operator-form derivative
    dim = 9
    rho = random_density(dim, 50 + seed)
    kerr = fd.KerrTerm(1.3)
    stack = stripe_generators(ALL, kerr, dim - 1)
    ref = fd.lindblad_rhs(rho, ALL, kerr)
    for d in range(dim):
        k = np.arange(dim - d)
        fast = stack[d, : dim - d, : dim - d] @ rho.entries[k, k + d]
        assert np.max(np.abs(fast - ref[k, k + d])) < 1e-13
        assert not np.any(stack[d, dim - d :]) and not np.any(stack[d, :, dim - d :])
        assert not np.any(np.tril(stack[d], -1))


def test_single_photon_linear_decay():
    rho = fd.fock_density(1, fd.FockCutoff(3))
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    series, _ = fd.evolve(rho, [linear_loss(1.0)], None, grid)
    for i, t in enumerate(grid):
        assert abs(series.populations[i, 1] - math.exp(-t)) < 1e-8


def test_evolve_matches_expm_oracle():
    # independent oracle: exact exponential of the vectorized generator,
    # built from operator products (row-major vec: X rho Y -> kron(X, Y^T))
    nmax = 6
    cut = fd.FockCutoff(nmax)
    rho0 = random_density(cut.dim, 7)
    kerr = fd.KerrTerm(0.4)
    d = cut.dim
    eye = np.eye(d)
    lsup = np.zeros((d * d, d * d), dtype=complex)
    for ch in ALL:
        L = fd.jump_matrix(ch, cut)
        LdL = L.conj().T @ L
        lsup += ch.rate * (
            np.kron(L, L.conj()) - 0.5 * np.kron(LdL, eye) - 0.5 * np.kron(eye, LdL.T)
        )
    n = np.arange(d)
    h = kerr.strength * np.diag(n * (n - 1.0))
    lsup += -1j * (np.kron(h, eye) - np.kron(eye, h.T))
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


def test_trace_hermiticity_positivity_monitors():
    cut = fd.FockCutoff(30)
    rho0 = fd.coherent_density(2.0, cut, tail_tol=1e-10)
    series, final = fd.evolve(
        rho0, [nonlinear_loss(1.0), linear_loss(0.05)], None, np.linspace(0, 20, 41),
    )
    assert series.trace_err.max() < 1e-8
    assert series.min_eigenvalue.min() > -1e-8
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
    out = fd.lindblad_rhs(rho, ALL, fd.KerrTerm(0.9))
    assert abs(np.trace(out)) < 1e-12 * np.linalg.norm(rho.entries)


@pytest.mark.parametrize("n_samples", [1, 31, 32, 33, 65])
def test_min_eigenvalue_equals_per_sample_eigvalsh(record_samples, n_samples):
    # samples arrive in blocks of 32, each checked as one stack; these counts cover its edges
    states = record_samples(dynamics)
    series, _ = fd.evolve(random_density(6, 4), ALL, fd.KerrTerm(0.5), np.linspace(0, 2, n_samples))
    d, k, l = _stripe_index(6)
    expected = []
    for y in states:
        upper = np.zeros((6, 6), dtype=y.dtype)
        upper[k, l] = y[d, k]
        expected.append(np.linalg.eigvalsh(upper, UPLO="U")[0])
    assert len(states) == n_samples
    assert np.array_equal(series.min_eigenvalue, expected)
