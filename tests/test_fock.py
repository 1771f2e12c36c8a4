import math

import numpy as np
import pytest

import fockdamp as fd
from conftest import fock_density, jump_matrix
from fockdamp.channels import nonlinear_loss, three_photon_loss


def poisson_pmf(mean, n):
    # independent oracle: direct log-space evaluation
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def test_annihilation_nmax1():
    a = fd.annihilation_matrix(fd.FockCutoff(1))
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_superdiagonal():
    a = fd.annihilation_matrix(fd.FockCutoff(3))
    assert np.allclose(np.diag(a, 1), [math.sqrt(1), math.sqrt(2), math.sqrt(3)], atol=0)
    assert np.count_nonzero(a) == 3


def test_number_operator_identity():
    cut = fd.FockCutoff(7)
    a = fd.annihilation_matrix(cut)
    n_op = a.conj().T @ a
    for n in range(cut.dim):
        e = np.zeros(cut.dim)
        e[n] = 1.0
        assert np.allclose(n_op @ e, n * e, atol=1e-14)


def test_truncated_commutator_corner():
    cut = fd.FockCutoff(9)
    a = fd.annihilation_matrix(cut)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(cut.dim, dtype=complex)
    expected[-1, -1] = -cut.nmax
    assert np.allclose(comm, expected, atol=1e-13)


def test_jump_matrix_is_exact_operator_product():
    cut = fd.FockCutoff(8)
    a = fd.annihilation_matrix(cut)
    built = jump_matrix(nonlinear_loss(1.0), cut)
    assert np.array_equal(built, a.conj().T @ a @ a)


def test_jump_on_two_photons():
    # by hand: a|2> = sqrt2 |1>, a|1> = |0>, a^dag|0> = |1>  =>  sqrt2 |1>
    cut = fd.FockCutoff(5)
    L = jump_matrix(nonlinear_loss(1.0), cut)
    e2 = np.zeros(cut.dim)
    e2[2] = 1.0
    out = L @ e2
    expected = np.zeros(cut.dim, dtype=complex)
    expected[1] = math.sqrt(2)
    assert np.allclose(out, expected, atol=1e-15)
    # squared amplitude 2 equals the diagonal damping coefficient k(k-1)^2 at k=2
    assert abs(np.vdot(out, out).real - 2.0) < 1e-14


def test_jump_dark_on_one_photon():
    cut = fd.FockCutoff(5)
    L = jump_matrix(nonlinear_loss(1.0), cut)
    e1 = np.zeros(cut.dim)
    e1[1] = 1.0
    assert np.allclose(L @ e1, 0.0, atol=0)


def test_three_photon_annihilates_two():
    cut = fd.FockCutoff(5)
    L = jump_matrix(three_photon_loss(1.0), cut)
    e2 = np.zeros(cut.dim)
    e2[2] = 1.0
    assert np.allclose(L @ e2, 0.0, atol=0)


def test_coherent_vacuum():
    rho = fd.coherent_density(0.0, fd.FockCutoff(4))
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.entries, expected)


def test_coherent_poisson_populations():
    cut = fd.FockCutoff(40)
    rho = fd.coherent_density(3.0, cut)
    pops = rho.populations()
    assert abs(pops[0] - math.exp(-9)) < 1e-18
    for n in range(cut.dim):
        assert abs(pops[n] - poisson_pmf(9.0, n)) < 1e-14


def test_coherent_moments():
    rho = fd.coherent_density(3.0, fd.FockCutoff(40))
    obs = fd.observables(rho)
    assert abs(obs.mean_n - 9.0) < 1e-9
    assert abs(obs.std_n - 3.0) < 1e-9
    assert abs(obs.g2 - 1.0) < 1e-10


def test_coherent_tail_rejected():
    with pytest.raises(fd.CutoffTooSmall) as exc:
        fd.coherent_density(3.0, fd.FockCutoff(20))
    assert exc.value.tail_mass > 1e-12


def test_coherent_deficit_recorded():
    rho = fd.coherent_density(3.0, fd.FockCutoff(40))
    assert 0.0 < rho.trace_deficit < 1e-12
    assert abs(rho.trace() - (1.0 - rho.trace_deficit)) < 1e-15


def test_min_cutoff_for_coherent():
    cut = fd.min_cutoff_for_coherent(3.0)
    assert fd.poisson_tail(9.0, cut.nmax) < 1e-12
    # margin of 2 above the smallest admissible cutoff
    assert fd.poisson_tail(9.0, cut.nmax - 3) >= 1e-12


def test_density_matrix_validation():
    bad = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)  # not Hermitian
    with pytest.raises(ValueError):
        fd.DensityMatrix(bad)
    with pytest.raises(ValueError):
        fd.DensityMatrix(np.eye(2, dtype=complex))  # trace 2


def test_pure_state_validation():
    with pytest.raises(ValueError):
        fd.PureState(np.array([1.0, 1.0]))
    psi = fd.coherent_state(1.0, fd.min_cutoff_for_coherent(1.0))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_states_are_immutable():
    rho = fock_density(1, fd.FockCutoff(3))
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 5.0
