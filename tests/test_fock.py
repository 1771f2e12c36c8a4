import math

import numpy as np
import pytest

import fockdamp as fd
from conftest import fock_density, jump_matrix
from fockdamp.channels import nonlinear_loss, three_photon_loss
from fockdamp.fock import _NORM_TOL, coherent_amplitudes, poisson_tail
from fockdamp.scenario import _json_complex, parse_scenario, validate_dict
from fockdamp.twomode import TAIL_TOL


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


def _accepted(engine, alpha):
    """The scenario dict of a 2-sample run of ``engine`` from alpha, or None
    when validation rejects it."""
    obj = {"name": "start", "alpha": _json_complex(alpha), "t_max": 1.0, "samples": 2,
           "engine": engine}
    if engine == "twomode":
        obj["twomode"] = {"u4": 1.0, "gamma_b": 100.0, "nmax_b": 4}
    else:
        obj["rates"] = {"gamma_e": 1.0}
    if engine == "trajectories":
        obj["trajectory"] = {"n_traj": 16, "master_seed": 0}
    return None if validate_dict(obj) else obj


@pytest.mark.parametrize("engine", ["dense", "pauli", "trajectories", "twomode"])
def test_every_accepted_alpha_builds_a_start_of_unit_norm(engine):
    # the recursion from e^{-|alpha|^2/2} breaks where that is subnormal, at
    # |alpha| ~ 37.6, which only the pauli and trajectory caps reach
    lo, hi = 1.0, 400.0  # the largest |alpha| the engine's cap accepts lies between
    while hi - lo > 1e-3 * lo:
        lo, hi = ((lo + hi) / 2, hi) if _accepted(engine, (lo + hi) / 2) else (lo, (lo + hi) / 2)
    edges = [37.5, 37.6, 37.65, 37.7, 37.9, 38.6, 40.0, 45.0, 75.0, 150.0, 300.0]
    radii = sorted({*np.linspace(0.0, lo, 9), *[r for r in edges if r < lo]})
    for i, r in enumerate(radii):
        alpha = r * complex(math.cos(i), math.sin(i)) if i % 3 else (-r if i % 2 else r)
        scn = parse_scenario(_accepted(engine, alpha))
        if engine == "twomode":
            rho = fd.coherent_density(scn.alpha, scn.cutoff, tail_tol=TAIL_TOL)
            tail = poisson_tail(abs(scn.alpha) ** 2, scn.nmax)
            assert abs(rho.trace_deficit - tail) < _NORM_TOL
            continue
        c = coherent_amplitudes(scn.alpha, scn.cutoff)
        assert abs(np.linalg.norm(c) - 1.0) < _NORM_TOL, (engine, alpha)
        if engine == "dense":
            fd.coherent_density(scn.alpha, scn.cutoff)
        else:
            fd.coherent_state(scn.alpha, scn.cutoff)
