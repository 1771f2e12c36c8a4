import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import fockdamp as fd
from conftest import fock_density, hermitian
from fockdamp import twomode
from fockdamp.analysis import POSITIVITY_LIMIT
from fockdamp.channels import nonlinear_loss
from fockdamp.fock import FockCutoff, annihilation_matrix
from fockdamp.integrate import _strips
from fockdamp.twomode import (
    TwoModeParams,
    _sector_generator,
    elimination_comparison,
    two_mode_evolve,
)


def _liouvillian(u4: complex, gamma_b: float, dim_a: int, dim_b: int) -> sp.csr_matrix:
    """Vectorized generator of the whole pair, row-major: X rho Y -> kron(X, Y^T)."""
    a = annihilation_matrix(FockCutoff(dim_a - 1))
    b = annihilation_matrix(FockCutoff(dim_b - 1))
    exch = (a.conj().T @ a) @ a  # lowers A by one
    h = u4 * np.kron(exch, b.conj().T) + np.conj(u4) * np.kron(exch.conj().T, b)
    d = dim_a * dim_b
    eye = sp.identity(d, dtype=np.complex128, format="csr")
    h_s = sp.csr_matrix(h)
    lsup = -1j * (sp.kron(h_s, eye) - sp.kron(eye, h_s.T))
    if gamma_b > 0:
        jump = sp.csr_matrix(math.sqrt(gamma_b) * np.kron(np.eye(dim_a), b))
        jdj = (jump.conj().T @ jump).tocsr()
        lsup = lsup + sp.kron(jump, jump.conj()) - 0.5 * (
            sp.kron(jdj, eye) + sp.kron(eye, jdj.T)
        )
    return lsup.tocsr()


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def test_one_photon_is_stationary():
    params = TwoModeParams(u4=1.0, gamma_b=30.0, nmax_b=2)
    res = two_mode_evolve(fock_density(1, fd.FockCutoff(3)), params, np.linspace(0, 3, 7))
    assert np.max(np.abs(res.series.populations[:, 1] - 1.0)) < 1e-12
    assert res.b_occupation.max() < 1e-12


def test_exchange_transfers_one_for_one():
    # with the partner undamped, d<n_A>/dt = -d<n_B>/dt under the exchange alone
    lsup = _liouvillian(0.9 + 0.4j, 0.0, 4, 3).toarray()
    rho = random_density(12, 5)
    drho = (lsup @ rho.reshape(-1)).reshape(12, 12)
    diag = np.diag(drho).real.reshape(4, 3)
    dn_a = float(np.sum(diag * np.arange(4)[:, None]))
    dn_b = float(np.sum(diag * np.arange(3)[None, :]))
    assert abs(dn_a + dn_b) < 1e-10


def test_two_mode_matches_expm_oracle():
    rho_a = fd.DensityMatrix(random_density(5, 3))
    params = TwoModeParams(u4=0.8 + 0.3j, gamma_b=12.0, nmax_b=3)
    vacuum_b = np.diag([1.0, 0.0, 0.0, 0.0])
    lsup = _liouvillian(params.u4, params.gamma_b, 5, 4).toarray()
    t = 0.37
    exact = (sla.expm(lsup * t) @ np.kron(rho_a.entries, vacuum_b).reshape(-1)).reshape(20, 20)
    pops_exact = np.diag(exact).real.reshape(5, 4).sum(axis=1)
    with pytest.warns(UserWarning, match="top B level reached 2.96e-05"):
        res = two_mode_evolve(rho_a, params, np.array([0.0, t]))
    assert np.max(np.abs(res.series.populations[-1] - pops_exact)) < 1e-10


def test_sector_generator_matches_liouvillian_sector():
    # on a gauged symmetric Delta N = 0 state, the packed generator gives the
    # packed, gauged time derivative of the whole-pair generator
    params = TwoModeParams(u4=0.8 + 0.3j, gamma_b=12.0, nmax_b=3)
    gen, rows, cols = _sector_generator(params, 5)
    n_b = np.arange(20) % 4
    phase = (1j * np.exp(-1j * np.angle(params.u4))) ** (n_b[rows] - n_b[cols])
    x = np.random.default_rng(7).normal(size=rows.size)
    rho = np.zeros((20, 20), dtype=complex)
    rho[rows, cols] = x / phase
    rho[cols, rows] = x * phase
    lsup = _liouvillian(params.u4, params.gamma_b, 5, 4).toarray()
    drho = (lsup @ rho.reshape(-1)).reshape(20, 20)
    assert np.max(np.abs(gen @ x - (phase * drho[rows, cols]).real)) < 1e-12
    assert np.max(np.abs((phase * drho[rows, cols]).imag)) < 1e-12


def test_the_sector_is_ordered_by_total_excitation():
    # no term raises N = n_A + n_B: the packed entries ascend in N, and the
    # generator feeds no entry from one of lower N, nor from one more than
    # one excitation above it
    params = TwoModeParams(u4=0.8 + 0.3j, gamma_b=12.0, nmax_b=4)
    gen, rows, cols = _sector_generator(params, 13)
    n_tot = rows // 5 + rows % 5
    assert np.array_equal(n_tot, cols // 5 + cols % 5)
    assert np.all(np.diff(n_tot) >= 0)
    to, src = np.nonzero(gen)
    assert np.all(n_tot[to] <= n_tot[src]) and np.all(n_tot[src] <= n_tot[to] + 1)
    # blocks of 1, 3, 6, 10 and then 15 entries; expm merges them into strips of 32 or more
    assert np.array_equal(np.bincount(n_tot), [1, 3, 6, 10] + [15] * 9)
    assert _strips(gen) == (False, [0, 35, 80, 155])


def test_two_photons_decay_at_effective_rate():
    params = TwoModeParams(u4=1.0, gamma_b=50.0, nmax_b=4)
    ge = params.gamma_e
    assert abs(ge - 0.08) < 1e-15  # 50 * (2/50)^2
    grid = np.linspace(0, 20, 11)
    res = two_mode_evolve(fock_density(2, fd.FockCutoff(4)), params, grid)
    # the pair level empties at ~ 2 gamma_e toward the one-photon dark state
    for i, t in enumerate(grid):
        assert abs(res.series.populations[i, 2] - math.exp(-2 * ge * t)) < 0.01
    assert res.series.populations[-1, 1] > 0.93


def test_elimination_error_shrinks_with_damping():
    records = elimination_comparison(
        u4=1.0, alpha=1.0, gamma_bs=(20.0, 40.0), nmax_a=8, nmax_b=3, tau_max=3.0, n_samples=16
    )
    assert records[0].sup_error > records[1].sup_error
    # populations converge at second order in 1/gamma_b
    ratio = records[0].sup_error / records[1].sup_error
    assert 2.0 < ratio < 8.0


def test_elimination_defaults_raise_no_false_alarm():
    # gamma_b = 25, the smallest default, leaves the most mass in the top B
    # level: 4.3e-10, past two_mode_evolve's absolute 1e-10 limit, yet
    # 2.5e7 times below the error it measures
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        (record,) = elimination_comparison(gamma_bs=(25.0,))
    assert 1e-10 < record.b_top_level_mass <= 1e-4 * record.sup_error


def test_elimination_warns_when_truncation_rivals_the_error():
    with pytest.warns(UserWarning, match="top B level") as caught:
        (record,) = elimination_comparison(
            alpha=0.5, nmax_a=4, nmax_b=1, gamma_bs=(25.0,), tau_max=1.0, n_samples=5
        )
    assert record.b_top_level_mass * 1e4 > record.sup_error
    assert len(caught) == 1 and "below the error" in str(caught[0].message)


def test_coherences_of_mode_a_never_reach_the_run():
    # the Delta N = 0 sector of rho_A x |0><0|_B holds only rho_A's populations
    params = TwoModeParams(u4=0.8 + 0.3j, gamma_b=12.0, nmax_b=3)
    rho = random_density(5, 3)
    grid = np.linspace(0, 0.5, 9)
    runs = []
    for m in (rho, rho.conj(), np.diag(np.diag(rho))):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "top B level", UserWarning)
            runs.append(two_mode_evolve(fd.DensityMatrix(m), params, grid))
    first = runs[0]
    for res in runs[1:]:
        for name in ("mean_n", "std_n", "g2", "trace_err", "populations", "min_eigenvalue"):
            assert np.array_equal(getattr(res.series, name), getattr(first.series, name)), name
        assert np.array_equal(res.b_occupation, first.b_occupation)
        assert res.b_top_level_mass == first.b_top_level_mass


def test_params_validation():
    with pytest.raises(ValueError):
        TwoModeParams(u4=1.0, gamma_b=0.0)
    with pytest.warns(UserWarning):
        TwoModeParams(u4=1.0, gamma_b=5.0)
    p = TwoModeParams(u4=1.0, gamma_b=100.0, gamma_a_formula=30.0)
    assert p.gamma_a == 30.0
    assert abs(p.gamma_e - 30.0 * (2.0 / 100.0) ** 2) < 1e-15


@pytest.mark.parametrize("u4", [math.inf, complex(1.0, math.nan), complex(-math.inf, 2.0)])
def test_a_non_finite_u4_is_rejected(u4):
    with pytest.raises(ValueError, match="u4 must be finite"):
        TwoModeParams(u4=u4, gamma_b=100.0)


def test_elimination_without_exchange_names_u4():
    # gamma_e = 0 leaves the scaled grid tau = gamma_e t without extent
    with pytest.raises(ValueError, match="u4 must be nonzero"):
        elimination_comparison(u4=0.0, gamma_bs=(25.0,))


@pytest.mark.parametrize("n_samples", [1, 31, 32, 33, 65])
def test_min_eigenvalue_equals_per_sample_eigvalsh(record_samples, n_samples):
    # samples arrive in blocks of 32, each gated as one stack; these counts
    # cover its edges. The series keeps the last sample's eigenvalue.
    states = record_samples(twomode)
    params = TwoModeParams(u4=0.8 + 0.3j, gamma_b=12.0, nmax_b=3)
    rho_a = fd.DensityMatrix(random_density(5, 3))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "top B level", UserWarning)
        res = two_mode_evolve(rho_a, params, np.linspace(0, 0.5, n_samples))
    _, rows, cols = _sector_generator(params, 5)
    # the gate sees the block of the states with n_A + n_B <= 4, in product order
    reachable = [n_a * 4 + n_b for n_a in range(5) for n_b in range(4) if n_a + n_b <= 4]
    assert np.array_equal(np.unique(rows), reachable)
    compact = np.searchsorted(reachable, rows), np.searchsorted(reachable, cols)
    expected = np.linalg.eigvalsh(hermitian(*compact, states))[:, 0]
    assert len(states) == n_samples
    assert res.series.min_eigenvalue == expected[-1]
    assert expected.min() >= POSITIVITY_LIMIT
