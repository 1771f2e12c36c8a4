import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import fockdamp as fd
from fockdamp.channels import nonlinear_loss
from fockdamp.twomode import (
    TwoModeParams,
    TwoModeState,
    _liouvillian,
    elimination_comparison,
    mode_b_occupation,
    partial_trace_a,
    partial_trace_b,
    product_with_vacuum,
    two_mode_evolve,
)

TIGHT = fd.IntegratorConfig(1e-12, 1e-10)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def test_partial_trace_product_state():
    rho_a = fd.DensityMatrix(random_density(4, 0))
    state = product_with_vacuum(rho_a, 3)
    assert np.allclose(partial_trace_a(state).entries, rho_a.entries, atol=1e-14)
    rho_b = partial_trace_b(state)
    assert abs(rho_b.entries[0, 0] - 1.0) < 1e-14


def test_partial_trace_maximally_mixed():
    state = TwoModeState(np.eye(4, dtype=complex) / 4.0, (2, 2))
    assert np.allclose(partial_trace_a(state).entries, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_entangled():
    # (|1,0> + |0,1>)/sqrt2 on a 2x2 product basis
    v = np.zeros(4, dtype=complex)
    v[2] = v[1] = 1.0 / math.sqrt(2)
    state = TwoModeState(np.outer(v, v.conj()), (2, 2))
    assert np.allclose(partial_trace_a(state).entries, np.diag([0.5, 0.5]), atol=1e-15)
    assert np.allclose(partial_trace_b(state).entries, np.diag([0.5, 0.5]), atol=1e-15)


def test_mode_b_occupation_basis_states():
    rho_a = fd.fock_density(0, fd.FockCutoff(1))
    vac = product_with_vacuum(rho_a, 2)
    assert mode_b_occupation(vac) == 0.0
    m = np.zeros((6, 6), dtype=complex)
    m[1, 1] = 1.0  # |0>_A x |1>_B with dims (2, 3)
    one = TwoModeState(m, (2, 3))
    assert mode_b_occupation(one) == 1.0


def test_one_photon_is_stationary():
    params = TwoModeParams(u4=1.0, gamma_b=30.0, nmax_a=3, nmax_b=2)
    state = product_with_vacuum(fd.fock_density(1, fd.FockCutoff(3)), 2)
    res = two_mode_evolve(state, params, np.linspace(0, 3, 7), TIGHT)
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
    params = TwoModeParams(u4=0.8 + 0.3j, gamma_b=12.0, nmax_a=4, nmax_b=3)
    state = product_with_vacuum(rho_a, 3)
    lsup = _liouvillian(params.u4, params.gamma_b, 5, 4).toarray()
    t = 0.37
    exact = (sla.expm(lsup * t) @ state.entries.reshape(-1)).reshape(20, 20)
    pops_exact = np.diag(exact).real.reshape(5, 4).sum(axis=1)
    res = two_mode_evolve(state, params, np.array([0.0, t]), TIGHT)
    assert np.max(np.abs(res.series.populations[-1] - pops_exact)) < 1e-10


def test_two_photons_decay_at_effective_rate():
    params = TwoModeParams(u4=1.0, gamma_b=50.0, nmax_a=4, nmax_b=4)
    ge = params.gamma_e
    assert abs(ge - 0.08) < 1e-15  # 50 * (2/50)^2
    state = product_with_vacuum(fd.fock_density(2, fd.FockCutoff(4)), 4)
    grid = np.linspace(0, 20, 11)
    res = two_mode_evolve(state, params, grid, TIGHT)
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


def test_requires_vacuum_partner():
    m = np.zeros((6, 6), dtype=complex)
    m[1, 1] = 1.0  # B starts excited
    state = TwoModeState(m, (2, 3))
    params = TwoModeParams(u4=1.0, gamma_b=30.0, nmax_a=1, nmax_b=2)
    with pytest.raises(ValueError):
        two_mode_evolve(state, params, np.array([0.0, 1.0]), TIGHT)


def test_params_validation():
    with pytest.raises(ValueError):
        TwoModeParams(u4=1.0, gamma_b=0.0)
    with pytest.warns(UserWarning):
        TwoModeParams(u4=1.0, gamma_b=5.0)
    p = TwoModeParams(u4=1.0, gamma_b=100.0, gamma_a_formula=30.0)
    assert p.gamma_a == 30.0
    assert abs(p.gamma_e - 30.0 * (2.0 / 100.0) ** 2) < 1e-15


def test_dimension_mismatch():
    state = product_with_vacuum(fd.fock_density(0, fd.FockCutoff(2)), 2)
    params = TwoModeParams(u4=1.0, gamma_b=30.0, nmax_a=5, nmax_b=2)
    with pytest.raises(fd.DimensionMismatch):
        two_mode_evolve(state, params, np.array([0.0, 1.0]), TIGHT)
