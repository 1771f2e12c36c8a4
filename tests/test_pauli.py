import math

import numpy as np
import pytest
import scipy.linalg as sla

import fockdamp as fd
from conftest import population_oracle
from fockdamp.channels import linear_loss, nonlinear_loss, three_photon_loss, two_photon_loss
from fockdamp import pauli
from fockdamp.pauli import (
    PopulationVector,
    evolve_population_batch,
    evolve_populations,
)


def poisson_vector(mean, nmax):
    return np.array(
        [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1)) for n in range(nmax + 1)]
    )



def _level_rates(channel, nmax):
    """The engine's generator and the operator-product oracle, each checked by hand."""
    gen = pauli.population_generator([channel], nmax)
    rates = population_oracle([channel], nmax)
    np.testing.assert_allclose(gen, rates, rtol=1e-14, atol=1e-12)
    return gen


def test_population_rates_nonlinear():
    rates = _level_rates(nonlinear_loss(1.0), 5)
    assert rates[3, 3] == pytest.approx(-12.0, rel=1e-14)  # k(k-1)^2 at k=3
    assert rates[3, 4] == pytest.approx(36.0, rel=1e-14)  # 4*3^2, fed from level 4
    assert np.count_nonzero(rates[:, 4]) == 2  # level 4 feeds level 3 only


def test_population_rates_dark_level():
    rates = _level_rates(nonlinear_loss(1.0), 5)
    assert rates[1, 1] == 0.0
    assert np.count_nonzero(rates[:, 1]) == 0


def test_population_rates_three_photon():
    rates = _level_rates(three_photon_loss(1.0), 8)
    assert rates[5, 5] == pytest.approx(-60.0, rel=1e-14)  # 5!/2! by hand
    assert rates[5, 8] == pytest.approx(8 * 7 * 6, rel=1e-14)  # fed from level 8
    assert np.count_nonzero(rates[:, 8]) == 2  # level 8 feeds level 5 only


def test_two_level_cascade_closed_form():
    p0 = np.zeros(6)
    p0[2] = 1.0
    grid = np.linspace(0, 3, 13)
    series = evolve_populations(p0, [nonlinear_loss(1.0)], grid)
    for i, t in enumerate(grid):
        assert abs(series.populations[i, 2] - math.exp(-2 * t)) < 1e-9
        assert abs(series.populations[i, 1] - (1 - math.exp(-2 * t))) < 1e-9


def test_poisson_collapses_to_single_photon():
    p0 = poisson_vector(9.0, 40)
    series = evolve_populations(p0, [nonlinear_loss(1.0)], np.linspace(0, 100, 11))
    assert abs(series.populations[-1, 1] - (1 - math.exp(-9))) < 1e-8
    assert abs(series.populations[-1, 0] - math.exp(-9)) < 1e-10


def test_vacuum_weight_decoupled():
    p0 = poisson_vector(9.0, 40)
    series = evolve_populations(p0, [nonlinear_loss(1.0)], np.linspace(0, 50, 26))
    assert np.max(np.abs(series.populations[:, 0] - p0[0])) < 1e-10


def test_trapping_monotone():
    p0 = poisson_vector(9.0, 40)
    series = evolve_populations(p0, [nonlinear_loss(1.0)], np.linspace(0, 20, 81))
    trapped = series.populations[:, 0] + series.populations[:, 1]
    assert np.all(np.diff(trapped) > -1e-10)
    # slowest cascade rate is 2 (level 2): residual above one photon bounded accordingly
    i10 = np.searchsorted(series.t, 10.0)
    assert series.populations[i10, 2:].sum() < 1e-8


def test_three_photon_from_level_three():
    p0 = np.zeros(8)
    p0[3] = 1.0
    series = evolve_populations(p0, [three_photon_loss(1.0)], np.linspace(0, 10, 6))
    assert abs(series.populations[-1, 0] - 1.0) < 1e-9


def test_parity_conservation():
    p0 = poisson_vector(9.0, 40)
    series = evolve_populations(p0, [two_photon_loss(1.0)], np.linspace(0, 30, 31))
    even0, odd0 = p0[0::2].sum(), p0[1::2].sum()
    for row in series.populations:
        assert abs(row[0::2].sum() - even0) < 1e-10
        assert abs(row[1::2].sum() - odd0) < 1e-10


def test_mod3_conservation():
    p0 = poisson_vector(9.0, 40)
    series = evolve_populations(p0, [three_photon_loss(1.0)], np.linspace(0, 30, 31))
    classes0 = [p0[r::3].sum() for r in range(3)]
    for row in series.populations:
        for r in range(3):
            assert abs(row[r::3].sum() - classes0[r]) < 1e-10


def test_probability_conserved():
    p0 = poisson_vector(4.0, 25)
    series = evolve_populations(
        p0, [nonlinear_loss(1.0), linear_loss(0.1)], np.linspace(0, 10, 21)
    )
    assert series.trace_err.max() < 1e-10


def test_matches_dense_engine():
    cut = fd.FockCutoff(16)
    rho0 = fd.coherent_density(1.5, cut, tail_tol=1e-9)
    grid = np.linspace(0, 5, 11)
    channels = [nonlinear_loss(1.0), linear_loss(0.05), two_photon_loss(0.03), three_photon_loss(0.01)]
    dense, _ = fd.evolve(rho0, channels, None, grid)
    pop = evolve_populations(PopulationVector.from_density(rho0), channels, grid)
    assert np.max(np.abs(dense.populations - pop.populations)) < 1e-8


_FIELDS = ("populations", "trace_err", "mean_n", "std_n", "g2")


@pytest.mark.parametrize(
    "channel_sets, tol",
    [
        # generator norms within one power of two: the stack takes the
        # squarings of each cascade alone, so every value is equal
        ([[nonlinear_loss(1.0)], [nonlinear_loss(1.0), linear_loss(0.05)],
          [nonlinear_loss(1.0), two_photon_loss(0.02)]], 0.0),
        # norms from 0 to 2500: the small ones take the largest one's
        # squarings here, which moves them at rounding level (3.6e-15 in std_n)
        ([[nonlinear_loss(1.0)], [two_photon_loss(0.3)], [three_photon_loss(0.2), linear_loss(0.5)],
          [linear_loss(2.0)], []], 1e-12),
    ],
    ids=["same-scaling", "mixed-norms"],
)
def test_batch_matches_one_run_per_cascade(channel_sets, tol):
    p0s = [poisson_vector(mean, 30) for mean in (4.0, 6.0, 2.0, 5.0, 0.5)[: len(channel_sets)]]
    grid = np.linspace(0, 6, 81)  # three sample blocks
    batch = evolve_population_batch(p0s, channel_sets, grid)
    for p0, channels, series in zip(p0s, channel_sets, batch, strict=True):
        alone = evolve_populations(p0, channels, grid)
        assert np.array_equal(series.t, alone.t)
        for name in _FIELDS:
            diff = np.max(np.abs(getattr(series, name) - getattr(alone, name)))
            assert diff <= tol, name


def test_batch_reports_the_earliest_drift_in_time_then_in_order(monkeypatch):
    exact = pauli.expm
    grid = np.linspace(0, 6, 21)
    p0s = [poisson_vector(4.0, 30)] * 3
    channels = [[nonlinear_loss(1.0)]] * 3

    def inflated(*scales):
        monkeypatch.setattr(pauli, "expm", lambda a: exact(a) * np.array(scales)[:, None, None])

    # cascade 0 drifts past 1e-8 at the fourth step, cascade 1 at the first
    inflated(1.0 + 3e-9, 1.0 + 1e-7, 1.0)
    with pytest.raises(fd.TraceDriftExceeded, match=r"by 1\.000e-07 at t=0\.3 "):
        list(evolve_population_batch(p0s, channels, grid))
    # cascades 1 and 2 both drift at the first step; cascade 1 is reported
    inflated(1.0, 1.0 + 1e-7, 1.0 + 2e-7)
    with pytest.raises(fd.TraceDriftExceeded, match=r"by 1\.000e-07 at t=0\.3 "):
        list(evolve_population_batch(p0s, channels, grid))
    inflated(1.0 + 3e-9, 1.0, 1.0)
    with pytest.raises(fd.TraceDriftExceeded, match=r"by 1\.200e-08 at t=1\.2 "):
        list(evolve_population_batch(p0s, channels, grid))


def test_batch_stacks_at_most_eight_cascades(monkeypatch):
    sizes = []
    original = pauli.integrate

    def recorded(propagator, y0, t_grid, cfg, **kwargs):
        sizes.append(len(y0))
        return original(propagator, y0, t_grid, cfg, **kwargs)

    monkeypatch.setattr(pauli, "integrate", recorded)
    channels = [[nonlinear_loss(1.0), linear_loss(0.01 * i)] for i in range(9)]
    grid = np.linspace(0, 2, 5)
    batch = list(evolve_population_batch([poisson_vector(2.0, 12)] * 9, channels, grid))
    assert sizes == [8, 1]
    assert len(batch) == 9
    assert batch[8].populations[-1, 0] > batch[0].populations[-1, 0]


def test_batch_needs_one_state_per_channel_set():
    with pytest.raises(ValueError, match="2 initial states for 1 channel sets"):
        list(evolve_population_batch([poisson_vector(1.0, 5)] * 2, [[]], np.linspace(0, 1, 3)))


def test_negative_population_rejected():
    with pytest.raises(ValueError):
        PopulationVector(np.array([0.5, -1e-6]))


def _superposition(levels, nmax):
    v = np.zeros(nmax + 1, dtype=complex)
    v[list(levels)] = 1.0 / math.sqrt(len(levels))
    return fd.DensityMatrix(np.outer(v, v.conj()))


def test_stripe_two_element_closed_form():
    # (|2> + |3>)/sqrt2 under the nonlinear channel: in stripe d = 1,
    # rho_32' = -7 rho_32 (coefficients (12+2)/2) and rho_21' = -rho_21 +
    # sqrt(24) rho_32, so rho_21(t) = sqrt(24)/12 (e^-t - e^-7t) by hand
    rho0 = _superposition((2, 3), 5)
    for t in (0.3, 0.6):
        _, final = fd.evolve(rho0, [nonlinear_loss(1.0)], None, np.array([0.0, t]))
        expected_21 = math.sqrt(24.0) / 12.0 * (math.exp(-t) - math.exp(-7 * t))
        assert abs(final.entries[2, 1] - expected_21) < 1e-14
        assert abs(final.entries[3, 2] - 0.5 * math.exp(-7 * t)) < 1e-14
        assert abs(final.entries[1, 0]) == 0.0


def test_stripe_bottom_element_undamped():
    # rho_10 has zero decay coefficient; alone it must stay put
    rho0 = _superposition((0, 1), 3)
    _, final = fd.evolve(rho0, [nonlinear_loss(1.0)], None, np.array([0.0, 2.0]))
    assert abs(final.entries[1, 0] - 0.5) < 1e-14


def test_stripe_diagonal_equals_population_path():
    # stripe 0 of the dense engine is the population cascade
    cut = fd.FockCutoff(40)
    rho0 = fd.coherent_density(3.0, cut)
    grid = np.linspace(0, 8, 17)
    dense, final = fd.evolve(rho0, [nonlinear_loss(1.0)], None, grid)
    series = evolve_populations(rho0.populations(), [nonlinear_loss(1.0)], grid)
    assert np.max(np.abs(dense.populations - series.populations)) < 1e-10
    assert np.max(np.abs(np.diag(final.entries).imag)) == 0.0


def test_stripe_matches_dense_coherences():
    # oracle: the stripe d = 2 generator written out by hand. Element
    # (k, k+d) decays at (1/2)[k(k-1)^2 + l(l-1)^2] and is fed by (k+1, l+1)
    # with coefficient k sqrt(k+1) * l sqrt(l+1)
    cut = fd.FockCutoff(14)
    rho0 = fd.coherent_density(1.5, cut, tail_tol=1e-7)
    d, t_end = 2, 4.0
    k = np.arange(cut.dim - d)
    l = k + d
    gen = np.diag(-0.5 * (k * (k - 1.0) ** 2 + l * (l - 1.0) ** 2))
    gen += np.diag((k[:-1] * np.sqrt(k[:-1] + 1.0) * l[:-1] * np.sqrt(l[:-1] + 1.0)), 1)
    oracle = sla.expm(gen * t_end) @ rho0.entries[k, l]
    _, final = fd.evolve(rho0, [nonlinear_loss(1.0)], None, np.linspace(0, t_end, 9))
    assert np.max(np.abs(final.entries[k, l] - oracle)) < 1e-12


def test_stripe_validation():
    # a dense state must be a DensityMatrix whose lower stripes mirror the upper
    with pytest.raises(ValueError):
        fd.DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(fd.DimensionMismatch):
        fd.evolve(np.eye(3) / 3.0, [nonlinear_loss(1.0)], None, np.array([0.0, 1.0]))


# each engine run from (|0> + |1>)/sqrt2 at nmax = 2 under the given channels
_ENGINE_RUNS = {
    "dense": lambda channels, grid: fd.evolve(_superposition((0, 1), 2), channels, None, grid),
    "pauli": lambda channels, grid: evolve_populations(
        _superposition((0, 1), 2).populations(), channels, grid
    ),
    "trajectories": lambda channels, grid: fd.run_ensemble(
        fd.PureState(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)), channels, None,
        fd.TrajectoryConfig(n_traj=4, master_seed=1, t_grid=grid),
    ),
}


@pytest.mark.parametrize("engine", sorted(_ENGINE_RUNS))
def test_channel_that_empties_the_cutoff_raises(engine):
    # a^3 annihilates every level up to n = 2, on every engine alike
    grid = np.array([0.0, 1.0])
    with pytest.raises(fd.DimensionMismatch, match=r"a\^3 annihilates the whole space at nmax=2"):
        _ENGINE_RUNS[engine]([three_photon_loss(1.0)], grid)
    _ENGINE_RUNS[engine]([three_photon_loss(0.0), linear_loss(1.0)], grid)  # a zero rate is inert
