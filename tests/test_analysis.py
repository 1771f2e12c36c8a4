import importlib
import math

import numpy as np
import pytest

import fockdamp as fd
from conftest import fock_density, matrix_samples, population_oracle, states_with_lowest
from fockdamp.analysis import (
    TimeSeries,
    find_sigma_min,
    moments,
    observables,
    steady_state_prediction,
)
from fockdamp.channels import linear_loss, nonlinear_loss, three_photon_loss, two_photon_loss
from fockdamp.scenario import parse_scenario, preset_scenarios
from fockdamp.twomode import _sector_generator


def poisson_vector(mean, nmax):
    return np.array(
        [math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1)) for n in range(nmax + 1)]
    )


def test_observables_coherent():
    obs = observables(fd.coherent_density(3.0, fd.FockCutoff(40)))
    assert abs(obs.mean_n - 9.0) < 1e-9
    assert abs(obs.std_n - 3.0) < 1e-9
    assert abs(obs.g2 - 1.0) < 1e-10


def test_observables_fock_one():
    obs = observables(fock_density(1, fd.FockCutoff(3)))
    assert obs.mean_n == 1.0
    assert obs.std_n == 0.0
    assert obs.g2 == 0.0


def test_observables_mixture():
    obs = observables(np.array([0.5, 0.5]))
    assert abs(obs.mean_n - 0.5) < 1e-15
    assert abs(obs.std_n - 0.5) < 1e-15


def test_observables_vacuum_g2_defined_zero():
    assert observables(np.array([1.0, 0.0])).g2 == 0.0


@pytest.mark.filterwarnings("error")
def test_moments_g2_is_zero_where_the_squared_mean_underflows():
    # a mean of 1e-170 squares to 0.0, so n(n-1)/mean^2 would be 0/0
    mean, std, g2 = moments(np.array([[1.0 - 1e-170, 1e-170, 0.0]]))
    assert mean[0] == 1e-170
    assert std[0] > 0.0
    assert g2[0] == 0.0


def test_moments_match_observables_row_by_row():
    rng = np.random.default_rng(11)
    pops = rng.random((40, 9)) ** 3
    pops /= pops.sum(axis=1, keepdims=True)
    pops[0] = np.eye(9)[0]  # vacuum: zero mean, g2 defined as 0
    pops[1] = np.eye(9)[1]  # one photon: zero variance
    mean, std, g2 = moments(pops)
    # reference: the formulas written out for one row at a time
    n = np.arange(9.0)
    ref_mean = np.array([float(n @ p) for p in pops])
    ref_second = np.array([float((n * n) @ p) for p in pops])
    ref_std = np.sqrt(np.maximum(ref_second - ref_mean**2, 0.0))
    ref_g2 = [float((n * (n - 1.0)) @ p) / m**2 if m > 0 else 0.0 for p, m in zip(pops, ref_mean)]
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-15, atol=0)
    np.testing.assert_allclose(g2, ref_g2, rtol=1e-15, atol=0)
    # std_n = sqrt(<n^2> - mean^2) loses the digits the subtraction cancels,
    # so the variances are compared, to 1e-15 of <n^2>
    assert np.all(np.abs(std**2 - ref_std**2) <= 1e-15 * ref_second)
    assert g2[0] == 0.0 and std[1] == 0.0
    obs = observables(pops[5])  # the one-row case
    np.testing.assert_allclose(
        [obs.mean_n, obs.std_n, obs.g2], [mean[5], std[5], g2[5]], rtol=1e-15
    )


# each exact engine run on a small state for the drift test below
_DRIFT_RUNS = {
    "pauli": lambda grid: fd.evolve_populations(
        fd.PopulationVector(fock_density(3, fd.FockCutoff(4)).populations()),
        [nonlinear_loss(1.0)], grid,
    ),
    "dynamics": lambda grid: fd.evolve(
        fock_density(3, fd.FockCutoff(4)), [nonlinear_loss(1.0)], None, grid
    ),
    "twomode": lambda grid: fd.two_mode_evolve(
        fock_density(2, fd.FockCutoff(3)), fd.TwoModeParams(u4=1.0, gamma_b=30.0, nmax_b=2),
        grid,
    ),
}


@pytest.mark.parametrize("engine", sorted(_DRIFT_RUNS))
def test_trace_drift_raises_at_the_first_step(monkeypatch, engine):
    # a propagator inflated by 1e-6 moves the trace 100 times past the 1e-8 limit
    module = importlib.import_module(f"fockdamp.{engine}")
    exact = module.expm
    monkeypatch.setattr(module, "expm", lambda a: exact(a) * (1.0 + 1e-6))
    with pytest.raises(fd.TraceDriftExceeded, match=r"trace drifted by 1\.000e-06 at t=0\.25 "):
        _DRIFT_RUNS[engine](np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("engine", sorted(_DRIFT_RUNS))
def test_trace_drift_raises_at_the_first_sample_past_the_limit_in_a_later_block(
    monkeypatch, engine
):
    # inflated by 1.5e-10, the trace drifts by 9.90e-09 at sample 66 and by
    # 1.005e-08 at sample 67, the fourth sample of the third block of 32
    module = importlib.import_module(f"fockdamp.{engine}")
    exact = module.expm
    monkeypatch.setattr(module, "expm", lambda a: exact(a) * (1.0 + 1.5e-10))
    grid = np.linspace(0.0, 1.0, 101)
    message = rf"trace drifted by 1\.00\de-08 at t={grid[67]:.6g} "
    with pytest.raises(fd.TraceDriftExceeded, match=message):
        _DRIFT_RUNS[engine](grid)


# a Hermitian unit-trace state whose vacuum population is -1e-6
_NEGATIVE = np.diag([-1e-6, 1.0 + 1e-6, 0.0, 0.0])


@pytest.mark.parametrize("engine", ["dynamics", "twomode"])
def test_positivity_violation_raises_at_the_first_sample(engine):
    rho = fd.DensityMatrix(_NEGATIVE)
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(fd.PositivityViolated, match=r"min eigenvalue -1\.000e-06 at t=0 "):
        if engine == "dynamics":
            fd.evolve(rho, [nonlinear_loss(1.0)], None, grid)
        else:
            fd.two_mode_evolve(rho, fd.TwoModeParams(u4=1.0, gamma_b=30.0, nmax_b=2), grid)


@pytest.mark.parametrize("engine", ["dynamics", "twomode"])
def test_positivity_violation_raises_at_the_first_sample_in_a_later_block(monkeypatch, engine):
    # both runs start from a Fock state, so the vacuum (for the pair, with B
    # empty) stays empty and uncoupled; from sample 67, the fourth of the third
    # block of 32, 1e-6 of weight moves from it to the next level, which keeps
    # the trace and leaves one eigenvalue of -1e-6
    if engine == "dynamics":
        vacuum, one = (0, 0), (0, 1)  # stripe 0, levels 0 and 1
    else:
        _, rows, cols = _sector_generator(fd.TwoModeParams(u4=1.0, gamma_b=30.0, nmax_b=2), 4)
        on = np.flatnonzero(rows == cols)  # the sector's diagonal, in order
        vacuum, one = (on[0],), (on[3],)  # |0,0> and |1,0> at nmax_b = 2
    module = importlib.import_module(f"fockdamp.{engine}")
    original = module.integrate

    def integrate(propagator, y0, t_grid, cfg, post_accept, **kwargs):
        def shifted(start, ys):
            late = ys[max(67 - start, 0) :]
            late[(slice(None),) + vacuum] -= 1e-6
            late[(slice(None),) + one] += 1e-6
            post_accept(start, ys)

        return original(propagator, y0, t_grid, cfg, post_accept=shifted, **kwargs)

    monkeypatch.setattr(module, "integrate", integrate)
    grid = np.linspace(0.0, 1.0, 101)
    message = rf"min eigenvalue -1\.000e-06 at t={grid[67]:.6g} "
    with pytest.raises(fd.PositivityViolated, match=message):
        _DRIFT_RUNS[engine](grid)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_positivity_gate_band(monkeypatch, complex_):
    # these states fill every level, so the gate factors them whole, shifted
    # by 2.5e-9: a zero eigenvalue passes it, -7e-9 fails it and eigvalsh
    # clears the block, -1.2e-8 is below the limit
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, UPLO="L": calls.append(a.shape) or eigvalsh(a, UPLO=UPLO)
    )
    n, t = 12, np.arange(8.0)
    for lowest, stacked in ((0.0, False), (-7e-9, True)):
        calls.clear()
        states = states_with_lowest([0.0] * 5 + [lowest] + [0.0] * 2, n, complex_, 7)
        samples = matrix_samples(t, n)
        samples.add(0, states.reshape(len(t), -1))
        assert calls == [(8, n, n)] * stacked + [(n, n)]
        assert samples.min_eigenvalue == eigvalsh(states[-1])[0]
    states = states_with_lowest([0.0] * 5 + [-1.2e-8] + [0.0] * 2, n, complex_, 7)
    with pytest.raises(fd.PositivityViolated, match=r"min eigenvalue -1\.200e-08 at t=5 "):
        matrix_samples(t, n).add(0, states.reshape(len(t), -1))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_positivity_gate_rejects_nan(complex_):
    # OpenBLAS factors a nan without failing; the gate must still reject it
    states = states_with_lowest([0.0] * 3, 6, complex_, 1)
    states[1, 2, 4] = states[1, 4, 2] = np.nan
    with pytest.raises(fd.PositivityViolated, match=r"^non-finite state entry at t=1$"):
        matrix_samples(np.arange(3.0), 6).add(0, states.reshape(3, -1))


def _record_calls(monkeypatch, name):
    """Wrap ``np.linalg.<name>`` and return the list of the shapes it receives."""
    shapes, original = [], getattr(np.linalg, name)
    monkeypatch.setattr(
        np.linalg, name, lambda a, *args, **kw: shapes.append(a.shape) or original(a, *args, **kw)
    )
    return shapes


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_the_gate_never_passes_a_non_finite_trailing_entry(monkeypatch, complex_, value):
    # the weight sits on levels 0..2 and the bad entry in column 10, far
    # outside them: the gate must take it into its block, fail, and name the
    # sample before eigvalsh, which does not converge on it, is called
    chol_calls = _record_calls(monkeypatch, "cholesky")
    eig_calls = _record_calls(monkeypatch, "eigvalsh")
    n = 12
    states = np.zeros((4, n, n), dtype=complex if complex_ else float)
    states[:, :3, :3] = [[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]]
    states[2, 8, 10] = states[2, 10, 8] = value
    samples = matrix_samples(np.arange(4.0), n)
    with pytest.raises(fd.PositivityViolated, match=r"^non-finite state entry at t=2$"):
        samples.add(0, states.reshape(4, -1))
    assert chol_calls == [(4, 11, 11)]
    assert eig_calls == []


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("trailing", [38, 97])
def test_the_gate_finds_an_eigenvalue_hidden_in_the_trailing_levels(monkeypatch, complex_, trailing):
    # level 2 is empty, and it couples to each of the trailing levels by b,
    # with |b| = 1.2e-8 / sqrt(trailing): 1.9e-9 at 38 levels, and 1.2e-9, each
    # entry below the tail bound of 1.25e-9, at 97. Together they give sample 5
    # an eigenvalue of -1.2e-8 that no leading block shows: the block over
    # levels 0..2 is positive semidefinite.
    n = 3 + trailing
    states = np.zeros((8, n, n), dtype=complex if complex_ else float)
    states[:, :3, :3] = np.diag([0.6, 0.4, 0.0])
    phases = np.exp(2j * np.pi * np.arange(trailing) / 7) if complex_ else np.ones(trailing)
    states[5, 2, 3:] = 1.2e-8 / math.sqrt(trailing) * phases
    states[5, 3:, 2] = states[5, 2, 3:].conj()
    assert np.linalg.eigvalsh(states[5, :3, :3])[0] >= 0.0
    chol_calls = _record_calls(monkeypatch, "cholesky")
    with pytest.raises(fd.PositivityViolated, match=r"min eigenvalue -1\.200e-08 at t=5 "):
        matrix_samples(np.arange(8.0), n).add(0, states.reshape(8, -1))
    # the gate widened its block past level 2, to the column where the
    # weight outside fell below the bound
    assert chol_calls[0][1] >= n - 1


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_the_gate_finds_a_negative_eigenvalue_below_empty_columns(monkeypatch, complex_):
    # every sample holds levels 0..3 only, and sample 3 has an eigenvalue of
    # -1e-6 there: the columns above hold exact zeros, which the gate skips,
    # and it must still factor levels 0..3 and reject the block
    n = 16
    states = np.zeros((6, n, n), dtype=complex if complex_ else float)
    states[:, :4, :4] = states_with_lowest([0.0, 0.0, 0.0, -1e-6, 0.0, 0.0], 4, complex_, 3)
    chol_calls = _record_calls(monkeypatch, "cholesky")
    with pytest.raises(fd.PositivityViolated, match=r"min eigenvalue -1\.000e-06 at t=3 "):
        matrix_samples(np.arange(6.0), n).add(0, states.reshape(6, -1))
    assert chol_calls == [(6, 4, 4)]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_the_gate_holds_a_non_finite_value_in_the_highest_level(complex_, value):
    # levels 1..15 are empty in every sample, but sample 2 couples level 15
    # to level 0 by a nan or inf, its only entry in column 15: the gate
    # counts that column as held
    n = 16
    states = np.zeros((4, n, n), dtype=complex if complex_ else float)
    states[:, 0, 0] = 1.0
    states[2, 0, n - 1] = states[2, n - 1, 0] = value
    with pytest.raises(fd.PositivityViolated, match=r"^non-finite state entry at t=2$"):
        matrix_samples(np.arange(4.0), n).add(0, states.reshape(4, -1))


def test_the_gate_factors_only_the_occupied_levels_after_the_first_block(monkeypatch):
    # fig. 2's add_mixed run: alpha = 3, nmax = 40, 2001 samples to t = 100.
    # The first block holds the coherent state and is factored whole; by the
    # second the attenuator has drained every level above 3 below the bound.
    (raw,) = [r for r in preset_scenarios("fig2") if r["name"].endswith("add_mixed")]
    scn = parse_scenario(raw)
    chol_calls = _record_calls(monkeypatch, "cholesky")
    eig_calls = _record_calls(monkeypatch, "eigvalsh")
    fd.evolve(fd.coherent_density(scn.alpha, scn.cutoff), scn.channels(), scn.kerr(), scn.t_grid)
    assert len(chol_calls) == -(-scn.samples // 32)
    assert chol_calls[0] == (32, 41, 41)
    assert all(shape[0] <= 32 and shape[1] == shape[2] <= 4 for shape in chol_calls[1:])
    assert eig_calls == [(41, 41)]  # the last sample only: every block passed the gate
    # the two-mode sector passes the same gate on every block; its last sample
    # is decomposed on the 55 states with n_A + n_B <= 12 (n_A <= 12, n_B <= 4)
    chol_calls.clear()
    eig_calls.clear()
    rho_a = fd.coherent_density(1.5, fd.FockCutoff(12), tail_tol=1e-4)
    fd.two_mode_evolve(rho_a, fd.TwoModeParams(u4=1.0, gamma_b=100.0), np.linspace(0, 100, 41))
    reachable = sum(1 for n_a in range(13) for n_b in range(5) if n_a + n_b <= 12)
    assert len(chol_calls) == 2 and eig_calls == [(reachable, reachable)] == [(55, 55)]


def test_steady_pure_nonlinear():
    p0 = poisson_vector(9.0, 40)
    pred = steady_state_prediction(p0, [nonlinear_loss(1.0)])
    assert abs(pred.populations[1] - (1 - math.exp(-9))) < 1e-12
    assert abs(pred.populations[0] - math.exp(-9)) < 1e-15
    assert pred.populations[2:].sum() == 0.0
    assert abs(pred.populations.sum() - p0.sum()) < 1e-12


def test_steady_pure_two_photon_parity():
    p0 = poisson_vector(9.0, 40)
    pred = steady_state_prediction(p0, [two_photon_loss(0.7)])
    # odd Poisson mass has the closed form (1 - e^{-2 mean}) / 2
    assert abs(pred.populations[1] - (1 - math.exp(-18)) / 2) < 1e-12
    assert abs(pred.populations[0] - (1 + math.exp(-18)) / 2) < 1e-12


def test_steady_pure_three_photon_residues():
    p0 = poisson_vector(9.0, 40)
    pred = steady_state_prediction(p0, [three_photon_loss(1.0)])
    for r in range(3):
        assert abs(pred.populations[r] - p0[r::3].sum()) < 1e-15
    assert abs(pred.populations.sum() - p0.sum()) < 1e-12


def test_steady_linear_mix_empties():
    p0 = poisson_vector(4.0, 25)
    pred = steady_state_prediction(p0, [nonlinear_loss(1.0), linear_loss(0.01)])
    assert abs(pred.populations[0] - p0.sum()) < 1e-12
    assert pred.populations[1:].sum() == 0.0


def test_steady_no_closed_form():
    p0 = poisson_vector(4.0, 25)
    with pytest.raises(fd.NoClosedForm):
        steady_state_prediction(p0, [nonlinear_loss(0.0)])


def test_steady_needs_every_active_channel_inside_the_cutoff():
    # a^3 empties levels 0..2, as every engine reports; a zero rate is ignored
    p0 = poisson_vector(1.0, 2)
    with pytest.raises(fd.DimensionMismatch):
        steady_state_prediction(p0, [nonlinear_loss(1.0), three_photon_loss(0.1)])
    pred = steady_state_prediction(p0, [nonlinear_loss(1.0), three_photon_loss(0.0)])
    assert pred.regime == "mass collects on the dark levels {0, 1}"


def test_steady_predictions_match_long_runs():
    # the cascade's dark-level weights vs a long numeric run, for the mixes a
    # conservation law pins and for mixes that no law pins
    p0 = poisson_vector(9.0, 40)
    cases = [
        [nonlinear_loss(1.0)],
        [two_photon_loss(1.0)],
        [three_photon_loss(1.0)],
        [nonlinear_loss(1.0), linear_loss(1.0)],
        [nonlinear_loss(1.0), two_photon_loss(0.1)],
        [nonlinear_loss(1.0), two_photon_loss(0.05), three_photon_loss(0.02)],
        [two_photon_loss(0.3), three_photon_loss(1.0)],
    ]
    for channels in cases:
        pred = steady_state_prediction(p0, channels)
        # the population generator is triangular: its eigenvalues, the decay
        # rates, are its diagonal, and the slowest is the smallest nonzero one
        rates = np.abs(np.diag(fd.population_generator(channels, 40)))
        t_end = 100.0 / rates[rates > 0.0].min()
        series = fd.evolve_populations(p0, channels, np.array([0.0, t_end]))
        assert np.max(np.abs(series.populations[-1] - pred.populations)) < 1e-12
    # the gamma_e + gamma_s admixture of fig. 2 keeps 95 % at one photon
    pred = steady_state_prediction(p0, [nonlinear_loss(1.0), two_photon_loss(0.05)])
    assert abs(pred.populations[1] - 0.953452) < 1e-6


@pytest.mark.parametrize(
    "channels",
    [
        [nonlinear_loss(1.0), two_photon_loss(0.05)],
        [nonlinear_loss(1.0), linear_loss(0.3), two_photon_loss(0.7), three_photon_loss(0.2)],
        [two_photon_loss(0.3), three_photon_loss(1.0)],
    ],
    ids=["fig2-mix", "four-channels", "two-and-three"],
)
def test_steady_prediction_matches_the_level_rates(channels):
    # the branching-ratio pass down the operator-product population oracle,
    # independent of the generator the prediction reads; 40 passes in double precision
    p0 = poisson_vector(9.0, 40)
    rates = population_oracle(channels, 40)
    q = p0.copy()
    for n in range(40, -1, -1):
        if rates[n, n] < 0.0:
            q[:n] += q[n] * rates[:n, n] / -rates[n, n]
            q[n] = 0.0
    pred = steady_state_prediction(p0, channels).populations
    assert np.max(np.abs(pred - q)) <= 1e-14


def test_effective_rate_formula():
    assert abs(fd.effective_rate(1.0, 100.0, 100.0) - 0.04) < 1e-15
    assert fd.effective_rate(0.0, 50.0, 50.0) == 0.0
    # quadratic law: doubling gamma_b at fixed gamma_a quarters the rate
    assert abs(fd.effective_rate(1.0, 50.0, 10.0) / fd.effective_rate(1.0, 100.0, 10.0) - 4.0) < 1e-12
    with pytest.raises(fd.NonpositiveGammaB):
        fd.effective_rate(1.0, 0.0, 1.0)


def _series_from_sigma(t, sigma):
    n = t.size
    pops = np.tile(np.array([0.2, 0.8]), (n, 1))
    zeros = np.zeros(n)
    return TimeSeries(t, zeros, sigma, zeros, zeros, pops)


def test_sigma_min_parabola():
    t = np.arange(0.0, 5.0001, 0.1)
    series = _series_from_sigma(t, (t - 2.5) ** 2 + 0.1)
    sm = find_sigma_min(series, (0.0, 5.0))
    assert abs(sm.t_star - 2.5) < 1e-3
    assert abs(sm.sigma_star - 0.1) < 1e-9


def test_sigma_min_off_grid_vertex():
    t = np.arange(0.0, 5.0001, 0.1)
    series = _series_from_sigma(t, 0.7 * (t - 2.47) ** 2 + 0.05)
    sm = find_sigma_min(series, (0.5, 4.5))
    # quadratic refinement recovers a parabola vertex exactly
    assert abs(sm.t_star - 2.47) < 1e-9
    assert abs(sm.sigma_star - 0.05) < 1e-9


def test_sigma_min_at_neighbors_property():
    t = np.arange(0.0, 5.0001, 0.05)
    series = _series_from_sigma(t, np.cos(t) + 0.01 * t)
    sm = find_sigma_min(series, (1.0, 5.0))
    i = sm.grid_index
    assert series.std_n[i] <= series.std_n[i - 1]
    assert series.std_n[i] <= series.std_n[i + 1]


def test_sigma_min_monotone_raises():
    t = np.linspace(0, 5, 40)
    series = _series_from_sigma(t, np.exp(-t))
    with pytest.raises(fd.NoInteriorMinimum):
        find_sigma_min(series, (0.0, 5.0))


def test_sigma_min_pure_nonlinear_has_no_interior_minimum():
    p0 = poisson_vector(9.0, 40)
    series = fd.evolve_populations(
        p0, [nonlinear_loss(1.0)], np.linspace(0, 100, 201)
    )
    with pytest.raises(fd.NoInteriorMinimum):
        find_sigma_min(series, (0.0, 100.0))


def test_sigma_min_window_too_small():
    t = np.linspace(0, 5, 40)
    series = _series_from_sigma(t, (t - 2.5) ** 2)
    with pytest.raises(fd.NoInteriorMinimum):
        find_sigma_min(series, (2.4, 2.45))


def test_timeseries_validation():
    t = np.linspace(0, 1, 5)
    z = np.zeros(5)
    with pytest.raises(ValueError):
        TimeSeries(t, z, z, z, np.zeros(4), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        TimeSeries(t, z, z, z, z, np.zeros((4, 3)))
