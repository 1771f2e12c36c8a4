import math

import numpy as np
import pytest

import fockdamp as fd
from fockdamp import _rng, trajectories
from fockdamp.channels import linear_loss, nonlinear_loss, two_photon_loss
from fockdamp.trajectories import TrajectoryConfig, run_ensemble


# Reference: a per-trajectory scalar sampler on complex amplitudes, Kerr
# phases included. The batched population sampler must match it.


def _qnorm_np(psi, s, tau):
    return float(np.sum((psi.real**2 + psi.imag**2) * np.exp(-s * tau)))


def _traj_np(psi0, s, theta, m_all, rates, deltas, t_grid, dt_max, key, shift, out_p, out_p2):
    psi = psi0.copy()
    n1 = psi.size
    m2_all = m_all**2
    n_samples = t_grid.size
    t = float(t_grid[0])
    draw = 0

    def record(i, delta):
        q = _qnorm_np(psi, s, delta)
        v = (psi.real**2 + psi.imag**2) * np.exp(-s * delta) / q - shift[i]
        out_p[i] += v
        out_p2[i] += v * v

    record(0, 0.0)
    i_s = 1
    u = _rng.uniform(key, draw)
    draw += 1
    while i_s < n_samples:
        dark = float(np.sum((psi.real**2 + psi.imag**2)[s == 0.0]))
        no_jump = u <= dark
        tau_j = 0.0
        if not no_jump:
            tau_lo, tau_hi = 0.0, dt_max
            grow = 0
            while _qnorm_np(psi, s, tau_hi) > u:
                tau_lo = tau_hi
                tau_hi *= 2.0
                grow += 1
                if grow > 200:
                    no_jump = True
                    break
            if not no_jump:
                while tau_hi - tau_lo > trajectories._BISECT_TOL:
                    mid = 0.5 * (tau_lo + tau_hi)
                    if _qnorm_np(psi, s, mid) > u:
                        tau_lo = mid
                    else:
                        tau_hi = mid
                tau_j = 0.5 * (tau_lo + tau_hi)
        if no_jump:
            for i in range(i_s, n_samples):
                record(i, float(t_grid[i]) - t)
            break
        while i_s < n_samples and t_grid[i_s] <= t + tau_j:
            record(i_s, float(t_grid[i_s]) - t)
            i_s += 1
        if i_s >= n_samples:
            break
        psi = psi * np.exp(-(0.5 * s + 1j * theta) * tau_j)
        psi /= math.sqrt(_qnorm_np(psi, s, 0.0))
        weights = rates * (m2_all @ (psi.real**2 + psi.imag**2))
        r = _rng.uniform(key, draw) * float(weights.sum())
        draw += 1
        pick = int(weights.size) - 1
        acc = 0.0
        for c in range(weights.size):
            acc += float(weights[c])
            if r < acc:
                pick = c
                break
        d = int(deltas[pick])
        nxt = np.zeros(n1, dtype=np.complex128)
        nxt[: n1 - d] = m_all[pick, d:] * psi[d:]
        psi = nxt / np.linalg.norm(nxt)
        t = t + tau_j
        u = _rng.uniform(key, draw)
        draw += 1
    return draw


def reference_ensemble(psi0, channels, kerr, cfg):
    psi, s, m_all, rates, deltas, t_grid, dt_max = trajectories._jump_tables(psi0, channels, cfg)
    n = np.arange(psi.size, dtype=float)
    theta = (kerr.strength if kerr is not None else 0.0) * n * (n - 1.0)
    shift = trajectories._no_jump_populations(np.abs(psi) ** 2, s, t_grid)
    n_chunks = -(-cfg.n_traj // cfg.chunk_size)
    out_p = np.zeros((n_chunks, t_grid.size, psi.size))
    out_p2 = np.zeros_like(out_p)
    draws = np.zeros(cfg.n_traj, dtype=np.int64)
    for tr in range(cfg.n_traj):
        ci = tr // cfg.chunk_size
        key = _rng.stream_key(cfg.master_seed, tr)
        draws[tr] = _traj_np(
            psi, s, theta, m_all, rates, deltas, t_grid, dt_max, key, shift, out_p[ci], out_p2[ci]
        )
    return trajectories._summarize(t_grid, shift, out_p, out_p2, draws)


def assert_matches_reference(psi0, channels, kerr, cfg):
    got = run_ensemble(psi0, channels, kerr, cfg)
    ref = reference_ensemble(psi0, channels, kerr, cfg)
    assert np.max(np.abs(got.mean_populations - ref.mean_populations)) <= 1e-9
    assert np.max(np.abs(got.stderr - ref.stderr)) <= 1e-9
    return got


@pytest.mark.parametrize(
    "psi0, channels, kerr, cfg",
    [
        pytest.param(
            fd.coherent_state(2.0, fd.min_cutoff_for_coherent(2.0)),
            [nonlinear_loss(1.0)],
            fd.KerrTerm(3.0),
            TrajectoryConfig(200, 21, np.linspace(0, 5, 11), chunk_size=64),
            id="kerr",
        ),
        pytest.param(
            fd.fock_state(1, fd.FockCutoff(4)),
            [nonlinear_loss(1.0)],
            None,
            TrajectoryConfig(50, 22, np.linspace(0, 20, 9)),
            id="dark",
        ),
        pytest.param(
            fd.coherent_state(1.5, fd.min_cutoff_for_coherent(1.5)),
            [nonlinear_loss(1.0), linear_loss(0.2), two_photon_loss(0.3)],
            None,
            TrajectoryConfig(300, 23, np.linspace(0, 6, 13), chunk_size=100),
            id="three-channel",
        ),
        pytest.param(
            fd.coherent_state(2.5, fd.min_cutoff_for_coherent(2.5)),
            [nonlinear_loss(1.0), linear_loss(0.05)],
            None,
            TrajectoryConfig(150, 24, np.linspace(1, 9, 7), dt_max=0.013),
            id="dt_max",
        ),
    ],
)
def test_batched_sampler_matches_scalar_reference(psi0, channels, kerr, cfg):
    assert_matches_reference(psi0, channels, kerr, cfg)


@pytest.mark.parametrize("block", [1, 300])
def test_recording_in_small_blocks_matches_reference(monkeypatch, block):
    # long grids are recorded a block of rows at a time; force many blocks
    monkeypatch.setattr(trajectories, "_RECORD_BLOCK", block)
    psi0 = fd.coherent_state(1.5, fd.min_cutoff_for_coherent(1.5))
    cfg = TrajectoryConfig(40, 25, np.linspace(0, 6, 31), chunk_size=16)
    assert_matches_reference(psi0, [nonlinear_loss(1.0), linear_loss(0.2)], None, cfg)


@pytest.mark.parametrize(
    "psi0, channels, final",
    [
        pytest.param(fd.fock_state(1, fd.FockCutoff(3)), [linear_loss(1.0)], 0, id="linear"),
        pytest.param(fd.fock_state(2, fd.FockCutoff(3)), [nonlinear_loss(1.0)], 1, id="nonlinear"),
    ],
)
def test_no_dark_population_on_a_long_grid(psi0, channels, final):
    # exp(-s t) of every populated level underflows on this grid
    cfg = TrajectoryConfig(n_traj=50, master_seed=6, t_grid=np.linspace(0, 800, 5))
    res = run_ensemble(psi0, channels, None, cfg)
    assert np.all(np.isfinite(res.mean_populations))
    assert np.all(np.isfinite(res.stderr))
    assert res.mean_populations[-1, final] == 1.0
    assert res.stderr[-1, final] == 0.0


def test_dark_state_never_jumps():
    psi = fd.fock_state(1, fd.FockCutoff(4))
    cfg = TrajectoryConfig(n_traj=64, master_seed=3, t_grid=np.linspace(0, 20, 9))
    res = run_ensemble(psi, [nonlinear_loss(1.0)], None, cfg)
    assert np.all(res.mean_populations[:, 1] == 1.0)
    assert np.all(res.stderr == 0.0)


def test_single_photon_linear_decay_statistics():
    psi = fd.fock_state(1, fd.FockCutoff(3))
    cfg = TrajectoryConfig(n_traj=10000, master_seed=12, t_grid=np.array([0.0, 1.0]))
    res = run_ensemble(psi, [linear_loss(1.0)], None, cfg)
    p1 = res.mean_populations[-1, 1]
    se = res.stderr[-1, 1]
    assert se > 0
    assert abs(p1 - math.exp(-1)) < 3 * se
    # binomial structure: each trajectory is entirely at level 1 or 0
    assert abs(se - math.sqrt(p1 * (1 - p1) / 10000)) < 0.1 * se


def test_coherent_nonlinear_matches_master_equation():
    cut = fd.FockCutoff(40)
    psi = fd.coherent_state(3.0, cut)
    grid = np.linspace(0.0, 20.0, 6)
    cfg = TrajectoryConfig(n_traj=20000, master_seed=77, t_grid=grid)
    res = run_ensemble(psi, [nonlinear_loss(1.0)], None, cfg)
    p1 = res.mean_populations[-1, 1]
    se = res.stderr[-1, 1]
    assert abs(p1 - (1 - math.exp(-9))) < 3 * se

    oracle = fd.evolve_populations(
        fd.coherent_density(3.0, cut).populations(), [nonlinear_loss(1.0)], grid
    )
    diff = np.abs(res.mean_populations - oracle.populations)
    ok = diff <= 3 * res.stderr + 1e-12
    assert ok.mean() >= 0.95


def test_bit_identical_reruns():
    psi = fd.coherent_state(2.0, fd.min_cutoff_for_coherent(2.0))
    cfg = TrajectoryConfig(n_traj=500, master_seed=9, t_grid=np.linspace(0, 5, 6))
    a = run_ensemble(psi, [nonlinear_loss(1.0), linear_loss(0.1)], None, cfg)
    b = run_ensemble(psi, [nonlinear_loss(1.0), linear_loss(0.1)], None, cfg)
    assert np.array_equal(a.mean_populations, b.mean_populations)
    assert np.array_equal(a.stderr, b.stderr)


def test_seed_changes_output():
    psi = fd.coherent_state(2.0, fd.min_cutoff_for_coherent(2.0))
    grid = np.linspace(0, 5, 6)
    a = run_ensemble(psi, [nonlinear_loss(1.0)], None, TrajectoryConfig(200, 1, grid))
    b = run_ensemble(psi, [nonlinear_loss(1.0)], None, TrajectoryConfig(200, 2, grid))
    assert not np.array_equal(a.mean_populations, b.mean_populations)


def test_kerr_does_not_move_populations():
    psi = fd.coherent_state(1.5, fd.min_cutoff_for_coherent(1.5))
    cfg = TrajectoryConfig(n_traj=300, master_seed=5, t_grid=np.linspace(0, 5, 6))
    a = run_ensemble(psi, [nonlinear_loss(1.0)], fd.KerrTerm(0.0), cfg)
    b = run_ensemble(psi, [nonlinear_loss(1.0)], fd.KerrTerm(5.0), cfg)
    assert np.max(np.abs(a.mean_populations - b.mean_populations)) < 1e-12


def test_to_timeseries():
    psi = fd.fock_state(1, fd.FockCutoff(3))
    cfg = TrajectoryConfig(n_traj=100, master_seed=4, t_grid=np.linspace(0, 2, 5))
    series = run_ensemble(psi, [linear_loss(1.0)], None, cfg).to_timeseries()
    assert series.populations.shape == (5, 4)
    assert series.trace_err.max() < 1e-12
    assert abs(series.mean_n[0] - 1.0) < 1e-12


def test_config_validation():
    grid = np.linspace(0, 1, 3)
    with pytest.raises(ValueError):
        TrajectoryConfig(0, 1, grid)
    with pytest.raises(ValueError):
        TrajectoryConfig(10, -1, grid)
    with pytest.raises(ValueError):
        TrajectoryConfig(10, 1, np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        TrajectoryConfig(10, 1, grid, dt_max=0.0)
