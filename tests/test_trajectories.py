import math

import numpy as np
import pytest

import fockdamp as fd
from conftest import fock_state
from fockdamp import _rng, trajectories
from fockdamp.channels import (
    linear_loss,
    loss_table,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)
from fockdamp.trajectories import TrajectoryConfig, run_ensemble


# Reference: a per-trajectory scalar sampler on complex amplitudes, Kerr
# phases included. The batched population sampler must match it.

# bisection width relative to the bracket's upper end: an absolute 1e-10
# leaves waiting times a few 1e-9 off the root on the "relative-width" case
BISECT_RTOL = 1e-14


def _qnorm_np(psi, s, tau):
    return float(np.sum((psi.real**2 + psi.imag**2) * np.exp(-s * tau)))


def _traj_np(psi0, s, theta, m_all, rates, deltas, t_grid, key, shift, out_p, out_p2):
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
            tau_lo, tau_hi = 0.0, max(float(t_grid[-1] - t_grid[0]) / 100.0, 1e-6)
            grow = 0
            while _qnorm_np(psi, s, tau_hi) > u:
                tau_lo = tau_hi
                tau_hi *= 2.0
                grow += 1
                if grow > 200:
                    no_jump = True
                    break
            if not no_jump:
                while tau_hi - tau_lo > BISECT_RTOL * tau_hi:
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
    psi = psi0.amplitudes / np.linalg.norm(psi0.amplitudes)
    rates, deltas, m_all, s = loss_table(channels, psi.size - 1)
    t_grid = cfg.t_grid
    n = np.arange(psi.size, dtype=float)
    theta = (kerr.strength if kerr is not None else 0.0) * n * (n - 1.0)
    shift = trajectories._no_jump_populations(np.abs(psi) ** 2, s, t_grid)
    chunk = trajectories._CHUNK
    n_chunks = -(-cfg.n_traj // chunk)
    out_p = np.zeros((n_chunks, t_grid.size, psi.size))
    out_p2 = np.zeros_like(out_p)
    draws = np.zeros(cfg.n_traj, dtype=np.int64)
    for tr in range(cfg.n_traj):
        ci = tr // chunk
        key = _rng.stream_key(cfg.master_seed, tr)
        draws[tr] = _traj_np(
            psi, s, theta, m_all, rates, deltas, t_grid, key, shift, out_p[ci], out_p2[ci]
        )
    return trajectories._summarize(t_grid, shift, out_p, out_p2, draws)


def assert_matches_reference(psi0, channels, kerr, cfg, chunk=trajectories._CHUNK):
    # both sides group trajectories into chunks of trajectories._CHUNK
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectories, "_CHUNK", chunk)
        got = run_ensemble(psi0, channels, kerr, cfg)
        ref = reference_ensemble(psi0, channels, kerr, cfg)
    assert np.max(np.abs(got.series.populations - ref.series.populations)) <= 1e-9
    assert np.max(np.abs(got.stderr - ref.stderr)) <= 1e-9
    return got


@pytest.mark.parametrize(
    "psi0, channels, kerr, cfg, chunk",
    [
        pytest.param(
            fd.coherent_state(2.0, fd.min_cutoff_for_coherent(2.0)),
            [nonlinear_loss(1.0)],
            fd.KerrTerm(3.0),
            TrajectoryConfig(200, 21, np.linspace(0, 5, 11)),
            64,
            id="kerr",
        ),
        pytest.param(
            fock_state(1, fd.FockCutoff(4)),
            [nonlinear_loss(1.0)],
            None,
            TrajectoryConfig(50, 22, np.linspace(0, 20, 9)),
            256,
            id="dark",
        ),
        pytest.param(
            fd.coherent_state(1.5, fd.min_cutoff_for_coherent(1.5)),
            [nonlinear_loss(1.0), linear_loss(0.2), two_photon_loss(0.3)],
            None,
            TrajectoryConfig(300, 23, np.linspace(0, 6, 13)),
            100,
            id="three-channel",
        ),
        pytest.param(
            fd.coherent_state(2.5, fd.min_cutoff_for_coherent(2.5)),
            [nonlinear_loss(1.0), linear_loss(0.05)],
            None,
            TrajectoryConfig(150, 24, np.linspace(1, 9, 7)),
            256,
            id="late-start",
        ),
        pytest.param(
            fd.coherent_state(2.5, fd.min_cutoff_for_coherent(2.5)),
            [linear_loss(1.0), two_photon_loss(1.0), three_photon_loss(1.0)],
            None,
            TrajectoryConfig(2, 0, np.array([0.0, 1.0])),
            1,
            id="relative-width",
        ),
    ],
)
def test_batched_sampler_matches_scalar_reference(psi0, channels, kerr, cfg, chunk):
    assert_matches_reference(psi0, channels, kerr, cfg, chunk)


# the cases of test_batched_sampler_matches_scalar_reference
REFERENCE_CASES = test_batched_sampler_matches_scalar_reference.pytestmark[0].args[1]


@pytest.mark.parametrize("psi0, channels, kerr, cfg, chunk", REFERENCE_CASES)
def test_draw_counts_match_scalar_reference(psi0, channels, kerr, cfg, chunk):
    # one draw per waiting time and one per channel pick, as the reference takes
    # them; draw counts do not depend on the chunking, so one chunk runs them all
    psi = psi0.amplitudes / np.linalg.norm(psi0.amplitudes)
    table = loss_table(channels, psi.size - 1)
    rates, deltas, m_all, s = table
    t_grid = cfg.t_grid
    n = np.arange(psi.size, dtype=float)
    theta = (kerr.strength if kerr is not None else 0.0) * n * (n - 1.0)
    w0 = np.abs(psi) ** 2
    shift = trajectories._no_jump_populations(w0, s, t_grid)
    sums = np.zeros((2, t_grid.size, psi.size))
    keys = [_rng.stream_key(cfg.master_seed, tr) for tr in range(cfg.n_traj)]
    got = trajectories._run_chunk(w0, table, t_grid, np.array(keys, dtype=np.uint64), shift, *sums)
    want = [
        _traj_np(psi, s, theta, m_all, rates, deltas, t_grid, k, shift, *sums) for k in keys
    ]
    assert got.tolist() == want


@pytest.mark.parametrize(
    "gamma, fast, rtol",
    [pytest.param(g, None, 1e-13, id=str(g)) for g in (1e-3, 1.0, 1e3)]
    + [pytest.param(g, 1e5, 1e-12, id=f"{g}-fast") for g in (1e-3, 1.0)],
)
def test_waiting_times_closed_form(gamma, fast, rtol):
    # a level decaying at gamma beside a dark level of weight d:
    # d + (1 - d) exp(-gamma tau) = u at tau = -ln((u - d) / (1 - d)) / gamma.
    # A third level losing at ``fast`` takes 1 % of the decaying weight; its
    # term underflows at tau = 7.1e-3, and every root here lies beyond 0.04
    d, u = (a.ravel() for a in np.meshgrid([0.0, 0.3, 0.9], [0.95, 0.5, 1e-3, 1e-9, 0.2]))
    if fast is None:
        w, s = np.stack([d, 1.0 - d], axis=1), np.array([0.0, gamma])
    else:
        w = np.stack([d, 0.99 * (1.0 - d), 0.01 * (1.0 - d)], axis=1)
        s = np.array([0.0, gamma, fast])
    tau = trajectories._waiting_times(w, s, u)
    jumps = u > d
    assert np.all(np.isinf(tau[~jumps]))
    exact = -np.log((u[jumps] - d[jumps]) / w[jumps, 1]) / gamma
    assert np.max(np.abs(tau[jumps] / exact - 1.0)) <= rtol


def test_partial_last_batch_and_leaf_match_reference(monkeypatch):
    # 600 trajectories: leaves of 256, 256 and 88, batches of 512 and 88
    # (each jumps once, to the dark level 1, at its own time)
    psi0 = fock_state(2, fd.FockCutoff(3))
    cfg = TrajectoryConfig(600, 26, np.linspace(0, 3, 4))
    assert -(-cfg.n_traj // trajectories._CHUNK) == 3
    assert cfg.n_traj % (trajectories._LEAVES * trajectories._CHUNK) == 88
    leaves = []
    summarize = trajectories._summarize

    def spy(t_grid, shift, out_p, out_p2, draws):
        leaves.append(out_p)
        return summarize(t_grid, shift, out_p, out_p2, draws)

    monkeypatch.setattr(trajectories, "_summarize", spy)
    assert_matches_reference(psi0, [nonlinear_loss(1.0)], None, cfg)
    # each leaf holds the sums of its own chunk, as the reference bins them
    got, ref = leaves
    assert np.max(np.abs(got - ref)) <= 1e-9


@pytest.mark.parametrize("block", [1, 300])
def test_recording_in_small_blocks_matches_reference(monkeypatch, block):
    # long grids are recorded a block of rows at a time; force many blocks
    monkeypatch.setattr(trajectories, "_RECORD_BLOCK", block)
    psi0 = fd.coherent_state(1.5, fd.min_cutoff_for_coherent(1.5))
    cfg = TrajectoryConfig(40, 25, np.linspace(0, 6, 31))
    assert_matches_reference(psi0, [nonlinear_loss(1.0), linear_loss(0.2)], None, cfg, chunk=16)


@pytest.mark.parametrize(
    "psi0, channels, final",
    [
        pytest.param(fock_state(1, fd.FockCutoff(3)), [linear_loss(1.0)], 0, id="linear"),
        pytest.param(fock_state(2, fd.FockCutoff(3)), [nonlinear_loss(1.0)], 1, id="nonlinear"),
    ],
)
def test_no_dark_population_on_a_long_grid(psi0, channels, final):
    # exp(-s t) of every populated level underflows on this grid
    cfg = TrajectoryConfig(n_traj=50, master_seed=6, t_grid=np.linspace(0, 800, 5))
    res = run_ensemble(psi0, channels, None, cfg)
    assert np.all(np.isfinite(res.series.populations))
    assert np.all(np.isfinite(res.stderr))
    assert res.series.populations[-1, final] == 1.0
    assert res.stderr[-1, final] == 0.0


def test_dark_state_never_jumps():
    psi = fock_state(1, fd.FockCutoff(4))
    cfg = TrajectoryConfig(n_traj=64, master_seed=3, t_grid=np.linspace(0, 20, 9))
    res = run_ensemble(psi, [nonlinear_loss(1.0)], None, cfg)
    assert np.all(res.series.populations[:, 1] == 1.0)
    assert np.all(res.stderr == 0.0)


def test_single_photon_linear_decay_statistics():
    psi = fock_state(1, fd.FockCutoff(3))
    cfg = TrajectoryConfig(n_traj=10000, master_seed=12, t_grid=np.array([0.0, 1.0]))
    res = run_ensemble(psi, [linear_loss(1.0)], None, cfg)
    p1 = res.series.populations[-1, 1]
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
    p1 = res.series.populations[-1, 1]
    se = res.stderr[-1, 1]
    assert abs(p1 - (1 - math.exp(-9))) < 3 * se

    oracle = fd.evolve_populations(
        fd.coherent_density(3.0, cut).populations(), [nonlinear_loss(1.0)], grid
    )
    diff = np.abs(res.series.populations - oracle.populations)
    ok = diff <= 3 * res.stderr + 1e-12
    assert ok.mean() >= 0.95


def test_bit_identical_reruns():
    psi = fd.coherent_state(2.0, fd.min_cutoff_for_coherent(2.0))
    cfg = TrajectoryConfig(n_traj=500, master_seed=9, t_grid=np.linspace(0, 5, 6))
    a = run_ensemble(psi, [nonlinear_loss(1.0), linear_loss(0.1)], None, cfg)
    b = run_ensemble(psi, [nonlinear_loss(1.0), linear_loss(0.1)], None, cfg)
    assert np.array_equal(a.series.populations, b.series.populations)
    assert np.array_equal(a.stderr, b.stderr)


def test_seed_changes_output():
    psi = fd.coherent_state(2.0, fd.min_cutoff_for_coherent(2.0))
    grid = np.linspace(0, 5, 6)
    a = run_ensemble(psi, [nonlinear_loss(1.0)], None, TrajectoryConfig(200, 1, grid))
    b = run_ensemble(psi, [nonlinear_loss(1.0)], None, TrajectoryConfig(200, 2, grid))
    assert not np.array_equal(a.series.populations, b.series.populations)


def test_kerr_does_not_move_populations():
    psi = fd.coherent_state(1.5, fd.min_cutoff_for_coherent(1.5))
    cfg = TrajectoryConfig(n_traj=300, master_seed=5, t_grid=np.linspace(0, 5, 6))
    a = run_ensemble(psi, [nonlinear_loss(1.0)], fd.KerrTerm(0.0), cfg)
    b = run_ensemble(psi, [nonlinear_loss(1.0)], fd.KerrTerm(5.0), cfg)
    assert np.max(np.abs(a.series.populations - b.series.populations)) < 1e-12


def test_ensemble_series():
    psi = fock_state(1, fd.FockCutoff(3))
    cfg = TrajectoryConfig(n_traj=100, master_seed=4, t_grid=np.linspace(0, 2, 5))
    series = run_ensemble(psi, [linear_loss(1.0)], None, cfg).series
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
