"""Quantum-jump unraveling of the same channel set.

Independent stochastic oracle for the deterministic integrators. Between
jumps the non-Hermitian flow is diagonal in the Fock basis (every L^dag L
and the Kerr term are number-diagonal), so the no-jump evolution is an
exact elementwise exponential and waiting times solve
norm^2(tau) = u for a uniform draw u. The log of that norm^2 is convex and
decreasing in tau, so Newton's method started at tau = 0 climbs to the
root without a bracket. A trajectory whose dark-level weight is at least
the pending draw never jumps again.

Trajectories own counter-based random substreams keyed on
(master_seed, trajectory index); identical configuration gives bit-identical
output. Per-trajectory results accumulate into fixed chunks whose sums are
added one after another in chunk order, a fixed order, so the output is
bit-reproducible. The trajectories of a batch of ``_LEAVES`` chunks advance
together on their level populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rng
from .analysis import TimeSeries, observables
from .channels import JumpChannel, KerrTerm, loss_table
from .errors import SeedStreamExhausted
from .fock import PureState, _frozen_array

_NEWTON_RTOL = 1e-13
_NEWTON_CAP = 100
_MAX_DRAWS = np.int64(2**53)
_U1 = np.uint64(1)
_RECORD_BLOCK = 1 << 15
_CHUNK = 256  # trajectories per chunk; the sums of a chunk are one reduction leaf
_LEAVES = 2  # chunks per batch of trajectories advanced together
_LN_TINY = np.log(np.finfo(float).tiny)  # exp is normal from here up, subnormal below


@dataclass(frozen=True)
class TrajectoryConfig:
    """Ensemble size, master seed and sample grid of a trajectory run.

    ``t_grid`` is frozen as a float array, so the engine reads it as is.
    """

    n_traj: int
    master_seed: int
    t_grid: np.ndarray

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        t = np.asarray(self.t_grid, dtype=float)
        if t.ndim != 1 or t.size < 1 or np.any(np.diff(t) <= 0):
            raise ValueError("t_grid must be non-empty and strictly ascending")
        object.__setattr__(self, "t_grid", _frozen_array(t))


@dataclass(frozen=True)
class EnsembleResult:
    series: TimeSeries  # moments of the mean populations; trace_err is their drift from 1
    stderr: np.ndarray  # (samples, levels) standard error of each mean population

    def __post_init__(self):
        object.__setattr__(self, "stderr", _frozen_array(np.asarray(self.stderr, float)))


def _decay(x):
    """exp(x) in place, with 0 where exp(x) would be subnormal or 0.

    NumPy's exp is several times slower on arguments below ln(tiny) than in
    range, and most of the sampler's arguments lie there. Those arguments
    are set to 0 before the exp (faster than exp's ``where=`` mask) and the
    results to 0 after it. NaN stays NaN.
    """
    under = x < _LN_TINY
    np.copyto(x, 0.0, where=under)
    np.exp(x, out=x)
    np.copyto(x, 0.0, where=under)
    return x


def _normalize(v):
    """Divide each row of v by its sum, in place. The sums are one dgemm with
    a (levels, 2) block of ones: NumPy sends a (levels, 1) operand to gemv,
    whose code the channel pick's dgemm does not map."""
    v /= (v @ np.ones((v.shape[1], 2)))[:, :1]
    return v


def _waiting_times(w, s, u):
    """Each row's waiting time: the tau where q(tau) = sum_n w_n exp(-s_n tau)
    falls to u, or inf where the row never jumps.

    Newton runs on f = ln q - ln u from tau = 0, where f = -ln u > 0. f is
    convex and decreasing, so every tangent root lies at or left of the root
    and the iterates climb to it. A row stops when its step falls below
    ``_NEWTON_RTOL * max(tau, 1)`` or is not positive (rounding at
    convergence). A row with u at or below its dark weight, a non-finite
    tau, or one still moving after ``_NEWTON_CAP`` steps (u - dark below
    resolution) never jumps.
    """
    tau = np.full(u.size, np.inf)
    idx = np.flatnonzero(u > w[:, s == 0.0].sum(axis=1))
    tau[idx] = 0.0
    log_u = np.log(u[idx])
    # q and -dq/dtau as one product with the (levels, 2) operand [1, s]: that
    # keeps it on dgemm, which the channel pick already maps, where a
    # (levels,) operand would map gemv's code as well
    one_s = np.stack([np.ones_like(s), s], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # underflowed rows end non-finite
        for _ in range(_NEWTON_CAP):
            if not idx.size:
                break
            q, dq = ((w[idx] * _decay(-s * tau[idx, None])) @ one_s).T
            step = (np.log(q) - log_u) * q / dq
            t = tau[idx] + np.maximum(step, 0.0)
            tau[idx] = t
            more = step > _NEWTON_RTOL * np.maximum(t, 1.0)
            idx, log_u = idx[more], log_u[more]
    tau[idx] = np.inf
    tau[np.isnan(tau)] = np.inf
    return tau


def _record(w, s, t_grid, t, first, stop, shift, out_p, out_p2, base):
    """Add row r's normalized populations, less ``shift``, at samples
    first[r]..stop[r]-1, into rows base[r] + sample of the flat (leaves x
    samples, levels) sums. Rows go in blocks holding about ``_RECORD_BLOCK``
    values, so a long sample grid never allocates rows x samples x levels."""
    n1 = s.size
    counts = stop - first
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        budget = ends[lo] - counts[lo] + max(1, _RECORD_BLOCK // n1)
        hi = max(lo + 1, int(np.searchsorted(ends, budget, side="right")))
        c = counts[lo:hi]
        rows = np.repeat(np.arange(lo, hi), c)
        samples = np.arange(rows.size) + np.repeat(first[lo:hi] - (np.cumsum(c) - c), c)
        lo = hi
        if not rows.size:
            continue
        v = _normalize(w[rows] * _decay(-s * (t_grid[samples] - t[rows])[:, None]))
        v -= shift[samples]
        flat = ((base[rows] + samples)[:, None] * n1 + np.arange(n1)).ravel()
        out_p += np.bincount(flat, v.ravel(), out_p.size).reshape(out_p.shape)
        out_p2 += np.bincount(flat, (v * v).ravel(), out_p.size).reshape(out_p.shape)


def _run_chunk(w0, table, t_grid, keys, shift, out_p, out_p2, leaf=None):
    """Advance a batch of trajectories together; return their draw counts.

    Row r holds |psi_n|^2 of the trajectory keyed ``keys[r]``; ``table`` is
    the mix's ``channels.LossTable``. Row r's sums go to leaf ``leaf[r]`` of
    the (leaves, samples, levels) ``out_p`` and ``out_p2``, or, with no
    ``leaf``, to the (samples, levels) pair. Every jump shifts the number
    basis with a real amplitude and the no-jump flow is number-diagonal, so
    phases (and the Kerr term) never reach the output. Each step is the
    scalar algorithm under masks: the waiting times, then the channel draw.
    """
    s, rates, deltas = table.loss, table.rates, table.lowerings
    m2_all = table.amps**2
    n_samples = t_grid.size
    n1 = w0.size
    n_ch = rates.size
    n_draws = np.empty(keys.size, dtype=np.int64)
    live = np.arange(keys.size)
    w = np.tile(w0, (keys.size, 1))
    t = np.full(keys.size, t_grid[0])
    i_s = np.zeros(keys.size, dtype=np.int64)  # the first round records sample 0 too
    draw = np.zeros(keys.size, dtype=np.uint64)
    base = np.zeros(keys.size, dtype=np.int64) if leaf is None else leaf * n_samples
    u = _rng.uniform(keys, draw)
    draw += _U1
    while True:
        tau = _waiting_times(w, s, u)
        stop = np.searchsorted(t_grid, t + tau, side="right")
        _record(w, s, t_grid, t, i_s, stop, shift, out_p, out_p2, base)
        done = stop >= n_samples
        n_draws[live[done]] = draw[done]
        keep = ~done
        live, keys, draw, w, t, tau = live[keep], keys[keep], draw[keep], w[keep], t[keep], tau[keep]
        base = base[keep]
        i_s = stop[keep]
        if not live.size:
            break
        # advance to the jump time and renormalize
        w = _normalize(w * _decay(-s * tau[:, None]))
        # pick the channel with probability proportional to rate * |L psi|^2
        weights = rates * (w @ m2_all.T)
        r = _rng.uniform(keys, draw) * weights.sum(axis=1)
        draw += _U1
        below = r[:, None] < np.cumsum(weights, axis=1)
        pick = np.where(below.any(axis=1), below.argmax(axis=1), n_ch - 1)
        nxt = np.zeros_like(w)
        for c in range(n_ch):
            rows = pick == c
            d = int(deltas[c])
            nxt[rows, : n1 - d] = m2_all[c, d:] * w[rows, d:]
        w = _normalize(nxt)
        t = t + tau
        u = _rng.uniform(keys, draw)
        draw += _U1
    return n_draws


def _no_jump_populations(w0, s, t_grid):
    """Normalized populations of a trajectory that never jumps, per sample.

    The sampler accumulates populations less this shift. Where trajectories
    agree (no jump yet, or a coherent state under linear loss) the shifted
    sums stay near zero, so the variance is not rounding noise of
    sum(v^2) - n mean^2, which reads ~1e-9 for bins whose true spread is 0.
    """
    pop = w0 > 0.0  # relative to the slowest populated level, so nothing underflows
    k = np.zeros((t_grid.size, w0.size))
    k[:, pop] = w0[pop] * np.exp(-(s[pop] - s[pop].min()) * (t_grid - t_grid[0])[:, None])
    return k / k.sum(axis=1, keepdims=True)


def _summarize(t_grid, shift, out_p, out_p2, draws) -> EnsembleResult:
    """Combine the per-chunk shifted sums into the series of the mean
    populations and their standard errors."""
    if draws.max(initial=0) >= _MAX_DRAWS:
        raise SeedStreamExhausted("a trajectory consumed more draws than a stream provides")
    n = draws.size
    offset = out_p.sum(axis=0) / n
    mean = shift + offset
    if n > 1:
        var = (out_p2.sum(axis=0) - n * offset**2) / (n - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / n)
    else:
        stderr = np.zeros_like(mean)
    # one observables call per sample, through this module's binding: perfbench's
    # tracer counts analysis.observables_calls there, not analysis.moments
    moments = np.array([observables(row)[:3] for row in mean]).T
    series = TimeSeries(t_grid, *moments, np.abs(mean.sum(axis=1) - 1.0), mean)
    return EnsembleResult(series, stderr)


def run_ensemble(
    psi0: PureState,
    channels: list[JumpChannel],
    kerr: KerrTerm | None,
    cfg: TrajectoryConfig,
) -> EnsembleResult:
    """Average normalized level populations over ``cfg.n_traj`` trajectories.

    Returns the TimeSeries of the mean populations and the standard error of
    each. Channel selection at a jump is proportional to rate * |L psi|^2;
    jump times come from Newton's method on the log of the squared norm of
    the no-jump evolution against a uniform draw. ``kerr`` is number-diagonal,
    so it moves no population and is unused. Trajectories run in batches of
    ``_LEAVES`` chunks of ``_CHUNK``, and the sums of each chunk are kept
    apart until ``_summarize`` combines them.
    """
    psi = np.array(psi0.amplitudes, dtype=np.complex128)
    psi /= np.linalg.norm(psi)
    table = loss_table(channels, psi.size - 1)
    t_grid = cfg.t_grid
    n_chunks = -(-cfg.n_traj // _CHUNK)
    out_p = np.zeros((n_chunks, t_grid.size, psi.size))
    out_p2 = np.zeros_like(out_p)
    draws = np.zeros(cfg.n_traj, dtype=np.int64)
    w0 = psi.real**2 + psi.imag**2
    shift = _no_jump_populations(w0, table.loss, t_grid)

    for ci in range(0, n_chunks, _LEAVES):
        lo = ci * _CHUNK
        hi = min(cfg.n_traj, lo + _LEAVES * _CHUNK)
        keys = _rng.stream_key(cfg.master_seed, np.arange(lo, hi, dtype=np.uint64))
        sums = out_p[ci : ci + _LEAVES], out_p2[ci : ci + _LEAVES]
        leaf = np.arange(hi - lo) // _CHUNK
        draws[lo:hi] = _run_chunk(w0, table, t_grid, keys, shift, *sums, leaf)
    return _summarize(t_grid, shift, out_p, out_p2, draws)
