"""Dense master-equation integration for one damped mode.

The generator is the canonical Lindblad form: for each channel with jump
operator L and rate r it adds r (L rho L^dag - {L^dag L, rho}/2), plus the
commutator of the Kerr term. ``lindblad_rhs`` evaluates this literally from
operator products and serves as the reference implementation.

Because every jump operator is a lowering monomial, the generator couples
element (k, l) only to (k + d, l + d): each diagonal stripe of the density
matrix evolves independently, driven by banded coefficient tables. The
evolution loop uses that banded form (cross-checked against lindblad_rhs in
the tests) and shrinks its active window as the upper levels drain, which is
exact apart from the drop floor since no channel ever raises the photon
number; the window and its step cap come from ``integrate.cascade_window``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import TimeSeries, observables
from .channels import JumpChannel, KerrTerm
from .errors import DimensionMismatch, TraceDriftExceeded
from .fock import DensityMatrix, FockCutoff, anharmonicity_matrix, jump_matrix
from .integrate import IntegratorConfig, cascade_window, integrate

_TRACE_DRIFT_LIMIT = 1e-8


def lindblad_rhs(rho, channels: list[JumpChannel], kerr: KerrTerm | None = None) -> np.ndarray:
    """d(rho)/dt from operator products; Hermitian and traceless by construction."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"state must be a square matrix, got {m.shape}")
    cutoff = FockCutoff(m.shape[0] - 1)
    out = np.zeros_like(m)
    for ch in channels:
        if ch.rate == 0.0:
            continue
        L = jump_matrix(ch, cutoff)
        Ld = L.conj().T
        LdL = Ld @ L
        out += ch.rate * (L @ m @ Ld - 0.5 * (LdL @ m + m @ LdL))
    if kerr is not None and kerr.strength != 0.0:
        H = kerr.strength * anharmonicity_matrix(cutoff)
        out += -1j * (H @ m - m @ H)
    return out


@dataclass(frozen=True)
class _CascadeGenerator:
    """Banded coefficients of the stripe-preserving generator.

    diag[k, l] multiplies rho[k, l]; feeds[c, k, l] multiplies
    rho[k + d_c, l + d_c] (zero-padded past the valid region).
    """

    nmax: int
    diag: np.ndarray  # complex (N+1, N+1)
    feeds: np.ndarray  # float (C, N+1, N+1), rates folded in
    deltas: np.ndarray  # int64 (C,)
    total_weights: np.ndarray  # float (N+1,): sum_c rate_c <n|L^dag L|n>


def build_generator(channels, kerr, nmax) -> _CascadeGenerator:
    from .channels import lowering_amplitudes

    active = [c for c in channels if c.rate > 0.0]
    for c in active:
        if c.annihilation_power > nmax:
            raise DimensionMismatch(
                f"a^{c.annihilation_power} annihilates the whole space at nmax={nmax}"
            )
    n = np.arange(nmax + 1, dtype=float)
    s_tot = np.zeros(nmax + 1)
    feeds = np.zeros((max(len(active), 1), nmax + 1, nmax + 1))
    deltas = np.zeros(max(len(active), 1), dtype=np.int64)
    for ci, c in enumerate(active):
        amp = lowering_amplitudes(c, nmax)
        s_tot += c.rate * amp**2
        d = c.net_lowering
        deltas[ci] = d
        w = nmax + 1 - d
        feeds[ci, :w, :w] = c.rate * np.outer(amp[d:], amp[d:])
    diag = -0.5 * (s_tot[:, None] + s_tot[None, :]).astype(np.complex128)
    u1 = kerr.strength if kerr is not None else 0.0
    if u1 != 0.0:
        kappa = n * (n - 1.0)
        diag -= 1j * u1 * (kappa[:, None] - kappa[None, :])
    return _CascadeGenerator(nmax, diag, feeds, deltas, s_tot)


def _banded_rhs(y, diag, feeds, deltas):
    m1 = y.shape[0]
    out = diag[:m1, :m1] * y
    for c in range(feeds.shape[0]):
        d = int(deltas[c])
        w = m1 - d
        if w > 0:
            out[:w, :w] += feeds[c, :w, :w] * y[d:, d:]
    return out


def evolve(
    rho0: DensityMatrix,
    channels: list[JumpChannel],
    kerr: KerrTerm | None,
    t_grid,
    cfg: IntegratorConfig | None = None,
) -> tuple[TimeSeries, DensityMatrix]:
    """Integrate the master equation, sampling observables at every grid point.

    The state is re-symmetrized (Hermitian averaging) after each accepted
    step; the trace is never renormalized and its drift is a monitored
    failure signal (TraceDriftExceeded above 1e-8). Populations in the
    returned series are padded to the full basis even while the active
    window is smaller.
    """
    cfg = cfg or IntegratorConfig()
    if not isinstance(rho0, DensityMatrix):
        raise DimensionMismatch("rho0 must be a DensityMatrix")
    nmax = rho0.dim - 1
    gen = build_generator(channels, kerr, nmax)
    tr0 = rho0.trace()
    h_cap, shrink = cascade_window(gen.diag, cfg.abs_tol)

    def rhs(y):
        return _banded_rhs(y, gen.diag, gen.feeds, gen.deltas)

    def post_accept(y, f):
        return shrink(0.5 * (y + y.conj().T), f)

    t_arr = np.asarray(t_grid, dtype=float)
    n_samples = t_arr.size
    pops = np.zeros((n_samples, nmax + 1))
    mean = np.zeros(n_samples)
    std = np.zeros(n_samples)
    g2 = np.zeros(n_samples)
    trace_err = np.zeros(n_samples)
    min_eig = np.zeros(n_samples)

    def on_sample(i, t, y):
        m1 = y.shape[0]
        pops[i, :m1] = np.diag(y).real
        obs = observables(pops[i])
        mean[i], std[i], g2[i] = obs.mean_n, obs.std_n, obs.g2
        drift = abs(float(np.trace(y).real) - tr0)
        trace_err[i] = drift
        if not drift <= _TRACE_DRIFT_LIMIT:  # nan-safe comparison
            raise TraceDriftExceeded(
                f"trace drifted by {drift:.3e} at t={t:.6g} (limit {_TRACE_DRIFT_LIMIT:.1e})"
            )
        min_eig[i] = np.linalg.eigvalsh(y)[0].real

    # exact zeros above the occupied block never fill in; start from the
    # smallest window so pure Fock inputs skip the stiff top levels entirely
    y0 = np.array(rho0.entries)
    y0, _ = post_accept(y0, None)

    y_final = integrate(
        rhs, y0, t_arr, cfg, post_accept=post_accept, on_sample=on_sample, h_cap_fn=h_cap
    )

    series = TimeSeries(t_arr, mean, std, g2, trace_err, pops, min_eigenvalue=min_eig)
    full = np.zeros((nmax + 1, nmax + 1), dtype=np.complex128)
    m1 = y_final.shape[0]
    full[:m1, :m1] = y_final
    final = DensityMatrix(
        full, trace_deficit=rho0.trace_deficit, trace_tol=_TRACE_DRIFT_LIMIT * 2
    )
    return series, final


def superoperator_spectrum_probe(
    channels: list[JumpChannel], kerr: KerrTerm | None, cutoff: FockCutoff
) -> float | None:
    """Slowest nonzero decay rate among the population modes.

    Used to pick run horizons: residual population transients at time t are
    bounded by exp(-rate * t). The population sector closes on itself (gains
    flow strictly downward), and the Kerr term never moves populations, so
    phases are irrelevant here. Returns None when nothing decays.
    """
    if cutoff.nmax > 60:
        raise ValueError(f"probe limited to nmax <= 60, got {cutoff.nmax}")
    from .channels import decay_weights

    n1 = cutoff.dim
    m = np.zeros((n1, n1))
    for c in channels:
        if c.rate == 0.0:
            continue
        w = c.rate * decay_weights(c, cutoff.nmax)
        d = c.net_lowering
        m -= np.diag(w)
        m += np.diag(w[d:], d)
    eigs = np.linalg.eigvals(m)
    rates = np.abs(eigs.real)
    threshold = 1e-9 * max(1.0, float(rates.max(initial=0.0)))
    nonzero = rates[rates > threshold]
    if nonzero.size == 0:
        return None
    return float(nonzero.min())
