"""Dense master-equation evolution for one damped mode.

The generator is the canonical Lindblad form: for each channel with jump
operator L and rate r it adds r (L rho L^dag - {L^dag L, rho}/2), plus the
commutator of the Kerr term. ``lindblad_rhs`` evaluates this literally from
operator products and serves as the reference implementation.

Because every jump operator is a lowering monomial, the generator couples
element (k, l) only to (k + d, l + d): each diagonal stripe rho[k, k + d]
evolves on its own under an upper-triangular generator, and the stripes
below the diagonal are the conjugates of those above. ``evolve`` stacks
the generators of the stripes d >= 0 (cross-checked against lindblad_rhs
in the tests) and propagates them exactly with ``integrate.integrate``.
"""

from __future__ import annotations

import numpy as np

from .analysis import TRACE_DRIFT_LIMIT, Samples, TimeSeries
from .channels import JumpChannel, KerrTerm, lowering_amplitudes
from .errors import DimensionMismatch
from .fock import DensityMatrix, FockCutoff, anharmonicity_matrix, jump_matrix
from .integrate import EXACT, expm, integrate


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


def _stripe_index(n1: int):
    """(d, k, k + d) for every element on or above the diagonal, stripe by stripe."""
    d, k = np.nonzero(np.add.outer(np.arange(n1), np.arange(n1)) < n1)
    return d, k, k + d


def stripe_generators(channels, kerr, nmax) -> np.ndarray:
    """Generators of the stripes d = 0..nmax, stacked as an (n, n, n) array.

    Stripe d holds rho[k, k + d] for k < n - d, zero-padded to n = nmax + 1.
    Element (k, l) decays at half the summed loss weights of k and l, turns
    at the Kerr frequency u1 [k(k-1) - l(l-1)], and is fed by (k + c, l + c)
    for each channel lowering by c, so every stripe generator is
    upper-triangular. The stack is real when u1 = 0.
    """
    n1 = nmax + 1
    d, k, l = _stripe_index(n1)
    u1 = kerr.strength if kerr is not None else 0.0
    stack = np.zeros((n1, n1, n1), dtype=np.complex128 if u1 != 0.0 else float)
    s_tot = np.zeros(n1)
    for c in channels:
        if c.rate > 0.0:
            amp = lowering_amplitudes(c, nmax)
            s_tot += c.rate * amp**2
            fed = l + c.net_lowering < n1
            kf, lf = k[fed] + c.net_lowering, l[fed] + c.net_lowering
            stack[d[fed], k[fed], kf] += c.rate * amp[kf] * amp[lf]
    stack[d, k, k] = -0.5 * (s_tot[k] + s_tot[l])
    if u1 != 0.0:
        kappa = np.arange(n1) * (np.arange(n1) - 1.0)
        stack[d, k, k] -= 1j * u1 * (kappa[k] - kappa[l])
    return stack


def evolve(
    rho0: DensityMatrix,
    channels: list[JumpChannel],
    kerr: KerrTerm | None,
    t_grid,
) -> tuple[TimeSeries, DensityMatrix]:
    """Propagate the master equation, sampling observables at every grid point.

    ``analysis.Samples`` records the run: each sample's populations, and its
    upper triangle of rho, refilled from the stripes, for the stacked
    positivity check. The trace is never renormalized and its drift is a
    monitored failure signal (TraceDriftExceeded above 1e-8).
    """
    if not isinstance(rho0, DensityMatrix):
        raise DimensionMismatch("rho0 must be a DensityMatrix")
    n1 = rho0.dim
    stack = stripe_generators(channels, kerr, n1 - 1)
    d, k, l = _stripe_index(n1)

    values = rho0.entries[k, l]
    if not np.iscomplexobj(stack) and not np.any(values.imag):
        values = values.real
    y0 = np.zeros((n1, n1), dtype=values.dtype)
    y0[d, k] = values

    samples = Samples(t_grid, rho0.trace(), 0, upper=(k, l, d * n1 + k))
    y_final = integrate(lambda h: expm(stack * h), y0, samples.t, EXACT, post_accept=samples.add)
    upper = np.zeros((n1, n1), dtype=values.dtype)
    upper[k, l] = y_final[d, k]
    full = upper + upper.conj().T
    np.fill_diagonal(full, y_final[0].real)
    final = DensityMatrix(
        full, trace_deficit=rho0.trace_deficit, trace_tol=TRACE_DRIFT_LIMIT * 2
    )
    return samples.series(), final
