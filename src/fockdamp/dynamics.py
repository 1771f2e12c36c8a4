"""Dense master-equation evolution for one damped mode.

The generator is the canonical Lindblad form: for each channel with jump
operator L and rate r it adds r (L rho L^dag - {L^dag L, rho}/2), plus the
commutator of the Kerr term.

Because every jump operator is a lowering monomial, the generator couples
element (k, l) only to (k + d, l + d): each diagonal stripe rho[k, k + d]
evolves on its own under an upper-triangular generator, and the stripes
below the diagonal are the conjugates of those above. Stripe d holds
n - d elements (n = nmax + 1), so stripes d and n - d fill one n-element
block between them: ``evolve`` stacks the paired stripe generators d >= 0,
n // 2 + 1 blocks, and propagates them exactly with ``integrate.integrate``.
"""

from __future__ import annotations

import numpy as np

from .analysis import TRACE_DRIFT_LIMIT, Samples, TimeSeries
from .channels import JumpChannel, KerrTerm, loss_table
from .errors import DimensionMismatch
from .fock import DensityMatrix
from .integrate import EXACT, expm, integrate


def _stripe_index(n1: int):
    """(b, r, k, l) for every element (k, l = k + d) on or above the diagonal,
    stripe by stripe: stripe d lies in block b = min(d, n1 - d), at row r = k
    when d <= n1 - d and at row r = l otherwise."""
    d, k = np.nonzero(np.add.outer(np.arange(n1), np.arange(n1)) < n1)
    l = k + d
    low = d <= n1 - d
    return np.where(low, d, n1 - d), np.where(low, k, l), k, l


def _cascade(table, b, r, k, l, dtype=float) -> np.ndarray:
    """The one feed-and-decay rule: generators of the elements (k, l), element p
    at row r[p] of block b[p]. (k, l) decays at half the summed loss of k and l
    and is fed by (k + c, l + c), c rows on, for each channel lowering by c."""
    n1 = table.loss.size
    stack = np.zeros((b.max() + 1, n1, n1), dtype)
    flat, at = stack.reshape(-1), (b * n1 + r) * n1 + r  # at: the flat index of (b, r, r)
    for rate, c, amp in zip(table.rates, table.lowerings, table.amps):
        fed = l < n1 - c  # (k + c, l + c) is inside the cutoff
        flat[c:][at[fed]] += rate * amp[c:][k[fed]] * amp[c:][l[fed]]
    flat[at] = 0.0 - 0.5 * (table.loss[k] + table.loss[l])  # dark: +0.0, not -0.0
    return stack


def stripe_generators(channels, kerr, nmax) -> np.ndarray:
    """Generators of the stripes d = 0..nmax, paired into an
    (n // 2 + 1, n, n) stack, n = nmax + 1.

    Block 0 is stripe 0, the populations. Block b > 0 holds stripe b,
    rho[k, k + b], at rows k < n - b and stripe n - b, rho[k, k + n - b], at
    rows k + n - b; for even n the middle block's rows n/2.. stay empty.
    Each stripe is a ``_cascade``, so each block is upper-triangular; Kerr
    turns (k, l) at u1 [k(k-1) - l(l-1)]. The stack is real when u1 = 0.
    """
    n1 = nmax + 1
    b, r, k, l = _stripe_index(n1)
    u1 = kerr.strength if kerr is not None else 0.0
    stack = _cascade(loss_table(channels, nmax), b, r, k, l, complex if u1 != 0.0 else float)
    if u1 != 0.0:
        kappa = np.arange(n1) * (np.arange(n1) - 1.0)
        stack[b, r, r] -= 1j * u1 * (kappa[k] - kappa[l])
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
    positivity gate. The trace is never renormalized and its drift is a
    monitored failure signal (TraceDriftExceeded above 1e-8).
    """
    if not isinstance(rho0, DensityMatrix):
        raise DimensionMismatch("rho0 must be a DensityMatrix")
    n1 = rho0.dim
    stack = stripe_generators(channels, kerr, n1 - 1)
    b, r, k, l = _stripe_index(n1)

    values = rho0.entries[k, l]
    if not np.iscomplexobj(stack) and not np.any(values.imag):
        values = values.real
    y0 = np.zeros(stack.shape[:2], dtype=values.dtype)
    y0[b, r] = values

    samples = Samples(t_grid, rho0.trace(), upper=(k, l, b * n1 + r))
    y_final = integrate(lambda h: expm(stack * h), y0, samples.t, EXACT, post_accept=samples.add)
    upper = np.zeros((n1, n1), dtype=values.dtype)
    upper[k, l] = y_final[b, r]
    full = upper + upper.conj().T
    np.fill_diagonal(full, y_final[0].real)
    final = DensityMatrix(full, trace_deficit=rho0.trace_deficit, trace_tol=TRACE_DRIFT_LIMIT * 2)
    return samples.series(), final
