"""Population fast path.

Populations close on themselves: the diagonal obeys a birth-free cascade
ODE built from the squared lowering matrix elements, in dimension nmax + 1
instead of (nmax + 1)^2. Its generator is upper-triangular, since every
gain comes from a higher level, and ``integrate.integrate`` evolves it
exactly. This is the default engine for population-only observables; its
generator is stripe 0 of the dense engine's rule, ``dynamics._cascade``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Samples, TimeSeries
from .channels import JumpChannel, loss_table
from .dynamics import _cascade
from .fock import DensityMatrix, _frozen_array
from .integrate import _CHUNK, EXACT, expm, integrate


@dataclass(frozen=True)
class PopulationVector:
    """Real probability weights over levels 0..nmax (truncation deficit allowed)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError(f"populations must be a 1-D vector of >= 2 levels, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("populations must be finite")
        if p.min() < -1e-12:
            raise ValueError(f"negative population {p.min():.3e} below tolerance")
        if p.sum() > 1.0 + 1e-9:
            raise ValueError(f"populations sum to {p.sum()!r} > 1")
        object.__setattr__(self, "p", _frozen_array(p))

    @classmethod
    def from_density(cls, rho: DensityMatrix) -> "PopulationVector":
        return cls(rho.populations())


def population_generator(channels: list[JumpChannel], nmax: int) -> np.ndarray:
    """Upper-triangular generator M of dp/dt = M p over levels 0..nmax.

    Level n loses rate * |<n-d| L |n>|^2 and passes it to level n - d; the
    eigenvalues of M are its diagonal, the loss rates: ``dynamics._cascade``
    of the elements (n, n).
    """
    levels = np.arange(nmax + 1)
    (gen,) = _cascade(loss_table(channels, nmax), 0 * levels, levels, levels, levels)
    return gen


def evolve_populations(p0, channels: list[JumpChannel], t_grid) -> TimeSeries:
    """Propagate the closed population cascade and sample observables.

    Matches the diagonal of the dense engine on any scenario; roughly a
    thousand times fewer variables at the default cutoff, which is what
    makes fine parameter sweeps cheap. It is the batch of one.
    """
    (series,) = evolve_population_batch([p0], [channels], t_grid)
    return series


def evolve_population_batch(p0s, channel_sets, t_grid):
    """Propagate N cascades of one cutoff; yield their TimeSeries in order.

    The cascades run in stacks of at most ``integrate._CHUNK``, which bounds
    their memory. A stack's generators are stacked, so one ``expm`` call
    builds every propagator, one ``integrate`` call advances the (stack,
    levels) state and one ``analysis.Samples`` records it with the drift
    check of ``evolve_populations``: the cascade reported is the earliest
    to drift in time, then the first in order. ``expm`` scales a stack by
    its largest norm, so a cascade may take more squarings here than alone.
    """
    if len(p0s) != len(channel_sets):
        raise ValueError(f"{len(p0s)} initial states for {len(channel_sets)} channel sets")
    p_inits = [p0.p if isinstance(p0, PopulationVector) else PopulationVector(p0).p for p0 in p0s]
    for lo in range(0, len(p_inits), _CHUNK):
        stack = np.stack(p_inits[lo : lo + _CHUNK])
        nmax = stack.shape[1] - 1
        gens = np.stack([population_generator(ch, nmax) for ch in channel_sets[lo : lo + _CHUNK]])
        record = Samples(t_grid, stack.sum(axis=1), slice(None))
        integrate(lambda h: expm(gens * h), stack, record.t, EXACT, post_accept=record.add)
        for j in range(len(stack)):
            yield record.series(state=j)
