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
from .channels import JumpChannel, loss_tables
from .dynamics import _cascade
from .fock import _frozen_array
from .integrate import EXACT, _top_power, expm, integrate

# the bytes a group of cascades may hold, well under scenario.ARRAY_LIMIT: 22
# points of 801 samples on 41 levels
_GROUP_BYTES = 8 * 2**20


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


def population_generator(channels: list[JumpChannel], nmax: int) -> np.ndarray:
    """Upper-triangular generator M of dp/dt = M p over levels 0..nmax.

    Level n loses rate * |<n-d| L |n>|^2 and passes it to level n - d; the
    eigenvalues of M are its diagonal, the loss rates: ``dynamics._cascade``
    of the elements (n, n).
    """
    (gen,) = population_generators([channels], nmax)
    return gen


def population_generators(channel_sets, nmax: int) -> np.ndarray:
    """The ``population_generator`` of each mix, bit for bit, as a (mixes,
    levels, levels) stack: one ``channels.loss_tables`` table and one
    ``dynamics._cascade`` call for them all."""
    levels = np.arange(nmax + 1)
    return _cascade(loss_tables(channel_sets, nmax), 0 * levels, levels, levels, levels)[:, 0]


def evolve_populations(p0, channels: list[JumpChannel], t_grid) -> TimeSeries:
    """Propagate the closed population cascade and sample observables.

    Matches the diagonal of the dense engine on any scenario; roughly a
    thousand times fewer variables at the default cutoff, which is what
    makes fine parameter sweeps cheap. It is the batch of one.
    """
    (series,) = evolve_population_batch([p0], [channels], t_grid)
    return series


def group_points(levels: int, samples: int) -> int:
    """The most cascades of ``levels`` levels and ``samples`` samples that
    ``evolve_population_batch`` runs together, at least 1.

    A point holds its record, samples x levels floats, and levels^2 floats
    each for its generator and for every propagator power ``integrate``
    keeps, P to P^(2^J) for the top power 2^J. A group takes as many points
    as fit in _GROUP_BYTES.
    """
    top = _top_power(levels, samples).bit_length() - 1  # J
    point = 8 * (samples * levels + (top + 2) * levels * levels)
    return max(_GROUP_BYTES // point, 1)


def evolve_population_batch(p0s, channel_sets, t_grid):
    """Propagate N cascades of one cutoff; yield their TimeSeries in order.

    The cascades run in groups of ``group_points``, which bounds their
    memory. A group's generators come from one ``population_generators``
    call, one ``expm`` call builds every propagator, one ``integrate`` call
    advances the (group, levels) state and one ``analysis.Samples`` records
    it with the drift check of ``evolve_populations``: the cascade reported
    is the earliest to drift in time, then the first in order. One
    ``moments`` pass summarizes the group's record. ``expm`` scales each
    propagator by its own norm, so a cascade's propagator is its own bits
    however the cascades are grouped; the group's ``moments`` product can
    still round a cascade's mean, spread or g2 otherwise than its lone run.
    """
    if len(p0s) != len(channel_sets):
        raise ValueError(f"{len(p0s)} initial states for {len(channel_sets)} channel sets")
    p_inits = [p0.p if isinstance(p0, PopulationVector) else PopulationVector(p0).p for p0 in p0s]
    size = group_points(p_inits[0].size, np.size(t_grid)) if p_inits else 1
    for lo in range(0, len(p_inits), size):
        stack = np.stack(p_inits[lo : lo + size])
        gens = population_generators(channel_sets[lo : lo + size], stack.shape[1] - 1)
        record = Samples(t_grid, stack.sum(axis=1))
        integrate(lambda h: expm(gens * h), stack, record.t, EXACT, post_accept=record.add)
        yield from record.each_series()
