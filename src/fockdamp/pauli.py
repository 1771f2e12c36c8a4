"""Population fast path.

Populations close on themselves: the diagonal obeys a birth-free cascade
ODE built from the squared lowering matrix elements, in dimension nmax + 1
instead of (nmax + 1)^2. Its generator is upper-triangular, since every
gain comes from a higher level, and ``integrate.integrate`` evolves it
exactly. This is the default engine for population-only observables and
the independent oracle for the dense engine, whose stripe 0 is the same
cascade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Samples, TimeSeries
from .channels import JumpChannel, lowering_amplitudes, lowering_weight
from .errors import TraceDriftExceeded
from .fock import DensityMatrix, _frozen_array
from .integrate import EXACT, expm, integrate


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

    @property
    def nmax(self) -> int:
        return self.p.size - 1


def population_rates(channel: JumpChannel, n: int) -> tuple[float, int, float]:
    """(loss rate out of n, source level feeding n, gain coefficient from it).

    Loss out of level n is rate * |<n-d| L |n>|^2; the same formula one
    net-lowering step higher gives the gain flowing down into n.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    d = channel.net_lowering
    loss = channel.rate * lowering_weight(channel, n)
    gain = channel.rate * lowering_weight(channel, n + d)
    return loss, n + d, gain


def population_generator(channels: list[JumpChannel], nmax: int) -> np.ndarray:
    """Upper-triangular generator M of dp/dt = M p over levels 0..nmax.

    Level n loses rate * |<n-d| L |n>|^2 and passes it to level n - d; the
    eigenvalues of M are its diagonal, the loss rates.
    """
    levels = np.arange(nmax + 1)
    gen = np.zeros((nmax + 1, nmax + 1))
    for c in channels:
        if c.rate > 0.0:
            w = c.rate * lowering_amplitudes(c, nmax) ** 2
            gen[levels, levels] -= w
            src = levels[c.net_lowering :]
            gen[src - c.net_lowering, src] += w[src]
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
    """Propagate N cascades of one cutoff together; yield their TimeSeries in order.

    The generators are stacked, so one ``expm`` call builds every propagator
    and one ``integrate`` call advances the (N, levels) state. Each cascade
    keeps its own ``analysis.Samples``, which sees exactly the samples of
    ``evolve_populations`` and runs the same drift check. When any cascade
    drifts, the reported one is the earliest to do so in time, then the
    first in order. ``expm`` scales its stack of at most ``integrate._CHUNK``
    matrices by their largest norm, so a cascade may take more squarings
    here than alone. A recorder is dropped once its series is yielded.
    """
    if len(p0s) != len(channel_sets):
        raise ValueError(f"{len(p0s)} initial states for {len(channel_sets)} channel sets")
    p_inits = [
        p0.p if isinstance(p0, PopulationVector) else PopulationVector(np.asarray(p0)).p
        for p0 in p0s
    ]
    records = [Samples(t_grid, float(p.sum()), slice(None)) for p in p_inits]
    gens = np.stack(
        [population_generator(ch, p.size - 1) for ch, p in zip(channel_sets, p_inits)]
    )

    def post_accept(start, ys):
        try:
            for j, rec in enumerate(records):
                rec.add(start, ys[:, j])
        except TraceDriftExceeded:
            # the block again, sample by sample: the earliest drift in time is raised
            for i in range(len(ys)):
                for j, rec in enumerate(records):
                    rec.add(start + i, ys[i : i + 1, j])
            raise

    integrate(
        lambda h: expm(gens * h), np.stack(p_inits).astype(float), records[0].t, EXACT,
        post_accept=post_accept,
    )
    while records:
        yield records.pop(0).series()
