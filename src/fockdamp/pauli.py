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
    makes fine parameter sweeps cheap.
    """
    p_init = p0.p if isinstance(p0, PopulationVector) else PopulationVector(np.asarray(p0)).p
    samples = Samples(t_grid, float(p_init.sum()), slice(None))
    gen = population_generator(channels, p_init.size - 1)
    integrate(
        lambda h: expm(gen * h), p_init.astype(float), samples.t, EXACT, post_accept=samples.add
    )
    return samples.series()
