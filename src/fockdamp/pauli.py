"""Population and stripe fast paths.

Populations close on themselves: the diagonal obeys a birth-free cascade
ODE built from the squared lowering matrix elements, in dimension nmax + 1
instead of (nmax + 1)^2. This is the default engine for population-only
observables and the independent oracle for the dense integrator.

For the pure nonlinear-absorber process, each stripe rho_{k, k+d} of the
density matrix also evolves independently; ``evolve_stripe`` integrates a
single stripe. Mixed-channel coherences go through the dense path instead;
no off-diagonal equations are invented for them here. Both paths take their
window shrinking and step cap from ``integrate.cascade_window``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import TimeSeries, observables
from .channels import JumpChannel, lowering_amplitudes, lowering_weight, nonlinear_loss
from .errors import TraceDriftExceeded
from .fock import DensityMatrix, _frozen_array
from .integrate import IntegratorConfig, cascade_window, integrate

_SUM_DRIFT_LIMIT = 1e-8


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


@dataclass(frozen=True)
class StripeVector:
    """One stripe rho_{k, k+offset}, k = 0..nmax-offset. The offset-0 stripe is real."""

    offset: int
    values: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.offset, (int, np.integer)) and self.offset >= 0):
            raise ValueError(f"stripe offset must be an integer >= 0, got {self.offset!r}")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("stripe values must be a non-empty 1-D vector")
        if self.offset == 0:
            if np.max(np.abs(v.imag)) > 1e-12 or v.real.min() < -1e-12:
                raise ValueError("the diagonal stripe must be real and nonnegative")
        object.__setattr__(self, "values", _frozen_array(v))


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


def evolve_populations(p0, channels: list[JumpChannel], t_grid, cfg: IntegratorConfig | None = None) -> TimeSeries:
    """Integrate the closed population cascade and sample observables.

    Matches the diagonal of the dense integrator on any scenario; roughly a
    thousand times fewer variables at the default cutoff, which is what
    makes fine parameter sweeps cheap.
    """
    cfg = cfg or IntegratorConfig()
    p_init = p0.p if isinstance(p0, PopulationVector) else PopulationVector(np.asarray(p0)).p
    nmax = p_init.size - 1
    active = [c for c in channels if c.rate > 0.0]
    loss = np.zeros(nmax + 1)
    gains = np.zeros((max(len(active), 1), nmax + 1))
    deltas = np.zeros(max(len(active), 1), dtype=np.int64)
    for ci, c in enumerate(active):
        w = c.rate * lowering_amplitudes(c, nmax) ** 2
        loss += w
        deltas[ci] = c.net_lowering
        gains[ci] = w
    sum0 = float(p_init.sum())
    h_cap, post_accept = cascade_window(loss, cfg.abs_tol)

    def rhs(y):
        m1 = y.size
        out = -loss[:m1] * y
        for c in range(gains.shape[0]):
            d = int(deltas[c])
            if d < m1:
                out[: m1 - d] += gains[c, d:m1] * y[d:]
        return out

    t_arr = np.asarray(t_grid, dtype=float)
    pops = np.zeros((t_arr.size, nmax + 1))
    mean = np.zeros(t_arr.size)
    std = np.zeros(t_arr.size)
    g2 = np.zeros(t_arr.size)
    trace_err = np.zeros(t_arr.size)

    def on_sample(i, t, y):
        pops[i, : y.size] = y
        obs = observables(pops[i])
        mean[i], std[i], g2[i] = obs.mean_n, obs.std_n, obs.g2
        drift = abs(float(y.sum()) - sum0)
        trace_err[i] = drift
        if not drift <= _SUM_DRIFT_LIMIT:
            raise TraceDriftExceeded(
                f"population sum drifted by {drift:.3e} at t={t:.6g}"
            )

    y0, _ = post_accept(p_init.astype(float), None)
    integrate(rhs, y0, t_arr, cfg, post_accept=post_accept, on_sample=on_sample, h_cap_fn=h_cap)
    return TimeSeries(t_arr, mean, std, g2, trace_err, pops)


@dataclass(frozen=True)
class StripeTrajectory:
    t: np.ndarray
    values: np.ndarray  # (samples, stripe length), zero-padded
    offset: int

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen_array(np.asarray(self.t, float)))
        object.__setattr__(
            self, "values", _frozen_array(np.asarray(self.values, np.complex128))
        )


def evolve_stripe(
    s0: StripeVector, gamma_e: float, t_grid, cfg: IntegratorConfig | None = None
) -> StripeTrajectory:
    """Evolve one stripe under the pure nonlinear absorber.

    Element (k, k+d) decays at (rate/2)[k(k-1)^2 + l(l-1)^2] and is fed by
    element (k+1, l+1) with coefficient rate * k sqrt(k+1) * l sqrt(l+1);
    the offset-0 stripe reduces to the population cascade. Only the single
    nonlinear channel is supported (the call signature admits nothing else);
    mixed channel sets must use the dense path.
    """
    cfg = cfg or IntegratorConfig()
    if not gamma_e >= 0.0:
        raise ValueError(f"rate must be >= 0, got {gamma_e}")
    d = s0.offset
    length = s0.values.size
    nmax = length - 1 + d
    amp = lowering_amplitudes(nonlinear_loss(1.0), nmax)
    w = amp**2
    k = np.arange(length)
    decay = 0.5 * gamma_e * (w[k] + w[k + d])
    feed = np.zeros(length)
    if length > 1:
        feed[:-1] = gamma_e * amp[k[:-1] + 1] * amp[k[:-1] + d + 1]

    def rhs(y):
        m1 = y.size
        out = (-decay[:m1]).astype(np.complex128) * y
        if m1 > 1:
            out[: m1 - 1] += feed[: m1 - 1] * y[1:]
        return out

    h_cap, post_accept = cascade_window(decay, cfg.abs_tol)

    t_arr = np.asarray(t_grid, dtype=float)
    out = np.zeros((t_arr.size, length), dtype=np.complex128)

    def on_sample(i, t, y):
        out[i, : y.size] = y

    y0, _ = post_accept(s0.values.astype(np.complex128), None)
    integrate(rhs, y0, t_arr, cfg, post_accept=post_accept, on_sample=on_sample, h_cap_fn=h_cap)
    return StripeTrajectory(t_arr, out, d)
